"""The pipeline CLI: stage wiring, exit codes, artifact discipline."""

import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import wifi_proximity
from wifi_proximity import fileio, models
from wifi_proximity.cli import STAGES, _split_for, main, output_paths
from wifi_proximity.config import load_config
from wifi_proximity.features import (
    FEATURE_NAMES,
    FeatureTable,
    apply_imputation,
    fit_imputation,
    model_matrix,
)
from wifi_proximity.ingest import WifiScans as ScanTable
from wifi_proximity.models import FEATURESETS, load_model
from wifi_proximity.pairing import CandidateTable, split_indices
from wifi_proximity.records import RSSI_MIN, TS_END
from wifi_proximity.synthgen import WorldConfig

import ingest_reference
import matrix_reference
import score_reference
from conftest import TINY_WORLD_STATS, world_conf
from test_parse_blocks import (
    TIMES,
    USERS,
    ap,
    entry,
    often,
    perturbed,
    rssis,
    sighting,
    users,
)


def run(args):
    return main(args)


def run_hash(d):
    return fileio.read_json(d / "home_routers.json", fileio.SCHEMA_HOMES)["config_hash"]


def restamp(path, old, new="deadbeef0000"):
    """Give an artifact another config hash and leave the rest as it was."""
    if path.suffix == ".npz":
        with np.load(path) as archive:
            arrays = dict(archive)
        header = json.loads(arrays.pop("header").tobytes())
        assert header.pop("config_hash") == old
        fileio.write_npz(path, header.pop("schema"), new, header, arrays)
    else:
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))


def copy_logs(src, dst, edit):
    """Write src's wifi.jsonl to dst with its rows passed through edit,
    and copy bluetooth.jsonl as it is."""
    lines = (src / "wifi.jsonl").read_text().splitlines()
    rows = edit([json.loads(line) for line in lines[1:]])
    (dst / "wifi.jsonl").write_text(
        "\n".join([lines[0]] + [json.dumps(row) for row in rows]) + "\n")
    (dst / "bluetooth.jsonl").write_bytes((src / "bluetooth.jsonl").read_bytes())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, tiny_world):
    """One tiny-world pipeline run shared by the read-only CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    conf = d / "world.conf"
    lines = [f"world.{k} = {v}" for k, v in dict(
        n_users=tiny_world.n_users, n_routers=tiny_world.n_routers,
        days=tiny_world.days, n_buildings=tiny_world.n_buildings,
        n_venues=tiny_world.n_venues, area_m=tiny_world.area_m).items()]
    lines.append(f"seed = {tiny_world.seed}")
    conf.write_text("\n".join(lines) + "\n")
    base = ["--dir", str(d), "--config", str(conf)]
    for stage in ("generate", "clean", "pair", "featurize"):
        assert run([stage] + base) == 0, stage
    assert run(["train"] + base) == 0
    assert run(["evaluate"] + base) == 0
    assert run(["train"] + base + ["--featureset", "NEARME"]) == 0
    assert run(["evaluate"] + base + ["--featureset", "NEARME"]) == 0
    assert run(["report"] + base) == 0
    return d, base


class TestHappyPath:
    def test_artifacts_exist(self, workdir):
        d, _ = workdir
        for name in ("wifi.jsonl", "bluetooth.jsonl", "ground_truth.jsonl",
                     "cleaned.jsonl", "scans.npz", "cleaning_report.json",
                     "home_routers.json", "candidates.npz", "candidates.csv",
                     "features.npz", "features.csv", "model_full_gbt.json", "eval_full_gbt.json",
                     "model_nearme_gbt.json", "eval_nearme_gbt.json",
                     "report.json"):
            assert (d / name).exists(), name

    def test_a_run_writes_exactly_the_manifests_files(self, tmp_path, tiny_world, monkeypatch):
        """generate to report, FULL and gbt, writes every file that STAGES
        declares for them and nothing else beside its config."""
        monkeypatch.setitem(models.DEFAULT_GBT_PARAMS, "n_trees", 5)
        conf = tmp_path / "world.conf"
        conf.write_text(world_conf(tiny_world))
        for stage in STAGES:
            assert run([stage, "--dir", str(tmp_path), "--config", str(conf)]) == 0, stage
        declared = {p.name for p in output_paths(tmp_path, "FULL", "gbt").values()}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(declared | {"world.conf"})

    def test_candidates_schema(self, workdir):
        d, _ = workdir
        meta, columns, rows = fileio.read_csv(d / "candidates.csv",
                                              fileio.SCHEMA_CANDIDATES)
        assert columns == ["user_a", "user_b", "ts_a", "ts_b", "ts",
                           "label", "bt_rssi"]
        assert rows
        labels = {r[5] for r in rows}
        assert labels <= {"0", "1"}
        # negatives carry no bluetooth rssi
        assert all(r[6] == "" for r in rows if r[5] == "0")

    def test_features_schema(self, workdir):
        from wifi_proximity.features import FEATURE_NAMES
        d, _ = workdir
        meta, columns, rows = fileio.read_csv(d / "features.csv",
                                              fileio.SCHEMA_FEATURES)
        assert columns[:6] == ["user_a", "user_b", "ts_a", "ts_b", "ts", "label"]
        assert columns[6:] == FEATURE_NAMES
        n_cand = len(fileio.read_csv(d / "candidates.csv",
                                     fileio.SCHEMA_CANDIDATES)[2])
        assert len(rows) == n_cand

    def test_missing_correlations_render_empty(self, workdir):
        from wifi_proximity.features import FEATURE_NAMES
        d, _ = workdir
        _, columns, rows = fileio.read_csv(d / "features.csv",
                                           fileio.SCHEMA_FEATURES)
        col = 6 + FEATURE_NAMES.index("spearman")
        assert any(r[col] == "" for r in rows)

    def test_all_artifacts_share_one_config_hash(self, workdir):
        d, _ = workdir
        hashes = set()
        for name in ("cleaned.jsonl",):
            hashes.add(fileio.read_jsonl_header(d / name, fileio.SCHEMA_WIFI)
                       ["config_hash"])
        for name, schema in (("candidates.csv", fileio.SCHEMA_CANDIDATES),
                             ("features.csv", fileio.SCHEMA_FEATURES)):
            hashes.add(fileio.read_csv(d / name, schema)[0]["config_hash"])
        for name, schema in (("model_full_gbt.json", fileio.SCHEMA_MODEL),
                             ("eval_full_gbt.json", fileio.SCHEMA_EVAL),
                             ("report.json", fileio.SCHEMA_REPORT)):
            hashes.add(fileio.read_json(d / name, schema)["config_hash"])
        assert len(hashes) == 1

    def test_model_respects_featureset(self, workdir):
        d, _ = workdir
        model, _doc = load_model(d / "model_nearme_gbt.json")
        assert list(model.feature_names) == FEATURESETS["NEARME"]
        assert model.imputation is not None

    def test_eval_payload_shape(self, workdir):
        d, _ = workdir
        doc = fileio.read_json(d / "eval_full_gbt.json", fileio.SCHEMA_EVAL)
        assert 0.5 < doc["test"]["auc"] <= 1.0
        assert doc["train"]["n"] + doc["test"]["n"] == doc["split"]["n"]
        assert "strata" in doc["test"]
        assert doc["featureset"] == "FULL"

    def test_report_payload_shape(self, workdir):
        from wifi_proximity.features import FEATURE_NAMES
        d, _ = workdir
        doc = fileio.read_json(d / "report.json", fileio.SCHEMA_REPORT)
        assert set(doc["single_features"]) == set(FEATURE_NAMES)
        for row in doc["single_features"].values():
            assert {"train_auc", "test_auc", "test_f1", "threshold",
                    "direction"} <= set(row)
        assert "FULL:gradient-boosted" in doc["featuresets"]
        assert doc["n"] == doc["n_train"] + doc["n_test"]

    def test_single_features_match_the_reference_calls(self, workdir):
        """Bit for bit: every field as json writes it, so -0.0 and 0.0 differ."""
        d, _ = workdir
        doc = fileio.read_json(d / "report.json", fileio.SCHEMA_REPORT)
        cfg = load_config(d / "world.conf")
        feats = FeatureTable.load(d / "features.npz")
        train_idx, test_idx = _split_for(cfg, len(feats.label))
        X_imp = apply_imputation(feats.X, fit_imputation(feats.X[train_idx]))
        want = score_reference.single_features(X_imp, feats.label, train_idx, test_idx)
        assert json.dumps(doc["single_features"]) == json.dumps(want)

    def test_model_matrices_equal_the_reference_expressions(self, workdir):
        """Bit for bit, for every featureset: the imputation, train's and
        evaluate's matrices, and report's two sides."""
        d, _ = workdir
        X = FeatureTable.load(d / "features.npz").X
        train_idx, test_idx = _split_for(load_config(d / "world.conf"), len(X))
        imputation = fit_imputation(X, train_idx)

        def same(got, want):
            assert got.flags.f_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

        for name, names in FEATURESETS.items():
            want_imputation, want = matrix_reference.train_matrix(X, train_idx, names)
            assert repr(imputation) == repr(want_imputation), name
            same(model_matrix(X, train_idx, names, imputation), want)
            same(model_matrix(X, test_idx, names, imputation),
                 matrix_reference.evaluate_matrix(X, test_idx, names, imputation))
        want_imputation, want_train, want_test = matrix_reference.report_sides(
            X, train_idx, test_idx)
        assert repr(imputation) == repr(want_imputation)
        same(model_matrix(X, train_idx, FEATURE_NAMES, imputation), want_train)
        same(model_matrix(X, test_idx, FEATURE_NAMES, imputation), want_test)

    def test_cleaning_report_counts(self, workdir):
        d, _ = workdir
        doc = fileio.read_json(d / "cleaning_report.json", fileio.SCHEMA_CLEANING)
        assert doc["records"] > 0
        assert doc["skipped_lines"] == 0

    def test_home_routers_file(self, workdir, tiny_world):
        d, _ = workdir
        doc = fileio.read_json(d / "home_routers.json", fileio.SCHEMA_HOMES)
        assert len(doc["homes"]) == tiny_world.n_users
        assert doc["bin_minutes"] == 10


class TestExitCodes:
    def test_usage_errors(self):
        assert run([]) == 2
        assert run(["frobnicate"]) == 2
        assert run(["train", "--model", "svm"]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        (tmp_path / "a_directory.conf").mkdir()
        for path, text in [(bad, b"train_size = 2.0\n"), (tmp_path / "missing.conf", None),
                           (bad, b"unknown_key = 1\n"), (bad, b"seed = 1\xff\n"),
                           (tmp_path / "a_directory.conf", None)]:
            if text is not None:
                path.write_bytes(text)
            capsys.readouterr()
            assert run(["clean", "--dir", str(tmp_path), "--config", str(path)]) == 4, text
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_scan_period_that_does_not_divide_an_hour(self, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text("world.n_users = 8\nworld.scan_period_s = 7200\n")
        capsys.readouterr()
        assert run(["generate", "--dir", str(tmp_path), "--config", str(conf)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "scan_period_s" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "wifi.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("path_loss_exponent", "0"), ("path_loss_exponent", "inf"), ("p0_dbm", "nan"),
        ("noise_sigma_db", "inf"), ("device_noise_sigma_db", "-1"),
        ("bt_rssi_at_1m", "nan"), ("bt_path_exponent", "inf"), ("bt_noise_sigma_db", "-1"),
        ("bt_range_m", "-5"), ("bt_range_m", "nan"),
    ])
    def test_radio_key_out_of_range(self, tmp_path, capsys, key, value):
        conf = tmp_path / "c.conf"
        conf.write_text(f"world.n_users = 8\nworld.{key} = {value}\n")
        capsys.readouterr()
        assert run(["generate", "--dir", str(tmp_path), "--config", str(conf)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "wifi.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("site_pitch_m", "0"), ("dense_complex_units", "0"), ("n_venues", "-1"),
        ("rooms_per_building", "0"), ("street_routers_per_dense_complex", "-1"),
        ("weekday_meeting_rate", "-1"), ("weekday_meeting_rate", "nan"), ("area_m", "inf"),
        ("area_m", "nan"), ("start_ts", "253402214000"), ("building_radius_m", "nan"),
        # a world that cannot be laid out: too few routers for a home router
        # per user, too few sites on the grid, more routers than bssids
        ("n_users", "400"), ("area_m", "500"), ("n_routers", str(2 ** 24)),
    ])
    def test_world_key_that_generate_cannot_use(self, tmp_path, capsys, key, value):
        # each crashed generate, failed it with a message naming no key, or
        # wrote logs that ingest rejects or that hold NaN positions; the
        # layout's failures exited 3 and left an empty run directory
        conf = tmp_path / "c.conf"
        conf.write_text(f"world.n_users = 8\nworld.days = 1\nworld.{key} = {value}\n")
        capsys.readouterr()
        assert run(["generate", "--dir", str(tmp_path / "run"), "--config", str(conf)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_negative_seed_beside_an_explicit_world_seed(self, tmp_path, capsys):
        # the world seed was valid, so every stage up to train used to run
        conf = tmp_path / "c.conf"
        conf.write_text("world.n_users = 8\nworld.days = 1\nworld.seed = 7\n")
        capsys.readouterr()
        assert run(["generate", "--dir", str(tmp_path), "--config", str(conf),
                    "--seed", "-1"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "wifi.jsonl").exists()

    def test_delta_t_beyond_the_timestamp_range(self, tmp_path, capsys):
        # with 2**62, pair raised OverflowError; the config now refuses it
        # before any input is read
        capsys.readouterr()
        assert run(["pair", "--dir", str(tmp_path), "--delta-t", str(2 ** 62)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "delta_t_s" in err
        assert err.count("\n") == 1

    def test_data_error_on_missing_inputs(self, tmp_path):
        assert run(["clean", "--dir", str(tmp_path)]) == 3
        assert run(["pair", "--dir", str(tmp_path)]) == 3
        assert run(["train", "--dir", str(tmp_path)]) == 3

    def test_strict_parse_aborts_on_bad_line(self, tmp_path, workdir):
        src, _ = workdir
        d = tmp_path
        wifi = (src / "wifi.jsonl").read_text().splitlines()
        wifi.insert(3, "this is not json")
        (d / "wifi.jsonl").write_text("\n".join(wifi) + "\n")
        (d / "bluetooth.jsonl").write_text((src / "bluetooth.jsonl").read_text())
        assert run(["clean", "--dir", str(d)]) == 0      # lenient skips
        assert run(["clean", "--dir", str(d), "--strict-parse"]) == 3

    def test_report_refuses_foreign_eval(self, tmp_path, workdir):
        src, base = workdir
        # an eval produced under a different config hash must be rejected
        foreign = tmp_path / "eval_full_gbt.json"
        doc = fileio.read_json(src / "eval_full_gbt.json", fileio.SCHEMA_EVAL)
        payload = {k: v for k, v in doc.items()
                   if k not in ("schema", "config_hash")}
        fileio.write_json(foreign, fileio.SCHEMA_EVAL, "deadbeef0000", payload)
        code = run(["report"] + base + ["--evals", str(foreign)])
        assert code == 3


# the scipy modules loaded, printed last, after the code before it has run
SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# prints the three BLAS thread variables as numpy's import found them, or,
# when numpy was not imported, 'unloaded' and their values at the end
BLAS_SEEN = f"""
import os, sys
names = {BLAS_THREADS!r}
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(n) for n in names])
sys.meta_path.insert(0, Spy())
exec(sys.argv[1])
print(seen[0] if seen else ["unloaded"] + [os.environ.get(n) for n in names])
"""


class TestStartup:
    """Every CLI process pays for what the package imports. scipy would
    cost each one 0.25-0.3 s and about 20 MB, so no stage loads it. And
    the package sets numpy's BLAS to one thread before numpy loads, unless
    the caller chose a number."""

    def last_line(self, code, *args, blas=None):
        """The last line that `python -c code args` prints with the package
        on the path; blas, when given, replaces the BLAS thread variables."""
        env = {k: v for k, v in os.environ.items() if blas is None or k not in BLAS_THREADS}
        env.update(blas or {})
        package_root = str(Path(wifi_proximity.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def scipy_loaded(self, code, *args):
        return self.last_line(code + "\n" + SCIPY_LOADED, *args)

    def test_importing_the_cli_loads_no_scipy(self):
        assert self.scipy_loaded("import sys, wifi_proximity.cli") == "[]"

    def test_importing_the_package_pins_blas_before_numpy_loads(self):
        assert self.last_line(BLAS_SEEN, "import wifi_proximity", blas={}) == \
            "['unloaded', '1', '1', '1']"
        assert self.last_line(BLAS_SEEN, "import wifi_proximity.cli", blas={}) == \
            "['1', '1', '1']"

    def test_a_blas_thread_count_the_caller_set_stays(self):
        assert self.last_line(BLAS_SEEN, "import wifi_proximity.cli",
                              blas={"OPENBLAS_NUM_THREADS": "2"}) == "['2', '1', '1']"

    def test_a_run_from_clean_to_report_loads_no_scipy(self, tmp_path, workdir):
        src, base = workdir
        for name in ("wifi.jsonl", "bluetooth.jsonl"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        code = "\n".join([
            "import sys",
            "from wifi_proximity import cli, models",
            "models.DEFAULT_GBT_PARAMS['n_trees'] = models.DEFAULT_RF_PARAMS['n_trees'] = 5",
            "for stage in ('clean', 'pair', 'featurize', 'train --model gbt',",
            "              'evaluate --model gbt', 'train --model rf',",
            "              'evaluate --model rf', 'report'):",
            "    assert cli.main(stage.split() + sys.argv[1:]) == 0, stage"])
        assert self.scipy_loaded(code, "--dir", str(tmp_path), *base[2:]) == "[]"
        assert (tmp_path / "report.json").exists()

    def test_generate_with_stats_loads_no_scipy(self, tmp_path, tiny_world):
        conf = tmp_path / "world.conf"
        conf.write_text(world_conf(tiny_world))
        code = ("import sys\nfrom wifi_proximity import cli\n"
                "assert cli.main(['generate', '--stats'] + sys.argv[1:]) == 0")
        assert self.scipy_loaded(code, "--dir", str(tmp_path), "--config", str(conf)) == "[]"


class TestPeakMemory:
    """train, evaluate and report gather each side's model matrix once from
    the loaded features, and train and evaluate drop the loaded matrix
    before they fit or score the last side. Their traced peaks, in copies
    of the feature matrix: train about 1.9 (4.6 when it imputed every row,
    selected columns and then took the train rows), evaluate about 2.0
    (3.7), report about 2.4 (2.8)."""

    BOUNDS = {"train": 2.5, "evaluate": 2.5, "report": 2.75}

    def test_traced_peaks_in_copies_of_the_matrix(self, tmp_path, monkeypatch):
        monkeypatch.setitem(models.DEFAULT_GBT_PARAMS, "n_trees", 5)
        n = 20000
        rng = np.random.default_rng(0)
        X = rng.integers(0, 50, size=(n, len(FEATURE_NAMES))).astype(float)
        for name in ("spearman", "pearson"):
            col = FEATURE_NAMES.index(name)
            X[:, col] = rng.uniform(-1.0, 1.0, n)
            X[rng.random(n) < 0.85, col] = np.nan
        label = (rng.random(n) < 0.27).astype(np.int64)
        bt_rssi = np.where(label == 1, -70.0, np.nan)
        FeatureTable(X, label, rng.integers(0, 10 ** 6, n), bt_rssi).save(
            tmp_path / "features.npz", load_config().data_hash())
        peaks = {}
        for stage in self.BOUNDS:
            tracemalloc.start()
            try:
                assert run([stage, "--dir", str(tmp_path)]) == 0, stage
                peaks[stage] = tracemalloc.get_traced_memory()[1] / X.nbytes
            finally:
                tracemalloc.stop()
        assert [stage for stage, bound in self.BOUNDS.items() if peaks[stage] >= bound] == [], peaks

    # the traced peaks of the stages before train on the town (one day,
    # seed 3), in copies of scans.npz's arrays: generate about 3.92-3.96,
    # clean 3.49 (4.18 when it held both orders of the scan table at
    # once), pair 3.28 and featurize 5.39. One more int64 array
    # per scan entry, kept to the end of the stage, adds 0.55 (0.38 to
    # generate, whose peak comes before its scan table is complete).
    PREP_BOUNDS = {"generate": 4.15, "clean": 4.45, "pair": 3.55, "featurize": 5.65}

    def test_traced_peaks_in_copies_of_the_scan_table(self, tmp_path, tiny_world):
        # a run on the tiny world first makes the stages' lazy imports
        # (numpy.random, numpy.ma), which would count in a traced peak
        conf = tmp_path / "world.conf"
        conf.write_text(world_conf(tiny_world))
        for stage in self.PREP_BOUNDS:
            assert run([stage, "--dir", str(tmp_path / "tiny"), "--config", str(conf)]) == 0
        conf.write_text("world.days = 1\nseed = 3\n")
        peaks = {}
        for stage in self.PREP_BOUNDS:
            tracemalloc.start()
            try:
                assert run([stage, "--dir", str(tmp_path), "--config", str(conf)]) == 0, stage
                peaks[stage] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        with np.load(tmp_path / "scans.npz") as archive:
            table_bytes = sum(archive[f.name].nbytes for f in fields(ScanTable)
                              if "dtype" in f.metadata)
        peaks = {stage: peak / table_bytes for stage, peak in peaks.items()}
        assert [stage for stage, bound in self.PREP_BOUNDS.items()
                if peaks[stage] >= bound] == [], peaks


class TestDeterminism:
    def test_stage_rerun_is_byte_identical(self, workdir):
        d, base = workdir
        before = (d / "candidates.csv").read_bytes()
        assert run(["pair"] + base) == 0
        assert (d / "candidates.csv").read_bytes() == before

    def test_train_rerun_is_byte_identical(self, workdir):
        d, base = workdir
        before = (d / "model_full_gbt.json").read_bytes()
        assert run(["train"] + base) == 0
        assert (d / "model_full_gbt.json").read_bytes() == before


class TestGenerateStats:
    def test_stats_come_from_the_tables_generate_built(self, tmp_path, tiny_world,
                                                       capsys, monkeypatch):
        """generate --stats prints the tiny world's pinned figures, one
        line per key in key order, and reads no log back to do it."""
        conf = tmp_path / "world.conf"
        conf.write_text(world_conf(tiny_world))

        def no_read(*args, **kwargs):
            raise AssertionError("generate --stats read a log back")

        monkeypatch.setattr(fileio, "iter_jsonl", no_read)
        capsys.readouterr()
        assert run(["generate", "--stats", "--dir", str(tmp_path), "--config", str(conf)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("generate: wrote wifi.jsonl")
        assert out[1:] == [f"  {key} = {value}" for key, value in sorted(TINY_WORLD_STATS.items())]


class TestCorrelationsWithNoValue:
    def test_scans_of_two_aps_run_from_clean_to_report(self, tmp_path, workdir):
        """Scans cut to their first two APs give no spearman or pearson
        value at all; train, evaluate and report still run."""
        src, base = workdir

        def first_two_aps(rows):
            for row in rows:
                row["aps"] = row["aps"][:2]
            return rows

        copy_logs(src, tmp_path, first_two_aps)
        args = ["--dir", str(tmp_path)] + base[2:]
        for stage in ("clean", "pair", "featurize"):
            assert run([stage] + args) == 0, stage
        X = FeatureTable.load(tmp_path / "features.npz").X
        assert np.isnan(X[:, [FEATURE_NAMES.index("spearman"),
                              FEATURE_NAMES.index("pearson")]]).all()
        for featureset in ("FULL", "AP_PRESENCE"):
            for stage in ("train", "evaluate"):
                assert run([stage] + args + ["--model", "gbt", "--featureset", featureset]) == 0
        assert run(["report"] + args) == 0
        assert (tmp_path / "report.json").exists()


def upper_case_every_other_bssid(rows):
    for ap in [ap for row in rows for ap in row["aps"]][::2]:
        ap["bssid"] = ap["bssid"].upper()
    return rows


def empty_aps_every_third_line(rows):
    for row in rows[::3]:
        row["aps"] = []
    return rows


def rename_two_users(rows):
    """The first two users of the rows take new ids: the first one that is
    not ASCII (u000 becomes u\u00e9000), the second one ending in a NUL."""
    first, *second = list(dict.fromkeys(row["user"] for row in rows))[:2]
    names = {first: first[:1] + "\u00e9" + first[1:], **{u: u + "\x00" for u in second}}
    for row in rows:
        row["user"] = names.get(row["user"], row["user"])
    return rows


def ts_at_both_ends(rows):
    rows[0]["ts"], rows[-1]["ts"] = 0, TS_END - 1
    return rows


def empty_ssids(rows):
    for row in rows:
        for ap in row["aps"]:
            ap["ssid"] = ""
    return rows


# edits of a wifi.jsonl's rows that leave a log ingest accepts
ACCEPTED_EDITS = {
    "upper_case_bssids": upper_case_every_other_bssid,
    "every_line_doubled": lambda rows: [row for row in rows for _ in range(2)],
    "empty_aps_every_third_line": empty_aps_every_third_line,
    "odd_user_ids": rename_two_users,
    "ts_at_both_ends": ts_at_both_ends,
    "empty_ssids": empty_ssids,
}


class TestAcceptedLogsRunToReport:
    @pytest.mark.parametrize("edit", ACCEPTED_EDITS.values(), ids=ACCEPTED_EDITS)
    def test_every_stage_exits_zero(self, tmp_path, workdir, edit):
        """A wifi.jsonl that ingest accepts runs from clean to report."""
        src, base = workdir
        copy_logs(src, tmp_path, edit)
        args = ["--dir", str(tmp_path)] + base[2:] + ["--model", "gbt", "--featureset", "FULL"]
        for stage in ("clean", "pair", "featurize", "train", "evaluate", "report"):
            assert run([stage] + args) == 0, stage


# every WorldConfig knob but days: a few users, one day, and slots of 15
# minutes to an hour, so that each world runs to report in about a second
drawn_worlds = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "area_m": st.floats(600.0, 1500.0),
    "n_routers": st.integers(8, 60),
    "n_users": st.integers(3, 8),
    "scan_period_s": st.sampled_from([900, 1200, 1800, 3600]),
    "start_ts": st.integers(0, 4 * 10 ** 9),
    "campus_fraction": st.floats(0.0, 0.6),
    "path_loss_exponent": st.floats(1.5, 4.5),
    "p0_dbm": st.floats(-70.0, -30.0),
    "noise_sigma_db": st.floats(0.0, 6.0),
    "device_noise_sigma_db": st.floats(0.0, 6.0),
    "wifi_detect_floor_dbm": st.floats(-100.0, -60.0),
    "bt_range_m": st.floats(5.0, 400.0),
    "bt_detect_prob": st.floats(0.2, 1.0),
    "bt_rssi_at_1m": st.floats(-70.0, -30.0),
    "bt_path_exponent": st.floats(1.5, 4.0),
    "bt_noise_sigma_db": st.floats(0.0, 6.0),
    "campus_ssid": st.sampled_from(["dtu", "campus-net"]),
    "site_pitch_m": st.floats(100.0, 300.0),
    "n_buildings": st.integers(0, 3),
    "rooms_per_building": st.integers(1, 9),
    "building_radius_m": st.floats(0.0, 80.0),
    "n_venues": st.integers(0, 3),
    "dense_complex_units": st.integers(1, 12),
    "street_routers_per_dense_complex": st.integers(0, 3),
    "goer_fraction": st.floats(0.0, 1.0),
    "group_size_cycle": st.lists(st.integers(2, 5), min_size=1, max_size=4).map(tuple),
    "weekday_meeting_rate": st.floats(0.0, 3.0),
    "weekend_meeting_rate": st.floats(0.0, 3.0),
    "meeting_min_slots": st.integers(1, 6),
    "meeting_max_slots": st.integers(6, 30),
})


class TestDrawnWorldsRunToReport:
    @settings(max_examples=10, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(knobs=drawn_worlds)
    def test_every_stage_exits_zero_or_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                      knobs):
        """Each stage from generate to report, with 3-tree gbt, exits 0,
        or exits 3 or 4 with one line and leaves its directory as it was."""
        try:
            world = WorldConfig(days=1, **knobs)
        except ValueError:
            reject()  # a world that cannot be laid out
        monkeypatch.setitem(models.DEFAULT_GBT_PARAMS, "n_trees", 3)
        with tempfile.TemporaryDirectory(dir=tmp_path) as name:
            d = Path(name)
            conf = d / "world.conf"
            values = {**asdict(world),
                      "group_size_cycle": ",".join(map(str, world.group_size_cycle))}
            # the world takes the pipeline's campus ssid
            conf.write_text(f"campus_ssid = {values.pop('campus_ssid')}\n" + "".join(
                f"world.{key} = {value}\n" for key, value in values.items()))
            assert load_config(conf).world == world
            for stage in ("generate", "clean", "pair", "featurize", "train", "evaluate", "report"):
                before = snapshot(d)
                capsys.readouterr()
                code = run([stage, "--dir", str(d), "--config", str(conf)])
                if code != 0:
                    err = capsys.readouterr().err
                    assert code in (3, 4) and err.count("\n") == 1, (stage, code, err)
                    assert snapshot(d) == before, stage
                    break


# test_parse_blocks' lines, written and perturbed, with times drawn over
# span seconds as well as its edge times: scans over an hour and
# sightings over its first quarter, so that candidates come both with
# and without a sighting
@st.composite
def log_doc(draw, key: str, entry, span: int, user=users) -> dict:
    ts = often(st.integers(0, span).map(lambda s: 1580515200 + s), st.sampled_from(TIMES))
    return {"user": draw(user), "ts": draw(ts), key: draw(st.lists(entry, max_size=4))}


@st.composite
def log_line(draw, key: str, entry, span: int, user=users) -> str:
    return perturbed(draw, draw(log_doc(key, entry, span, user)), key)


@st.composite
def edited_wifi_log(draw) -> list[str]:
    """Drawn wifi rows put through some of ACCEPTED_EDITS, in a drawn
    order, and then written and perturbed."""
    rows = draw(st.lists(log_doc("aps", ap, 3599), min_size=100, max_size=200))
    for name in draw(st.lists(st.sampled_from(list(ACCEPTED_EDITS)), unique=True)):
        rows = ACCEPTED_EDITS[name](rows)
    return [perturbed(draw, row, "aps") for row in rows]


# a Bluetooth log whose sightings all link a user with "b0", who never scans:
# the scanning users it names are active, yet no sighting links two of them,
# so every candidate is negative
RELAY = "b0"
relayed_logs = st.lists(st.one_of(
    log_line("seen", entry(("peer", "rssi"), st.just(RELAY), rssis), 900),
    log_line("seen", entry(("peer", "rssi"), users, rssis), 900, st.just(RELAY))),
    min_size=20, max_size=60)


def names(line: str) -> set:
    """The user and the sighted peers of an accepted bluetooth.jsonl line."""
    doc = json.loads(line)
    return {doc["user"]} | {entry.get("peer") for entry in doc["seen"]} - {None}


class TestDrawnLogsRunToReport:
    @settings(max_examples=10, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(wifi=edited_wifi_log(),
           bluetooth=st.one_of(st.lists(log_line("seen", sighting, 900), min_size=20,
                                        max_size=60), relayed_logs),
           absent=st.sets(st.sampled_from(USERS[:4]), max_size=1))
    def test_every_stage_exits_zero_or_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                      wifi, bluetooth, absent):
        """Logs of drawn lines that ingest accepts, written and perturbed,
        over a handful of users: each stage from clean to report, with
        3-tree gbt, exits 0, or exits 3 or 4 with one line and leaves its
        directory as it was. Some logs are relayed_logs, and the
        users in absent never appear in bluetooth.jsonl. The wifi rows
        go through some of the accepted-log edits before they are
        perturbed."""
        monkeypatch.setitem(models.DEFAULT_GBT_PARAMS, "n_trees", 3)
        with tempfile.TemporaryDirectory(dir=tmp_path) as name:
            d = Path(name)
            # no router is ambiguous: each of the drawn ssids may name one
            conf = d / "world.conf"
            conf.write_text("ambiguous_ssid_threshold = 10\n")
            h = load_config(conf).data_hash()
            for log, schema, oracle, lines in (
                    ("wifi.jsonl", fileio.SCHEMA_WIFI, ingest_reference.parse_wifi_lines, wifi),
                    ("bluetooth.jsonl", fileio.SCHEMA_BLUETOOTH,
                     ingest_reference.parse_bluetooth_lines, bluetooth)):
                lines = [line for line in lines if oracle([(1, line)]).skipped == 0]
                if log == "bluetooth.jsonl":
                    lines = [line for line in lines if not absent & names(line)]
                fileio.write_jsonl(d / log, schema, h, lines)
            for stage in ("clean", "pair", "featurize", "train", "evaluate", "report"):
                before = snapshot(d)
                capsys.readouterr()
                code = run([stage, "--dir", str(d), "--config", str(conf)])
                if code != 0:
                    err = capsys.readouterr().err
                    assert code in (3, 4) and err.count("\n") == 1, (stage, code, err)
                    assert snapshot(d) == before, stage
                    break


class TestSeedPropagation:
    def test_generate_honors_seed_flag(self, tmp_path):
        args = ["--dir", str(tmp_path), "--seed", "11"]
        world = ["--config"]
        conf = tmp_path / "c.conf"
        conf.write_text("world.n_users = 8\nworld.n_routers = 40\n"
                        "world.days = 1\nworld.n_buildings = 1\n"
                        "world.n_venues = 1\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        for sub in (a, b):
            sub.mkdir()
            assert run(["generate", "--dir", str(sub), "--config", str(conf),
                        "--seed", "11"]) == 0
        assert (a / "wifi.jsonl").read_bytes() == (b / "wifi.jsonl").read_bytes()
        c = tmp_path / "c"
        c.mkdir()
        assert run(["generate", "--dir", str(c), "--config", str(conf),
                    "--seed", "12"]) == 0
        assert (a / "wifi.jsonl").read_bytes() != (c / "wifi.jsonl").read_bytes()


class TestArtifactIntegrity:
    """Later stages never run on truncated, foreign or CSV-unsafe inputs."""

    def test_comma_in_user_id_never_reaches_the_csv_artifacts(self, tmp_path, workdir):
        src, base = workdir
        conf = base[base.index("--config") + 1]
        for name in ("wifi.jsonl", "bluetooth.jsonl"):
            text = (src / name).read_text()
            assert '"u005"' in text
            (tmp_path / name).write_text(text.replace('"u005"', '"u0,5"'))
        args = ["--dir", str(tmp_path), "--config", conf]
        assert run(["clean"] + args + ["--strict-parse"]) == 3
        for stage in ("clean", "pair", "featurize", "train"):
            assert run([stage] + args) == 0, stage
        _, _, cand = fileio.read_csv(tmp_path / "candidates.csv",
                                     fileio.SCHEMA_CANDIDATES)
        _, _, feats = fileio.read_csv(tmp_path / "features.csv",
                                      fileio.SCHEMA_FEATURES)
        assert cand and len(feats) == len(cand)
        assert all(len(row) == 22 for row in feats)  # no id split at a comma
        model = fileio.read_json(tmp_path / "model_full_gbt.json", fileio.SCHEMA_MODEL)
        assert model["split"]["n"] == len(cand)

    def test_pair_of_a_header_only_bluetooth_log(self, tmp_path, workdir, capsys):
        src, base = workdir
        for name in ("scans.npz", "home_routers.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        header = (src / "bluetooth.jsonl").read_text().splitlines(keepends=True)[0]
        (tmp_path / "bluetooth.jsonl").write_text(header)
        args = ["--dir", str(tmp_path)] + base[2:]
        assert run(["pair"] + args) == 0
        with np.load(tmp_path / "candidates.npz") as archive:
            assert {name: (archive[name].dtype, archive[name].shape)
                    for name in archive.files if name != "header"} == {
                "row_a": (np.int64, (0,)), "row_b": (np.int64, (0,)),
                "ts": (np.int64, (0,)), "label": (np.int64, (0,)),
                "bt_rssi": (np.float64, (0,))}
        _, columns, rows = fileio.read_csv(tmp_path / "candidates.csv",
                                           fileio.SCHEMA_CANDIDATES)
        assert columns == ["user_a", "user_b", "ts_a", "ts_b", "ts", "label", "bt_rssi"]
        assert rows == []
        assert run(["featurize"] + args) == 0
        assert len(FeatureTable.load(tmp_path / "features.npz").label) == 0
        capsys.readouterr()
        assert run(["train"] + args) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("model_*"))

    def copy_inputs(self, src, dst):
        (dst / "features.npz").write_bytes((src / "features.npz").read_bytes())

    def test_train_rejects_truncated_features(self, tmp_path, workdir):
        src, base = workdir
        self.copy_inputs(src, tmp_path)
        blob = (tmp_path / "features.npz").read_bytes()
        (tmp_path / "features.npz").write_bytes(blob[:len(blob) // 2])
        args = ["--dir", str(tmp_path)] + base[2:]
        assert run(["train"] + args) == 3
        feats = FeatureTable.load(src / "features.npz")
        replace(feats, X=feats.X[:0], label=feats.label[:0], ts=feats.ts[:0],
                bt_rssi=feats.bt_rssi[:0]).save(tmp_path / "features.npz",
                                                run_hash(src))  # no rows
        assert run(["train"] + args) == 3
        assert not list(tmp_path.glob("model_*"))

    def test_train_rejects_features_of_another_config(self, tmp_path, workdir):
        src, base = workdir
        self.copy_inputs(src, tmp_path)
        args = ["--dir", str(tmp_path)] + base[2:]
        assert run(["train"] + args) == 0
        assert run(["train"] + args + ["--train-size", "0.4"]) == 3

    def assert_one_line_data_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        return err

    def test_train_rejects_single_class_labels(self, tmp_path, workdir, capsys):
        src, base = workdir
        feats = FeatureTable.load(src / "features.npz")
        assert set(feats.label.tolist()) == {0, 1}
        replace(feats, label=np.zeros_like(feats.label)).save(
            tmp_path / "features.npz", run_hash(src))
        capsys.readouterr()
        assert run(["train", "--dir", str(tmp_path)] + base[2:]) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("model_*"))

    @pytest.mark.parametrize("foreign", [None, "features.npz", "model_full_gbt.json"])
    def test_evaluate_rejects_inputs_of_another_config(self, tmp_path, workdir,
                                                       capsys, foreign):
        src, base = workdir
        for name in ("features.npz", "model_full_gbt.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        if foreign is None:
            # both inputs were made with the default train size
            assert run(["evaluate"] + args + ["--train-size", "0.4"]) == 3
        else:
            restamp(tmp_path / foreign, run_hash(src))
            assert run(["evaluate"] + args) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("eval_*"))
        if foreign is None:
            assert run(["evaluate"] + args) == 0
            assert list(tmp_path.glob("eval_*"))

    def test_report_rejects_features_of_another_config(self, tmp_path, workdir,
                                                      capsys):
        src, base = workdir
        for name in ("features.npz", "eval_full_gbt.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        # features.npz was made with the default train size
        assert run(["report"] + args + ["--train-size", "0.4"]) == 3
        self.assert_one_line_data_error(capsys)
        assert not (tmp_path / "report.json").exists()
        assert run(["report"] + args) == 0
        assert (tmp_path / "report.json").exists()

    def test_train_and_report_name_an_empty_feature_table(self, tmp_path, workdir,
                                                          capsys):
        src, base = workdir
        feats = FeatureTable.load(src / "features.npz")
        replace(feats, X=feats.X[:0], label=feats.label[:0], ts=feats.ts[:0],
                bt_rssi=feats.bt_rssi[:0]).save(tmp_path / "features.npz",
                                                run_hash(src))
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        for stage in ("train", "report"):
            assert run([stage] + args) == 3, stage
            err = capsys.readouterr().err
            assert err == f"data error: {tmp_path / 'features.npz'}: has no rows\n"
        assert not list(tmp_path.glob("model_*")) and not list(tmp_path.glob("report*"))

    def test_evaluate_names_a_test_split_too_small_for_terciles(self, tmp_path, workdir,
                                                                capsys):
        """Four rows, split so that each side holds one row of each class:
        train fits, and evaluate names the file and its two test rows."""
        src, base = workdir
        feats = FeatureTable.load(src / "features.npz")
        train_idx, test_idx = split_indices(4, 2, seed=7)  # the tiny world's seed
        pos, neg = np.flatnonzero(feats.label == 1)[:2], np.flatnonzero(feats.label == 0)[:2]
        rows = np.empty(4, dtype=np.int64)
        rows[train_idx], rows[test_idx] = [pos[0], neg[0]], [pos[1], neg[1]]
        replace(feats, X=feats.X[rows], label=feats.label[rows], ts=feats.ts[rows],
                bt_rssi=feats.bt_rssi[rows]).save(tmp_path / "features.npz", run_hash(src))
        args = ["--dir", str(tmp_path)] + base[2:]
        assert run(["train"] + args) == 0
        capsys.readouterr()
        assert run(["evaluate"] + args) == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {tmp_path / 'features.npz'}: 2 test rows, too few "
                       "for the three union-size terciles\n")
        assert not list(tmp_path.glob("eval_*"))

    def edit_model(self, src, dst, edit):
        """Copy the run's features and gbt model to dst, editing the model
        document."""
        (dst / "features.npz").write_bytes((src / "features.npz").read_bytes())
        doc = fileio.read_json(src / "model_full_gbt.json", fileio.SCHEMA_MODEL)
        edit(doc)
        payload = {k: v for k, v in doc.items() if k not in ("schema", "config_hash")}
        fileio.write_json(dst / "model_full_gbt.json", fileio.SCHEMA_MODEL,
                          doc["config_hash"], payload)

    @pytest.mark.parametrize("edit", [
        lambda t: t["feature"].__setitem__(0, 99),
        lambda t: t["feature"].__setitem__(0, -2),
        lambda t: t["right"].__setitem__(0, len(t["right"])),
        lambda t: t["left"].__setitem__(t["feature"].index(-1), 1),
        lambda t: t["threshold"].__setitem__(0, float("inf")),
        lambda t: t["gain"].pop(),
        lambda t: t.update({k: [] for k in t}),
        lambda t: t.update(left=[[0, 1]] * len(t["left"])),
        lambda t: t["feature"].__setitem__(0, t["feature"][0] + 0.5),
        lambda t: t["left"].__setitem__(0, t["left"][0] + 0.9),
    ], ids=["feature_99", "feature_-2", "child_outside", "leaf_child",
            "threshold_inf", "short_gain", "no_nodes", "nested_lists",
            "feature_fraction", "child_fraction"])
    def test_evaluate_rejects_a_malformed_tree(self, tmp_path, workdir, capsys, edit):
        src, base = workdir
        self.edit_model(src, tmp_path, lambda doc: edit(doc["trees"][0]))
        capsys.readouterr()
        assert run(["evaluate", "--dir", str(tmp_path)] + base[2:]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"data error: {tmp_path / 'model_full_gbt.json'}: malformed model file")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("eval_*"))

    @pytest.mark.parametrize("edit,field", [
        (lambda split: split.pop("train_count"), "train_count"),
        (lambda split: split.update(seed="x"), "seed"),
        (lambda split: split.update(seed=True), "seed"),
        (lambda split: split.update(train_count=3.5), "train_count"),
        (lambda split: split.update(train_count=-5), "train_count"),
        (lambda split: split.update(train_count=split["n"] + 5), "train_count"),
        (lambda split: split.update(n=split["n"] - 1), "split"),
        (lambda split: split.update(train_count=0), "'train_count': 0"),
        (lambda split: split.update(train_count=split["n"] - 3), "train_count"),
        # valid splits, but not the config's: the model trained on other rows
        (lambda split: split.update(seed=split["seed"] + 1), "is not the config's split"),
        (lambda split: split.update(train_count=split["train_count"] + 1),
         "is not the config's split"),
    ], ids=["no_train_count", "seed_text", "seed_bool", "train_count_fraction",
            "train_count_negative", "train_count_above_n", "n_of_other_rows",
            "train_count_zero", "test_rows_of_one_class", "other_seed", "other_train_count"])
    def test_evaluate_rejects_bad_split_metadata(self, tmp_path, workdir, capsys,
                                                 edit, field):
        src, base = workdir
        self.edit_model(src, tmp_path, lambda doc: edit(doc["split"]))
        capsys.readouterr()
        assert run(["evaluate", "--dir", str(tmp_path)] + base[2:]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'model_full_gbt.json'}: split ")
        assert field in err and err.count("\n") == 1, err
        assert not list(tmp_path.glob("eval_*"))

    def test_evaluate_rejects_a_split_that_is_not_an_object(self, tmp_path, workdir,
                                                            capsys):
        src, base = workdir
        self.edit_model(src, tmp_path, lambda doc: doc.update(split=[1, 2]))
        capsys.readouterr()
        assert run(["evaluate", "--dir", str(tmp_path)] + base[2:]) == 3
        err = capsys.readouterr().err
        split = fileio.read_json(src / "model_full_gbt.json", fileio.SCHEMA_MODEL)["split"]
        assert err == (f"data error: {tmp_path / 'model_full_gbt.json'}: split [1, 2] is not "
                       f"the config's split {split!r}\n")
        assert not list(tmp_path.glob("eval_*"))

    def test_evaluate_of_a_tree_with_a_cycle_ends(self, tmp_path, workdir):
        """A root whose left child is itself must not send evaluate round
        the loop for ever."""
        src, base = workdir
        self.edit_model(src, tmp_path, lambda doc: doc["trees"][0]["left"].__setitem__(0, 0))
        env = dict(os.environ)
        package_root = str(Path(wifi_proximity.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "wifi_proximity", "evaluate", "--dir", str(tmp_path)]
            + base[2:], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(
            f"data error: {tmp_path / 'model_full_gbt.json'}: malformed model file")
        assert proc.stderr.count("\n") == 1
        assert not list(tmp_path.glob("eval_*"))

    @pytest.mark.parametrize("text", ["[]", '{"schema": "model.v1", "trees": [1'])
    def test_evaluate_names_an_unreadable_model_file(self, tmp_path, workdir, capsys,
                                                     text):
        src, base = workdir
        (tmp_path / "features.npz").write_bytes((src / "features.npz").read_bytes())
        (tmp_path / "model_full_gbt.json").write_text(text)
        capsys.readouterr()
        assert run(["evaluate", "--dir", str(tmp_path)] + base[2:]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'model_full_gbt.json'}: ")
        assert err.count("\n") == 1

    def test_report_names_a_cut_eval_file(self, tmp_path, workdir, capsys):
        src, base = workdir
        (tmp_path / "features.npz").write_bytes((src / "features.npz").read_bytes())
        blob = (src / "eval_full_gbt.json").read_bytes()
        (tmp_path / "eval_full_gbt.json").write_bytes(blob[:150])
        capsys.readouterr()
        assert run(["report", "--dir", str(tmp_path)] + base[2:]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'eval_full_gbt.json'}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("fault", ["truncated", "offsets", "foreign_hash",
                                       "missing", "ts_2_62", "ts_negative", "ts_year_10000",
                                       "rssi_30"])
    def test_pair_and_featurize_reject_corrupt_cleaned_scans(
            self, tmp_path, workdir, capsys, fault):
        src, base = workdir
        scans = tmp_path / "scans.npz"
        h = fileio.read_json(src / "home_routers.json", fileio.SCHEMA_HOMES)["config_hash"]
        table = ScanTable.load(src / "scans.npz", h)
        first_ts = {"ts_2_62": 2 ** 62, "ts_negative": -10 ** 12,
                    "ts_year_10000": 253402300800}
        if fault in first_ts:
            ts = table.ts.copy()
            ts[0] = first_ts[fault]
            replace(table, ts=ts).save(scans, h)
        elif fault == "rssi_30":
            rssi = table.rssi.copy()
            rssi[:50] = 30
            replace(table, rssi=rssi).save(scans, h)
        elif fault == "truncated":
            blob = (src / "scans.npz").read_bytes()
            scans.write_bytes(blob[:len(blob) // 2])
        elif fault == "offsets":
            offsets = table.offsets.copy()
            offsets[1], offsets[2] = offsets[2], offsets[1]
            assert offsets[1] != offsets[2]
            replace(table, offsets=offsets).save(scans, h)
        elif fault == "foreign_hash":
            table.save(scans, "deadbeef0000")
        for name in ("bluetooth.jsonl", "home_routers.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        assert run(["pair"] + args) == 3
        assert str(scans) in self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("candidates.*"))
        (tmp_path / "candidates.npz").write_bytes((src / "candidates.npz").read_bytes())
        assert run(["featurize"] + args) == 3
        assert str(scans) in self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("features.*"))

    @pytest.mark.parametrize("foreign", ["candidates.npz", "home_routers.json"])
    def test_featurize_rejects_inputs_of_another_config(self, tmp_path, workdir,
                                                        capsys, foreign):
        src, base = workdir
        for name in ("scans.npz", "candidates.npz", "home_routers.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        restamp(tmp_path / foreign, run_hash(src))
        capsys.readouterr()
        assert run(["featurize", "--dir", str(tmp_path)] + base[2:]) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("features.*"))

    @pytest.mark.parametrize("fault", ["truncated", "lengths", "row_outside",
                                       "row_negative", "scan_count", "foreign_hash",
                                       "missing"])
    def test_featurize_rejects_corrupt_candidate_arrays(self, tmp_path, workdir,
                                                        capsys, fault):
        src, base = workdir
        for name in ("scans.npz", "candidates.npz", "home_routers.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        path, h = tmp_path / "candidates.npz", run_hash(src)
        n_scans = len(ScanTable.load(src / "scans.npz").ts)
        cands = CandidateTable.load(path, h, n_scans)
        if fault == "truncated":
            blob = path.read_bytes()
            path.write_bytes(blob[:len(blob) // 2])
        elif fault == "lengths":
            replace(cands, row_b=cands.row_b[:-1]).save(path, h, n_scans)
        elif fault in ("row_outside", "row_negative"):
            cands.row_a[len(cands.ts) // 2] = n_scans if fault == "row_outside" else -1
            cands.save(path, h, n_scans)
        elif fault == "scan_count":
            cands.save(path, h, n_scans + 1)
        elif fault == "foreign_hash":
            restamp(path, h)
        else:
            path.unlink()
        capsys.readouterr()
        assert run(["featurize", "--dir", str(tmp_path)] + base[2:]) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("features.*"))

    @pytest.mark.parametrize("fault", ["truncated", "lengths", "columns", "labels",
                                       "foreign_hash", "missing", "nan_feature",
                                       "inf_feature"])
    def test_train_evaluate_report_reject_corrupt_feature_arrays(
            self, tmp_path, workdir, capsys, fault):
        src, base = workdir
        path, h = tmp_path / "features.npz", run_hash(src)
        feats = FeatureTable.load(src / "features.npz", h)
        if fault in ("nan_feature", "inf_feature"):
            # a NaN is a missing correlation, so only a correlation column may hold one
            col, value = (("union", np.nan) if fault == "nan_feature"
                          else ("spearman", -np.inf))
            X = feats.X.copy()
            X[len(X) // 2, FEATURE_NAMES.index(col)] = value
            replace(feats, X=X).save(path, h)
        elif fault == "truncated":
            blob = (src / "features.npz").read_bytes()
            path.write_bytes(blob[:len(blob) // 2])
        elif fault == "lengths":
            replace(feats, ts=feats.ts[:-1]).save(path, h)
        elif fault == "columns":
            replace(feats, X=feats.X[:, :-1]).save(path, h)
        elif fault == "labels":
            replace(feats, label=feats.label * 2).save(path, h)
        elif fault == "foreign_hash":
            feats.save(path, "deadbeef0000")
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        assert run(["train"] + args) == 3
        assert str(path) in self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("model_*"))
        (tmp_path / "model_full_gbt.json").write_bytes(
            (src / "model_full_gbt.json").read_bytes())
        assert run(["evaluate"] + args) == 3
        assert str(path) in self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("eval_*"))
        assert run(["report"] + args) == 3
        assert str(path) in self.assert_one_line_data_error(capsys)
        assert not (tmp_path / "report.json").exists()

    def test_stages_after_featurize_do_not_read_the_csv_copies(self, tmp_path, workdir):
        src, base = workdir
        outputs = ("model_full_gbt.json", "eval_full_gbt.json", "model_nearme_gbt.json",
                   "eval_nearme_gbt.json", "report.json")
        for p in src.iterdir():
            if p.name not in outputs + ("candidates.csv", "features.csv"):
                (tmp_path / p.name).write_bytes(p.read_bytes())
        args = ["--dir", str(tmp_path)] + base[2:]
        for fs in ("FULL", "NEARME"):
            assert run(["train"] + args + ["--featureset", fs]) == 0
            assert run(["evaluate"] + args + ["--featureset", fs]) == 0
        assert run(["report"] + args) == 0
        for name in outputs:
            assert (tmp_path / name).read_bytes() == (src / name).read_bytes(), name

    @pytest.mark.parametrize("log,stage", [("wifi.jsonl", "clean"),
                                           ("bluetooth.jsonl", "pair")])
    def test_strict_parse_error_names_the_file(self, tmp_path, workdir, capsys,
                                               log, stage):
        src, base = workdir
        for name in ("wifi.jsonl", "bluetooth.jsonl", "scans.npz"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        lines = (src / log).read_text().splitlines(keepends=True)
        lines[5] = lines[5][:len(lines[5]) // 2] + "\n"
        (tmp_path / log).write_text("".join(lines))
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        assert run([stage] + args + ["--strict-parse"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / log}: malformed record (line 6): ")
        assert err.count("\n") == 1, err


def edit_doc(name, change):
    """An edit of a run directory that passes name's JSON document through change."""
    def edit(d):
        doc = json.loads((d / name).read_text())
        change(doc)
        (d / name).write_text(json.dumps(doc, indent=2))
    return edit


def edit_array(name, array, change):
    """An edit of a run directory that passes one array of name's archive
    through change and keeps the archive's header."""
    def edit(d):
        with np.load(d / name) as archive:
            arrays = dict(archive)
        header = json.loads(arrays.pop("header").tobytes())
        arrays[array] = change(arrays[array].copy())
        fileio.write_npz(d / name, header.pop("schema"), header.pop("config_hash"), header,
                         arrays)
    return edit


def nan_leaf_values(doc):
    for tree in doc["trees"]:
        tree["value"] = [{"__float__": "nan"} if feature == -1 else value
                         for feature, value in zip(tree["feature"], tree["value"])]


def first_at(value):
    """A change of an array that sets its first element to value."""
    def change(a):
        a[0] = value
        return a
    return change


def nan_at(value, nan=True):
    """A change of an array that sets its NaN elements (its others when nan
    is false) to value."""
    def change(a):
        a[np.isnan(a) == nan] = value
        return a
    return change


def union_inf(X):
    X[0, FEATURE_NAMES.index("union")] = np.inf
    return X


def zip_field(name, local_at, central_at, change):
    """An edit of a run directory that passes a 2-byte field of every local
    and central header of name's zip archive through change: the flags lie
    at 6 and 8, the compression method at 8 and 10."""
    def edit(d):
        blob = bytearray((d / name).read_bytes())
        with zipfile.ZipFile(d / name) as archive:
            infos, central = archive.infolist(), archive.start_dir
        for info in infos:
            for at in (info.header_offset + local_at, central + central_at):
                struct.pack_into("<H", blob, at, change(struct.unpack_from("<H", blob, at)[0]))
            # a central header is 46 bytes, then its name, extra and comment
            central += 46 + sum(struct.unpack_from("<3H", blob, central + 28))
        (d / name).write_bytes(bytes(blob))
    return edit


def copy_file(src, dst):
    """An edit of a run directory that copies src over dst."""
    return lambda d: (d / dst).write_bytes((d / src).read_bytes())


def directory_at(name):
    """An edit of a run directory that puts a directory where name should be."""
    return lambda d: (d / name).mkdir()


def half_the_scans_and_a_directory_at(name):
    """An edit of a run directory that keeps wifi.jsonl's header and every
    other data line, and puts a directory where name should be."""
    def edit(d):
        lines = (d / "wifi.jsonl").read_text().splitlines(keepends=True)
        (d / "wifi.jsonl").write_text("".join(lines[:1] + lines[1::2]))
        directory_at(name)(d)
    return edit


def file_at_run_dir(d):
    d.rmdir()
    d.write_text("not a directory\n")


def at_train_size(train_size):
    """An edit of a run directory that stamps features.npz as made under its
    config, world.conf, with train_size, as a whole run under it would."""
    def edit(d):
        conf = d / "world.conf"
        restamp(d / "features.npz", load_config(conf).data_hash(),
                load_config(conf, {"train_size": train_size}).data_hash())
    return edit


def snapshot(d):
    """Every path under d, with a file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in d.rglob("*")}


HOMES, EVAL, MODEL = "home_routers.json", "eval_full_gbt.json", "model_full_gbt.json"
NEARME_EVAL, NEARME_MODEL = "eval_nearme_gbt.json", "model_nearme_gbt.json"
FEATURIZE_INPUTS = ["scans.npz", "candidates.npz", HOMES]
SPLIT_INPUTS = ["features.npz", "world.conf"]
CLEAN_OUTPUTS = ["cleaned.jsonl", "scans.npz", "cleaning_report.json", HOMES]


@pytest.mark.parametrize("stage,inputs,edit,named", [
    ("featurize", FEATURIZE_INPUTS, edit_doc(HOMES, lambda doc: doc.pop("homes")), HOMES),
    ("featurize", FEATURIZE_INPUTS, edit_doc(HOMES, lambda doc: doc["homes"][0].pop("user")),
     HOMES),
    ("featurize", FEATURIZE_INPUTS, edit_doc(HOMES, lambda doc: doc.update(homes=5)), HOMES),
    ("featurize", FEATURIZE_INPUTS,
     edit_doc(HOMES, lambda doc: doc["homes"][0].update(bssid=5)), HOMES),
    ("report", ["features.npz", EVAL], edit_doc(EVAL, lambda doc: doc.pop("train")), EVAL),
    ("report", ["features.npz", EVAL], edit_doc(EVAL, lambda doc: doc.pop("featureset")), EVAL),
    ("report", ["features.npz", EVAL], edit_doc(EVAL, lambda doc: doc.update(test=[1])), EVAL),
    ("evaluate", ["features.npz", MODEL],
     edit_doc(MODEL, lambda doc: doc.update(hyperparameters=[1, 2])), MODEL),
    ("evaluate", ["features.npz", MODEL], edit_doc(MODEL, lambda doc: doc.update(featureset=5)),
     MODEL),
    ("evaluate", ["features.npz", MODEL],
     edit_doc(MODEL, lambda doc: doc["feature_names"].__setitem__(0, "nope")), MODEL),
    ("evaluate", ["features.npz", MODEL],
     edit_doc(MODEL, lambda doc: doc["imputation"].update(spearman_mean="x")), MODEL),
    ("evaluate", ["features.npz", MODEL],
     edit_doc(MODEL, lambda doc: doc.update(imputation=None)), MODEL),
    ("evaluate", ["features.npz", MODEL], edit_doc(MODEL, nan_leaf_values), MODEL),
    # a model filed under another kind's or featureset's name
    ("evaluate", ["features.npz", MODEL], edit_doc(MODEL, lambda doc: doc.update(
        kind="random-forest")), MODEL),
    ("evaluate", ["features.npz", NEARME_MODEL], copy_file(NEARME_MODEL, MODEL), MODEL),
    ("evaluate", ["features.npz", NEARME_MODEL], lambda d: (
        copy_file(NEARME_MODEL, MODEL)(d), edit_doc(MODEL, lambda doc: doc.update(
            featureset="FULL"))(d)), MODEL),
    ("report", ["features.npz", EVAL], copy_file(EVAL, NEARME_EVAL), EVAL),
    ("train", ["features.npz"], zip_field("features.npz", 6, 8, lambda flags: flags | 1),
     "features.npz"),
    ("featurize", FEATURIZE_INPUTS, zip_field("candidates.npz", 8, 10, lambda method: 99),
     "candidates.npz"),
    ("pair", ["scans.npz", "bluetooth.jsonl"], edit_array("scans.npz", "ts", first_at(TS_END)),
     "scans.npz"),
    # a positive's bt_rssi, a negative's bt_rssi and a ts out of range
    ("evaluate", ["features.npz", MODEL],
     edit_array("features.npz", "bt_rssi", nan_at(np.inf, nan=False)), "features.npz"),
    ("featurize", FEATURIZE_INPUTS, edit_array("candidates.npz", "bt_rssi", nan_at(-50.0)),
     "candidates.npz"),
    ("evaluate", ["features.npz", MODEL], edit_array("features.npz", "ts", first_at(2 ** 62)),
     "features.npz"),
    ("featurize", FEATURIZE_INPUTS, edit_array("candidates.npz", "ts", first_at(10 ** 13)),
     "candidates.npz"),
    ("featurize", FEATURIZE_INPUTS, edit_array("candidates.npz", "ts", first_at(-5)),
     "candidates.npz"),
    # a ts in range, but not the earlier of the candidate's two scans' ts
    ("featurize", FEATURIZE_INPUTS, edit_array("candidates.npz", "ts", lambda ts: ts + 1),
     "candidates.npz"),
    ("report", ["features.npz", EVAL], edit_array("features.npz", "X", union_inf),
     "features.npz"),
    ("generate", [], file_at_run_dir, ""),
    ("train", [], directory_at("features.npz"), "features.npz"),
    ("clean", [], directory_at("wifi.jsonl"), "wifi.jsonl"),
    # the first output is written before the second fails, and must not land
    ("clean", CLEAN_OUTPUTS + ["wifi.jsonl"], half_the_scans_and_a_directory_at("scans.npz.tmp"),
     "scans.npz.tmp"),
    # the tiny world's train side is one row, and its test side at 0.9995 two
    # rows of one class
    ("train --train-size 0.0001", SPLIT_INPUTS, at_train_size(0.0001), "features.npz"),
    ("train --grid --train-size 0.0001", SPLIT_INPUTS, at_train_size(0.0001),
     "features.npz"),
    ("report --train-size 0.0001", SPLIT_INPUTS, at_train_size(0.0001), "features.npz"),
    ("report --train-size 0.9995", SPLIT_INPUTS, at_train_size(0.9995), "features.npz"),
], ids=["homes_missing", "home_without_user", "homes_number", "home_bssid_number",
        "eval_without_train", "eval_without_featureset", "eval_test_list",
        "model_hyperparameters_list", "model_featureset_number", "model_unknown_feature",
        "model_imputation_mean_text", "model_imputation_null", "model_leaf_values_nan",
        "model_of_another_kind", "model_of_another_featureset",
        "model_of_another_featuresets_features", "two_evals_of_one_model",
        "features_encrypted", "candidates_compression_unknown",
        "pair_scan_at_ts_end", "features_positive_bt_rssi_inf",
        "candidates_negative_with_bt_rssi", "features_ts_2_62", "candidates_ts_1e13",
        "candidates_ts_negative", "candidates_ts_after_its_scans",
        "report_union_inf",
        "generate_dir_is_a_file", "train_features_is_a_directory",
        "clean_wifi_log_is_a_directory", "clean_second_output_is_a_directory",
        "train_side_of_one_row", "grid_train_side_of_one_row",
        "report_train_side_of_one_row", "report_test_side_of_one_class"])
def test_known_reproductions_exit_3_with_one_line(tmp_path, workdir, capsys, stage, inputs,
                                                  edit, named):
    """Each malformed or unreadable input exits 3 with one data error line
    naming the file, and the stage writes nothing. stage may carry flags."""
    src, base = workdir
    d = tmp_path / "run"
    d.mkdir()
    for name in inputs:
        (d / name).write_bytes((src / name).read_bytes())
    edit(d)
    before = snapshot(tmp_path)
    capsys.readouterr()
    assert run(stage.split() + ["--dir", str(d)] + base[2:]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert str(d / named) in err and "Traceback" not in err, err
    assert snapshot(tmp_path) == before


def edited_line(workdir, log, edit) -> str:
    """The text of log's last line with an RSSI, changed by edit."""
    lines = (workdir[0] / log).read_text().splitlines()
    line = json.loads(next(line for line in reversed(lines) if '"rssi"' in line))
    edit(line)
    return json.dumps(line)


def assert_bad_line_is_skipped_or_fatal(tmp_path, workdir, capsys, log, stage, bad):
    """Append the line bad, text or bytes, to log.

    Lenient parsing skips the line: the stage writes what it writes
    without it. Under --strict-parse the stage exits 3 with a one-line
    error naming the file and the line, and writes nothing.
    """
    src, base = workdir
    outputs = {"clean": ["cleaned.jsonl", "scans.npz", "cleaning_report.json",
                         "home_routers.json"],
               "pair": ["candidates.npz", "candidates.csv"]}[stage]
    inputs = {"clean": ["wifi.jsonl"], "pair": ["scans.npz", "bluetooth.jsonl"]}[stage]
    text = (src / log).read_bytes()
    lines = text.splitlines()
    if isinstance(bad, str):
        bad = bad.encode()
    for mode in ("lenient", "strict"):
        d = tmp_path / mode
        d.mkdir()
        for name in inputs:
            (d / name).write_bytes((src / name).read_bytes())
        (d / log).write_bytes(text + bad + b"\n")
        args = [stage, "--dir", str(d)] + base[2:]
        capsys.readouterr()
        if mode == "lenient":
            assert run(args) == 0
            for name in outputs:  # as if the line were not there
                if name != "cleaning_report.json":
                    assert (d / name).read_bytes() == (src / name).read_bytes(), name
        else:
            assert run(args + ["--strict-parse"]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {d / log}: malformed record "
                                  f"(line {len(lines) + 1}): "), err
            assert err.count("\n") == 1, err
            assert not any((d / name).exists() for name in outputs)
    if stage == "clean":
        doc = fileio.read_json(tmp_path / "lenient" / "cleaning_report.json",
                               fileio.SCHEMA_CLEANING)
        assert doc["skipped_lines"] == 1


class TestTimestampBounds:
    """A ts that no later stage can hold is a malformed line at ingest."""

    @pytest.mark.parametrize("log,stage,ts", [
        ("wifi.jsonl", "clean", 2 ** 63),         # beyond int64
        ("wifi.jsonl", "clean", 3 * 10 ** 11),    # beyond the year 9999
        ("bluetooth.jsonl", "pair", 2 ** 63),
    ], ids=["wifi_int64", "wifi_year_10000", "bluetooth_int64"])
    def test_out_of_range_ts_is_a_malformed_line(self, tmp_path, workdir, capsys,
                                                 log, stage, ts):
        bad = edited_line(workdir, log, lambda line: line.update(ts=ts))
        assert_bad_line_is_skipped_or_fatal(tmp_path, workdir, capsys, log, stage, bad)


class TestRssiBounds:
    """An RSSI that no later stage can hold is a malformed line at ingest:
    scans.npz stores RSSIs as int16, and pair keeps them in int64 arrays."""

    @pytest.mark.parametrize("log,stage,key,rssi", [
        ("wifi.jsonl", "clean", "aps", RSSI_MIN - 1),
        ("wifi.jsonl", "clean", "aps", -40000),
        ("bluetooth.jsonl", "pair", "seen", -10 ** 400),
    ], ids=["wifi_below_int16", "wifi_-40000", "bluetooth_below_int64"])
    def test_out_of_range_rssi_is_a_malformed_line(self, tmp_path, workdir, capsys,
                                                   log, stage, key, rssi):
        def edit(line):
            line[key][-1]["rssi"] = rssi

        bad = edited_line(workdir, log, edit)
        assert_bad_line_is_skipped_or_fatal(tmp_path, workdir, capsys, log, stage, bad)

    def test_lowest_int16_rssi_is_kept(self, tmp_path, workdir):
        src, base = workdir
        lines = (src / "wifi.jsonl").read_text().splitlines(keepends=True)
        k = next(i for i in range(len(lines) - 1, 0, -1) if '"rssi"' in lines[i])
        scan = json.loads(lines[k])
        scan["aps"][0]["rssi"] = RSSI_MIN
        lines[k] = json.dumps(scan) + "\n"
        (tmp_path / "wifi.jsonl").write_text("".join(lines))
        assert run(["clean", "--dir", str(tmp_path), "--strict-parse"] + base[2:]) == 0
        table = ScanTable.load(tmp_path / "scans.npz")
        assert table.rssi.min() == RSSI_MIN


class TestUnparsableLines:
    """A line that json.loads rejects without JSONDecodeError, or that is
    not valid UTF-8, is a malformed line in both logs."""

    @pytest.mark.parametrize("log,stage", [("wifi.jsonl", "clean"),
                                           ("bluetooth.jsonl", "pair")],
                             ids=["wifi", "bluetooth"])
    @pytest.mark.parametrize("kind", ["5000_digit_int", "deep_nesting"])
    def test_line_json_loads_rejects_is_a_malformed_line(self, tmp_path, workdir,
                                                          capsys, log, stage, kind):
        # json.dumps cannot write a 5000-digit integer, so the line is built as text
        bad = {"5000_digit_int": '{"user": "u1", "ts": ' + "9" * 5000 + "}",
               "deep_nesting": "[" * 100_000 + "]" * 100_000}[kind]
        assert_bad_line_is_skipped_or_fatal(tmp_path, workdir, capsys, log, stage, bad)

    @pytest.mark.parametrize("log,stage", [("wifi.jsonl", "clean"),
                                           ("bluetooth.jsonl", "pair")],
                             ids=["wifi", "bluetooth"])
    def test_line_that_is_not_utf8_is_a_malformed_line(self, tmp_path, workdir, capsys,
                                                       log, stage):
        bad = edited_line(workdir, log, lambda line: line.update(user="u\u00ff"))
        bad = bad.replace("\\u00ff", "\xff").encode("latin-1")
        assert_bad_line_is_skipped_or_fatal(tmp_path, workdir, capsys, log, stage, bad)


class TestUnencodableIds:
    """A user or peer id that UTF-8 cannot encode is a malformed line."""

    def test_lone_surrogate_id_is_skipped_or_fatal(self, tmp_path, workdir, capsys):
        src, base = workdir
        for name in ("wifi.jsonl", "bluetooth.jsonl"):
            text = (src / name).read_text()
            assert '"u000"' in text
            (tmp_path / name).write_text(text.replace('"u000"', '"u\\ud800"'))
        n_bad = (src / "wifi.jsonl").read_text().count('"u000"')
        args = ["--dir", str(tmp_path)] + base[2:]
        for stage, log, outputs in (
                ("clean", "wifi.jsonl", ("cleaned.jsonl", "scans.npz")),
                ("pair", "bluetooth.jsonl", ("candidates.npz", "candidates.csv"))):
            capsys.readouterr()
            assert run([stage, "--strict-parse"] + args) == 3, stage
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {tmp_path / log}: malformed record "
                                  "(line "), err
            assert "not valid UTF-8" in err and err.count("\n") == 1, err
            assert not any((tmp_path / name).exists() for name in outputs)
            assert run([stage] + args) == 0, stage
        doc = fileio.read_json(tmp_path / "cleaning_report.json", fileio.SCHEMA_CLEANING)
        assert doc["skipped_lines"] == n_bad
        table = ScanTable.load(tmp_path / "scans.npz")
        assert "u000" not in table.users and all(u.isascii() for u in table.users)
