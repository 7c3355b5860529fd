"""The pipeline CLI: stage wiring, exit codes, artifact discipline."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wifi_proximity
from wifi_proximity import fileio
from wifi_proximity.cli import main
from wifi_proximity.features import FeatureTable
from wifi_proximity.ingest import WifiScans as ScanTable
from wifi_proximity.models import FEATURESETS, load_model
from wifi_proximity.pairing import CandidateTable, split_indices
from wifi_proximity.records import RSSI_MIN


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

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("train_size = 2.0\n")
        assert run(["clean", "--dir", str(tmp_path), "--config", str(bad)]) == 4
        assert run(["clean", "--dir", str(tmp_path),
                    "--config", str(tmp_path / "missing.conf")]) == 4
        bad.write_text("unknown_key = 1\n")
        assert run(["clean", "--dir", str(tmp_path), "--config", str(bad)]) == 4

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
    ])
    def test_world_key_that_generate_cannot_use(self, tmp_path, capsys, key, value):
        # each crashed generate, failed it with a message naming no key, or
        # wrote logs that ingest rejects or that hold NaN positions
        conf = tmp_path / "c.conf"
        conf.write_text(f"world.n_users = 8\nworld.days = 1\nworld.{key} = {value}\n")
        capsys.readouterr()
        assert run(["generate", "--dir", str(tmp_path), "--config", str(conf)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "wifi.jsonl").exists()

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


class TestStartup:
    def test_importing_the_cli_leaves_scipy_stats_unloaded(self):
        """Every CLI process pays for what the package imports, and
        scipy.stats alone takes over half a second to import."""
        env = dict(os.environ)
        package_root = str(Path(wifi_proximity.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, wifi_proximity.cli; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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
        document's first tree."""
        (dst / "features.npz").write_bytes((src / "features.npz").read_bytes())
        doc = fileio.read_json(src / "model_full_gbt.json", fileio.SCHEMA_MODEL)
        edit(doc["trees"][0])
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
        self.edit_model(src, tmp_path, edit)
        capsys.readouterr()
        assert run(["evaluate", "--dir", str(tmp_path)] + base[2:]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"data error: {tmp_path / 'model_full_gbt.json'}: malformed model file")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("eval_*"))

    def test_evaluate_of_a_tree_with_a_cycle_ends(self, tmp_path, workdir):
        """A root whose left child is itself must not send evaluate round
        the loop for ever."""
        src, base = workdir
        self.edit_model(src, tmp_path, lambda t: t["left"].__setitem__(0, 0))
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
                                       "missing"])
    def test_pair_and_featurize_reject_corrupt_cleaned_scans(
            self, tmp_path, workdir, capsys, fault):
        src, base = workdir
        scans = tmp_path / "scans.npz"
        h = fileio.read_json(src / "home_routers.json", fileio.SCHEMA_HOMES)["config_hash"]
        table = ScanTable.load(src / "scans.npz", h)
        if fault == "truncated":
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
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("candidates.*"))
        (tmp_path / "candidates.npz").write_bytes((src / "candidates.npz").read_bytes())
        assert run(["featurize"] + args) == 3
        self.assert_one_line_data_error(capsys)
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
                                       "foreign_hash", "missing"])
    def test_train_evaluate_report_reject_corrupt_feature_arrays(
            self, tmp_path, workdir, capsys, fault):
        src, base = workdir
        path, h = tmp_path / "features.npz", run_hash(src)
        feats = FeatureTable.load(src / "features.npz", h)
        if fault == "truncated":
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
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("model_*"))
        (tmp_path / "model_full_gbt.json").write_bytes(
            (src / "model_full_gbt.json").read_bytes())
        assert run(["evaluate"] + args) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("eval_*"))
        assert run(["report"] + args) == 3
        self.assert_one_line_data_error(capsys)
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
