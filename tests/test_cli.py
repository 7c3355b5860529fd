"""The pipeline CLI: stage wiring, exit codes, artifact discipline."""

import json

import numpy as np
import pytest

from wifi_proximity import fileio
from wifi_proximity.cli import main
from wifi_proximity.models import FEATURESETS, load_model


def run(args):
    return main(args)


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
                     "cleaned.jsonl", "cleaning_report.json", "home_routers.json",
                     "candidates.csv", "features.csv",
                     "model_full_gbt.json", "eval_full_gbt.json",
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

    def copy_inputs(self, src, dst):
        for name in ("candidates.csv", "features.csv"):
            (dst / name).write_bytes((src / name).read_bytes())

    def test_train_rejects_truncated_features(self, tmp_path, workdir):
        src, base = workdir
        self.copy_inputs(src, tmp_path)
        lines = (tmp_path / "features.csv").read_text().splitlines(keepends=True)
        (tmp_path / "features.csv").write_text("".join(lines[:len(lines) // 2]))
        args = ["--dir", str(tmp_path)] + base[2:]
        assert run(["train"] + args) == 3
        (tmp_path / "features.csv").write_text("".join(lines[:2]))  # header only
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
        self.copy_inputs(src, tmp_path)
        _, columns, rows = fileio.read_csv(tmp_path / "features.csv",
                                           fileio.SCHEMA_FEATURES)
        label = columns.index("label")
        assert {row[label] for row in rows} == {"0", "1"}
        lines = (tmp_path / "features.csv").read_text().splitlines(keepends=True)
        for i in range(2, len(lines)):
            cells = lines[i].split(",")
            cells[label] = "0"
            lines[i] = ",".join(cells)
        (tmp_path / "features.csv").write_text("".join(lines))
        capsys.readouterr()
        assert run(["train", "--dir", str(tmp_path)] + base[2:]) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("model_*"))

    @pytest.mark.parametrize("foreign", [None, "features.csv", "candidates.csv",
                                         "model_full_gbt.json"])
    def test_evaluate_rejects_inputs_of_another_config(self, tmp_path, workdir,
                                                       capsys, foreign):
        src, base = workdir
        for name in ("candidates.csv", "features.csv", "model_full_gbt.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        if foreign is None:
            # all three inputs were made with the default train size
            assert run(["evaluate"] + args + ["--train-size", "0.4"]) == 3
        else:
            path = tmp_path / foreign
            text = path.read_text()
            h = fileio.read_json(src / "model_full_gbt.json",
                                 fileio.SCHEMA_MODEL)["config_hash"]
            assert text.count(h) == 1
            path.write_text(text.replace(h, "deadbeef0000"))
            assert run(["evaluate"] + args) == 3
        self.assert_one_line_data_error(capsys)
        assert not list(tmp_path.glob("eval_*"))
        if foreign is None:
            assert run(["evaluate"] + args) == 0
            assert list(tmp_path.glob("eval_*"))

    def test_report_rejects_features_of_another_config(self, tmp_path, workdir,
                                                      capsys):
        src, base = workdir
        for name in ("features.csv", "eval_full_gbt.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        # features.csv was made with the default train size
        assert run(["report"] + args + ["--train-size", "0.4"]) == 3
        self.assert_one_line_data_error(capsys)
        assert not (tmp_path / "report.json").exists()
        assert run(["report"] + args) == 0
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("referenced", [True, False])
    def test_pair_and_featurize_reject_corrupt_cleaned_scans(
            self, tmp_path, workdir, capsys, referenced):
        src, base = workdir
        _, _, cand = fileio.read_csv(src / "candidates.csv",
                                     fileio.SCHEMA_CANDIDATES)
        used = {(row[0], row[2]) for row in cand} | {(row[1], row[3]) for row in cand}
        lines = (src / "cleaned.jsonl").read_text().splitlines(keepends=True)

        def scan_key(line):
            rec = json.loads(line)
            return rec["user"], str(rec["ts"])

        # line 0 is the header
        cut = next(i for i in range(1, len(lines))
                   if (scan_key(lines[i]) in used) == referenced)
        lines[cut] = lines[cut][:len(lines[cut]) // 2] + "\n"
        (tmp_path / "cleaned.jsonl").write_text("".join(lines))
        for name in ("bluetooth.jsonl", "home_routers.json"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        # --strict-parse governs the raw logs only: clean wrote this file
        args = ["--dir", str(tmp_path)] + base[2:]
        capsys.readouterr()
        assert run(["pair"] + args) == 3
        self.assert_one_line_data_error(capsys)
        assert not (tmp_path / "candidates.csv").exists()
        (tmp_path / "candidates.csv").write_bytes((src / "candidates.csv").read_bytes())
        assert run(["featurize"] + args) == 3
        self.assert_one_line_data_error(capsys)
        assert not (tmp_path / "features.csv").exists()
