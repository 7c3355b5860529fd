"""scripts/run_experiment.py end to end on the tiny world, and
scripts/summarize_run.py on a tiny-world run."""

import argparse
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wifi_proximity import cli, fileio, models
from wifi_proximity.config import load_config
from wifi_proximity.features import FEATURE_NAMES, FeatureTable

from conftest import world_conf

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_experiment():
    return load_script("run_experiment")


def test_curve_pool_is_the_models_train_split(run_experiment, monkeypatch,
                                              tmp_path, tiny_world):
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(tiny_world))
    monkeypatch.setitem(models.DEFAULT_GBT_PARAMS, "n_trees", 5)
    seen = {}

    def fake_curve(X_pool, y_pool, X_test, y_test, sizes, kinds, **kwargs):
        seen.update(pool=len(y_pool), test=len(y_test), sizes=sizes)
        return {kind: {s: {"median": 0.5, "q25": 0.5, "q75": 0.5} for s in sizes}
                for kind in kinds}

    monkeypatch.setattr(run_experiment, "learning_curve", fake_curve)
    code = run_experiment.main(["--dir", str(tmp_path / "run"), "--config", str(conf),
                                "--featuresets", "FULL", "--train-size", "0.3",
                                "--curve"])
    assert code == 0
    split = fileio.read_json(tmp_path / "run" / "eval_full_gbt.json",
                             fileio.SCHEMA_EVAL)["split"]
    assert split["train_size"] == 0.3
    assert seen["pool"] == split["train_count"] == round(0.3 * split["n"])
    assert seen["test"] == split["n"] - split["train_count"]


def model_choices(parser: argparse.ArgumentParser) -> list:
    """The --model choices of a parser, or of its first subcommand."""
    for action in parser._actions:
        if action.dest == "model":
            return list(action.choices)
        if isinstance(action, argparse._SubParsersAction):
            return model_choices(next(iter(action.choices.values())))
    raise AssertionError("parser has no --model option")


def test_model_choices_are_the_clis(run_experiment):
    choices = model_choices(run_experiment.build_parser())
    assert choices == model_choices(cli.build_parser())
    assert choices == list(models.KIND_SHORT.values())


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, tiny_world):
    """A tiny-world run from generate to report, with 5-tree ensembles."""
    d = tmp_path_factory.mktemp("summarize")
    conf = d / "world.conf"
    conf.write_text(world_conf(tiny_world))
    base = ["--dir", str(d), "--config", str(conf)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(models.DEFAULT_GBT_PARAMS, "n_trees", 5)
        mp.setitem(models.DEFAULT_RF_PARAMS, "n_trees", 5)
        for stage in (["generate"], ["clean"], ["pair"], ["featurize"],
                      ["train"], ["evaluate"], ["train", "--model", "rf"],
                      ["evaluate", "--model", "rf"], ["report"]):
            assert cli.main(stage + base) == 0, stage
    return d


def summarize(d, capsys):
    """summarize_run's exit code, stdout and stderr lines on directory d."""
    code = load_script("summarize_run").main(["--dir", str(d)])
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


def test_summarize_run_prints_every_eval(tiny_run, capsys):
    code, out, err = summarize(tiny_run, capsys)
    assert (code, err) == (0, [])
    assert out.count("top feature importance") == 2


def test_summarize_run_names_a_missing_report(tmp_path, capsys):
    code, out, err = summarize(tmp_path, capsys)
    assert (code, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(tmp_path / "report.json") in err[0]


def truncated(blob: bytes) -> bytes:
    return blob[:len(blob) // 2]


def without_test_results(blob: bytes) -> bytes:
    doc = json.loads(blob)
    del doc["test"]
    return json.dumps(doc).encode()


def with_a_text_fraction(blob: bytes) -> bytes:
    return json.dumps({**json.loads(blob), "positive_fraction": "half"}).encode()


@pytest.mark.parametrize("name, edit", [("eval_full_rf.json", truncated),
                                        ("model_full_rf.json", truncated),
                                        ("eval_full_gbt.json", without_test_results),
                                        ("report.json", with_a_text_fraction)])
def test_summarize_run_names_an_unreadable_file(tiny_run, tmp_path, capsys, name, edit):
    for path in tiny_run.glob("*.json"):
        blob = path.read_bytes()
        (tmp_path / path.name).write_bytes(edit(blob) if path.name == name else blob)
    code, out, err = summarize(tmp_path, capsys)
    assert (code, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(tmp_path / name) in err[0]


@pytest.fixture(scope="module")
def flat_run(tmp_path_factory):
    """train, evaluate and report on 40 candidates whose every feature is
    0: the model is all leaves, and the train split has 20 rows."""
    d = tmp_path_factory.mktemp("flat")
    n = 40
    label = np.arange(n) % 2
    FeatureTable(np.zeros((n, len(FEATURE_NAMES))), label, np.arange(n),
                 np.where(label == 1, -70.0, np.nan)).save(d / "features.npz",
                                                         load_config().data_hash())
    for stage in ("train", "evaluate", "report"):
        assert cli.main([stage, "--dir", str(d)]) == 0, stage
    return d


def test_summarize_run_shows_a_model_without_splits(flat_run, capsys):
    code, out, err = summarize(flat_run, capsys)
    assert (code, err) == (0, [])
    assert "FULL gradient-boosted: no splits, so no feature importance" in out.splitlines()
    assert "top feature importance" not in out


def test_curve_of_a_train_split_below_the_smallest_size_is_skipped(run_experiment,
                                                                  flat_run, capsys):
    run_experiment.run_curve(SimpleNamespace(model="gbt"), flat_run, load_config())
    assert capsys.readouterr().out.splitlines() == [
        "", "training-size curve skipped: the train split has 20 rows, "
            "fewer than the smallest size, 100"]
    assert not (flat_run / "learning_curve.json").exists()


def test_curve_refuses_features_of_another_config(run_experiment, flat_run):
    with pytest.raises(fileio.DataError, match="features.npz"):
        run_experiment.run_curve(SimpleNamespace(model="gbt"), flat_run,
                                 load_config(None, {"seed": 5}))
    assert not (flat_run / "learning_curve.json").exists()
