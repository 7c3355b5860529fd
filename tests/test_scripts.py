"""scripts/run_experiment.py end to end on the tiny world."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from wifi_proximity import cli, fileio, models

from conftest import world_conf

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"


@pytest.fixture
def run_experiment():
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
