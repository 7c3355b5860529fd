"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracing.py looks functions, methods and module attributes up by
name; a rename in the package would break a `--trace 1` benchmark run.
The first tests install the tracer and uninstall it again without
running a stage; the next runs `clean`, `pair` and `featurize` under it,
since the tracer hands `fileio.write_jsonl` and `fileio.write_csv` its own
one-pass iterators of rows and row blocks, and wraps the three ingest
functions `clean` calls by name. The last runs perfbench/workloads.py's own
calls into the package: every stage with `--jobs`, `features.csv` read back
with `fileio.read_csv`, and `learning_curve(jobs=1)`.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

from wifi_proximity import cli, features, fileio, models, trees

from conftest import world_conf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "speed"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    return workloads


def _bindings():
    """Every attribute of every loaded package module and patched class."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name.startswith("wifi_proximity")]
    owners = mods + [features.PopularityIndex, trees.Tree]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def test_install_wraps_and_uninstall_restores(tracing):
    before = _bindings()
    originals = (cli.main, models.grow_tree, fileio.iter_jsonl,
                 cli.ThreadPoolExecutor, trees.Tree.predict)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = (cli.main, models.grow_tree, fileio.iter_jsonl,
                   cli.ThreadPoolExecutor, trees.Tree.predict)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tree_growth_is_traced(tracing):
    rng = np.random.default_rng(0)
    n, d = 80, 4
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(float)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fitted = [models.fit_model(kind, X, y, {"n_trees": 2, "max_depth": 2})
                  for kind in ("gbt", "rf")]
    finally:
        tracer.uninstall()
    assert tracer.calls["trees.grow"] == 4
    assert tracer.counts["trees.grow_cells"] == 4 * n * d
    nodes = sum(tree.n_nodes for model in fitted for tree in model.trees)
    assert nodes > 4 and tracer.counts["trees.nodes"] == nodes


def test_traced_pair_and_featurize_write_the_same_bytes(tracing, tmp_path, tiny_world,
                                                        capsys):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(tiny_world))
    for stage in ("generate", "clean", "pair", "featurize"):
        assert cli.main([stage, "--dir", str(plain), "--config", str(conf)]) == 0
    for name in ("wifi.jsonl", "bluetooth.jsonl"):
        (traced / name).write_bytes((plain / name).read_bytes())
    tracer = tracing.Tracer()
    tracer.install()
    capsys.readouterr()
    try:
        for stage in ("clean", "pair", "featurize"):
            assert cli.main([stage, "--dir", str(traced), "--config", str(conf)]) == 0
    finally:
        tracer.uninstall()
    # the counts the benchmark reads: the windows pair prints, the rows it writes
    windows = re.search(r"from (\d+) active hour windows", capsys.readouterr().out)
    assert tracer.counts["pairing.windows"] == int(windows.group(1)) > 0
    _, _, candidates = fileio.read_csv(plain / "candidates.csv", fileio.SCHEMA_CANDIDATES)
    assert tracer.counts["pairing.candidates"] == len(candidates) > 0
    # clean: cleaned.jsonl and two JSON reports; pair and featurize: one CSV each
    assert tracer.calls["fileio.write"] == 5
    assert tracer.calls["ingest.parse_wifi"] == 1
    assert tracer.calls["ingest.filter"] == 1 and tracer.calls["ingest.homes"] == 1
    kept = fileio.read_json(plain / "cleaning_report.json", fileio.SCHEMA_CLEANING)
    assert tracer.counts["ingest.records"] == kept["records"] > 0
    for stage in ("clean", "pair", "featurize"):
        assert tracer.wall_s[f"cli.{stage}"] > 0, stage
    for name in ("cleaned.jsonl", "scans.npz", "cleaning_report.json", "home_routers.json",
                 "candidates.csv", "features.csv", "candidates.npz", "features.npz"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def test_benchmark_workloads_run_on_the_tiny_world(workloads, tmp_path, tiny_world):
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(tiny_world))
    for stage in ("generate", "clean", "pair", "featurize", "report"):
        assert workloads.run_stage(stage, tmp_path, conf, tiny_world.seed, 2) == 0, stage
    workloads.load_curve_matrix(tmp_path, tiny_world.seed)
    ops = workloads.curve_pass(workloads.curve_data(tmp_path), tiny_world.seed)["ops"]
    assert ops and all(ok for _, ok, _ in ops), ops
