"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracing.py looks functions, methods and module attributes up by
name; a rename in the package would break a `--trace 1` benchmark run.
This installs the tracer and uninstalls it again, without running a stage.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from wifi_proximity import cli, features, fileio, models, trees

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


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
