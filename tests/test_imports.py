"""Every name that a module of the package imports is used in that module.

An import marked ``# noqa: F401`` is exempt: the three ``ThreadPoolExecutor``
imports stay because the benchmark's tracer patches that name.
"""

import ast
from pathlib import Path

import pytest

import wifi_proximity

MODULES = sorted(Path(wifi_proximity.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is exported, so used
        if isinstance(node, ast.Assign) and "__all__" in {getattr(t, "id", None)
                                                          for t in node.targets}:
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("import json\nimport math  # noqa: F401\n"
              "from os import path, sep\nfrom sys import argv\n"
              "print(sep)\n__all__ = ['argv']\n")
    assert unused_imports(source) == ["json (line 1)", "path (line 3)"]
