"""Every name that a module of the package imports is used in that module,
every top-level function and class of the package, and every method of
such a class but a dunder, is named by code outside the tests, only
``fileio`` names what reads or writes an .npz archive, and the package
imports nothing but the standard library, numpy and itself.

An import marked ``# noqa: F401`` is exempt: the three ``ThreadPoolExecutor``
imports stay because the benchmark's tracer patches that name.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import wifi_proximity

MODULES = sorted(Path(wifi_proximity.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the code outside the tests: the package, the scripts and the benchmark
OUTSIDE_TESTS = MODULES + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


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


def names_in(source: str) -> Counter:
    """How often source names each identifier: as a name, an attribute, an
    imported name, or a string that is the identifier, as the benchmark's
    tracer names what it wraps. A definition does not name itself."""
    counts: Counter = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def definitions(source: str):
    """(qualified name, name) of each top-level function and class of
    source, and of each method of those classes other than a dunder."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__"))


def unnamed_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """The definitions of the modules (name -> source) that neither the
    modules nor the other sources name."""
    named = sum((names_in(source) for source in [*modules.values(), *others]), Counter())
    return [f"{module}.{qualified}" for module, source in modules.items()
            for qualified, name in definitions(source) if not named[name]]


def test_every_definition_is_named_outside_the_tests():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    others = [path.read_text(encoding="utf-8") for path in OUTSIDE_TESTS
              if path not in MODULES]
    assert unnamed_definitions(modules, others) == []


def test_an_unnamed_definition_is_found():
    module = ("def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def traced():\n    pass\n"
              "class Unused:\n    def method(self):\n        pass\n"
              "class Used:\n    def __init__(self):\n        self.called()\n"
              "    def called(self):\n        pass\n"
              "    def orphan(self):\n        pass\n"
              "def lonely():\n    pass\n")
    other = "import m\nm.used()\nm.Used()\nwrap(m, 'traced')\n"
    assert unnamed_definitions({"m": module}, [other]) == [
        "m.Unused", "m.Unused.method", "m.Used.orphan", "m.lonely"]


# the names through which a module could read or write an .npz archive
ARCHIVE_NAMES = {"savez", "savez_compressed", "read_array", "ZipFile", "read_npz",
                 "write_npz"}


def archive_names(source: str) -> list[str]:
    """The archive names that source names, sorted."""
    return sorted(ARCHIVE_NAMES & set(names_in(source)))


def test_only_fileio_reads_or_writes_archives():
    """A table's archive goes through fileio.save_table and load_table, so
    its format is known in one module."""
    named = {path.name: archive_names(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "fileio.py"}
    assert {name: found for name, found in named.items() if found} == {}


def test_an_archive_name_is_found():
    source = ("import zipfile\nimport numpy as np\nfrom numpy.lib.format import read_array\n"
              "np.savez('a', x=1)\nzipfile.ZipFile('b')\nsave_table('c')\n")
    assert archive_names(source) == ["ZipFile", "read_array", "savez"]


# what the package may import: the standard library, numpy and itself
ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "wifi_proximity"}


def foreign_imports(source: str) -> list[str]:
    """Where source imports a package outside ALLOWED_IMPORTS, in order, as
    "<where>: <package>". <where> is "<module>" for an import that runs
    when the module is imported (a class body's too), else the qualified
    name of the function whose body holds it. A relative import is the
    package's own."""
    found = []

    def visit(node, names, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                roots = [alias.name.split(".")[0] for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                roots = [child.module.split(".")[0]]
            else:
                roots = []
            where = ".".join(names) if in_function else "<module>"
            found.extend(f"{where}: {root}" for root in roots if root not in ALLOWED_IMPORTS)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, names + [child.name],
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, names, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_the_package_imports_only_the_standard_library_and_numpy():
    """numpy is the package's one runtime dependency; scipy, which costs a
    process a quarter second or more and about 20 MB, serves only the
    tests' oracles."""
    found = {path.stem: foreign_imports(path.read_text(encoding="utf-8"))
             for path in MODULES}
    assert {name: where for name, where in found.items() if where} == {}


def test_a_scipy_import_is_found():
    source = ("import numpy, scipy.special as sp\nimport scipyx\nfrom .scipy import y\n"
              "import os.path\nfrom wifi_proximity import cli\n"
              "def f():\n    from scipy.stats import t\n"
              "class C:\n    from scipy import linalg\n"
              "    def g(self):\n        import scipy\n")
    assert foreign_imports(source) == ["<module>: scipy", "<module>: scipyx", "f: scipy",
                                       "<module>: scipy", "C.g: scipy"]
