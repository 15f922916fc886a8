"""Every name a module of the package imports is read in that module, and
every top-level definition of the package is read by the package or the
benchmark."""

import ast
from pathlib import Path

import pytest

import qrelay

MODULES = sorted(Path(qrelay.__file__).parent.glob("*.py"))
BENCH = sorted((Path(qrelay.__file__).parents[2] / "bench").glob("*.py"))
# Definitions that only tests read, each kept for a reason.
READ_ONLY_BY_TESTS = {
    "error_bound": "acceptance criterion C09 pins the n 2^(-n^beta) bound",
    "pauli_induced_channels": "the planned Pauli channel source builds on it",
}


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that no
    expression reads, leaving out ``__future__`` imports and statements
    marked ``# noqa: F401`` (deliberate re-exports)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import os.path as osp\n"
              "from json import (dumps,  # noqa: F401\n"
              "                  loads)\n"
              "from sys import argv, path\n"
              "np.zeros(len(argv))\n")
    assert unused_imports(source) == ["os", "osp", "path"]


def _defines(stmt) -> list:
    """Names a top-level statement defines: a def, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _reads(stmt) -> set:
    """Names a statement reads: loaded names, attributes, and string
    constants, since the benchmark binds its trace points by name."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_definitions(defining: dict, reading: list) -> list:
    """The "module.name" of each top-level definition in the ``defining``
    sources (keyed by module name) that no other top-level statement of
    those or the ``reading`` sources reads, so a recursive call does not
    count."""
    trees = {name: ast.parse(source) for name, source in defining.items()}
    statements = [stmt for source in reading
                  for stmt in ast.parse(source).body]
    statements += [stmt for tree in trees.values() for stmt in tree.body]
    reads = [(stmt, _reads(stmt)) for stmt in statements]
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for stmt in tree.body for name in _defines(stmt)
                  if not any(name in names for other, names in reads
                             if other is not stmt))


def test_every_definition_is_read_outside_tests():
    defining = {path.stem: path.read_text(encoding="utf-8")
                for path in MODULES}
    bench = [path.read_text(encoding="utf-8") for path in BENCH]
    unread = unread_definitions(defining, bench)
    assert {u.split(".")[1] for u in unread} == set(READ_ONLY_BY_TESTS), unread


def test_unread_definitions_skips_self_reads():
    package = ("LIMIT = 3\n"
               "def walk(n):\n"
               "    return walk(n - 1) if n else LIMIT\n"
               "def used():\n"
               "    return 1\n")
    reader = "import m\nm.used()\nSPANS = ('walk_not_a_name',)\n"
    assert unread_definitions({"m": package}, [reader]) == ["m.walk"]
