"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

import qrelay

MODULES = sorted(Path(qrelay.__file__).parent.glob("*.py"))


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
