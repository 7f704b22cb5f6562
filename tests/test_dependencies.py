"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gassmann")
                 .glob("*.py"))


def absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted({name for name in absolute_imports(tree)
                      if name.split(".")[0] != "gassmann"
                      and name.split(".")[0] not in sys.stdlib_module_names})
    assert foreign == []


def test_every_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "permgroup.py",
                                               "homology.py", "lattice.py"}
