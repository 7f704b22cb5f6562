"""The package runs on the standard library alone."""

import ast
import importlib
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


def module_name(path: Path) -> str:
    return "gassmann" if path.stem == "__init__" else f"gassmann.{path.stem}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(module_name(path))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


# module-level bindings that the benchmark harness reads by name
NAMED_BINDINGS = [
    ("abelext", "adjugate"),
    ("triples", "det"),
    ("triples", "coset_action"),
    ("permgroup", "smith_with_transforms"),
    ("cli", "_build_parser"),
    ("cli", "_config_from_args"),
]


@pytest.mark.parametrize("module, name", NAMED_BINDINGS,
                         ids=[".".join(pair) for pair in NAMED_BINDINGS])
def test_benchmark_bindings_exist(module, name):
    assert callable(getattr(importlib.import_module(f"gassmann.{module}"),
                            name, None))


# the modules whose `__all__` the package republishes, in import order
REPUBLISHED = ["errors", "permgroup", "lattice", "triples", "splitting",
               "abelext", "kgroups", "homology"]


def test_module_apis_are_pairwise_disjoint():
    exported = [set(importlib.import_module(f"gassmann.{module}").__all__)
                for module in REPUBLISHED]
    for i, names in enumerate(exported):
        for other in exported[i + 1:]:
            assert names & other == set()


def test_package_republishes_each_module_api():
    exported = set().union(*(
        importlib.import_module(f"gassmann.{module}").__all__
        for module in REPUBLISHED))
    package = importlib.import_module("gassmann")
    assert set(package.__all__) == exported | set(REPUBLISHED) | {"catalog"}
