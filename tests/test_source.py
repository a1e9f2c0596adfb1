"""Source hygiene of the package modules, read with ast alone."""

import ast
from functools import cache
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyprod"
MODULES = sorted(PACKAGE.glob("*.py"))
ERRORS = PACKAGE / "errors.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.

    A name counts as read when it appears as a Name node anywhere, including
    annotations and the base of an attribute access.  `from __future__`
    imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"products.py", "homology.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_finder_sees_plain_and_from_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys as system\n"
              "from itertools import product as iter_product, chain\n"
              "from typing import Iterator\n"
              "def f(x: Iterator[int]) -> int:\n"
              "    return os.path.sep + chain(x)\n")
    assert unused_imports(source) == ["system", "iter_product"]


def names_read(source: str) -> set[str]:
    """Every Name node and attribute name of a module; an import alone
    names nothing."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


@cache
def names_read_outside_errors() -> frozenset[str]:
    return frozenset().union(*(names_read(p.read_text()) for p in MODULES if p != ERRORS))


ERROR_TYPES = [node.name for node in ast.parse(ERRORS.read_text()).body
               if isinstance(node, ast.ClassDef)]


def test_errors_module_defines_error_types():
    assert {"PolyprodError", "InputError", "BoundaryNotSquareZero"} <= set(ERROR_TYPES)


@pytest.mark.parametrize("name", ERROR_TYPES)
def test_every_error_type_is_named_by_another_module(name):
    assert name in names_read_outside_errors()


def test_names_read_skips_bare_imports():
    source = ("from .errors import Dead, Live\n"
              "import polyprod.errors as errors\n"
              "def f(x):\n"
              "    raise errors.Raised(x) if x else Live()\n")
    assert names_read(source) == {"errors", "Raised", "x", "Live"}
