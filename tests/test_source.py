"""Source hygiene of the package modules, read with ast alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyprod"
MODULES = sorted(PACKAGE.glob("*.py"))


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
