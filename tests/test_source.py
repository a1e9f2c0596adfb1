"""Source hygiene of the package modules, read with ast alone."""

import ast
from collections import Counter
from functools import cache
from pathlib import Path
from typing import Iterator

import pytest

from test_readme import fenced_blocks

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyprod"
MODULES = sorted(PACKAGE.glob("*.py"))
ERRORS = PACKAGE / "errors.py"
BENCH = sorted((ROOT / "bench").rglob("*.py"))


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


def name_counts(tree: ast.AST, strings: bool = False) -> Counter[str]:
    """How often each Name node and attribute name occurs in a tree; an
    import alone names nothing.  With strings, a string constant that is a
    dotted name, such as "SimplicialComplex.full_subcomplex", names each of
    its parts too."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                counts.update(parts)
    return counts


def names_read(source: str) -> set[str]:
    return set(name_counts(ast.parse(source)))


def definitions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.ClassDef]:
    """Module-level functions and classes, each class followed by its
    methods and properties; dunder methods are called by Python itself and
    are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def dead_definitions(modules: list[str], readers: list[str]) -> list[str]:
    """The definitions of the modules that no module or reader names
    outside their own definition (a recursive call is not a use).  A reader
    may name one by string, as bench/tracer.py's ("polyprod.homology",
    "quotient_complex") targets do; a module's own strings are messages and
    JSON keys, and name nothing."""
    trees = [ast.parse(source) for source in modules]
    named = Counter()
    for tree in trees:
        named.update(name_counts(tree))
    for source in readers:
        named.update(name_counts(ast.parse(source), strings=True))
    return [node.name for tree in trees for node in definitions(tree)
            if named[node.name] == name_counts(node)[node.name]]


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


def test_every_module_level_function_and_class_is_named_somewhere():
    """Methods and properties included.  Tests are not readers: a
    definition that only tests reach belongs in tests/, not in the library."""
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    readers = [p.read_text(encoding="utf-8") for p in BENCH] + fenced_blocks("python")
    assert dead_definitions(package, readers) == []


def test_dead_definition_finder_counts_only_uses_outside_the_definition():
    module = ("class Used: pass\n"
              "class Dead: pass\n"
              "def recursive(n):\n"
              "    return recursive(n - 1) if n else Used()\n"
              "def by_attribute(): pass\n"
              "def by_import(): pass\n")
    reader = ("import mod\n"
              "from mod import by_import\n"
              "mod.by_attribute()\n")
    assert dead_definitions([module], [reader]) == ["Dead", "recursive", "by_import"]


def test_dead_definition_finder_checks_methods_and_properties():
    module = ("class Owner:\n"
              "    def __init__(self): self.helper()\n"
              "    def helper(self): pass\n"
              "    def dead(self): return self.dead()\n"
              "    @property\n"
              "    def size(self): return 1\n"
              "    @property\n"
              "    def unread(self): return self.size\n"
              "    @classmethod\n"
              "    def make(cls): return cls()\n"
              "    def by_reader(self): pass\n"
              "    def _by_nothing(self): pass\n"
              "Owner.make()\n")
    reader = "Owner().by_reader()\n"
    assert dead_definitions([module], [reader]) == ["dead", "unread", "_by_nothing"]


def test_dead_definition_finder_counts_dotted_name_strings_in_readers():
    module = ("def by_target(): pass\n"
              "def by_call(): pass\n"
              "def by_message(): pass\n"
              "def by_own_key(): return {'by_own_key': 1}\n"
              "class Owner:\n"
              "    def method(self): pass\n")
    reader = ('TARGETS = {"span": ("mod", "by_target"),\n'
              '           "method": ("mod", "Owner.method"),\n'
              '           "call": ("mod", "by_call()")}\n'
              'print("see by_message for more")\n')
    assert dead_definitions([module], [reader]) == ["by_call", "by_message", "by_own_key"]


FILE_CALLS = {"open", "read_text", "write_text"}


def file_calls_without_encoding(source: str) -> list[int]:
    """Lines of open, read_text and write_text calls with no encoding=
    keyword; without one, text is decoded in the locale's encoding."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) in FILE_CALLS
            and not any(kw.arg == "encoding" for kw in node.keywords)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_file_read_and_write_names_its_encoding(path):
    assert file_calls_without_encoding(path.read_text(encoding="utf-8")) == []


def test_encoding_finder_sees_calls_and_method_calls():
    source = ("from pathlib import Path\n"
              "open('a')\n"
              "open('b', encoding='utf-8')\n"
              "Path('c').read_text()\n"
              "Path('d').write_text('x', encoding='utf-8')\n"
              "with open('e', 'w') as f:\n"
              "    f.write('x')\n")
    assert file_calls_without_encoding(source) == [2, 4, 6]


def indented_json_calls(source: str) -> list[int]:
    """Lines of dump and dumps calls, as json.dumps or as a bare imported
    name, with an indent= keyword; with one, CPython's json encodes in pure
    Python, not with its C encoder."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) in {"dump", "dumps"}
            and any(kw.arg == "indent" for kw in node.keywords)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_json_call_asks_for_indentation(path):
    assert indented_json_calls(path.read_text(encoding="utf-8")) == []


def test_indented_json_finder_sees_dump_and_dumps_with_indent():
    source = ("import json\n"
              "json.dumps(x, indent=2)\n"
              "json.dumps(x, sort_keys=True)\n"
              "json.dump(x, f,\n"
              "          indent=None)\n"
              "dumps(x, indent=2)\n"
              "json.loads(s, indent=2)\n"
              "json.dumps(x)\n")
    assert indented_json_calls(source) == [2, 4, 6]
