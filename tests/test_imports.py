"""Every name a module of the package imports is read in that module.

No linter ships with the test dependencies, so this parses each module
with ``ast``.  ``__init__.py`` is skipped: its imports are the package's
exports.  ``from __future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavescan"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names the module's imports bind, outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """Every name the module reads, the names inside quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    return sorted(set(imported_names(tree)) - read_names(tree))


def test_checker_finds_an_unused_import_and_only_that():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom .grid import FeatureGrid, Mask\n"
              "def f(x) -> 'FeatureGrid':\n    return os.sep, np.zeros(x)\n")
    assert unused_imports(source) == ["Mask"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
