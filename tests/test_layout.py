"""Package layout: the library imports nothing but the standard library
and itself, so it runs with no third-party package installed."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bimodal"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(path):
    """Top-level names of the absolute imports in a module (relative
    imports stay inside the package)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_bimodal(path):
    foreign = sorted({name for name in imported_roots(path)
                      if name != "bimodal" and name not in sys.stdlib_module_names})
    assert foreign == []
