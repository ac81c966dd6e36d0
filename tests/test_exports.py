"""The package export list matches what ``__init__.py`` imports."""

import ast
from pathlib import Path

import shiftortho

INIT = Path(shiftortho.__file__)


def _imported_public_names():
    tree = ast.parse(INIT.read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves():
    missing = [name for name in shiftortho.__all__ if not hasattr(shiftortho, name)]
    assert not missing, f"exported names missing from the package: {missing}"


def test_exports_sorted_without_duplicates():
    assert len(set(shiftortho.__all__)) == len(shiftortho.__all__)
    assert list(shiftortho.__all__) == sorted(shiftortho.__all__)


def test_every_public_import_is_exported():
    unlisted = _imported_public_names() - set(shiftortho.__all__)
    assert not unlisted, f"imported but not in __all__: {sorted(unlisted)}"
