"""Library invariants are real checks: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import shiftortho

SOURCE = Path(shiftortho.__file__).parent


def test_library_has_no_assert_statements():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"
