"""Every module-level function and class of the library is exported or used.

A ``def`` or ``class`` at module level that ``shiftortho.__all__`` does not
list, and whose name no other place in the library refers to, is dead
code: only tests could still call it, and a test oracle belongs in
``tests/``.
"""

import ast
from pathlib import Path

import shiftortho

SOURCE = Path(shiftortho.__file__).parent


def _references(tree):
    """Names a module refers to: loads, attributes, imports and exact strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_module_level_definition_is_exported_or_used():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SOURCE.rglob("*.py"))
    }
    assert trees
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in shiftortho.__all__
        and node.name not in referenced
    ]
    assert not unused, f"module-level definitions neither exported nor used: {unused}"
