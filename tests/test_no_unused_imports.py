"""Every name the library imports at module level is used, exported or traced.

A module-level import counts as used when its module refers to the bound
name, when ``shiftortho.__all__`` lists it (the package's own exports), or
when ``perfbench/spans.py`` rebinds that attribute of that module in its
``_BINDINGS`` table during a traced run.  Anything else is a leftover of a
refactor.  ``from __future__`` imports are exempt.  This test only imports
the recorder; it changes nothing under ``perfbench/``.
"""

import ast
import importlib.util
from pathlib import Path

import shiftortho

SOURCE = Path(shiftortho.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_attributes():
    """``(module name, attribute)`` of each module attribute the span recorder rebinds."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(getattr(owner, "__name__", None), attribute)
            for owner, attribute, _, _ in module._BINDINGS}


def _imported_names(tree):
    """``(bound name, line)`` of each import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def test_every_module_level_import_is_used_exported_or_traced():
    traced = _traced_attributes()
    assert traced
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "shiftortho" if path.stem == "__init__" else f"shiftortho.{path.stem}"
        unused += [
            f"{path.name}:{line}:{name}"
            for name, line in _imported_names(tree)
            if name not in loaded
            and not (module == "shiftortho" and name in shiftortho.__all__)
            and (module, name) not in traced
        ]
    assert not unused, f"module-level imports neither used, exported nor traced: {unused}"
