"""The names the benchmark's span recorder rebinds must exist in the library.

``perfbench/spans.py`` swaps each ``(owner, attribute)`` of its
``_BINDINGS`` table for a recording wrapper during a traced run, so a
refactor that drops one of those names breaks tracing.  This test only
imports the recorder; it changes nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    bindings = _load_spans()._BINDINGS
    assert bindings
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in bindings
        if not callable(getattr(owner, attribute, None))
    ]
    assert not missing, f"traced names missing from the library: {missing}"
