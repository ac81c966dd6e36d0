"""Span recorder for the traced run, attached from outside the library.

:meth:`Recorder.operation` rebinds, for the duration of one operation, the names that
each consuming module looks up at call time (``shiftortho.cli.read_coeff_file``,
``shiftortho.cpw.analyze_grid``, ``numpy.fft.fft``, ...) to wrappers that
record into a :class:`Recorder`, and restores them afterwards.  No file of
the library changes.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, operation id,
  enclosing scope), kept in memory and written out at the end;
* hot: calls made once per file row (``lattice.flatten`` inside the
  coefficient reader) are aggregated into a count and a summed time;
* counter: FFT calls are only counted; their time stays with the caller.

A layer's self time is the time of its spans minus the part covered by
their child spans and hot calls, plus the summed time of its hot calls.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy.fft
import scipy.fft

import shiftortho.cli
import shiftortho.coeffio
import shiftortho.cpw
import shiftortho.projection

SOLVE = "cpw.solve_cpw_mode"
FFT = "fft"

# (owner, attribute, recorded name, kind); scope spans also label the hot
# and counter calls made while they are open.
_BINDINGS = [
    (shiftortho.cli, "read_coeff_file", "coeffio.read_coeff_file", "span"),
    (shiftortho.cli, "write_coeff_file", "coeffio.write_coeff_file", "span"),
    (shiftortho.cli, "project_sso", "projection.project_sso", "span"),
    (shiftortho.cli, "project_sso_orth", "projection.project_sso_orth", "span"),
    (shiftortho.cli, "is_shift_orthogonal", "projection.is_shift_orthogonal", "span"),
    (shiftortho.cli, "check_shift_perpendicular", "projection.check_shift_perpendicular", "span"),
    (shiftortho.cli, "solve_cpw_mode", SOLVE, "scope"),
    (shiftortho.coeffio, "flatten", "lattice.flatten", "hot"),
    (shiftortho.cpw, "analyze_grid", "sopw.analyze_grid", "span"),
    (shiftortho.cpw, "synthesize_grid", "sopw.synthesize_grid", "span"),
    (shiftortho.cpw, "project_sso", "projection.project_sso", "span"),
    (shiftortho.cpw, "project_sso_orth", "projection.project_sso_orth", "span"),
    (shiftortho.cpw, "is_shift_orthogonal", "projection.is_shift_orthogonal", "span"),
    (shiftortho.cpw, "check_shift_perpendicular", "projection.check_shift_perpendicular", "span"),
    (shiftortho.cpw, "b_transform", "btransform.b_transform", "span"),
    (shiftortho.cpw, "helmholtz_solve", "cpw.helmholtz_solve", "span"),
    (shiftortho.cpw, "shrink", "cpw.shrink", "span"),
    (shiftortho.cpw, "cpw_energy", "cpw.cpw_energy", "span"),
    (shiftortho.cpw.CpwModeSet, "add", "cpw.mode_set_add", "span"),
    (shiftortho.projection, "b_transform", "btransform.b_transform", "span"),
    (shiftortho.projection, "b_inverse", "btransform.b_inverse", "span"),
    (numpy.fft, "fft", FFT, "counter"),
    (numpy.fft, "ifft", FFT, "counter"),
    (numpy.fft, "fftn", FFT, "counter"),
    (numpy.fft, "ifftn", FFT, "counter"),
    (scipy.fft, "fftn", FFT, "counter"),
    (scipy.fft, "ifftn", FFT, "counter"),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """In-memory spans and aggregates for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, scope]
        self.covered = []  # time of each span covered by children and hot calls
        self.stack = []
        self.scope = None
        self.op = None
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, scope) -> [calls, seconds]
        self.counts = defaultdict(int)  # (name, scope) -> calls

    def call(self, name, fn, *args, scope=False, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        outer_scope = self.scope
        record = [name, 0.0, 0.0, parent, self.op, outer_scope]
        self.spans.append(record)
        self.covered.append(0.0)
        self.stack.append(index)
        if scope:
            self.scope = name
        record[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = end = perf_counter()
            self.scope = outer_scope
            self.stack.pop()
            if parent is not None:
                self.covered[parent] += end - start

    def _wrap(self, name, fn, kind):
        if kind in ("span", "scope"):
            is_scope = kind == "scope"

            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, scope=is_scope, **kwargs)
        elif kind == "hot":
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = perf_counter() - start
                    entry = self.hot[(name, self.scope)]
                    entry[0] += 1
                    entry[1] += seconds
                    if self.stack:
                        self.covered[self.stack[-1]] += seconds
        else:
            def wrapper(*args, **kwargs):
                self.counts[(name, self.scope)] += 1
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def operation(self, op_id):
        """Bind the wrappers for one operation, then restore the originals."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _BINDINGS]
        self.op = op_id
        try:
            for (owner, attr, name, kind), (_, _, original) in zip(_BINDINGS, saved):
                setattr(owner, attr, self._wrap(name, original, kind))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self.op = None

    # -- summaries -------------------------------------------------------

    def by_name(self) -> dict:
        """Per recorded name: calls, durations and summed self time."""
        table = defaultdict(lambda: {"durations": [], "self": 0.0})
        for (name, start, end, _, _, _), covered in zip(self.spans, self.covered):
            entry = table[name]
            entry["durations"].append(end - start)
            entry["self"] += end - start - covered
        for (name, _), (calls, seconds) in self.hot.items():
            entry = table[name]
            entry.setdefault("hot_calls", 0)
            entry["hot_calls"] += calls
            entry["self"] += seconds
        return table

    def layer_self(self) -> dict:
        totals = defaultdict(float)
        for name, entry in self.by_name().items():
            totals[layer_of(name)] += entry["self"]
        return totals

    def layer_calls(self) -> dict:
        totals = defaultdict(int)
        for name, entry in self.by_name().items():
            totals[layer_of(name)] += len(entry["durations"]) + entry.get("hot_calls", 0)
        return totals

    def count_in_scope(self, name: str, scope: str) -> int:
        spans = sum(1 for record in self.spans if record[0] == name and record[5] == scope)
        return spans + self.counts.get((name, scope), 0) + self.hot.get((name, scope), [0])[0]

    def table(self, ops: int) -> dict:
        """Compact per-name summary for the report line."""
        out = {}
        for name, entry in sorted(self.by_name().items()):
            calls = len(entry["durations"]) + entry.get("hot_calls", 0)
            row = {"calls_per_op": calls / ops, "self_ms_per_op": 1e3 * entry["self"] / ops}
            if entry["durations"]:
                row["median_us"] = 1e6 * statistics.median(entry["durations"])
            out[name] = row
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for (name, start, end, parent, op, scope) in self.spans:
                handle.write(json.dumps([name, start, end, parent, op, scope]) + "\n")
            for (name, scope), (calls, seconds) in self.hot.items():
                handle.write(json.dumps({"hot": name, "scope": scope,
                                         "calls": calls, "seconds": seconds}) + "\n")
            for (name, scope), calls in self.counts.items():
                handle.write(json.dumps({"counter": name, "scope": scope,
                                         "calls": calls}) + "\n")
