"""Metric and workload definitions; the single source of ``BENCHMARK.json``.

Every workload prints every metric named here: the end-to-end set on an
untraced run, the per-layer set on a traced run.  The end-to-end names are
therefore generic over the three user paths.  Each workload has a
plain-projection step, a deflated-projection step and an operation that
holds both:

* ``project-file``: ``plain`` is one ``shiftortho project`` call,
  ``deflated`` one ``project --modes`` call, ``op`` their sum.
* ``cpw-modes``: ``op`` is one 4-mode ``shiftortho cpw`` command;
  ``plain`` and ``deflated`` are the ``seconds`` its status line
  reports for mode 1 and for modes 2-4.
* ``project-bulk``: ``plain`` is the four ``project_sso`` cases,
  ``deflated`` the 3-mode ``project_sso_orth``, ``op`` both plus the
  library's two checkers on the deflated output.

``op_ref``, ``plain_ref`` and ``deflated_ref`` are medians over a run of
each step's wall time divided by the mean time of the fixed reference work
(:mod:`reference`) run around its operation (the two runs before it and
the two after), so that they do not move with the speed of a shared host.  The wall times
themselves (``op_s``, ``project_cli_s``, ``cpw_solve_s``, ...) and the
reference's ``ref_before_s`` are on the report line.  ``setup_s`` is wall
time.

Per-layer time is reported as a share of the traced operations (``%``) and
per-layer work as calls per operation, so a layer that a workload never
enters reads 0 rather than a time.  Absolute layer times under their design
names (``coeffio.read_s``, ``cpw.helmholtz_solve_us``, ...) are on the
report line printed before the result line.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 34

LAYERS = ("cli", "coeffio", "lattice", "btransform", "projection", "sopw", "cpw")

WORKLOADS = {
    "project-file": (
        "shiftortho project on a 2D-lattice file, M=2^15, plain and with two modes: "
        "coefficient-file I/O dominates and sopw and cpw are never entered"
    ),
    "cpw-modes": (
        "shiftortho cpw --modes 4 --grid 512, the acceptance solve: ~4340 Bregman "
        "iterations at M=128, so per-call overhead of cpw, sopw and projection dominates"
    ),
    "project-bulk": (
        "in-memory projections at M=2^20 (shift-heavy complex and real, depth-heavy, 3D, "
        "3-mode deflated) plus the bench sweep: memory-bound FFT path, no I/O"
    ),
}

# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ref": ("ref", "lower", 0.25),
    "plain_ref": ("ref", "lower", 0.25),
    "deflated_ref": ("ref", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "pass_ratio": ("ratio", "higher", 0.01),
}

BULK_CASES = ("shift_heavy", "shift_heavy_real", "depth_heavy", "lattice3d")

# name: (unit, better)
PER_LAYER = {
    **{f"{layer}.self_pct": ("%", "lower") for layer in LAYERS},
    **{f"{layer}.calls_per_op": ("count", "lower") for layer in LAYERS},
    "coeffio.inclusive_pct": ("%", "lower"),
    "coeffio.read_mb_s": ("MB/s", "higher"),
    "coeffio.write_mb_s": ("MB/s", "higher"),
    "coeffio.file_mb": ("MB", "lower"),
    "btransform.calls_per_solve": ("count", "lower"),
    "projection.project_sso_mcoef_s": ("Mcoef/s", "higher"),
    "projection.project_sso_orth_mcoef_s": ("Mcoef/s", "higher"),
    **{f"projection.project_sso_mcoef_s.{case}": ("Mcoef/s", "higher") for case in BULK_CASES},
    "projection.max_doubling_ratio.shift_scaling": ("ratio", "lower"),
    "projection.max_doubling_ratio.depth_scaling": ("ratio", "lower"),
    "projection.bytes_moved_mb_computed": ("MB", "lower"),
    "projection.flops_per_byte": ("flop/B", "higher"),
    "projection.gb_s_computed": ("GB/s", "higher"),
    "cpw.iterations": ("count", "lower"),
    **{f"cpw.iterations.mode{k}": ("count", "lower") for k in range(1, 5)},
    "cpw.iterations_per_s": ("1/s", "higher"),
    "cpw.fft_calls_per_iter": ("count", "lower"),
    "cpw.is_shift_orthogonal_calls_per_iter": ("count", "lower"),
    "cpw.runtime_warnings": ("count", "lower"),
    "cli.status_lines_per_op": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in the key order of the contract."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
