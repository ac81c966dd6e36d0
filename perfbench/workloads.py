"""The three workloads: a closed loop with one caller.

Each operation starts after the previous one ends and its outputs are
checked before the next one starts; check time is not part of any
operation time.  On a traced run operations alternate untraced and traced,
so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import statistics
import subprocess
import sys
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

import checks
import inputs
import reference
from spans import FFT, SOLVE, Recorder

from shiftortho import cli
from shiftortho.lattice import CoeffTensor, LatticeDomain
from shiftortho.projection import (
    check_shift_perpendicular,
    is_shift_orthogonal,
    project_sso,
    project_sso_orth,
)

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

# A fresh interpreter that imports the CLI and completes its first call.
_SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from shiftortho import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["project", sys.argv[2], sys.argv[3]])
sys.exit(code)
"""

# M = 2^15: big enough that coefficient-file I/O dominates the command,
# small enough for ~20 operations per run on a noisy shared machine.
FILE_DEPTHS, FILE_SHIFTS = (8, 16), (16, 16)
CPW_ARGS = ["cpw", "--modes", "4", "--grid", "512"]
CPW_COEFS = 16 * 8
BULK_CASES = {  # name: (depths, shifts, real input)
    "shift_heavy": ((16,), (65536,), False),
    "shift_heavy_real": ((16,), (65536,), True),
    "depth_heavy": ((16384,), (64,), False),
    "lattice3d": ((4, 4, 16), (16, 16, 16), False),
}
BULK_SIZE = 1 << 20
BULK_MODES = 3
BULK_SWEEP = ["bench", "--min-exp", "14", "--max-exp", "20", "--repeats", "5"]
SPOT_COLUMNS = 3

# Computed traffic of the fused projection, in passes over the complex
# array: inverse FFT out of place (read + write), column norms (read),
# scaling in place (read + write), forward FFT in place (read + write).
_SSO_PASSES = 7


class Run:
    """Samples, counts and failures of one benchmark run."""

    def __init__(self, workdir: str, seed: int, trace: bool):
        self.workdir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.recorder = Recorder() if trace else None
        self.samples = defaultdict(list)  # untraced operation timings
        self.traced = defaultdict(list)  # traced operation timings
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.negative_control_caught = None  # the checks must reject a corrupted output
        self.ops = 0
        self.status_lines = 0
        self.warnings = defaultdict(int)  # "Category: message" -> count
        self.io_bytes = defaultdict(int)  # read/write bytes in traced operations
        self.solve_iterations = defaultdict(list)  # mode -> iterations per traced op
        self.extra = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def record(self, what: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures.append(f"{what}: {errors[0]}")

    def cli(self, argv, traced: bool = False, counted: bool = True):
        """``cli.main`` with stdout and warnings captured.

        Status lines and warnings of counted calls (the operations) are
        tallied; none is filtered out.
        """
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                code = self.recorder.call("cli.main", cli.main, argv)
            else:
                code = cli.main(argv)
        lines = [json.loads(line) for line in out.getvalue().splitlines()
                 if line.startswith("{")]
        if counted:
            self.status_lines += len(lines)
            for item in caught:
                self.warnings[f"{item.category.__name__}: {item.message}"] += 1
        return code, lines

    def loop(self, seconds: float, op, reference_kind: str) -> None:
        """Run ``op(traced)`` until ``seconds`` have passed.

        ``op`` returns its step timings and its output checks as
        ``(what, check)`` pairs.  Every operation is bracketed by runs of the
        fixed reference work ``reference_kind`` (the run after one operation
        is the run before the next), timed as ``ref_before_s`` and
        ``ref_after_s``; the checks run after the second one, so nothing
        else separates an operation from its references.  On a traced run
        the operations alternate untraced and traced, and the loop ends only
        once both kinds have run.
        """
        deadline = perf_counter() + seconds
        before = reference.timed(reference_kind)
        while True:
            traced = self.recorder is not None and self.ops % 2 == 1
            if traced:
                with self.recorder.operation(self.ops):
                    timings, pending = op(True)
            else:
                timings, pending = op(False)
            after = reference.timed(reference_kind)
            timings.update(ref_before_s=before, ref_after_s=after)
            before = after
            for what, check in pending:
                self.record(what, check())
            for name, value in timings.items():
                (self.traced if traced else self.samples)[name].append(value)
            self.ops += 1
            if perf_counter() >= deadline and (self.recorder is None or self.ops >= 2):
                return

    @property
    def runtime_warnings(self) -> int:
        return sum(n for key, n in self.warnings.items() if key.startswith("RuntimeWarning"))


def measure_setup(run: Run, src: str) -> None:
    """Time fresh interpreters that import the CLI and project a tiny file."""
    tiny_in, tiny_out = run.path("setup_in.csv"), run.path("setup_out.csv")
    inputs.write_coeff_text(tiny_in, inputs.random_grid(run.rng, (2,), (4,)), (2,), (4,))
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, src, tiny_in, tiny_out],
            capture_output=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        run.samples["setup_s"].append(perf_counter() - start)
        errors = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        if not errors:
            _, got, errors = checks.read_coeff_text(tiny_out)
            errors = errors or checks.membership_errors(got, 1)
        run.record("setup", errors)


def _corrupt(path: str) -> None:
    """Change the real part of the last row of a coefficient file."""
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    fields = lines[-1].split(",")
    fields[-2] = repr(float(fields[-2]) + 1e-3)
    lines[-1] = ",".join(fields)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# project-file


def project_file(run: Run, seconds: float) -> dict:
    depths, shifts, d = FILE_DEPTHS, FILE_SHIFTS, len(FILE_SHIFTS)
    grid = inputs.random_grid(run.rng, depths, shifts)
    modes = inputs.orthonormal_modes(run.rng, depths, shifts, 2)
    in_path, mode_paths = run.path("input.csv"), [run.path(f"mode{k}.csv") for k in (1, 2)]
    in_bytes = inputs.write_coeff_text(in_path, grid, depths, shifts)
    mode_bytes = [inputs.write_coeff_text(p, m, depths, shifts) for p, m in zip(mode_paths, modes)]

    domain = LatticeDomain(shifts, depths)
    tensor = CoeffTensor.from_grid(domain, grid)
    want = {
        "plain_s": project_sso(tensor).grid,
        "deflated_s": project_sso_orth(
            tensor, [CoeffTensor.from_grid(domain, m) for m in modes], validate=True
        ).grid,
    }
    calls = {
        "plain_s": (["project", in_path, run.path("out_plain.csv")], in_bytes, None),
        "deflated_s": (["project", in_path, run.path("out_deflated.csv"), "--modes", *mode_paths],
                       in_bytes + sum(mode_bytes), modes),
    }

    def check(path, label, code, lines):
        if code != 0:
            return [f"exit code {code}"]
        _, got, errors = checks.read_coeff_text(path)
        if errors:
            return errors
        errors = checks.agreement_errors(got, want[label]) + checks.membership_errors(got, d)
        if calls[label][2] is not None:
            errors += checks.perpendicular_errors(got, calls[label][2], d)
        if not (lines and lines[-1].get("is_member")):
            errors.append("status line does not report membership")
        return errors

    def op(traced):
        timings, pending = {}, []
        for label, (argv, read_bytes, _) in calls.items():
            start = perf_counter()
            code, lines = run.cli(argv, traced)
            timings[label] = perf_counter() - start
            pending.append((label, functools.partial(check, argv[2], label, code, lines)))
            if traced and code == 0:
                run.io_bytes["read"] += read_bytes
                run.io_bytes["write"] += os.path.getsize(argv[2])
        timings["op_s"] = timings["plain_s"] + timings["deflated_s"]
        return timings, pending

    run.loop(seconds, op, "text")
    bad = run.path("negative_control.csv")
    inputs.write_coeff_text(bad, want["plain_s"], depths, shifts)
    _corrupt(bad)
    run.negative_control_caught = bool(check(bad, "plain_s", 0, [{"is_member": True}]))
    return {"file_mb": in_bytes / 1e6, "sso_shape": (domain.size, domain.shift_count),
            "array_bytes": {"tensor": 16 * domain.size, "input_file": in_bytes}}


# ---------------------------------------------------------------------------
# cpw-modes


def cpw_modes(run: Run, seconds: float) -> dict:
    outdir = run.path("cpw")
    # The default Gaussian start ignores --seed; it is passed so the
    # command line carries the run's seed all the same.
    argv = CPW_ARGS + ["--seed", str(run.seed), "--outdir", outdir]

    def check(code, lines, directory=outdir):
        if code != 0 or not lines:
            return [f"exit code {code}"]
        status = lines[-1]
        errors = []
        if not status["all_converged"]:
            errors.append("not all modes converged")
        if not status["max_cross_violation"] <= checks.CPW_CROSS_TOL:
            errors.append(f"cross violation {status['max_cross_violation']:.3e}")
        for mode in status["modes"]:
            if not (mode["converged"] and mode["final_violation"] <= checks.CPW_CROSS_TOL
                    and mode["support_fraction"] < 0.5):
                errors.append(f"mode {mode['mode']} fails criterion 8")
        grids = []
        for mode in status["modes"]:
            _, got, file_errors = checks.read_coeff_text(
                os.path.join(directory, f"mode{mode['mode']}_coeffs.csv"))
            errors += file_errors or checks.membership_errors(got, 1)
            if got is not None:
                grids.append(got)
        for k in range(1, len(grids)):
            errors += checks.perpendicular_errors(grids[k], np.stack(grids[:k]), 1,
                                                  checks.CPW_CROSS_TOL)
        return errors

    def op(traced):
        start = perf_counter()
        code, lines = run.cli(argv, traced)
        seconds_op = perf_counter() - start
        modes = lines[-1]["modes"] if lines else []
        if traced:
            for mode in modes:
                run.solve_iterations[mode["mode"]].append(mode["iterations"])
                run.io_bytes["write"] += os.path.getsize(
                    os.path.join(outdir, f"mode{mode['mode']}_coeffs.csv"))
        run.extra["cpw_iterations"] = sum(mode["iterations"] for mode in modes)
        return {
            "op_s": seconds_op,
            "plain_s": modes[0]["seconds"] if modes else 0.0,
            "deflated_s": sum(mode["seconds"] for mode in modes[1:]),
        }, [("cpw", functools.partial(check, code, lines))]

    # Untimed warm-up: a short mode-1 solve fills the library's caches.
    run.cli(["cpw", "--modes", "1", "--grid", "512", "--max-iter", "20",
             "--outdir", run.path("cpw_warmup")], counted=False)
    run.loop(seconds, op, "small")
    bad = run.path("negative_control")
    os.makedirs(bad)
    status = {"all_converged": True, "max_cross_violation": 0.0, "modes": []}
    modes = inputs.orthonormal_modes(run.rng, (8,), (16,), 4)
    for k, mode in enumerate(modes, start=1):
        path = os.path.join(bad, f"mode{k}_coeffs.csv")
        inputs.write_coeff_text(path, mode, (8,), (16,))
        status["modes"].append({"mode": k, "converged": True, "final_violation": 0.0,
                                "support_fraction": 0.1})
    _corrupt(os.path.join(bad, "mode2_coeffs.csv"))
    run.negative_control_caught = bool(check(0, [status], bad))
    return {"sso_shape": (CPW_COEFS, 16),
            "array_bytes": {"tensor": 16 * CPW_COEFS, "grid": 8 * 512}}


# ---------------------------------------------------------------------------
# project-bulk


def project_bulk(run: Run, seconds: float) -> dict:
    tensors, spots = {}, {}
    for case, (depths, shifts, real) in BULK_CASES.items():
        domain = LatticeDomain(shifts, depths)
        tensors[case] = CoeffTensor.from_grid(
            domain, inputs.random_grid(run.rng, depths, shifts, real))
        spots[case] = [tuple(0 for _ in shifts)] + [
            tuple(int(run.rng.integers(n)) for n in shifts) for _ in range(SPOT_COLUMNS - 1)
        ]
    depths, shifts, _ = BULK_CASES["shift_heavy"]
    domain = tensors["shift_heavy"].domain
    modes = [CoeffTensor.from_grid(domain, m)
             for m in inputs.orthonormal_modes(run.rng, depths, shifts, BULK_MODES)]
    mode_cols = [m.columns for m in modes]

    start = perf_counter()
    code, lines = run.cli(BULK_SWEEP + ["--seed", str(run.seed)], counted=False)
    run.extra["sweep_s"] = perf_counter() - start
    # Exit code 3 reports a doubling ratio above the library's bound: a
    # timing outcome, kept as a metric rather than counted as a failure.
    sections = lines[-1]["sections"] if lines else []
    run.record("bench", [] if code in (0, 3) and len(sections) == 2 else [f"exit code {code}"])
    for section in sections:
        run.extra[section["label"]] = section["max_doubling_ratio"]

    def call(traced, name, fn, *args):
        start = perf_counter()
        out = run.recorder.call(name, fn, *args) if traced else fn(*args)
        return out, perf_counter() - start

    def check(case, out, mode_grids=()):
        _, shifts, real = BULK_CASES[case]
        errors = checks.spot_errors(out.columns, shifts, spots[case], mode_grids)
        if real and out.max_imag() > checks.REAL_TOL:
            errors.append(f"real input gave imaginary parts {out.max_imag():.3e}")
        return errors

    def check_orth(out, report, perp):
        errors = check("shift_heavy", out, mode_cols)
        if not report.is_member or not perp.is_perpendicular:
            errors.append("library checkers reject the deflated projection")
        return errors

    def op(traced):
        timings, pending, plain = {}, [], 0.0
        for case, tensor in tensors.items():
            out, seconds_case = call(traced, "projection.project_sso", project_sso, tensor)
            timings[f"case.{case}"] = seconds_case
            plain += seconds_case
            pending.append((case, functools.partial(check, case, out)))
        out, deflated = call(traced, "projection.project_sso_orth", project_sso_orth,
                             tensors["shift_heavy"], modes)
        report, t_member = call(traced, "projection.is_shift_orthogonal",
                                is_shift_orthogonal, out)
        perp, t_perp = call(traced, "projection.check_shift_perpendicular",
                            check_shift_perpendicular, out, modes[0])
        pending.append(("orth", functools.partial(check_orth, out, report, perp)))
        timings.update(plain_s=plain, deflated_s=deflated,
                       op_s=plain + deflated + t_member + t_perp)
        return timings, pending

    for what, warm_up_check in op(False)[1]:  # untimed warm-up
        run.record(what, warm_up_check())
    run.loop(seconds, op, "bulk")
    bad = project_sso(tensors["shift_heavy"])
    bad.data[-1] += 1e-3
    run.negative_control_caught = bool(check("shift_heavy", bad))
    return {"sso_shape": (domain.size, domain.shift_count),
            "array_bytes": {"tensor": 16 * domain.size},
            "sso_seconds": _median(run.traced["case.shift_heavy"])}


WORKLOADS = {
    "project-file": project_file,
    "cpw-modes": cpw_modes,
    "project-bulk": project_bulk,
}


# ---------------------------------------------------------------------------
# Metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _relative(samples: dict, name: str) -> float:
    """Median over operations of their ``name`` step in reference units.

    An operation's reference time is the mean of the reference runs just
    before and just after it and of the next ones out (two on each side):
    a single short reference run adds noise of its own, while four still
    follow the machine's speed from one operation to the next.
    """
    before, after = samples["ref_before_s"], samples["ref_after_s"]
    ratios = []
    for k, step in enumerate(samples[name]):
        refs = before[max(k - 1, 0):k + 1] + after[k:k + 2]
        ratios.append(step * len(refs) / sum(refs))
    return _median(ratios)


def end_to_end(run: Run, peak_rss_mb: float) -> dict:
    return {
        "setup_s": _median(run.samples["setup_s"]),
        "op_ref": _relative(run.samples, "op_s"),
        "plain_ref": _relative(run.samples, "plain_s"),
        "deflated_ref": _relative(run.samples, "deflated_s"),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }


def _span_median(table, name) -> float:
    return _median(table[name]["durations"]) if name in table else 0.0


def per_layer(run: Run, info: dict, layers) -> dict:
    rec = run.recorder
    table = rec.by_name()
    traced_ops = len(run.traced["op_s"])
    op_total = sum(run.traced["op_s"])
    layer_self, layer_calls = rec.layer_self(), rec.layer_calls()
    out = {}
    for layer in layers:
        out[f"{layer}.self_pct"] = 100.0 * layer_self.get(layer, 0.0) / op_total
        out[f"{layer}.calls_per_op"] = layer_calls.get(layer, 0) / traced_ops
    coeffio_s = {name: sum(entry["durations"]) for name, entry in table.items()
                 if name.startswith("coeffio.")}
    out["coeffio.inclusive_pct"] = 100.0 * sum(coeffio_s.values()) / op_total
    for kind in ("read", "write"):
        seconds = coeffio_s.get(f"coeffio.{kind}_coeff_file", 0.0)
        out[f"coeffio.{kind}_mb_s"] = run.io_bytes[kind] / 1e6 / seconds if seconds else 0.0
    out["coeffio.file_mb"] = info.get("file_mb", 0.0)

    solves = len(table[SOLVE]["durations"]) if SOLVE in table else 0
    transforms = (rec.count_in_scope("btransform.b_transform", SOLVE)
                  + rec.count_in_scope("btransform.b_inverse", SOLVE))
    out["btransform.calls_per_solve"] = transforms / solves if solves else 0.0

    size, shift_count = info["sso_shape"]
    sso_s = info.get("sso_seconds") or _span_median(table, "projection.project_sso")
    orth_s = _span_median(table, "projection.project_sso_orth")
    out["projection.project_sso_mcoef_s"] = size / 1e6 / sso_s if sso_s else 0.0
    out["projection.project_sso_orth_mcoef_s"] = size / 1e6 / orth_s if orth_s else 0.0
    for case in BULK_CASES:
        case_s = _median(run.traced[f"case.{case}"])
        out[f"projection.project_sso_mcoef_s.{case}"] = (
            BULK_SIZE / 1e6 / case_s if case_s else 0.0)
    for label in ("shift_scaling", "depth_scaling"):
        out[f"projection.max_doubling_ratio.{label}"] = run.extra.get(
            label.replace("_", "-"), 0.0)
    moved = _SSO_PASSES * 16 * size
    flops = 10 * size * math.log2(shift_count) + 6 * size
    out["projection.bytes_moved_mb_computed"] = moved / 1e6
    out["projection.flops_per_byte"] = flops / moved
    out["projection.gb_s_computed"] = moved / 1e9 / sso_s if sso_s else 0.0

    iterations = sum(sum(v) for v in run.solve_iterations.values())
    out["cpw.iterations"] = iterations / traced_ops
    for k in range(1, 5):
        out[f"cpw.iterations.mode{k}"] = _median(run.solve_iterations.get(k, []))
    solve_s = sum(table[SOLVE]["durations"]) if SOLVE in table else 0.0
    out["cpw.iterations_per_s"] = iterations / solve_s if solve_s else 0.0
    out["cpw.fft_calls_per_iter"] = (
        rec.count_in_scope(FFT, SOLVE) / iterations if iterations else 0.0)
    out["cpw.is_shift_orthogonal_calls_per_iter"] = (
        rec.count_in_scope("projection.is_shift_orthogonal", SOLVE) / iterations
        if iterations else 0.0)
    out["cpw.runtime_warnings"] = run.runtime_warnings / run.ops
    out["cli.status_lines_per_op"] = run.status_lines / run.ops
    untraced, traced = _relative(run.samples, "op_s"), _relative(run.traced, "op_s")
    out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return out
