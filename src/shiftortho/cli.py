"""Command-line front end: projection runs, basis tables and plots, mode
solves, the optimality certificate, and the scaling bench.

Commands print one status JSON object per line on stdout and use exit
codes 0 (success), 1 (usage or parse error), 2 (precondition violation),
3 (non-convergence or a failed scaling bound).  Plots are written as
self-contained SVG so no plotting stack is required.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .coeffio import (
    CoeffFileError,
    format_rows,
    read_coeff_file,
    write_coeff_file,
    write_sopw_table,
)
from .cpw import CpwConfig, CpwModeSet, solve_cpw_mode
from .lattice import (
    CoeffTensor,
    DomainMismatchError,
    LatticeDomain,
    flatten,
    random_tensor,
)
from .projection import (
    FallbackVector,
    InfeasibleDeflationError,
    ModePreconditionError,
    ModeSpan,
    ProjectionConfig,
    is_shift_orthogonal,
    project_sso,
    project_sso_orth,
)
from .sopw import (
    AliasingError,
    SopwBasis1D,
    sopw_fourier_coeffs,
    synthesize_grid,
    verify_variational_certificate,
)

# Not called here, but kept importable from this module: perfbench/spans.py
# rebinds this name here when it traces a run.
from .projection import check_shift_perpendicular  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NOT_CONVERGED = 3

DOUBLING_RATIO_BOUND = 2.6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # The interface contract reserves exit code 1 for usage errors;
    # argparse defaults to 2, so route through an exception instead.
    def error(self, message):
        raise UsageError(message)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# SVG output


def _svg_panels(panels):
    """Stacked line panels as a single SVG document string."""
    width, panel_height, margin = 880, 150, 42
    height = margin + len(panels) * (panel_height + margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    plot_w = width - 2 * margin
    for index, panel in enumerate(panels):
        top = margin + index * (panel_height + margin)
        xs = np.asarray(panel["x"], dtype=float)
        ys = np.asarray(panel["y"], dtype=float)
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if y_hi - y_lo < 1e-12:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        def sx(x):
            return margin + (x - x_lo) / (x_hi - x_lo) * plot_w
        def sy(y):
            return top + (y_hi - y) / (y_hi - y_lo) * panel_height
        parts.append(
            f'<rect x="{margin}" y="{top}" width="{plot_w}" '
            f'height="{panel_height}" fill="none" stroke="#888"/>'
        )
        if y_lo < 0 < y_hi:
            zero_y = sy(0.0)
            parts.append(
                f'<line x1="{margin}" y1="{zero_y:.2f}" x2="{margin + plot_w}" '
                f'y2="{zero_y:.2f}" stroke="#ccc" stroke-dasharray="4 3"/>'
            )
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#1f4e9c" '
            f'stroke-width="1.2"/>'
        )
        parts.append(
            f'<text x="{margin}" y="{top - 6}" font-family="sans-serif" '
            f'font-size="13">{panel["title"]}</text>'
        )
        parts.append(
            f'<text x="{margin}" y="{top + panel_height + 16}" '
            f'font-family="sans-serif" font-size="11">'
            f"{x_lo:g} &#8804; x &#8804; {x_hi:g}, "
            f"range [{y_lo:.3g}, {y_hi:.3g}]</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, panels) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_svg_panels(panels))


# ---------------------------------------------------------------------------
# Scaling bench


@dataclass
class BenchRow:
    size: int
    shifts: int
    depths: int
    median_seconds: float
    repeats: int
    fitted_residual: float


@dataclass
class BenchSection:
    label: str
    rows: list
    fitted_constant: float
    max_doubling_ratio: float
    ratio_ok: bool


_MIN_SAMPLE_SECONDS = 3e-3
# Fixed depth count while the shifts double, fixed shift count vice versa.
_BENCH_DEPTHS, _BENCH_SHIFTS = 16, 64


def _bench_section(label, domains, repeats, rng) -> BenchSection:
    # Round-robin over sizes: consecutive same-size repeats would fold CPU
    # frequency drift into the doubling ratios.  Small sizes are batched so
    # every sample is a few milliseconds, keeping scheduler noise bounded.
    # The collector is paused while timing; its pauses otherwise land in
    # arbitrary samples.
    tensors = [random_tensor(domain, rng) for domain in domains]
    batch = []
    for tensor in tensors:  # warm-up pass, discarded; also sizes the batches
        start = time.perf_counter()
        project_sso(tensor)
        once = max(time.perf_counter() - start, 1e-9)
        batch.append(max(1, math.ceil(_MIN_SAMPLE_SECONDS / once)))
    samples: list[list[float]] = [[] for _ in domains]
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for index, tensor in enumerate(tensors):
                count = batch[index]
                start = time.perf_counter()
                for _ in range(count):
                    project_sso(tensor)
                samples[index].append((time.perf_counter() - start) / count)
    finally:
        if gc_was_enabled:
            gc.enable()
    rows = []
    for domain, times in zip(domains, samples):
        rows.append(
            BenchRow(
                size=domain.size,
                shifts=domain.shift_count,
                depths=domain.depth_count,
                median_seconds=float(statistics.median(times)),
                repeats=repeats,
                fitted_residual=0.0,
            )
        )
    # Least-squares fit of t = c * M * log(shift_count).
    predictor = np.array(
        [row.size * math.log(row.shifts) for row in rows], dtype=float
    )
    times = np.array([row.median_seconds for row in rows])
    constant = float(predictor @ times / (predictor @ predictor))
    for row, pred in zip(rows, predictor):
        row.fitted_residual = float(row.median_seconds - constant * pred)
    ratios = [
        rows[i + 1].median_seconds / rows[i].median_seconds
        for i in range(len(rows) - 1)
    ]
    max_ratio = max(ratios) if ratios else 0.0
    return BenchSection(
        label=label,
        rows=rows,
        fitted_constant=constant,
        max_doubling_ratio=max_ratio,
        ratio_ok=max_ratio <= DOUBLING_RATIO_BOUND,
    )


def run_bench(min_exp: int, max_exp: int, repeats: int, seed: int = 0) -> dict:
    """Time the projection over doublings of the input size.

    Two sections grow the size by doubling the shift count at fixed depth
    cap and vice versa.  Each point is the median of ``repeats`` runs after
    one discarded warm-up.
    """
    if min_exp > max_exp:
        raise ValueError("min_exp must not exceed max_exp")
    if 1 << min_exp <= max(_BENCH_DEPTHS, _BENCH_SHIFTS):
        raise ValueError("exponent range too small for the fixed factors")
    rng = np.random.default_rng(seed)
    exponents = range(min_exp, max_exp + 1)
    shift_scaling = [
        LatticeDomain(((1 << e) // _BENCH_DEPTHS,), (_BENCH_DEPTHS,))
        for e in exponents
    ]
    depth_scaling = [
        LatticeDomain((_BENCH_SHIFTS,), ((1 << e) // _BENCH_SHIFTS,))
        for e in exponents
    ]
    sections = [
        _bench_section("shift-scaling", shift_scaling, repeats, rng),
        _bench_section("depth-scaling", depth_scaling, repeats, rng),
    ]
    return {
        "repeats": repeats,
        "seed": seed,
        "ratio_bound": DOUBLING_RATIO_BOUND,
        "cpu_count": os.cpu_count(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "sections": [
            {
                "label": section.label,
                "fitted_constant": section.fitted_constant,
                "max_doubling_ratio": section.max_doubling_ratio,
                "ratio_ok": section.ratio_ok,
                "rows": [asdict(row) for row in section.rows],
            }
            for section in sections
        ],
        "all_ratios_ok": all(section.ratio_ok for section in sections),
    }


# ---------------------------------------------------------------------------
# Commands


def _projection_config(args) -> ProjectionConfig:
    fallback = {
        "uniform": FallbackVector.UNIFORM_REAL,
        "canonical": FallbackVector.FIRST_CANONICAL,
    }[args.fallback]
    return ProjectionConfig(zero_norm_eps=args.eps, fallback_vector=fallback)


def cmd_project(args) -> int:
    cfg = _projection_config(args)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    tensor = read_coeff_file(args.input)
    modes = [read_coeff_file(path) for path in args.modes or []]
    if modes:
        result = project_sso_orth(tensor, ModeSpan(tensor.domain, modes), cfg)
    else:
        result = project_sso(tensor, cfg)
    write_coeff_file(args.output, result)
    report = is_shift_orthogonal(result, tol=args.tol)
    _emit(
        {
            "command": "project",
            "input": str(args.input),
            "output": str(args.output),
            "modes": len(modes),
            "config": {
                "eps": cfg.resolve_eps(tensor.domain),
                "fallback": cfg.fallback_vector.value,
                "tol": args.tol,
            },
            "max_violation": report.max_constraint_violation,
            "norm_min": float(report.per_frequency_norms.min()),
            "norm_max": float(report.per_frequency_norms.max()),
            "is_member": report.is_member,
        }
    )
    return EXIT_OK


def cmd_sopw(args) -> int:
    basis = SopwBasis1D(args.L, args.N)
    depths = args.depths or list(range(1, min(6, basis.depth_cap) + 1))
    if max(depths) > basis.depth_cap:
        raise ValueError(
            f"requested depth {max(depths)} exceeds depth cap {basis.depth_cap}"
        )
    shift_idx = args.shift if args.shift is not None else basis.num_shifts // 2
    if not 0 <= shift_idx < basis.num_shifts:
        raise ValueError(f"shift {shift_idx} outside 0..{basis.num_shifts - 1}")

    written = {}
    if args.table:
        table = [
            ((k, j), sopw_fourier_coeffs(k, j, basis))
            for k in range(1, basis.depth_cap + 1)
            for j in range(basis.num_shifts)
        ]
        write_sopw_table(args.table, basis, table)
        written["table"] = str(args.table)
    if args.plot:
        panels = []
        x = np.arange(args.grid) * basis.num_shifts / args.grid
        for k in depths:
            tensor = CoeffTensor.zeros(basis.domain)
            tensor.data[flatten(basis.domain, (k,), (shift_idx,))] = 1.0
            samples = synthesize_grid(tensor, args.grid, basis).real
            panels.append(
                {"x": x, "y": samples, "title": f"depth {k}, shift {shift_idx}"}
            )
        write_svg(args.plot, panels)
        written["plot"] = str(args.plot)
    _emit(
        {
            "command": "sopw",
            "L": basis.num_shifts,
            "N": basis.depth_cap,
            "depths": list(depths),
            "shift": shift_idx,
            "grid": args.grid,
            "written": written,
        }
    )
    return EXIT_OK


def cmd_cpw(args) -> int:
    basis = SopwBasis1D(args.L, args.N)
    if args.modes > basis.depth_cap:
        raise InfeasibleDeflationError(
            f"{args.modes} modes exceed {basis.depth_cap} depth dimensions"
        )
    cfg = CpwConfig(
        mu=args.mu,
        lam=getattr(args, "lambda"),
        r=args.r,
        tol=args.tol,
        max_iter=args.max_iter,
        grid_size=args.grid,
        init=args.init,
        seed=args.seed,
    )
    os.makedirs(args.outdir, exist_ok=True)
    mode_set = CpwModeSet(basis)
    period = float(basis.num_shifts)
    x = np.arange(args.grid) * period / args.grid
    timings = []
    mode_reports = []
    for index in range(args.modes):
        _, lam_used, r_used, _ = cfg.resolve(basis, len(mode_set))
        start = time.perf_counter()
        mode, diag = solve_cpw_mode(mode_set, cfg, basis)
        seconds = time.perf_counter() - start
        mode_set.add(mode)
        timings.append((index + 1, diag.iterations, seconds))

        samples_path = os.path.join(args.outdir, f"mode{index + 1}_samples.csv")
        with open(samples_path, "w", newline="", encoding="ascii") as handle:
            # csv.writer's default dialect: CRLF rows, numbers unquoted.
            handle.write("x,psi\r\n")
            handle.write(
                format_rows("%.17g,%.17g\r\n", np.column_stack([x, mode.samples]))
            )
        coeff_path = os.path.join(args.outdir, f"mode{index + 1}_coeffs.csv")
        write_coeff_file(coeff_path, mode.coeffs)
        mode_reports.append(
            {
                "mode": index + 1,
                "converged": diag.converged,
                "iterations": diag.iterations,
                "seconds": seconds,
                "lambda": lam_used,
                "r": r_used,
                "final_violation": diag.final_violation,
                "support_fraction": diag.support_fraction,
                "energy": float(diag.energy_history[-1]),
                "max_analysis_residual": diag.max_analysis_residual,
            }
        )

    panels = [
        {
            "x": x,
            "y": mode.samples,
            "title": f"mode {index + 1}",
        }
        for index, mode in enumerate(mode_set.modes)
    ]
    figure_path = os.path.join(args.outdir, "modes.svg")
    write_svg(figure_path, panels)

    timing_path = os.path.join(args.outdir, "timings.csv")
    with open(timing_path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mode", "iterations", "seconds"])
        for mode_no, iterations, seconds in timings:
            writer.writerow([mode_no, iterations, f"{seconds:.6f}"])
        writer.writerow(
            ["total", sum(t[1] for t in timings),
             f"{sum(t[2] for t in timings):.6f}"]
        )

    all_converged = all(report["converged"] for report in mode_reports)
    _emit(
        {
            "command": "cpw",
            "config": {
                "L": basis.num_shifts,
                "N": basis.depth_cap,
                "mu": cfg.mu,
                "lambda": cfg.lam,
                "r": cfg.r,
                "tol": cfg.tol,
                "max_iter": cfg.max_iter,
                "grid": args.grid,
                "init": cfg.init,
                "seed": cfg.seed,
            },
            "outdir": str(args.outdir),
            "modes": mode_reports,
            "max_cross_violation": mode_set.span.max_shift_inner,
            "all_converged": all_converged,
            "figure": figure_path,
            "timing_table": timing_path,
        }
    )
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_bench(args) -> int:
    if args.repeats < 5:
        print(
            f"warning: {args.repeats} repeats gives noisy medians; 5+ recommended",
            file=sys.stderr,
        )
    report = run_bench(args.min_exp, args.max_exp, args.repeats, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    _emit(
        {
            "command": "bench",
            "out": str(args.out) if args.out else None,
            "config": {
                "min_exp": args.min_exp,
                "max_exp": args.max_exp,
                "repeats": args.repeats,
                "seed": args.seed,
            },
            "all_ratios_ok": report["all_ratios_ok"],
            "sections": [
                {
                    "label": section["label"],
                    "max_doubling_ratio": section["max_doubling_ratio"],
                    "fitted_constant": section["fitted_constant"],
                }
                for section in report["sections"]
            ],
        }
    )
    return EXIT_OK if report["all_ratios_ok"] else EXIT_NOT_CONVERGED


def cmd_certify(args) -> int:
    basis = SopwBasis1D(args.L, max(1, args.N))
    report = verify_variational_certificate(basis, tail_periods=args.tail_periods)
    payload = asdict(report)
    payload["all_passed"] = report.all_passed
    payload["command"] = "certify"
    _emit(payload)
    return EXIT_OK if report.all_passed else EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftortho", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_project = sub.add_parser("project", help="project a coefficient file")
    p_project.add_argument("input")
    p_project.add_argument("output")
    p_project.add_argument("--eps", type=float, default=None,
                           help="zero-column threshold (default scales with depth)")
    p_project.add_argument("--fallback", choices=("uniform", "canonical"),
                           default="uniform")
    p_project.add_argument("--modes", nargs="*", default=None,
                           help="coefficient files of modes to deflate against")
    p_project.add_argument("--tol", type=float, default=1e-10)
    p_project.set_defaults(func=cmd_project)

    p_sopw = sub.add_parser("sopw", help="tabulate or plot the plane wave basis")
    p_sopw.add_argument("--L", type=int, required=True, help="shifts per period (even)")
    p_sopw.add_argument("--N", type=int, default=6, help="depth cap")
    p_sopw.add_argument("--table", default=None, help="write coefficient table here")
    p_sopw.add_argument("--plot", default=None, help="write SVG panels here")
    p_sopw.add_argument("--depths", type=int, nargs="*", default=None)
    p_sopw.add_argument("--shift", type=int, default=None)
    p_sopw.add_argument("--grid", type=int, default=512)
    p_sopw.set_defaults(func=cmd_sopw)

    p_cpw = sub.add_parser("cpw", help="solve compressed plane wave modes")
    p_cpw.add_argument("--L", type=int, default=16)
    p_cpw.add_argument("--N", type=int, default=8)
    p_cpw.add_argument("--mu", type=float, default=0.5,
                       help="L1 weight; inf drops the L1 term")
    p_cpw.add_argument("--lambda", type=float, default=None, dest="lambda")
    p_cpw.add_argument("--r", type=float, default=None)
    p_cpw.add_argument("--modes", type=int, default=4)
    p_cpw.add_argument("--grid", type=int, default=512)
    p_cpw.add_argument("--tol", type=float, default=1e-6)
    p_cpw.add_argument("--max-iter", type=int, default=5000)
    p_cpw.add_argument("--init", choices=("gaussian", "random"), default="gaussian")
    p_cpw.add_argument("--seed", type=int, default=0)
    p_cpw.add_argument("--outdir", required=True)
    p_cpw.set_defaults(func=cmd_cpw)

    p_bench = sub.add_parser("bench", help="time the projection over size doublings")
    p_bench.add_argument("--min-exp", type=int, default=14)
    p_bench.add_argument("--max-exp", type=int, default=20)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_certify = sub.add_parser("certify", help="run the optimality certificate")
    p_certify.add_argument("--L", type=int, required=True)
    p_certify.add_argument("--N", type=int, default=1)
    p_certify.add_argument("--tail-periods", type=int, default=10)
    p_certify.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CoeffFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        DomainMismatchError,
        InfeasibleDeflationError,
        ModePreconditionError,
        AliasingError,
        IndexError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
