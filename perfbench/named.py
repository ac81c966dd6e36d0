"""Per-workload metrics under their design names, for the report line.

These are the quantities the generic result metrics stand for on each
workload (``project_cli_s`` is ``plain_s`` on ``project-file``, and so on),
plus absolute layer times taken from the spans of a traced run.  They are
informational: the result line carries the gated metrics.
"""

from __future__ import annotations

from spans import SOLVE
from workloads import BULK_CASES, BULK_SIZE, _median


def metrics(workload: str, run, info: dict, values: dict, peak_rss_mb: float) -> dict:
    ops = max(run.ops, 1)
    out = {
        "setup_s": (_median(run.samples["setup_s"]), "s"),
        "fail_ratio": (run.failed / run.attempted, "ratio"),
        "attempted": (run.attempted, "count"),
        "failed": (run.failed, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cpw.runtime_warnings": (run.runtime_warnings / ops, "count"),
        "cli.status_lines": (run.status_lines / ops, "count"),
    }
    s = run.samples
    for name in ("op_s", "plain_s", "deflated_s", "ref_before_s"):
        out[name] = (_median(s[name]), "s")
    if workload == "project-file":
        out["project_cli_s"] = (_median(s["plain_s"]), "s")
        out["project_cli_deflated_s"] = (_median(s["deflated_s"]), "s")
        out["coeffio.file_mb"] = (info["file_mb"], "MB")
    elif workload == "cpw-modes":
        out["cpw_solve_s"] = (_median(s["op_s"]), "s")
        out["cpw_iterations"] = (run.extra.get("cpw_iterations", 0), "count")
    else:
        for case in BULK_CASES:
            seconds = _median(s[f"case.{case}"])
            out[f"project_sso_mcoef_s.{case}"] = (
                BULK_SIZE / 1e6 / seconds if seconds else 0.0, "Mcoef/s")
        seconds = _median(s["deflated_s"])
        out["project_orth_mcoef_s"] = (BULK_SIZE / 1e6 / seconds if seconds else 0.0, "Mcoef/s")
        out["projection.max_doubling_ratio.shift_scaling"] = (run.extra["shift-scaling"], "ratio")
        out["projection.max_doubling_ratio.depth_scaling"] = (run.extra["depth-scaling"], "ratio")
        out["bench_sweep_s"] = (run.extra["sweep_s"], "s")

    if run.recorder is not None:
        out.update(_traced(workload, run, values))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def _traced(workload: str, run, values: dict) -> dict:
    rec = run.recorder
    table = rec.by_name()
    traced_ops = len(run.traced["op_s"])

    def median_of(name, scale):
        return scale * _median(table[name]["durations"]) if name in table else 0.0

    def self_of(name):
        return table[name]["self"] if name in table else 0.0

    out = {"trace.overhead_ratio": (1.0 + values["trace.overhead_pct"] / 100.0, "ratio")}
    if workload == "project-file":
        cli_calls = len(table["cli.main"]["durations"])
        coeffio = sum(sum(table[n]["durations"]) for n in table if n.startswith("coeffio."))
        out.update({
            "coeffio.read_s": (median_of("coeffio.read_coeff_file", 1.0), "s"),
            "coeffio.write_s": (median_of("coeffio.write_coeff_file", 1.0), "s"),
            "coeffio.read_mb_s": (values["coeffio.read_mb_s"], "MB/s"),
            "coeffio.write_mb_s": (values["coeffio.write_mb_s"], "MB/s"),
            "coeffio.share_of_project_cli_pct": (
                100.0 * coeffio / sum(table["cli.main"]["durations"]), "%"),
            "lattice.flatten.calls": (values["lattice.calls_per_op"], "count"),
            "lattice.flatten_s": (self_of("lattice.flatten") / traced_ops, "s"),
            "cli.project_self_s": (self_of("cli.main") / cli_calls, "s"),
            "projection.project_sso_ms": (median_of("projection.project_sso", 1e3), "ms"),
            "projection.project_sso_orth_ms": (
                median_of("projection.project_sso_orth", 1e3), "ms"),
            "projection.is_shift_orthogonal_ms": (
                median_of("projection.is_shift_orthogonal", 1e3), "ms"),
        })
    elif workload == "cpw-modes":
        iterations = max(values["cpw.iterations"] * traced_ops, 1)
        solve_s = sum(table[SOLVE]["durations"])
        cpw_self = sum(entry["self"] for name, entry in table.items() if name.startswith("cpw."))
        out.update({
            "btransform.calls": (values["btransform.calls_per_solve"], "count"),
            "projection.project_sso_orth_us": (
                median_of("projection.project_sso_orth", 1e6), "us"),
            "projection.is_shift_orthogonal_us": (
                median_of("projection.is_shift_orthogonal", 1e6), "us"),
            "sopw.analyze_grid_us": (median_of("sopw.analyze_grid", 1e6), "us"),
            "sopw.synthesize_grid_us": (median_of("sopw.synthesize_grid", 1e6), "us"),
            "sopw.calls": (values["sopw.calls_per_op"], "count"),
            **{f"cpw.iterations.mode{k}": (values[f"cpw.iterations.mode{k}"], "count")
               for k in range(1, 5)},
            "cpw.iter_us": (1e6 * solve_s / iterations, "us"),
            "cpw.self_us_per_iter": (1e6 * cpw_self / iterations, "us"),
            "cpw.helmholtz_solve_us": (median_of("cpw.helmholtz_solve", 1e6), "us"),
            "cpw.shrink_us": (median_of("cpw.shrink", 1e6), "us"),
            "cpw.cpw_energy_us": (median_of("cpw.cpw_energy", 1e6), "us"),
            "cpw.mode_set_add_ms": (median_of("cpw.mode_set_add", 1e3), "ms"),
            "cpw.fft_calls_per_iter": (values["cpw.fft_calls_per_iter"], "count"),
            "cpw.is_shift_orthogonal_calls_per_iter": (
                values["cpw.is_shift_orthogonal_calls_per_iter"], "count"),
            "cli.cpw_self_s": (self_of("cli.main") / traced_ops, "s"),
        })
    else:
        out.update({
            "btransform.b_transform_ms": (median_of("btransform.b_transform", 1e3), "ms"),
            "btransform.b_inverse_ms": (median_of("btransform.b_inverse", 1e3), "ms"),
            **{f"projection.project_sso_ms.{case}": (
                1e3 * _median(run.traced[f"case.{case}"]), "ms")
               for case in BULK_CASES},
            "projection.project_sso_orth_ms": (
                median_of("projection.project_sso_orth", 1e3), "ms"),
            "projection.is_shift_orthogonal_ms": (
                median_of("projection.is_shift_orthogonal", 1e3), "ms"),
            "projection.check_shift_perpendicular_ms": (
                median_of("projection.check_shift_perpendicular", 1e3), "ms"),
            "projection.bytes_moved_mb_computed": (
                values["projection.bytes_moved_mb_computed"], "MB"),
            "projection.flops_per_byte": (values["projection.flops_per_byte"], "flop/B"),
            "projection.gb_s_computed": (values["projection.gb_s_computed"], "GB/s"),
        })
    return out
