#!/usr/bin/env python3
"""Benchmark of the three shiftortho user paths, measured from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload project-file --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all     # BENCHMARK.json, then each workload

A run builds its inputs from ``--seed``, times fresh-process set-up, then
runs its workload's operations for ``--seconds`` and checks every output.
It prints a report line (environment, and the per-workload metrics under
their design names, with units) and, last, one JSON result line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Working files go to ``.perfbench/`` in the checkout; the report with every
operation's timings, and the spans of a traced run, are written there at
the end.  The exit code is 0 when the run
completed, whether or not its checks passed (see ``correct``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

import manifest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 900


def environment(array_bytes: dict) -> dict:
    """CPU, threads, library versions, cache sizes and the array sizes used."""
    import numpy
    import scipy

    import shiftortho.btransform

    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_dir, entry, key), encoding="ascii") as handle:
                    fields[key] = handle.read().strip()
            caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        caches = {"unavailable": True}
    with open("/proc/self/status", encoding="ascii") as handle:
        threads = next(int(line.split()[1]) for line in handle if line.startswith("Threads:"))
    return {
        "threads_at_end": threads,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {key: os.environ.get(key) for key in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "btransform_fft_workers": shiftortho.btransform._WORKERS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
        "array_bytes": array_bytes,
    }


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import named
    import workloads

    if os.path.isdir(WORKDIR):
        shutil.rmtree(WORKDIR)
    os.makedirs(WORKDIR)
    run = workloads.Run(WORKDIR, seed, trace)
    workloads.measure_setup(run, SRC)
    info = workloads.WORKLOADS[name](run, seconds)
    if run.recorder is not None:
        run.recorder.write(os.path.join(WORKDIR, f"spans-{name}.jsonl"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        values = workloads.per_layer(run, info, manifest.LAYERS)
        metrics = _metric(values, manifest.PER_LAYER)
    else:
        values = workloads.end_to_end(run, peak_rss_mb)
        metrics = _metric(values, manifest.END_TO_END)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "operations": run.ops,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures[:10],
        "negative_control_caught": run.negative_control_caught,
        "warnings": dict(run.warnings),
        "named": named.metrics(name, run, info, values, peak_rss_mb),
        "environment": environment(info.get("array_bytes", {})),
    }
    if run.recorder is not None:
        report["spans"] = run.recorder.table(len(run.traced["op_s"]))
    print(json.dumps({"report": report}, sort_keys=True))
    report["samples"] = {"untraced": run.samples, "traced": run.traced}
    with open(os.path.join(WORKDIR, f"report-{name}.json"), "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    for path in os.listdir(WORKDIR):
        if path.endswith(".csv"):
            os.remove(os.path.join(WORKDIR, path))
    return {
        "correct": run.failed == 0 and run.negative_control_caught is True,
        "attempted": run.attempted,
        "failed": run.failed + (run.negative_control_caught is not True),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*manifest.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shiftortho", "cli.py")):
        print(f"error: no shiftortho sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="ascii") as handle:
            json.dump(manifest.benchmark_json(), handle, indent=2)
            handle.write("\n")
        for name in manifest.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                timeout=CHILD_TIMEOUT_S, check=False,
            )
            if proc.returncode != 0:
                return proc.returncode
        return 0

    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
