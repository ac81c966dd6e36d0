"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success (run with ``-s`` or ``-v``
to see them); a failure prints the measured numbers in the assertion.
"""

import json
import math
import time

import numpy as np

from shiftortho import (
    LatticeDomain,
    SopwBasis1D,
    analyze_grid,
    b_transform,
    cpw_energy,
    first_derivative_stencil,
    is_shift_orthogonal,
    shell_moment_sums,
    project_sso,
    project_sso_orth,
    random_tensor,
    second_derivative_stencil,
    solve_cpw_mode,
    synthesize_grid,
    verify_variational_certificate,
)
from shiftortho.cli import main, run_bench
from shiftortho.cpw import CpwConfig
from util import (
    direct_shift_violation,
    engineered_degenerate_real,
    gram_shift,
    random_real_tensor,
    sopw_derivative_samples,
    sopw_fourier_vector,
    sphere_subproblem_oracle,
    theta_energy,
)

# Domains with size <= 64 used by criteria 2-5.
SMALL_DOMAINS = [
    LatticeDomain((8,), (8,)),
    LatticeDomain((16,), (4,)),
    LatticeDomain((2, 4), (2, 4)),
    LatticeDomain((4, 4), (2, 2)),
]


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for num_shifts in (2, 4, 8):
        for depth_cap in range(1, 7):
            basis = SopwBasis1D(num_shifts, depth_cap)
            band = (depth_cap + 1) * num_shifts // 2
            vectors = np.array(
                [
                    sopw_fourier_vector(k, j, basis, band)
                    for k in range(1, depth_cap + 1)
                    for j in range(num_shifts)
                ]
            )
            gram = vectors.conj() @ vectors.T
            worst = max(worst, float(np.abs(gram - np.eye(len(vectors))).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"gram deviation {worst}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    _report(1, f"gram deviation {worst:.2e}, {elapsed:.2f}s")


def _criterion2_corpus():
    rng = np.random.default_rng(20)
    for domain in SMALL_DOMAINS:
        assert domain.size <= 64
        for _ in range(100):
            yield domain, random_tensor(domain, rng)


def test_criterion_02_membership_and_minimality():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    worst_violation = 0.0
    worst_column = 0.0
    for domain, tensor in _criterion2_corpus():
        projected = project_sso(tensor)
        worst_violation = max(worst_violation, direct_shift_violation(projected))
        assert is_shift_orthogonal(projected, 1e-10).is_member
        in_columns = b_transform(tensor).columns
        out_columns = b_transform(projected).columns
        for j in range(domain.shift_count):
            oracle = sphere_subproblem_oracle(in_columns[:, j], rng, samples=3)
            worst_column = max(
                worst_column, float(np.abs(out_columns[:, j] - oracle).max())
            )
    elapsed = time.perf_counter() - start
    assert worst_violation <= 1e-10
    assert worst_column <= 1e-10
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    _report(
        2,
        f"violation {worst_violation:.2e}, column vs oracle {worst_column:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_03_realness():
    rng = np.random.default_rng(22)
    worst = 0.0
    count = 0
    for domain in SMALL_DOMAINS:
        for _ in range(22):
            out = project_sso(random_real_tensor(domain, rng))
            worst = max(worst, out.max_imag())
            count += 1
        for _ in range(3):
            out = project_sso(engineered_degenerate_real(domain, rng))
            worst = max(worst, out.max_imag())
            count += 1
    assert count >= 100
    assert worst <= 1e-12, f"max imaginary part {worst}"
    _report(3, f"{count} real inputs, max imaginary part {worst:.2e}")


def test_criterion_04_idempotence():
    worst = 0.0
    eps_floor = 1e-6  # keep clear of the degenerate band
    for _, tensor in _criterion2_corpus():
        once = project_sso(tensor)
        norms = np.linalg.norm(b_transform(tensor).columns, axis=0)
        if norms.min() <= eps_floor:
            continue
        twice = project_sso(once)
        worst = max(worst, float(np.linalg.norm(twice.data - once.data)))
    assert worst <= 1e-10, f"idempotence defect {worst}"
    _report(4, f"idempotence defect {worst:.2e}")


def test_criterion_05_deflated_projection():
    rng = np.random.default_rng(23)
    worst_membership = 0.0
    worst_gram = 0.0
    for domain in SMALL_DOMAINS:
        max_modes = min(domain.depth_count - 1, 3)
        for n in range(1, max_modes + 1):
            modes = []
            for _ in range(n):
                modes.append(
                    project_sso_orth(random_real_tensor(domain, rng), modes)
                )
            out = project_sso_orth(random_tensor(domain, rng), modes)
            worst_membership = max(worst_membership, direct_shift_violation(out))
            assert is_shift_orthogonal(out, 1e-10).is_member
            for mode in modes:
                worst_gram = max(
                    worst_gram, float(np.abs(gram_shift(out, mode)).max())
                )
    assert worst_membership <= 1e-10
    assert worst_gram <= 1e-10
    _report(
        5, f"membership {worst_membership:.2e}, mode gram {worst_gram:.2e}"
    )


def test_criterion_06_derivative_expansions():
    worst_stencil = 0.0
    worst_leak = 0.0
    worst_lemma = 0.0
    for num_shifts in (4, 8):
        basis = SopwBasis1D(num_shifts, 7)
        grid_size = 2 * basis.depth_cap * num_shifts
        half = num_shifts // 2
        for k in range(1, 6):
            for ell in (0, 1):
                first = first_derivative_stencil(k, ell, basis)
                approx = synthesize_grid(
                    first.to_coeff_tensor(basis), grid_size, basis
                )
                exact = sopw_derivative_samples(k, ell, basis, grid_size, 1)
                worst_stencil = max(
                    worst_stencil, float(np.abs(approx - exact).max())
                )
                second = second_derivative_stencil(k, ell, basis)
                approx2 = synthesize_grid(
                    second.to_coeff_tensor(basis), grid_size, basis
                )
                exact2 = sopw_derivative_samples(k, ell, basis, grid_size, 2)
                worst_stencil = max(
                    worst_stencil, float(np.abs(approx2 - exact2).max())
                )
            tensor, residual = analyze_grid(
                sopw_derivative_samples(k, 0, basis, grid_size, 2), basis
            )
            rows = tensor.grid.copy()
            rows[k - 1] = 0.0
            worst_leak = max(worst_leak, float(np.abs(rows).max()), residual)
            for j in range(num_shifts):
                omega = np.exp(2j * math.pi * j / num_shifts)
                modes = [
                    n
                    for n in range(-(k * half) + 1, k * half)
                    if abs(n) > (k - 1) * half
                ]
                s1, s2 = shell_moment_sums(k, j, basis)
                worst_lemma = max(
                    worst_lemma,
                    abs(s1 - sum(n * omega**n for n in modes)),
                    abs(s2 - sum(n * n * omega**n for n in modes)),
                )
    assert worst_stencil <= 1e-9
    assert worst_leak <= 1e-10
    assert worst_lemma <= 1e-10
    _report(
        6,
        f"stencil {worst_stencil:.2e}, leakage {worst_leak:.2e}, "
        f"closed-form sums {worst_lemma:.2e}",
    )


def test_criterion_07_variational_certificate():
    for num_shifts in (4, 8, 16):
        report = verify_variational_certificate(
            SopwBasis1D(num_shifts, 1), tail_periods=10
        )
        assert report.primal_residual <= 1e-10
        assert report.dual_min_slack >= -1e-10
        assert report.complementary_slackness <= 1e-10
        assert report.prefix_slack_max <= 1e-10
        assert report.all_passed
    _report(7, "primal, dual tail, slackness and prefix all within 1e-10")


def test_criterion_08_cpw_qualitative(tmp_path, capsys):
    start = time.perf_counter()
    outdir = tmp_path / "cpw"
    code = main(
        ["cpw", "--grid", "512", "--modes", "4", "--outdir", str(outdir)]
    )
    captured = capsys.readouterr()
    elapsed = time.perf_counter() - start
    status = json.loads(
        [line for line in captured.out.splitlines() if line.startswith("{")][-1]
    )
    assert code == 0
    assert status["all_converged"]
    assert status["max_cross_violation"] <= 1e-7
    for mode in status["modes"]:
        assert mode["converged"]
        assert mode["final_violation"] <= 1e-7
        assert mode["support_fraction"] < 0.5
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s"
    with capsys.disabled():
        _report(
            8,
            "4 modes converged, cross violation "
            f"{status['max_cross_violation']:.2e}, supports "
            f"{[round(m['support_fraction'], 3) for m in status['modes']]}, "
            f"{elapsed:.1f}s",
        )


def test_criterion_09_energy_without_l1():
    basis = SopwBasis1D(8, 8)
    cfg = CpwConfig(mu=math.inf, grid_size=256, tol=1e-6, max_iter=5000)
    mode, diag = solve_cpw_mode(None, cfg, basis)
    assert diag.converged
    reference = theta_energy(basis)
    energy = cpw_energy(mode.samples, math.inf, float(basis.num_shifts))
    relative = abs(energy - reference) / reference
    assert relative <= 1e-4, f"relative energy error {relative}"
    _report(9, f"relative energy error {relative:.2e}")


def test_criterion_10_complexity_scaling():
    report = run_bench(14, 20, repeats=15, seed=0)
    ratios = {
        section["label"]: section["max_doubling_ratio"]
        for section in report["sections"]
    }
    # Every section's per-size medians, so that a noisy step can be told
    # apart from a regression.
    medians = "; ".join(
        section["label"] + ": " + ", ".join(
            f"2^{row['size'].bit_length() - 1} {row['median_seconds'] * 1e3:.3g} ms"
            for row in section["rows"]
        )
        for section in report["sections"]
    )
    for section in report["sections"]:
        times = [row["median_seconds"] for row in section["rows"]]
        step = max(range(1, len(times)), key=lambda i: times[i] / times[i - 1])
        size = section["rows"][step]["size"].bit_length() - 1
        ratio = ratios[section["label"]]
        assert ratio <= 2.6, (
            f"{section['label']} doubling ratio {ratio:.2f} at 2^{size - 1} -> 2^{size}; "
            f"medians {medians}"
        )
    _report(
        10,
        "doubling ratios "
        + ", ".join(f"{label} {ratio:.2f}" for label, ratio in ratios.items())
        + " (bound 2.6)",
    )
