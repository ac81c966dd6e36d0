import math

import numpy as np
import pytest

from shiftortho import (
    AliasingError,
    CoeffTensor,
    CpwConfig,
    CpwMode,
    CpwModeSet,
    DomainMismatchError,
    InfeasibleDeflationError,
    LatticeDomain,
    ModePreconditionError,
    SopwBasis1D,
    check_shift_perpendicular,
    cpw_energy,
    helmholtz_solve,
    is_shift_orthogonal,
    random_tensor,
    shrink,
    solve_cpw_mode,
    solve_cpw_modes,
    support_fraction,
)
from shiftortho.cpw import _imag_bound
from util import gram_shift, grid_bregman_reference, theta_energy


class TestHelmholtz:
    def test_constant_field(self):
        rhs = np.full(32, 2.5)
        out = helmholtz_solve(rhs, 0.4, 0.6, 8.0)
        assert np.abs(out - 2.5).max() <= 1e-13

    def test_single_cosine_mode(self):
        length, grid_size = 8.0, 64
        x = np.arange(grid_size) * length / grid_size
        rhs = np.cos(2 * math.pi * x / length)
        lam, r = 1.3, 0.7
        out = helmholtz_solve(rhs, lam, r, length)
        expected = rhs / (0.5 * (2 * math.pi / length) ** 2 + lam + r)
        assert np.abs(out - expected).max() <= 1e-13

    def test_operator_reapplication(self):
        rng = np.random.default_rng(0)
        length, grid_size = 4.0, 128
        rhs = rng.standard_normal(grid_size)
        lam, r = 2.0, 3.0
        psi = helmholtz_solve(rhs, lam, r, length)
        modes = np.fft.fftfreq(grid_size, d=1.0 / grid_size)
        eigenvalues = 2.0 * (math.pi * modes / length) ** 2
        reapplied = np.fft.ifft((eigenvalues + lam + r) * np.fft.fft(psi)).real
        assert np.linalg.norm(reapplied - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_singular_operator(self):
        with pytest.raises(ValueError):
            helmholtz_solve(np.zeros(8), 1.0, -1.0, 4.0)


class TestShrink:
    def test_below_threshold_vanishes(self):
        w = np.array([0.3, -0.2, 0.0, 0.49])
        assert np.abs(shrink(w, 0.5)).max() == 0.0

    def test_arithmetic(self):
        assert shrink(np.array([2.0]), 0.5)[0] == 1.5
        assert shrink(np.array([-2.0]), 0.5)[0] == -1.5

    def test_solves_pointwise_prox(self):
        # scalar brute-force grid search over the prox objective
        rng = np.random.default_rng(1)
        threshold = 0.37
        for w in rng.uniform(-3, 3, 12):
            best = shrink(np.array([w]), threshold)[0]
            grid = np.linspace(-abs(w) - 1, abs(w) + 1, 200001)
            objective = threshold * np.abs(grid) + 0.5 * (grid - w) ** 2
            brute = grid[np.argmin(objective)]
            assert abs(best - brute) <= 1e-4
            best_obj = threshold * abs(best) + 0.5 * (best - w) ** 2
            assert best_obj <= objective.min() + 1e-6

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            shrink(np.zeros(4), -0.1)


class TestEnergy:
    def test_zero_field(self):
        assert cpw_energy(np.zeros(64), 2.0, 8.0) == 0.0

    def test_generator_energy_matches_table(self):
        from shiftortho import flatten, synthesize_grid

        basis = SopwBasis1D(8, 4)
        tensor = CoeffTensor.zeros(basis.domain)
        tensor.data[flatten(basis.domain, (1,), (0,))] = 1.0
        samples = synthesize_grid(tensor, 128, basis).real
        energy = cpw_energy(samples, math.inf, 8.0)
        assert abs(energy - theta_energy(basis)) <= 1e-10 * theta_energy(basis)

    def test_grid_refinement(self):
        length = 8.0
        mu = 3.0

        def field(grid_size):
            x = np.arange(grid_size) * length / grid_size
            return 2.0 + np.cos(2 * math.pi * x / length) + 0.3 * np.sin(4 * math.pi * x / length)

        coarse = cpw_energy(field(256), mu, length)
        fine = cpw_energy(field(512), mu, length)
        assert abs(coarse - fine) / abs(fine) <= 1e-8


class TestSolver:
    def test_energy_matches_generator_without_l1(self):
        basis = SopwBasis1D(8, 8)
        cfg = CpwConfig(mu=math.inf, grid_size=256, tol=1e-6, max_iter=4000)
        mode, diag = solve_cpw_mode(None, cfg, basis)
        assert diag.converged
        reference = theta_energy(basis)
        energy = cpw_energy(mode.samples, math.inf, 8.0)
        assert abs(energy - reference) / reference <= 1e-4

    def test_modes_feasible_and_perpendicular(self):
        basis = SopwBasis1D(8, 6)
        cfg = CpwConfig(grid_size=128, tol=1e-6, max_iter=6000)
        mode_set, diagnostics = solve_cpw_modes(2, cfg, basis)
        for diag in diagnostics:
            assert diag.converged
            assert diag.final_violation <= 1e-8
            assert diag.max_imag <= 1e-10
        report = check_shift_perpendicular(
            mode_set.modes[0].coeffs, mode_set.modes[1].coeffs, 1e-8
        )
        assert report.is_perpendicular

    def test_orthogonality_cascade_full_gram(self):
        basis = SopwBasis1D(8, 6)
        cfg = CpwConfig(grid_size=128, tol=1e-6, max_iter=6000)
        mode_set, _ = solve_cpw_modes(3, cfg, basis)
        count = basis.num_shifts
        total = len(mode_set) * count
        gram = np.zeros((total, total), dtype=complex)
        for a, ma in enumerate(mode_set.modes):
            for b, mb in enumerate(mode_set.modes):
                block = gram_shift(ma.coeffs, mb.coeffs)
                gram[a * count : (a + 1) * count, b * count : (b + 1) * count] = block
        assert np.abs(gram - np.eye(total)).max() <= 1e-7

    def test_energy_trend_in_converged_regime(self):
        basis = SopwBasis1D(8, 4)
        cfg = CpwConfig(grid_size=128, tol=1e-8, max_iter=40000)
        _, diagnostics = solve_cpw_modes(2, cfg, basis)
        for diag in diagnostics:
            assert diag.converged
            tail = diag.energy_history[len(diag.energy_history) // 2 :]
            if len(tail) > 1:
                assert float(np.max(np.diff(tail))) <= 1e-6

    def test_support_shrinks_with_stronger_l1(self):
        basis = SopwBasis1D(16, 4)
        supports = []
        for mu in (0.5, 2.0, math.inf):
            cfg = CpwConfig(mu=mu, grid_size=256, tol=1e-6, max_iter=5000)
            mode, diag = solve_cpw_mode(None, cfg, basis)
            assert diag.converged
            supports.append(diag.support_fraction)
        assert supports[0] < supports[1] < supports[2]

    def test_random_init_reaches_same_energy(self):
        basis = SopwBasis1D(8, 4)
        reference = theta_energy(basis)
        cfg = CpwConfig(
            mu=math.inf, grid_size=128, tol=1e-6, max_iter=6000,
            init="random", seed=11,
        )
        mode, diag = solve_cpw_mode(None, cfg, basis)
        assert diag.converged
        energy = cpw_energy(mode.samples, math.inf, 8.0)
        assert abs(energy - reference) / reference <= 1e-4

    def test_infeasible_when_depths_exhausted(self):
        basis = SopwBasis1D(4, 2)
        cfg = CpwConfig(grid_size=32, tol=1e-4, max_iter=500)
        mode_set, _ = solve_cpw_modes(2, cfg, basis)
        with pytest.raises(InfeasibleDeflationError):
            solve_cpw_mode(mode_set, cfg, basis)

    def test_non_convergence_flag(self):
        basis = SopwBasis1D(8, 4)
        cfg = CpwConfig(grid_size=128, tol=1e-12, max_iter=5)
        mode, diag = solve_cpw_mode(None, cfg, basis)
        assert not diag.converged
        assert diag.iterations == 5
        # the returned mode is still exactly feasible
        assert is_shift_orthogonal(mode.coeffs, 1e-8).is_member

    def test_support_fraction_helper(self):
        samples = np.zeros(100)
        samples[10:30] = 1.0
        assert support_fraction(samples) == 0.2
        assert support_fraction(np.zeros(8)) == 0.0


class TestLoopBudget:
    """Cost and bookkeeping of the Bregman loop itself."""

    # One forward FFT of the initial field and one inverse FFT of its
    # projection; in the tail, b_inverse of the coefficients and the
    # membership report's b_transform make one shift-axis FFT each.
    SETUP_FFTS = 4

    @pytest.mark.parametrize("iterations", [3, 11])
    def test_two_ffts_per_iteration(self, monkeypatch, iterations):
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        basis = SopwBasis1D(8, 4)
        prev = CpwModeSet(basis)
        cfg = CpwConfig(grid_size=128, tol=1e-30, max_iter=iterations)
        _, diag = solve_cpw_mode(prev, cfg, basis)
        assert diag.iterations == iterations
        assert len(calls) == 2 * iterations + self.SETUP_FFTS

    @pytest.mark.parametrize("mu", [0.5, math.inf])
    def test_last_energy_is_energy_of_returned_samples(self, mu):
        basis = SopwBasis1D(8, 4)
        cfg = CpwConfig(mu=mu, grid_size=128, tol=1e-30, max_iter=30)
        mode, diag = solve_cpw_mode(None, cfg, basis)
        expected = cpw_energy(mode.samples, mu, float(basis.num_shifts))
        assert abs(diag.energy_history[-1] - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_imag_bound_covers_inverse_fft(self, seed):
        rng = np.random.default_rng(seed)
        band, grid_size = 24, 128
        band_spectrum = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
        spectrum = np.zeros(grid_size, dtype=complex)
        spectrum[np.mod(np.arange(-band, band + 1), grid_size)] = band_spectrum
        actual = np.abs(np.fft.ifft(spectrum).imag).max()
        assert actual <= _imag_bound(band_spectrum, grid_size) * (1 + 1e-12)

    def test_imag_bound_vanishes_on_hermitian_spectra(self):
        rng = np.random.default_rng(5)
        half = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        band_spectrum = np.concatenate([half[::-1].conj(), [0.7], half])
        assert _imag_bound(band_spectrum, 64) == 0.0


class TestAgainstGridReference:
    """The bucket-coordinate loop against the tensor round trip it replaced."""

    @pytest.mark.parametrize("prior_modes", [0, 1])
    def test_fifty_iterations(self, prior_modes):
        basis = SopwBasis1D(8, 4)
        prev = CpwModeSet(basis)
        if prior_modes:
            first, _ = solve_cpw_mode(None, CpwConfig(grid_size=128), basis)
            prev.add(first)
        cfg = CpwConfig(grid_size=128, tol=1e-30, max_iter=50)
        mode, diag = solve_cpw_mode(prev, cfg, basis)
        coeffs, samples, energies = grid_bregman_reference(prev, cfg, basis)
        assert diag.iterations == 50
        assert np.abs(mode.samples - samples).max() <= 1e-10
        assert np.abs(mode.coeffs.data - coeffs.data).max() <= 1e-10
        assert np.all(np.abs(diag.energy_history - energies) <= 1e-12 * np.abs(energies))


class TestConfigAndModeSet:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CpwConfig(mu=0.0)
        with pytest.raises(ValueError):
            CpwConfig(lam=-1.0)
        with pytest.raises(ValueError):
            CpwConfig(tol=0.0)
        with pytest.raises(ValueError):
            CpwConfig(init="bump")

    def test_grid_size_checked_against_basis(self):
        basis = SopwBasis1D(8, 4)
        with pytest.raises(AliasingError):
            solve_cpw_mode(None, CpwConfig(grid_size=16), basis)

    def test_mode_set_rejects_non_member(self):
        basis = SopwBasis1D(4, 2)
        rng = np.random.default_rng(2)
        bogus = CpwMode(random_tensor(basis.domain, rng), np.zeros(32))
        mode_set = CpwModeSet(basis)
        with pytest.raises(ModePreconditionError):
            mode_set.add(bogus)

    def test_mode_set_rejects_overlapping_mode(self):
        from shiftortho import project_sso

        basis = SopwBasis1D(4, 2)
        rng = np.random.default_rng(3)
        member = project_sso(random_tensor(basis.domain, rng))
        mode_set = CpwModeSet(basis)
        mode_set.add(CpwMode(member, np.zeros(32)))
        with pytest.raises(ModePreconditionError):
            mode_set.add(CpwMode(member.copy(), np.zeros(32)))

    def test_mode_set_rejects_foreign_domain(self):
        from shiftortho import project_sso

        basis = SopwBasis1D(4, 2)
        rng = np.random.default_rng(4)
        foreign = project_sso(random_tensor(LatticeDomain((6,), (2,)), rng))
        assert is_shift_orthogonal(foreign).is_member
        mode_set = CpwModeSet(basis)
        with pytest.raises(DomainMismatchError):
            mode_set.add(CpwMode(foreign, np.zeros(32)))
        assert len(mode_set) == 0

    def test_one_transform_per_insertion(self, monkeypatch):
        from shiftortho import project_sso, project_sso_orth, projection

        basis = SopwBasis1D(4, 2)
        rng = np.random.default_rng(5)
        first = project_sso(random_tensor(basis.domain, rng))
        second = project_sso_orth(random_tensor(basis.domain, rng), [first])
        calls = []
        original = projection.b_transform

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(projection, "b_transform", counted)
        mode_set = CpwModeSet(basis)
        for inserted, mode in enumerate((first, second), start=1):
            mode_set.add(CpwMode(mode, np.zeros(32)))
            assert len(calls) == inserted
