import math
import tracemalloc
from dataclasses import replace

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
    cpw,
    cpw_energy,
    helmholtz_solve,
    is_shift_orthogonal,
    project_sso,
    project_sso_orth,
    random_tensor,
    shrink,
    solve_cpw_mode,
    solve_cpw_modes,
    support_fraction,
)
from shiftortho.cpw import _energy, _fused_blocks, _fused_project, _imag_bound, _kinetic_symbol
from shiftortho.projection import DEFAULT_CONFIG, ProjectionConfig, normalize_columns
from shiftortho.sopw import analyze_spectrum, band_map, synthesize_spectrum
from util import gram_shift, grid_bregman_reference, theta_energy

# Periods that no grid has: ``helmholtz_solve`` and ``cpw_energy`` reject them.
BAD_LENGTHS = [-8.0, 0.0, -math.inf, math.inf, math.nan]


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to record each call; returns the list of records."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def normalize_oracle(source, bands, mode_columns):
    """Analyze, the kernel's normalize on a contiguous copy, synthesize.

    Returns the projected band spectrum, the unit columns and the squared
    analysis residual.
    """
    columns, squared = analyze_spectrum(source, bands)
    unit = np.ascontiguousarray(columns)
    normalize_columns(unit, mode_columns=mode_columns)
    return synthesize_spectrum(unit, bands), unit, squared


def fused_project(source, bands, mode_columns, eps):
    """:func:`_fused_project` on fresh blocks: band spectrum, norms, residual, blocks."""
    fused = _fused_blocks(bands, mode_columns)
    band = np.empty(bands.slots.size, dtype=np.complex128)
    norms, squared = _fused_project(source, bands, fused, eps, mode_columns, band)
    return band, norms, squared, fused


def folded_map(bands, mode_columns):
    """``bands`` with the analysis rows of the fused blocks, deflated by the modes."""
    analysis = _fused_blocks(bands, mode_columns)[0][:, : bands.synthesis.shape[2] + 1]
    return replace(bands, analysis=analysis)


def assert_band_limited(samples, basis):
    """The samples' grid FFT vanishes, to rounding, off the band slots."""
    spectrum = np.abs(np.fft.fft(samples))
    off_band = np.ones(samples.shape[0], dtype=bool)
    off_band[band_map(basis, samples.shape[0]).slots] = False
    assert spectrum[off_band].max() <= 1e-12 * spectrum.max()


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

    # Unchecked, a NaN penalty gives NaN samples and an infinite sum zeros.
    @pytest.mark.parametrize("lam,r", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                       (1.0, math.inf), (math.inf, -math.inf)])
    def test_rejects_non_finite_penalties(self, lam, r):
        with pytest.raises(ValueError, match="lam \\+ r"):
            helmholtz_solve(np.ones(8), lam, r, 8.0)

    # Unchecked, a zero or NaN length gives NaN samples and a negative one a result.
    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_rejects_bad_length(self, length):
        with pytest.raises(ValueError, match="length"):
            helmholtz_solve(np.ones(8), 1.0, 1.0, length)


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
        with pytest.raises(ValueError):
            shrink(np.zeros(4), -0.1, out=np.empty(4))

    # A NaN threshold fails every comparison, so a sign test alone lets it through.
    @pytest.mark.parametrize("out", [None, np.empty(4)], ids=["fresh", "out"])
    def test_rejects_nan_threshold(self, out):
        with pytest.raises(ValueError, match="threshold"):
            shrink(np.zeros(4), math.nan, out=out)

    @pytest.mark.parametrize("threshold", [0.0, 0.37])
    def test_out_buffer_bitwise_equal(self, threshold):
        w = np.random.default_rng(2).uniform(-1, 1, 64)
        expected = shrink(w, threshold)
        buffer = np.full(64, np.nan)
        assert shrink(w, threshold, out=buffer) is buffer
        assert np.array_equal(buffer, expected)
        # In place: the result overwrites w itself.
        assert shrink(w, threshold, out=w) is w
        assert np.array_equal(w, expected)

    @pytest.mark.parametrize("threshold", [0.0, 0.37])
    def test_partially_overlapping_out(self, threshold):
        buffer = np.random.default_rng(3).uniform(-1, 1, 65)
        w, out = buffer[:-1], buffer[1:]
        expected = shrink(w.copy(), threshold)
        assert shrink(w, threshold, out=out) is out
        assert np.array_equal(out, expected)


class TestEnergy:
    def test_zero_field(self):
        assert cpw_energy(np.zeros(64), 2.0, 8.0) == 0.0

    # Unchecked, mu = -1 gives a negative energy, 0 a division by zero, NaN a NaN.
    @pytest.mark.parametrize("mu", [-1.0, 0.0, -math.inf, math.nan])
    def test_rejects_non_positive_mu(self, mu):
        with pytest.raises(ValueError, match="mu"):
            cpw_energy(np.ones(8), mu, 8.0)

    # Unchecked, a negative length gives a negative energy, the others NaN.
    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_rejects_bad_length(self, length):
        with pytest.raises(ValueError, match="length"):
            cpw_energy(np.ones(8), 0.5, length)

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
                calls.append((_name, kwargs.get("out") is not None))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        basis = SopwBasis1D(8, 4)
        prev = CpwModeSet(basis)
        cfg = CpwConfig(grid_size=128, tol=1e-30, max_iter=iterations)
        _, diag = solve_cpw_mode(prev, cfg, basis)
        assert diag.iterations == iterations
        assert len(calls) == 2 * iterations + self.SETUP_FFTS
        # Every call inside the loop (between the two setup calls and the
        # two of the tail) writes into a buffer allocated once per solve.
        loop = calls[2:-2]
        assert [name for name, _ in loop] == ["fft", "ifft"] * iterations
        assert all(has_out for _, has_out in loop)

    @pytest.mark.parametrize("prior_modes", [0, 1])
    def test_healthy_solve_skips_the_kernel_normalize(self, monkeypatch, prior_modes):
        calls = count_calls(monkeypatch, cpw, "normalize_columns")
        basis = SopwBasis1D(8, 4)
        prev = CpwModeSet(basis)
        if prior_modes:
            member = project_sso(random_tensor(basis.domain, np.random.default_rng(7)))
            prev.add(CpwMode(member, np.zeros(128)))
        cfg = CpwConfig(grid_size=128, tol=1e-30, max_iter=11)
        _, diag = solve_cpw_mode(prev, cfg, basis)
        assert diag.iterations == 11
        assert calls == []

    # The projected spectrum is kept on the full grid, zero off the band;
    # 120 points is a grid where the spectra's 1/grid_size scale rounds.
    @pytest.mark.parametrize("prior_modes,grid_size", [(0, 128), (2, 128), (0, 120), (2, 120)],
                             ids=["0", "2", "0-grid120", "2-grid120"])
    def test_samples_are_band_limited(self, prior_modes, grid_size):
        basis = SopwBasis1D(8, 4)
        prev, _ = solve_cpw_modes(prior_modes, CpwConfig(grid_size=grid_size), basis)
        mode, _ = solve_cpw_mode(prev, CpwConfig(grid_size=grid_size, max_iter=200), basis)
        assert_band_limited(mode.samples, basis)

    # Diagnostics are reduced in blocks of 64 iterations: stops before,
    # on and after a block edge, also on a grid that is no power of two.
    @pytest.mark.parametrize("max_iter,grid_size",
                             [(1, 128), (64, 128), (65, 128), (128, 128), (65, 120)],
                             ids=["1", "64", "65", "128", "65-grid120"])
    @pytest.mark.parametrize("mu", [0.5, math.inf])
    def test_last_energy_is_energy_of_returned_samples(self, mu, max_iter, grid_size):
        basis = SopwBasis1D(8, 4)
        cfg = CpwConfig(mu=mu, grid_size=grid_size, tol=1e-30, max_iter=max_iter)
        mode, diag = solve_cpw_mode(None, cfg, basis)
        assert len(diag.energy_history) == max_iter
        expected = cpw_energy(mode.samples, mu, float(basis.num_shifts))
        assert abs(diag.energy_history[-1] - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("mu", [0.5, math.inf])
    def test_row_batched_diagnostics_equal_per_row_calls(self, mu):
        rng = np.random.default_rng(6)
        band, grid_size, rows = 24, 128, 5
        samples = rng.standard_normal((rows, grid_size))
        band_spectra = (rng.standard_normal((rows, 2 * band + 1))
                        + 1j * rng.standard_normal((rows, 2 * band + 1)))
        symbol = _kinetic_symbol(grid_size, 8.0)[np.mod(np.arange(-band, band + 1), grid_size)]
        energies = _energy(samples, band_spectra, symbol, mu, 8.0)
        bounds = _imag_bound(band_spectra)
        for row in range(rows):
            assert energies[row] == _energy(samples[row], band_spectra[row], symbol, mu, 8.0)
            assert bounds[row] == _imag_bound(band_spectra[row])

    def test_returned_samples_are_an_owned_copy(self):
        basis = SopwBasis1D(8, 4)
        cfg = CpwConfig(grid_size=128, tol=1e-30, max_iter=70)
        mode, _ = solve_cpw_mode(None, cfg, basis)
        assert mode.samples.flags.c_contiguous and mode.samples.flags.owndata
        kept = mode.samples.copy()
        solve_cpw_mode(None, CpwConfig(grid_size=128, tol=1e-30, max_iter=40), basis)
        assert np.array_equal(mode.samples, kept)

    def test_memory_does_not_grow_with_max_iter(self):
        # The loop's buffers are fixed; only the histories (a few floats
        # per iteration) may grow.  Rows kept per iteration would add
        # 1800 x (128 complex + 128 real) samples here, about 5.5 MiB.
        basis = SopwBasis1D(8, 4)
        solve_cpw_mode(None, CpwConfig(grid_size=128, max_iter=2), basis)  # fill caches
        peaks = []
        for max_iter in (200, 2000):
            cfg = CpwConfig(grid_size=128, tol=1e-30, max_iter=max_iter)
            tracemalloc.start()
            try:
                _, diag = solve_cpw_mode(None, cfg, basis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert diag.iterations == max_iter
        assert peaks[1] - peaks[0] < 256 * 1024

    @pytest.mark.parametrize("seed", range(4))
    def test_imag_bound_covers_inverse_fft(self, seed):
        rng = np.random.default_rng(seed)
        band, grid_size = 24, 128
        band_spectrum = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
        spectrum = np.zeros(grid_size, dtype=complex)
        spectrum[np.mod(np.arange(-band, band + 1), grid_size)] = band_spectrum
        actual = np.abs(np.fft.ifft(spectrum, norm="forward").imag).max()
        assert actual <= _imag_bound(band_spectrum) * (1 + 1e-12)

    def test_imag_bound_vanishes_on_hermitian_spectra(self):
        rng = np.random.default_rng(5)
        half = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        band_spectrum = np.concatenate([half[::-1].conj(), [0.7], half])
        assert _imag_bound(band_spectrum) == 0.0


class TestUnitColumns:
    """The fused projection's unit columns against the kernel stage it stands in for."""

    basis = SopwBasis1D(16, 8)
    grid_size = 256
    eps = DEFAULT_CONFIG.resolve_eps(basis.depth_cap)

    def mode_columns(self, prior_modes):
        rng = np.random.default_rng(11)
        shape = (self.basis.depth_cap, self.basis.num_shifts)
        modes = []
        for _ in range(prior_modes):
            mode = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            modes.append(mode / np.linalg.norm(mode, axis=0))
        return modes

    def both(self, monkeypatch, seed, scales, prior_modes):
        """The fused projection and the oracle, the stage's calls and the unnormalized columns.

        Column ``j`` of a random spectrum is scaled to ``scales[j]`` times
        eps through the band modes of its class, which it alone reads.
        """
        modes = self.mode_columns(prior_modes)
        bands = band_map(self.basis, self.grid_size)
        folded = folded_map(bands, modes)
        rng = np.random.default_rng(seed)
        source = rng.standard_normal(self.grid_size) + 1j * rng.standard_normal(self.grid_size)
        columns, _ = analyze_spectrum(source, folded)
        mode_class = bands.order // bands.classes.shape[1]
        for j, norm in scales.items():
            source[bands.slots[mode_class == j]] *= norm * self.eps / np.linalg.norm(columns[:, j])
        columns, _ = analyze_spectrum(source, folded)
        expected = normalize_oracle(source, folded, modes)
        calls = count_calls(monkeypatch, cpw, "normalize_columns")
        result = fused_project(source, bands, modes, self.eps)
        return result, expected, len(calls), columns

    @pytest.mark.parametrize("prior_modes", [0, 1])
    def test_fast_path_matches_kernel_stage(self, monkeypatch, prior_modes):
        result, expected, calls, _ = self.both(monkeypatch, 1, {3: 2.0}, prior_modes)
        (band, norms, squared, fused), (expected_band, unit, expected_squared) = result, expected
        assert calls == 0
        assert np.abs(band - expected_band).max() <= 1e-15 * np.abs(expected_band).max()
        # The unit columns, as the solver forms them after its loop.
        assert np.abs(fused[2].T * (1.0 / norms) - unit).max() <= 1e-15
        assert squared == expected_squared

    @pytest.mark.parametrize("scales", [{0: 0.0, 5: 0.5, 9: 2.0}, {5: 0.5, 9: 2.0}])
    @pytest.mark.parametrize("prior_modes", [0, 1])
    def test_fallback_path_bitwise_equals_kernel_stage(self, monkeypatch, prior_modes, scales):
        result, expected, calls, columns = self.both(monkeypatch, 2, scales, prior_modes)
        (band, norms, squared, fused), (expected_band, unit, expected_squared) = result, expected
        assert calls == 1
        assert np.array_equal(band, expected_band)
        assert squared == expected_squared
        # The product's column view holds the unit columns, and the norms are one.
        assert np.array_equal(fused[2].T, unit)
        assert np.array_equal(norms, np.ones(self.basis.num_shifts))
        # The vanishing columns took the fallback, not their own direction.
        assert not np.allclose(unit[:, 5], columns[:, 5] / np.linalg.norm(columns[:, 5]))


class TestDeflationFold:
    """The solver's deflation, folded into the analysis blocks once per solve."""

    basis = SopwBasis1D(8, 4)
    grid_size = 64

    @pytest.fixture(scope="class")
    def modes(self):
        modes, _ = solve_cpw_modes(3, CpwConfig(grid_size=self.grid_size, max_iter=200),
                                   self.basis)
        return modes

    @pytest.mark.parametrize("prior_modes", [1, 2, 3])
    def test_folded_analysis_equals_deflated_analysis(self, modes, prior_modes):
        mode_columns = modes.span.columns[:prior_modes]
        bands = band_map(self.basis, self.grid_size)
        folded = folded_map(bands, mode_columns)
        q = np.stack(mode_columns)
        rng = np.random.default_rng(prior_modes)
        for _ in range(5):
            source = rng.standard_normal(self.grid_size) + 1j * rng.standard_normal(self.grid_size)
            columns, squared = analyze_spectrum(source, bands)
            inners = np.einsum("mdj,dj->mj", q.conj(), columns)
            expected = columns - np.einsum("mdj,mj->dj", q, inners)
            result, folded_squared = analyze_spectrum(source, folded)
            assert np.abs(result - expected).max() <= 1e-15 * np.abs(expected).max()
            assert folded_squared == squared

    @pytest.mark.parametrize("prior_modes", [0, 1, 2, 3])
    def test_fused_block_equals_analyze_normalize_synthesize(self, modes, prior_modes):
        mode_columns = modes.span.columns[:prior_modes]
        bands = band_map(self.basis, self.grid_size)
        folded = folded_map(bands, mode_columns)
        eps = DEFAULT_CONFIG.resolve_eps(self.basis.depth_cap)
        rng = np.random.default_rng(10 + prior_modes)
        for _ in range(5):
            source = rng.standard_normal(self.grid_size) + 1j * rng.standard_normal(self.grid_size)
            expected, unit, squared = normalize_oracle(source, folded, mode_columns)
            band, norms, fused_squared, fused = fused_project(source, bands, mode_columns, eps)
            assert np.abs(band - expected).max() <= 1e-15 * np.abs(expected).max()
            assert fused_squared == squared
            # The product's columns are the analysis columns bit for bit, so
            # a fallback step normalizes exactly what analysis would give.
            columns = fused[1][:, : self.basis.depth_cap, 0].T
            assert np.array_equal(columns, analyze_spectrum(source, folded)[0])
            # The unit columns, as the solver forms them after its loop.
            assert np.abs(columns * (1.0 / norms) - unit).max() <= 1e-15

    def test_fused_block_defers_vanishing_columns(self, modes, monkeypatch):
        bands = band_map(self.basis, self.grid_size)
        # The spectrum of the first mode's samples: its columns are unit,
        # so an eps just above 1 makes every one of them vanish, and the
        # kernel's normalize (whose own eps is far below) scales them.
        source = np.fft.fft(modes.modes[0].samples, norm="forward")
        calls = count_calls(monkeypatch, cpw, "normalize_columns")
        band, norms, squared, _ = fused_project(source, bands, [], 0.999)
        assert calls == []
        assert np.abs(norms - 1.0).max() <= 1e-12
        deferred, unit_norms, deferred_squared, _ = fused_project(source, bands, [], 1.001)
        assert len(calls) == 1
        assert np.array_equal(unit_norms, np.ones(self.basis.num_shifts))
        assert np.abs(deferred - band).max() <= 1e-15 * np.abs(band).max()
        assert deferred_squared == squared

    def test_start_in_prior_span_takes_kernel_fallback(self, modes, monkeypatch):
        prior = CpwModeSet(self.basis)
        prior.add(modes.modes[0])
        # A combination of the first mode and one of its lattice shifts.
        samples = modes.modes[0].samples
        start = 0.7 * samples + 0.3 * np.roll(samples, self.grid_size // self.basis.num_shifts)
        monkeypatch.setattr(cpw, "_initial_field", lambda *args: start)
        calls = count_calls(monkeypatch, cpw, "normalize_columns")
        mode, diag = solve_cpw_mode(prior, CpwConfig(grid_size=self.grid_size, max_iter=50),
                                    self.basis)
        assert calls
        assert diag.final_violation <= 1e-12
        assert_band_limited(mode.samples, self.basis)
        report = check_shift_perpendicular(mode.coeffs, prior.modes[0].coeffs, 1e-12)
        assert report.is_perpendicular
        prior.add(mode)

    @pytest.mark.parametrize("prior_modes", [0, 1])
    def test_every_iteration_on_the_fallback(self, modes, monkeypatch, prior_modes):
        # With a zero-norm threshold above every column's norm, the start
        # and each iteration take the kernel's fallback for every column,
        # so the mode is the projection of a zero tensor.
        config = ProjectionConfig(zero_norm_eps=1e6)
        monkeypatch.setattr(cpw, "DEFAULT_CONFIG", config)
        calls = []

        def normalize(columns, mode_columns=()):
            calls.append(1)
            normalize_columns(columns, config, mode_columns)

        monkeypatch.setattr(cpw, "normalize_columns", normalize)
        prev = CpwModeSet(self.basis)
        if prior_modes:
            prev.add(modes.modes[0])
        cfg = CpwConfig(grid_size=self.grid_size, tol=1e-30, max_iter=20)
        mode, diag = solve_cpw_mode(prev, cfg, self.basis)
        assert diag.iterations == 20
        assert len(calls) == 1 + 20
        zero = CoeffTensor(self.basis.domain, np.zeros(self.basis.domain.size, dtype=complex))
        if prior_modes:
            expected = project_sso_orth(zero, prev.span, config)
        else:
            expected = project_sso(zero, config)
        assert np.array_equal(mode.coeffs.data, expected.data)


class TestAgainstGridReference:
    """The bucket-coordinate loop against the tensor round trip it replaced."""

    @staticmethod
    def run_both(prior_modes, max_iter, grid_size=128):
        basis = SopwBasis1D(8, 4)
        prev, _ = solve_cpw_modes(prior_modes, CpwConfig(grid_size=grid_size), basis)
        cfg = CpwConfig(grid_size=grid_size, tol=1e-30, max_iter=max_iter)
        mode, diag = solve_cpw_mode(prev, cfg, basis)
        coeffs, samples, energies, residuals = grid_bregman_reference(prev, cfg, basis)
        assert diag.iterations == max_iter
        assert np.abs(mode.samples - samples).max() <= 1e-10
        assert np.abs(mode.coeffs.data - coeffs.data).max() <= 1e-10
        assert np.all(np.abs(diag.energy_history - energies) <= 1e-12 * np.abs(energies))
        return diag, residuals

    # 120 points: a grid where the spectra's 1/grid_size scale rounds.
    @pytest.mark.parametrize("prior_modes,grid_size", [(0, 128), (1, 128), (2, 128), (0, 120),
                                                       (1, 120)],
                             ids=["0", "1", "2", "0-grid120", "1-grid120"])
    def test_fifty_iterations(self, prior_modes, grid_size):
        self.run_both(prior_modes, 50, grid_size)

    def test_across_block_edges(self):
        # 130 iterations cross two edges of the loop's 64-iteration
        # diagnostic blocks.  Without prior modes only: with one, the two
        # loops' rounding differences grow by about 12% per iteration
        # (samples 1e-14 apart at 50 iterations, 2e-10 to 8e-10 at 130).
        self.run_both(0, 130)

    @pytest.mark.parametrize("prior_modes,max_iter", [(0, 130), (1, 50)])
    def test_residual_histories(self, prior_modes, max_iter):
        diag, residuals = self.run_both(prior_modes, max_iter)
        loop = np.column_stack([diag.primal_v_history, diag.primal_u_history, diag.dual_history])
        assert np.abs(loop - residuals).max() <= 1e-12


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
        with pytest.raises(ValueError, match="r must"):
            CpwConfig(r=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            CpwConfig(max_iter=0)
        # an infinite penalty makes the Helmholtz weights NaN, and an
        # infinite tol stops after one iteration
        for bad in ({"lam": math.inf}, {"r": math.inf}, {"tol": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                CpwConfig(**bad)

    @pytest.mark.parametrize("field,bad", [
        ("max_iter", 3.5), ("max_iter", True), ("max_iter", "5"),
        ("grid_size", 64.0), ("grid_size", np.float64(64)), ("seed", 1.5), ("seed", False),
    ])
    def test_non_integer_counts_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CpwConfig(init="random", **{field: bad})

    def test_numpy_integer_counts_accepted(self):
        basis = SopwBasis1D(8, 4)
        cfg = CpwConfig(max_iter=np.int64(3), grid_size=np.int32(64), seed=np.uint8(2),
                        init="random")
        _, diag = solve_cpw_mode(None, cfg, basis)
        assert diag.iterations == 3

    def test_default_grid_size_resolves_from_basis(self):
        basis = SopwBasis1D(8, 4)
        assert CpwConfig().grid_size is None
        assert CpwConfig().resolve(basis)[3] == basis.default_grid() == 64
        assert CpwConfig(grid_size=100).resolve(basis)[3] == 100

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
        basis = SopwBasis1D(4, 2)
        rng = np.random.default_rng(3)
        member = project_sso(random_tensor(basis.domain, rng))
        mode_set = CpwModeSet(basis)
        mode_set.add(CpwMode(member, np.zeros(32)))
        with pytest.raises(ModePreconditionError):
            mode_set.add(CpwMode(member.copy(), np.zeros(32)))

    def test_mode_set_rejects_foreign_domain(self):
        basis = SopwBasis1D(4, 2)
        rng = np.random.default_rng(4)
        foreign = project_sso(random_tensor(LatticeDomain((6,), (2,)), rng))
        assert is_shift_orthogonal(foreign).is_member
        mode_set = CpwModeSet(basis)
        with pytest.raises(DomainMismatchError):
            mode_set.add(CpwMode(foreign, np.zeros(32)))
        assert len(mode_set) == 0

    def test_solve_rejects_mode_set_of_another_basis(self):
        other = SopwBasis1D(8, 4)
        member = project_sso(random_tensor(other.domain, np.random.default_rng(8)))
        prev = CpwModeSet(other)
        prev.add(CpwMode(member, np.zeros(128)))
        with pytest.raises(DomainMismatchError):
            solve_cpw_mode(prev, CpwConfig(grid_size=128), SopwBasis1D(8, 6))

    def test_solve_rejects_empty_mode_set_of_another_basis(self, monkeypatch):
        calls = count_calls(monkeypatch, np.fft, "fft")
        with pytest.raises(DomainMismatchError):
            solve_cpw_mode(CpwModeSet(SopwBasis1D(8, 4)), CpwConfig(grid_size=128, max_iter=5),
                           SopwBasis1D(8, 6))
        assert calls == []

    def test_one_transform_per_insertion(self, monkeypatch):
        from shiftortho import project_sso_orth, projection

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
