import cmath
import math

import numpy as np
import pytest

from shiftortho import (
    AliasingError,
    CoeffTensor,
    SopwBasis1D,
    analyze_grid,
    b_inverse,
    b_transform,
    eval_closed_form,
    first_derivative_stencil,
    flatten,
    project_sso,
    random_tensor,
    second_derivative_stencil,
    shell_moment_sums,
    sopw_fourier_coeffs,
    synthesize_grid,
    verify_variational_certificate,
)
from shiftortho.sopw import _band_tables
from util import (
    direct_b_inverse,
    direct_b_transform,
    gather_columns,
    scatter_columns,
    sopw_analysis_rows,
    sopw_derivative_samples,
    sopw_fourier_vector,
    sopw_point_sum,
    theta_energy,
)


def delta_tensor(basis, k, j):
    tensor = CoeffTensor.zeros(basis.domain)
    tensor.data[flatten(basis.domain, (k,), (j,))] = 1.0
    return tensor


def expand(coeffs, basis):
    """Basis tensor of band Fourier coefficients, and the above-cap residual."""
    columns, residual = gather_columns(coeffs, basis)
    return b_inverse(CoeffTensor(basis.domain, columns)), residual


def band_coeffs(tensor, basis):
    """Band Fourier coefficients of a basis tensor."""
    return scatter_columns(b_transform(tensor).columns, basis)


class TestBasisConstruction:
    def test_odd_shift_count_rejected(self):
        with pytest.raises(ValueError):
            SopwBasis1D(7, 3)
        with pytest.raises(ValueError):
            SopwBasis1D(1, 3)

    @pytest.mark.parametrize("num_shifts,depth_cap,field", [
        (16.7, 8, "num_shifts"), (16.0, 8, "num_shifts"), ("4", 2, "num_shifts"),
        (True, 2, "num_shifts"), (16, 2.9, "depth_cap"), (16, True, "depth_cap"),
    ])
    def test_non_integer_sizes_rejected(self, num_shifts, depth_cap, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SopwBasis1D(num_shifts, depth_cap)

    def test_numpy_integer_sizes_accepted(self):
        basis = SopwBasis1D(np.int64(16), np.uint8(8))
        assert basis == SopwBasis1D(16, 8)
        assert type(basis.num_shifts) is int and type(basis.depth_cap) is int

    def test_element_indices_checked(self):
        basis = SopwBasis1D(8, 3)
        assert sopw_fourier_coeffs(4, 0, basis)  # the shell above the cap is tabulated
        for call in (
            lambda: sopw_fourier_coeffs(5, 0, basis),  # above depth_cap + 1
            lambda: sopw_fourier_coeffs(0, 0, basis),
            lambda: eval_closed_form(0, 0, 0.5, basis),
            lambda: eval_closed_form(1, 8, 0.5, basis),
            lambda: first_derivative_stencil(1, -1, basis),
            lambda: shell_moment_sums(2, 8, basis),
        ):
            with pytest.raises(ValueError):
                call()

    ELEMENT_FUNCTIONS = {
        "fourier_coeffs": sopw_fourier_coeffs,
        "closed_form": lambda k, j, basis: eval_closed_form(k, j, 0.3, basis),
        "first_derivative": first_derivative_stencil,
        "second_derivative": second_derivative_stencil,
        "moment_sums": shell_moment_sums,
    }

    @pytest.mark.parametrize("name", ELEMENT_FUNCTIONS)
    @pytest.mark.parametrize("k,j,field", [
        (1.5, 0, "depth"), (2.0, 0, "depth"), (True, 0, "depth"), ("2", 0, "depth"),
        (2, 1.5, "shift"), (2, 1.0, "shift"), (2, False, "shift"),
    ])
    def test_non_integer_element_indices_rejected(self, name, k, j, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            self.ELEMENT_FUNCTIONS[name](k, j, SopwBasis1D(8, 3))

    @pytest.mark.parametrize("name", ELEMENT_FUNCTIONS)
    def test_numpy_integer_element_indices_accepted(self, name):
        basis = SopwBasis1D(8, 3)
        function = self.ELEMENT_FUNCTIONS[name]
        # repr compares the stencils' arrays and would show a numpy depth.
        assert repr(function(np.int64(2), np.uint8(1), basis)) == repr(function(2, 1, basis))

    def test_coeff_example_depth1(self):
        basis = SopwBasis1D(2, 2)
        table = dict(sopw_fourier_coeffs(1, 0, basis))
        assert table.keys() == {-1, 0, 1}
        assert abs(table[0] - 1 / math.sqrt(2)) <= 1e-15
        assert abs(table[1] - 0.5) <= 1e-15
        assert abs(table[-1] - 0.5) <= 1e-15

    def test_coeff_example_depth2(self):
        basis = SopwBasis1D(2, 2)
        table = dict(sopw_fourier_coeffs(2, 0, basis))
        assert table.keys() == {-2, -1, 1, 2}
        assert abs(table[1] - 0.5j) <= 1e-15
        assert abs(table[-1] + 0.5j) <= 1e-15
        assert abs(table[2] - 0.5j) <= 1e-15
        assert abs(table[-2] + 0.5j) <= 1e-15

    def test_shift_is_modulation(self):
        basis = SopwBasis1D(6, 4)
        for k in (1, 2, 3):
            base = dict(sopw_fourier_coeffs(k, 0, basis))
            for j in range(6):
                shifted = dict(sopw_fourier_coeffs(k, j, basis))
                for n, c in base.items():
                    phase = cmath.exp(-2j * math.pi * j * n / 6)
                    assert shifted[n] == phase * c

    @pytest.mark.parametrize("num_shifts", [2, 4, 8])
    def test_orthonormality(self, num_shifts):
        depth_cap = 6
        basis = SopwBasis1D(num_shifts, depth_cap)
        band = (depth_cap + 1) * num_shifts // 2
        vectors = [
            sopw_fourier_vector(k, j, basis, band)
            for k in range(1, depth_cap + 1)
            for j in range(num_shifts)
        ]
        matrix = np.array(vectors)
        gram = matrix.conj() @ matrix.T
        assert np.abs(gram - np.eye(len(vectors))).max() <= 1e-12

    def test_roots_of_unity_identity(self):
        for num_shifts in (2, 4, 6, 8, 12, 16):
            for j in range(num_shifts):
                for start in range(0, 3 * num_shifts + 1, max(1, num_shifts // 2)):
                    total = sum(
                        cmath.exp(2j * math.pi * j * n / num_shifts)
                        for n in range(start, start + num_shifts)
                    ) / num_shifts
                    expected = 1.0 if j == 0 else 0.0
                    assert abs(total - expected) <= 1e-12


class TestFourierConversion:
    """Band coefficient arrays (modes ``-band_limit..band_limit``) and basis tensors."""

    def test_basis_element_reproduction(self):
        basis = SopwBasis1D(4, 3)
        coeffs = np.zeros(2 * basis.band_limit + 1, dtype=complex)
        for n, c in sopw_fourier_coeffs(1, 0, basis):
            coeffs[n + basis.band_limit] = c
        tensor, residual = expand(coeffs, basis)
        expected = delta_tensor(basis, 1, 0)
        assert np.abs(tensor.data - expected.data).max() <= 1e-12
        assert residual <= 1e-12

    def test_constant_mode_spreads_over_shifts(self):
        basis = SopwBasis1D(4, 2)
        coeffs = np.zeros(2 * basis.band_limit + 1, dtype=complex)
        coeffs[basis.band_limit] = 1.0
        tensor, residual = expand(coeffs, basis)
        assert np.allclose(tensor.grid[0], 1 / math.sqrt(4))
        assert np.abs(tensor.grid[1]).max() <= 1e-15
        assert residual <= 1e-15

    def test_round_trip_inside_band(self):
        rng = np.random.default_rng(0)
        basis = SopwBasis1D(6, 4)
        band = basis.band_limit
        coeffs = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
        # strictly inside the band: the cap edges stay empty
        coeffs[0] = coeffs[-1] = 0.0
        tensor, residual = expand(coeffs, basis)
        assert residual <= 1e-12
        back = band_coeffs(tensor, basis)
        assert np.abs(back - coeffs).max() <= 1e-12

    def test_cap_edge_goes_to_residual(self):
        basis = SopwBasis1D(4, 2)
        coeffs = np.zeros(2 * basis.band_limit + 1, dtype=complex)
        coeffs[-1] = 1.0  # mode +band_limit
        tensor, residual = expand(coeffs, basis)
        # edge weight splits evenly between the cap shell and the one above
        assert abs(residual - 1 / math.sqrt(2)) <= 1e-12
        assert abs(np.linalg.norm(tensor.data) - 1 / math.sqrt(2)) <= 1e-12

    def test_tensor_round_trip(self):
        rng = np.random.default_rng(1)
        basis = SopwBasis1D(8, 3)
        t = random_tensor(basis.domain, rng)
        back, residual = expand(band_coeffs(t, basis), basis)
        assert np.abs(back.data - t.data).max() <= 1e-12
        assert residual <= 1e-12

    def test_zero_tensor(self):
        basis = SopwBasis1D(4, 2)
        coeffs = band_coeffs(CoeffTensor.zeros(basis.domain), basis)
        assert np.abs(coeffs).max() == 0.0

    def test_delta_matches_sparse_table(self):
        basis = SopwBasis1D(6, 3)
        coeffs = band_coeffs(delta_tensor(basis, 2, 1), basis)
        expected = sopw_fourier_vector(2, 1, basis, basis.band_limit)
        assert np.abs(coeffs - expected).max() <= 1e-14


GATHER_SIZES = [(2, 1), (4, 3), (8, 4), (16, 8)]


class TestBandBlocks:
    """The per-class blocks of the band-coefficient map."""

    @pytest.mark.parametrize("depth_cap", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("num_shifts", [2, 4, 6, 8, 16])
    def test_analysis_is_scaled_adjoint_of_synthesis(self, num_shifts, depth_cap):
        bands = _band_tables(SopwBasis1D(num_shifts, depth_cap))
        adjoint = num_shifts * np.conj(bands.synthesis.transpose(0, 2, 1))
        assert np.array_equal(bands.analysis[:, :-1], adjoint)

    @pytest.mark.parametrize("depth_cap", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("num_shifts", [2, 4, 6, 8, 16])
    def test_classes_hold_each_mode_once(self, num_shifts, depth_cap):
        basis = SopwBasis1D(num_shifts, depth_cap)
        bands = _band_tables(basis)
        band = basis.band_limit
        assert bands.classes.shape == (num_shifts, depth_cap + 1)
        assert np.array_equal(bands.classes.reshape(-1)[bands.order], np.arange(2 * band + 1))
        modes = bands.classes - band
        # Class j holds the modes n = -j mod L in increasing order ...
        padded = np.ones(bands.classes.shape, dtype=bool)
        padded.reshape(-1)[bands.order] = False
        assert np.all((modes + np.arange(num_shifts)[:, None]) % num_shifts == 0, where=~padded)
        assert np.all(np.diff(modes, axis=1) == num_shifts, where=~padded[:, 1:])
        # ... and only the one of the edge modes has no pad entry.
        assert padded.sum() == num_shifts - 1 and not padded[:, :-1].any()
        assert not bands.analysis.transpose(0, 2, 1)[padded].any()
        assert not bands.synthesis[padded].any()


class TestColumnGatherScatter:
    """Band Fourier coefficients grouped by residue class are transform columns."""

    @staticmethod
    def random_band(basis, seed):
        rng = np.random.default_rng(seed)
        size = 2 * basis.band_limit + 1
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    @pytest.mark.parametrize("num_shifts,depth_cap", GATHER_SIZES)
    def test_gather_against_sparse_table(self, num_shifts, depth_cap):
        basis = SopwBasis1D(num_shifts, depth_cap)
        coeffs = self.random_band(basis, 7 * num_shifts + depth_cap)
        columns, residual = gather_columns(coeffs, basis)
        assert columns.shape == (depth_cap, num_shifts)
        rows = sopw_analysis_rows(coeffs, basis)
        expected = direct_b_transform(CoeffTensor(basis.domain, rows[:-1].reshape(-1)))
        assert np.abs(columns.reshape(-1) - expected).max() <= 1e-12
        assert abs(residual - np.linalg.norm(rows[-1])) <= 1e-12

    @pytest.mark.parametrize("num_shifts,depth_cap", GATHER_SIZES)
    def test_scatter_equals_synthesis(self, num_shifts, depth_cap):
        basis = SopwBasis1D(num_shifts, depth_cap)
        rng = np.random.default_rng(num_shifts * depth_cap)
        columns = (rng.standard_normal((depth_cap, num_shifts))
                   + 1j * rng.standard_normal((depth_cap, num_shifts)))
        coeffs = scatter_columns(columns, basis)
        tensor = CoeffTensor(basis.domain, columns.reshape(-1))
        expected = band_coeffs(b_inverse(tensor), basis)
        assert np.abs(coeffs - expected).max() <= 1e-12
        band = basis.band_limit
        direct = direct_b_inverse(tensor).reshape(depth_cap, num_shifts)
        superposed = sum(
            direct[k - 1, ell] * sopw_fourier_vector(k, ell, basis, band)
            for k in range(1, depth_cap + 1)
            for ell in range(num_shifts)
        )
        assert np.abs(coeffs - superposed).max() <= 1e-12

    def test_shapes_checked(self):
        basis = SopwBasis1D(4, 2)
        with pytest.raises(ValueError):
            gather_columns(np.zeros(2 * basis.band_limit), basis)
        with pytest.raises(ValueError):
            scatter_columns(np.zeros((2, 5)), basis)

    @pytest.mark.parametrize("num_shifts,depth_cap", GATHER_SIZES)
    def test_scatter_inverts_gather_inside_cap(self, num_shifts, depth_cap):
        basis = SopwBasis1D(num_shifts, depth_cap)
        coeffs = self.random_band(basis, 3)
        coeffs[0] = coeffs[-1] = 0.0  # cap edges are shared with the shell above
        columns, residual = gather_columns(coeffs, basis)
        assert residual <= 1e-12
        assert np.abs(scatter_columns(columns, basis) - coeffs).max() <= 1e-12


class TestClosedForm:
    @pytest.mark.parametrize("num_shifts", [4, 8])
    def test_matches_fourier_summation(self, num_shifts):
        rng = np.random.default_rng(2)
        basis = SopwBasis1D(num_shifts, 7)
        xs = rng.uniform(0.0, num_shifts, 1000)
        worst = 0.0
        for k in range(1, 7):
            for j in (0, num_shifts // 2):
                for x in xs[::7]:
                    direct = sopw_point_sum(k, j, float(x), basis)
                    assert abs(direct.imag) <= 1e-12
                    worst = max(
                        worst,
                        abs(eval_closed_form(k, j, float(x), basis) - direct.real),
                    )
        assert worst <= 1e-10

    def test_shift_relation(self):
        basis = SopwBasis1D(8, 4)
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            for j in (1, 5):
                for x in rng.uniform(0, 8, 20):
                    assert abs(
                        eval_closed_form(k, j, float(x), basis)
                        - eval_closed_form(k, 0, float(x - j), basis)
                    ) <= 1e-12

    def test_singular_points(self):
        for num_shifts in (4, 8):
            basis = SopwBasis1D(num_shifts, 6)
            for k in range(1, 6):
                for x in (0.0, 0.0 + 1e-12, float(num_shifts) - 1e-12, 3.0):
                    value = eval_closed_form(k, 0, x, basis)
                    direct = sopw_point_sum(k, 0, x, basis).real
                    assert abs(value - direct) <= 1e-10

    def test_depth1_peak_value(self):
        basis = SopwBasis1D(8, 2)
        expected = (8 - 1) / 8 + math.sqrt(2) / 8
        assert abs(eval_closed_form(1, 0, 0.0, basis) - expected) <= 1e-12


class TestGridTransforms:
    def test_synthesis_domain_mismatch(self):
        basis = SopwBasis1D(8, 2)
        with pytest.raises(ValueError, match="domain"):
            synthesize_grid(CoeffTensor.zeros(SopwBasis1D(8, 3).domain), 64, basis)

    def test_synthesis_matches_closed_form(self):
        basis = SopwBasis1D(8, 1)
        samples = synthesize_grid(delta_tensor(basis, 1, 4), 64, basis)
        assert np.abs(samples.imag).max() <= 1e-13
        xs = np.arange(64) * 8 / 64
        expected = [eval_closed_form(1, 4, float(x), basis) for x in xs]
        assert np.abs(samples.real - expected).max() <= 1e-10

    def test_zero_synthesis(self):
        basis = SopwBasis1D(4, 2)
        samples = synthesize_grid(CoeffTensor.zeros(basis.domain), 32, basis)
        assert np.abs(samples).max() == 0.0

    def test_quadrature_orthogonality(self):
        basis = SopwBasis1D(8, 2)
        grid_size = 256
        f = synthesize_grid(delta_tensor(basis, 1, 0), grid_size, basis)
        g = synthesize_grid(delta_tensor(basis, 2, 0), grid_size, basis)
        weight = 8 / grid_size
        inner = weight * np.vdot(f, g)
        assert abs(inner) <= 1e-10
        assert abs(weight * np.vdot(f, f) - 1.0) <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        basis = SopwBasis1D(6, 3)
        t = random_tensor(basis.domain, rng)
        samples = synthesize_grid(t, 64, basis)
        back, residual = analyze_grid(samples, basis)
        assert np.abs(back.data - t.data).max() <= 1e-10
        assert residual <= 1e-10

    def test_aliasing_witness(self):
        basis = SopwBasis1D(4, 2)
        grid_size = 2 * 4 * 2  # default oversampling
        above_band = basis.band_limit * 2
        x = np.arange(grid_size) * 4 / grid_size
        samples = np.exp(2j * math.pi * above_band * x / 4) / math.sqrt(4)
        tensor, residual = analyze_grid(samples, basis)
        assert abs(residual - 1.0) <= 1e-12
        assert np.abs(tensor.data).max() <= 1e-12

    @pytest.mark.parametrize(
        "num_shifts,depth_cap,grid_size",
        # the last two sit at 2 * band + 1, where no grid mode is off the band
        [(4, 2, 32), (8, 4, 81), (16, 8, 512), (4, 2, 9), (8, 4, 33)],
    )
    def test_residual_of_field_beyond_band(self, num_shifts, depth_cap, grid_size):
        basis = SopwBasis1D(num_shifts, depth_cap)
        band = basis.band_limit
        rng = np.random.default_rng(grid_size)
        samples = rng.standard_normal(grid_size)
        tensor, residual = analyze_grid(samples, basis)
        spectrum = np.fft.fft(samples) / grid_size
        positions = np.arange(-band, band + 1) % grid_size
        in_band = np.zeros(grid_size, dtype=bool)
        in_band[positions] = True
        coeffs = math.sqrt(num_shifts) * spectrum[positions]
        rows = sopw_analysis_rows(coeffs, basis)
        expected = math.sqrt(
            num_shifts * np.sum(np.abs(spectrum[~in_band]) ** 2)
            + np.linalg.norm(rows[-1]) ** 2
        )
        assert abs(residual - expected) <= 1e-12
        direct = direct_b_transform(CoeffTensor(basis.domain, rows[:-1].reshape(-1)))
        assert np.abs(b_transform(tensor).data - direct).max() <= 1e-12

    def test_zero_analysis(self):
        basis = SopwBasis1D(4, 2)
        tensor, residual = analyze_grid(np.zeros(32), basis)
        assert np.abs(tensor.data).max() == 0.0
        assert residual == 0.0

    def test_grid_too_small(self):
        basis = SopwBasis1D(4, 2)
        with pytest.raises(AliasingError):
            synthesize_grid(CoeffTensor.zeros(basis.domain), 8, basis)
        with pytest.raises(AliasingError):
            analyze_grid(np.zeros(8), basis)


class TestDerivatives:
    def test_stencil_past_the_cap_rejected(self):
        basis = SopwBasis1D(8, 3)
        with pytest.raises(ValueError, match="reaches depth 4"):
            first_derivative_stencil(3, 0, basis).to_coeff_tensor(basis)
        # The second derivative stays in its own shell, so the top shell fits.
        assert second_derivative_stencil(3, 0, basis).to_coeff_tensor(basis).domain == basis.domain

    def test_first_same_shell_center_zero(self):
        basis = SopwBasis1D(8, 3)
        stencil = first_derivative_stencil(2, 3, basis)
        assert stencil.coeffs_same[3] == 0.0

    def test_first_depth1_has_no_lower_shell(self):
        basis = SopwBasis1D(8, 3)
        stencil = first_derivative_stencil(1, 0, basis)
        assert np.abs(stencil.coeffs_prev).max() == 0.0

    @pytest.mark.parametrize("num_shifts", [4, 8])
    def test_first_matches_spectral(self, num_shifts):
        basis = SopwBasis1D(num_shifts, 7)
        grid_size = 2 * basis.depth_cap * num_shifts
        for k in range(1, 6):
            for ell in (0, 1):
                stencil = first_derivative_stencil(k, ell, basis)
                approx = synthesize_grid(stencil.to_coeff_tensor(basis), grid_size, basis)
                exact = sopw_derivative_samples(k, ell, basis, grid_size, 1)
                assert np.abs(approx - exact).max() <= 1e-9

    def test_first_tri_shell_confinement(self):
        basis = SopwBasis1D(8, 7)
        grid_size = 2 * basis.depth_cap * 8
        for k in (2, 3, 4):
            exact = sopw_derivative_samples(k, 0, basis, grid_size, 1)
            tensor, residual = analyze_grid(exact, basis)
            rows = tensor.grid.copy()
            rows[k - 2 : k + 1] = 0.0
            assert np.abs(rows).max() <= 1e-10
            assert residual <= 1e-10

    def test_second_center_value(self):
        basis = SopwBasis1D(4, 2)
        stencil = second_derivative_stencil(1, 0, basis)
        expected = -((math.pi / 4) ** 2) * 6.0  # (1/3)*16 + 2/3 = 6 at the center
        assert abs(stencil.coeffs_same[0] - expected) <= 1e-13

    @pytest.mark.parametrize("num_shifts", [4, 8])
    def test_second_matches_spectral(self, num_shifts):
        basis = SopwBasis1D(num_shifts, 7)
        grid_size = 2 * basis.depth_cap * num_shifts
        for k in range(1, 6):
            for ell in (0, 2):
                stencil = second_derivative_stencil(k, ell, basis)
                assert np.abs(stencil.coeffs_prev).max() == 0.0
                assert np.abs(stencil.coeffs_next).max() == 0.0
                approx = synthesize_grid(stencil.to_coeff_tensor(basis), grid_size, basis)
                exact = sopw_derivative_samples(k, ell, basis, grid_size, 2)
                assert np.abs(approx - exact).max() <= 1e-9

    def test_second_stays_in_own_shell(self):
        basis = SopwBasis1D(8, 7)
        grid_size = 2 * basis.depth_cap * 8
        for k in (1, 2, 3, 5):
            exact = sopw_derivative_samples(k, 0, basis, grid_size, 2)
            tensor, residual = analyze_grid(exact, basis)
            rows = tensor.grid.copy()
            rows[k - 1] = 0.0
            assert np.abs(rows).max() <= 1e-10
            assert residual <= 1e-10


class TestShellMomentSums:
    def test_empty_range(self):
        basis = SopwBasis1D(2, 2)
        for j in (0, 1):
            s1, s2 = shell_moment_sums(1, j, basis)
            assert abs(s1) <= 1e-12 and abs(s2) <= 1e-12

    def test_stated_value(self):
        basis = SopwBasis1D(4, 2)
        _, s2 = shell_moment_sums(2, 0, basis)
        assert abs(s2 - 18.0) <= 1e-12

    @pytest.mark.parametrize("num_shifts", [4, 8])
    def test_matches_direct_summation(self, num_shifts):
        basis = SopwBasis1D(num_shifts, 6)
        half = num_shifts // 2
        for k in range(1, 6):
            for j in range(num_shifts):
                omega = cmath.exp(2j * math.pi * j / num_shifts)
                modes = [
                    n
                    for n in range(-(k * half) + 1, k * half)
                    if abs(n) > (k - 1) * half
                ]
                direct1 = sum(n * omega**n for n in modes)
                direct2 = sum(n * n * omega**n for n in modes)
                s1, s2 = shell_moment_sums(k, j, basis)
                assert abs(s1 - direct1) <= 1e-10
                assert abs(s2 - direct2) <= 1e-10


class TestCertificate:
    def test_all_checks_pass(self):
        report = verify_variational_certificate(SopwBasis1D(4, 1), tail_periods=10)
        assert report.all_passed
        assert report.primal_residual <= 1e-12
        assert report.dual_min_slack >= -1e-10
        assert report.complementary_slackness <= 1e-10

    def test_prefix_slack_zero(self):
        report = verify_variational_certificate(SopwBasis1D(8, 1), tail_periods=10)
        assert report.prefix_slack_max <= 1e-10

    def test_objectives_agree(self):
        report = verify_variational_certificate(SopwBasis1D(8, 1), tail_periods=6)
        assert abs(report.primal_objective - report.dual_objective) <= 1e-10

    def test_generator_minimizes_energy(self):
        basis = SopwBasis1D(8, 4)
        report = verify_variational_certificate(SopwBasis1D(8, 1))
        reference = theta_energy(basis)
        assert abs(report.primal_objective - reference) <= 1e-12
        rng = np.random.default_rng(5)
        eigenvalues = 2.0 * (math.pi * np.arange(-basis.band_limit, basis.band_limit + 1) / 8) ** 2
        for _ in range(100):
            member = project_sso(
                CoeffTensor(basis.domain, rng.standard_normal(basis.domain.size))
            )
            coeffs = band_coeffs(member, basis)
            energy = float(np.sum(eigenvalues * np.abs(coeffs) ** 2))
            assert reference <= energy + 1e-9

    def test_tail_periods_validation(self):
        with pytest.raises(ValueError):
            verify_variational_certificate(SopwBasis1D(4, 1), tail_periods=1)

    @pytest.mark.parametrize("tail_periods", [2.0, 2.5, True, "3"])
    def test_non_integer_tail_periods_rejected(self, tail_periods):
        with pytest.raises(ValueError, match="tail_periods must be an integer"):
            verify_variational_certificate(SopwBasis1D(4, 1), tail_periods=tail_periods)

    def test_numpy_integer_tail_periods_accepted(self):
        report = verify_variational_certificate(SopwBasis1D(4, 1), tail_periods=np.int64(3))
        assert report == verify_variational_certificate(SopwBasis1D(4, 1), tail_periods=3)
        assert type(report.tail_periods) is int
