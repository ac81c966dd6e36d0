import cmath
import math

import numpy as np
import pytest

from shiftortho import (
    AliasingError,
    CoeffTensor,
    FourierRep,
    SopwBasis1D,
    analyze_grid,
    eval_closed_form,
    first_derivative_stencil,
    flatten,
    b_inverse,
    b_transform,
    fourier_to_sopw,
    gather_columns,
    scatter_columns,
    shell_moment_sums,
    random_tensor,
    second_derivative_stencil,
    sopw_fourier_coeffs,
    sopw_to_fourier,
    synthesize_grid,
    verify_variational_certificate,
)
from util import (
    direct_b_inverse,
    direct_b_transform,
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


class TestBasisConstruction:
    def test_odd_shift_count_rejected(self):
        with pytest.raises(ValueError):
            SopwBasis1D(7, 3)
        with pytest.raises(ValueError):
            SopwBasis1D(1, 3)

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
    def test_basis_element_reproduction(self):
        basis = SopwBasis1D(4, 3)
        rep = FourierRep.zeros(4, 3)
        for n, c in sopw_fourier_coeffs(1, 0, basis):
            rep.set(n, c)
        tensor, residual = fourier_to_sopw(rep, basis)
        expected = delta_tensor(basis, 1, 0)
        assert np.abs(tensor.data - expected.data).max() <= 1e-12
        assert residual <= 1e-12

    def test_constant_mode_spreads_over_shifts(self):
        basis = SopwBasis1D(4, 2)
        rep = FourierRep.zeros(4, 2)
        rep.set(0, 1.0)
        tensor, residual = fourier_to_sopw(rep, basis)
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
        rep = FourierRep(6, 4, coeffs)
        tensor, residual = fourier_to_sopw(rep, basis)
        assert residual <= 1e-12
        back = sopw_to_fourier(tensor, basis)
        assert np.abs(back.coeffs - rep.coeffs).max() <= 1e-12

    def test_cap_edge_goes_to_residual(self):
        basis = SopwBasis1D(4, 2)
        rep = FourierRep.zeros(4, 2)
        rep.set(basis.band_limit, 1.0)
        tensor, residual = fourier_to_sopw(rep, basis)
        # edge weight splits evenly between the cap shell and the one above
        assert abs(residual - 1 / math.sqrt(2)) <= 1e-12
        assert abs(np.linalg.norm(tensor.data) - 1 / math.sqrt(2)) <= 1e-12

    def test_tensor_round_trip(self):
        rng = np.random.default_rng(1)
        basis = SopwBasis1D(8, 3)
        t = random_tensor(basis.domain, rng)
        back, residual = fourier_to_sopw(sopw_to_fourier(t, basis), basis)
        assert np.abs(back.data - t.data).max() <= 1e-12
        assert residual <= 1e-12

    def test_zero_tensor(self):
        basis = SopwBasis1D(4, 2)
        rep = sopw_to_fourier(CoeffTensor.zeros(basis.domain), basis)
        assert np.abs(rep.coeffs).max() == 0.0

    def test_delta_matches_sparse_table(self):
        basis = SopwBasis1D(6, 3)
        rep = sopw_to_fourier(delta_tensor(basis, 2, 1), basis)
        expected = sopw_fourier_vector(2, 1, basis, basis.band_limit)
        assert np.abs(rep.coeffs - expected).max() <= 1e-14


GATHER_SIZES = [(2, 1), (4, 3), (8, 4), (16, 8)]


class TestColumnGatherScatter:
    """Band Fourier coefficients grouped by residue class are transform columns."""

    @staticmethod
    def random_band(basis, seed):
        rng = np.random.default_rng(seed)
        size = 2 * basis.band_limit + 1
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    @pytest.mark.parametrize("num_shifts,depth_cap", GATHER_SIZES)
    def test_gather_equals_transform_of_expansion(self, num_shifts, depth_cap):
        basis = SopwBasis1D(num_shifts, depth_cap)
        coeffs = self.random_band(basis, num_shifts + depth_cap)
        columns, residual = gather_columns(coeffs, basis)
        tensor, expected_residual = fourier_to_sopw(
            FourierRep(num_shifts, depth_cap, coeffs), basis
        )
        assert columns.shape == (depth_cap, num_shifts)
        assert np.abs(columns - b_transform(tensor).columns).max() <= 1e-12
        assert abs(residual - expected_residual) <= 1e-12

    @pytest.mark.parametrize("num_shifts,depth_cap", GATHER_SIZES)
    def test_gather_against_sparse_table(self, num_shifts, depth_cap):
        basis = SopwBasis1D(num_shifts, depth_cap)
        coeffs = self.random_band(basis, 7 * num_shifts + depth_cap)
        columns, residual = gather_columns(coeffs, basis)
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
        expected = sopw_to_fourier(b_inverse(tensor), basis).coeffs
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
        from shiftortho import project_sso, sopw_to_fourier

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
            rep = sopw_to_fourier(member, basis)
            energy = float(np.sum(eigenvalues * np.abs(rep.coeffs) ** 2))
            assert reference <= energy + 1e-9

    def test_tail_periods_validation(self):
        with pytest.raises(ValueError):
            verify_variational_certificate(SopwBasis1D(4, 1), tail_periods=1)
