import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftortho import (
    CoeffTensor,
    CpwConfig,
    DomainMismatchError,
    FallbackVector,
    InfeasibleDeflationError,
    LatticeDomain,
    ModePreconditionError,
    ModeSpan,
    ProjectionConfig,
    SopwBasis1D,
    b_inverse,
    b_transform,
    check_shift_perpendicular,
    is_shift_orthogonal,
    project_columns,
    project_sso,
    project_sso_orth,
    random_tensor,
    solve_cpw_modes,
)
from shiftortho import btransform, projection
from util import (
    direct_b_inverse,
    direct_b_transform,
    direct_max_shift_inner,
    direct_shift_violation,
    engineered_degenerate_real,
    gram_shift,
    orthogonal_fallback,
    random_real_tensor,
    small_domains,
    sphere_subproblem_oracle,
    theta_normalize,
)


class TestThetaNormalize:
    def test_scaling_column(self):
        dom = LatticeDomain((1,), (2,))
        p = CoeffTensor(dom, np.array([2.0, 0.0]))
        assert np.allclose(theta_normalize(p).data, [1.0, 0.0])

    def test_degenerate_uniform(self):
        dom = LatticeDomain((1,), (2,))
        p = CoeffTensor.zeros(dom)
        out = theta_normalize(p)
        assert np.allclose(out.data, [1 / np.sqrt(2)] * 2)

    def test_degenerate_canonical(self):
        dom = LatticeDomain((1,), (3,))
        cfg = ProjectionConfig(fallback_vector=FallbackVector.FIRST_CANONICAL)
        out = theta_normalize(CoeffTensor.zeros(dom), cfg)
        assert np.allclose(out.data, [1.0, 0.0, 0.0])

    def test_unit_norm_columns(self):
        rng = np.random.default_rng(0)
        dom = LatticeDomain((4, 3), (2, 3))
        out = theta_normalize(random_tensor(dom, rng))
        norms = np.linalg.norm(out.columns, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            ProjectionConfig(zero_norm_eps=-1.0)

    def test_nan_eps_rejected(self):
        # NaN compares false with every norm, and every norm is below inf,
        # so either would send every column to the fallback whatever the input.
        with pytest.raises(ValueError):
            ProjectionConfig(zero_norm_eps=math.nan)
        with pytest.raises(ValueError):
            ProjectionConfig(zero_norm_eps=math.inf)


class TestKernelContract:
    def test_project_columns_works_in_place(self):
        rng = np.random.default_rng(16)
        dom = LatticeDomain((4,), (3,))
        mode = project_sso(random_tensor(dom, rng))
        for modes in ((), [b_transform(mode).columns]):
            columns = b_transform(random_tensor(dom, rng)).columns
            out = project_columns(columns, mode_columns=modes)
            assert out is columns
            assert np.abs(np.linalg.norm(columns, axis=0) - 1.0).max() <= 1e-12

    def test_real_columns_rejected(self):
        # The kernel reads complex columns as interleaved pairs of doubles.
        with pytest.raises(TypeError):
            project_columns(np.ones((2, 3)))

    def test_inputs_left_unchanged(self, monkeypatch):
        rng = np.random.default_rng(17)
        # also with blocks of one column, so multi-block calls run on the pool
        for width, (shifts, depths) in itertools.product(
            (1 << 40, 1), (((4, 2), (3, 2)), ((1,), (3,)))
        ):
            _split_columns(monkeypatch, width)
            dom = LatticeDomain(shifts, depths)
            mode = project_sso(random_real_tensor(dom, rng))
            mode_columns = b_transform(mode).columns
            for b in (random_tensor(dom, rng), engineered_degenerate_real(dom, rng)):
                p = b_transform(b)
                kept = [t.data.copy() for t in (b, p, mode)]
                kept_columns = mode_columns.copy()
                theta_normalize(p)
                project_sso(b)
                project_sso_orth(b, [mode], validate=True)
                project_columns(p.columns.copy(), mode_columns=[mode_columns])
                check_shift_perpendicular(b, mode)
                for t, before in zip((b, p, mode), kept):
                    assert np.array_equal(t.data, before)
                assert np.array_equal(mode_columns, kept_columns)


def _split_columns(monkeypatch, width):
    """Make the kernel split its input into blocks of ``width`` columns."""
    monkeypatch.setattr(projection, "_SPLIT_COEFFS", 1)
    monkeypatch.setattr(projection, "_BLOCK_COEFFS", 1)
    monkeypatch.setattr(projection, "_MIN_BLOCK_COLUMNS", width)


def _deflation_modes(dom, rng, count=2):
    """``count`` mutually shift-perpendicular shift-orthogonal modes."""
    modes = []
    for _ in range(count):
        modes.append(project_sso_orth(random_tensor(dom, rng), modes))
    return modes


def _deflation_columns(dom, rng, count=2):
    """Transform columns of ``count`` mutually shift-perpendicular modes."""
    return [b_transform(mode).columns for mode in _deflation_modes(dom, rng, count)]


class _Submitted(Exception):
    pass


class _NoPool:
    """Stands in for the library's thread pool and refuses all work."""

    def map(self, *args, **kwargs):
        raise _Submitted

    submit = map


class TestColumnBlocks:
    """The kernel walks column blocks, on the pool when there are several."""

    @pytest.mark.parametrize(
        "shifts, depths", [((300,), (5,)), ((7, 9), (3, 2)), ((33,), (16,))]
    )
    def test_multi_block_bitwise_equals_single_block(self, monkeypatch, shifts, depths):
        rng = np.random.default_rng(20)
        dom = LatticeDomain(shifts, depths)
        mode_columns = _deflation_columns(dom, rng)
        columns = b_transform(random_tensor(dom, rng)).columns
        g, f = random_tensor(dom, rng), random_tensor(dom, rng)
        results = []
        # one block; blocks of 7 columns (the last one partial for 300 and
        # 33 shifts); one column per block
        for width in (1 << 40, 7, 1):
            _split_columns(monkeypatch, width)
            perp = check_shift_perpendicular(g, f)
            results.append([
                project_columns(columns.copy()),
                project_columns(columns.copy(), mode_columns=mode_columns),
                np.array([perp.max_frequency_inner, perp.max_shift_inner]),
            ])
        for result in results[1:]:
            for got, single in zip(result, results[0]):
                assert np.array_equal(got, single)

    @pytest.mark.parametrize("width", [1 << 40, 8])
    def test_mode_list_equals_stack(self, monkeypatch, width):
        _split_columns(monkeypatch, width)
        rng = np.random.default_rng(21)
        dom = LatticeDomain((40,), (4,))
        mode_columns = _deflation_columns(dom, rng)
        columns = b_transform(random_tensor(dom, rng)).columns
        listed = project_columns(columns.copy(), mode_columns=mode_columns)
        stacked = project_columns(columns.copy(), mode_columns=np.stack(mode_columns))
        assert np.array_equal(listed, stacked)

    @pytest.mark.parametrize("fallback", list(FallbackVector))
    def test_zero_column_in_later_block(self, monkeypatch, fallback):
        _split_columns(monkeypatch, 8)  # 5 blocks
        rng = np.random.default_rng(22)
        dom = LatticeDomain((40,), (4,))
        columns = b_transform(random_tensor(dom, rng)).columns
        columns[:, 29] = 0.0
        out = project_columns(columns, ProjectionConfig(fallback_vector=fallback))
        expected = {
            FallbackVector.UNIFORM_REAL: [0.5, 0.5, 0.5, 0.5],
            FallbackVector.FIRST_CANONICAL: [1.0, 0.0, 0.0, 0.0],
        }[fallback]
        assert np.array_equal(out[:, 29], np.array(expected, dtype=complex))
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() <= 1e-12

    def test_zero_column_in_later_block_deflated(self, monkeypatch):
        _split_columns(monkeypatch, 8)
        rng = np.random.default_rng(23)
        dom = LatticeDomain((40,), (4,))
        mode_columns = _deflation_columns(dom, rng)
        columns = b_transform(random_tensor(dom, rng)).columns
        columns[:, 29] = 0.0
        out = project_columns(columns, mode_columns=mode_columns)
        # Gram-Schmidt of the first canonical vector against the modes there
        q = np.array([mode[:, 29] for mode in mode_columns])
        residual = -q.conj()[:, 0] @ q
        residual[0] += 1.0
        assert np.abs(out[:, 29] - residual / np.linalg.norm(residual)).max() <= 1e-15
        assert np.abs(q.conj() @ out[:, 29]).max() <= 1e-15
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() <= 1e-12

    def test_deflated_fallbacks_match_per_column_gram_schmidt(self):
        # Two modes per column from a random unitary; at some frequencies
        # the first mode is e_0 (so e_1 gives the fallback), at others the
        # modes are e_0 and e_1 (so e_2 does).  Every third column is kept.
        rng = np.random.default_rng(26)
        depth_count, count = 4, 60
        modes = np.empty((2, depth_count, count), dtype=complex)
        for j in range(count):
            noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            unitary = np.linalg.qr(noise)[0]
            if j % 5 == 1:
                unitary = np.eye(4, dtype=complex)
                unitary[1:, 1:] = np.linalg.qr(noise[1:, 1:])[0]
            elif j % 5 == 2:
                unitary = np.eye(4)
            modes[:, :, j] = unitary[:, :2].T
        columns = np.zeros((depth_count, count), dtype=complex)
        columns[:, ::3] = rng.standard_normal((depth_count, 20))
        expected = columns / np.maximum(np.linalg.norm(columns, axis=0), 1e-300)
        for j in range(count):
            if j % 3:
                expected[:, j] = orthogonal_fallback(modes[:, :, j], depth_count)
        projection.normalize_columns(columns, ProjectionConfig(zero_norm_eps=1e-13), list(modes))
        assert np.abs(columns - expected).max() <= 1e-14
        inners = np.einsum("kdj,dj->kj", modes.conj(), columns)
        assert np.abs(inners[:, np.arange(count) % 3 > 0]).max() <= 1e-14

    def test_deflated_fallback_without_usable_residual(self):
        # Modes spanning every depth at one frequency leave no fallback there.
        modes = np.zeros((2, 2, 3), dtype=complex)
        modes[0, 0], modes[1, 1] = 1.0, 1.0
        for columns in (np.zeros((2, 3), dtype=complex), np.eye(2, 3, dtype=complex)):
            with pytest.raises(ModePreconditionError):
                orthogonal_fallback(modes[:, :, 2], 2)
            with pytest.raises(ModePreconditionError):
                projection.normalize_columns(columns, ProjectionConfig(zero_norm_eps=1e-13),
                                             list(modes))

    @pytest.mark.parametrize("width", [1 << 40, 8])
    def test_threshold_branch_at_eps(self, monkeypatch, width):
        # Columns with one nonzero entry v have norm exactly |v| (sqrt of a
        # rounded square is exact), so they sit a known number of ulps
        # from the threshold: only v > eps is scaled, the rest fall back.
        _split_columns(monkeypatch, width)
        dom = LatticeDomain((40,), (4,))
        eps = ProjectionConfig().resolve_eps(dom.depth_count)
        values = [eps]
        for _ in range(3):
            values.insert(0, np.nextafter(values[0], 0.0))
            values.append(np.nextafter(values[-1], 1.0))
        columns = np.zeros((4, 40), dtype=complex)
        for j in range(40):
            value = values[j % len(values)]
            assert np.sqrt(value * value) == value
            columns[j % 4, j] = value
        out = project_columns(columns.copy())
        for j in range(40):
            if columns[j % 4, j].real > eps:
                assert np.count_nonzero(out[:, j]) == 1
                assert abs(out[j % 4, j] - 1.0) <= 1e-15
            else:
                assert np.array_equal(out[:, j], np.full(4, 0.5, dtype=complex))

    def test_mode_validation_across_blocks(self, monkeypatch):
        # A squared column norm off by half or twice the tolerance, in the
        # last of five column blocks: the first is accepted, the second
        # rejected without touching the span.
        _split_columns(monkeypatch, 8)
        rng = np.random.default_rng(24)
        dom = LatticeDomain((40,), (4,))
        first, second = _deflation_modes(dom, rng)
        for factor, accepted in ((0.5, True), (2.0, False)):
            span = ModeSpan(dom)
            span.add(first)
            kept_columns = [columns.copy() for columns in span.columns]
            kept_inner = span.max_shift_inner
            p = b_transform(second)
            p.columns[:, 37] *= math.sqrt(1.0 + factor * projection._MODE_ORTHONORMALITY_TOL)
            if accepted:
                span.add(b_inverse(p))
                assert len(span) == 2
                continue
            with pytest.raises(ModePreconditionError):
                span.add(b_inverse(p))
            assert len(span) == 1 and span.max_shift_inner == kept_inner
            assert all(np.array_equal(a, b) for a, b in zip(span.columns, kept_columns))

    def test_single_block_calls_stay_on_caller_thread(self, monkeypatch):
        # Below the split size neither FFT passes nor kernel blocks submit.
        monkeypatch.setattr(btransform, "_POOL", _NoPool())
        rng = np.random.default_rng(25)
        dom = LatticeDomain((4096,), (16,))  # 2^16 coefficients: one slab, one block
        modes = []
        for _ in range(2):
            modes.append(project_sso_orth(random_tensor(dom, rng), modes, validate=True))
        is_shift_orthogonal(modes[1])
        check_shift_perpendicular(modes[0], modes[1])
        theta_normalize(b_transform(modes[0]))
        # too few depths for depth slabs: passes would split along a shift axis
        flat = LatticeDomain((256, 256), (1, 1))
        project_sso(random_tensor(flat, rng))
        solve_cpw_modes(2, CpwConfig(grid_size=128, max_iter=5), SopwBasis1D(8, 4))
        # the guard is live: twice the size splits FFT passes and kernel alike
        wide = LatticeDomain((8192,), (16,))
        for wider in (wide, LatticeDomain((256, 512), (1, 1))):
            v = random_tensor(wider, rng)
            with pytest.raises(_Submitted):
                b_transform(v)
            with pytest.raises(_Submitted):
                btransform._complex_transform(np.fft.fft, v.copy(), in_place=True)
        with pytest.raises(_Submitted):
            project_columns(random_tensor(wide, rng).columns)

    def test_concurrent_callers_on_a_wide_pool(self, monkeypatch):
        # More pool threads than cores, a short switch interval and several
        # callers at once: a lost or misplaced slab or block write would
        # show as a difference from the one-part result.
        rng = np.random.default_rng(26)
        dom = LatticeDomain((600,), (4,))
        mode_columns = _deflation_columns(dom, rng)
        b = random_tensor(dom, rng)
        columns = b_transform(b).columns

        def work():
            return [b_transform(b).data,
                    project_columns(columns.copy(), mode_columns=mode_columns),
                    project_sso_orth(b, [project_sso(b)]).data]

        expected = work()
        pool = ThreadPoolExecutor(max_workers=4 * (os.cpu_count() or 1))
        monkeypatch.setattr(btransform, "_POOL", pool)
        # three unequal depth slabs per FFT pass, blocks of three columns
        monkeypatch.setattr(btransform, "_SPLIT_COEFFS", 1)
        monkeypatch.setattr(btransform, "_WORKERS", 3)
        _split_columns(monkeypatch, 3)
        assert len(btransform._split(dom.depth_count)) == 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                futures = [callers.submit(work) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        for result in results:
            for got, want in zip(result, expected):
                assert np.array_equal(got, want)


class TestRealRoute:
    """A real input without modes is projected on its half spectrum."""

    @staticmethod
    def complex_route(b, cfg=ProjectionConfig()):
        p = b_transform(b)
        project_columns(p.columns, cfg)
        return b_inverse(p)

    # The worst difference from the complex route over these shapes was
    # 6.9e-17, at ((9, 7), (3, 2)); at 16 depths x 65536 shifts it is 2.9e-18.
    @pytest.mark.parametrize("shifts, depths", [
        ((7,), (5,)), ((64,), (4,)), ((9, 7), (3, 2)), ((6, 5, 8), (2, 1, 2)),
        ((16, 16, 17), (4, 4, 1)),
        ((512, 257), (1, 1)),  # 2^17+ coefficients, one depth: passes split along axis 1
        ((64,), (4096,)),  # 2^18 coefficients in depth slabs
    ])
    def test_agrees_with_complex_route(self, monkeypatch, shifts, depths):
        monkeypatch.setattr(btransform, "_WORKERS", 2)
        dom = LatticeDomain(shifts, depths)
        b = random_real_tensor(dom, np.random.default_rng(50))
        assert b.data.dtype == np.float64
        out = project_sso(b)
        assert out.data.dtype == np.float64
        assert np.abs(out.data - self.complex_route(b).data).max() <= 1e-15
        assert is_shift_orthogonal(out).max_norm_deviation <= 1e-12

    @pytest.mark.parametrize("fallback", list(FallbackVector))
    @pytest.mark.parametrize("shifts, depths", [
        ((8,), (3,)), ((7,), (4,)), ((4, 5), (2, 2)), ((2, 3, 4), (2, 1, 2)),
    ])
    def test_degenerate_fallback_columns_match(self, shifts, depths, fallback):
        dom = LatticeDomain(shifts, depths)
        cfg = ProjectionConfig(fallback_vector=fallback)
        b = engineered_degenerate_real(dom, np.random.default_rng(51))
        out = project_sso(b, cfg)
        assert out.data.dtype == np.float64
        ref = self.complex_route(b, cfg)
        assert np.abs(out.data - ref.data).max() <= 1e-15
        column = {
            FallbackVector.UNIFORM_REAL: np.full(dom.depth_count, dom.depth_count ** -0.5),
            FallbackVector.FIRST_CANONICAL: np.eye(dom.depth_count)[0],
        }[fallback]
        for tensor in (out, ref):
            columns = b_transform(tensor).columns
            assert np.abs(columns[:, 1:] - column[:, None]).max() <= 1e-14

    def test_output_dtype(self):
        rng = np.random.default_rng(52)
        dom = LatticeDomain((6, 4), (2, 2))
        real, stored_real = random_real_tensor(dom, rng), random_tensor(dom, rng, real=True)
        mode = project_sso(random_tensor(dom, rng))
        assert project_sso(real).data.dtype == np.float64
        assert project_sso(stored_real).data.dtype == np.float64
        assert project_sso(random_tensor(dom, rng)).data.dtype == np.complex128
        # modes keep the complex route, whose result is complex
        assert project_sso_orth(real, [mode]).data.dtype == np.complex128

    @pytest.mark.parametrize("shifts, depths", [((12,), (3,)), ((1 << 17,), (2,))])
    def test_no_complex_fft_on_real_input(self, monkeypatch, shifts, depths):
        # The guard against a silent return to the complex route: a 1-D
        # real input is transformed by rfft and irfft alone.
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        dom = LatticeDomain(shifts, depths)
        out = project_sso(random_real_tensor(dom, np.random.default_rng(53)))
        assert out.data.dtype == np.float64
        assert calls and set(calls) == {"rfft", "irfft"}

    def test_conjugate_twins_straddling_eps(self):
        """Twin columns ``j`` and ``-j`` on either side of ``zero_norm_eps``.

        The complex route computes the norms of the twins separately; for
        this random 1-D input they differ in the last bit at several ``j``.
        With ``zero_norm_eps`` set to the smaller norm of one such pair, the
        complex route sends that twin to the fallback and scales the other,
        which gives a complex output.  The half spectrum holds one column of
        each pair, so the projection is exactly real and a member.
        """
        dom = LatticeDomain((64,), (3,))
        b = random_real_tensor(dom, np.random.default_rng(54))
        norms = is_shift_orthogonal(b).per_frequency_norms
        j = next(j for j in range(1, 32) if norms[j] != norms[64 - j])
        cfg = ProjectionConfig(zero_norm_eps=min(norms[j], norms[64 - j]))
        assert self.complex_route(b, cfg).max_imag() > 1e-3
        out = project_sso(b, cfg)
        assert out.data.dtype == np.float64 and out.max_imag() == 0.0
        assert is_shift_orthogonal(out).is_member
        assert direct_shift_violation(out) <= 1e-10

    @pytest.mark.parametrize("shifts, depths", [((64, 8), (3, 1)), ((6, 5, 8), (2, 1, 2))])
    def test_twins_in_self_conjugate_plane(self, shifts, depths):
        """Twins inside the plane of last shift index 0, with two or more axes.

        That plane of the half spectrum holds both twins of its columns,
        whose kernel norms (``projection._column_norms_sq``) differ in the last
        bit for these random inputs.  ``zero_norm_eps`` is set to the
        smaller of one such pair: the output is still a member.
        """
        dom = LatticeDomain(shifts, depths)
        b = random_real_tensor(dom, np.random.default_rng(55))
        half = btransform._half_transform(b)
        flat = half.reshape(dom.depth_count, -1)
        norms = np.sqrt(projection._column_norms_sq(flat)).reshape(half.shape[1:])
        plane = norms[..., 0]
        twins = np.roll(np.flip(plane), 1, axis=tuple(range(plane.ndim)))
        j = np.argwhere(plane != twins)[0]
        cfg = ProjectionConfig(zero_norm_eps=min(plane[tuple(j)], twins[tuple(j)]))
        out = project_sso(b, cfg)
        assert out.data.dtype == np.float64
        report = is_shift_orthogonal(out)
        assert report.is_member, report.max_constraint_violation


class TestProjectSso:
    def test_fixed_point_delta(self):
        dom = LatticeDomain((2,), (1,))
        delta = CoeffTensor(dom, np.array([1.0, 0.0]))
        assert np.abs(project_sso(delta).data - delta.data).max() <= 1e-14

    def test_scaled_delta(self):
        dom = LatticeDomain((2,), (1,))
        doubled = CoeffTensor(dom, np.array([2.0, 0.0]))
        out = project_sso(doubled)
        assert np.allclose(out.data, [1.0, 0.0], atol=1e-14)
        # brute-force subproblem oracle on each transform column
        rng = np.random.default_rng(1)
        p_cols = b_transform(doubled).columns
        out_cols = b_transform(out).columns
        for j in range(dom.shift_count):
            oracle = sphere_subproblem_oracle(p_cols[:, j], rng, samples=200)
            assert np.abs(out_cols[:, j] - oracle).max() <= 1e-10

    def test_zero_tensor_degenerate_branch(self):
        dom = LatticeDomain((2,), (2,))
        out = project_sso(CoeffTensor.zeros(dom))
        expected = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0])
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_equals_explicit_composition(self):
        # direct transform sums, per-column normalization, direct inverse
        rng = np.random.default_rng(2)
        for shifts, depths in (
            ((4,), (3,)), ((2, 3), (3, 2)), ((8,), (1,)), ((5,), (2,)), ((3, 5), (2, 1))
        ):
            dom = LatticeDomain(shifts, depths)
            t = random_tensor(dom, rng)
            columns = direct_b_transform(t).reshape(dom.depth_count, dom.shift_count)
            columns /= np.linalg.norm(columns, axis=0)
            composed = direct_b_inverse(CoeffTensor(dom, columns.reshape(-1)))
            assert np.abs(project_sso(t).data - composed).max() <= 1e-13

    def test_membership(self):
        rng = np.random.default_rng(3)
        for shifts, depths in (((4,), (4,)), ((2, 2), (2, 3)), ((5,), (2,))):
            dom = LatticeDomain(shifts, depths)
            for _ in range(5):
                out = project_sso(random_tensor(dom, rng))
                assert direct_shift_violation(out) <= 1e-10

    def test_per_frequency_optimality(self):
        # every output column solves the constrained column subproblem
        rng = np.random.default_rng(4)
        for depths in ((2,), (3,)):
            dom = LatticeDomain((4,), depths)
            for _ in range(10):
                t = random_tensor(dom, rng)
                p_cols = b_transform(t).columns
                out_cols = b_transform(project_sso(t)).columns
                for j in range(dom.shift_count):
                    oracle = sphere_subproblem_oracle(p_cols[:, j], rng, samples=30)
                    assert np.abs(out_cols[:, j] - oracle).max() <= 1e-10

    def test_minimality_against_sampled_members(self):
        rng = np.random.default_rng(5)
        dom = LatticeDomain((4,), (4,))
        targets = [random_tensor(dom, rng) for _ in range(3)]
        projected = [project_sso(t) for t in targets]
        distances = [np.linalg.norm(t.data - p.data) for t, p in zip(targets, projected)]
        for _ in range(10_000):
            member = project_sso(random_tensor(dom, rng))
            for t, dist in zip(targets, distances):
                assert dist <= np.linalg.norm(t.data - member.data) + 1e-9

    def test_idempotence(self):
        rng = np.random.default_rng(6)
        for shifts, depths in (((4,), (4,)), ((2, 3), (2, 2))):
            dom = LatticeDomain(shifts, depths)
            for _ in range(10):
                once = project_sso(random_tensor(dom, rng))
                twice = project_sso(once)
                assert np.linalg.norm(twice.data - once.data) <= 1e-10

    def test_realness(self):
        rng = np.random.default_rng(7)
        dom = LatticeDomain((4,), (3,))
        for _ in range(20):
            out = project_sso(random_real_tensor(dom, rng))
            assert out.max_imag() <= 1e-12

    def test_realness_degenerate_branch(self):
        rng = np.random.default_rng(8)
        for shifts, depths in (((4,), (3,)), ((2, 2), (2, 2))):
            dom = LatticeDomain(shifts, depths)
            out = project_sso(engineered_degenerate_real(dom, rng))
            assert out.max_imag() <= 1e-12
            assert direct_shift_violation(out) <= 1e-10

    def test_norm_criterion_equivalence(self):
        # transform-column norms near one iff the shift Gram is near identity
        rng = np.random.default_rng(9)
        dom = LatticeDomain((4,), (4,))
        members = [project_sso(random_tensor(dom, rng)) for _ in range(10)]
        non_members = [random_tensor(dom, rng) for _ in range(10)]
        for v in members + non_members:
            norm_near_one = is_shift_orthogonal(v, 1e-10).max_norm_deviation <= 1e-12
            gram_near_identity = direct_shift_violation(v) <= 1e-10
            assert norm_near_one == gram_near_identity


class TestProjectSsoOrth:
    def test_empty_modes_equals_plain(self):
        rng = np.random.default_rng(10)
        dom = LatticeDomain((4,), (3,))
        t = random_tensor(dom, rng)
        a = project_sso_orth(t, [])
        b = project_sso(t)
        assert np.abs(a.data - b.data).max() <= 1e-14

    def test_hand_worked_deflation(self):
        # deflating a depth-1 delta against itself forces the fallback,
        # which lands on the depth-2 delta
        dom = LatticeDomain((2,), (2,))
        delta = CoeffTensor(dom, np.array([1.0, 0.0, 0.0, 0.0]))
        out = project_sso_orth(delta, [delta])
        expected = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.allclose(out.data, expected, atol=1e-14)
        out_cols = b_transform(out).columns
        assert np.abs(out_cols[0]).max() <= 1e-14

    def test_gram_against_mode_vanishes(self):
        rng = np.random.default_rng(11)
        for shifts, depths in (((4,), (3,)), ((2, 2), (2, 2))):
            dom = LatticeDomain(shifts, depths)
            mode = project_sso(random_real_tensor(dom, rng))
            out = project_sso_orth(random_tensor(dom, rng), [mode])
            assert direct_shift_violation(out) <= 1e-10
            assert np.abs(gram_shift(out, mode)).max() <= 1e-10

    def test_successive_outputs_mutually_perpendicular(self):
        rng = np.random.default_rng(12)
        dom = LatticeDomain((4,), (4,))
        modes = []
        for _ in range(3):
            out = project_sso_orth(random_tensor(dom, rng), modes)
            modes.append(out)
        for a in range(len(modes)):
            for b in range(a + 1, len(modes)):
                assert direct_max_shift_inner(modes[a], modes[b]) <= 1e-10

    def test_infeasible_error(self):
        rng = np.random.default_rng(13)
        dom = LatticeDomain((4,), (2,))
        modes = []
        for _ in range(2):
            modes.append(project_sso_orth(random_tensor(dom, rng), modes))
        with pytest.raises(InfeasibleDeflationError):
            project_sso_orth(random_tensor(dom, rng), modes)

    def test_span_add_checks_one_gram_row(self, monkeypatch):
        # The k-th insertion transforms only the new mode and computes the
        # k inner-product rows of its Gram row, not the whole k x k Gram.
        rng = np.random.default_rng(30)
        dom = LatticeDomain((6,), (4,))
        modes = _deflation_modes(dom, rng, 3)
        transforms, rows = [], []
        original_transform = projection.b_transform
        original_inners = projection._frequency_inners

        def counted_transform(v):
            transforms.append(1)
            return original_transform(v)

        def counted_inners(gs, f):
            rows.append(len(gs))
            return original_inners(gs, f)

        monkeypatch.setattr(projection, "b_transform", counted_transform)
        monkeypatch.setattr(projection, "_frequency_inners", counted_inners)
        span = ModeSpan(dom)
        for k, mode in enumerate(modes, start=1):
            span.add(mode)
            assert len(transforms) == k
            assert rows[-1] == k
        assert sum(rows) == 1 + 2 + 3

    def test_span_projection_transforms_only_input(self, monkeypatch):
        rng = np.random.default_rng(31)
        dom = LatticeDomain((4, 3), (2, 2))
        modes = _deflation_modes(dom, rng, 2)
        b = random_tensor(dom, rng)
        expected = project_sso_orth(b, modes)
        span = ModeSpan(dom, modes)
        transforms = []
        original = projection.b_transform

        def counted(v):
            transforms.append(v)
            return original(v)

        monkeypatch.setattr(projection, "b_transform", counted)
        out = project_sso_orth(b, span)
        assert len(transforms) == 1 and transforms[0] is b
        assert np.array_equal(out.data, expected.data)

    def test_span_on_another_domain_rejected(self):
        rng = np.random.default_rng(32)
        dom = LatticeDomain((4,), (3,))
        span = ModeSpan(LatticeDomain((6,), (2,)))
        with pytest.raises(DomainMismatchError):
            project_sso_orth(random_tensor(dom, rng), span)
        span.add(project_sso(random_tensor(span.domain, rng)))
        with pytest.raises(DomainMismatchError):
            project_sso_orth(random_tensor(dom, rng), span)
        with pytest.raises(DomainMismatchError):
            span.add(project_sso(random_tensor(dom, rng)))

    def test_span_max_shift_inner_matches_pairwise_check(self):
        rng = np.random.default_rng(33)
        for shifts, depths in (((8,), (4,)), ((4, 3), (2, 2))):
            dom = LatticeDomain(shifts, depths)
            modes = _deflation_modes(dom, rng, 3)
            assert ModeSpan(dom).max_shift_inner == 0.0
            span = ModeSpan(dom, modes)
            expected = max(check_shift_perpendicular(modes[a], modes[b]).max_shift_inner
                           for a in range(3) for b in range(a + 1, 3))
            assert span.max_shift_inner == expected

    def test_mode_precondition_validation(self):
        rng = np.random.default_rng(14)
        dom = LatticeDomain((4,), (3,))
        not_orthonormal = random_tensor(dom, rng)
        with pytest.raises(ModePreconditionError):
            project_sso_orth(
                random_tensor(dom, rng), [not_orthonormal], validate=True
            )
        good = project_sso(random_tensor(dom, rng))
        project_sso_orth(random_tensor(dom, rng), [good], validate=True)


class TestCheckers:
    def test_delta_is_member(self):
        dom = LatticeDomain((2,), (1,))
        delta = CoeffTensor(dom, np.array([1.0, 0.0]))
        report = is_shift_orthogonal(delta, 1e-10)
        assert report.is_member
        assert report.max_constraint_violation <= 1e-14

    def test_doubled_delta_violation(self):
        dom = LatticeDomain((2,), (1,))
        doubled = CoeffTensor(dom, np.array([2.0, 0.0]))
        report = is_shift_orthogonal(doubled, 1e-10)
        assert not report.is_member
        assert abs(report.max_constraint_violation - 3.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(small_domains(max_axis=5, max_size=96), st.integers(0, 2**32 - 1), st.booleans())
    def test_spectral_reports_match_direct_oracles(self, dom, seed, member):
        # the spectral reports agree with the direct shift loops, and the
        # per-frequency and per-shift criteria bound each other through a DFT
        rng = np.random.default_rng(seed)
        v = random_tensor(dom, rng)
        if member:
            v = project_sso(v)
        f = random_tensor(dom, rng)
        count = dom.shift_count

        report = is_shift_orthogonal(v)
        direct = direct_shift_violation(v)
        violation = report.max_constraint_violation
        assert abs(violation - direct) <= 1e-10 * max(1.0, direct)
        nsq_dev = float(np.abs(report.per_frequency_norms**2 - 1.0).max())
        slack = 1e-8 * max(1.0, float(np.linalg.norm(v.data)) ** 2)
        assert violation <= nsq_dev + slack
        assert nsq_dev <= count * violation + slack

        perp = check_shift_perpendicular(v, f)
        direct = direct_max_shift_inner(v, f)
        max_shift, max_freq = perp.max_shift_inner, perp.max_frequency_inner
        assert abs(max_shift - direct) <= 1e-10 * max(1.0, direct)
        slack = 1e-8 * max(1.0, float(np.linalg.norm(v.data) * np.linalg.norm(f.data)))
        assert max_shift <= max_freq + slack
        assert max_freq <= count * max_shift + slack

    def test_perpendicular_disjoint_depths(self):
        dom = LatticeDomain((3,), (2,))
        f = CoeffTensor.zeros(dom)
        g = CoeffTensor.zeros(dom)
        f.data[:3] = [1.0, 2.0, 3.0]
        g.data[3:] = [4.0, 5.0, 6.0]
        report = check_shift_perpendicular(g, f, 1e-10)
        assert report.is_perpendicular
        assert report.max_frequency_inner <= 1e-14
        assert report.max_shift_inner <= 1e-14

    def test_self_not_perpendicular(self):
        dom = LatticeDomain((2,), (1,))
        delta = CoeffTensor(dom, np.array([1.0, 0.0]))
        report = check_shift_perpendicular(delta, delta, 1e-10)
        assert not report.is_perpendicular
        assert abs(report.max_shift_inner - 1.0) <= 1e-14

    def test_perpendicular_domain_mismatch(self):
        g = CoeffTensor.zeros(LatticeDomain((3,), (2,)))
        with pytest.raises(DomainMismatchError):
            check_shift_perpendicular(g, CoeffTensor.zeros(LatticeDomain((2,), (3,))))
