"""Shared oracles for the test suite.

Everything here recomputes quantities by direct summation or enumeration,
independently of the library's FFT-based paths, so the tests exercise two
routes for each claim.
"""

import cmath
import json
import math

import numpy as np
from hypothesis import strategies as st

from shiftortho import (
    CoeffTensor,
    DomainMismatchError,
    LatticeDomain,
    analyze_grid,
    cpw_energy,
    helmholtz_solve,
    project_sso,
    project_sso_orth,
    shrink,
    sopw_fourier_coeffs,
    synthesize_grid,
    unflatten,
)
from shiftortho.cpw import _initial_field


def small_domains(max_axis=8, max_size=4096):
    """Hypothesis strategy: random 1-3D lattice domains of bounded size."""
    axis = st.integers(1, max_axis)
    return (
        st.integers(1, 3)
        .flatmap(lambda d: st.tuples(st.tuples(*[axis] * d), st.tuples(*[axis] * d)))
        .map(lambda pair: LatticeDomain(*pair))
        .filter(lambda dom: dom.size <= max_size)
    )


def row_by_row_coeff_text(tensor: CoeffTensor) -> str:
    """A coefficient file's text, one row per ``unflatten`` call."""
    domain = tensor.domain
    kind = "real" if not tensor.data.imag.any() else "complex"
    header = {"schema": 1, "d": domain.d, "L": list(domain.shifts),
              "N": list(domain.depths), "kind": kind}
    lines = [json.dumps(header, sort_keys=True, separators=(", ", ": "))]
    for flat, value in enumerate(tensor.data):
        depth_idx, shift_idx = unflatten(domain, flat)
        fields = [str(i) for i in depth_idx + shift_idx]
        lines.append(",".join(fields + [f"{value.real:.17g}", f"{value.imag:.17g}"]))
    return "\n".join(lines) + "\n"


def direct_b_transform(v: CoeffTensor) -> np.ndarray:
    """Positive-exponent sum over shifts, one depth slice at a time."""
    domain = v.domain
    grid = v.grid
    out = np.zeros(domain.grid_shape, dtype=np.complex128)
    for depth_pos in np.ndindex(*domain.depths):
        for freq in np.ndindex(*domain.shifts):
            total = 0.0 + 0.0j
            for ell in np.ndindex(*domain.shifts):
                angle = sum(
                    f * l / count for f, l, count in zip(freq, ell, domain.shifts)
                )
                total += cmath.exp(2j * math.pi * angle) * grid[depth_pos + ell]
            out[depth_pos + freq] = total
    return out.reshape(-1)


def direct_b_inverse(p: CoeffTensor) -> np.ndarray:
    domain = p.domain
    grid = p.grid
    out = np.zeros(domain.grid_shape, dtype=np.complex128)
    for depth_pos in np.ndindex(*domain.depths):
        for pos in np.ndindex(*domain.shifts):
            total = 0.0 + 0.0j
            for ell in np.ndindex(*domain.shifts):
                angle = sum(
                    f * l / count for f, l, count in zip(pos, ell, domain.shifts)
                )
                total += cmath.exp(-2j * math.pi * angle) * grid[depth_pos + ell]
            out[depth_pos + pos] = total / domain.shift_count
    return out.reshape(-1)


def shift_correlation(g: CoeffTensor, f: CoeffTensor) -> np.ndarray:
    """``<g, S(t) f>`` for every shift ``t``, one cyclic roll at a time."""
    if g.domain != f.domain:
        raise DomainMismatchError("tensors live on different domains")
    domain = g.domain
    corr = np.empty(domain.shifts, dtype=np.complex128)
    for t in np.ndindex(*domain.shifts):
        corr[t] = np.vdot(g.grid, np.roll(f.grid, t, axis=domain.shift_axes))
    return corr


def direct_shift_violation(v: CoeffTensor) -> float:
    """Largest deviation of ``<v, S(s) v>`` from the Kronecker delta."""
    corr = shift_correlation(v, v)
    corr[(0,) * v.domain.d] -= 1.0
    return float(np.abs(corr).max())


def direct_max_shift_inner(g: CoeffTensor, f: CoeffTensor) -> float:
    """Largest ``|<g, S(s) f>|`` over all shifts ``s``."""
    return float(np.abs(shift_correlation(g, f)).max())


def gram_shift(g: CoeffTensor, f: CoeffTensor) -> np.ndarray:
    """Gram matrix of all shifted copies: entry ``(s', s) = <S(s')g, S(s)f>``.

    Rows and columns enumerate shift vectors in canonical order.  The matrix
    is circulant in ``s - s'`` because shifting both arguments by the same
    amount leaves the inner product unchanged.
    """
    domain = g.domain
    corr = shift_correlation(g, f)
    vectors = list(domain.shift_vectors())
    gram = np.empty((len(vectors), len(vectors)), dtype=np.complex128)
    for row, sp in enumerate(vectors):
        for col, sq in enumerate(vectors):
            t = tuple((b - a) % n for a, b, n in zip(sp, sq, domain.shifts))
            gram[row, col] = corr[t]
    return gram


def direct_gram_shift(g: CoeffTensor, f: CoeffTensor) -> np.ndarray:
    """Entry (s', s) as an explicit double sum over all multi-indices."""
    domain = g.domain
    vectors = list(np.ndindex(*domain.shifts))
    count = len(vectors)
    gram = np.zeros((count, count), dtype=np.complex128)
    for row, sp in enumerate(vectors):
        for col, sq in enumerate(vectors):
            total = 0.0 + 0.0j
            for flat in range(domain.size):
                depth_idx, shift_idx = unflatten(domain, flat)
                g_shift = tuple(
                    (j - s) % n for j, s, n in zip(shift_idx, sp, domain.shifts)
                )
                f_shift = tuple(
                    (j - s) % n for j, s, n in zip(shift_idx, sq, domain.shifts)
                )
                g_val = g.grid[tuple(i - 1 for i in depth_idx) + g_shift]
                f_val = f.grid[tuple(i - 1 for i in depth_idx) + f_shift]
                total += np.conj(g_val) * f_val
            gram[row, col] = total
    return gram


def sphere_subproblem_oracle(column: np.ndarray, rng=None, samples: int = 0):
    """Minimize ``|p - q|`` over the unit sphere by stationary-point enumeration.

    Stationarity of the Lagrangian gives ``q = p / (1 + nu)`` with real
    ``nu``, so the candidates are ``+-p/|p|``; the better one is returned
    after an optional random-sampling sanity sweep confirming no sampled
    unit vector beats it.
    """
    norm = np.linalg.norm(column)
    if norm == 0.0:
        raise ValueError("oracle needs a nonzero column")
    candidates = [column / norm, -column / norm]
    best = min(candidates, key=lambda q: np.linalg.norm(column - q))
    if samples and rng is not None:
        best_value = np.linalg.norm(column - best)
        size = column.shape[0]
        for _ in range(samples):
            probe = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            probe /= np.linalg.norm(probe)
            assert np.linalg.norm(column - probe) >= best_value - 1e-12
    return best


def sopw_fourier_vector(k: int, j: int, basis, band: int) -> np.ndarray:
    """Dense coefficient vector over modes ``-band..band``."""
    vec = np.zeros(2 * band + 1, dtype=np.complex128)
    for n, c in sopw_fourier_coeffs(k, j, basis):
        vec[n + band] = c
    return vec


def sopw_analysis_rows(coeffs: np.ndarray, basis) -> np.ndarray:
    """Inner products of band coefficients with every element of shells 1..N+1.

    Row ``k - 1`` holds ``<element (k, l), f>`` for all shifts ``l``, summed
    from the sparse table over the band ``|n| <= band_limit``; the last row
    is the shell above the cap.
    """
    band = basis.band_limit
    rows = np.zeros((basis.depth_cap + 1, basis.num_shifts), dtype=np.complex128)
    for k in range(1, basis.depth_cap + 2):
        for ell in range(basis.num_shifts):
            rows[k - 1, ell] = sum(
                np.conj(c) * coeffs[n + band]
                for n, c in sopw_fourier_coeffs(k, ell, basis)
                if abs(n) <= band
            )
    return rows


def sopw_point_sum(k: int, j: int, x: float, basis) -> complex:
    """Pointwise value by direct summation of the sparse Fourier table."""
    length = basis.num_shifts
    total = 0.0 + 0.0j
    for n, c in sopw_fourier_coeffs(k, j, basis):
        total += c * cmath.exp(2j * math.pi * n * x / length) / math.sqrt(length)
    return total


def sopw_derivative_samples(k, ell, basis, grid_size, order):
    """Derivative samples by differentiating the sparse Fourier table."""
    length = basis.num_shifts
    x = np.arange(grid_size) * length / grid_size
    total = np.zeros(grid_size, dtype=np.complex128)
    for n, c in sopw_fourier_coeffs(k, ell, basis):
        factor = (2j * math.pi * n / length) ** order
        total += c * factor * np.exp(2j * math.pi * n * x / length) / math.sqrt(length)
    return total


def theta_energy(basis) -> float:
    """Kinetic energy of the depth-1 generator from its coefficient table."""
    length = basis.num_shifts
    return sum(
        abs(c) ** 2 * 2.0 * (math.pi * n / length) ** 2
        for n, c in sopw_fourier_coeffs(1, 0, basis)
    )


def random_real_tensor(domain: LatticeDomain, rng) -> CoeffTensor:
    return CoeffTensor(domain, rng.standard_normal(domain.size).astype(complex))


def engineered_degenerate_real(domain: LatticeDomain, rng) -> CoeffTensor:
    """Real tensor whose transform columns vanish at every nonzero frequency.

    Depth slices constant along the shift axes concentrate the whole
    transform at frequency zero, so all other columns hit the fallback
    branch exactly.
    """
    values = rng.standard_normal(domain.depth_count)
    grid = np.repeat(values, domain.shift_count).reshape(domain.grid_shape)
    return CoeffTensor(domain, grid.astype(complex).reshape(-1))


def grid_bregman_reference(prev, cfg, basis):
    """``cfg.max_iter`` split-Bregman steps with the projection on tensors.

    Every field lives on the grid, and each step runs the Helmholtz solve,
    then ``analyze_grid``, ``project_sso`` (``project_sso_orth`` against the
    modes in ``prev``), ``synthesize_grid``, the shrink and the Bregman
    updates; no convergence test.  Returns ``(coeffs, samples,
    energy_history)`` of the last projection.
    """
    modes = [mode.coeffs for mode in prev.modes]

    def project(samples):
        tensor, _ = analyze_grid(samples, basis)
        projected = project_sso_orth(tensor, modes) if modes else project_sso(tensor)
        return projected, synthesize_grid(projected, grid_size, basis).real

    mu, lam, r, grid_size = cfg.resolve(basis, len(modes))
    period = float(basis.num_shifts)
    threshold = 0.0 if math.isinf(mu) else 1.0 / (lam * mu)
    _, psi = project(_initial_field(cfg, basis, grid_size))
    u, v = psi.copy(), psi.copy()
    D, B = np.zeros(grid_size), np.zeros(grid_size)
    energies = []
    for _ in range(cfg.max_iter):
        psi = helmholtz_solve(lam * (u - D) + r * (v - B), lam, r, period)
        projected, v = project(psi + B)
        u = shrink(psi + D, threshold)
        D = D + psi - u
        B = B + psi - v
        energies.append(cpw_energy(v, mu, period))
    return projected, v, np.asarray(energies)
