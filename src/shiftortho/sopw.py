"""Shift Orthogonal Plane Waves: an explicit 1D shift-orthogonal basis.

Each basis element lives on a frequency shell (its depth index) and is a
lattice translate of the shell generator (its shift index).  The family is
defined through exact Fourier coefficients, so synthesis and analysis on a
periodic grid reduce to sparse re-indexing plus FFTs.  This module builds
those coefficient tables, converts between Fourier and basis coefficients,
evaluates the closed pointwise forms, expands first/second derivatives over
neighbouring shells, and runs the numerical primal-dual certificate showing
the depth-1 generator minimizes kinetic energy among shift-orthogonal
functions.

Only even shift counts are supported; the half-shell edge frequencies that
make the construction work do not exist for odd counts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .btransform import b_inverse, b_transform
from .lattice import CoeffTensor, LatticeDomain

# Powers of the imaginary unit, exact.
_IPOW = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

# Below this, the Dirichlet-kernel ratio in the closed forms switches to its
# removable-singularity limit to avoid catastrophic cancellation.
_SINGULARITY_EPS = 1e-8


class AliasingError(ValueError):
    """Grid too coarse for the basis band limit."""


@dataclass(frozen=True)
class SopwBasis1D:
    """One-dimensional basis family: ``num_shifts`` per period, ``depth_cap`` shells."""

    num_shifts: int
    depth_cap: int

    def __post_init__(self):
        object.__setattr__(self, "num_shifts", int(self.num_shifts))
        object.__setattr__(self, "depth_cap", int(self.depth_cap))
        if self.num_shifts < 2 or self.num_shifts % 2 != 0:
            raise ValueError(
                f"shift count must be even and >= 2, got {self.num_shifts}"
            )
        if self.depth_cap < 1:
            raise ValueError("depth cap must be >= 1")

    @property
    def band_limit(self) -> int:
        """Largest represented Fourier mode number."""
        return self.depth_cap * self.num_shifts // 2

    @property
    def domain(self) -> LatticeDomain:
        return LatticeDomain((self.num_shifts,), (self.depth_cap,))

    def default_grid(self) -> int:
        # Oversampling factor 2 over the Nyquist requirement.
        return 2 * self.depth_cap * self.num_shifts


@dataclass
class FourierRep:
    """Truncated Fourier coefficients ``a(n)`` for ``|n| <= band_limit``."""

    num_shifts: int
    depth_cap: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128).reshape(-1)
        expected = self.num_shifts * self.depth_cap + 1
        if coeffs.size != expected:
            raise ValueError(f"expected {expected} coefficients, got {coeffs.size}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, num_shifts: int, depth_cap: int) -> "FourierRep":
        return cls(num_shifts, depth_cap,
                   np.zeros(num_shifts * depth_cap + 1, dtype=np.complex128))

    @property
    def band_limit(self) -> int:
        return self.num_shifts * self.depth_cap // 2

    def index(self, n: int) -> int:
        if abs(n) > self.band_limit:
            raise IndexError(f"mode {n} outside band |n| <= {self.band_limit}")
        return n + self.band_limit

    def get(self, n: int) -> complex:
        return complex(self.coeffs[self.index(n)])

    def set(self, n: int, value: complex) -> None:
        self.coeffs[self.index(n)] = value


def _sign_i_pow(n: int, p: int) -> complex:
    """``(sgn(n) * i) ** p`` for integer ``p >= 0``; ``n == 0`` only with ``p == 0``."""
    w = _IPOW[p % 4]
    return w if n >= 0 else w.conjugate()


def sopw_fourier_coeffs(k: int, j: int, basis: SopwBasis1D):
    """Sparse Fourier coefficients of basis element (depth ``k``, shift ``j``).

    Returns a list of ``(n, coefficient)`` pairs sorted by mode number.
    Interior modes of shell ``k`` carry weight ``1/sqrt(L)``; the two
    half-shell edge modes shared with the neighbouring shells carry
    ``1/sqrt(2L)``.  Depths up to ``depth_cap + 1`` are available so the
    shell just above the cap can be tabulated.
    """
    num_shifts = basis.num_shifts
    if not 1 <= k <= basis.depth_cap + 1:
        raise ValueError(f"depth {k} outside 1..{basis.depth_cap + 1}")
    if not 0 <= j < num_shifts:
        raise ValueError(f"shift {j} outside 0..{num_shifts - 1}")
    half = num_shifts // 2
    interior_weight = 1.0 / math.sqrt(num_shifts)
    edge_weight = 1.0 / math.sqrt(2 * num_shifts)
    if k == 1:
        interior = range(-(half - 1), half)
        edges = (-half, half)
    else:
        low, high = (k - 1) * half, k * half
        interior = [n for n in range(-high + 1, high) if abs(n) > low]
        edges = (-high, -low, low, high)
    entries = []
    for n in interior:
        phase = cmath.exp(-2j * math.pi * j * n / num_shifts)
        entries.append((n, _sign_i_pow(n, k - 1) * phase * interior_weight))
    for n in edges:
        phase = cmath.exp(-2j * math.pi * j * n / num_shifts)
        entries.append((n, _sign_i_pow(n, k - 1) * phase * edge_weight))
    entries.sort(key=lambda item: item[0])
    return entries


@dataclass(frozen=True)
class _BandTables:
    """Two-term gathers between band modes and B-transform columns.

    Every mode of the band ``|n| <= band_limit`` belongs to one shell as
    interior or upper edge and, if it is an edge, also to the next shell
    (shell ``depth_cap + 1`` is the virtual one above the cap).  Mode ``n``
    feeds transform column ``j = -n mod L`` of each shell owning it, so
    every (shell, column) slot has one interior mode or the two edge modes
    ``+-n`` as sources, and every mode has one or two slots.  Rows of
    ``*_src`` index the source array; the matching ``*_weight`` entries are
    zero where a slot or mode has a single partner.  Analysis weights are
    ``L`` times the conjugate synthesis coefficients.
    """

    gather_src: np.ndarray  # (2, depth_cap + 1, L) into band modes
    gather_weight: np.ndarray
    scatter_src: np.ndarray  # (2, band size) into flat (depth_cap, L) columns
    scatter_weight: np.ndarray


def _pair_table(targets: np.ndarray, sources: np.ndarray, weights: np.ndarray,
                size: int):
    """Two-row gather giving each of ``size`` targets its one or two sources."""
    order = np.argsort(targets, kind="stable")
    targets, sources, weights = targets[order], sources[order], weights[order]
    repeat = np.zeros(targets.size, dtype=bool)
    repeat[1:] = targets[1:] == targets[:-1]
    src = np.zeros((2, size), dtype=np.intp)
    weight = np.zeros((2, size), dtype=np.complex128)
    for row, pick in enumerate((~repeat, repeat)):
        src[row, targets[pick]] = sources[pick]
        weight[row, targets[pick]] = weights[pick]
    return src, weight


@lru_cache(maxsize=64)
def _band_tables(basis: SopwBasis1D) -> _BandTables:
    num_shifts, depth_cap = basis.num_shifts, basis.depth_cap
    band = basis.band_limit
    # One entry per (shell, band mode) pair: the shift-0 coefficient of the
    # shell generator, and the flat transform slot the mode feeds.
    entries = [
        ((k - 1) * num_shifts + (-n) % num_shifts, n + band, c)
        for k in range(1, depth_cap + 2)
        for n, c in sopw_fourier_coeffs(k, 0, basis)
        if abs(n) <= band
    ]
    slots, modes, coeffs = map(np.array, zip(*entries))
    gather_src, gather_weight = _pair_table(
        slots, modes, num_shifts * np.conj(coeffs), (depth_cap + 1) * num_shifts
    )
    in_cap = slots < depth_cap * num_shifts
    scatter_src, scatter_weight = _pair_table(
        modes[in_cap], slots[in_cap], coeffs[in_cap], 2 * band + 1
    )
    return _BandTables(
        gather_src=gather_src.reshape(2, depth_cap + 1, num_shifts),
        gather_weight=gather_weight.reshape(2, depth_cap + 1, num_shifts),
        scatter_src=scatter_src,
        scatter_weight=scatter_weight,
    )


def gather_columns(coeffs: np.ndarray, basis: SopwBasis1D):
    """B-transform columns of the basis expansion of band Fourier coefficients.

    ``coeffs`` holds ``a(n)`` for ``n = -band_limit..band_limit`` (the
    ``FourierRep`` layout).  Returns ``(columns, residual)``: the
    ``depth_cap x num_shifts`` columns of ``b_transform(fourier_to_sopw(f))``
    and the norm of the part on the shell above the cap.  Column ``j`` of
    shell ``k`` is ``L`` times the sum of the conjugate shell-``k`` weights
    times ``a(n)`` over the modes ``n = -j mod L`` that shell owns, so no
    FFT is needed.
    """
    if np.shape(coeffs) != (2 * basis.band_limit + 1,):
        raise ValueError(f"expected {2 * basis.band_limit + 1} band coefficients")
    tabs = _band_tables(basis)
    full = (tabs.gather_weight * coeffs[tabs.gather_src]).sum(axis=0)
    residual = float(np.linalg.norm(full[-1])) / math.sqrt(basis.num_shifts)
    return full[:-1], residual


def scatter_columns(columns: np.ndarray, basis: SopwBasis1D) -> np.ndarray:
    """Band Fourier coefficients of the tensor with B-transform ``columns``.

    Inverse of :func:`gather_columns` inside the cap: equals
    ``sopw_to_fourier(b_inverse(columns)).coeffs``.
    """
    if np.shape(columns) != (basis.depth_cap, basis.num_shifts):
        raise ValueError(
            f"expected {basis.depth_cap} x {basis.num_shifts} transform columns"
        )
    tabs = _band_tables(basis)
    flat = np.reshape(columns, -1)
    return (tabs.scatter_weight * flat[tabs.scatter_src]).sum(axis=0)


def fourier_to_sopw(f: FourierRep, basis: SopwBasis1D):
    """Expand a band-limited Fourier representation over the basis.

    Returns ``(tensor, residual)``.  The residual is the norm of the
    component living on the shell just above the depth cap: the topmost
    edge modes are shared with that shell, so part of them cannot be
    represented and is reported instead of silently dropped.
    """
    if (f.num_shifts, f.depth_cap) != (basis.num_shifts, basis.depth_cap):
        raise ValueError("Fourier representation does not match basis sizes")
    columns, residual = gather_columns(f.coeffs, basis)
    return b_inverse(CoeffTensor._trusted(basis.domain, columns)), residual


def sopw_to_fourier(t: CoeffTensor, basis: SopwBasis1D) -> FourierRep:
    """Superpose the sparse per-element Fourier coefficients of a tensor."""
    if t.domain != basis.domain:
        raise ValueError("tensor domain does not match basis")
    coeffs = scatter_columns(b_transform(t).grid, basis)
    return FourierRep(basis.num_shifts, basis.depth_cap, coeffs)


def eval_closed_form(k: int, j: int, x: float, basis: SopwBasis1D) -> float:
    """Pointwise value of basis element (depth ``k``, shift ``j``) at ``x``.

    Uses the closed Dirichlet-kernel forms; the removable singularity of
    the kernel ratio at lattice points is replaced by its limit.  ``x``
    outside one period is reduced by periodicity.
    """
    num_shifts = basis.num_shifts
    if k < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= j < num_shifts:
        raise ValueError(f"shift {j} outside 0..{num_shifts - 1}")
    s = (float(x) - j) % num_shifts
    if s >= num_shifts / 2:
        s -= num_shifts
    sin_base = math.sin(math.pi * s / num_shifts)
    if k == 1:
        if abs(sin_base) < _SINGULARITY_EPS:
            ratio = float(num_shifts - 1)
        else:
            ratio = math.sin(math.pi * (num_shifts - 1) * s / num_shifts) / sin_base
        return ratio / num_shifts + math.sqrt(2.0) / num_shifts * math.cos(math.pi * s)
    if abs(sin_base) < _SINGULARITY_EPS:
        ratio = num_shifts / 2.0 - 1.0
    else:
        ratio = math.sin(math.pi * (num_shifts // 2 - 1) * s / num_shifts) / sin_base
    bracket = ratio + math.sqrt(2.0) * math.cos(math.pi * s / 2.0)
    angle = math.pi * s * (2 * k - 1) / 2.0  # midpoint frequency of shell k
    if k % 2 == 0:
        sign = -1.0 if (k // 2) % 2 else 1.0
        envelope = sign * math.sin(angle)
    else:
        sign = -1.0 if ((k - 1) // 2) % 2 else 1.0
        envelope = sign * math.cos(angle)
    return 2.0 / num_shifts * envelope * bracket


def synthesize_grid(t: CoeffTensor, grid_size: int, basis: SopwBasis1D) -> np.ndarray:
    """Samples of the represented function at ``m * period / grid_size``."""
    rep = sopw_to_fourier(t, basis)
    return fourier_samples(rep, grid_size)


def fourier_samples(rep: FourierRep, grid_size: int) -> np.ndarray:
    """Evaluate a truncated Fourier representation on a uniform grid."""
    band = rep.band_limit
    if grid_size < 2 * band + 1:
        raise AliasingError(
            f"grid size {grid_size} below Nyquist requirement {2 * band + 1}"
        )
    slots = np.zeros(grid_size, dtype=np.complex128)
    n_values = np.arange(-band, band + 1)
    slots[np.mod(n_values, grid_size)] = rep.coeffs / math.sqrt(rep.num_shifts)
    return np.fft.ifft(slots) * grid_size


def analyze_grid(samples: np.ndarray, basis: SopwBasis1D):
    """Expand grid samples over the basis.

    Returns ``(tensor, residual)`` where the residual combines the energy
    of grid modes outside the representable band with the above-cap part of
    the topmost edge modes.
    """
    samples = np.ascontiguousarray(samples)
    grid_size = samples.shape[0]
    band = basis.band_limit
    if grid_size < 2 * band + 1:
        raise AliasingError(
            f"grid size {grid_size} below Nyquist requirement {2 * band + 1}"
        )
    spectrum = np.fft.fft(samples) / grid_size
    n_values = np.arange(-band, band + 1)
    slots = np.mod(n_values, grid_size)
    coeffs = math.sqrt(basis.num_shifts) * spectrum[slots]
    in_band = np.zeros(grid_size, dtype=bool)
    in_band[slots] = True
    out_of_band_sq = basis.num_shifts * float(
        np.sum(np.abs(spectrum[~in_band]) ** 2)
    )
    tensor, cap_residual = fourier_to_sopw(
        FourierRep(basis.num_shifts, basis.depth_cap, coeffs), basis
    )
    return tensor, math.sqrt(out_of_band_sq + cap_residual**2)


@dataclass(frozen=True)
class DerivativeStencil:
    """Expansion of a derivative of one basis element over nearby shells.

    ``coeffs_prev``, ``coeffs_same`` and ``coeffs_next`` multiply the
    elements of depths ``depth - 1``, ``depth`` and ``depth + 1``; the
    second derivative never leaves its own shell, so there both neighbour
    arrays are zero.
    """

    depth: int
    coeffs_prev: np.ndarray
    coeffs_same: np.ndarray
    coeffs_next: np.ndarray

    def to_coeff_tensor(self, basis: SopwBasis1D) -> CoeffTensor:
        """Materialize the expansion as a coefficient tensor on ``basis``."""
        num_shifts, depth_cap = basis.num_shifts, basis.depth_cap
        k = self.depth
        need = k + 1 if np.any(self.coeffs_next) else k
        if need > depth_cap:
            raise ValueError(
                f"stencil reaches depth {need}, basis caps at {depth_cap}"
            )
        grid = np.zeros((depth_cap, num_shifts), dtype=np.complex128)
        if k >= 2:
            grid[k - 2] += self.coeffs_prev
        grid[k - 1] += self.coeffs_same
        if k + 1 <= depth_cap:
            grid[k] += self.coeffs_next
        return CoeffTensor(basis.domain, grid.reshape(-1))


def first_derivative_stencil(k: int, ell: int, basis: SopwBasis1D) -> DerivativeStencil:
    """Expansion coefficients of the first derivative of element (k, ell)."""
    num_shifts = basis.num_shifts
    if k < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= ell < num_shifts:
        raise ValueError(f"shift {ell} outside 0..{num_shifts - 1}")
    offsets = (np.arange(num_shifts) - ell) % num_shifts
    prefactor = math.pi / num_shifts
    prev = -prefactor * (k - 1) * (-1.0) ** ((k - 1) * offsets)
    same = np.zeros(num_shifts)
    nonzero = offsets != 0
    angles = math.pi * offsets[nonzero] / num_shifts
    cot = np.cos(angles) / np.sin(angles)
    odd = offsets[nonzero] % 2 == 1
    same[nonzero] = prefactor * np.where(odd, (-1.0) ** k * (2 * k - 1) * cot, cot)
    nxt = prefactor * k * (-1.0) ** (k * offsets)
    return DerivativeStencil(k, prev, same, nxt)


def second_derivative_stencil(k: int, ell: int, basis: SopwBasis1D) -> DerivativeStencil:
    """Expansion coefficients of the second derivative of element (k, ell)."""
    num_shifts = basis.num_shifts
    if k < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= ell < num_shifts:
        raise ValueError(f"shift {ell} outside 0..{num_shifts - 1}")
    offsets = (np.arange(num_shifts) - ell) % num_shifts
    b_values = np.empty(num_shifts)
    nonzero = offsets != 0
    b_values[~nonzero] = (k * k - k + 1.0 / 3.0) * num_shifts**2 + 2.0 / 3.0
    csc_sq = 1.0 / np.sin(math.pi * offsets[nonzero] / num_shifts) ** 2
    odd = offsets[nonzero] % 2 == 1
    b_values[nonzero] = np.where(
        odd, (-1.0) ** k * (4 * k - 2) * csc_sq, 2.0 * csc_sq
    )
    same = -((math.pi / num_shifts) ** 2) * b_values
    zeros = np.zeros(num_shifts)
    return DerivativeStencil(k, zeros, same, zeros.copy())


def shell_moment_sums(k: int, j: int, basis: SopwBasis1D):
    """Closed forms of the weighted root-of-unity sums over one shell interior.

    Returns ``(S1, S2)`` with ``S1 = sum n w^n`` and ``S2 = sum n^2 w^n``
    over ``(k-1)L/2 < |n| < kL/2``, ``w`` the ``j``-th root of unity.
    """
    num_shifts = basis.num_shifts
    if k < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= j < num_shifts:
        raise ValueError(f"shift {j} outside 0..{num_shifts - 1}")
    length = float(num_shifts)
    if j == 0:
        s1 = 0.0 + 0.0j
        s2 = (length - 2.0) * length * ((3 * k * k - 3 * k + 1) * length - 1.0) / 12.0
        return s1, complex(s2)
    angle = math.pi * j / num_shifts
    if j % 2 == 1:
        sign = (-1.0) ** k
        s1 = -0.5j * length * sign * (2 * k - 1) / math.tan(angle)
        s2 = (
            0.5 * length * sign * (2 * k - 1) / math.sin(angle) ** 2
            - sign * (2 * k - 1) * length**2 / 4.0
        )
    else:
        s1 = -0.5j * length / math.tan(angle)
        s2 = (
            0.5 * length / math.sin(angle) ** 2
            - (k * k + (k - 1) * (k - 1)) * length**2 / 4.0
        )
    return complex(s1), complex(s2)


@dataclass(frozen=True)
class CertificateReport:
    """Numerical primal-dual optimality certificate for the depth-1 generator.

    The candidate squared-coefficient vector is checked for primal
    feasibility against the cosine moment constraints, a dual vector is
    solved from the leading moment columns, and dual feasibility plus
    complementary slackness are verified on a finite tail of the
    (in principle infinite) frequency axis.  Slack entries grow with the
    kinetic eigenvalues, so a clean prefix plus a nonnegative tail at this
    scale is the full content of the finite check.
    """

    num_shifts: int
    tail_periods: int
    primal_residual: float
    solve_residual: float
    condition_number: float
    dual_min_slack: float
    complementary_slackness: float
    prefix_slack_max: float
    primal_objective: float
    dual_objective: float
    primal_ok: bool
    solve_ok: bool
    dual_ok: bool
    slackness_ok: bool
    prefix_ok: bool

    @property
    def all_passed(self) -> bool:
        return (self.primal_ok and self.solve_ok and self.dual_ok
                and self.slackness_ok and self.prefix_ok)


def verify_variational_certificate(basis: SopwBasis1D,
                                   tail_periods: int = 10) -> CertificateReport:
    """Run the primal-dual optimality check for the depth-1 generator.

    ``tail_periods`` controls how many periods of the frequency axis the
    dual-slack nonnegativity is checked on (at least 2).
    """
    if tail_periods < 2:
        raise ValueError("tail_periods must be >= 2")
    num_shifts = basis.num_shifts
    half = num_shifts // 2
    total = tail_periods * num_shifts + 1
    eigenvalues = 2.0 * (math.pi * np.arange(total) / num_shifts) ** 2

    candidate = np.zeros(total)
    candidate[0] = 1.0 / num_shifts
    candidate[1:half] = 2.0 / num_shifts
    candidate[half] = 1.0 / num_shifts

    # Constraint matrix: cosine moments, periodic in the column index.
    rows = np.arange(num_shifts)[:, None]
    cols = np.arange(total)[None, :] % num_shifts
    constraints = np.cos(2.0 * math.pi * rows * cols / num_shifts)
    target = np.zeros(num_shifts)
    target[0] = 1.0
    primal_residual = float(np.abs(constraints @ candidate - target).max())

    leading = constraints[:, : half + 1]
    condition_number = float(np.linalg.cond(leading))
    dual, *_ = np.linalg.lstsq(leading.T, eigenvalues[: half + 1], rcond=None)
    solve_residual = float(
        np.abs(leading.T @ dual - eigenvalues[: half + 1]).max()
    )

    slack = eigenvalues - constraints.T @ dual
    dual_min_slack = float(slack.min())
    complementary_slackness = float(abs(slack @ candidate))
    prefix_slack_max = float(np.abs(slack[: half + 1]).max())

    return CertificateReport(
        num_shifts=num_shifts,
        tail_periods=tail_periods,
        primal_residual=primal_residual,
        solve_residual=solve_residual,
        condition_number=condition_number,
        dual_min_slack=dual_min_slack,
        complementary_slackness=complementary_slackness,
        prefix_slack_max=prefix_slack_max,
        primal_objective=float(eigenvalues @ candidate),
        dual_objective=float(dual[0]),
        primal_ok=primal_residual <= 1e-12,
        solve_ok=solve_residual <= 1e-10,
        dual_ok=dual_min_slack >= -1e-10,
        slackness_ok=complementary_slackness <= 1e-10,
        prefix_ok=prefix_slack_max <= 1e-10,
    )
