"""Shift Orthogonal Plane Waves: an explicit 1D shift-orthogonal basis.

Each basis element lives on a frequency shell (its depth index) and is a
lattice translate of the shell generator (its shift index).  The family is
defined through exact Fourier coefficients, so the B-transform columns of
a basis expansion are the band Fourier coefficients grouped by residue
class mod the shift count: column ``j`` of every shell is a small linear
map of the band modes ``n = -j mod L`` alone.  Band coefficients are
plain arrays over the modes ``-band_limit..band_limit``.  This module
builds the coefficient tables and the band maps, which hold one analysis
and one synthesis block per residue class, analyzes and synthesizes
spectra with one batched block product each over a band map (shared by
the grid transforms and the CPW solver), evaluates the closed
pointwise forms, expands first/second derivatives over neighbouring
shells, and runs the numerical primal-dual certificate showing the
depth-1 generator minimizes kinetic energy among shift-orthogonal
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
from .lattice import CoeffTensor, LatticeDomain, _integer

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
        object.__setattr__(self, "num_shifts", _integer(self.num_shifts, "num_shifts"))
        object.__setattr__(self, "depth_cap", _integer(self.depth_cap, "depth_cap"))
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


def _sign_i_pow(n: int, p: int) -> complex:
    """``(sgn(n) * i) ** p`` for integer ``p >= 0``; ``n == 0`` only with ``p == 0``."""
    w = _IPOW[p % 4]
    return w if n >= 0 else w.conjugate()


def _check_element(k: int, j: int, basis: SopwBasis1D, top: float = math.inf) -> None:
    """Reject a depth outside ``1..top`` or a shift outside ``0..L-1``."""
    if k < 1:
        raise ValueError(f"depth {k} below 1")
    if k > top:
        raise ValueError(f"depth {k} above {top}")
    if not 0 <= j < basis.num_shifts:
        raise ValueError(f"shift {j} outside 0..{basis.num_shifts - 1}")


def sopw_fourier_coeffs(k: int, j: int, basis: SopwBasis1D):
    """Sparse Fourier coefficients of basis element (depth ``k``, shift ``j``).

    Returns a list of ``(n, coefficient)`` pairs sorted by mode number.
    Interior modes of shell ``k`` carry weight ``1/sqrt(L)``; the two
    half-shell edge modes shared with the neighbouring shells carry
    ``1/sqrt(2L)``.  Depths up to ``depth_cap + 1`` are available so the
    shell just above the cap can be tabulated.
    """
    _check_element(k, j, basis, basis.depth_cap + 1)
    num_shifts = basis.num_shifts
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
    weighted = [(n, interior_weight) for n in interior] + [(n, edge_weight) for n in edges]
    entries = []
    for n, weight in weighted:
        phase = cmath.exp(-2j * math.pi * j * n / num_shifts)
        entries.append((n, _sign_i_pow(n, k - 1) * phase * weight))
    entries.sort(key=lambda item: item[0])
    return entries


@dataclass(frozen=True)
class BandMap:
    """One analysis and one synthesis block per residue class of a source's band modes.

    The source (band coefficients, or a grid FFT) holds mode ``n`` at
    ``slots[n + band_limit]``.  Column ``j`` of every shell is a linear map
    of the class ``n = -j mod L`` alone.  Row ``j`` of ``classes`` holds
    its ``K = depth_cap + 1`` source indices in increasing mode order; a
    class one mode short ends on an index with zero block entries.  The
    analysis blocks are ``L`` times the conjugate transposed synthesis
    blocks, plus a row for the shell above the cap; both include the
    source's scale.  Off-band source entries (``outside``) count
    ``outside_weight`` times their squared magnitude in the squared
    analysis residual.
    """

    slots: np.ndarray
    classes: np.ndarray  # (L, K) into the source
    order: np.ndarray  # flat (L, K) position of each mode -band_limit..band_limit
    analysis: np.ndarray  # (L, depth_cap + 1, K): shells 1..depth_cap + 1
    synthesis: np.ndarray  # (L, K, depth_cap)
    outside: slice
    outside_weight: float


@lru_cache(maxsize=64)
def _band_tables(basis: SopwBasis1D) -> BandMap:
    num_shifts, depth_cap = basis.num_shifts, basis.depth_cap
    band = basis.band_limit
    index = np.arange(2 * band + 1)
    width = depth_cap + 1
    # Mode n = index - band is entry index // L of class -n mod L; only the
    # class of the edge modes +-band has all depth_cap + 1 entries.
    column, entry = (band - index) % num_shifts, index // num_shifts
    classes = np.zeros((num_shifts, width), dtype=np.intp)
    classes[column, entry] = index
    # The shift-0 coefficients of the shell generators, by class entry.
    coeffs = np.zeros((num_shifts, depth_cap + 1, width), dtype=np.complex128)
    for k in range(1, depth_cap + 2):
        for n, c in sopw_fourier_coeffs(k, 0, basis):
            if abs(n) <= band:
                coeffs[column[n + band], k - 1, entry[n + band]] = c
    return BandMap(index, classes, column * width + entry, num_shifts * np.conj(coeffs),
                   np.ascontiguousarray(coeffs[:, :-1].transpose(0, 2, 1)), slice(0), 0.0)


def band_map(basis: SopwBasis1D, grid_size: int) -> BandMap:
    """The :class:`BandMap` of unnormalized grid FFTs of ``grid_size`` samples."""
    band = basis.band_limit
    if grid_size < 2 * band + 1:
        raise AliasingError(f"grid size {grid_size} below Nyquist requirement {2 * band + 1}")
    slots = np.mod(np.arange(-band, band + 1), grid_size)
    tabs = _band_tables(basis)
    # Grid FFT values on the band times this are basis Fourier coefficients.
    to_band = math.sqrt(basis.num_shifts) / grid_size
    return BandMap(slots, slots[tabs.classes], tabs.order, to_band * tabs.analysis,
                   tabs.synthesis / to_band, slice(band + 1, grid_size - band), to_band**2)


def analyze_spectrum(source: np.ndarray, bands: BandMap):
    """B-transform columns of the basis expansion of the band modes in ``source``.

    Returns ``(columns, squared_residual)``.  Column ``j`` of shell ``k`` is
    ``L`` times the sum of the conjugate shell-``k`` weights times ``a(n)``
    over the modes ``n = -j mod L`` that shell owns: one block product per
    class, no FFT.  The residual is the part the expansion drops, on the
    shell above the cap (which shares the topmost edge modes) and off band.
    """
    full = (bands.analysis @ source[bands.classes][:, :, None])[:, :, 0]
    return full[:, :-1].T, _squared_residual(full[:, -1], source, bands)


def _squared_residual(cap: np.ndarray, source: np.ndarray, bands: BandMap) -> float:
    """:func:`analyze_spectrum`'s squared residual from its cap entries, one per shift."""
    outside = source[bands.outside]
    return (np.vdot(cap, cap).real / cap.size
            + bands.outside_weight * np.vdot(outside, outside).real)


def synthesize_spectrum(columns: np.ndarray, bands: BandMap) -> np.ndarray:
    """Band mode values, in order ``-band_limit..band_limit``, of the field with ``columns``."""
    return (bands.synthesis @ columns.T[:, :, None]).reshape(-1)[bands.order]


def eval_closed_form(k: int, j: int, x: float, basis: SopwBasis1D) -> float:
    """Pointwise value of basis element (depth ``k``, shift ``j``) at ``x``.

    Uses the closed Dirichlet-kernel forms; the removable singularity of
    the kernel ratio at lattice points is replaced by its limit.  ``x``
    outside one period is reduced by periodicity.
    """
    _check_element(k, j, basis)
    num_shifts = basis.num_shifts
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
    if t.domain != basis.domain:
        raise ValueError("tensor domain does not match basis")
    bands = band_map(basis, grid_size)
    spectrum = np.zeros(grid_size, dtype=np.complex128)
    spectrum[bands.slots] = synthesize_spectrum(b_transform(t).columns, bands)
    return np.fft.ifft(spectrum)


def analyze_grid(samples: np.ndarray, basis: SopwBasis1D):
    """Expand grid samples over the basis.

    Returns ``(tensor, residual)`` with the residual of
    :func:`analyze_spectrum`.
    """
    samples = np.ascontiguousarray(samples)
    bands = band_map(basis, samples.shape[0])
    columns, squared = analyze_spectrum(np.fft.fft(samples), bands)
    return b_inverse(CoeffTensor(basis.domain, columns)), math.sqrt(squared)


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
    _check_element(k, ell, basis)
    num_shifts = basis.num_shifts
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
    _check_element(k, ell, basis)
    num_shifts = basis.num_shifts
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
    _check_element(k, j, basis)
    num_shifts = basis.num_shifts
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
