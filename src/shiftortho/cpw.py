"""Split-Bregman solver for compressed plane wave modes in one dimension.

Each mode minimizes an L1-regularized kinetic energy subject to shift
orthogonality and, for higher modes, perpendicularity to the shift span of
the modes already found.  The constrained subproblem is handled exactly by
the per-column projection kernel; the quadratic subproblem is a diagonal
Helmholtz division in Fourier space; the L1 subproblem is pointwise soft
thresholding on the grid.

The projection never leaves Fourier-bucket coordinates: the B-transform
columns of the basis expansion of a band-limited field are its Fourier
coefficients grouped by residue class mod the shift count, so projecting a
field's spectrum is a gather into columns, the column kernel and a
scatter back.  Grid fields stay real; the feasibility iterate and its
Bregman variable are kept as spectra, the projected one on the band slots
only.  Each iteration takes two grid FFTs: a forward one for the Helmholtz
right-hand side, and one inverse FFT of ``psi_hat + i v_hat`` whose real
and imaginary parts are the field for the shrink and the projected field
for the L1 term.  Since that packing hides the imaginary part of the
projected field, the realness diagnostic ``max_imag`` is an upper bound on
it computed from the band coefficients' departure from Hermitian symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .btransform import b_inverse
from .lattice import CoeffTensor
from .projection import (
    DEFAULT_CONFIG,
    InfeasibleDeflationError,
    ModeSpan,
    is_shift_orthogonal,
    normalize_columns,
)
from .sopw import SopwBasis1D, analyze_spectrum, band_slots, synthesize_spectrum

# Not called by the loop, but kept importable from this module:
# perfbench/spans.py rebinds these names here when it traces a solve.
from .btransform import b_transform  # noqa: F401
from .projection import check_shift_perpendicular, project_sso, project_sso_orth  # noqa: F401
from .sopw import analyze_grid, synthesize_grid  # noqa: F401

_SUPPORT_LEVEL = 1e-3
_TINY = np.finfo(float).tiny

# Stability margin of the default Bregman penalties over the kinetic
# curvature at the top of the target shell.  Found empirically: margins
# below ~2 limit-cycle, margin 5 still shows residual micro-oscillation on
# small domains, larger margins only slow the contraction.
_PENALTY_MARGIN = 10.0


def default_bregman_penalty(num_prior_modes: int) -> float:
    """Penalty weight for solving the mode after ``num_prior_modes`` deflations.

    Mode ``n+1`` concentrates around frequency shell ``n+1``, whose top
    kinetic eigenvalue is ``2 * (pi * (n+1) / 2)**2`` in scaled units
    (independent of the period).
    """
    shell_top = 2.0 * (math.pi * (num_prior_modes + 1) / 2.0) ** 2
    return _PENALTY_MARGIN * shell_top


@dataclass(frozen=True)
class CpwConfig:
    """Solver parameters.

    ``mu`` weights the L1 term (``inf`` drops it).  ``lam`` and ``r`` are
    the Bregman penalties on the sparsity and feasibility splits; left at
    ``None`` they scale with the kinetic curvature at the top of the shell
    the next mode should occupy (mode ``n+1`` after ``n`` deflations).
    Penalties well below that curvature let the iteration limit-cycle at
    high frequencies instead of contracting.  Convergence is declared when
    the relative change of the grid field drops below ``tol``.
    """

    mu: float = 0.5
    lam: float | None = None
    r: float | None = None
    tol: float = 1e-6
    max_iter: int = 5000
    grid_size: int | None = None
    init: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive (inf allowed)")
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.r is not None and not self.r > 0:
            raise ValueError("r must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.init not in ("gaussian", "random"):
            raise ValueError("init must be 'gaussian' or 'random'")

    def resolve(self, basis: SopwBasis1D, num_prior_modes: int = 0):
        """Concrete (mu, lam, r, grid_size) for a basis and deflation depth."""
        default_penalty = default_bregman_penalty(num_prior_modes)
        lam = self.lam if self.lam is not None else default_penalty
        r = self.r if self.r is not None else default_penalty
        grid_size = (
            self.grid_size if self.grid_size is not None else basis.default_grid()
        )
        return self.mu, lam, r, grid_size


@dataclass
class CpwMode:
    """A converged (or best-effort) mode: coefficients plus grid samples."""

    coeffs: CoeffTensor
    samples: np.ndarray


@dataclass
class CpwDiagnostics:
    converged: bool
    iterations: int
    final_violation: float
    energy_history: np.ndarray
    rel_change_history: np.ndarray
    support_fraction: float
    max_analysis_residual: float
    # Upper bound on the largest imaginary part of the projected field.
    max_imag: float


class CpwModeSet:
    """Solved modes on a basis; their :class:`ModeSpan` checks each one added."""

    def __init__(self, basis: SopwBasis1D):
        self.basis = basis
        self.span = ModeSpan(basis.domain)
        self.modes: list[CpwMode] = []

    def __len__(self) -> int:
        return len(self.modes)

    def add(self, mode: CpwMode) -> None:
        self.span.add(mode.coeffs)
        self.modes.append(mode)


def _kinetic_symbol(grid_size: int, length: float) -> np.ndarray:
    """Eigenvalues of ``-0.5 laplacian`` on the grid's FFT modes."""
    modes = np.fft.fftfreq(grid_size, d=1.0 / grid_size)
    return 2.0 * (math.pi * modes / length) ** 2


def helmholtz_solve(rhs: np.ndarray, lam: float, r: float, length: float) -> np.ndarray:
    """Solve ``(-0.5 laplacian + lam + r) psi = rhs`` on a periodic grid."""
    if lam + r <= 0:
        raise ValueError("lam + r must be positive; the operator is singular")
    rhs = np.asarray(rhs)
    symbol = _kinetic_symbol(rhs.shape[0], length)
    out = np.fft.ifft(np.fft.fft(rhs) / (symbol + lam + r))
    return out.real if np.isrealobj(rhs) else out


def shrink(w: np.ndarray, threshold: float) -> np.ndarray:
    """Pointwise soft thresholding: ``w`` moved ``threshold`` towards zero, or zero."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(w)
    # w - clip(w, -t, t); the two ufuncs cost a third of np.clip's wrapper.
    return w - np.minimum(np.maximum(w, -threshold), threshold)


def cpw_energy(psi: np.ndarray, mu: float, length: float) -> float:
    """Objective value ``(1/mu) * integral |psi| + kinetic energy``.

    The L1 term uses periodic trapezoidal quadrature; the kinetic term is
    evaluated spectrally, exact for band-limited fields.  ``mu = inf``
    drops the L1 term.
    """
    psi = np.asarray(psi)
    symbol = _kinetic_symbol(psi.shape[0], length)
    return _energy(psi, np.fft.fft(psi), symbol, mu, length)


def _energy(samples: np.ndarray, spectrum: np.ndarray, symbol: np.ndarray,
            mu: float, length: float) -> float:
    """:func:`cpw_energy` given the samples' (unnormalized) FFT as well.

    ``spectrum`` and ``symbol`` may be restricted to any set of grid modes
    that holds every nonzero FFT value, such as the band slots.
    """
    grid_size = samples.shape[0]
    kinetic = (length / grid_size**2) * float(symbol @ np.abs(spectrum) ** 2)
    if math.isinf(mu):
        return kinetic
    l1 = (length / grid_size) * float(np.abs(samples).sum())
    return l1 / mu + kinetic


def support_fraction(samples: np.ndarray) -> float:
    """Fraction of grid points above ``1e-3`` times the peak magnitude."""
    magnitude = np.abs(samples)
    peak = magnitude.max()
    if peak == 0.0:
        return 0.0
    return float(np.count_nonzero(magnitude > _SUPPORT_LEVEL * peak)) / samples.shape[0]


def _imag_bound(band_spectrum: np.ndarray, grid_size: int) -> float:
    """Upper bound on ``max |Im ifft(spectrum)|`` for a band-supported spectrum.

    ``band_spectrum`` holds the (unnormalized) grid FFT values of modes
    ``-band..band`` in order, all others being zero.  The imaginary part of
    the inverse FFT is ``1/(2i n)`` times the sum over modes of
    ``c(k) - conj c(-k)`` times a unit phase, so its magnitude is at most
    the sum of those differences' magnitudes over ``2n``.
    """
    mirror = band_spectrum[::-1].conj()
    return float(np.abs(band_spectrum - mirror).sum()) / (2 * grid_size)


def _initial_field(cfg: CpwConfig, basis: SopwBasis1D, grid_size: int) -> np.ndarray:
    period = float(basis.num_shifts)
    x = np.arange(grid_size) * period / grid_size
    if cfg.init == "gaussian":
        width = period / (4.0 * basis.num_shifts)
        bump = np.exp(-((x - period / 2.0) ** 2) / (2.0 * width**2))
        return bump / math.sqrt((period / grid_size) * float(np.sum(bump**2)))
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal(grid_size)


def solve_cpw_mode(prev: CpwModeSet | None, cfg: CpwConfig, basis: SopwBasis1D):
    """Run the Bregman loop for the next mode given the already-found set.

    Returns ``(mode, diagnostics)``.  The returned mode is the final
    projection output (under the default :class:`ProjectionConfig`), so
    it satisfies the constraints exactly up to rounding even when the loop
    stops at ``max_iter`` without converging (then
    ``diagnostics.converged`` is False).
    """
    if prev is None:
        prev = CpwModeSet(basis)
    domain = basis.domain
    if len(prev) >= domain.depth_count:
        raise InfeasibleDeflationError(
            f"{len(prev)} modes exhaust {domain.depth_count} depth dimensions"
        )
    mu, lam, r, grid_size = cfg.resolve(basis, len(prev))
    period = float(basis.num_shifts)
    threshold = 0.0 if math.isinf(mu) else 1.0 / (lam * mu)
    symbol = _kinetic_symbol(grid_size, period)
    # The Helmholtz division, folded into the two penalty weights.
    lam_h = lam / (symbol + lam + r)
    r_h = r / (symbol + lam + r)
    mode_columns = prev.span.columns
    eps = DEFAULT_CONFIG.resolve_eps(domain)
    slots = band_slots(basis, grid_size)
    band_symbol = symbol[slots]
    band_r_h = r_h[slots]
    # The modes are fixed for the solve, so the deflation stage of the
    # column kernel becomes one batched product with the per-frequency
    # projectors I - Q_j Q_j^H (shift_count x depth x depth).
    projector = None
    if mode_columns:
        q = np.stack(mode_columns, axis=-1).transpose(1, 0, 2)
        projector = np.eye(domain.depth_count) - q @ q.conj().transpose(0, 2, 1)

    def project(spectrum):
        """Band spectrum of the projected field, its unit columns, the analysis residual."""
        columns, residual = analyze_spectrum(spectrum, slots, basis)
        if projector is not None:
            columns = np.ascontiguousarray((projector @ columns.T[:, :, None])[:, :, 0].T)
        normalize_columns(columns, eps, DEFAULT_CONFIG.fallback_vector, mode_columns)
        return synthesize_spectrum(columns, grid_size, basis), columns, residual

    # The projected spectrum v_hat is zero off the band slots, so only its
    # band values v_band are kept.
    v_band, unit, _ = project(np.fft.fft(_initial_field(cfg, basis, grid_size)))
    v_hat = np.zeros(grid_size, dtype=np.complex128)
    v_hat[slots] = v_band
    psi = np.fft.ifft(v_hat).real
    u = psi
    D = np.zeros(grid_size)
    B_hat = np.zeros(grid_size, dtype=np.complex128)
    energy_history = []
    rel_change_history = []
    converged = False
    max_residual = 0.0
    max_imag = 0.0
    for iteration in range(1, cfg.max_iter + 1):
        previous_psi = psi
        psi_hat = lam_h * np.fft.fft(u - D) - r_h * B_hat
        psi_hat[slots] += band_r_h * v_band

        w_hat = psi_hat + B_hat
        v_band, unit, residual = project(w_hat)
        max_residual = max(max_residual, residual)
        max_imag = max(max_imag, _imag_bound(v_band, grid_size))
        B_hat = w_hat
        B_hat[slots] -= v_band

        # psi and v are real, so one inverse FFT of psi_hat + i v_hat
        # carries psi in its real part and v in its imaginary part.
        psi_hat[slots] += 1j * v_band
        fields = np.fft.ifft(psi_hat)
        psi, v = fields.real, fields.imag

        w = psi + D
        u = shrink(w, threshold)
        D = w - u

        step = psi - previous_psi
        denominator = max(math.sqrt(psi @ psi), _TINY)
        rel_change = math.sqrt(step @ step) / denominator
        rel_change_history.append(rel_change)
        energy_history.append(_energy(v, v_band, band_symbol, mu, period))
        if rel_change <= cfg.tol:
            converged = True
            break

    coeffs = b_inverse(CoeffTensor(domain, unit.reshape(-1)))
    report = is_shift_orthogonal(coeffs)
    v = np.ascontiguousarray(v)
    mode = CpwMode(coeffs=coeffs, samples=v)
    diagnostics = CpwDiagnostics(
        converged=converged,
        iterations=iteration,
        final_violation=report.max_constraint_violation,
        energy_history=np.asarray(energy_history),
        rel_change_history=np.asarray(rel_change_history),
        support_fraction=support_fraction(v),
        max_analysis_residual=max_residual,
        max_imag=max_imag,
    )
    return mode, diagnostics


def solve_cpw_modes(count: int, cfg: CpwConfig, basis: SopwBasis1D):
    """Solve ``count`` modes sequentially; returns the set and diagnostics."""
    modes = CpwModeSet(basis)
    diagnostics = []
    for _ in range(count):
        mode, diag = solve_cpw_mode(modes, cfg, basis)
        modes.add(mode)
        diagnostics.append(diag)
    return modes, diagnostics
