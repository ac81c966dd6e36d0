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
Bregman variable are kept as spectra, and each iteration takes three grid
FFTs (the Helmholtz right-hand side, the field for the shrink, and the
projected field for the L1 term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .btransform import b_inverse, b_transform
from .lattice import CoeffTensor
from .projection import (
    DEFAULT_CONFIG,
    InfeasibleDeflationError,
    ModePreconditionError,
    ProjectionConfig,
    check_shift_perpendicular,
    is_shift_orthogonal,
    project_columns,
)
from .sopw import SopwBasis1D, gather_columns, scatter_columns

# Not called by the loop, but kept importable from this module:
# perfbench/spans.py rebinds these names here when it traces a solve.
from .projection import project_sso, project_sso_orth  # noqa: F401
from .sopw import analyze_grid, synthesize_grid  # noqa: F401

_SUPPORT_LEVEL = 1e-3
_MODE_SET_TOL = 1e-8

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
        minimum = basis.num_shifts * basis.depth_cap + 1
        if grid_size < minimum:
            raise ValueError(
                f"grid_size {grid_size} below basis requirement {minimum}"
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
    max_imag: float


class CpwModeSet:
    """Previously solved modes with cached transform columns.

    Insertion checks the invariants the deflated projection relies on:
    each mode is shift orthogonal and perpendicular to the shift span of
    every earlier mode.
    """

    def __init__(self, basis: SopwBasis1D):
        self.basis = basis
        self.modes: list[CpwMode] = []
        self._bt_columns: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def bt_stack(self) -> np.ndarray | None:
        if not self._bt_columns:
            return None
        return np.stack(self._bt_columns)

    def add(self, mode: CpwMode, tol: float = _MODE_SET_TOL) -> None:
        report = is_shift_orthogonal(mode.coeffs, tol)
        if not report.is_member:
            raise ModePreconditionError(
                f"mode violates shift orthogonality by {report.max_constraint_violation:.3e}"
            )
        for earlier in self.modes:
            perp = check_shift_perpendicular(earlier.coeffs, mode.coeffs, tol)
            if not perp.is_perpendicular:
                raise ModePreconditionError(
                    f"mode overlaps an earlier mode by {perp.max_shift_inner:.3e}"
                )
        self.modes.append(mode)
        self._bt_columns.append(b_transform(mode.coeffs).columns)


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
    """Pointwise soft thresholding."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(w)
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)


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
    """:func:`cpw_energy` given the samples' (unnormalized) FFT as well."""
    grid_size = samples.shape[0]
    spectrum = spectrum / grid_size
    kinetic = length * float(np.sum(symbol * np.abs(spectrum) ** 2))
    if math.isinf(mu):
        return kinetic
    l1 = (length / grid_size) * float(np.abs(samples).sum())
    return l1 / mu + kinetic


def support_fraction(samples: np.ndarray, level: float = _SUPPORT_LEVEL) -> float:
    """Fraction of grid points above ``level`` times the peak magnitude."""
    magnitude = np.abs(samples)
    peak = magnitude.max()
    if peak == 0.0:
        return 0.0
    return float(np.count_nonzero(magnitude > level * peak)) / samples.shape[0]


def _initial_field(cfg: CpwConfig, basis: SopwBasis1D, grid_size: int) -> np.ndarray:
    period = float(basis.num_shifts)
    x = np.arange(grid_size) * period / grid_size
    if cfg.init == "gaussian":
        width = period / (4.0 * basis.num_shifts)
        bump = np.exp(-((x - period / 2.0) ** 2) / (2.0 * width**2))
        return bump / math.sqrt((period / grid_size) * float(np.sum(bump**2)))
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal(grid_size)


def solve_cpw_mode(prev: CpwModeSet | None, cfg: CpwConfig, basis: SopwBasis1D,
                   pcfg: ProjectionConfig = DEFAULT_CONFIG):
    """Run the Bregman loop for the next mode given the already-found set.

    Returns ``(mode, diagnostics)``.  The returned mode is the final
    projection output, so it satisfies the constraints exactly up to
    rounding even when the loop stops at ``max_iter`` without converging
    (then ``diagnostics.converged`` is False).
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
    helmholtz = symbol + lam + r
    mode_columns = prev.bt_stack
    band = basis.band_limit
    slots = np.mod(np.arange(-band, band + 1), grid_size)
    outside = np.ones(grid_size, dtype=bool)
    outside[slots] = False
    # Grid FFT values on the band times this are basis Fourier coefficients.
    to_band = math.sqrt(basis.num_shifts) / grid_size

    def project(spectrum):
        """Spectrum of the projected field, its unit columns, the analysis residual."""
        columns, cap_residual = gather_columns(to_band * spectrum[slots], basis)
        unit = project_columns(columns, domain, pcfg, mode_columns)
        projected = np.zeros(grid_size, dtype=np.complex128)
        projected[slots] = scatter_columns(unit, basis) / to_band
        out_of_band = to_band * float(np.linalg.norm(spectrum[outside]))
        return projected, unit, math.hypot(out_of_band, cap_residual)

    v_hat, unit, _ = project(np.fft.fft(_initial_field(cfg, basis, grid_size)))
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
        psi_hat = (lam * np.fft.fft(u - D) + r * (v_hat - B_hat)) / helmholtz
        psi = np.fft.ifft(psi_hat).real

        v_hat, unit, residual = project(psi_hat + B_hat)
        max_residual = max(max_residual, residual)
        v = np.fft.ifft(v_hat)
        max_imag = max(max_imag, float(np.abs(v.imag).max()))
        v = v.real

        u = shrink(psi + D, threshold)
        D = D + psi - u
        B_hat = B_hat + psi_hat - v_hat

        denominator = max(float(np.linalg.norm(psi)), np.finfo(float).tiny)
        rel_change = float(np.linalg.norm(psi - previous_psi)) / denominator
        rel_change_history.append(rel_change)
        energy_history.append(_energy(v, v_hat, symbol, mu, period))
        if rel_change <= cfg.tol:
            converged = True
            break

    coeffs = b_inverse(CoeffTensor(domain, unit.reshape(-1)))
    report = is_shift_orthogonal(coeffs, _MODE_SET_TOL)
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


def solve_cpw_modes(count: int, cfg: CpwConfig, basis: SopwBasis1D,
                    pcfg: ProjectionConfig = DEFAULT_CONFIG):
    """Solve ``count`` modes sequentially; returns the set and diagnostics."""
    modes = CpwModeSet(basis)
    diagnostics = []
    for _ in range(count):
        mode, diag = solve_cpw_mode(modes, cfg, basis, pcfg)
        modes.add(mode)
        diagnostics.append(diag)
    return modes, diagnostics
