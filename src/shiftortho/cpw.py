"""Split-Bregman solver for compressed plane wave modes in one dimension.

Each mode minimizes an L1-regularized kinetic energy subject to shift
orthogonality and, for higher modes, perpendicularity to the shift span of
the modes already found.  The constrained subproblem is an exact
per-column projection; the quadratic subproblem is a diagonal Helmholtz
division in Fourier space; the L1 subproblem is pointwise soft
thresholding on the grid.

The projection never leaves Fourier-bucket coordinates: the B-transform
columns of the basis expansion of a band-limited field are its Fourier
coefficients grouped by residue class mod the shift count, so projecting a
field's spectrum is one block product per class into columns, a scaling
to unit norm and one back.  Once per solve, each class's analysis rows,
with the earlier modes' deflation folded in, are stacked on its projector
(synthesis times analysis): one product per class gives the column
norms, the residual and the unscaled projected values.  The start and
every iteration take this one route; when a column vanishes, the
product's columns go through the kernel's normalize, for its fallbacks,
and are synthesized from there.
Grid fields stay real; the feasibility iterate, its Bregman variable and
the projected field are kept as full-length ``norm="forward"`` spectra,
the band map's scale (so the inverse FFT skips its scaling pass), in
buffers allocated once per solve.  The projected spectrum is written on
the band slots only and stays zero off them, so the updates by it are
full-length in-place ufuncs.  Each iteration takes two grid FFTs: a forward
one for the Helmholtz right-hand side, and one inverse FFT of ``psi_hat +
i v_hat`` whose real and imaginary parts are the field for the shrink and
the projected field for the L1 term.  Since that packing hides the
imaginary part of the projected field, the realness diagnostic
``max_imag`` is an upper bound on it computed from the band coefficients'
departure from Hermitian symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .btransform import b_inverse
from .lattice import CoeffTensor, DomainMismatchError, _integer
from .projection import (
    DEFAULT_CONFIG,
    InfeasibleDeflationError,
    ModeSpan,
    is_shift_orthogonal,
    normalize_columns,
)
from .sopw import BandMap, SopwBasis1D, _squared_residual, band_map, synthesize_spectrum

# Not called by the loop, but kept importable from this module:
# perfbench/spans.py rebinds these names here when it traces a solve.
from .btransform import b_transform  # noqa: F401
from .projection import check_shift_perpendicular, project_sso, project_sso_orth  # noqa: F401
from .sopw import analyze_grid, synthesize_grid  # noqa: F401

_SUPPORT_LEVEL = 1e-3
_TINY = np.finfo(float).tiny

# Iterations whose diagnostics are reduced together from fixed row buffers.
_BLOCK = 64

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
    the finite Bregman penalties on the sparsity and feasibility splits;
    left at ``None`` they scale with the kinetic curvature at the top of
    the shell the next mode should occupy (mode ``n+1`` after ``n``
    deflations).
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
        if self.grid_size is not None:
            _integer(self.grid_size, "grid_size")
        if not self.mu > 0:
            raise ValueError("mu must be positive (inf allowed)")
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError("lam must be finite and positive")
        if self.r is not None and not 0 < self.r < math.inf:
            raise ValueError("r must be finite and positive")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if _integer(self.max_iter, "max_iter") < 1:
            raise ValueError("max_iter must be >= 1")
        if self.init not in ("gaussian", "random"):
            raise ValueError("init must be 'gaussian' or 'random'")
        if _integer(self.seed, "seed") < 0:
            raise ValueError("seed must be >= 0")

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
    # ADMM residuals (Boyd et al. 2011, sec. 3.3): primal |psi - v| / |v| and
    # |psi - u| / |psi|, dual lam |u - u_prev| + r |v - v_prev| (L2 norm).
    primal_v_history: np.ndarray
    primal_u_history: np.ndarray
    dual_history: np.ndarray


class CpwModeSet:
    """Solved modes on a basis; their :class:`ModeSpan` checks each one added."""

    def __init__(self, basis: SopwBasis1D):
        self.span = ModeSpan(basis.domain)
        self.modes: list[CpwMode] = []

    def __len__(self) -> int:
        return len(self.modes)

    def add(self, mode: CpwMode) -> None:
        self.span.add(mode.coeffs)
        self.modes.append(mode)


def _kinetic_symbol(grid_size: int, length: float) -> np.ndarray:
    """Eigenvalues of ``-0.5 laplacian`` on the grid's FFT modes."""
    if not 0 < length < math.inf:
        raise ValueError("length must be finite and positive")
    modes = np.fft.fftfreq(grid_size, d=1.0 / grid_size)
    return 2.0 * (math.pi * modes / length) ** 2


def helmholtz_solve(rhs: np.ndarray, lam: float, r: float, length: float) -> np.ndarray:
    """Solve ``(-0.5 laplacian + lam + r) psi = rhs`` on a periodic grid."""
    if not 0 < lam + r < math.inf:
        raise ValueError("lam + r must be finite and positive")
    rhs = np.asarray(rhs)
    symbol = _kinetic_symbol(rhs.shape[0], length)
    out = np.fft.ifft(np.fft.fft(rhs) / (symbol + lam + r))
    return out.real if np.isrealobj(rhs) else out


def shrink(w: np.ndarray, threshold: float, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise soft thresholding: ``w`` moved ``threshold`` towards zero, or zero.

    ``out``, if given, receives the result; it may be ``w`` itself.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(w)
    # w - clip(w, -t, t); the two ufuncs cost a third of np.clip's wrapper.
    # Clipping in one fresh temporary needs no overlap test against out.
    clipped = np.maximum(w, -threshold)
    return np.subtract(w, np.minimum(clipped, threshold, out=clipped), out=out)


def cpw_energy(psi: np.ndarray, mu: float, length: float) -> float:
    """Objective value ``(1/mu) * integral |psi| + kinetic energy``.

    The L1 term uses periodic trapezoidal quadrature; the kinetic term is
    evaluated spectrally, exact for band-limited fields.  ``mu = inf``
    drops the L1 term.
    """
    if not mu > 0:
        raise ValueError("mu must be positive (inf allowed)")
    psi = np.asarray(psi)
    symbol = _kinetic_symbol(psi.shape[0], length)
    return float(_energy(psi, np.fft.fft(psi, norm="forward"), symbol, mu, length))


def _energy(samples: np.ndarray, spectrum: np.ndarray, symbol: np.ndarray,
            mu: float, length: float):
    """:func:`cpw_energy` given the samples' ``norm="forward"`` FFT as well.

    Works along the last axis, row by row.  ``spectrum`` and ``symbol``
    may be restricted to any set of grid modes that holds every nonzero
    FFT value, such as the band slots.
    """
    kinetic = length * (np.abs(spectrum) ** 2 * symbol).sum(axis=-1)
    if math.isinf(mu):
        return kinetic
    l1 = (length / samples.shape[-1]) * np.abs(samples).sum(axis=-1)
    return l1 / mu + kinetic


def support_fraction(samples: np.ndarray) -> float:
    """Fraction of grid points above ``1e-3`` times the peak magnitude."""
    magnitude = np.abs(samples)
    peak = magnitude.max()
    if peak == 0.0:
        return 0.0
    return float(np.count_nonzero(magnitude > _SUPPORT_LEVEL * peak)) / samples.shape[0]


def _imag_bound(band_spectrum: np.ndarray):
    """Upper bound on ``max |Im ifft(spectrum)|`` for a band-supported spectrum.

    ``band_spectrum`` holds the ``norm="forward"`` grid FFT values of modes
    ``-band..band`` along its last axis, all others being zero.  The
    imaginary part of the inverse FFT is ``1/(2i)`` times the sum over
    modes of ``c(k) - conj c(-k)`` times a unit phase, so its magnitude is
    at most half the sum of those differences' magnitudes.
    """
    mirror = band_spectrum[..., ::-1].conj()
    return np.abs(band_spectrum - mirror).sum(axis=-1) / 2


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _fused_blocks(bands: BandMap, mode_columns: list[np.ndarray]):
    """Per class, the analysis rows (cap last) stacked on the projector ``S_j A_j[:N]``.

    With modes, a copy of the rows of shells 1..depth_cap is deflated by
    ``I - Q_j Q_j^H``, ``Q_j`` stacking the mode columns at frequency ``j``.
    Also a product buffer and its column, cap and flat views, the class
    gather index, each band mode's place in the flat product and its class.
    """
    depth_cap, width = bands.synthesis.shape[2], bands.classes.shape[1]
    analysis = bands.analysis
    if mode_columns:
        q = np.stack(mode_columns, axis=-1).transpose(1, 0, 2)
        analysis = analysis.copy()
        analysis[:, :-1] -= q @ (q.conj().transpose(0, 2, 1) @ analysis[:, :-1])
    blocks = np.concatenate([analysis, bands.synthesis @ analysis[:, :-1]], axis=1)
    products = np.empty(blocks.shape[:2] + (1,), dtype=np.complex128)
    mode_class = bands.order // width
    order = mode_class * blocks.shape[1] + depth_cap + 1 + bands.order % width
    return (blocks, products, products[:, :depth_cap, 0], products[:, depth_cap, 0],
            products.reshape(-1), bands.classes[:, :, None], order, mode_class)


def _fused_project(spectrum: np.ndarray, bands: BandMap, fused, eps: float,
                   mode_columns: list[np.ndarray], out: np.ndarray):
    """The projected band spectrum into ``out``, from one product per class.

    Returns the column norms and the squared analysis residual.  When some
    norm is at most ``eps``, a contiguous copy of the columns goes through
    :func:`normalize_columns` instead, for the kernel's fallbacks; the unit
    columns are written back into the product and the norms returned are one.
    """
    blocks, products, columns, cap, flat, gather, order, mode_class = fused
    np.matmul(blocks, spectrum[gather], out=products)
    norms = np.sqrt(np.vecdot(columns, columns).real)
    # The ufunc reduction skips ndarray.min's Python wrapper.
    if np.minimum.reduce(norms) <= eps:
        unit = columns.T.copy()
        normalize_columns(unit, mode_columns=mode_columns)
        columns[...] = unit.T
        out[...] = synthesize_spectrum(unit, bands)
        norms = np.ones_like(norms)
    else:
        np.multiply(flat[order], (1.0 / norms)[mode_class], out=out)
    return norms, _squared_residual(cap, spectrum, bands)


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
    ``diagnostics.converged`` is False).  A mode set on another basis's
    domain raises :class:`DomainMismatchError` before any work.
    """
    if prev is None:
        prev = CpwModeSet(basis)
    domain = basis.domain
    if prev.span.domain != domain:
        raise DomainMismatchError("mode set domain does not match the basis domain")
    if len(prev) >= domain.depth_count:
        raise InfeasibleDeflationError(
            f"{len(prev)} modes exhaust {domain.depth_count} depth dimensions"
        )
    mu, lam, r, grid_size = cfg.resolve(basis, len(prev))
    period = float(basis.num_shifts)
    threshold = 0.0 if math.isinf(mu) else 1.0 / (lam * mu)
    symbol = _kinetic_symbol(grid_size, period)
    # The Helmholtz division, folded into the two penalty weights; complex,
    # so that their products with spectra skip a cast on every iteration.
    lam_h = (lam / (symbol + lam + r)).astype(np.complex128)
    r_h = (r / (symbol + lam + r)).astype(np.complex128)
    mode_columns = prev.span.columns
    eps = DEFAULT_CONFIG.resolve_eps(domain.depth_count)
    bands = band_map(basis, grid_size)
    # The loop's forward FFT stays unnormalized (norm="forward" adds a scaling
    # pass, ~1.5 of ~9 us at 512 points on numpy 2.4.6), so lam_h takes 1/grid_size.
    lam_h /= grid_size
    band_symbol = symbol[bands.slots]
    fused = _fused_blocks(bands, mode_columns)

    # Row i holds iteration i of a block (psi + i v as the inverse FFT wrote
    # it, u, v's band values); row 0 carries the row before, for the dual.
    fields = np.empty((_BLOCK + 1, grid_size), dtype=np.complex128)
    u_rows = np.empty((_BLOCK + 1, grid_size))
    band_rows = np.empty((_BLOCK + 1, bands.slots.size), dtype=np.complex128)
    blocks = []

    def reduce_block(last):
        """Append the diagnostics of rows ``1..last``; carry row ``last`` to row 0."""
        psi, v, u = fields[: last + 1].real, fields[: last + 1].imag, u_rows[: last + 1]
        blocks.append((
            _energy(v[1:], band_rows[1 : last + 1], band_symbol, mu, period),
            _imag_bound(band_rows[1 : last + 1]).max(keepdims=True),
            _row_norms(psi[1:] - v[1:]) / _row_norms(v[1:]),
            _row_norms(psi[1:] - u[1:]) / _row_norms(psi[1:]),
            math.sqrt(period / grid_size)
            * (lam * _row_norms(np.diff(u, axis=0)) + r * _row_norms(np.diff(v, axis=0))),
        ))
        fields[0], u_rows[0] = fields[last], u_rows[last]

    # The step's fixed buffers: u - D in the real part of a complex field,
    # its spectrum (also the scratch for products of full-length spectra),
    # psi_hat, B_hat (w_hat = psi_hat + B_hat until the projection is
    # subtracted), the projected spectrum v_hat, D, w = psi + D and psi's
    # step.  v_hat is written on the band slots only and stays zero off
    # them, so full-length updates by v_hat add exact zeros there.
    field, spectrum, psi_hat, B_hat, v_hat = np.zeros((5, grid_size), dtype=np.complex128)
    D, w, step = np.zeros((3, grid_size))
    field_real = field.real
    fft, ifft = np.fft.fft, np.fft.ifft
    # Row 0 of band_rows is never reduced, so the start's projection goes there.
    _fused_project(fft(_initial_field(cfg, basis, grid_size), norm="forward"), bands, fused,
                   eps, mode_columns, band_rows[0])
    v_hat[bands.slots] = psi_hat[bands.slots] = band_rows[0]
    psi = u = ifft(psi_hat, norm="forward").real
    fields[0], u_rows[0] = psi + 1j * psi, psi
    rel_change_history = []
    converged = False
    max_squared = 0.0
    for iteration in range(1, cfg.max_iter + 1):
        row = (iteration - 1) % _BLOCK + 1
        if row == 1 and iteration > 1:
            reduce_block(_BLOCK)
        previous_psi = psi
        np.subtract(u, D, out=field_real)
        fft(field, out=spectrum)
        np.multiply(lam_h, spectrum, out=psi_hat)
        psi_hat -= np.multiply(r_h, B_hat, out=spectrum)
        psi_hat += np.multiply(r_h, v_hat, out=spectrum)

        B_hat += psi_hat
        norms, squared = _fused_project(B_hat, bands, fused, eps, mode_columns, band_rows[row])
        max_squared = max(max_squared, squared)
        v_hat[bands.slots] = band_rows[row]
        B_hat -= v_hat

        # psi and v are real, so one inverse FFT of psi_hat + i v_hat
        # carries psi in its real part and v in its imaginary part.
        psi_hat += np.multiply(1j, v_hat, out=spectrum)
        psi = ifft(psi_hat, norm="forward", out=fields[row]).real

        np.add(psi, D, out=w)
        u = shrink(w, threshold, out=u_rows[row])
        np.subtract(w, u, out=D)

        np.subtract(psi, previous_psi, out=step)
        denominator = max(math.sqrt(psi @ psi), _TINY)
        rel_change = math.sqrt(step @ step) / denominator
        rel_change_history.append(rel_change)
        if rel_change <= cfg.tol:
            converged = True
            break
    unit = fused[2].T * (1.0 / norms)  # the last projection's unit columns
    v = fields[row].imag.copy()
    reduce_block(row)
    energy, imag, primal_v, primal_u, dual = map(np.concatenate, zip(*blocks))

    coeffs = b_inverse(CoeffTensor(domain, unit.reshape(-1)))
    report = is_shift_orthogonal(coeffs)
    mode = CpwMode(coeffs=coeffs, samples=v)
    diagnostics = CpwDiagnostics(
        converged=converged,
        iterations=iteration,
        final_violation=report.max_constraint_violation,
        energy_history=energy,
        rel_change_history=np.asarray(rel_change_history),
        support_fraction=support_fraction(v),
        max_analysis_residual=math.sqrt(max_squared),
        max_imag=float(imag.max()),
        primal_v_history=primal_v,
        primal_u_history=primal_u,
        dual_history=dual,
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
