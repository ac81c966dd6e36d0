"""Fast L2 projection onto the set of shift-orthogonal coefficient vectors.

The projection factors through the B-transform: every per-frequency column
of the transformed tensor is normalized to the unit sphere (with a fixed
real fallback for vanishing columns), then transformed back.  A deflated
variant projects onto the intersection with the orthogonal complement of
the shift span of previously found modes.  Both share one per-column
kernel, :func:`project_columns`, which callers already holding transform
columns (the plane wave solver) use directly.  Report-style checkers verify
membership and perpendicularity through two independent characterizations:
per-frequency column norms on the transform side and direct inner products
against cyclic shifts on the coefficient side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.fft

from .btransform import _WORKERS, b_inverse, b_transform
from .lattice import CoeffTensor, DomainMismatchError, LatticeDomain

# Direct shift loops cost O(shift_count * size); above this work estimate the
# checkers switch to the mathematically equivalent spectral route.
_DIRECT_WORK_LIMIT = 1 << 24

# Acceptance threshold for a Gram-Schmidt residual in the deflated fallback.
_FALLBACK_RESIDUAL_MIN = 1e-8

_MODE_ORTHONORMALITY_TOL = 1e-8


class InfeasibleDeflationError(ValueError):
    """More deflation modes than depth dimensions: no feasible unit vector."""


class ModePreconditionError(ValueError):
    """Supplied modes are not orthonormal per frequency column."""


class FallbackVector(enum.Enum):
    """Replacement column used when a frequency column is numerically zero."""

    UNIFORM_REAL = "uniform-real"
    FIRST_CANONICAL = "first-canonical"


@dataclass(frozen=True)
class ProjectionConfig:
    """Numerical policy of the projection.

    ``zero_norm_eps`` is the threshold below which a frequency column is
    treated as zero; ``None`` resolves to ``1e-14 * sqrt(depth_count)`` so
    the band scales with the column length.  The fallback column must be
    real so that real inputs stay real through the degenerate branch.
    """

    zero_norm_eps: float | None = None
    fallback_vector: FallbackVector = FallbackVector.UNIFORM_REAL

    def __post_init__(self):
        if self.zero_norm_eps is not None and self.zero_norm_eps < 0:
            raise ValueError("zero_norm_eps must be nonnegative")

    def resolve_eps(self, domain: LatticeDomain) -> float:
        if self.zero_norm_eps is not None:
            return self.zero_norm_eps
        return 1e-14 * math.sqrt(domain.depth_count)


DEFAULT_CONFIG = ProjectionConfig()


@dataclass
class SsoReport:
    """Shift-orthogonality diagnostics for one tensor."""

    max_constraint_violation: float
    is_member: bool
    per_frequency_norms: np.ndarray
    tol: float
    max_norm_deviation: float = field(default=0.0)


@dataclass
class ShiftPerpReport:
    """Shift-perpendicularity diagnostics for a pair of tensors."""

    max_frequency_inner: float
    max_shift_inner: float
    is_perpendicular: bool
    tol: float


def _fallback_column(cfg: ProjectionConfig, depth_count: int) -> np.ndarray:
    if cfg.fallback_vector is FallbackVector.UNIFORM_REAL:
        return np.full(depth_count, 1.0 / math.sqrt(depth_count), dtype=np.complex128)
    column = np.zeros(depth_count, dtype=np.complex128)
    column[0] = 1.0
    return column


def _orthogonal_fallback(mode_cols: np.ndarray, depth_count: int) -> np.ndarray:
    # Gram-Schmidt of canonical basis vectors, in index order, against the
    # (orthonormal) mode columns; first residual of usable size wins.
    for t in range(depth_count):
        residual = -mode_cols.conj()[:, t] @ mode_cols
        residual[t] += 1.0
        norm = np.linalg.norm(residual)
        if norm > _FALLBACK_RESIDUAL_MIN:
            return residual / norm
    raise ModePreconditionError(
        "no canonical vector has a usable residual against the mode columns"
    )


def project_columns(columns: np.ndarray, domain: LatticeDomain,
                    cfg: ProjectionConfig = DEFAULT_CONFIG,
                    mode_columns: np.ndarray | None = None) -> np.ndarray:
    """Closest unit vector to every B-transform column, optionally deflated.

    ``columns`` is ``depth_count x shift_count`` on the scale of
    :func:`b_transform`.  With ``mode_columns`` (``n x depth_count x
    shift_count``, orthonormal per frequency) each column first loses its
    component in the span of the mode columns at its frequency.  Columns of
    norm at most ``cfg.resolve_eps(domain)`` take a fallback instead: the
    configured real column without modes, the Gram-Schmidt residual of the
    first usable canonical vector with them.
    """
    if mode_columns is not None:
        inner = np.einsum("mdj,dj->mj", mode_columns.conj(), columns)
        columns = columns - np.einsum("mj,mdj->dj", inner, mode_columns)
    norms = np.linalg.norm(columns, axis=0)
    good = norms > cfg.resolve_eps(domain)
    if good.all():
        return columns / norms
    out = np.empty_like(columns)
    out[:, good] = columns[:, good] / norms[good]
    if mode_columns is None:
        out[:, ~good] = _fallback_column(cfg, domain.depth_count)[:, None]
    else:
        for j in np.nonzero(~good)[0]:
            out[:, j] = _orthogonal_fallback(mode_columns[:, :, j], domain.depth_count)
    return out


def theta_normalize(p: CoeffTensor, cfg: ProjectionConfig = DEFAULT_CONFIG) -> CoeffTensor:
    """Normalize every per-frequency column to the unit sphere.

    Columns with norm at most the resolved threshold take the configured
    real fallback column instead.
    """
    return CoeffTensor._trusted(p.domain, project_columns(p.columns, p.domain, cfg))


def project_sso(b: CoeffTensor, cfg: ProjectionConfig = DEFAULT_CONFIG) -> CoeffTensor:
    """Closest shift-orthogonal tensor to ``b`` in the L2 sense.

    Equals ``b_inverse(theta_normalize(b_transform(b), cfg))``; the fused
    pipeline below avoids materializing the forward and inverse scalings
    (they cancel except in the zero-column threshold), which matters once
    the tensor outgrows the cache.
    """
    domain = b.domain
    count = domain.shift_count
    p = scipy.fft.ifftn(b.grid, axes=domain.shift_axes, workers=_WORKERS).reshape(
        domain.depth_count, count
    )
    parts = p.view(np.float64).reshape(domain.depth_count, count, 2)
    norms = np.sqrt(np.einsum("djk,djk->j", parts, parts))
    eps = cfg.resolve_eps(domain) / count
    good = norms > eps
    if good.all():
        p /= norms * count
    else:
        p[:, good] /= norms[good] * count
        p[:, ~good] = (_fallback_column(cfg, domain.depth_count) / count)[:, None]
    out = scipy.fft.fftn(
        p.reshape(domain.grid_shape), axes=domain.shift_axes,
        workers=_WORKERS, overwrite_x=True,
    )
    return CoeffTensor._trusted(domain, out)


def _mode_column_stack(modes: Sequence[CoeffTensor], domain: LatticeDomain) -> np.ndarray:
    stacks = []
    for mode in modes:
        if mode.domain != domain:
            raise DomainMismatchError("mode domain does not match input domain")
        stacks.append(b_transform(mode).columns)
    return np.stack(stacks)


def _validate_mode_columns(stack: np.ndarray) -> None:
    n = stack.shape[0]
    gram = np.einsum("mdj,ndj->mnj", stack.conj(), stack)
    gram -= np.eye(n, dtype=np.complex128)[:, :, None]
    worst = float(np.abs(gram).max())
    if worst > _MODE_ORTHONORMALITY_TOL:
        raise ModePreconditionError(
            f"mode columns deviate from per-frequency orthonormality by {worst:.3e}"
        )


def project_sso_orth(
    b: CoeffTensor,
    modes: Sequence[CoeffTensor],
    cfg: ProjectionConfig = DEFAULT_CONFIG,
    validate: bool = False,
    mode_columns: np.ndarray | None = None,
) -> CoeffTensor:
    """Project onto shift-orthogonal tensors perpendicular to all ``modes``.

    ``modes`` must be individually shift-orthogonal and mutually
    shift-perpendicular, so their transformed columns are orthonormal per
    frequency; pass ``validate=True`` to check that (costs
    ``O(n * depth_count * shift_count)``).  ``mode_columns`` may supply the
    precomputed stack of transformed mode columns to avoid recomputing it
    inside iterative solvers.
    """
    domain = b.domain
    n = len(modes) if mode_columns is None else mode_columns.shape[0]
    if n == 0:
        return project_sso(b, cfg)
    if n >= domain.depth_count:
        raise InfeasibleDeflationError(
            f"{n} modes leave no unit vector in {domain.depth_count} depth dimensions"
        )
    if mode_columns is None:
        mode_columns = _mode_column_stack(modes, domain)
    if validate:
        _validate_mode_columns(mode_columns)

    out = project_columns(b_transform(b).columns, domain, cfg, mode_columns)
    return b_inverse(CoeffTensor(domain, out.reshape(-1)))


def _shift_autocorrelation(v: CoeffTensor, direct: bool) -> np.ndarray:
    """``<v, S(s) v>`` for every shift ``s``, on the shifts grid."""
    domain = v.domain
    if direct:
        grid = v.grid
        corr = np.empty(domain.shifts, dtype=np.complex128)
        for s in np.ndindex(*domain.shifts):
            corr[s] = np.vdot(grid, np.roll(grid, s, axis=domain.shift_axes))
        return corr
    # Spectral identity: the autocorrelation is the mean-normalized inverse
    # DFT of the per-frequency squared column norms.
    norms_sq = np.linalg.norm(b_transform(v).columns, axis=0) ** 2
    return np.fft.ifftn(norms_sq.reshape(domain.shifts))


def is_shift_orthogonal(v: CoeffTensor, tol: float = 1e-10,
                        method: str = "auto") -> SsoReport:
    """Check membership in the shift-orthogonal set.

    Two equivalent criteria are evaluated: all transformed per-frequency
    columns have unit norm, and the inner product of the tensor with each
    of its cyclic shifts matches the Kronecker delta.  ``method`` selects
    how the second criterion is computed: ``"direct"`` loops over shifts,
    ``"spectral"`` uses the exact FFT identity, ``"auto"`` picks by size.
    """
    domain = v.domain
    if method not in ("auto", "direct", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    direct = method == "direct" or (
        method == "auto" and domain.shift_count * domain.size <= _DIRECT_WORK_LIMIT
    )
    norms = np.linalg.norm(b_transform(v).columns, axis=0)
    corr = _shift_autocorrelation(v, direct)
    target = np.zeros(domain.shifts, dtype=np.complex128)
    target[(0,) * domain.d] = 1.0
    violation = float(np.abs(corr - target).max())
    norm_dev = float(np.abs(norms - 1.0).max()) if norms.size else 0.0

    # Internal coherence of the two criteria (they bound each other through
    # a DFT): a gross mismatch means an implementation bug, not bad input.
    nsq_dev = float(np.abs(norms**2 - 1.0).max())
    scale = max(1.0, float(np.linalg.norm(v.data)) ** 2)
    slack = 1e-8 * scale
    assert violation <= nsq_dev + slack
    assert nsq_dev <= domain.shift_count * violation + slack

    return SsoReport(
        max_constraint_violation=violation,
        is_member=violation <= tol,
        per_frequency_norms=norms,
        tol=tol,
        max_norm_deviation=norm_dev,
    )


def check_shift_perpendicular(g: CoeffTensor, f: CoeffTensor, tol: float = 1e-10,
                              method: str = "auto") -> ShiftPerpReport:
    """Check that ``g`` is orthogonal to every cyclic shift of ``f``.

    Evaluates both the per-frequency inner products of the transforms and
    the direct inner products ``<g, S(s) f>``; the two vanish together.
    """
    if g.domain != f.domain:
        raise DomainMismatchError("tensors live on different domains")
    domain = g.domain
    if method not in ("auto", "direct", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    direct = method == "direct" or (
        method == "auto" and domain.shift_count * domain.size <= _DIRECT_WORK_LIMIT
    )
    freq_inner = np.einsum(
        "dj,dj->j", b_transform(g).columns.conj(), b_transform(f).columns
    )
    max_freq = float(np.abs(freq_inner).max())
    if direct:
        g_grid, f_grid = g.grid, f.grid
        max_shift = 0.0
        for s in np.ndindex(*domain.shifts):
            value = np.vdot(g_grid, np.roll(f_grid, s, axis=domain.shift_axes))
            max_shift = max(max_shift, abs(value))
    else:
        corr = np.fft.ifftn(freq_inner.reshape(domain.shifts))
        max_shift = float(np.abs(corr).max())

    scale = max(1.0, float(np.linalg.norm(g.data) * np.linalg.norm(f.data)))
    slack = 1e-8 * scale
    assert max_shift <= max_freq + slack
    assert max_freq <= domain.shift_count * max_shift + slack

    return ShiftPerpReport(
        max_frequency_inner=max_freq,
        max_shift_inner=max_shift,
        is_perpendicular=max_shift <= tol,
        tol=tol,
    )
