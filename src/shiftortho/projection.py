"""Fast L2 projection onto the set of shift-orthogonal coefficient vectors.

Every projection takes one route: :func:`b_transform`, then the one
per-column kernel :func:`project_columns`, then :func:`b_inverse`, the
last two in the forward transform's buffer.  The kernel normalizes each
per-frequency column to the unit sphere in place
(with a fixed real fallback for vanishing columns); given the transformed
columns of previously found modes it first removes their span, which
projects onto the intersection with the orthogonal complement of the
modes' shift span.  Callers already holding transform columns (the plane
wave solver) call the kernel directly.  The report-style checkers work on
the transform side too: the inner products against all cyclic shifts are
one inverse DFT of per-frequency quantities.  The direct shift loops that
check them independently live with the test oracles, not here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .btransform import _b_inverse_in_place, b_transform
# Not called here, but kept importable from this module: perfbench/spans.py
# rebinds this name here when it traces a run.
from .btransform import b_inverse  # noqa: F401
from .lattice import CoeffTensor, DomainMismatchError, LatticeDomain

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


def _column_norms_sq(columns: np.ndarray) -> np.ndarray:
    """Squared norm of every column of a C-contiguous complex matrix.

    Reduces the interleaved real and imaginary parts down contiguous rows,
    then adds each pair: 4-8x faster at 2^20 coefficients than reducing the
    strided ``(depth, column, part)`` view.
    """
    parts = columns.view(np.float64)
    sums = np.einsum("dk,dk->k", parts, parts)
    return sums[0::2] + sums[1::2]


def project_columns(columns: np.ndarray, domain: LatticeDomain,
                    cfg: ProjectionConfig = DEFAULT_CONFIG,
                    mode_columns: np.ndarray | None = None) -> np.ndarray:
    """Replace every B-transform column by its closest unit vector, in place.

    ``columns`` is a C-contiguous ``depth_count x shift_count`` buffer on
    the scale of :func:`b_transform` that the caller owns: it is
    overwritten and returned.  With ``mode_columns`` (``n x depth_count x
    shift_count``, orthonormal per frequency) each column first loses its
    component in the span of the mode columns at its frequency.  Columns of
    norm at most ``cfg.resolve_eps(domain)`` take a fallback instead: the
    configured real column without modes, the Gram-Schmidt residual of the
    first usable canonical vector with them.
    """
    if mode_columns is not None:
        # Conjugating the columns, not the larger mode stack, gives the
        # same bits at a third of the copy.
        inner = np.einsum("mdj,dj->mj", mode_columns, columns.conj()).conj()
        columns -= np.einsum("mj,mdj->dj", inner, mode_columns)
    norms = np.sqrt(_column_norms_sq(columns))
    good = norms > cfg.resolve_eps(domain)
    # Multiplying by the reciprocal is about 2.5x faster than dividing
    # (2^20 coefficients, numpy 2.4).
    if good.all():
        columns *= 1.0 / norms
        return columns
    columns[:, good] *= 1.0 / norms[good]
    if mode_columns is None:
        columns[:, ~good] = _fallback_column(cfg, domain.depth_count)[:, None]
    else:
        for j in np.nonzero(~good)[0]:
            columns[:, j] = _orthogonal_fallback(mode_columns[:, :, j], domain.depth_count)
    return columns


def theta_normalize(p: CoeffTensor, cfg: ProjectionConfig = DEFAULT_CONFIG) -> CoeffTensor:
    """Normalize every per-frequency column to the unit sphere.

    Columns with norm at most the resolved threshold take the configured
    real fallback column instead.  ``p`` is left unchanged.
    """
    return CoeffTensor._trusted(p.domain, project_columns(p.columns.copy(), p.domain, cfg))


def _project(b: CoeffTensor, cfg: ProjectionConfig,
             mode_columns: np.ndarray | None) -> CoeffTensor:
    # The one projection route: the kernel and the inverse transform both
    # work in place on the fresh forward transform.
    p = b_transform(b)
    project_columns(p.columns, p.domain, cfg, mode_columns)
    return _b_inverse_in_place(p)


def project_sso(b: CoeffTensor, cfg: ProjectionConfig = DEFAULT_CONFIG) -> CoeffTensor:
    """Closest shift-orthogonal tensor to ``b`` in the L2 sense.

    Equals ``b_inverse(theta_normalize(b_transform(b), cfg))``.
    """
    return _project(b, cfg, None)


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
) -> CoeffTensor:
    """Project onto shift-orthogonal tensors perpendicular to all ``modes``.

    ``modes`` must be individually shift-orthogonal and mutually
    shift-perpendicular, so their transformed columns are orthonormal per
    frequency; pass ``validate=True`` to check that (costs
    ``O(n * depth_count * shift_count)``).
    """
    domain = b.domain
    if len(modes) == 0:
        return project_sso(b, cfg)
    if len(modes) >= domain.depth_count:
        raise InfeasibleDeflationError(
            f"{len(modes)} modes leave no unit vector in {domain.depth_count} depth dimensions"
        )
    mode_columns = _mode_column_stack(modes, domain)
    if validate:
        _validate_mode_columns(mode_columns)
    return _project(b, cfg, mode_columns)


def is_shift_orthogonal(v: CoeffTensor, tol: float = 1e-10) -> SsoReport:
    """Check membership in the shift-orthogonal set.

    The violation is the largest deviation of ``<v, S(s) v>`` from the
    Kronecker delta over all shifts ``s``.  It comes from one B-transform:
    the autocorrelation is the mean-normalized inverse DFT of the squared
    per-frequency column norms, which the report also carries.
    """
    domain = v.domain
    norms_sq = _column_norms_sq(b_transform(v).columns)
    corr = np.fft.ifftn(norms_sq.reshape(domain.shifts))
    corr[(0,) * domain.d] -= 1.0
    violation = float(np.abs(corr).max())
    norms = np.sqrt(norms_sq)
    return SsoReport(
        max_constraint_violation=violation,
        is_member=violation <= tol,
        per_frequency_norms=norms,
        tol=tol,
        max_norm_deviation=float(np.abs(norms - 1.0).max()),
    )


def check_shift_perpendicular(g: CoeffTensor, f: CoeffTensor,
                              tol: float = 1e-10) -> ShiftPerpReport:
    """Check that ``g`` is orthogonal to every cyclic shift of ``f``.

    Reports the per-frequency inner products of the transforms and the
    inner products ``<g, S(s) f>``, their inverse DFT; the two vanish
    together.
    """
    if g.domain != f.domain:
        raise DomainMismatchError("tensors live on different domains")
    freq_inner = np.einsum(
        "dj,dj->j", b_transform(g).columns.conj(), b_transform(f).columns
    )
    max_shift = float(np.abs(np.fft.ifftn(freq_inner.reshape(g.domain.shifts))).max())
    return ShiftPerpReport(
        max_frequency_inner=float(np.abs(freq_inner).max()),
        max_shift_inner=max_shift,
        is_perpendicular=max_shift <= tol,
        tol=tol,
    )
