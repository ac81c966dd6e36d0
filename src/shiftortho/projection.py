"""Fast L2 projection onto the set of shift-orthogonal coefficient vectors.

Every projection takes one route: :func:`b_transform`, then the one
per-column kernel :func:`project_columns`, then :func:`b_inverse`, the
last two in the forward transform's buffer.  The kernel normalizes each
per-frequency column to the unit sphere in place
(with a fixed real fallback for vanishing columns); given the transformed
columns of previously found modes it first removes their span, which
projects onto the intersection with the orthogonal complement of the
modes' shift span.  The columns are independent, so the kernel walks them
in blocks of about 1 MiB (at least 256 columns), small enough to stay in
a core's L2 cache through its deflate and normalize stages.  An input of
several blocks is spread over a pool of as many threads as the FFTs use
(``btransform._WORKERS``); a single block runs on the caller's thread.
Callers already holding transform columns (the plane wave solver) call
the kernel, or its normalize stage, directly.  The report-style checkers
work on the transform side too: the inner products against all cyclic
shifts are one inverse DFT of per-frequency quantities.  The direct shift
loops that check them independently live with the test oracles, not here.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .btransform import _WORKERS, _b_inverse_in_place, b_transform
# Not called here, but kept importable from this module: perfbench/spans.py
# rebinds this name here when it traces a run.
from .btransform import b_inverse  # noqa: F401
from .lattice import CoeffTensor, DomainMismatchError, LatticeDomain

# Acceptance threshold for a Gram-Schmidt residual in the deflated fallback.
_FALLBACK_RESIDUAL_MIN = 1e-8

_MODE_ORTHONORMALITY_TOL = 1e-8

# Complex coefficients per column block: 1 MiB, half a 2 MiB L2 cache, so
# a block and its scratch copy stay cached through both kernel stages.
_BLOCK_COEFFS = 1 << 16
# Narrowest block: numpy pays its loop overhead once per block row, and
# rows of fewer columns cost more than the cache saves (16384 depths x 64
# shifts ran 2-20x slower in blocks of 4-32 columns than in one block).
_MIN_BLOCK_COLUMNS = 256

# Runs the blocks of a multi-block call.  The executor starts its threads
# on the first submit, not at import.
_POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="shiftortho-columns")


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
        # Written so that NaN fails too: every column would take the fallback.
        if self.zero_norm_eps is not None and not self.zero_norm_eps >= 0:
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


def _fallback_column(fallback: FallbackVector, depth_count: int) -> np.ndarray:
    if fallback is FallbackVector.UNIFORM_REAL:
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


def _column_dots(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Real part of ``g^H f`` for every column pair of two complex matrices.

    Reduces the interleaved real and imaginary parts down contiguous rows
    (the last axis of both must be contiguous), then adds each pair: 4-8x
    faster at 2^20 coefficients than reducing the strided ``(depth,
    column, part)`` view, and no conjugated copy is made.
    """
    sums = np.einsum("dk,dk->k", g.view(np.float64), f.view(np.float64))
    return sums[0::2] + sums[1::2]


def _column_inners(gs: Sequence[np.ndarray], f: np.ndarray) -> list[np.ndarray]:
    """Per-column inner products ``g^H f`` of each matrix in ``gs`` with ``f``.

    The imaginary part of ``g^H f`` is the real part of ``g^H (-i f)``, so
    both come from :func:`_column_dots`; callers pass column blocks, which
    keeps the one scratch copy ``-i f`` cache sized.
    """
    turned = f * -1j
    return [_column_dots(g, f) + 1j * _column_dots(g, turned) for g in gs]


def _each_block(shape: tuple[int, int], body: Callable[[slice], None]) -> None:
    """Call ``body`` on every column block of a ``depth x column`` matrix.

    A single block runs on the caller's thread, several on the pool.
    """
    depth_count, column_count = shape
    width = max(_MIN_BLOCK_COLUMNS, _BLOCK_COEFFS // depth_count)
    if column_count <= width:
        body(slice(0, column_count))
        return
    blocks = [slice(start, start + width) for start in range(0, column_count, width)]
    # Reading every result re-raises an exception from any block.
    for _ in _POOL.map(body, blocks):
        pass


def deflate_columns(columns: np.ndarray, mode_columns: Sequence[np.ndarray]) -> None:
    """Remove from every column its component along the mode columns, in place.

    ``mode_columns`` holds matrices shaped like ``columns`` and orthonormal
    per column, so this projects each column onto the orthogonal
    complement of the modes' span at its frequency.
    """
    inners = _column_inners(mode_columns, columns)
    scratch = np.empty_like(columns)
    for mode, inner in zip(mode_columns, inners):
        np.multiply(mode, inner, out=scratch)
        columns -= scratch


def normalize_columns(columns: np.ndarray, eps: float, fallback: FallbackVector,
                      mode_columns: Sequence[np.ndarray] = ()) -> None:
    """Scale every column to unit norm in place, with fallbacks at norm ``<= eps``.

    A vanishing column takes the ``fallback`` column without modes, and
    with them the Gram-Schmidt residual of the first usable canonical
    vector against the mode columns at its frequency.
    """
    norms = np.sqrt(_column_dots(columns, columns))
    good = norms > eps
    # Multiplying by the reciprocal is about 2.5x faster than dividing
    # (2^20 coefficients, numpy 2.4).
    if good.all():
        columns *= 1.0 / norms
        return
    columns[:, good] *= 1.0 / norms[good]
    depth_count = columns.shape[0]
    if not mode_columns:
        columns[:, ~good] = _fallback_column(fallback, depth_count)[:, None]
        return
    for j in np.nonzero(~good)[0]:
        here = np.array([mode[:, j] for mode in mode_columns])
        columns[:, j] = _orthogonal_fallback(here, depth_count)


def project_columns(columns: np.ndarray, domain: LatticeDomain,
                    cfg: ProjectionConfig = DEFAULT_CONFIG,
                    mode_columns: np.ndarray | Sequence[np.ndarray] | None = None
                    ) -> np.ndarray:
    """Replace every B-transform column by its closest unit vector, in place.

    ``columns`` is a C-contiguous ``depth_count x shift_count`` buffer on
    the scale of :func:`b_transform` that the caller owns: it is
    overwritten and returned.  With ``mode_columns`` (an ``n x depth_count
    x shift_count`` array or a sequence of ``n`` such matrices, orthonormal
    per frequency) each column first loses its component in the span of
    the mode columns at its frequency (:func:`deflate_columns`).  Then
    :func:`normalize_columns` scales it, or gives it a fallback if its norm
    is at most ``cfg.resolve_eps(domain)``.  Each column's result does not
    depend on how the columns are split into blocks.
    """
    eps = cfg.resolve_eps(domain)
    modes = [] if mode_columns is None else list(mode_columns)

    def body(cols: slice) -> None:
        block = columns[:, cols]
        block_modes = [mode[:, cols] for mode in modes]
        if block_modes:
            deflate_columns(block, block_modes)
        normalize_columns(block, eps, cfg.fallback_vector, block_modes)

    _each_block(columns.shape, body)
    return columns


def _project(b: CoeffTensor, cfg: ProjectionConfig,
             mode_columns: Sequence[np.ndarray] | None) -> CoeffTensor:
    # The one projection route: the kernel and the inverse transform both
    # work in place on the fresh forward transform.
    p = b_transform(b)
    project_columns(p.columns, p.domain, cfg, mode_columns)
    return _b_inverse_in_place(p)


def project_sso(b: CoeffTensor, cfg: ProjectionConfig = DEFAULT_CONFIG) -> CoeffTensor:
    """Closest shift-orthogonal tensor to ``b`` in the L2 sense.

    Equals the inverse B-transform of the forward transform with every
    column scaled to unit norm (vanishing columns take the configured
    real fallback column).
    """
    return _project(b, cfg, None)


def _frequency_inners(gs: Sequence[np.ndarray], f: np.ndarray) -> np.ndarray:
    """``len(gs) x shift_count`` per-frequency inner products ``g^H f``, blocked."""
    inners = np.empty((len(gs), f.shape[1]), dtype=np.complex128)

    def body(cols: slice) -> None:
        inners[:, cols] = _column_inners([g[:, cols] for g in gs], f[:, cols])

    _each_block(f.shape, body)
    return inners


def _validate_mode_columns(mode_columns: Sequence[np.ndarray]) -> None:
    """Require the per-frequency Gram matrix of the mode columns to be the identity."""
    n = len(mode_columns)
    gram = np.stack([_frequency_inners(mode_columns, column) for column in mode_columns],
                    axis=1)
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
    ``O(n^2 * depth_count * shift_count)``).  Every call transforms every
    mode.
    """
    domain = b.domain
    if len(modes) == 0:
        return project_sso(b, cfg)
    if len(modes) >= domain.depth_count:
        raise InfeasibleDeflationError(
            f"{len(modes)} modes leave no unit vector in {domain.depth_count} depth dimensions"
        )
    mode_columns = []
    for mode in modes:
        if mode.domain != domain:
            raise DomainMismatchError("mode domain does not match input domain")
        mode_columns.append(b_transform(mode).columns)
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
    columns = b_transform(v).columns
    norms_sq = _column_dots(columns, columns)
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
    freq_inner = _frequency_inners([b_transform(g).columns], b_transform(f).columns)[0]
    max_shift = float(np.abs(np.fft.ifftn(freq_inner.reshape(g.domain.shifts))).max())
    return ShiftPerpReport(
        max_frequency_inner=float(np.abs(freq_inner).max()),
        max_shift_inner=max_shift,
        is_perpendicular=max_shift <= tol,
        tol=tol,
    )
