"""Fast L2 projection onto the set of shift-orthogonal coefficient vectors.

Every projection runs the per-column kernel :func:`project_columns` on a
fresh forward transform and transforms back in its buffer.  A real input
without modes takes the half-spectrum pair of :mod:`btransform` (twin
columns ``j`` and ``-j`` are conjugates, and the fallback is real); any
other input takes :func:`b_transform` and :func:`b_inverse`.  The kernel
scales each per-frequency column to unit norm in place (a fixed real
fallback replaces vanishing columns); given the transformed columns of earlier modes, held and
checked by a :class:`ModeSpan`, it first removes their span, so the
result is also perpendicular to every shift of every mode.
The kernel walks the columns in blocks of about 1 MiB (at least 256
columns), which stay in a core's L2 cache through both stages; an input
of at least ``btransform._SPLIT_COEFFS`` coefficients and several blocks
shares them with the FFTs' thread pool.  The solver calls the kernel, or
its normalize stage, directly.  The checkers work on the transform side
too: inner products against all cyclic shifts are one inverse DFT of
per-frequency quantities; the direct shift loops are test oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .btransform import (
    _SPLIT_COEFFS,
    _complex_transform,
    _half_inverse,
    _half_transform,
    _run_parts,
    b_transform,
)
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

    A matrix of fewer than ``_SPLIT_COEFFS`` coefficients is one block, on
    the caller's thread; several blocks are shared with the library's pool.
    """
    depth_count, column_count = shape
    width = max(_MIN_BLOCK_COLUMNS, _BLOCK_COEFFS // depth_count)
    if depth_count * column_count < _SPLIT_COEFFS:
        width = column_count
    _run_parts(body, [slice(start, start + width) for start in range(0, column_count, width)])


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
    vector against the mode columns at its frequency: each canonical index
    in turn gives the residuals of all columns still pending at once.
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
    pending = np.nonzero(~good)[0]
    modes = np.stack([mode[:, pending] for mode in mode_columns])
    for t in range(depth_count):
        # e_t minus its components along the (orthonormal) mode columns
        residual = -np.einsum("kdj,kj->dj", modes, modes[:, t].conj())
        residual[t] += 1.0
        norms = np.linalg.norm(residual, axis=0)
        usable = norms > _FALLBACK_RESIDUAL_MIN
        columns[:, pending[usable]] = residual[:, usable] / norms[usable]
        pending, modes = pending[~usable], modes[:, :, ~usable]
        if not pending.size:
            return
    raise ModePreconditionError(
        "no canonical vector has a usable residual against the mode columns"
    )


def project_columns(columns: np.ndarray, domain: LatticeDomain,
                    cfg: ProjectionConfig = DEFAULT_CONFIG,
                    mode_columns: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Replace every B-transform column by its closest unit vector, in place.

    ``columns`` is a C-contiguous complex128 ``depth_count x shift_count``
    buffer on the scale of :func:`b_transform` (or a real tensor's half
    spectrum) that the caller owns: it is overwritten and returned.  With
    ``mode_columns`` (matrices of the same shape, orthonormal per
    frequency) each column first loses its component in the span of the
    mode columns at its frequency (:func:`deflate_columns`).  Then
    :func:`normalize_columns` scales it, or gives it a fallback if its norm
    is at most ``cfg.resolve_eps(domain)``.  Each column's result does not
    depend on how the columns are split into blocks.
    """
    if columns.dtype != np.complex128:
        raise TypeError(f"columns must be complex128, got {columns.dtype}")
    eps = cfg.resolve_eps(domain)

    def body(cols: slice) -> None:
        block = columns[:, cols]
        block_modes = [mode[:, cols] for mode in mode_columns]
        if block_modes:
            deflate_columns(block, block_modes)
        normalize_columns(block, eps, cfg.fallback_vector, block_modes)

    _each_block(columns.shape, body)
    return columns


def project_sso(b: CoeffTensor, cfg: ProjectionConfig = DEFAULT_CONFIG) -> CoeffTensor:
    """Closest shift-orthogonal tensor to ``b`` in the L2 sense.

    Equals the inverse B-transform of the forward transform with every
    column scaled to unit norm (vanishing columns take the configured
    real fallback column).  A real ``b`` gives a real result.
    """
    return project_sso_orth(b, (), cfg)


def _frequency_inners(gs: Sequence[np.ndarray], f: np.ndarray) -> np.ndarray:
    """``len(gs) x shift_count`` per-frequency inner products ``g^H f``, blocked."""
    inners = np.empty((len(gs), f.shape[1]), dtype=np.complex128)

    def body(cols: slice) -> None:
        inners[:, cols] = _column_inners([g[:, cols] for g in gs], f[:, cols])

    _each_block(f.shape, body)
    return inners


def _shift_peak(freq_inner: np.ndarray, domain: LatticeDomain) -> float:
    """``max_s |<g, S(s) f>|``, from the per-frequency inner products ``g^H f``."""
    return float(np.abs(np.fft.ifftn(freq_inner.reshape(domain.shifts))).max())


class ModeSpan:
    """Modes whose B-transform columns are orthonormal at every frequency.

    That is the deflated projection's precondition: each mode is shift
    orthogonal and perpendicular to every shift of the others.  :meth:`add`
    transforms a mode once and checks its row of the (Hermitian)
    per-frequency Gram matrix; ``max_shift_inner``, the largest
    ``|<g, S(s) f>|`` over pairs of modes and shifts, is read off the rows.
    """

    def __init__(self, domain: LatticeDomain, modes: Sequence[CoeffTensor] = ()):
        self.domain = domain
        self.columns: list[np.ndarray] = []  # depth_count x shift_count per mode
        self.max_shift_inner = 0.0
        for mode in modes:
            self.add(mode)

    def __len__(self) -> int:
        return len(self.columns)

    def _transform(self, mode: CoeffTensor) -> np.ndarray:
        if mode.domain != self.domain:
            raise DomainMismatchError("mode domain does not match the span domain")
        return b_transform(mode).columns

    @classmethod
    def _trusted(cls, domain: LatticeDomain, modes: Sequence[CoeffTensor]) -> ModeSpan:
        span = cls(domain)
        span.columns = [span._transform(mode) for mode in modes]
        return span

    def add(self, mode: CoeffTensor) -> None:
        """Append ``mode``; a rejected mode leaves the span unchanged."""
        new = self._transform(mode)
        row = _frequency_inners(self.columns + [new], new)
        row[-1] -= 1.0
        worst = float(np.abs(row).max())
        if worst > _MODE_ORTHONORMALITY_TOL:
            raise ModePreconditionError(
                f"mode columns deviate from per-frequency orthonormality by {worst:.3e}")
        for inner in row[:-1]:
            self.max_shift_inner = max(self.max_shift_inner, _shift_peak(inner, self.domain))
        self.columns.append(new)


def project_sso_orth(
    b: CoeffTensor,
    modes: ModeSpan | Sequence[CoeffTensor],
    cfg: ProjectionConfig = DEFAULT_CONFIG,
    validate: bool = False,
) -> CoeffTensor:
    """Project onto shift-orthogonal tensors perpendicular to all ``modes``.

    Against a :class:`ModeSpan` only ``b`` is transformed.  A plain
    sequence of modes is transformed on every call and checked, by
    building a span, only with ``validate=True``: unchecked stays the
    default for callers that trust their modes and time the projection.
    A real ``b`` with no modes takes the half-spectrum route and gives a
    real (float64) tensor; every other call gives a complex one.
    """
    domain = b.domain
    if len(modes) >= domain.depth_count:
        raise InfeasibleDeflationError(
            f"{len(modes)} modes leave no unit vector in {domain.depth_count} depth dimensions"
        )
    if not isinstance(modes, ModeSpan):
        modes = ModeSpan(domain, modes) if validate else ModeSpan._trusted(domain, modes)
    elif modes.domain != domain:
        raise DomainMismatchError("mode span domain does not match input domain")
    # The kernel and the inverse transform both work in place on the fresh
    # forward transform.  A span holds full columns, so modes need the
    # complex route.
    if not modes and not np.iscomplexobj(b.data):
        half = _half_transform(b)
        project_columns(half.reshape(domain.depth_count, -1), domain, cfg)
        return _half_inverse(half, domain)
    p = b_transform(b)
    project_columns(p.columns, domain, cfg, modes.columns)
    return _complex_transform(np.fft.fft, p, in_place=True)


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
    max_shift = _shift_peak(freq_inner, g.domain)
    return ShiftPerpReport(
        max_frequency_inner=float(np.abs(freq_inner).max()),
        max_shift_inner=max_shift,
        is_perpendicular=max_shift <= tol,
        tol=tol,
    )
