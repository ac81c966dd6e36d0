"""Index geometry for coefficient tensors over periodic depth/shift lattices.

A function expanded in a shift-orthogonal basis carries one complex
coefficient per (depth, shift) multi-index pair.  This module fixes the
canonical flat layout of those coefficients (depth axes outermost, shift
axes innermost, each group row-major) and the cyclic shift action on them.

Depth indices are 1-based, shift indices are 0-based and cyclic; this
matches the usual conventions for frequency shells and lattice translates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIMENSION = 3


class DomainMismatchError(ValueError):
    """Operands that must share a lattice domain do not."""


@dataclass(frozen=True)
class LatticeDomain:
    """Lattice geometry: per-axis shift counts and per-axis depth caps.

    ``shifts[k]`` is the number of unit translates along axis ``k`` (the
    period length after scaling the shift to 1) and ``depths[k]`` is the
    number of retained frequency shells along that axis.
    """

    shifts: tuple[int, ...]
    depths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(int(v) for v in self.shifts))
        object.__setattr__(self, "depths", tuple(int(v) for v in self.depths))
        d = len(self.shifts)
        if not 1 <= d <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {d}")
        if len(self.depths) != d:
            raise ValueError("shifts and depths must have one entry per axis")
        if min(self.shifts) < 1 or min(self.depths) < 1:
            raise ValueError("shift counts and depth caps must be >= 1")
        if self.size > np.iinfo(np.intp).max:
            raise ValueError("domain size exceeds platform index range")

    @property
    def d(self) -> int:
        return len(self.shifts)

    @property
    def shift_count(self) -> int:
        """Number of distinct lattice shifts (product over axes)."""
        return math.prod(self.shifts)

    @property
    def depth_count(self) -> int:
        """Number of distinct depth multi-indices (product over axes)."""
        return math.prod(self.depths)

    @property
    def size(self) -> int:
        return self.shift_count * self.depth_count

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.depths + self.shifts

    @property
    def shift_axes(self) -> tuple[int, ...]:
        """Axes of :attr:`grid_shape` that index shifts."""
        return tuple(range(self.d, 2 * self.d))

    def shift_vectors(self):
        """All shift multi-indices in canonical (row-major) order."""
        return np.ndindex(*self.shifts)


@dataclass
class CoeffTensor:
    """Complex coefficients over a :class:`LatticeDomain`.

    ``data`` is stored flat in the canonical layout; :attr:`grid` and
    :attr:`columns` expose reshaped views of the same buffer.
    """

    domain: LatticeDomain
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.complex128).reshape(-1)
        if data.size != self.domain.size:
            raise ValueError(
                f"expected {self.domain.size} coefficients, got {data.size}"
            )
        if not np.isfinite(data).all():
            raise ValueError("coefficients must be finite")
        self.data = data

    @classmethod
    def zeros(cls, domain: LatticeDomain) -> "CoeffTensor":
        return cls(domain, np.zeros(domain.size, dtype=np.complex128))

    @classmethod
    def _trusted(cls, domain: LatticeDomain, data: np.ndarray) -> "CoeffTensor":
        # Internal fast path for arrays produced by library transforms:
        # skips the finiteness scan, which is a full memory pass at scale.
        tensor = object.__new__(cls)
        tensor.domain = domain
        tensor.data = data.reshape(-1)
        return tensor

    @classmethod
    def from_grid(cls, domain: LatticeDomain, grid: np.ndarray) -> "CoeffTensor":
        grid = np.asarray(grid)
        if grid.shape != domain.grid_shape:
            raise ValueError(f"expected grid shape {domain.grid_shape}, got {grid.shape}")
        return cls(domain, grid.reshape(-1))

    @property
    def grid(self) -> np.ndarray:
        """View shaped ``depths + shifts``."""
        return self.data.reshape(self.domain.grid_shape)

    @property
    def columns(self) -> np.ndarray:
        """View shaped ``(depth_count, shift_count)``: one column per shift index."""
        return self.data.reshape(self.domain.depth_count, self.domain.shift_count)

    def copy(self) -> "CoeffTensor":
        return CoeffTensor(self.domain, self.data.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def max_imag(self) -> float:
        return float(np.abs(self.data.imag).max()) if self.data.size else 0.0


def flatten(domain: LatticeDomain, depth_idx, shift_idx) -> int:
    """Flat position of a (depth, shift) multi-index in the canonical layout."""
    depth_idx = tuple(int(i) for i in depth_idx)
    shift_idx = tuple(int(j) for j in shift_idx)
    if len(depth_idx) != domain.d or len(shift_idx) != domain.d:
        raise IndexError("multi-index rank does not match domain dimension")
    for i, cap in zip(depth_idx, domain.depths):
        if not 1 <= i <= cap:
            raise IndexError(f"depth index {i} outside 1..{cap}")
    for j, count in zip(shift_idx, domain.shifts):
        if not 0 <= j < count:
            raise IndexError(f"shift index {j} outside 0..{count - 1}")
    pos = tuple(i - 1 for i in depth_idx) + shift_idx
    return int(np.ravel_multi_index(pos, domain.grid_shape))


def unflatten(domain: LatticeDomain, flat: int):
    """Inverse of :func:`flatten`: returns ``(depth_idx, shift_idx)``."""
    flat = int(flat)
    if not 0 <= flat < domain.size:
        raise IndexError(f"flat index {flat} outside 0..{domain.size - 1}")
    parts = np.unravel_index(flat, domain.grid_shape)
    depth_idx = tuple(int(p) + 1 for p in parts[: domain.d])
    shift_idx = tuple(int(p) for p in parts[domain.d :])
    return depth_idx, shift_idx


def _as_shift_vector(domain: LatticeDomain, s) -> tuple[int, ...]:
    if np.isscalar(s):
        s = (s,)
    s = tuple(int(v) for v in s)
    if len(s) != domain.d:
        raise IndexError("shift vector rank does not match domain dimension")
    for v, count in zip(s, domain.shifts):
        if not 0 <= v < count:
            raise IndexError(f"shift component {v} outside 0..{count - 1}")
    return s


def shift(v: CoeffTensor, s) -> CoeffTensor:
    """Cyclic shift action: ``out(i; j) = v(i; j - s)`` with per-axis wraparound."""
    s = _as_shift_vector(v.domain, s)
    rolled = np.roll(v.grid, s, axis=v.domain.shift_axes)
    return CoeffTensor(v.domain, rolled.reshape(-1))


def shift_inner(g: CoeffTensor, f: CoeffTensor, s) -> complex:
    """Inner product ``<g, S(s) f>``, conjugate-linear in the first argument."""
    if g.domain != f.domain:
        raise DomainMismatchError("tensors live on different domains")
    s = _as_shift_vector(g.domain, s)
    return complex(np.vdot(g.grid, np.roll(f.grid, s, axis=g.domain.shift_axes)))


def random_tensor(domain: LatticeDomain, rng: np.random.Generator,
                  real: bool = False) -> CoeffTensor:
    """Standard-normal random tensor, complex unless ``real`` is set."""
    values = rng.standard_normal(domain.size)
    if not real:
        values = values + 1j * rng.standard_normal(domain.size)
    return CoeffTensor(domain, values)
