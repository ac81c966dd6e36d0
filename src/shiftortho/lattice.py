"""Index geometry for coefficient tensors over periodic depth/shift lattices.

A function expanded in a shift-orthogonal basis carries one coefficient
per (depth, shift) multi-index pair.  This module fixes the canonical flat
layout of those coefficients (depth axes outermost, shift axes innermost,
each group row-major) and their storage: float64 when no coefficient has
a nonzero imaginary part, complex128 otherwise.

Depth indices are 1-based, shift indices are 0-based and cyclic; this
matches the usual conventions for frequency shells and lattice translates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_DIMENSION = 3


def _storage_dtype(imag: np.ndarray) -> type:
    """float64 if no value of ``imag`` is nonzero (``-0.0`` counts as zero), else complex128."""
    return np.complex128 if imag.any() else np.float64


def _integer(value, name: str) -> int:
    """``value`` as an ``int``; anything but an integer (``bool`` included) raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        object.__setattr__(self, "shifts", tuple(_integer(v, "shifts entry") for v in self.shifts))
        object.__setattr__(self, "depths", tuple(_integer(v, "depths entry") for v in self.depths))
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


@dataclass
class CoeffTensor:
    """Coefficients over a :class:`LatticeDomain`.

    ``data`` is stored flat in the canonical layout; :attr:`grid` and
    :attr:`columns` expose reshaped views of the same buffer.  It is
    float64 when no given value has a nonzero imaginary part (``-0.0``
    counts as zero), else complex128: the rule by which a coefficient file
    is written with ``kind: real``.  A real tensor's ``data`` takes no
    complex values: numpy rejects a complex scalar and drops the
    imaginary parts of a complex array, with a ``ComplexWarning``.
    """

    domain: LatticeDomain
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        dtype = _storage_dtype(data.imag) if np.iscomplexobj(data) else np.float64
        data = np.ascontiguousarray(data.real if dtype is np.float64 else data, dtype)
        data = data.reshape(-1)
        if data.size != self.domain.size:
            raise ValueError(
                f"expected {self.domain.size} coefficients, got {data.size}"
            )
        if not np.isfinite(data).all():
            raise ValueError("coefficients must be finite")
        self.data = data

    @classmethod
    def zeros(cls, domain: LatticeDomain) -> "CoeffTensor":
        return cls(domain, np.zeros(domain.size))

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


def random_tensor(domain: LatticeDomain, rng: np.random.Generator,
                  real: bool = False) -> CoeffTensor:
    """Standard-normal random tensor, complex unless ``real`` is set."""
    values = rng.standard_normal(domain.size)
    if not real:
        values = values + 1j * rng.standard_normal(domain.size)
    return CoeffTensor(domain, values)
