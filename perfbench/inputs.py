"""Seeded inputs: coefficient tensors, deflation modes and coefficient files.

The same seed gives the same inputs.  Modes are built in transform space
(orthonormal columns per frequency, by a batched QR) and transformed back
with numpy, then checked with :mod:`checks` before anything uses them.
Files are written in the coefficient-file format by numpy alone.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.fft import fftn as _np_fftn

import checks


def random_grid(rng: np.random.Generator, depths: tuple, shifts: tuple,
                real: bool = False) -> np.ndarray:
    shape = depths + shifts
    values = rng.standard_normal(shape)
    if not real:
        values = values + 1j * rng.standard_normal(shape)
    return values.astype(np.complex128)


def orthonormal_modes(rng: np.random.Generator, depths: tuple, shifts: tuple,
                      count: int) -> np.ndarray:
    """``count`` shift-orthogonal, mutually shift-perpendicular mode grids.

    Returns shape ``(count,) + depths + shifts``; raises if the construction
    misses the 1e-10 tolerance.
    """
    d = len(shifts)
    depth_count, shift_count = math.prod(depths), math.prod(shifts)
    z = rng.standard_normal((shift_count, depth_count, count)) + 1j * rng.standard_normal(
        (shift_count, depth_count, count)
    )
    q, _ = np.linalg.qr(z)
    cols = np.ascontiguousarray(q.transpose(2, 1, 0))
    grids = cols.reshape((count,) + depths + shifts)
    shift_axes = tuple(range(1 + d, 1 + 2 * d))
    modes = _np_fftn(grids, axes=shift_axes) / shift_count
    errors = checks.mode_stack_errors(modes, d)
    if errors:
        raise RuntimeError(f"generated modes unusable: {errors}")
    return modes


def write_coeff_text(path, grid: np.ndarray, depths: tuple, shifts: tuple) -> int:
    """Write ``grid`` as a coefficient file; returns its size in bytes."""
    d = len(shifts)
    index = np.indices(depths + shifts).reshape(2 * d, -1).T
    index[:, :d] += 1
    data = grid.reshape(-1)
    header = json.dumps(
        {"L": list(shifts), "N": list(depths), "d": d,
         "kind": "real" if not data.imag.any() else "complex", "schema": 1},
        sort_keys=True, separators=(", ", ": "),
    )
    table = np.column_stack([index, data.real, data.imag])
    with open(path, "w", encoding="ascii") as handle:
        np.savetxt(handle, table, fmt=["%d"] * (2 * d) + ["%.17g"] * 2,
                   delimiter=",", header=header, comments="")
        return handle.tell()
