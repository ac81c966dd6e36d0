"""Output checks that do not use the library under test.

Coefficient files are parsed with numpy alone, and membership and
perpendicularity are evaluated with ``numpy.fft``, independently of
``shiftortho.coeffio``, ``shiftortho.btransform`` and the library's own
checkers.  Each check returns a list of failure messages; an empty list is
a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.fft import ifftn as _np_ifftn

MEMBERSHIP_TOL = 1e-10
PERPENDICULAR_TOL = 1e-10
AGREEMENT_TOL = 1e-12
REAL_TOL = 1e-12
# Criterion 8 of the acceptance suite bounds the cross violation of solved
# modes by 1e-7; written mode files are held to the same bound.
CPW_CROSS_TOL = 1e-7


def transform_columns(grid: np.ndarray, d: int) -> np.ndarray:
    """Per-frequency columns ``sum_l exp(+2 pi i j.l / L) v(i; l)``, shape (D, S).

    ``grid`` is shaped ``depths + shifts`` (or has leading batch axes);
    the transform runs over its last ``d`` axes.
    """
    shift_axes = tuple(range(grid.ndim - d, grid.ndim))
    count = math.prod(grid.shape[grid.ndim - d:])
    cols = count * _np_ifftn(grid, axes=shift_axes)
    depth = math.prod(grid.shape[grid.ndim - 2 * d: grid.ndim - d])
    return cols.reshape(grid.shape[: grid.ndim - 2 * d] + (depth, count))


def membership_errors(grid: np.ndarray, d: int, tol: float = MEMBERSHIP_TOL) -> list:
    norms = np.linalg.norm(transform_columns(grid, d), axis=-2)
    worst = float(np.abs(norms - 1.0).max())
    return [] if worst <= tol else [f"column norm deviates from 1 by {worst:.3e}"]


def perpendicular_errors(grid: np.ndarray, modes: np.ndarray, d: int,
                         tol: float = PERPENDICULAR_TOL) -> list:
    """``grid`` against a stack of mode grids (leading axis = mode)."""
    cols = transform_columns(grid, d)
    mode_cols = transform_columns(modes, d)
    inner = np.einsum("dj,mdj->mj", cols.conj(), mode_cols)
    worst = float(np.abs(inner).max()) if inner.size else 0.0
    return [] if worst <= tol else [f"overlap with a mode of {worst:.3e}"]


def mode_stack_errors(modes: np.ndarray, d: int, tol: float = MEMBERSHIP_TOL) -> list:
    """Modes must be shift orthogonal and mutually shift perpendicular."""
    cols = transform_columns(modes, d)
    gram = np.einsum("mdj,ndj->mnj", cols.conj(), cols)
    gram -= np.eye(modes.shape[0])[:, :, None]
    worst = float(np.abs(gram).max())
    return [] if worst <= tol else [f"mode columns deviate from orthonormal by {worst:.3e}"]


def read_coeff_text(path):
    """Parse a coefficient file; returns ``(header, grid, errors)``.

    Checks the header keys, the field count, every index range and that
    each multi-index appears exactly once.  ``grid`` is None on error.
    """
    with open(path, "r", encoding="ascii") as handle:
        header = json.loads(handle.readline())
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    missing = {"schema", "d", "L", "N", "kind"} - set(header)
    if missing:
        return header, None, [f"header lacks {sorted(missing)}"]
    d = int(header["d"])
    shifts, depths = tuple(header["L"]), tuple(header["N"])
    if body.shape[1] != 2 * d + 2:
        return header, None, [f"rows have {body.shape[1]} fields"]
    index = body[:, : 2 * d].astype(np.int64)
    index[:, :d] -= 1
    shape = depths + shifts
    in_range = ((index >= 0) & (index < np.array(shape))).all(axis=1)
    if not in_range.all():
        return header, None, [f"{int((~in_range).sum())} rows index out of range"]
    flat = np.ravel_multi_index(index.T, shape)
    size = math.prod(shape)
    counts = np.bincount(flat, minlength=size)
    if counts.size != size or not (counts == 1).all():
        return header, None, ["indices do not cover the domain exactly once"]
    data = np.empty(size, dtype=np.complex128)
    data[flat] = body[:, 2 * d] + 1j * body[:, 2 * d + 1]
    return header, data.reshape(shape), []


def agreement_errors(got: np.ndarray, want: np.ndarray, tol: float = AGREEMENT_TOL) -> list:
    worst = float(np.abs(got - want).max())
    return [] if worst <= tol else [f"differs from the in-memory projection by {worst:.3e}"]


def spot_columns(grid2d: np.ndarray, shifts: tuple, freqs: list) -> np.ndarray:
    """Transform columns at a few frequency multi-indices, by direct sums.

    ``grid2d`` is the (depth_count, shift_count) view; returns (len(freqs), D).
    Every coefficient enters every column, so a single corrupted value shows
    in any of them.
    """
    positions = np.indices(shifts).reshape(len(shifts), -1)
    phases = np.stack([
        np.exp(2j * np.pi * sum(f[k] * positions[k] / shifts[k] for k in range(len(shifts))))
        for f in freqs
    ])
    return phases @ grid2d.T


def spot_errors(grid2d, shifts, freqs, mode_grids2d=(), tol=MEMBERSHIP_TOL) -> list:
    cols = spot_columns(grid2d, shifts, freqs)
    errors = []
    worst = float(np.abs(np.linalg.norm(cols, axis=1) - 1.0).max())
    if worst > tol:
        errors.append(f"spot column norm deviates from 1 by {worst:.3e}")
    for mode in mode_grids2d:
        overlap = float(np.abs(np.einsum("fd,fd->f", cols.conj(),
                                         spot_columns(mode, shifts, freqs))).max())
        if overlap > tol:
            errors.append(f"spot column overlaps a mode by {overlap:.3e}")
    return errors
