"""Forward and inverse B-transform: per-depth-slice DFTs over the shift axes.

Within every depth slice the forward transform sums coefficients against
positive-sign complex exponentials over the shift indices: an unnormalized
inverse FFT of that slice, so the shift-count scale is applied inside the
FFT (``norm="forward"``) rather than in a separate pass.  The pair
block-diagonalizes every cyclic shift correlation into independent
per-frequency columns, which is what makes the fast projection possible.
Any shift count is supported; the FFT backend handles non power-of-two
lengths.  :func:`b_transform` and :func:`b_inverse` return complex
tensors, for real inputs too.

For a real tensor the columns at frequencies ``j`` and ``-j`` are complex
conjugates, so half of them determine the rest.  The private pair
:func:`_half_transform` / :func:`_half_inverse` keeps only that half:
``rfft`` along the last shift axis and ``fft`` along the others, then
``ifft`` and ``irfft`` back to a real tensor, about half the work and
memory of the complex pair.  The projection runs real inputs through it.

The transforms run on ``numpy.fft`` as one 1-D pass per shift axis, the
last axis first as ``numpy.fft.fftn`` orders them, each pass writing the
output buffer.  Depth slices are independent, and so are the lines of one
pass.  A call on at least ``_SPLIT_COEFFS`` coefficients is split:
into contiguous depth slabs, one per worker, that each take every pass,
or, with fewer depths than workers, into parts of each pass along the
longest other axis, the depth axis included (one per worker, or one per
entry of a shorter axis).  The caller's thread shares the parts with the
library's one thread pool (pocketfft releases the GIL); a smaller call
runs on the caller's thread alone.  Every line is transformed the same
way whatever the split, so the result does not depend on it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .lattice import CoeffTensor, LatticeDomain

_WORKERS = os.cpu_count() or 1

# The library's one thread pool: FFT parts here, column blocks in
# ``projection``.  Nothing that runs on it may submit to it: once every
# thread waits on a task queued behind it, a bounded pool deadlocks.  The
# executor starts its threads on the first submit, not at import.
_POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="shiftortho")

# Calls on fewer coefficients run on the caller's thread, FFTs and column
# kernel alike, so threading starts at one doubling step of the bench
# sweep, and criterion 10 bounds the time ratio of every step.  At 2^17
# the largest ratio read 2.38 against the bound of 2.6 in five runs; with
# the step at 2^15-2^16 or 2^18 earlier trials read up to 2.8-2.96 (2 CPUs).
_SPLIT_COEFFS = 1 << 17


def _run_parts(body: Callable, parts: Sequence) -> None:
    """Call ``body`` on every part, round robin over the caller's thread and the pool.

    The caller takes every ``_WORKERS``-th part from the first on, so a
    single part runs on the caller's thread and nothing is submitted.
    Working on the caller's thread instead of waiting there took 2^17-2^18
    coefficient projections from 2.8-7.1 to 2.1-5.8 ms (2 CPUs).
    """
    def share(first: int) -> None:
        for part in parts[first::_WORKERS]:
            body(part)

    helpers = [_POOL.submit(share, k) for k in range(1, min(_WORKERS, len(parts)))]
    try:
        share(0)
    finally:
        # Wait for every helper; reading its result re-raises its exception.
        for helper in helpers:
            helper.result()


def _split(length: int) -> list[slice]:
    """``min(_WORKERS, length)`` contiguous, near-equal slices of ``range(length)``."""
    count = min(_WORKERS, length)
    bounds = [length * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _shift_passes(steps: Sequence[tuple], size: int) -> None:
    """Run every ``(fft, axis, src, dst)`` step: the 1-D ``fft`` along ``axis``.

    Arrays are shaped ``(depth_count,) + ...``, and a step's ``src`` and
    ``dst`` agree on every axis but its own; ``dst`` may be ``src``.
    ``size``, the tensor's coefficient count, picks the split.
    """
    def run(part_steps, part) -> None:
        for fft, axis, src, dst in part_steps:
            fft(src[part], axis=axis, out=dst[part])

    depth_count = steps[0][2].shape[0]
    if size < _SPLIT_COEFFS:
        run(steps, ())
    elif depth_count >= _WORKERS:
        _run_parts(partial(run, steps), _split(depth_count))
    else:
        for step in steps:
            _, axis, src, _ = step
            others = [a for a in range(src.ndim - 1, -1, -1) if a != axis and src.shape[a] >= 2]
            parts = [()]
            if others:
                split = max(others, key=src.shape.__getitem__)
                parts = [(slice(None),) * split + (part,) for part in _split(src.shape[split])]
            _run_parts(partial(run, [step]), parts)


def _slab_view(t: CoeffTensor) -> np.ndarray:
    """View of ``t`` shaped ``(depth_count,) + shifts``."""
    return t.data.reshape((t.domain.depth_count,) + t.domain.shifts)


def _complex_transform(fft: Callable, t: CoeffTensor, in_place: bool = False) -> CoeffTensor:
    """``fft`` (``norm="forward"``) over every shift axis of ``t``, last first.

    Into a fresh complex tensor, or with ``in_place`` into ``t``'s own
    buffer, for a complex ``t`` that the caller drops: a fresh output costs
    a page-faulting allocation on every call once the tensor outgrows the
    allocator's cached memory, about 1000 faults and 7-10 ms per
    2^20-coefficient projection on a 2-CPU Xeon VM.
    """
    src = _slab_view(t)
    out = src if in_place else np.empty(src.shape, dtype=np.complex128)
    fft = partial(fft, norm="forward")
    last = src.ndim - 1
    steps = [(fft, axis, src if axis == last else out, out) for axis in range(last, 0, -1)]
    _shift_passes(steps, t.domain.size)
    return CoeffTensor._trusted(t.domain, out)


def b_transform(v: CoeffTensor) -> CoeffTensor:
    """Forward transform: ``out(i; j) = sum_l exp(+2*pi*i j.l / L) v(i; l)``."""
    return _complex_transform(np.fft.ifft, v)


def b_inverse(p: CoeffTensor) -> CoeffTensor:
    """Inverse transform; ``b_inverse(b_transform(v)) == v`` up to rounding."""
    return _complex_transform(np.fft.fft, p)


def _half_transform(v: CoeffTensor) -> np.ndarray:
    """Conjugated B-transform columns of a real ``v`` with last shift index ``<= L // 2``.

    ``rfft`` along the last shift axis, then ``fft`` along the others: both
    have the negative sign, so this is the conjugate of the B-transform's
    half spectrum, shaped ``(depth_count,) + shifts[:-1] + (L // 2 + 1,)``.
    For real ``v`` the other columns are conjugates of these: the columns
    at ``j`` and ``-j`` are twins with equal norms.
    """
    src = _slab_view(v)
    last = src.ndim - 1
    out = np.empty(src.shape[:-1] + (src.shape[-1] // 2 + 1,), dtype=np.complex128)
    steps = [(np.fft.rfft, last, src, out)]
    steps += [(np.fft.fft, axis, out, out) for axis in range(last - 1, 0, -1)]
    _shift_passes(steps, v.domain.size)
    return out


def _half_inverse(half: np.ndarray, domain: LatticeDomain) -> CoeffTensor:
    """The real tensor whose :func:`_half_transform` is ``half``, which it overwrites.

    With two or more shift axes, the planes of last shift index 0 and
    ``L // 2`` (even ``L``) hold both twins of their columns.  The later
    twin of each pair is first set to the conjugate of the earlier, so
    twins that the kernel treated apart (one scaled, one at the fallback)
    give the earlier column's tensor rather than their average, no
    member.  Then come the ``ifft`` passes, in place, and ``irfft`` with
    the explicit last shift count, so odd counts keep their length.
    """
    last = half.ndim - 1
    if last > 1:
        others, count = domain.shifts[:-1], domain.shifts[-1]
        axes = tuple(range(1, last))
        order = np.arange(math.prod(others)).reshape(others)
        later = np.roll(np.flip(order), 1, axis=tuple(range(last - 1))) < order
        for index in (0, count // 2) if count % 2 == 0 else (0,):
            plane = half[..., index]
            twins = np.roll(np.flip(plane, axes), 1, axes).conj()
            plane[:, later] = twins[:, later]
    out = np.empty((domain.depth_count,) + domain.shifts)
    irfft = partial(np.fft.irfft, n=domain.shifts[-1])
    steps = [(np.fft.ifft, axis, half, half) for axis in range(1, last)]
    steps.append((irfft, last, half, out))
    _shift_passes(steps, domain.size)
    return CoeffTensor._trusted(domain, out)
