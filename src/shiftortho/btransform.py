"""Forward and inverse B-transform: per-depth-slice DFTs over the shift axes.

Within every depth slice the forward transform sums coefficients against
positive-sign complex exponentials over the shift indices: an unnormalized
inverse FFT of that slice, so the shift-count scale is applied inside the
FFT (``norm="forward"``) rather than in a separate pass.  The pair
block-diagonalizes every cyclic shift correlation into independent
per-frequency columns, which is what makes the fast projection possible.
Any shift count is supported; the FFT backend handles non power-of-two
lengths.

The transforms run on ``numpy.fft`` as one 1-D pass per shift axis, the
last axis first as ``numpy.fft.fftn`` orders them, each pass writing the
output buffer.  Depth slices are independent, and so are the lines of one
pass.  A call on at least ``_SPLIT_COEFFS`` coefficients is split into
one part per worker: contiguous depth slabs that each take every pass,
or, with fewer depths than workers, parts of each pass along the longest
other shift axis.  The caller's thread shares the parts with the
library's one thread pool (pocketfft releases the GIL); a smaller call
runs on the caller's thread alone.  Every line is transformed the same
way whatever the split, so the result does not depend on it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .lattice import CoeffTensor

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
    """``_WORKERS`` contiguous, near-equal slices of ``range(length)``."""
    bounds = [length * k // _WORKERS for k in range(_WORKERS + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _shift_passes(fft: Callable, src: np.ndarray, out: np.ndarray) -> None:
    """Apply the 1-D ``fft`` over every shift axis of ``src``, writing ``out``.

    Both are shaped ``(depth_count,) + shifts``; ``out`` may be ``src``.
    """
    axes = range(src.ndim - 1, 0, -1)

    def passes(part) -> None:
        x = src[part]
        for axis in axes:
            fft(x, axis=axis, norm="forward", out=out[part])
            x = out[part]

    if src.size < _SPLIT_COEFFS:
        passes(())
    elif src.shape[0] >= _WORKERS:
        _run_parts(passes, _split(src.shape[0]))
    else:
        for axis in axes:
            others = [a for a in axes if a != axis and src.shape[a] >= _WORKERS]
            parts = [()]
            if others:
                split = max(others, key=src.shape.__getitem__)
                parts = [(slice(None),) * split + (part,) for part in _split(src.shape[split])]

            def one_pass(part) -> None:
                fft(src[part], axis=axis, norm="forward", out=out[part])

            _run_parts(one_pass, parts)
            src = out


def _slab_view(t: CoeffTensor) -> np.ndarray:
    """View of ``t`` shaped ``(depth_count,) + shifts``."""
    return t.data.reshape((t.domain.depth_count,) + t.domain.shifts)


def b_transform(v: CoeffTensor) -> CoeffTensor:
    """Forward transform: ``out(i; j) = sum_l exp(+2*pi*i j.l / L) v(i; l)``."""
    src = _slab_view(v)
    out = np.empty_like(src)
    _shift_passes(np.fft.ifft, src, out)
    return CoeffTensor._trusted(v.domain, out)


def b_inverse(p: CoeffTensor) -> CoeffTensor:
    """Inverse transform; ``b_inverse(b_transform(v)) == v`` up to rounding."""
    src = _slab_view(p)
    out = np.empty_like(src)
    _shift_passes(np.fft.fft, src, out)
    return CoeffTensor._trusted(p.domain, out)


def _b_inverse_in_place(p: CoeffTensor) -> CoeffTensor:
    """:func:`b_inverse` computed in ``p``'s buffer, for a caller that drops ``p``.

    A fresh output costs a page-faulting allocation on every call once the
    tensor outgrows the allocator's cached memory: about 1000 faults and
    7-10 ms per 2^20-coefficient projection on a 2-CPU Xeon VM.
    """
    src = _slab_view(p)
    _shift_passes(np.fft.fft, src, src)
    return p
