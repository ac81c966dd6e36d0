"""Forward and inverse B-transform: per-depth-slice DFTs over the shift axes.

Within every depth slice the forward transform sums coefficients against
positive-sign complex exponentials over the shift indices: an unnormalized
inverse FFT of that slice, so the shift-count scale is applied inside the
FFT (``norm="forward"``) rather than in a separate pass.  The pair
block-diagonalizes every cyclic shift correlation into independent
per-frequency columns, which is what makes the fast projection possible.
Any shift count is supported; the FFT backend handles non power-of-two
lengths.
"""

from __future__ import annotations

import os

import scipy.fft

from .lattice import CoeffTensor

_WORKERS = os.cpu_count() or 1


def b_transform(v: CoeffTensor) -> CoeffTensor:
    """Forward transform: ``out(i; j) = sum_l exp(+2*pi*i j.l / L) v(i; l)``."""
    domain = v.domain
    out = scipy.fft.ifftn(v.grid, axes=domain.shift_axes, norm="forward",
                          workers=_WORKERS)
    return CoeffTensor._trusted(domain, out)


def b_inverse(p: CoeffTensor) -> CoeffTensor:
    """Inverse transform; ``b_inverse(b_transform(v)) == v`` up to rounding."""
    domain = p.domain
    out = scipy.fft.fftn(p.grid, axes=domain.shift_axes, norm="forward",
                         workers=_WORKERS)
    return CoeffTensor._trusted(domain, out)


def _b_inverse_in_place(p: CoeffTensor) -> CoeffTensor:
    """:func:`b_inverse` computed in ``p``'s buffer, for a caller that drops ``p``.

    A fresh output costs a page-faulting allocation on every call once the
    tensor outgrows the allocator's cached memory: about 1000 faults and
    7-10 ms per 2^20-coefficient projection on a 2-CPU Xeon VM.
    """
    domain = p.domain
    out = scipy.fft.fftn(p.grid, axes=domain.shift_axes, norm="forward",
                         overwrite_x=True, workers=_WORKERS)
    return CoeffTensor._trusted(domain, out)
