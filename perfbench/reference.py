"""Fixed reference work that measures how fast the machine runs right now.

On a shared host the same code can run twice as long in one minute as in
the next (a 4-mode ``cpw`` solve took 2.2-5.5 s on a 2-CPU VM).  Each workload therefore times, before and after
every operation, a fixed piece of work of the same kind that does not use
the library under test, and reports operation times in units of it: a
change to the library moves the ratio, a change in the machine's speed
moves both sides of it.

* ``text``: parse and format floats in Python, as coefficient-file I/O does
  (``project-file``);
* ``small``: one FFT round trip on a 512-point grid, a scatter-add, and
  shift-axis FFTs of an 8x16 array with the library's FFT worker count,
  repeated, as each ``cpw`` Bregman iteration makes (``cpw-modes``);
* ``bulk``: shift-axis FFTs with that worker count and column norms over
  a 16 MiB complex array, as the projection at M=2^20 does
  (``project-bulk``).

Each takes about 0.1-0.4 s on a 2-CPU Xeon VM; the longer a reference
runs, the less its own noise adds to the ratio.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import scipy.fft

# The worker count ``shiftortho.btransform`` passes to scipy.fft.
_WORKERS = os.cpu_count() or 1

_rng = np.random.default_rng(12345)
_TEXT = "\n".join(
    ",".join(["3", "7", *(repr(float(v)) for v in _rng.standard_normal(2))])
    for _ in range(60000)
)
_GRID = _rng.standard_normal(512)
_SLOTS = _rng.integers(0, 16, 512)
_SMALL = _rng.standard_normal((8, 16)) + 1j * _rng.standard_normal((8, 16))
_BULK = _rng.standard_normal((16, 65536)) + 1j * _rng.standard_normal((16, 65536))


def _text() -> float:
    rows = [[float(field) for field in line.split(",")] for line in _TEXT.split("\n")]
    written = "\n".join(",".join(repr(value) for value in row) for row in rows)
    return float(len(written))


def _small() -> float:
    psi = _GRID.copy()
    damping = np.fft.fftfreq(512, d=1.0 / 512) ** 2 + 2.0
    total = 0.0
    for _ in range(1500):
        psi = np.fft.ifft(np.fft.fft(psi) / damping).real
        buckets = np.zeros((9, 16), dtype=np.complex128)
        np.add.at(buckets, (_SLOTS % 9, _SLOTS), psi)
        rows = scipy.fft.ifftn(np.fft.ifft(buckets, axis=1)[:8] + _SMALL, axes=(1,),
                               workers=_WORKERS)
        rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)
        rows = scipy.fft.fftn(rows, axes=(1,), workers=_WORKERS)
        slots = np.zeros(512, dtype=np.complex128)
        slots[:16] = rows[0]
        shrunk = psi + np.fft.ifft(slots).real
        shrunk = np.sign(shrunk) * np.maximum(np.abs(shrunk) - 0.1, 0.0)
        total += float(np.linalg.norm(shrunk - psi)) + float(np.abs(rows).max())
    return total


def _bulk() -> float:
    total = 0.0
    for _ in range(2):
        y = scipy.fft.ifftn(_BULK, axes=(1,), workers=_WORKERS)
        y /= np.linalg.norm(y, axis=0)
        y = scipy.fft.fftn(y, axes=(1,), workers=_WORKERS, overwrite_x=True)
        total += float(np.abs(y).sum())
    return total


REFERENCES = {"text": _text, "small": _small, "bulk": _bulk}


def timed(kind: str) -> float:
    """Wall seconds of one run of the reference work ``kind``."""
    start = perf_counter()
    REFERENCES[kind]()
    return perf_counter() - start
