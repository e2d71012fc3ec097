"""Host speed gauge: a fixed kernel timed between requests.

On a shared host the machine as a whole runs at different speeds in
phases of seconds to minutes: a fixed loop took 1.5 times as long in a
slow phase as in a fast one, for pure Python, numpy element-wise work
and a small ``eigh`` alike.  A phase can outlast a whole run, so taking
the fastest repeat of a request cannot remove it.  The gauge times a
fixed kernel of those three parts, none of which calls the package, and
a request's time is scaled by ``REFERENCE_S / kernel time``: it reads as
the time the request would take at the speed where the kernel takes
``REFERENCE_S``.  A change to the package moves its requests and not the
kernel, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import eigh  # bound now, so the tracer's eigh wrapper never sees the gauge

# Kernel time in a fast phase of a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, one BLAS thread).  It fixes the scale of every time metric.
REFERENCE_S = 1.8e-3
INTERVAL_S = 0.05
REPEATS = 3

_VECTOR = np.random.default_rng(0).standard_normal(50_000)
_MATRIX = np.random.default_rng(1).standard_normal((64, 64))
_MATRIX = _MATRIX + _MATRIX.T


def _kernel() -> float:
    s = 0
    for i in range(20_000):
        s += i * i
    v = float(np.sum(np.log1p(np.abs(_VECTOR)) * _VECTOR))
    w = float(eigh(_MATRIX)[0][0])
    return s + v + w


def kernel_seconds(repeats: int = REPEATS) -> float:
    """Fastest of `repeats` timings of the kernel."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        _kernel()
        best = min(best, clock() - t0)
    return best


class Gauge:
    """Samples the kernel at most every INTERVAL_S and scales request times."""

    def __init__(self) -> None:
        kernel_seconds(2)  # lazy BLAS set-up and warm caches
        self.samples: list[float] = []
        self._at = -float("inf")
        self._last = kernel_seconds()

    def sample(self, force: bool = False) -> float:
        """The latest kernel time, re-measured if it is older than INTERVAL_S."""
        now = time.perf_counter()
        if force or now - self._at >= INTERVAL_S:
            self._last = kernel_seconds()
            self._at = time.perf_counter()
            self.samples.append(self._last)
        return self._last

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """A request time measured between two kernel samples, at reference speed."""
        return seconds * REFERENCE_S / (0.5 * (before + after))
