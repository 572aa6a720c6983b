"""Machine-speed gauge: scales measured times to a fixed reference speed.

The benchmark runs on a shared machine whose speed changes by up to 2x over
minutes as other tenants come and go.  Every time metric is therefore
divided by the recent time of a fixed reference kernel and multiplied by
``REF_S``, so a value reads as it would on a machine where the kernel takes
exactly 1 ms.  The kernel is timed between ops at least every ``EVERY_S``
seconds; a duration is scaled by the median of the last ``WINDOW``
readings, which smooths millisecond jitter but follows changes of machine
speed that last a second or more.  The
kernel is one cyclic complex Jacobi sweep over a fixed 8x8 Hermitian matrix,
written here and not taken from qent, so a change to qent never changes it.
It is the same mix of interpreter work and small numpy calls as qent's hot
loop, so it slows and speeds up with the machine as the ops do.

Process start-up does not follow the kernel, so start-up times are scaled
by their own reference instead: ``START_REF_S`` over the time of a fresh
``python -c "import numpy"`` process run next to them (see ``run.py``).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 1e-3        # kernel time at the reference speed
START_REF_S = 0.15  # fresh `python -c "import numpy"` time at the reference speed
EVERY_S = 0.25      # minimum spacing of gauge readings
REPEATS = 3         # kernel runs per reading; the reading is their median
WINDOW = 5          # readings whose median scales a duration

_rng = np.random.default_rng(20230526)
_g = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_MATRIX = _g + _g.conj().T


def kernel():
    """One cyclic Jacobi sweep over the fixed matrix."""
    a = _MATRIX.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            mod = abs(apq)
            phase = apq / mod
            tau = (a[q, q].real - a[p, p].real) / (2.0 * mod)
            t = np.copysign(1.0, tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * np.conj(phase) * col_q
            a[:, q] = s * phase * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * phase * row_q
            a[q, :] = s * np.conj(phase) * row_p + c * row_q
    return a


class Gauge:
    """Keeps a recent kernel time and scales durations by it."""

    def __init__(self):
        self.readings = []
        self._last = float("-inf")

    def refresh(self, force=False):
        """Take a new reading if ``force`` or the last one is old."""
        if force or perf_counter() - self._last >= EVERY_S:
            times = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                kernel()
                times.append(perf_counter() - t0)
            self.readings.append(statistics.median(times))
            self._last = perf_counter()

    def scale(self, seconds):
        """``seconds`` at the reference speed, by the recent readings."""
        return seconds * REF_S / statistics.median(self.readings[-WINDOW:])
