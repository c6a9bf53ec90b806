"""Machine-speed probe: rescales measured times to a fixed reference speed.

The benchmark shares its machine, and the speed at which the same code runs
drifts by up to a factor of two over tens of seconds.  A probe therefore
times a fixed kernel (interpreter float and complex arithmetic plus small
numpy array work, the mix the library itself runs, and no levybond code)
every ``PERIOD_S`` seconds, from a SIGALRM handler in the measured thread.
A measured interval's busy time (probe time removed) is multiplied by
``REFERENCE_S / kernel time``, averaged over the samples taken during the
interval and within ``WINDOW_S`` of it, so a metric reads the seconds the
work would take at the reference speed.  A change to the library leaves the
kernel alone, so it moves the rescaled times as much as the raw ones.

Monte Carlo calls run large-array numpy, whose speed drifts apart from the
interpreter's (memory bandwidth rather than the instruction stream), so the
probe also times an array kernel, and intervals the caller marks as array
work are rescaled by that one instead.

Set-up is interpreter start and imports rather than arithmetic, so its
reference is work of that kind: a fresh interpreter importing the library's
third-party dependencies and nothing of levybond.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 4.0e-4     # each kernel's time that defines the reference speed
WINDOW_S = 0.5           # samples this close to an interval also describe it
START_SAMPLES = 5        # taken at once on entry, so the first intervals have a window

SETUP_REFERENCE = "import numpy, scipy.integrate, scipy.interpolate, scipy.optimize"
SETUP_REFERENCE_S = 0.8  # its time that defines the reference speed

_X = np.linspace(0.05, 3.0, 240)
_ROOTS = (0.7 + 0.2j, -1.3 + 0.0j, -2.6 - 0.4j)
_PATHS = np.linspace(0.0, 1.0, 20_000)


def kernel() -> float:
    acc = 0.0
    for x in _X:
        xv = float(x)
        for r in _ROOTS:
            acc += (cmath.exp(r * xv) / (r + 1.0)).real
        acc += math.exp(-xv) * math.sqrt(xv) + math.log1p(xv)
    v = _X
    for _ in range(8):
        v = np.sqrt(v * v + 1.0) - 0.5
    return acc + float(v.sum())


def array_kernel() -> float:
    w = _PATHS
    for _ in range(5):
        w = np.exp(-0.5 * w) + 0.1 * w
    return float(w.sum())


def scale(busy: float, took: list[float]) -> float:
    """``busy`` seconds at reference speed, given kernel times sampled while
    they ran.  Kernel times above three times their median (the handler was
    interrupted) are clipped, so one stall cannot shrink the result."""
    cap = 3.0 * statistics.median(took)
    return busy * statistics.fmean(REFERENCE_S / min(k, cap) for k in took)


class SpeedProbe:
    """Samples both kernels every ``PERIOD_S`` while active (a context manager)."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cost: list[float] = []         # the whole sample, removed from busy time
        self.took: list[float] = []
        self.took_array: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        for _ in range(START_SAMPLES):
            self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        array_kernel()
        t2 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.took_array.append(t2 - t1)
        self.cost.append(t2 - t0)

    def _rescaled(self, t0: float, t1: float, took: list[float]) -> float:
        busy = (t1 - t0) - sum(self.cost[bisect_left(self.at, t0):bisect_right(self.at, t1)])
        window = took[bisect_left(self.at, t0 - WINDOW_S):bisect_right(self.at, t1 + WINDOW_S)]
        return scale(busy, window)

    def reference_seconds(self, t0: float, t1: float,
                          array: list[tuple[float, float]] = ()) -> float:
        """Busy time of the interval ``[t0, t1]`` at reference speed; call
        it once sampling is over, so samples after the interval count too.
        ``array`` lists the sorted, disjoint sub-intervals of array work."""
        total, t = 0.0, t0
        for a, b in array:
            total += self._rescaled(t, a, self.took) + self._rescaled(a, b, self.took_array)
            t = b
        return total + self._rescaled(t, t1, self.took)
