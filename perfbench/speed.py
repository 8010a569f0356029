"""Host-speed-normalized timing for a machine whose speed drifts.

The shared 2-core host this benchmark was built on runs the same Python
code anywhere from 1.0x to 1.7x slower depending on its neighbours' load,
in phases lasting from seconds to minutes.  Raw times of runs made a few
minutes apart then differ by more than any useful regression bound.

While a run measures, SIGALRM fires every PERIOD_S seconds and the
handler times ``kernel`` on the same thread: a fixed run of big-integer
products followed by one gcd of two 6000-bit integers.  Of the kernels
tried (a pure-Python integer loop, tuple and dict building, random list
reads, products, gcds, Fraction sums), products tracked the oracle code
best and gcds the series code; the two together cut the run-to-run spread
of raw pass times from about 11% to about 2% on both.

The time of an interval [a, b] in reference seconds is

    (b - a - kernel time inside it) * REF_KERNEL_S * mean(1 / kernel time)

over the kernel samples inside the interval (the nearest samples when
none falls inside), that is, how long the interval would have taken with
the kernel running at REF_KERNEL_S per call.  The handler costs about 1%
of the run.  Raw and normalized times are both reported.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD_S = 0.025
# Seconds one kernel call takes on an unloaded core of the 2-core Xeon host.
REF_KERNEL_S = 1.6e-4

_X, _Y = 7**600, 3**500
_G, _H = 3**9000 >> 8000, 5**6000 >> 7000


def kernel() -> None:
    for _ in range(40):
        _X * _Y
    math.gcd(_G, _H)


class SpeedClock:
    """Kernel samples taken from a timer signal, and the normalization."""

    def __init__(self):
        self.t: list[float] = []
        self.d: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.t.append(t0)
        self.d.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedClock:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def burst(self, n: int = 20) -> None:
        """Take n samples now, outside any timer."""
        for _ in range(n):
            self._sample(None, None)

    def own_time(self, a: float, b: float) -> float:
        """Seconds the handler itself spent inside [a, b]."""
        i0, i1 = bisect.bisect_left(self.t, a), bisect.bisect_left(self.t, b)
        return sum(self.d[i0:i1])

    def factor(self, a: float, b: float) -> float:
        """REF_KERNEL_S * mean(1 / kernel time) around [a, b]."""
        i0, i1 = bisect.bisect_left(self.t, a), bisect.bisect_left(self.t, b)
        if i1 <= i0:  # no sample inside: the neighbours on either side
            i0, i1 = max(0, i0 - 1), min(len(self.d), i0 + 1)
        inv = [1.0 / d for d in self.d[i0:i1]]
        return REF_KERNEL_S * sum(inv) / len(inv)

    def norm(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of perf_counter time."""
        return (b - a - self.own_time(a, b)) * self.factor(a, b)
