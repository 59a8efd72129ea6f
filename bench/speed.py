"""The machine's speed, sampled while a run measures, so that the run's
times can be given at one reference speed.

The benchmark was built on a 2-vCPU virtual machine of a shared host
that runs at one of two speeds, about 1.7x apart, switching every few
seconds; the share of slow time changes from minute to minute.  A pass
of several seconds, or a whole run, therefore reads anywhere between
one speed and the other, and ten runs of the same code spread by more
than any regression worth gating.  The slowdown is about the same for
all of the benchmark's code, so it can be measured on a fixed loop of
the benchmark's own and divided out:

    scaled time = measured time * PROBE_REFERENCE_S / (time of the loop)

A timer signal every PROBE_INTERVAL_S runs the loop and records when it
started and how long it took.  A sample's time is the median of it and
its neighbours, so that one sample slowed by an interrupt does not count
as a slow stretch; an interval's speed is the mean over the samples
taken inside it (the nearest one for an interval shorter than the
sampling period).  The loop calls nothing in the package, so no change
to the package can change what it measures.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.01
# About the loop's time at the faster of the two speeds on the machine
# above, so that scaled times read as seconds at that speed.
PROBE_REFERENCE_S = 20e-6
PROBE_NEIGHBOURS = 4


def probe_loop() -> int:
    s = 0
    for i in range(400):
        s += i * i
    return s


class SpeedProbe:
    """Context manager: samples the speed while it is open; `factor`
    works once it has closed."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.smoothed: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.smooth()
        return False

    def smooth(self) -> None:
        h = PROBE_NEIGHBOURS
        self.smoothed = [statistics.median(self.took[max(0, i - h):i + h + 1]) for i in range(len(self.took))]

    def factor(self, t0: float, t1: float) -> float:
        """What a time measured between perf_counter readings t0 and t1
        is multiplied by to give it at the reference speed."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if lo == hi:
            lo = max(lo - 1, 0)
            hi = lo + 1
        return statistics.fmean(PROBE_REFERENCE_S / p for p in self.smoothed[lo:hi])
