"""Times in reference seconds: wall time divided by the machine's current speed.

On a shared machine the speed of a CPU changes by up to 70 % in phases that
last from seconds to minutes, and the process's CPU time changes with it
(no time is stolen; each instruction runs slower).  So the clock samples
the speed while it measures: every PERIOD_S seconds a SIGALRM handler times
a fixed reference loop of standard-library Python (``Fraction`` and ``int``
arithmetic, lists and dicts, nothing of ``latheights``).  An interval of
wall time is then rescaled by the loop times sampled during it:

    reference seconds = wall seconds * mean(REF_NOMINAL_S / loop time)

Each loop time is first smoothed (the median of SMOOTH samples around it)
against single slow samples.  The mean, not the median, of the speeds
follows a phase change in the middle of a long operation: samples come at
a steady rate, so each stretch of the interval counts by its length.

The loop was sized so that it takes about REF_NOMINAL_S in the fastest
phase of a 2-vCPU Intel Xeon VM, where a reference second is about a wall
second.  The handler's own time is left out of every interval.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List

REF_NOMINAL_S = 0.0005  # the loop's time in the fastest phase of that VM
PERIOD_S = 0.05  # one sample every 50 ms: about 1 % of the time
SMOOTH = 5  # a loop time is the median of this many neighbouring samples
MIN_SAMPLES = 3  # an interval with fewer samples uses the nearest ones


def reference_loop() -> None:
    """A fixed piece of interpreter work, shaped like the library's own."""
    acc = Fraction(1, 3)
    seen = {}
    for i in range(1, 50):
        acc = acc * Fraction(i + 2, i + 1) + Fraction(1, i * i + 1)
        seen[i] = [acc.numerator % 97, acc.denominator % 89]
    s = 0
    for i in range(3300):
        s += (i * 2654435761) % 1000003


class RefClock:
    """Wall clock without the handler's time, plus the sampled loop times."""

    def __init__(self):
        self.times: List[float] = []  # start of each sample, perf_counter
        self.loops: List[float] = []  # seconds the loop took
        self.handler_s = 0.0
        self._smooth: List[float] = []
        self._old = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the caller's garbage is not the loop's time
        try:
            reference_loop()
        finally:
            if enabled:
                gc.enable()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.loops.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def _tick(self, signum, frame):
        self.sample()

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def now(self) -> float:
        """perf_counter minus the time spent in samples so far."""
        return time.perf_counter() - self.handler_s

    def _smoothed(self) -> List[float]:
        if len(self._smooth) != len(self.loops):
            half = SMOOTH // 2
            self._smooth = [statistics.median(self.loops[max(0, j - half):j + half + 1])
                            for j in range(len(self.loops))]
        return self._smooth

    def rescale(self, seconds: float, t0: float, t1: float) -> float:
        """`seconds` measured over [t0, t1] (perf_counter times), in reference
        seconds: scaled by the mean speed sampled within half a period of the
        interval, or at the MIN_SAMPLES samples nearest to it."""
        lo = bisect.bisect_left(self.times, t0 - PERIOD_S / 2)
        hi = bisect.bisect_right(self.times, t1 + PERIOD_S / 2)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return seconds * statistics.fmean(REF_NOMINAL_S / x for x in self._smoothed()[lo:hi])
