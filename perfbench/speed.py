"""Machine-speed samples, to take the host's speed swings out of job times.

On a shared host the same job can take 40% longer from one minute to the
next, because the cores run other people's work too. The benchmark measures
how fast the machine is around each job by timing a fixed reference loop
(integer, float, dict and ``Fraction`` work, about 0.5 ms): once between
any two jobs, and from a timer signal every ``INTERVAL_S`` seconds during a
job, so that long jobs are covered throughout. A job's wall time divided by
the mean loop time of the samples before, during and after it is the job's
time in multiples of the reference loop, which a faster program lowers and
a slower host does not raise. ``REF_LOOP_S`` turns it back into seconds: a
round figure near the loop's median time (0.3 to 0.7 ms) on the 2-core
Intel Xeon host where the benchmark was defined, so that reference times
there read close to wall times.

The loop is the benchmark's own code, never the program's, so no change to
metriclab can make it faster or slower. Garbage collection is paused while
it runs, so a collection of the program's garbage is charged to the program.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_LOOP_S = 0.0005
_STEP = Fraction(1, 12)


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, total, table = 0, Fraction(0), {}
        for i in range(600):
            acc += i * i % 7
            table[i & 63] = (math.hypot(i * 0.5, 1.0 + i), i)
            if i % 8 == 0:
                total += _STEP
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


class SpeedSampler:
    """Reference-loop times, in the order they were taken.

    ``start()`` takes one sample and arms a ``SIGALRM`` interval timer whose
    handler takes another every ``interval`` seconds; ``stop()`` disarms it
    and restores the previous handler. Use it from the main thread only.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.loops = []
        self._previous = None

    def sample(self):
        self.loops.append(reference_loop())

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_seconds(self, elapsed: float, first: int, end: int) -> float:
        """``elapsed`` wall seconds at the reference speed, going by the
        samples ``loops[first:end]``."""
        return elapsed * REF_LOOP_S / statistics.fmean(self.loops[first:end])
