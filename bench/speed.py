"""How fast this machine runs Python right now, and times corrected for it.

On a shared host the same pure-Python code runs up to twice as fast in one
stretch of seconds as in the next, because of load the benchmark cannot see.
`SpeedProbe` samples that speed while a pass runs: a SIGALRM timer fires
every PROBE_INTERVAL_S and its handler times one fixed reference loop.
`normalized(a, b)` then turns the wall interval [a, b] into seconds at the
nominal speed: each stretch between two probes counts its length times
REF_LOOP_S over the reference-loop time measured at its end, and the probes'
own time is left out.  A program that does twice the work reads twice the
seconds at any machine speed; a machine that runs twice as slow does not.

Stdlib only; imported by run.py (set-up probe) and workload.py (passes).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_LOOP_ITERATIONS = 600
# Nominal time of one reference loop, a round figure near its time on the
# 2-vCPU Xeon VM the benchmark was written on, so normalized seconds read close
# to seconds.
REF_LOOP_S = 0.0015
PROBE_INTERVAL_S = 0.05


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def at(self, t):
        return self.x * t + self.y


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now.

    The loop mixes what the interpreter does in tentspec -- int and float
    arithmetic, method calls, builtins, tuples, a dict and a sort -- because
    a narrow arithmetic loop tracked the program's speed about half as well.
    """
    t0 = time.perf_counter()
    acc = 0.0
    pairs = []
    for i in range(REF_LOOP_ITERATIONS):
        a, b = divmod(i * 7919, 1013)
        x = min(_Point(a * 0.5, b).at(0.25), max(a, b)) + abs(b - a)
        pairs.append((x, a))
        acc += x / (b + 1.0)
    dict(pairs)
    pairs.sort()
    return time.perf_counter() - t0


def reference_median(samples: int = 15) -> float:
    return statistics.median(reference_loop() for _ in range(samples))


class SpeedProbe:
    """Reference-loop samples taken on a timer while the program runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # One last sample closes the final stretch.
        self._sample(None, None)
        return False

    def probe_seconds(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def normalized(self, a: float, b: float) -> float:
        """Seconds at the nominal speed covered by the wall interval [a, b]."""
        total = 0.0
        k = bisect.bisect_left(self.ends, a)
        lo = a
        while lo < b and k < len(self.starts):
            # Stretch k runs from the end of probe k-1 to the start of probe k.
            hi = min(b, self.starts[k])
            if hi > lo:
                total += (hi - lo) * REF_LOOP_S / (self.ends[k] - self.starts[k])
            lo = max(lo, self.ends[k])
            k += 1
        return total
