"""Host speed reference: times in seconds at a fixed reference speed.

On a shared host the interpreter's speed is not steady. It flips
between a fast and a slow state (about 1.6x apart) every few seconds,
and the share of time in the slow state drifts over minutes as other
tenants come and go. A pass's wall time drifts with it, and so does the
process's CPU time. So the benchmark samples the speed all through
every timed operation: an interval timer (SIGALRM, in the one thread)
interrupts the operation every INTERVAL_S and times a short fixed
pure-Python kernel, shaped like the FDM step loop (float arithmetic, a
branch, `math.sqrt`). The operation's time in *reference seconds* is
its wall time, less the time spent in the samples, times REF_S times
the mean of 1 / (kernel time) over its samples: the time the operation
would take on a host where the kernel always takes REF_S. A slower
vesim still reads slower; a slower host does not.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

REF_ITERS = 5_000
REF_S = 0.001       # nominal kernel time: about this 2-core Xeon, unloaded
INTERVAL_S = 0.05   # one sample per 50 ms of an operation, ~2% of it


def kernel(n: int = REF_ITERS) -> float:
    x, y, acc = 0.5, 1.5, 0.0
    for k in range(n):
        x += 0.001 * (y - x * x) / (1.0 + x)
        if x > 1.0:
            acc += math.sqrt(x)
        y = 1.5 - 0.1 * acc / (k + 1)
    return x + acc


class Clock:
    """Times operations in wall and reference seconds."""

    def __init__(self):
        self.samples: list[float] = []  # every kernel time of the run
        self._op: list[float] = []      # kernel times of this operation
        self._spent = 0.0               # time in samples, this operation
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._op.append(t1 - t0)
        self._spent += time.perf_counter() - t0
        self._busy = False

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Run fn; returns its result, wall seconds, reference seconds.

        Wall seconds leave out the speed samples taken during fn.
        """
        self._op, self._spent = [], 0.0
        self._sample()  # at least one sample, however short fn is
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0 - self._spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples += self._op
        rate = statistics.fmean(REF_S / s for s in self._op)
        return out, wall, wall * rate
