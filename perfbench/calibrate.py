"""Sampling the host's speed during a run, to scale the timings by it.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to half again over seconds to minutes (other tenants' load), and the drift
shows in CPU time as much as in wall time.  While an operation runs, a timer
signal interrupts the process every ``INTERVAL_S`` and times a chunk of
fixed work in the handler, so the host's speed is sampled during long
operations too.  A pass's time (minus the time spent in the handler) is
scaled by ``NOMINAL_S`` over the median chunk time during that pass: it
becomes the pass time on a host where one chunk takes ``NOMINAL_S``.

The chunk mixes Fraction arithmetic with scattered lookups into a list and
a dict of a few MB, because qclab's exact arithmetic over large tables slows
with the host's load about as much as such lookups do, and more than work
that stays in the nearest caches.  It calls no qclab code, so no change to
the program can change it; it runs with the cyclic collector off, so the
program's heap cannot lengthen it either.  Its tables add about 5 MB to the
process's resident memory.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.25
# the median chunk time on the reference host (2 vCPUs of a shared Xeon,
# Python 3.11.7); it only sets the scale of the timings
NOMINAL_S = 0.0025
_STEPS = 200
_LOOKUPS = 8  # per step
_rng = random.Random(1706)
_INTS = [_rng.randrange(1 << 40, 1 << 41) for _ in range(1 << 16)]
_TABLE = {_INTS[i]: i for i in range(1 << 15)}


def _work() -> int:
    x, acc, j, total = Fraction(1, 3), Fraction(0), 12345, 0
    for k in range(1, _STEPS):
        acc += x / k
        x *= Fraction(k % 7 + 1, k % 5 + 2)
        if x.denominator > 10**40:
            x = Fraction(1, 3)
        for _ in range(_LOOKUPS):
            j = (j * 1103515245 + 12345) & 0xFFFF
            total += _TABLE.get(_INTS[j], j)
    return acc.numerator % 1_000_003 + total


EXPECTED = _work()


def chunk() -> float:
    """Time one chunk of the fixed work, run once untimed first so that the
    caches hold what it touches whatever the program left in them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.perf_counter()
        value = _work()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if value != EXPECTED:
        raise RuntimeError("calibration chunk computed a different value")
    return dt


def scale(samples: list[float]) -> float:
    """``NOMINAL_S`` over the median chunk time (1.0 with no samples)."""
    return NOMINAL_S / statistics.median(samples) if samples else 1.0


class Sampler:
    """While installed, times a chunk on every ``SIGALRM`` that arrives
    inside ``measuring()``.  ``samples`` holds the chunk times and ``spent``
    the total time spent in the handler, which the passes subtract from
    their operation times."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False
        self._previous = None

    @contextmanager
    def measuring(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        self.samples.append(chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
