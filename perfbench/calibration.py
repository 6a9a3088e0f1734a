"""Take the host's speed out of the end-to-end timings.

The benchmark runs on shared hosts whose cores run up to a third slower for
seconds at a time, in CPU time as well as wall time. So the worker times a
fixed kernel between the intervals it measures, and reports each interval as
it would read on a core where the kernel takes REFERENCE_S:

    reference_s = wall_s * REFERENCE_S / median(kernel runs next to the interval)

The kernel is benchmark code, so a change to espolab does not change it. Its
work mirrors one decoded token of espolab's collection loop: a draw from a
numpy Generator, list indexing, float arithmetic and a small object appended
to a list. The garbage collector is off while it runs and its objects are
freed before it is turned back on, so the kernel neither runs nor advances
the program's collections.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# The kernel's typical time on the 2-core Xeon the benchmark was defined on,
# so reference seconds read about like wall seconds there (README.md "Noise").
REFERENCE_S = 1.2e-3
KERNEL_ITERATIONS = 1000
WINDOW = 2  # kernel runs taken on each side of an interval

_TABLE = [[float((i * 7 + j * 13) % 17) for j in range(8)] for i in range(64)]
_RNG = np.random.default_rng(0)


class _Record:
    __slots__ = ("index", "draw", "value")

    def __init__(self, index: int, draw: float, value: float):
        self.index, self.draw, self.value = index, draw, value


def _kernel_body() -> float:
    rng, table = _RNG, _TABLE
    records = []
    z = 0.0
    for i in range(KERNEL_ITERATIONS):
        u = rng.random()
        z = 0.9 * z + 0.1 * table[i & 63][int(u * 8)]
        records.append(_Record(i, u, z))
    return z


def kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel_body()  # its records are freed when it returns
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel runs on one perf_counter timeline, and the intervals between
    them converted to reference seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def calibrate(self, times: int = 1) -> float:
        """Run the kernel `times` times; returns the perf_counter reading after."""
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
        return end

    def kernel_s(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def reference_s(self, a: float, b: float) -> float:
        """The wall interval [a, b], which holds no kernel run, in reference
        seconds: scaled by the WINDOW runs that end before it and the WINDOW
        runs that start after it."""
        before = bisect.bisect_right(self.ends, a)
        after = bisect.bisect_left(self.starts, b)
        durations = self.kernel_s()
        nearby = durations[max(0, before - WINDOW):before] + durations[after:after + WINDOW]
        if not nearby:
            raise ValueError("no kernel run next to the interval")
        return (b - a) * REFERENCE_S / statistics.median(nearby)
