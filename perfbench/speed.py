"""Machine-speed calibration interleaved with the jobs.

On a shared machine the same pure-Python work runs up to ~1.7x slower in
phases that last from seconds to minutes (other tenants on the same
cores and caches); CPU time shows the same swings, so it cannot filter
them, and a whole 25 s run can fall in one slow phase.  A fixed
pure-Python kernel, which never calls the program, is timed before each
pass, every INTERVAL_S of jobs and after the pass.  A job's time is
divided by the mean kernel time of the samples just before and just
after it and multiplied by REFERENCE_S: the result is the job's time at
the reference speed, at which the kernel takes REFERENCE_S (about its
time on an idle machine of the kind measured).  Over ten runs of the
sweep workload on a 2-vCPU Xeon VM this cut the spread (interquartile
range over median) of wall_s from 0.23-0.28 raw to 0.03-0.05.  Raw
times stay in the run's result file.

The kernel runs with the garbage collector off, so the program's heap
does not change its cost.  Work the program ran in background threads
while a kernel runs would slow the kernel too and hide that work's
cost; the program starts no threads.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.012
INTERVAL_S = 0.25

_ITEMS = [frozenset((i, i * 7 % 13, i % 5)) for i in range(400)]


def kernel() -> float:
    """Seconds for a fixed amount of frozenset and dict work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts = {}
        for _ in range(4):
            for a in _ITEMS:
                for b in _ITEMS[:40]:
                    common = a & b
                    if common:
                        counts[common] = counts.get(common, 0) + 1
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        self.at = []       # end time of each kernel sample
        self.took = []     # its duration

    def sample(self) -> None:
        took = kernel()
        self.at.append(perf_counter())
        self.took.append(took)

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= INTERVAL_S

    def scaled(self, start: float, end: float) -> float:
        """end - start at the reference speed, from the samples just before and after."""
        before = max(0, bisect_right(self.at, start) - 1)
        after = min(len(self.at) - 1, bisect_left(self.at, end))
        return (end - start) * REFERENCE_S / ((self.took[before] + self.took[after]) / 2)
