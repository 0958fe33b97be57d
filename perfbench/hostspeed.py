"""Scaling of measured times to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed moves
between levels up to twice apart, each lasting seconds.  CPU time moves with
wall time, so the slowdown is the processor's, not time spent descheduled,
and two runs a minute apart differ by more than any change worth measuring.

``HostClock`` therefore runs a fixed reference kernel, independent of
``succabs``, before and after every timed call of the benchmark; two calls
with no work between them share one kernel run.  A call's time is scaled
by ``REF_S`` over the mean time of the kernel runs just before and after
it, so it reads as it would on a host where the kernel takes ``REF_S``
seconds.  The kernel does what the tagger's decoder does per arc: dict and
tuple work, numpy element reads and ``log`` calls.  On wide40 this cut the
spread of the timings over runs of the same code from 0.22-0.39 to
0.05-0.12 of their median.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from math import log

import numpy as np

# The kernel took 0.024-0.055 s on the 2-CPU Xeon host the benchmark was
# calibrated on.  REF_S sets the unit of the scaled times, not their spread.
REF_S = 0.05
# A kernel run that ended less than this ago still describes the host.
REF_FRESH_S = 0.01
# Kernel shape: tags, lattice width per token, tokens.
_TAGS, _WIDTH, _LENGTH = 40, 12, 28


def reference_kernel():
    """A fixed order-3 Viterbi sweep over random rows; returns the callable."""
    rng = np.random.default_rng(7)
    rows = {(a, b): rng.random(_TAGS) + 0.01 for a in range(_TAGS) for b in range(_TAGS)}
    pick = random.Random(7)
    lattices = [tuple(sorted(pick.sample(range(_TAGS), _WIDTH))) for _ in range(_LENGTH)]
    factors = rng.random(_TAGS) + 0.01

    def run() -> float:
        cells = {(0, 0): 0.0}
        for lattice in lattices:
            step: dict[tuple[int, int], float] = {}
            for state in sorted(cells):
                base = cells[state]
                row = rows[state]
                for t in lattice:
                    score = base + log(float(row[t])) + log(float(factors[t]))
                    nxt = (state[1], t)
                    old = step.get(nxt)
                    if old is None or score > old:
                        step[nxt] = score
            cells = step
        return max(cells.values())

    return run


class HostClock:
    def __init__(self):
        self._kernel = reference_kernel()
        for _ in range(3):  # warm-up
            self._kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Run the kernel unless it has just run."""
        if not force and self.ends and time.perf_counter() - self.ends[-1] < REF_FRESH_S:
            return
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(t1 - t0)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the speed of a host where the kernel takes ``REF_S``."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        if before < 0 or after == len(self.starts):
            raise ValueError("step not between two reference runs")
        return (end - start) * 2 * REF_S / (self.seconds[before] + self.seconds[after])

    def median_s(self) -> float | None:
        return statistics.median(self.seconds) if self.seconds else None
