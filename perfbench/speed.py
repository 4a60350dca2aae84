"""Host speed, measured beside the work, so that timings can be scaled to it.

On a shared host the same work runs up to twice as slow while other
tenants load the machine, in phases that last from seconds to minutes,
so raw times of one build differ from run to run by more than any
useful bound. The benchmark therefore runs a fixed reference loop before
and after every stretch of work and scales the stretch by the loop's
time there: the scaled time of a stretch is its time on a host where
the loop takes ``REFERENCE_S``. The loop mixes interpreter work (dict
and integer operations, as in enumeration and clique search) with small
numpy array operations (as in the ascent kernel), so that it slows with
the host as the program does. It calls nothing in the program, so on a
host of steady speed a change to the program moves scaled times in the
same proportion as raw ones.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

# A typical reference_loop() time on a 2-core 2.1 GHz Intel Xeon virtual
# machine with Python 3.11 and numpy 2.4; the same loop took 1.7-4 ms
# there as the host's load came and went.
REFERENCE_S = 0.003
# Work timed between two runs of the loop, at least: the loop then costs
# under a tenth of the run.
SEGMENT_S = 0.1

_EDGES = np.array(list(itertools.combinations(range(6), 3))[::2])


def _mix() -> None:
    table, acc = {}, 0
    for i in range(6000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= (key << 3) | (i & 255)
    x = np.full(6, 1 / 6)
    for _ in range(60):
        p = x[_EDGES].prod(axis=1)
        g = np.zeros(6)
        for k in range(3):
            g += np.bincount(_EDGES[:, k], p / x[_EDGES[:, k]], 6)
        x = x * g / float(x @ g)


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-array work.

    The faster of two runs, because one run can catch an interrupt.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _mix()
        best = min(best, time.perf_counter() - start)
    return best


class ScaledClock:
    """Scaled time of work timed in pieces, one reference loop per segment."""

    def __init__(self) -> None:
        self.scaled_seconds = 0.0
        self._segment = 0.0
        self._loop = reference_loop()

    def add(self, seconds: float) -> None:
        self._segment += seconds
        if self._segment >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        """Scale the open segment by the loops on either side of it."""
        loop = reference_loop()
        self.scaled_seconds += self._segment * 2 * REFERENCE_S / (self._loop + loop)
        self._loop, self._segment = loop, 0.0
