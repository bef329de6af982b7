"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent within a
minute; the same instance can take 1.5 times as long from one ten-second
stretch to the next. A fixed pure-Python reference loop (breadth-first
searches over a fixed random graph: the set, list and dict work the
library does) run right before and after each timed call slows down with
it. Every reported time is scaled by REFERENCE_MS over the mean of those
two reference timings, that is, expressed in milliseconds on a machine
where the reference loop takes REFERENCE_MS. Scaling cannot hide a change
in the library: the loop runs none of its code.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# the reference loop's typical time on the 2-core machine the baseline was
# measured on, so scaled times read close to that machine's wall times
REFERENCE_MS = 7.0

_N = 300
_rng = random.Random(0)
_ADJ = [[] for _ in range(_N)]
for _ in range(3 * _N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)


def reference_ms() -> float:
    """Time of one pass of the reference loop, with the collector off so
    that the heap the library leaves behind does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for s in range(0, _N, 4):
            seen = {s}
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in _ADJ[u]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
        return (perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibrates between timed calls; each calibration serves both the
    call before it and the call after it."""

    def __init__(self):
        self._before = reference_ms()

    def factor(self) -> float:
        """Scale for the call that has just ended: REFERENCE_MS over the
        mean of the reference timings before and after it."""
        after = reference_ms()
        factor = REFERENCE_MS / ((self._before + after) / 2)
        self._before = after
        return factor
