"""Host speed probe, so that timings do not follow the host's drift.

On a shared VM the whole machine's speed drifts, by up to about 1.6x,
over seconds to minutes: a run that falls in a slow phase is slow in
every layer. The benchmark therefore times a fixed reference task
before the first pass and after every pass, and reports each timing in
reference seconds: the measured seconds times REFERENCE_S over the mean
of the two probes around them. On a host where the reference task
takes REFERENCE_S, reference seconds are seconds; a change that makes
the engine slower or faster moves them exactly as it moves seconds.

The reference task is the tuple model's breadth-first search from
``building.py`` on a fixed building, repeated REPEATS times. Like the
engine it is pure Python over tuples, sets and dicts, and it shares no
code with bigengine, so nothing a change to the engine does moves it.
"""

from __future__ import annotations

import random
from time import perf_counter

import building

REPEATS = 30
# About what one probe took on the 2-vCPU 2.1 GHz Xeon VM the benchmark
# was written on (0.046 to 0.063 s there, as its speed drifted).
REFERENCE_S = 0.05

_BUILDING = building.draw(random.Random(0), rooms=6, extra_doors=3, intruders=3, cameras=2)


def probe() -> float:
    """Seconds the reference task takes now."""
    start = perf_counter()
    for _ in range(REPEATS):
        building.reachable(_BUILDING)
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Reference seconds per measured second, between two probes."""
    return REFERENCE_S / ((before + after) / 2)
