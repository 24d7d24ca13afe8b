"""A fixed pure-Python probe of how fast the host runs right now.

On a shared virtual machine the speed of a CPU moves by up to about 40% in
phases of a few seconds to minutes; CPU time moves with wall time, so
neither clock removes it. Timing a fixed piece of work next to each episode
and set-up measures the phase, and `at_reference` states a measured time at
the speed the probe runs at in `REFERENCE_S`.

The probe is the same kind of work as the planner's search (a heap, a dict,
frozensets and small tuples) but shares no code with it, so a change to the
program moves the episode times and not the probe. Garbage collection is off
while it runs, so that objects the program leaves alive cannot slow it.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: A fixed scale: about the median probe time in a fast phase of the 2-CPU
#: virtual machine (Python 3.11.7) that README.md's first numbers come from.
#: A slowdown of 1 means the host runs at that speed.
REFERENCE_S = 0.0200

STEPS = 4000


def probe() -> float:
    """Seconds one fixed search-like loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        best = {}
        heap = [(0, 0, frozenset())]
        for _ in range(STEPS):
            g, i, state = heapq.heappop(heap)
            for k in range(4):
                nxt = state | {(i * 7 + k) % 97}
                key = (len(nxt), hash(nxt) & 1023)
                if best.get(key, g + k + 1) > g + k:
                    best[key] = g + k
                    heapq.heappush(heap, (g + k + 1, (i * 31 + k) % 1009, nxt))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_for(seconds: float, share: float) -> list:
    """Probe times, at least one, until their total exceeds share * seconds."""
    times = [probe()]
    while sum(times) <= share * seconds:
        times.append(probe())
    return times


def at_reference(seconds: float, probes) -> float:
    """`seconds` measured while the probe took `probes`, at reference speed."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)
