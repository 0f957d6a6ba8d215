"""A fixed piece of pure-Python work that measures the host's current speed.

On a shared host the same CLI call can take a quarter longer from one
minute to the next, and a fixed Python loop slows down with it. The gated
times are therefore divided by this loop's time, measured right before and
right after each timed call (HostSpeed). The program never runs this code,
so a change to the program moves only the numerator.

The work mixes what trustnet spends its time on: weighted draws, set
intersections over an adjacency map, JSON round trips and string sorting.
"""

from __future__ import annotations

import gc
import json
import random
import time

NODES = 4_000
DRAWS = 3


def _work() -> int:
    rng = random.Random(12345)
    nodes = list(range(NODES))
    weights = [rng.random() + 1.0 for _ in nodes]
    adjacency = {v: set() for v in nodes}
    for v in nodes:
        for u in rng.choices(nodes, weights=weights, k=DRAWS):
            adjacency[v].add(u)
            adjacency[u].add(v)
    triangles = sum(len(adjacency[v] & adjacency[u]) for v in nodes for u in adjacency[v])
    doc = [{"address": f"0:{v >> 16:04X}.{v & 0xFFFF:04X}", "links": sorted(adjacency[v])}
           for v in nodes]
    keys = sorted(f"{rng.getrandbits(32):08x}" for _ in range(5 * NODES))
    return triangles + len(json.loads(json.dumps(doc))) + len(keys)


def calibrate() -> float:
    """Seconds the fixed work takes now, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Calibrations interleaved with timed calls."""

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def after_call(self) -> float:
        """Calibrate now; the mean of the calibrations around the call that just ended."""
        before = self.samples[-1]
        self.samples.append(calibrate())
        return (before + self.samples[-1]) / 2
