"""Host-speed probe: fixed pure-Python work that uses no package code.

The shared host this benchmark was built on switches between a fast and a
slow mode (up to 1.8x slower) for seconds to minutes at a time, and a
request's wall time follows.  The timed loop runs this probe every
PROBE_EVERY_S, between requests, and scales the time of each request by
PROBE_REF_S over the mean probe time at the two ends of its window.  Times
then read as at the probe's reference speed: a change to the package moves
them in full, since the probe shares no code with it, and a change of host
speed moves them much less.
"""
from __future__ import annotations

import gc
import heapq
import time

PROBE_EVERY_S = 0.5
# the probe's time on a 2-vCPU KVM guest (Xeon, 2.1 GHz) in its fast mode
PROBE_REF_S = 0.0048


def _work() -> int:
    # small-int division and remainder, as in greedy digit sums
    total = 0
    for r in range(1, 3000):
        v = r
        for coin in (1, 3, 7, 15, 31):
            total += v // coin
            v %= coin + 1
    # list building, a dict and a sort, as in Apery sets and gap lists
    values = [i * 7919 % 65521 for i in range(20_000)]
    index = {v: i for i, v in enumerate(values[:5000])}
    values.sort()
    # big integers and a heap, as in closed-form F and Dijkstra
    big = 3**380
    for i in range(400):
        total ^= (big * (i + 1)) % 1_000_003
    heap: list[tuple[int, int]] = []
    for x in range(1500):
        heapq.heappush(heap, ((x * 37) % 1501, x))
    while heap:
        heapq.heappop(heap)
    return total + len(index) + values[-1]


def probe() -> float:
    """Wall seconds of the fixed work: the faster of two runs, so that the
    first run warms the caches the workload left behind.

    The cyclic collector is off meanwhile, so that the probe's time does not
    depend on how many objects the workload keeps alive.
    """
    gc.disable()
    try:
        times = []
        for _ in range(2):
            started = time.perf_counter()
            _work()
            times.append(time.perf_counter() - started)
        return min(times)
    finally:
        gc.enable()


def window_scales(probes: list[float]) -> list[float]:
    """Scale of each window between consecutive probes."""
    return [2 * PROBE_REF_S / (before + after)
            for before, after in zip(probes, probes[1:])]
