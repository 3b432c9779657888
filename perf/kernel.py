"""The speed kernel: a fixed piece of pure-Python work that measures the host.

The box this benchmark runs on drifts in execution speed by tens of percent
between ten-second windows (hypervisor steal, frequency, noisy neighbours).
The kernel is a seeded heap-Dijkstra over a synthetic adjacency structure —
the same op mix the program's hot loops are made of (list indexing, dict
probes, ``heapq``, float adds and compares) with a working set of a few
hundred KiB — run before and after every timed unit.  A unit's *speed
factor* is ``REF_KERNEL_MS / mean(kernel before, kernel after)``; multiplying
the unit's samples by it expresses them in "milliseconds at reference speed".

The kernel's inputs never change: they are seeded by a constant, not by the
benchmark's ``--seed``, so one kernel run is the same work in every run of
every workload on every commit.  ``REF_KERNEL_MS`` is frozen here; changing
it, or the kernel, rescales every reported time and needs a fresh baseline.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Callable, Dict, List, Tuple

#: what one kernel run costs on the reference machine state, in milliseconds.
#: Frozen: every normalised time in the ledger is relative to this constant.
REF_KERNEL_MS = 5.0

_KERNEL_SEED = 0x5EED
_VERTICES = 1400
_OUT_DEGREE = 4
_SOURCES = (0, 467, 933)


def _build() -> Tuple[List[List[Tuple[int, float]]], List[Dict[int, float]]]:
    rng = random.Random(_KERNEL_SEED)
    n = _VERTICES
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for v in range(n):
        # a ring keeps it connected; the random chords give it a short diameter
        adj[v].append(((v + 1) % n, rng.randrange(64, 257) / 64.0))
        for _ in range(_OUT_DEGREE - 1):
            adj[v].append((rng.randrange(n), rng.randrange(64, 257) / 64.0))
    # A dict twin of the adjacency, walked on every other settle: the
    # program's write path probes dict-of-dict adjacency and dict cost
    # tables, its read path flat lists.
    twin = [dict(arcs) for arcs in adj]
    return adj, twin


_ADJ, _TWIN = _build()


def run_kernel() -> float:
    """Run the fixed work once; returns a checksum (so it cannot be elided)."""
    adj = _ADJ
    twin = _TWIN
    push = heapq.heappush
    pop = heapq.heappop
    total = 0.0
    for source in _SOURCES:
        dist: Dict[int, float] = {source: 0.0}
        done = [False] * len(adj)
        heap = [(0.0, source)]
        settled = 0
        while heap:
            d, v = pop(heap)
            if done[v]:
                continue
            done[v] = True
            settled += 1
            if settled > 1100:
                break
            arcs = adj[v] if settled & 1 else twin[v].items()
            for u, w in arcs:
                nd = d + w
                old = dist.get(u)
                if old is None or nd < old:
                    dist[u] = nd
                    push(heap, (nd, u))
        total += d
    return total


def time_kernel(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one kernel run takes right now."""
    start = clock()
    run_kernel()
    return clock() - start

