"""Classic index-free search baselines.

These are the reference algorithms every engine is validated against in the
tests, and the "no pruning" end of the activation spectrum in E2/E3:

* :func:`dijkstra_distance` — unidirectional Dijkstra with early
  termination at the target;
* :func:`bidirectional_dijkstra` — the standard meet-in-the-middle variant;
* :func:`bfs_hops` — unweighted shortest path length;
* :func:`full_sssp` — exhaustive single-source distances (what an analytic
  graph engine computes when it cannot stop early).

All of them fill in :class:`~repro.core.stats.QueryStats` so activation
counts compare apples-to-apples with the pruned engines.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Dict, Optional, Tuple

from repro.core.stats import QueryStats
from repro.errors import QueryError


def _check_endpoints(graph, source: int, target: Optional[int]) -> None:
    if not graph.has_vertex(source):
        raise QueryError(f"query endpoint {source} is not in the graph")
    if target is not None and not graph.has_vertex(target):
        raise QueryError(f"query endpoint {target} is not in the graph")


def dijkstra_distance(graph, source: int, target: int) -> Tuple[float, QueryStats]:
    """Unidirectional Dijkstra, stopping when the target settles."""
    _check_endpoints(graph, source, target)
    stats = QueryStats()
    if source == target:
        return 0.0, stats
    dist: Dict[int, float] = {source: 0.0}
    settled: set = set()
    heap = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        stats.activations += 1
        if v == target:
            return d, stats
        for u, w in graph.out_items(v):
            stats.relaxations += 1
            if u in settled:
                continue
            cand = d + w
            if cand < dist.get(u, math.inf):
                dist[u] = cand
                heappush(heap, (cand, u))
                stats.pushes += 1
    return math.inf, stats


def bidirectional_dijkstra(graph, source: int, target: int) -> Tuple[float, QueryStats]:
    """Meet-in-the-middle Dijkstra with the classic termination condition."""
    _check_endpoints(graph, source, target)
    stats = QueryStats()
    if source == target:
        return 0.0, stats
    dist_f: Dict[int, float] = {source: 0.0}
    dist_b: Dict[int, float] = {target: 0.0}
    settled_f: set = set()
    settled_b: set = set()
    # Each head is kept live (its vertex unsettled), so it is the
    # frontier's label; a frontier's size is labelled minus settled.
    heap_f = [(0.0, source)]
    heap_b = [(0.0, target)]
    best = math.inf
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        forward = len(dist_f) - len(settled_f) <= len(dist_b) - len(settled_b)
        heap = heap_f if forward else heap_b
        dist = dist_f if forward else dist_b
        other = dist_b if forward else dist_f
        settled = settled_f if forward else settled_b
        d, v = heappop(heap)
        settled.add(v)
        while heap and heap[0][1] in settled:
            heappop(heap)
        stats.activations += 1
        if v in other:
            best = min(best, d + other[v])
        neighbors = graph.out_items(v) if forward else graph.in_items(v)
        for u, w in neighbors:
            stats.relaxations += 1
            if u in settled:
                continue
            cand = d + w
            if cand < dist.get(u, math.inf):
                dist[u] = cand
                heappush(heap, (cand, u))
                stats.pushes += 1
    return best, stats


def bfs_hops(graph, source: int, target: int) -> Tuple[float, QueryStats]:
    """Unweighted shortest-path length via BFS, stopping at the target."""
    _check_endpoints(graph, source, target)
    stats = QueryStats()
    if source == target:
        return 0.0, stats
    hops: Dict[int, int] = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        stats.activations += 1
        for u, _w in graph.out_items(v):
            stats.relaxations += 1
            if u in hops:
                continue
            hops[u] = hops[v] + 1
            stats.pushes += 1
            if u == target:
                return float(hops[u]), stats
            queue.append(u)
    return math.inf, stats


def full_sssp(graph, source: int) -> Tuple[Dict[int, float], QueryStats]:
    """Exhaustive Dijkstra from ``source`` (no early stop).

    Models what an analytic engine pays when a query "can only be answered
    after accessing every connected vertex".
    """
    _check_endpoints(graph, source, None)
    stats = QueryStats()
    dist: Dict[int, float] = {source: 0.0}
    settled: set = set()
    heap = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        stats.activations += 1
        for u, w in graph.out_items(v):
            stats.relaxations += 1
            if u in settled:
                continue
            cand = d + w
            if cand < dist.get(u, math.inf):
                dist[u] = cand
                heappush(heap, (cand, u))
                stats.pushes += 1
    return dist, stats
