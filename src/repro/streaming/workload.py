"""Update-stream generators for the evolving-graph experiments.

Three stream shapes cover the evaluation:

* :func:`insert_only_stream` — growth workload: fresh edges appended to an
  existing graph (the cheapest for every system; the monotone case).
* :func:`sliding_window_stream` — the canonical evolving-graph model: each
  step inserts a new edge and deletes the oldest live one, keeping |E|
  constant (exercises the deletion-repair path).
* :func:`mixed_stream` — tunable insert:delete ratio over random live edges.

All generators are deterministic in their seed and never emit an update that
would be redundant *at generation time* against the tracked edge set (the
facade still tolerates redundancy, but a measured stream should do real
work).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterator, List, Optional, Set, Tuple

from repro.errors import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.streaming.update import EdgeUpdate


def _live_edges(graph: DynamicGraph) -> Tuple[Set[Tuple[int, int]], List[Tuple[int, int]]]:
    keys = {(s, d) for s, d, _w in graph.edges()}
    return keys, list(keys)


def _random_new_edge(
    rng: random.Random,
    vertices: List[int],
    live: Set[Tuple[int, int]],
    directed: bool,
) -> Optional[Tuple[int, int]]:
    for _attempt in range(64):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        if u == v:
            continue
        key = (u, v) if directed or u <= v else (v, u)
        if key not in live:
            return key
    return None


def query_stream(
    graph: DynamicGraph,
    count: int,
    skew: float = 1.0,
    seed: int = 0,
) -> List[Tuple[int, int]]:
    """Popularity-skewed query pairs (Zipf over degree rank).

    Real pairwise workloads concentrate on popular entities; this samples
    endpoints with probability ∝ 1/rank^skew, where rank orders vertices of
    the largest component by descending degree.  ``skew=0`` degenerates to
    uniform sampling.
    """
    if count < 0:
        raise WorkloadError("count must be non-negative")
    if skew < 0:
        raise WorkloadError("skew must be non-negative")
    from repro.graph.stats import largest_component

    pool = sorted(largest_component(graph),
                  key=lambda v: (-graph.degree(v), v))
    if len(pool) < 2:
        raise WorkloadError("graph needs >= 2 connected vertices")
    rng = random.Random(seed)
    weights = [1.0 / (rank ** skew) if skew > 0 else 1.0
               for rank in range(1, len(pool) + 1)]
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < count:
        s, t = rng.choices(pool, weights=weights, k=2)
        if s != t:
            pairs.append((s, t))
    return pairs


def insert_only_stream(
    graph: DynamicGraph,
    count: int,
    seed: int = 0,
    weight_range: Tuple[float, float] = (1.0, 4.0),
) -> Iterator[EdgeUpdate]:
    """Yield ``count`` inserts of edges not currently in ``graph``.

    The graph object is only *read* (to learn vertices and live edges); the
    stream tracks its own view of liveness so it can be generated up front.
    """
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        raise WorkloadError("graph needs >= 2 vertices for an update stream")
    rng = random.Random(seed)
    live, _order = _live_edges(graph)
    emitted = 0
    while emitted < count:
        key = _random_new_edge(rng, vertices, live, graph.directed)
        if key is None:
            raise WorkloadError("graph too dense to generate new inserts")
        live.add(key)
        yield EdgeUpdate.insert(key[0], key[1], rng.uniform(*weight_range))
        emitted += 1


def sliding_window_stream(
    graph: DynamicGraph,
    count: int,
    seed: int = 0,
    weight_range: Tuple[float, float] = (1.0, 4.0),
) -> Iterator[EdgeUpdate]:
    """Yield ``count`` insert/delete pairs keeping |E| constant.

    Each round inserts one fresh edge then deletes the oldest edge of the
    window (initialized with the graph's edges in iteration order), modelling
    a time-windowed evolving graph.  ``count`` counts *updates*, so a round
    contributes two.
    """
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        raise WorkloadError("graph needs >= 2 vertices for an update stream")
    rng = random.Random(seed)
    live, order = _live_edges(graph)
    window: Deque[Tuple[int, int]] = deque(order)
    emitted = 0
    while emitted < count:
        key = _random_new_edge(rng, vertices, live, graph.directed)
        if key is None:
            raise WorkloadError("graph too dense to generate new inserts")
        live.add(key)
        window.append(key)
        yield EdgeUpdate.insert(key[0], key[1], rng.uniform(*weight_range))
        emitted += 1
        if emitted >= count:
            break
        old = window.popleft()
        live.discard(old)
        yield EdgeUpdate.delete(old[0], old[1])
        emitted += 1


def mixed_stream(
    graph: DynamicGraph,
    count: int,
    insert_fraction: float = 0.8,
    seed: int = 0,
    weight_range: Tuple[float, float] = (1.0, 4.0),
) -> Iterator[EdgeUpdate]:
    """Yield ``count`` updates, each an insert with probability
    ``insert_fraction`` and otherwise a delete of a random live edge."""
    if not 0.0 <= insert_fraction <= 1.0:
        raise WorkloadError("insert_fraction must be within [0, 1]")
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        raise WorkloadError("graph needs >= 2 vertices for an update stream")
    rng = random.Random(seed)
    live, order = _live_edges(graph)
    pool: List[Tuple[int, int]] = list(order)
    emitted = 0
    while emitted < count:
        do_insert = rng.random() < insert_fraction or not pool
        if do_insert:
            key = _random_new_edge(rng, vertices, live, graph.directed)
            if key is None:
                do_insert = False
                if not pool:
                    raise WorkloadError("cannot continue stream: graph saturated")
            else:
                live.add(key)
                pool.append(key)
                yield EdgeUpdate.insert(key[0], key[1], rng.uniform(*weight_range))
                emitted += 1
                continue
        # Delete a random live edge via swap-remove on the pool.
        while pool:
            idx = rng.randrange(len(pool))
            key = pool[idx]
            pool[idx] = pool[-1]
            pool.pop()
            if key in live:
                break
        else:
            raise WorkloadError("no live edges left to delete")
        live.discard(key)
        yield EdgeUpdate.delete(key[0], key[1])
        emitted += 1
