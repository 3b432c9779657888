"""Shared fixtures: small deterministic graphs and reference oracles."""

from __future__ import annotations

import math
import random

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    grid_graph,
    power_law_graph,
)
from repro.streaming.update import EdgeUpdate, UpdateKind


@pytest.fixture
def triangle_graph() -> DynamicGraph:
    """3-cycle with distinct weights: 0-1 (1.0), 1-2 (2.0), 0-2 (4.0)."""
    g = DynamicGraph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 2, 4.0)
    return g


@pytest.fixture
def line_graph() -> DynamicGraph:
    """Path 0-1-2-3-4 with unit weights."""
    g = DynamicGraph()
    for i in range(4):
        g.add_edge(i, i + 1, 1.0)
    return g


@pytest.fixture
def directed_diamond() -> DynamicGraph:
    """Directed diamond: 0→1→3 (1+1) and 0→2→3 (2+2), no reverse arcs."""
    g = DynamicGraph(directed=True)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 3, 1.0)
    g.add_edge(0, 2, 2.0)
    g.add_edge(2, 3, 2.0)
    return g


@pytest.fixture
def two_components() -> DynamicGraph:
    """Two disjoint edges: {0-1} and {2-3}."""
    g = DynamicGraph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(2, 3, 1.0)
    return g


@pytest.fixture
def small_powerlaw() -> DynamicGraph:
    return power_law_graph(200, 3, seed=42, weight_range=(1.0, 5.0))


@pytest.fixture
def small_grid() -> DynamicGraph:
    return grid_graph(8, 8, seed=7, weight_range=(1.0, 3.0))


@pytest.fixture
def small_directed() -> DynamicGraph:
    return erdos_renyi_graph(
        80, 400, seed=9, directed=True, weight_range=(1.0, 4.0)
    )


@pytest.fixture
def breaker_opens_at_first_crash(monkeypatch):
    """A serving session made under this fixture respawns no worker: the
    pool's breaker opens at its first crash, so the dead stay dead and
    the survivors serve.

    The serving fixtures here patch module constants, which are read when
    the object using them is made: request them before ``serve()`` and
    forked pool workers inherit the patch.
    """
    from repro.serving import faults

    monkeypatch.setattr(faults, "RESPAWN_LIMIT", 1)
    monkeypatch.setattr(faults, "RESPAWN_WINDOW_S", 60.0)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Tcp reconnects start 10 ms apart instead of 50 ms."""
    from repro.serving import faults

    monkeypatch.setattr(faults, "BACKOFF_INITIAL", 0.01)


@pytest.fixture
def short_op_deadline(monkeypatch):
    """Every tcp reader op gets 2 s instead of 30 s."""
    from repro.serving import net

    monkeypatch.setattr(net, "OP_TIMEOUT", 2.0)


def reference_dijkstra(graph, source: int) -> dict:
    """Oracle: textbook heapq Dijkstra over the traversal protocol."""
    import heapq

    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, w in graph.out_items(v):
            nd = d + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def assert_frontier_pass_counters(stats) -> None:
    """``stats`` are those of one frontier pass (a wide ``one_to_many``).

    The pass expands (``activations``) or drops (``pruned_by_upper_bound``)
    every vertex of every frontier, and each frontier after the source's
    is the previous round's label improvements (``pushes``), so the two
    sum to ``pushes + 1``.  It runs in no search workspace and probes no
    lower bound; a batch the tables answer whole does no work at all.
    """
    assert stats.workspace_resets == stats.workspace_hits == 0
    assert stats.touched_reset == stats.pruned_by_lower_bound == 0
    work = (stats.activations, stats.pushes, stats.relaxations,
            stats.pruned_by_upper_bound)
    if stats.answered_by_index:
        assert work == (0, 0, 0, 0)
    else:
        assert stats.activations >= 1
        assert (stats.activations + stats.pruned_by_upper_bound
                == stats.pushes + 1)


def reference_widest(graph, source: int) -> dict:
    """Oracle: max-min capacity from source to every vertex."""
    import heapq

    cap = {source: math.inf}
    heap = [(-math.inf, source)]
    done = set()
    while heap:
        negc, v = heapq.heappop(heap)
        c = -negc
        if v in done:
            continue
        done.add(v)
        for u, w in graph.out_items(v):
            nc = min(c, w)
            if nc > cap.get(u, -math.inf):
                cap[u] = nc
                heapq.heappush(heap, (-nc, u))
    return cap


def random_mutation_sequence(graph, steps: int, seed: int):
    """Yield (op, u, v, w) mutations valid against a tracked live-edge view."""
    rng = random.Random(seed)
    verts = list(graph.vertices())
    live = {tuple(sorted((s, d))) if not graph.directed else (s, d)
            for s, d, _w in graph.edges()}
    for _ in range(steps):
        u, v = rng.sample(verts, 2)
        key = (u, v) if graph.directed else tuple(sorted((u, v)))
        if key in live and rng.random() < 0.5:
            live.discard(key)
            yield ("delete", key[0], key[1], None)
        else:
            live.add(key)
            yield ("insert", key[0], key[1], rng.uniform(1.0, 5.0))


def apply_and_notify(graph, update: EdgeUpdate, *indexes) -> None:
    """Apply one stream update to ``graph``, then notify each index, in the
    facade's order: a weight change is a delete and a re-insert, an
    identical insert or the delete of an absent edge does nothing."""
    src, dst = update.src, update.dst
    if graph.has_edge(src, dst):
        old_weight = graph.edge_weight(src, dst)
        if update.kind is UpdateKind.INSERT and old_weight == update.weight:
            return
        graph.remove_edge(src, dst)
        for index in indexes:
            index.notify_edge_deleted(src, dst, old_weight)
    if update.kind is UpdateKind.INSERT:
        graph.add_edge(src, dst, update.weight)
        for index in indexes:
            index.notify_edge_inserted(src, dst, update.weight)
