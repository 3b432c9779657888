"""Each queued vertex is expanded once: the lazy-deletion queue discipline.

Every search loop pushes ``(priority, id)`` onto a plain ``heapq`` list and
leaves a superseded entry behind; the caller's own table says which entry
is live.  A loop that failed to drop a stale entry would expand its vertex
a second time.  Values survive that (the second expansion relaxes nothing
better), and the min-plus searches are caught by the dict/dense counter
parity, but the capacity and reliability algebras have no dense twin, so
this file watches the expansions themselves:

* the dict search walks each vertex's arcs at most once per direction, and
  with pruning off every direction choice follows the smaller frontier
  (labelled minus settled vertices), replayed here from the expansion log;
* the index-free loops (the baselines and the dict-plane truncated
  expansion) walk each vertex's arcs at most once, and settle in
  ``(priority, id)`` order, the order the lazy-deletion queue promises;
* the hub-tree maintainers settle each vertex at most once per operation,
  which ``settled_last_op`` reports exactly.

Weights come from a few powers of two, so equal labels and repeated
improvements of one vertex are common.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.dijkstra import (
    bidirectional_dijkstra,
    dijkstra_distance,
    full_sssp,
)
from repro.core.engine import PairwiseEngine, expand_from_graph
from repro.core.hub_index import HubIndex
from repro.core.pruning import PruningPolicy
from repro.core.semiring import (
    BOTTLENECK_CAPACITY,
    RELIABILITY_PRODUCT,
    SHORTEST_DISTANCE,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.streaming.incremental_sssp import IncrementalBestPath

WEIGHTS = {
    "distance": (1.0, 2.0, 4.0),
    "capacity": (1.0, 2.0, 4.0),
    "reliability": (0.25, 0.5, 1.0),
}
SEMIRINGS = {
    "distance": SHORTEST_DISTANCE,
    "capacity": BOTTLENECK_CAPACITY,
    "reliability": RELIABILITY_PRODUCT,
}


def _graph(seed: int, family: str, n: int = 40, m: int = 130) -> DynamicGraph:
    rng = random.Random(seed)
    graph = DynamicGraph(directed=True)
    for v in range(n):
        graph.add_vertex(v)
    while graph.num_edges < m:
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v, rng.choice(WEIGHTS[family]))
    return graph


def _record_expansions(graph: DynamicGraph) -> list:
    """Log ``(forward, vertex)`` for every arc walk the search makes."""
    log: list = []
    out_items, in_items = graph.out_items, graph.in_items

    def forward(v):
        log.append((True, v))
        return out_items(v)

    def backward(v):
        log.append((False, v))
        return in_items(v)

    graph.out_items = forward
    graph.in_items = backward
    return log


def _replay_frontier_rule(graph, source, target, log) -> None:
    """Each logged expansion took the side with the smaller frontier (ties
    forward).  Holds with pruning off, where every pop expands."""
    labelled = {True: {source}, False: {target}}
    settled = {True: set(), False: set()}
    for forward, v in log:
        size_f = len(labelled[True]) - len(settled[True])
        size_b = len(labelled[False]) - len(settled[False])
        assert forward == (size_f <= size_b), (source, target, v)
        settled[forward].add(v)
        walk = DynamicGraph.out_items if forward else DynamicGraph.in_items
        labelled[forward].update(u for u, _w in walk(graph, v))


@pytest.mark.parametrize("family", ["distance", "capacity", "reliability"])
@pytest.mark.parametrize("policy", list(PruningPolicy))
def test_dict_search_expands_each_vertex_once_per_direction(family, policy):
    semiring = SEMIRINGS[family]
    for seed in range(4):
        graph = _graph(seed, family)
        index = None
        if policy.uses_index:
            index = HubIndex(graph, [0, 1, 2], semiring=semiring)
        engine = PairwiseEngine(graph, index=index, policy=policy,
                                semiring=semiring)
        log = _record_expansions(graph)
        rng = random.Random(100 + seed)
        for _ in range(25):
            source, target = rng.sample(range(graph.num_vertices), 2)
            for want_path in (False, True):
                log.clear()
                if want_path:
                    engine.best_path(source, target)
                else:
                    engine.best_cost(source, target)
                assert len(set(log)) == len(log), (seed, source, target)
                if policy is PruningPolicy.NONE:
                    _replay_frontier_rule(graph, source, target, log)


def _settle_order(dist: dict) -> list:
    """Vertices in ``(distance, id)`` order.  With every weight positive,
    each vertex's final entry is queued before the first pop at its
    distance, so this is exactly the order a correct loop settles in."""
    return [v for _d, v in sorted((d, v) for v, d in dist.items())]


def _pairs(graph, seed: int, count: int = 30):
    rng = random.Random(200 + seed)
    return [tuple(rng.sample(range(graph.num_vertices), 2))
            for _ in range(count)]


def test_full_sssp_settles_each_vertex_once_in_priority_order():
    for seed in range(4):
        graph = _graph(seed, "distance")
        log = _record_expansions(graph)
        for source in range(graph.num_vertices):
            log.clear()
            dist, stats = full_sssp(graph, source)
            order = [v for _forward, v in log]
            assert order == _settle_order(dist), (seed, source)
            assert stats.activations == len(dist)


def test_dijkstra_settles_each_vertex_once_in_priority_order():
    for seed in range(4):
        graph = _graph(seed, "distance")
        log = _record_expansions(graph)
        for source, target in _pairs(graph, seed):
            dist, _stats = full_sssp(graph, source)
            log.clear()
            value, stats = dijkstra_distance(graph, source, target)
            order = [v for _forward, v in log]
            expected = _settle_order(dist)
            if target in dist:
                assert value == dist[target]
                # The target settles last and is not expanded.
                expected = expected[:expected.index(target)]
                assert stats.activations == len(expected) + 1
            assert order == expected, (seed, source, target)


def test_bidirectional_dijkstra_expands_each_vertex_once_per_direction():
    for seed in range(4):
        graph = _graph(seed, "distance")
        log = _record_expansions(graph)
        for source, target in _pairs(graph, seed):
            dist, _stats = full_sssp(graph, source)
            log.clear()
            value, stats = bidirectional_dijkstra(graph, source, target)
            assert value == dist.get(target, float("inf"))
            assert len(set(log)) == len(log) == stats.activations
            _replay_frontier_rule(graph, source, target, log)


@pytest.mark.parametrize("mode", ["nearest", "within"])
def test_truncated_expansion_settles_each_vertex_once_in_priority_order(mode):
    for seed in range(4):
        graph = _graph(seed, "distance")
        log = _record_expansions(graph)
        for source in range(0, graph.num_vertices, 3):
            dist, _stats = full_sssp(graph, source)
            order = _settle_order(dist)
            for limit in (1, 5, 12, graph.num_vertices):
                log.clear()
                if mode == "nearest":
                    results = expand_from_graph(graph, source, limit, None)
                    expected = order[1:limit + 1]
                else:
                    radius = float(limit)
                    results = expand_from_graph(graph, source, None, radius)
                    expected = [v for v in order[1:] if dist[v] <= radius]
                assert [v for v, _d in results] == expected, (seed, source)
                assert all(d == dist[v] for v, d in results)
                walked = [v for _forward, v in log]
                assert len(set(walked)) == len(walked)
                assert walked == order[:len(walked)]


def _churn_ops(seed: int, family: str, rounds: int = 60):
    rng = random.Random(seed)
    graph = _graph(seed, family, n=30, m=70)
    trees = [
        IncrementalBestPath(graph, h, SEMIRINGS[family], direction)
        for h in (0, 1) for direction in ("forward", "backward")
    ]
    for _ in range(rounds):
        u, v = rng.sample(range(graph.num_vertices), 2)
        if graph.has_edge(u, v):
            old = graph.edge_weight(u, v)
            graph.remove_edge(u, v)
            yield trees, ("deleted", u, v, old)
        else:
            w = rng.choice(WEIGHTS[family])
            graph.add_edge(u, v, w)
            yield trees, ("inserted", u, v, w)


@pytest.mark.parametrize("family", ["distance", "capacity", "reliability"])
def test_rebuild_expands_each_reachable_vertex_once(family):
    """The full rebuild (what a non-additive deletion falls back to) walks
    each reachable vertex's arcs once and settles nothing else."""
    for seed in range(4):
        graph = _graph(seed, family)
        log = _record_expansions(graph)
        for hub in range(0, graph.num_vertices, 4):
            for direction in ("forward", "backward"):
                tree = IncrementalBestPath(graph, hub, SEMIRINGS[family],
                                           direction)
                log.clear()
                tree.rebuild()
                walked = [v for _forward, v in log]
                assert len(set(walked)) == len(walked), (seed, hub, direction)
                assert set(walked) == tree.costs().keys()
                assert tree.settled_last_op == len(walked)


@pytest.mark.parametrize("family", ["distance", "capacity", "reliability"])
def test_insertion_repair_settles_each_vertex_once(family):
    """``_relax`` settles only strict improvements, each once, so the
    settled count is the number of costs that changed."""
    for seed in range(3):
        for trees, (op, u, v, w) in _churn_ops(seed, family):
            for tree in trees:
                if op == "deleted":
                    tree.on_edge_deleted(u, v, w)
                    tree.ensure_fresh()
                    continue
                before = tree.costs()
                tree.on_edge_inserted(u, v, w)
                after = tree.costs()
                changed = [x for x in after if before.get(x) != after[x]]
                assert tree.settled_last_op == len(changed), (seed, op, u, v)


def test_deletion_repair_settles_each_vertex_once(monkeypatch):
    """``_repair_region`` clears the affected region and re-settles every
    vertex of it still reachable, each once."""
    regions: list = []
    find_region = IncrementalBestPath._affected_region

    def recording(self, seeds):
        region = find_region(self, seeds)
        regions.append(region)
        return region

    monkeypatch.setattr(IncrementalBestPath, "_affected_region", recording)
    repairs = 0
    for seed in range(3):
        for trees, (op, u, v, w) in _churn_ops(seed, "distance", rounds=90):
            for tree in trees:
                if op == "inserted":
                    tree.on_edge_inserted(u, v, w)
                    continue
                regions.clear()
                tree.on_edge_deleted(u, v, w)
                if not regions or not regions[0]:
                    continue
                repairs += 1
                region = regions[0]
                reached = region & tree.costs().keys()
                assert tree.settled_last_op == len(region) + len(reached)
    assert repairs > 10
