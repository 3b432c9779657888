"""Differential tests: dense-plane path extraction vs the dict reference.

``_search_dense`` in path mode (``want_path=True``) is a transliteration of
``_search``'s path mode onto flat parent arrays in dense-id space, so on
continuous-weight graphs (tie-free costs) it must return the same value, a
path of exactly that cost, and the same stats-visible search work for every
pruning policy.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.pruning import PruningPolicy
from repro.errors import ConfigError
from repro.graph.dynamic_graph import DynamicGraph
from repro.sgraph import SGraph
from repro.utils.pqueue import IndexedHeap

POLICIES = [
    PruningPolicy.NONE,
    PruningPolicy.UPPER_ONLY,
    PruningPolicy.UPPER_AND_LOWER,
]


def _random_graph(seed: int, directed: bool) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=directed)
    for v in range(70):
        g.add_vertex(v)
    added = 0
    while added < 200:
        u, v = rng.randrange(67), rng.randrange(67)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, rng.uniform(0.5, 3.0))
        added += 1
    return g


def _engines(seed: int, policy: PruningPolicy, directed: bool):
    """The same graph twice: dict reference engine vs dense-served engine."""
    g = _random_graph(seed, directed)
    index = HubIndex.build(g, 6)
    dict_engine = PairwiseEngine(
        g, index=index if policy.uses_index else None, policy=policy,
    )
    sg = SGraph(graph=_random_graph(seed, directed), config=SGraphConfig(
        num_hubs=6, policy=policy, queries=("distance",), backend="dense",
    ))
    sg._ensure_indexes()
    return g, dict_engine, sg._frozen_engine("distance")


def _path_cost(g: DynamicGraph, path) -> float:
    return sum(g.edge_weight(u, v) for u, v in zip(path, path[1:]))


def _stats_tuple(stats):
    return (
        stats.activations,
        stats.pushes,
        stats.relaxations,
        stats.pruned_by_upper_bound,
        stats.pruned_by_lower_bound,
        stats.answered_by_index,
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("directed", [False, True])
def test_dense_path_bit_identical(policy, directed):
    rng = random.Random(500 + 10 * directed + POLICIES.index(policy))
    for seed in range(4):
        g, dict_engine, dense_engine = _engines(seed, policy, directed)
        verts = sorted(g.vertices())
        for _ in range(25):
            s, t = rng.sample(verts, 2)
            ref_value, ref_path, ref_stats = dict_engine.best_path(s, t)
            value, path, stats = dense_engine.best_path(s, t)
            assert value == ref_value
            if ref_path is None:
                assert path is None
            else:
                assert path[0] == s and path[-1] == t
                assert _path_cost(g, path) == pytest.approx(value, abs=1e-12)
            assert _stats_tuple(stats) == _stats_tuple(ref_stats)


def test_dense_path_matches_dict_when_searched_and_when_index_closed():
    """A dense path query prunes by the same per-vertex hub probes as the
    distance verb, and falls back to the hub witness when the index closes
    the pair; both cases match the dict plane."""
    g, dict_engine, dense_engine = _engines(
        0, PruningPolicy.UPPER_AND_LOWER, directed=False,
    )
    verts = sorted(g.vertices())
    pairs = [(s, t) for s in verts[:12] for t in verts[:40] if s != t]
    # One pair the search has to work for, one the index bounds close.
    searched = next(
        p for p in pairs if dict_engine.best_path(*p)[2].activations > 0
    )
    closed = next(
        p for p in pairs
        if (cost := dict_engine.best_cost(*p))[1].answered_by_index
        and cost[0] != math.inf
    )
    for s, t in (searched, closed):
        ref_value, _ref_path, ref_stats = dict_engine.best_path(s, t)
        value, path, stats = dense_engine.best_path(s, t)
        assert value == ref_value
        assert path[0] == s and path[-1] == t
        assert _path_cost(g, path) == pytest.approx(value, abs=1e-12)
        assert _stats_tuple(stats) == _stats_tuple(ref_stats)


def test_dense_verbs_call_no_python_heap_method(monkeypatch):
    """The dense loops drive ``heapq`` on the workspace's plain lists: once
    the index and the plane are built (index build and hub repair do use
    the class), no dense verb touches :class:`IndexedHeap`."""
    sg = SGraph(graph=_random_graph(11, False), config=SGraphConfig(
        num_hubs=6, queries=("distance",), backend="dense",
    ))
    verts = sorted(sg.graph.vertices())
    rng = random.Random(110)
    pairs = [tuple(rng.sample(verts, 2)) for _ in range(15)]

    def answers():
        out = []
        for s, t in pairs:
            out.append(sg.distance(s, t).value)
            out.append(sg.shortest_path(s, t).path)
        out.append(sg.distance_many(verts[0], verts[1:40]))
        out.append(sg.nearest(verts[0], 12))
        return out

    expected = answers()  # builds the index and the plane on the way
    assert any(sg.distance(s, t).stats.activations for s, t in pairs)

    def called(self, *args):
        raise AssertionError("a dense verb called an IndexedHeap method")

    monkeypatch.setattr(IndexedHeap, "push", called)
    monkeypatch.setattr(IndexedHeap, "pop", called)
    assert answers() == expected


def test_dense_path_isolated_and_self():
    g, dict_engine, dense_engine = _engines(
        3, PruningPolicy.UPPER_AND_LOWER, directed=False,
    )
    # 67..69 are isolated: unreachable in both directions
    value, path, stats = dense_engine.best_path(0, 68)
    assert value == math.inf and path is None
    # source == target short-circuits identically
    value, path, _ = dense_engine.best_path(5, 5)
    assert value == 0.0 and path == [5]


def test_dense_path_through_sgraph_facade():
    """SGraph.shortest_path routes through the dense plane when configured."""
    sg_dense = SGraph(graph=_random_graph(7, False), config=SGraphConfig(
        num_hubs=6, queries=("distance",), backend="dense",
    ))
    sg_dict = SGraph(graph=_random_graph(7, False), config=SGraphConfig(
        num_hubs=6, queries=("distance",), backend="dict",
    ))
    rng = random.Random(70)
    verts = sorted(sg_dict.graph.vertices())
    for _ in range(20):
        s, t = rng.sample(verts, 2)
        a = sg_dict.shortest_path(s, t)
        b = sg_dense.shortest_path(s, t)
        assert b.value == a.value
        assert (b.path is None) == (a.path is None)


def test_dense_path_needs_index_for_witness():
    """An index-using dense engine without its index refuses path queries
    (the witness fallback descends the dict hub trees)."""
    sg = SGraph(graph=_random_graph(9, False), config=SGraphConfig(
        num_hubs=6, queries=("distance",), backend="dense",
    ))
    sg._ensure_indexes()
    plane = sg._frozen_engine("distance").dense_plane
    from repro.serving import PlaneGraph

    engine = PairwiseEngine(
        PlaneGraph(plane.csr), policy=PruningPolicy.UPPER_AND_LOWER,
        dense=plane,
    )
    with pytest.raises(ConfigError):
        engine.best_path(0, 1)
    # the index-free policy searches to completion and never needs it
    none_engine = PairwiseEngine(
        PlaneGraph(plane.csr), policy=PruningPolicy.NONE, dense=plane,
    )
    value, path, _ = none_engine.best_path(0, 1)
    ref = sg.distance(0, 1)
    assert value == ref.value
