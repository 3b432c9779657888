"""Baseline engines: search algorithms and the upper-bound-only comparator."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import (
    bfs_hops,
    bidirectional_dijkstra,
    dijkstra_distance,
    full_sssp,
)
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.errors import QueryError
from repro.graph.generators import erdos_renyi_graph
from repro.streaming.update import EdgeUpdate
from tests.conftest import apply_and_notify, reference_dijkstra


class TestDijkstraVariants:
    def test_unidirectional(self, triangle_graph):
        value, stats = dijkstra_distance(triangle_graph, 0, 2)
        assert value == 3.0
        assert stats.activations >= 1

    def test_bidirectional(self, triangle_graph):
        value, _stats = bidirectional_dijkstra(triangle_graph, 0, 2)
        assert value == 3.0

    def test_same_vertex(self, triangle_graph):
        assert dijkstra_distance(triangle_graph, 1, 1)[0] == 0.0
        assert bidirectional_dijkstra(triangle_graph, 1, 1)[0] == 0.0

    def test_unreachable(self, two_components):
        assert dijkstra_distance(two_components, 0, 3)[0] == math.inf
        assert bidirectional_dijkstra(two_components, 0, 3)[0] == math.inf

    def test_missing_vertex_raises(self, triangle_graph):
        with pytest.raises(QueryError):
            dijkstra_distance(triangle_graph, 0, 99)
        with pytest.raises(QueryError):
            bidirectional_dijkstra(triangle_graph, 99, 0)
        with pytest.raises(QueryError):
            bfs_hops(triangle_graph, 99, 0)
        with pytest.raises(QueryError):
            full_sssp(triangle_graph, 99)

    def test_bfs_hops_ignores_weights(self, triangle_graph):
        value, _stats = bfs_hops(triangle_graph, 0, 2)
        assert value == 1.0  # direct edge, despite weight 4.0

    def test_bfs_unreachable(self, two_components):
        assert bfs_hops(two_components, 0, 3)[0] == math.inf

    def test_full_sssp_settles_component(self, small_powerlaw):
        source = next(iter(small_powerlaw.vertices()))
        dist, stats = full_sssp(small_powerlaw, source)
        ref = reference_dijkstra(small_powerlaw, source)
        assert dist == pytest.approx(ref)
        assert stats.activations == len(ref)

    def test_full_sssp_settles_only_the_sources_component(
            self, two_components):
        dist, stats = full_sssp(two_components, 0)
        assert dist == {0: 0.0, 1: 1.0}
        assert stats.activations == 2

    def test_full_sssp_follows_arc_direction(self, directed_diamond):
        assert full_sssp(directed_diamond, 0)[1].activations == 4
        dist, stats = full_sssp(directed_diamond, 3)
        assert dist == {3: 0.0}
        assert stats.activations == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_variants_agree(self, seed):
        graph = erdos_renyi_graph(20, 34, seed=seed, weight_range=(1.0, 5.0))
        verts = sorted(graph.vertices())
        ref = reference_dijkstra(graph, verts[0])
        for t in verts[1:10]:
            expected = ref.get(t, math.inf)
            assert dijkstra_distance(graph, verts[0], t)[0] == pytest.approx(
                expected
            )
            assert bidirectional_dijkstra(graph, verts[0], t)[0] == pytest.approx(
                expected
            )

    def test_bidirectional_cheaper_on_grid(self, small_grid):
        _v, uni = dijkstra_distance(small_grid, 0, 63)
        _v, bi = bidirectional_dijkstra(small_grid, 0, 63)
        assert bi.activations < uni.activations


def _upper_only(graph, num_hubs):
    """The Tripoline-style comparator: a hub index that follows the graph's
    updates, used only to seed the search's upper bound."""
    index = HubIndex.build(graph, num_hubs)
    return index, PairwiseEngine(graph, index=index, policy="upper-only")


class TestUpperBoundOnly:
    def test_distance_correct(self, small_powerlaw):
        _index, engine = _upper_only(small_powerlaw, 4)
        verts = sorted(small_powerlaw.vertices())
        ref = reference_dijkstra(small_powerlaw, verts[0])
        for t in verts[1:8]:
            assert engine.best_cost(verts[0], t)[0] == pytest.approx(
                ref.get(t, math.inf)
            )

    def test_tracks_updates_via_listener(self, line_graph):
        index, engine = _upper_only(line_graph, 2)
        apply_and_notify(line_graph, EdgeUpdate.insert(0, 4, 0.5), index)
        assert engine.best_cost(0, 4)[0] == 0.5
        apply_and_notify(line_graph, EdgeUpdate.delete(0, 4), index)
        assert engine.best_cost(0, 4)[0] == 4.0

    def test_reachable(self, two_components):
        _index, engine = _upper_only(two_components, 2)
        assert engine.feasible(0, 1)[0] is True
        assert engine.feasible(0, 2)[0] is False

    @pytest.mark.parametrize("directed", [False, True])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_matches_reference_after_churn(self, directed, seed):
        graph = erdos_renyi_graph(18, 30, seed=seed, directed=directed,
                                  weight_range=(1.0, 5.0))
        verts = sorted(graph.vertices())
        index, engine = _upper_only(graph, 3)
        rng = random.Random(seed)
        for _ in range(25):
            u, v = rng.sample(verts, 2)
            if graph.has_edge(u, v) and rng.random() < 0.5:
                update = EdgeUpdate.delete(u, v)
            else:
                update = EdgeUpdate.insert(u, v, rng.uniform(1.0, 5.0))
            apply_and_notify(graph, update, index)
        ref = reference_dijkstra(graph, verts[0])
        for t in verts[1:]:
            assert engine.best_cost(verts[0], t)[0] == pytest.approx(
                ref.get(t, math.inf)
            )
