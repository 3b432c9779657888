"""Baseline engines: search algorithms, recompute, continuous maintenance."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import (
    bfs_hops,
    bidirectional_dijkstra,
    dijkstra_distance,
    full_sssp,
)
from repro.baselines.recompute import RecomputeEngine
from repro.baselines.streaming_engine import ContinuousPairwiseEngine
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.pairwise import QueryKind
from repro.errors import QueryError
from repro.graph.generators import erdos_renyi_graph
from repro.streaming.ingest import IngestEngine
from repro.streaming.update import EdgeUpdate
from tests.conftest import reference_dijkstra


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


class TestRecompute:
    def test_distance_and_kind(self, triangle_graph):
        engine = RecomputeEngine(triangle_graph)
        result = engine.distance(0, 2)
        assert result.value == 3.0
        assert result.kind is QueryKind.DISTANCE

    def test_activates_whole_component(self, small_powerlaw):
        engine = RecomputeEngine(small_powerlaw)
        verts = sorted(small_powerlaw.vertices())
        result = engine.distance(verts[0], verts[1])
        assert result.stats.activations >= 0.9 * small_powerlaw.num_vertices

    def test_reachable(self, two_components):
        engine = RecomputeEngine(two_components)
        assert engine.reachable(0, 1).value == 1.0
        assert engine.reachable(0, 3).value == 0.0

    def test_notifications_are_noops(self, triangle_graph):
        engine = RecomputeEngine(triangle_graph)
        engine.notify_edge_inserted(0, 1, 1.0)
        engine.notify_edge_deleted(0, 1, 1.0)
        assert engine.settled_last_update == 0


def _upper_only(graph, num_hubs):
    """The Tripoline-style comparator: a hub index that follows the graph as
    an ingest listener, used only to seed the search's upper bound."""
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
        ingest = IngestEngine(line_graph, [index])
        ingest.apply_update(EdgeUpdate.insert(0, 4, 0.5))
        assert engine.best_cost(0, 4)[0] == 0.5
        ingest.apply_update(EdgeUpdate.delete(0, 4))
        assert engine.best_cost(0, 4)[0] == 4.0

    def test_reachable(self, two_components):
        _index, engine = _upper_only(two_components, 2)
        assert engine.feasible(0, 1)[0] is True
        assert engine.feasible(0, 2)[0] is False


class TestContinuousEngine:
    def test_requires_registration(self, triangle_graph):
        engine = ContinuousPairwiseEngine(triangle_graph)
        with pytest.raises(QueryError):
            engine.distance(0, 2)

    def test_registered_lookup(self, triangle_graph):
        engine = ContinuousPairwiseEngine(triangle_graph)
        engine.register_source(0)
        result = engine.distance(0, 2)
        assert result.value == 3.0
        assert result.stats.answered_by_index
        assert result.stats.activations == 0

    def test_register_pairs_dedups(self, triangle_graph):
        engine = ContinuousPairwiseEngine(triangle_graph)
        engine.register_pairs([(0, 1), (0, 2), (1, 2)])
        assert engine.num_registered == 2

    def test_stays_fresh_under_updates(self, line_graph):
        engine = ContinuousPairwiseEngine(line_graph)
        engine.register_source(0)
        ingest = IngestEngine(line_graph, [engine])
        ingest.apply_update(EdgeUpdate.insert(0, 3, 0.5))
        assert engine.distance(0, 4).value == 1.5
        ingest.apply_update(EdgeUpdate.delete(0, 3))
        assert engine.distance(0, 4).value == 4.0

    def test_reachable(self, two_components):
        engine = ContinuousPairwiseEngine(two_components)
        engine.register_source(0)
        assert engine.reachable(0, 1).value == 1.0
        assert engine.reachable(0, 3).value == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_continuous_matches_recompute_after_churn(self, seed):
        graph = erdos_renyi_graph(18, 30, seed=seed, weight_range=(1.0, 5.0))
        verts = sorted(graph.vertices())
        engine = ContinuousPairwiseEngine(graph)
        engine.register_source(verts[0])
        ingest = IngestEngine(graph, [engine])
        import random

        rng = random.Random(seed)
        for _ in range(25):
            u, v = rng.sample(verts, 2)
            if graph.has_edge(u, v) and rng.random() < 0.5:
                ingest.apply_update(EdgeUpdate.delete(u, v))
            else:
                ingest.apply_update(
                    EdgeUpdate.insert(u, v, rng.uniform(1.0, 5.0))
                )
        ref = reference_dijkstra(graph, verts[0])
        for t in verts[1:]:
            assert engine.distance(verts[0], t).value == pytest.approx(
                ref.get(t, math.inf)
            )
