"""SGraph facade tests: the public API end to end."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SGraphConfig
from repro.core.pairwise import QueryKind
from repro.errors import ConfigError, QueryError
from repro.graph.generators import erdos_renyi_graph
from repro.sgraph import SGraph
from repro.streaming.update import EdgeUpdate
from tests.conftest import reference_dijkstra, reference_widest


@pytest.fixture
def sg_triangle(triangle_graph):
    return SGraph(
        graph=triangle_graph,
        config=SGraphConfig(num_hubs=2, queries=("distance", "hops",
                                                 "capacity")),
    )


class TestConstruction:
    def test_from_edges(self):
        sg = SGraph.from_edges([(0, 1, 2.0), (1, 2)])
        assert sg.num_vertices == 3
        assert sg.num_edges == 2
        assert sg.distance(0, 2).value == 3.0

    def test_empty_graph_query_raises(self):
        sg = SGraph()
        with pytest.raises(QueryError):
            sg.distance(0, 1)

    def test_hub_count_clamped_to_graph(self):
        sg = SGraph.from_edges([(0, 1)], config=SGraphConfig(num_hubs=50))
        assert sg.distance(0, 1).value == 1.0
        assert sg.index_for("distance").num_hubs == 2

    def test_unconfigured_family_raises(self, triangle_graph):
        sg = SGraph(graph=triangle_graph,
                    config=SGraphConfig(queries=("distance",)))
        with pytest.raises(ConfigError):
            sg.bottleneck(0, 2)
        with pytest.raises(ConfigError):
            sg.index_for("capacity")

    def test_repr(self, sg_triangle):
        assert "SGraph" in repr(sg_triangle)


class TestQueries:
    def test_distance(self, sg_triangle):
        result = sg_triangle.distance(0, 2)
        assert result.value == 3.0
        assert result.kind is QueryKind.DISTANCE
        assert result.reachable
        assert result.distance == 3.0
        assert result.epoch == sg_triangle.epoch

    def test_hops_ignore_weights(self, sg_triangle):
        result = sg_triangle.hop_distance(0, 2)
        assert result.value == 1.0
        assert result.hops == 1

    def test_bottleneck(self, sg_triangle):
        result = sg_triangle.bottleneck(0, 2)
        assert result.value == 4.0
        assert result.capacity == 4.0

    def test_reachable(self, sg_triangle):
        assert sg_triangle.reachable(0, 2).value == 1.0

    def test_unreachable_results(self, two_components):
        sg = SGraph(graph=two_components,
                    config=SGraphConfig(num_hubs=2,
                                        queries=("distance", "capacity")))
        d = sg.distance(0, 3)
        assert d.value == math.inf
        assert not d.reachable
        c = sg.bottleneck(0, 3)
        assert c.value == -math.inf
        assert not c.reachable
        assert sg.reachable(0, 3).value == 0.0

    def test_result_property_guards(self, sg_triangle):
        result = sg_triangle.distance(0, 2)
        with pytest.raises(AttributeError):
            _ = result.capacity
        with pytest.raises(AttributeError):
            _ = result.hops
        hop_result = sg_triangle.hop_distance(0, 2)
        with pytest.raises(AttributeError):
            _ = hop_result.capacity


class TestMutation:
    def test_add_edge_then_query(self, sg_triangle):
        sg_triangle.add_edge(2, 3, 1.0)
        assert sg_triangle.distance(0, 3).value == 4.0
        assert sg_triangle.hop_distance(0, 3).value == 2.0

    def test_weight_change(self, sg_triangle):
        sg_triangle.add_edge(0, 2, 1.5)  # was 4.0
        assert sg_triangle.distance(0, 2).value == 1.5
        # topology unchanged → hop answer unchanged
        assert sg_triangle.hop_distance(0, 2).value == 1.0

    def test_identical_weight_is_noop(self, sg_triangle):
        epoch = sg_triangle.epoch
        sg_triangle.add_edge(0, 2, 4.0)
        assert sg_triangle.epoch == epoch

    def test_remove_edge(self, sg_triangle):
        sg_triangle.remove_edge(0, 2)
        assert sg_triangle.distance(0, 2).value == 3.0
        assert sg_triangle.hop_distance(0, 2).value == 2.0

    def test_discard_edge(self, sg_triangle):
        assert sg_triangle.discard_edge(0, 2)
        assert not sg_triangle.discard_edge(0, 2)

    def test_add_vertex(self, sg_triangle):
        assert sg_triangle.add_vertex(9)
        assert sg_triangle.num_vertices == 4

    def test_remove_plain_vertex(self):
        sg = SGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 9)],
                               config=SGraphConfig(num_hubs=1))
        sg.distance(0, 1)  # build index; hub is vertex with max degree
        sg.remove_vertex(3)
        assert sg.num_vertices == 4
        assert sg.distance(0, 2).value == 2.0

    def test_remove_hub_vertex_rebuilds(self):
        sg = SGraph.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)],
            config=SGraphConfig(num_hubs=1),
        )
        sg.distance(1, 3)
        hub = sg.index_for("distance").hubs[0]
        assert hub == 0  # highest degree
        sg.remove_vertex(0)
        assert sg.distance(1, 3).value == 2.0
        assert 0 not in sg.index_for("distance").hubs

    def test_remove_last_vertex_uninstalls_indexes(self):
        """Removing the last (hub) vertex leaves an empty facade that
        answers like a fresh one, and an insert rebuilds lazily."""
        sg = SGraph.from_edges([(0, 1, 1.0)], config=SGraphConfig(num_hubs=2))
        sg.distance(0, 1)
        sg.remove_vertex(0)
        sg.remove_vertex(1)
        assert sg.num_vertices == 0
        with pytest.raises(QueryError, match="empty graph"):
            sg.distance(0, 1)
        with pytest.raises(QueryError, match="empty graph"):
            SGraph(config=SGraphConfig(num_hubs=2)).distance(0, 1)
        sg.add_edge(3, 4, 2.0)
        assert sg.distance(3, 4).value == 2.0
        assert set(sg.index_for("distance").hubs) == {3, 4}

    def test_apply_updates(self, sg_triangle):
        applied = sg_triangle.apply([
            EdgeUpdate.insert(2, 3, 2.0),
            EdgeUpdate.delete(0, 1),
            EdgeUpdate.delete(7, 8),  # redundant: tolerated
        ])
        assert applied == 3
        assert sg_triangle.distance(0, 3).value == 6.0  # 0-2 (4) + 2-3 (2)

    def test_maintenance_counter_updates(self, sg_triangle):
        sg_triangle.distance(0, 2)  # force index build
        sg_triangle.add_edge(1, 3, 1.0)
        index = sg_triangle.index_for("distance")
        assert index.settled_last_update >= 1


class TestEquivalenceUnderChurn:
    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_facade_matches_oracles_after_random_updates(self, seed):
        graph = erdos_renyi_graph(20, 32, seed=seed, weight_range=(1.0, 5.0))
        sg = SGraph(
            graph=graph,
            config=SGraphConfig(num_hubs=4,
                                queries=("distance", "hops", "capacity")),
        )
        sg.distance(*list(graph.vertices())[:2])  # build indexes
        rng = random.Random(seed)
        verts = list(graph.vertices())
        for _ in range(30):
            u, v = rng.sample(verts, 2)
            roll = rng.random()
            if graph.has_edge(u, v) and roll < 0.4:
                sg.remove_edge(u, v)
            else:
                sg.add_edge(u, v, rng.uniform(1.0, 5.0))
        dist_ref = {v: reference_dijkstra(graph, v) for v in verts[:4]}
        cap_ref = {v: reference_widest(graph, v) for v in verts[:4]}
        for s in verts[:4]:
            for t in verts:
                if s == t:
                    continue
                assert sg.distance(s, t).value == pytest.approx(
                    dist_ref[s].get(t, math.inf)
                )
                assert sg.bottleneck(s, t).value == pytest.approx(
                    cap_ref[s].get(t, -math.inf)
                )

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_hops_match_bfs_after_updates(self, seed):
        graph = erdos_renyi_graph(18, 26, seed=seed, weight_range=(1.0, 5.0))
        sg = SGraph(graph=graph,
                    config=SGraphConfig(num_hubs=3, queries=("hops",)))
        verts = list(graph.vertices())
        sg.hop_distance(verts[0], verts[1])
        rng = random.Random(seed + 1)
        for _ in range(20):
            u, v = rng.sample(verts, 2)
            if graph.has_edge(u, v) and rng.random() < 0.5:
                sg.remove_edge(u, v)
            else:
                sg.add_edge(u, v, rng.uniform(1.0, 5.0))
        from repro.baselines.dijkstra import bfs_hops

        for t in verts[1:10]:
            ref, _stats = bfs_hops(graph, verts[0], t)
            assert sg.hop_distance(verts[0], t).value == ref
