"""One-to-many query tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.semiring import BOTTLENECK_CAPACITY
from repro.errors import ConfigError, QueryError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.sgraph import SGraph
from tests.conftest import reference_dijkstra, reference_widest


class TestEngineOneToMany:
    def test_basic(self, triangle_graph):
        index = HubIndex(triangle_graph, [1])
        engine = PairwiseEngine(triangle_graph, index=index)
        results, stats = engine.one_to_many(0, [1, 2])
        assert results == {1: 1.0, 2: 3.0}

    def test_source_in_targets(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        results, _stats = engine.one_to_many(0, [0, 2])
        assert results[0] == 0.0

    def test_duplicate_targets(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        results, _stats = engine.one_to_many(0, [2, 2, 2])
        assert results == {2: 3.0}

    def test_empty_targets(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        results, stats = engine.one_to_many(0, [])
        assert results == {}
        assert stats.activations == 0

    def test_unreachable_targets(self, two_components):
        index = HubIndex(two_components, [0, 2])
        engine = PairwiseEngine(two_components, index=index)
        results, stats = engine.one_to_many(0, [1, 2, 3])
        assert results[1] == 1.0
        assert results[2] == math.inf
        assert results[3] == math.inf

    def test_missing_endpoint_raises(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        with pytest.raises(QueryError):
            engine.one_to_many(0, [99])
        with pytest.raises(QueryError):
            engine.one_to_many(99, [0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_matches_singles_distance(self, seed):
        graph = erdos_renyi_graph(22, 40, seed=seed, weight_range=(1.0, 5.0))
        hubs = sorted(graph.vertices(), key=graph.degree)[-3:]
        index = HubIndex(graph, hubs)
        engine = PairwiseEngine(graph, index=index)
        verts = sorted(graph.vertices())
        source = verts[0]
        ref = reference_dijkstra(graph, source)
        results, _stats = engine.one_to_many(source, verts)
        for t in verts:
            expected = 0.0 if t == source else ref.get(t, math.inf)
            assert results[t] == pytest.approx(expected), t

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_matches_singles_capacity(self, seed):
        graph = erdos_renyi_graph(16, 28, seed=seed, weight_range=(1.0, 5.0))
        hubs = list(graph.vertices())[:3]
        index = HubIndex(graph, hubs, semiring=BOTTLENECK_CAPACITY)
        engine = PairwiseEngine(graph, index=index)
        verts = sorted(graph.vertices())
        source = verts[0]
        ref = reference_widest(graph, source)
        results, _stats = engine.one_to_many(source, verts[1:])
        for t in verts[1:]:
            assert results[t] == pytest.approx(ref.get(t, -math.inf)), t

    def test_dead_end_pruned_by_unreachability_proof_on_both_planes(self):
        # The hub 9 is reachable from the target 2 but not from the branch
        # 3 -> 4 -> 5, so d(3, 9) = inf proves 3 cannot reach 2 and the
        # lower-bound prune drops the branch at its first vertex.
        g = DynamicGraph(directed=True)
        for u, v in [(0, 1), (1, 2), (2, 9), (0, 3), (3, 4), (4, 5)]:
            g.add_edge(u, v, 1.0)
        index = HubIndex(g, [9])
        fwd, bwd = index.freeze()
        plane = DensePlane.build(g.snapshot(), [9], fwd, bwd)
        for engine in (PairwiseEngine(g, index=index),
                       PairwiseEngine(g, index=index, dense=plane)):
            results, stats = engine.one_to_many(0, [2])
            assert results == {2: 2.0}
            assert (stats.activations, stats.pruned_by_lower_bound) == (2, 1)


def _counters(stats):
    return (stats.activations, stats.pushes, stats.relaxations,
            stats.pruned_by_lower_bound, stats.pruned_by_upper_bound,
            stats.touched_reset)


class TestBatchIsTheLoopOfSingles:
    """``distance_many(s, T)[t]`` is the float ``distance(s, t)`` returns.

    Non-dyadic weights make the float sum order-sensitive, so any search
    that reached a target along another evaluation order than the
    pairwise kernel would show up as a last-bit difference.
    """

    @pytest.mark.parametrize("backend", ["dict", "dense"])
    @pytest.mark.parametrize("policy", ["none", "upper-only", "upper+lower"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_values_and_counters_equal_the_singles(self, directed, policy,
                                                   backend):
        rng = random.Random(3100 + 2 * directed)
        g = DynamicGraph(directed=directed)
        for v in range(60):
            g.add_vertex(v)
        while g.num_edges < 180:
            u, v = rng.randrange(57), rng.randrange(57)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v, rng.uniform(0.1, 10.0))
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=6, policy=policy, backend=backend))
        sg.distance(0, 1)  # build the index (and plane) before counting
        for _ in range(6):
            s = rng.randrange(60)
            targets = rng.sample(range(60), 20) + [s, rng.randrange(60)]
            batch = sg.distance_many_result(s, targets)
            singles = {t: sg.distance(s, t) for t in targets}
            assert set(batch.values) == set(singles)
            for t, single in singles.items():
                assert batch.values[t] == single.value, (s, t)
            sums = [sum(col) for col in
                    zip(*(_counters(r.stats) for r in singles.values()))]
            assert list(_counters(batch.stats)) == sums
            assert batch.stats.answered_by_index == all(
                r.stats.answered_by_index for r in singles.values())


class TestFacade:
    def test_distance_many(self):
        sg = SGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)],
                               config=SGraphConfig(num_hubs=2))
        results = sg.distance_many(0, [1, 2, 4])
        assert results[1] == 1.0
        assert results[2] == 3.0
        assert results[4] == math.inf

    def test_requires_distance_family(self, triangle_graph):
        sg = SGraph(graph=triangle_graph,
                    config=SGraphConfig(queries=("capacity",)))
        with pytest.raises(ConfigError):
            sg.distance_many(0, [1])

    def test_distance_many_result_surfaces_stats(self):
        sg = SGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)],
                               config=SGraphConfig(num_hubs=2))
        result = sg.distance_many_result(0, [1, 2, 4])
        assert result.values == sg.distance_many(0, [1, 2, 4])
        assert result.source == 0
        assert result.epoch == sg.epoch
        assert len(result) == 3 and 2 in result and result[2] == 3.0
        assert result.reachable_count == 2
        # The summed counters of the per-target searches.
        assert result.stats.elapsed > 0.0
        assert (result.stats.activations > 0
                or result.stats.answered_by_index)
