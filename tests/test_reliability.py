"""Most-reliable-path algebra tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.semiring import RELIABILITY_PRODUCT
from repro.errors import ConfigError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.sgraph import SGraph


def reference_reliability(graph, source: int) -> dict:
    """Oracle: best product of probabilities from source to every vertex."""
    import heapq

    best = {source: 1.0}
    heap = [(-1.0, source)]
    done = set()
    while heap:
        negp, v = heapq.heappop(heap)
        p = -negp
        if v in done:
            continue
        done.add(v)
        for u, w in graph.out_items(v):
            np_ = p * w
            if np_ > best.get(u, 0.0):
                best[u] = np_
                heapq.heappush(heap, (-np_, u))
    return best


def _probability_graph(seed: int, n: int = 18, m: int = 32) -> DynamicGraph:
    base = erdos_renyi_graph(n, m, seed=seed)
    graph = DynamicGraph()
    rng = random.Random(seed + 1)
    for v in base.vertices():
        graph.add_vertex(v)
    for s, d, _w in base.edges():
        graph.add_edge(s, d, rng.uniform(0.05, 1.0))
    return graph


class TestSemiring:
    sr = RELIABILITY_PRODUCT

    def test_identities(self):
        assert self.sr.source_value == 1.0
        assert self.sr.unreachable == 0.0
        assert self.sr.name == "reliability"

    def test_extend_concat(self):
        assert self.sr.extend(0.5, 0.5) == 0.25
        assert self.sr.concat(0.5, 0.4) == 0.2

    def test_residual_cases(self):
        assert self.sr.residual_from_hub(0.0, 0.5) == 1.0   # no info
        assert self.sr.residual_from_hub(0.5, 0.0) == 0.0   # unreachable
        assert self.sr.residual_from_hub(0.5, 0.25) == 0.5  # binding
        assert self.sr.residual_from_hub(0.25, 0.5) == 1.0  # clamped
        assert self.sr.residual_to_hub(0.4, 0.8) == 0.5
        assert self.sr.residual_to_hub(0.0, 0.8) == 0.0
        assert self.sr.tighter_residual(0.3, 0.7) == 0.3


class TestEngine:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_policies_agree_with_oracle(self, seed):
        graph = _probability_graph(seed)
        hubs = sorted(graph.vertices(), key=graph.degree)[-3:]
        index = HubIndex(graph, hubs, semiring=RELIABILITY_PRODUCT)
        engines = [
            PairwiseEngine(graph, policy="none",
                           semiring=RELIABILITY_PRODUCT),
            PairwiseEngine(graph, index=index, policy="upper-only"),
            PairwiseEngine(graph, index=index, policy="upper+lower"),
        ]
        verts = sorted(graph.vertices())
        ref = reference_reliability(graph, verts[0])
        for t in verts[1:]:
            expected = ref.get(t, 0.0)
            for engine in engines:
                value, _stats = engine.best_cost(verts[0], t)
                assert value == pytest.approx(expected), engine.policy

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_paths_valid(self, seed):
        from repro.core.paths import path_cost

        graph = _probability_graph(seed)
        index = HubIndex(graph, list(graph.vertices())[:2],
                         semiring=RELIABILITY_PRODUCT)
        engine = PairwiseEngine(graph, index=index)
        verts = sorted(graph.vertices())
        ref = reference_reliability(graph, verts[0])
        for t in verts[1:8]:
            value, path, _stats = engine.best_path(verts[0], t)
            assert value == pytest.approx(ref.get(t, 0.0))
            if path is not None:
                assert path_cost(graph, RELIABILITY_PRODUCT,
                                 path) == pytest.approx(value)


    def test_bounds_activate_fewer_vertices_than_plain_search(self):
        """On the sensor-mesh proxy the reliability bounds prune: over the
        same pairs ``upper+lower`` activates fewer vertices than ``none``
        and answers every pair identically."""
        from repro.graph.datasets import load_dataset
        from repro.graph.stats import sample_vertex_pairs

        graph = load_dataset("sensor-rel")
        index = HubIndex.build(graph, 16, semiring=RELIABILITY_PRODUCT)
        plain = PairwiseEngine(graph, policy="none",
                               semiring=RELIABILITY_PRODUCT)
        pruned = PairwiseEngine(graph, index=index, policy="upper+lower")
        pairs = sample_vertex_pairs(graph, 16, seed=81, min_hops=2)
        plain_act = pruned_act = 0
        for s, t in pairs:
            value, stats = plain.best_cost(s, t)
            pruned_value, pruned_stats = pruned.best_cost(s, t)
            assert pruned_value == pytest.approx(value)
            plain_act += stats.activations
            pruned_act += pruned_stats.activations
        assert pruned_act < plain_act


class TestMaintenance:
    def test_insert_and_lazy_delete(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 0.9)
        graph.add_edge(1, 2, 0.9)
        from repro.streaming.incremental_sssp import IncrementalBestPath

        tree = IncrementalBestPath(graph, 0, RELIABILITY_PRODUCT)
        assert tree.cost(2) == pytest.approx(0.81)
        graph.add_edge(0, 2, 0.95)
        tree.on_edge_inserted(0, 2, 0.95)
        assert tree.cost(2) == pytest.approx(0.95)
        graph.remove_edge(0, 2)
        tree.on_edge_deleted(0, 2, 0.95)
        assert tree.dirty  # non-additive: lazy rebuild
        assert tree.cost(2) == pytest.approx(0.81)


class TestFacade:
    def test_reliability_queries(self):
        sg = SGraph.from_edges(
            [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5)],
            config=SGraphConfig(num_hubs=2, queries=("reliability",)),
        )
        result = sg.reliability(0, 2)
        assert result.value == pytest.approx(0.81)
        assert result.probability == pytest.approx(0.81)
        assert result.reachable

    def test_weight_validation(self):
        sg = SGraph.from_edges(
            [(0, 1, 2.0)],
            config=SGraphConfig(num_hubs=1, queries=("reliability",)),
        )
        with pytest.raises(ConfigError):
            sg.reliability(0, 1)

    def test_evolving(self):
        sg = SGraph.from_edges(
            [(0, 1, 0.9), (1, 2, 0.9)],
            config=SGraphConfig(num_hubs=2, queries=("reliability",)),
        )
        assert sg.reliability(0, 2).value == pytest.approx(0.81)
        sg.add_edge(0, 2, 0.99)
        assert sg.reliability(0, 2).value == pytest.approx(0.99)
        sg.remove_edge(0, 2)
        assert sg.reliability(0, 2).value == pytest.approx(0.81)

    def test_reliability_at_least(self):
        sg = SGraph.from_edges(
            [(0, 1, 0.9), (1, 2, 0.9)],
            config=SGraphConfig(num_hubs=2, queries=("reliability",)),
        )
        assert sg.reliability_at_least(0, 2, 0.8).value == 1.0
        assert sg.reliability_at_least(0, 2, 0.9).value == 0.0

    def test_persist_round_trip(self, tmp_path):
        from repro.persist import load_sgraph, save_sgraph

        graph = _probability_graph(5, n=30, m=60)
        sg = SGraph(graph=graph,
                    config=SGraphConfig(num_hubs=3, queries=("reliability",)))
        sg.rebuild_indexes()
        save_sgraph(sg, tmp_path / "rel")
        restored = load_sgraph(tmp_path / "rel", verify=True)
        verts = sorted(graph.vertices())
        for t in verts[1:10]:
            assert restored.reliability(verts[0], t).value == pytest.approx(
                sg.reliability(verts[0], t).value
            )
