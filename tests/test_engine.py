"""PairwiseEngine correctness under every pruning policy.

The make-or-break property: pruning must never change the answer.  Checked
against textbook Dijkstra on random graphs (directed and undirected, both
semirings), plus stats semantics and error handling.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.pruning import PruningPolicy
from repro.core.semiring import BOTTLENECK_CAPACITY, SHORTEST_DISTANCE
from repro.errors import ConfigError, QueryError
from repro.graph.generators import (
    erdos_renyi_graph,
    power_law_graph,
)
from tests.conftest import reference_dijkstra, reference_widest

ALL_POLICIES = list(PruningPolicy)


class TestConstruction:
    def test_policy_requires_index(self, triangle_graph):
        with pytest.raises(ConfigError):
            PairwiseEngine(triangle_graph, policy=PruningPolicy.UPPER_ONLY)

    def test_policy_string_parsing(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        assert engine.policy is PruningPolicy.NONE

    def test_semiring_conflict_rejected(self, triangle_graph):
        index = HubIndex(triangle_graph, [0])
        with pytest.raises(ConfigError):
            PairwiseEngine(triangle_graph, index=index,
                           semiring=BOTTLENECK_CAPACITY)

    def test_semiring_inherited_from_index(self, triangle_graph):
        index = HubIndex(triangle_graph, [0], semiring=BOTTLENECK_CAPACITY)
        engine = PairwiseEngine(triangle_graph, index=index)
        assert engine.semiring is index.semiring
        assert engine.index is index

    def test_default_semiring(self, triangle_graph):
        assert PairwiseEngine(
            triangle_graph, policy="none"
        ).semiring is SHORTEST_DISTANCE

    def test_index_graph_mismatch_rejected(self, triangle_graph, line_graph):
        index = HubIndex(triangle_graph, [0])
        with pytest.raises(ConfigError):
            PairwiseEngine(line_graph, index=index)


class TestBasicQueries:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_triangle(self, triangle_graph, policy):
        index = HubIndex(triangle_graph, [1]) if policy.uses_index else None
        engine = PairwiseEngine(triangle_graph, index=index, policy=policy)
        value, _stats = engine.best_cost(0, 2)
        assert value == 3.0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_unreachable(self, two_components, policy):
        index = HubIndex(two_components, [0]) if policy.uses_index else None
        engine = PairwiseEngine(two_components, index=index, policy=policy)
        value, _stats = engine.best_cost(0, 3)
        assert value == math.inf

    def test_same_endpoint(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        value, stats = engine.best_cost(1, 1)
        assert value == 0.0
        assert stats.activations == 0

    def test_missing_endpoint_raises(self, triangle_graph):
        engine = PairwiseEngine(triangle_graph, policy="none")
        with pytest.raises(QueryError):
            engine.best_cost(0, 99)
        with pytest.raises(QueryError):
            engine.best_cost(99, 0)

    def test_directed_asymmetry(self, directed_diamond):
        engine = PairwiseEngine(directed_diamond, policy="none")
        assert engine.best_cost(0, 3)[0] == 2.0
        assert engine.best_cost(3, 0)[0] == math.inf


class TestIndexShortCircuits:
    def test_exact_bounds_skip_search(self, line_graph):
        index = HubIndex(line_graph, [0])
        engine = PairwiseEngine(line_graph, index=index)
        value, stats = engine.best_cost(0, 4)
        assert value == 4.0
        assert stats.answered_by_index
        assert stats.activations == 0

    def test_unreachable_proof_skips_search(self, two_components):
        index = HubIndex(two_components, [0, 2])
        engine = PairwiseEngine(two_components, index=index)
        value, stats = engine.best_cost(0, 3)
        assert value == math.inf
        assert stats.answered_by_index
        assert stats.activations == 0

    def test_upper_only_never_answers_finite_from_index(self, line_graph):
        index = HubIndex(line_graph, [0])
        engine = PairwiseEngine(line_graph, index=index, policy="upper-only")
        value, stats = engine.best_cost(0, 4)
        assert value == 4.0
        assert not stats.answered_by_index


class TestReachability:
    def test_feasible_true(self, line_graph):
        index = HubIndex(line_graph, [2])
        engine = PairwiseEngine(line_graph, index=index)
        ok, stats = engine.feasible(0, 4)
        assert ok
        assert stats.answered_by_index  # finite witness via the hub

    def test_feasible_false_via_proof(self, two_components):
        index = HubIndex(two_components, [0, 2])
        engine = PairwiseEngine(two_components, index=index)
        ok, stats = engine.feasible(0, 2)
        assert not ok
        assert stats.answered_by_index

    def test_feasible_without_index(self, two_components):
        engine = PairwiseEngine(two_components, policy="none")
        assert engine.feasible(0, 1)[0]
        assert not engine.feasible(0, 2)[0]

    def test_feasible_stops_early(self, small_powerlaw):
        engine = PairwiseEngine(small_powerlaw, policy="none")
        verts = sorted(small_powerlaw.vertices())
        ok, stats = engine.feasible(verts[0], verts[1])
        assert ok
        # Early exit: far fewer activations than full exploration.
        assert stats.activations < small_powerlaw.num_vertices


class TestStats:
    def test_pruning_reduces_activations(self, small_grid):
        pairs = [(0, 63), (7, 56), (3, 60)]
        index = HubIndex.build(small_grid, 6, strategy="far-apart", seed=1)
        none_engine = PairwiseEngine(small_grid, policy="none")
        lb_engine = PairwiseEngine(small_grid, index=index)
        total_none = total_lb = 0
        for s, t in pairs:
            v0, st0 = none_engine.best_cost(s, t)
            v1, st1 = lb_engine.best_cost(s, t)
            assert v0 == pytest.approx(v1)
            total_none += st0.activations
            total_lb += st1.activations
        assert total_lb < total_none

    def test_counters_populate(self, small_grid):
        index = HubIndex.build(small_grid, 4, strategy="far-apart")
        engine = PairwiseEngine(small_grid, index=index)
        _value, stats = engine.best_cost(0, 63)
        assert stats.pushes >= stats.activations
        assert stats.relaxations >= stats.activations


def _check_policy_equivalence(graph, hubs, semiring, oracle):
    index = HubIndex(graph, hubs, semiring=semiring)
    engines = [
        PairwiseEngine(graph, policy="none", semiring=semiring),
        PairwiseEngine(graph, index=index, policy="upper-only"),
        PairwiseEngine(graph, index=index, policy="upper+lower"),
    ]
    verts = sorted(graph.vertices())
    truth = {v: oracle(graph, v) for v in verts[:8]}
    for s in verts[:8]:
        for t in verts:
            expected = truth[s].get(t, semiring.unreachable)
            if s == t:
                expected = semiring.source_value
            for engine in engines:
                value, _stats = engine.best_cost(s, t)
                assert value == pytest.approx(expected), (
                    f"{engine.policy.value}: {s}->{t} got {value}, "
                    f"want {expected}"
                )


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_distance_policies_agree_undirected(seed):
    graph = erdos_renyi_graph(16, 28, seed=seed, weight_range=(1.0, 5.0))
    hubs = sorted(graph.vertices(), key=graph.degree)[-3:]
    _check_policy_equivalence(graph, hubs, SHORTEST_DISTANCE,
                              reference_dijkstra)


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_distance_policies_agree_directed(seed):
    graph = erdos_renyi_graph(14, 50, seed=seed, directed=True,
                              weight_range=(1.0, 5.0))
    hubs = list(graph.vertices())[:3]
    _check_policy_equivalence(graph, hubs, SHORTEST_DISTANCE,
                              reference_dijkstra)


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_capacity_policies_agree(seed):
    graph = erdos_renyi_graph(14, 24, seed=seed, weight_range=(1.0, 5.0))
    hubs = list(graph.vertices())[:3]
    _check_policy_equivalence(graph, hubs, BOTTLENECK_CAPACITY,
                              reference_widest)


@given(st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_powerlaw_distance_agreement(seed):
    graph = power_law_graph(60, 3, seed=seed, weight_range=(1.0, 5.0))
    hubs = sorted(graph.vertices(), key=graph.degree)[-4:]
    _check_policy_equivalence(graph, hubs, SHORTEST_DISTANCE,
                              reference_dijkstra)
