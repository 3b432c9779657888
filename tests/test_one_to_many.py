"""One-to-many query tests."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.config import SGraphConfig
from repro.core.engine import WIDE_BATCH, PairwiseEngine
from repro.core.hub_index import DensePlane, HubIndex, sums_are_exact
from repro.core.semiring import BOTTLENECK_CAPACITY
from repro.errors import ConfigError, QueryError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore
from tests.conftest import (
    assert_frontier_pass_counters,
    reference_dijkstra,
    reference_widest,
)


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


def _summed(results):
    """The counters of a loop of the pairwise searches behind ``results``."""
    return tuple(sum(col) for col in
                 zip(*(_counters(r.stats) for r in results)))


#: weight draws whose sums are exact in float64 (the wide path's gate)
EXACT_WEIGHTS = {
    "dyadic": (0.25, 0.5, 1.0, 1.375, 2.75, 4.125),
    "integer": (1.0, 2.0, 3.0, 5.0, 8.0),
}
#: vertices of the wide-batch graphs: 0..59 one random component, 60..68
#: another, 69..71 isolated
WIDE_N = 72


def _exact_graph(seed: int, directed: bool, draws) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=directed)
    for v in range(WIDE_N):
        g.add_vertex(v)
    for lo, hi, arcs in ((0, 60, 170), (60, 69, 12)):
        added = 0
        while added < arcs:
            u, v = rng.randrange(lo, hi), rng.randrange(lo, hi)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v, rng.choice(draws))
                added += 1
    return g


class TestWideBatch:
    """A wide batch on a dense plane with exact sums is one frontier pass.

    Its values stay bit for bit those of ``distance(s, t)``, of the dict
    plane's loop and of Dijkstra; its counters are the pass's.  Narrow
    batches and real-valued planes keep the loop of pairwise searches.
    """

    @staticmethod
    def _check(view, sg_dict, s, targets):
        batch = view.distance_many_result(s, targets)
        distinct = list(dict.fromkeys(targets))
        assert list(batch.values) == distinct
        assert batch.values == sg_dict.distance_many_result(s, targets).values
        singles = {t: view.distance(s, t) for t in distinct}
        for t in distinct:
            value = batch.values[t]
            assert type(value) is float
            assert value == singles[t].value, (s, t)
            assert value == dijkstra_distance(sg_dict.graph, s, t)[0], (s, t)
        if len(set(distinct) - {s}) >= WIDE_BATCH:
            assert_frontier_pass_counters(batch.stats)
        else:
            assert _counters(batch.stats) == _summed(singles.values())
        assert batch.stats.answered_by_index == all(
            r.stats.answered_by_index for r in singles.values())
        return batch

    @pytest.mark.parametrize("weights", sorted(EXACT_WEIGHTS))
    @pytest.mark.parametrize("policy", ["none", "upper-only", "upper+lower"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_batches_across_churned_epochs(self, directed, policy, weights):
        draws = EXACT_WEIGHTS[weights]
        seed = 4400 + 2 * directed + 10 * len(draws)
        rng = random.Random(seed)
        sg_dict, sg_dense = (
            SGraph(graph=_exact_graph(seed, directed, draws),
                   config=SGraphConfig(num_hubs=6, policy=policy,
                                       backend=backend))
            for backend in ("dict", "dense"))
        store = VersionedStore(sg_dense)
        ids = None
        wide_work = 0
        for _epoch in range(3):
            view = store.publish()
            plane = view.dense_plane("distance")
            assert plane.exact_sums
            if ids is None:
                ids = plane.csr.ids
            else:
                assert plane.csr.ids is ids  # derived from the last CSR
            main = range(60)
            for width in (WIDE_BATCH - 1, WIDE_BATCH, 3 * WIDE_BATCH):
                s = rng.choice(main)
                targets = rng.sample([v for v in main if v != s], width)
                batch = self._check(view, sg_dict, s, targets)
                if width >= WIDE_BATCH:
                    wide_work += batch.stats.activations
            # Repeats and the source itself collapse to one answer each.
            s = rng.choice(main)
            base = rng.sample([v for v in main if v != s], WIDE_BATCH)
            self._check(view, sg_dict, s, base + base[:3] + [s, s])
            # Isolated vertices and the other component: unreachable.
            s = rng.choice(main)
            far = [69, 70, 71, 60, 61, 62]
            near = rng.sample([v for v in main if v != s], 4)
            batch = self._check(view, sg_dict, s, near + far)
            assert all(batch.values[t] == math.inf for t in far)
            # From a hub to the other hubs and the isolated vertices the
            # tables answer every target: bounds meet, or prove no path.
            hubs = sg_dense.index_for("distance").hubs
            batch = self._check(view, sg_dict, hubs[0],
                                hubs + [69, 70, 71, hubs[1]])
            if policy == "upper+lower":
                assert batch.stats.answered_by_index
            else:
                assert batch.stats.activations > 0
            for _ in range(8):
                u, v = rng.sample(main, 2)
                if sg_dense.graph.has_edge(u, v) and rng.random() < 0.5:
                    for sg in (sg_dict, sg_dense):
                        sg.remove_edge(u, v)
                else:
                    w = rng.choice(draws)
                    for sg in (sg_dict, sg_dense):
                        sg.add_edge(u, v, w)
        assert wide_work > 0

    def test_real_weights_keep_the_loop(self):
        # Non-dyadic weights make float sums order-sensitive: the plane is
        # refused and even a wide batch stays the loop of singles.
        rng = random.Random(3300)
        g = DynamicGraph(directed=False)
        for v in range(60):
            g.add_vertex(v)
        while g.num_edges < 170:
            u, v = rng.randrange(60), rng.randrange(60)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v, rng.uniform(0.1, 10.0))
        sg = SGraph(graph=g, config=SGraphConfig(num_hubs=6, backend="dense"))
        view = VersionedStore(sg).publish()
        assert not view.dense_plane("distance").exact_sums
        searches = 0
        for _ in range(4):
            s = rng.randrange(60)
            targets = rng.sample([v for v in range(60) if v != s], 22)
            batch = view.distance_many_result(s, targets)
            singles = [view.distance(s, t) for t in targets]
            assert [batch.values[t] for t in targets] == [
                r.value for r in singles]
            assert _counters(batch.stats) == _summed(singles)
            searches += batch.stats.workspace_resets
        assert searches > 0  # pairwise searches ran, each in the workspace

    def test_counters_of_a_hand_traced_pass(self):
        # Eight targets one arc from the source, and a branch 0 -> 9 -> 10
        # whose first arc is 2^-40 longer than theirs: inside the cap's
        # relative slack (1e-12), so 9 is expanded, and 10 is not.
        eps = 2.0 ** -40
        g = DynamicGraph(directed=True)
        for t in range(1, 9):
            g.add_edge(0, t, 1.0)
        g.add_edge(0, 9, 1.0 + eps)
        g.add_edge(9, 10, 1.0)
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=2, policy="none", backend="dense"))
        result = sg.distance_many_result(0, list(range(1, 9)))
        assert result.values == dict.fromkeys(range(1, 9), 1.0)
        # Round 0 expands 0: 9 arcs, 9 labels improve.  Round 1 caps at
        # max_t dist[t] = 1 and expands all nine: 1 arc, 1 improvement.
        # Round 2 drops 10 (2 + 2^-40 is over the cap).
        stats = result.stats
        assert (stats.activations, stats.relaxations, stats.pushes,
                stats.pruned_by_upper_bound) == (10, 10, 10, 1)
        assert not stats.answered_by_index

    def test_exactness_gate(self):
        dyadic = np.array([0.25, 1.375, 3.0, 0.0])
        assert sums_are_exact(dyadic, 1000)
        assert sums_are_exact(np.array([2.0 ** -60]), 1000)
        assert sums_are_exact(np.array([], dtype=float), 10)
        assert not sums_are_exact(np.array([1.0, 0.1]), 10)
        # 2·|V|·max_w·2^P <= 2^53, P = 0 for integer weights.
        big = np.array([2.0 ** 40, 1.0])
        assert sums_are_exact(big, 2 ** 12)
        assert not sums_are_exact(big, 2 ** 12 + 1)
        for bad in (-1.0, math.inf, math.nan):
            assert not sums_are_exact(np.array([1.0, bad]), 10)


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
