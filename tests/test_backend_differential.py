"""Differential tests: dense serving plane vs the dict reference plane.

The dense path is a transliteration of the same pruned bidirectional
algorithm onto flat arrays, so it must be *bit-identical* to the dict
reference — same values and the same stats-visible search work
(activations, pushes, relaxations, per-kind prune counts, index answers) —
for every pruning policy, under randomized graphs, churn, and query mixes.

Most comparisons use continuous random weights, where distinct path costs
leave the heaps nothing to break ties on.  Parity does not depend on that:
both planes order their queues by ``(priority, id)`` and dense ids sort like
vertex ids, so equal priorities pop in the same order on both.
``TestTieParity`` and the hop metric (unit weights, massive ties) hold the
two planes to the same values, paths *and* stats on tie-heavy weights.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.config import SGraphConfig
from repro.core.hub_index import DensePlane
from repro.core.pruning import PruningPolicy
from repro.graph.dynamic_graph import DynamicGraph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

POLICIES = [
    PruningPolicy.NONE,
    PruningPolicy.UPPER_ONLY,
    PruningPolicy.UPPER_AND_LOWER,
]


def _weight(rng: random.Random, weights) -> float:
    """A continuous (tie-free) weight, or a draw from ``weights``."""
    if weights is None:
        return rng.uniform(0.5, 3.0)
    return float(rng.choice(weights))


def _random_graph(rng: random.Random, n: int, m: int,
                  directed: bool, weights=None) -> DynamicGraph:
    """Random graph with continuous (tie-free) weights — or weights drawn
    from the small set ``weights`` — and a few isolated vertices, so the
    dense plane's empty CSR rows are exercised too."""
    g = DynamicGraph(directed=directed)
    for v in range(n):
        g.add_vertex(v)
    added = 0
    while added < m:
        u, v = rng.randrange(n - 3), rng.randrange(n - 3)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, _weight(rng, weights))
        added += 1
    return g


def _twin_sgraphs(rng: random.Random, policy: PruningPolicy, directed: bool,
                  queries=("distance",), weights=None):
    """The same graph served twice: dict reference vs dense plane."""
    seed = rng.randrange(1 << 30)
    pair = []
    for backend in ("dict", "dense"):
        g = _random_graph(random.Random(seed), 80, 240, directed, weights)
        pair.append(SGraph(graph=g, config=SGraphConfig(
            num_hubs=6, policy=policy, queries=queries, backend=backend,
        )))
    return pair


def _stats_tuple(stats):
    return (
        stats.activations,
        stats.pushes,
        stats.relaxations,
        stats.pruned_by_upper_bound,
        stats.pruned_by_lower_bound,
        stats.answered_by_index,
    )


def _churn(rng: random.Random, sgraphs, rounds: int, weights=None) -> None:
    """Apply one identical batch of mutations to every facade."""
    verts = sorted(sgraphs[0].graph.vertices())
    for _ in range(rounds):
        u, v = rng.sample(verts, 2)
        if sgraphs[0].graph.has_edge(u, v) and rng.random() < 0.5:
            for sg in sgraphs:
                sg.remove_edge(u, v)
        else:
            w = _weight(rng, weights)
            for sg in sgraphs:
                sg.add_edge(u, v, w)


class TestFacadeParity:
    """SGraph(backend="dense") vs SGraph(backend="dict"), live queries."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("directed", [False, True])
    def test_distance_bit_identical(self, policy, directed):
        rng = random.Random(1000 + 10 * directed + POLICIES.index(policy))
        sg_dict, sg_dense = _twin_sgraphs(rng, policy, directed)
        verts = sorted(sg_dict.graph.vertices())
        for epoch_round in range(3):
            for _ in range(25):
                s, t = rng.sample(verts, 2)
                a = sg_dict.distance(s, t)
                b = sg_dense.distance(s, t)
                assert b.value == a.value  # exact, not approx
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
            _churn(rng, (sg_dict, sg_dense), rounds=6)

    def test_tolerance_queries_bit_identical(self):
        rng = random.Random(7)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=False
        )
        verts = sorted(sg_dict.graph.vertices())
        for tol in (0.0, 0.5, 2.0, math.inf):
            for _ in range(10):
                s, t = rng.sample(verts, 2)
                a = sg_dict.distance(s, t, tolerance=tol)
                b = sg_dense.distance(s, t, tolerance=tol)
                assert b.value == a.value
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)

    def test_reachable_and_within_distance_match(self):
        rng = random.Random(8)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=True
        )
        verts = sorted(sg_dict.graph.vertices())
        for _ in range(20):
            s, t = rng.sample(verts, 2)
            assert (sg_dense.reachable(s, t).value
                    == sg_dict.reachable(s, t).value)
            for budget in (1.0, 5.0, 20.0):
                a = sg_dict.within_distance(s, t, budget)
                b = sg_dense.within_distance(s, t, budget)
                assert b.value == a.value

    def test_hops_values_match(self):
        # Unit weights are tie-heavy; ties break by id on both planes, so
        # the search work is comparable too.
        rng = random.Random(9)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=False,
            queries=("distance", "hops"),
        )
        verts = sorted(sg_dict.graph.vertices())
        for _ in range(2):
            for _ in range(20):
                s, t = rng.sample(verts, 2)
                a = sg_dict.hop_distance(s, t)
                b = sg_dense.hop_distance(s, t)
                assert b.value == a.value
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
            _churn(rng, (sg_dict, sg_dense), rounds=5)

    def test_isolated_endpoints_unreachable_on_both(self):
        rng = random.Random(10)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=True
        )
        verts = sorted(sg_dict.graph.vertices())
        isolated = verts[-1]  # _random_graph never wires the last 3 vertices
        a = sg_dict.distance(verts[0], isolated)
        b = sg_dense.distance(verts[0], isolated)
        assert a.value == b.value == math.inf
        assert _stats_tuple(b.stats) == _stats_tuple(a.stats)


TIE_WEIGHTS = [(1,), (1, 1, 1, 2, 3), (1, 2, 3, 4)]


class TestTieParity:
    """Tie-heavy weights: equal priorities everywhere, same work anyway.

    Small-integer weights make most heap comparisons ties, so any
    difference in how the two planes order equal priorities shows up as
    different activation/push/prune counts (and different, equally short,
    paths).  Both order by ``(priority, id)``; nothing may differ.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weights", TIE_WEIGHTS)
    def test_distance_and_path_bit_identical(self, weights, directed, policy):
        rng = random.Random(4000 + 100 * len(weights) + 10 * directed
                            + POLICIES.index(policy))
        sg_dict, sg_dense = _twin_sgraphs(rng, policy, directed,
                                          weights=weights)
        verts = sorted(sg_dict.graph.vertices())
        for _epoch_round in range(2):
            for _ in range(20):
                s, t = rng.sample(verts, 2)
                a = sg_dict.distance(s, t)
                b = sg_dense.distance(s, t)
                assert b.value == a.value
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
                a = sg_dict.shortest_path(s, t)
                b = sg_dense.shortest_path(s, t)
                assert b.value == a.value
                assert b.path == a.path
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
            _churn(rng, (sg_dict, sg_dense), rounds=6, weights=weights)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weights", TIE_WEIGHTS)
    def test_batched_and_neighborhood_verbs_bit_identical(
        self, weights, directed
    ):
        rng = random.Random(4500 + 100 * len(weights) + directed)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed, weights=weights
        )
        verts = sorted(sg_dict.graph.vertices())
        for _ in range(15):
            s = rng.choice(verts)
            targets = rng.sample(verts, rng.randrange(1, 24))
            a = sg_dict.distance_many_result(s, targets)
            b = sg_dense.distance_many_result(s, targets)
            assert b.values == a.values
            assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
            # Equidistant vertices rank in id order on both planes.
            assert sg_dense.nearest(s, 9) == sg_dict.nearest(s, 9)
            assert sg_dense.within(s, 3.0) == sg_dict.within(s, 3.0)


class TestOneToManyParity:
    """Batched one-to-many: dense plane vs the dict reference."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("directed", [False, True])
    def test_distance_many_bit_identical(self, policy, directed):
        rng = random.Random(2000 + 10 * directed + POLICIES.index(policy))
        sg_dict, sg_dense = _twin_sgraphs(rng, policy, directed)
        verts = sorted(sg_dict.graph.vertices())
        for _epoch_round in range(3):
            for _ in range(12):
                s = rng.choice(verts)
                targets = rng.sample(verts, rng.randrange(1, 24))
                a = sg_dict.distance_many_result(s, targets)
                b = sg_dense.distance_many_result(s, targets)
                assert b.values == a.values  # exact, not approx
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
            _churn(rng, (sg_dict, sg_dense), rounds=6)

    def test_degenerate_batches_match(self):
        rng = random.Random(2100)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=True
        )
        verts = sorted(sg_dict.graph.vertices())
        s = verts[0]
        isolated = verts[-1]  # _random_graph never wires the last 3 vertices
        for targets in (
            [],                        # empty batch: answered_by_index
            [s],                       # source-only: zero distance, no search
            [s, s, verts[1], verts[1]],  # duplicates collapse identically
            [isolated],                # index proves unreachability
            [isolated, s, verts[1]],
        ):
            a = sg_dict.distance_many_result(s, targets)
            b = sg_dense.distance_many_result(s, targets)
            assert b.values == a.values
            assert _stats_tuple(b.stats) == _stats_tuple(a.stats)

    def test_many_agrees_with_singles(self):
        # The batch must return the per-target answers, both planes, bit
        # for bit: each target runs the pairwise search itself.
        rng = random.Random(2200)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=False
        )
        verts = sorted(sg_dict.graph.vertices())
        s = verts[2]
        targets = rng.sample(verts, 16)
        many = sg_dense.distance_many(s, targets)
        for t in targets:
            assert many[t] == sg_dict.distance(s, t).value


class TestNeighborhoodParity:
    """nearest/within: dense CSR expansion vs the dict-plane traversal."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_nearest_and_within_match(self, directed):
        rng = random.Random(3000 + directed)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed
        )
        verts = sorted(sg_dict.graph.vertices())
        for _epoch_round in range(2):
            for _ in range(15):
                s = rng.choice(verts)
                k = rng.randrange(1, 25)
                radius = rng.uniform(0.5, 8.0)
                # Continuous weights: orderings are tie-free, so the ranked
                # lists must agree element-for-element.
                assert sg_dense.nearest(s, k) == sg_dict.nearest(s, k)
                assert (sg_dense.within(s, radius)
                        == sg_dict.within(s, radius))
            _churn(rng, (sg_dict, sg_dense), rounds=6)

    def test_isolated_source_expands_to_nothing(self):
        # The source itself is excluded from expansion results, so an
        # isolated vertex yields an empty neighborhood on both planes.
        rng = random.Random(3100)
        sg_dict, sg_dense = _twin_sgraphs(
            rng, PruningPolicy.UPPER_AND_LOWER, directed=True
        )
        isolated = sorted(sg_dict.graph.vertices())[-1]
        for sg in (sg_dict, sg_dense):
            assert sg.nearest(isolated, 5) == []
            assert sg.within(isolated, 10.0) == []


class TestFrozenViewParity:
    """Published views (backend auto → dense) vs the dict reference."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_views_bit_identical_across_publishes(self, policy):
        rng = random.Random(20 + POLICIES.index(policy))
        sg_auto, sg_dict = [], []
        for backend in ("auto", "dict"):
            g = _random_graph(random.Random(99), 70, 200, directed=True)
            sg = SGraph(graph=g, config=SGraphConfig(
                num_hubs=5, policy=policy, queries=("distance",),
                backend=backend,
            ))
            (sg_auto if backend == "auto" else sg_dict).append(sg)
        sg_auto, sg_dict = sg_auto[0], sg_dict[0]
        store_auto = VersionedStore(sg_auto, capacity=4)
        store_dict = VersionedStore(sg_dict, capacity=4)
        verts = sorted(sg_auto.graph.vertices())
        for _publish_round in range(3):
            va = store_auto.publish()
            vd = store_dict.publish()
            assert va.epoch == vd.epoch
            for _ in range(15):
                s, t = rng.sample(verts, 2)
                a = vd.distance(s, t)
                b = va.distance(s, t)
                assert b.value == a.value
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
                assert (va.within_distance(s, t, 6.0).value
                        == vd.within_distance(s, t, 6.0).value)
            _churn(rng, (sg_auto, sg_dict), rounds=8)

    def test_view_batched_verbs_bit_identical(self):
        rng = random.Random(25)
        facades = []
        for backend in ("auto", "dict"):
            g = _random_graph(random.Random(98), 70, 200, directed=False)
            facades.append(SGraph(graph=g, config=SGraphConfig(
                num_hubs=5, policy=PruningPolicy.UPPER_AND_LOWER,
                queries=("distance",), backend=backend,
            )))
        sg_auto, sg_dict = facades
        store_auto = VersionedStore(sg_auto, capacity=4)
        store_dict = VersionedStore(sg_dict, capacity=4)
        verts = sorted(sg_auto.graph.vertices())
        for _publish_round in range(3):
            va = store_auto.publish()
            vd = store_dict.publish()
            for _ in range(10):
                s = rng.choice(verts)
                targets = rng.sample(verts, rng.randrange(1, 20))
                a = vd.distance_many_result(s, targets)
                b = va.distance_many_result(s, targets)
                assert b.values == a.values
                assert b.epoch == a.epoch == va.epoch
                assert _stats_tuple(b.stats) == _stats_tuple(a.stats)
                assert va.nearest(s, 8) == vd.nearest(s, 8)
                assert va.within(s, 5.0) == vd.within(s, 5.0)
            _churn(rng, (sg_auto, sg_dict), rounds=8)

    def test_old_view_unaffected_by_later_churn(self):
        rng = random.Random(31)
        g = _random_graph(rng, 60, 180, directed=False)
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=4, queries=("distance",), backend="auto",
        ))
        store = VersionedStore(sg, capacity=4)
        view = store.publish()
        verts = sorted(sg.graph.vertices())
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(10)]
        before = {p: view.distance(*p).value for p in pairs}
        _churn(rng, (sg,), rounds=20)
        for p in pairs:
            assert view.distance(*p).value == before[p]


class TestDerivedRowsMatchRebuild:
    """O(Δ) dense-table derivation must equal a from-scratch build."""

    def test_derived_plane_equals_fresh_plane(self):
        rng = random.Random(40)
        g = _random_graph(rng, 60, 180, directed=True)
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=5, queries=("distance",), backend="auto",
        ))
        store = VersionedStore(sg, capacity=4)
        verts = sorted(sg.graph.vertices())
        view = store.publish()
        view.distance(verts[0], verts[1])  # force the epoch-0 plane build
        for _round in range(3):
            _churn(rng, (sg,), rounds=10)
            view = store.publish()
            view.distance(verts[0], verts[1])  # derived from the prev plane
            derived = view.dense_plane("distance")
            index = sg.index_for("distance")
            fwd, bwd = index.freeze()
            fresh = DensePlane.build(view.snapshot, index.hubs, fwd, bwd)
            assert derived.tables.hubs == fresh.tables.hubs
            for pos in range(len(fresh.tables.hubs)):
                assert np.array_equal(
                    derived.tables.fwd_rows[pos], fresh.tables.fwd_rows[pos]
                )
                assert np.array_equal(
                    derived.tables.bwd_rows[pos], fresh.tables.bwd_rows[pos]
                )

    def test_skipped_publish_still_derives_correctly(self):
        # A plane derives from the family's last *built* plane, whatever
        # epoch it came from — churn twice between queries to force a
        # 2-epoch diff.
        rng = random.Random(41)
        g = _random_graph(rng, 50, 150, directed=False)
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=4, queries=("distance",), backend="auto",
        ))
        store = VersionedStore(sg, capacity=4)
        verts = sorted(sg.graph.vertices())
        store.publish().distance(verts[0], verts[1])
        _churn(rng, (sg,), rounds=8)
        store.publish()  # published but never queried: no plane built
        _churn(rng, (sg,), rounds=8)
        view = store.publish()
        view.distance(verts[0], verts[1])
        derived = view.dense_plane("distance")
        index = sg.index_for("distance")
        fwd, bwd = index.freeze()
        fresh = DensePlane.build(view.snapshot, index.hubs, fwd, bwd)
        for pos in range(len(fresh.tables.hubs)):
            assert np.array_equal(
                derived.tables.fwd_rows[pos], fresh.tables.fwd_rows[pos]
            )
