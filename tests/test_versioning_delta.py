"""Differential tests for delta-derived versions.

Under a randomized churn script, every :class:`FrozenView` published along
the way must keep answering ``distance`` / ``hop_distance`` / ``reachable``
/ ``within_distance`` exactly as a from-scratch rebuild of the graph state
at that epoch — the copy-on-write sharing between snapshots, and the
journal-derived frozen hub tables, must never leak later mutations into an
older view.  Plus unit coverage for the delta substrate itself
(:mod:`repro.graph.deltas`) and the O(Δ) bookkeeping.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.config import SGraphConfig
from repro.graph.deltas import (
    TOMBSTONE,
    LayeredMapping,
    derive_mapping,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore


# ---------------------------------------------------------------------------
# delta substrate
# ---------------------------------------------------------------------------

class TestLayeredMapping:
    def test_derive_overlays_and_tombstones(self):
        base = {1: "a", 2: "b", 3: "c"}
        derived = derive_mapping(base, {2: "B", 3: TOMBSTONE, 4: "d"},
                                 min_compact=1000)
        assert isinstance(derived, LayeredMapping)
        assert derived.base is base
        assert dict(derived) == {1: "a", 2: "B", 4: "d"}
        assert len(derived) == 3
        assert 3 not in derived
        assert derived.get(3, "gone") == "gone"
        with pytest.raises(KeyError):
            derived[3]
        # The previous version is untouched.
        assert dict(base) == {1: "a", 2: "b", 3: "c"}

    def test_lookups_across_both_layers(self):
        base = {1: "a", 2: "b", 3: "c", 5: None}
        derived = derive_mapping(base, {2: "B", 3: TOMBSTONE, 4: None},
                                 min_compact=1000)
        # an override, a stored None in either layer, and a base key
        for key, value in ((2, "B"), (4, None), (5, None), (1, "a")):
            assert derived[key] == value
            assert derived.get(key) == value
            assert derived.get(key, "default") == value
        # a deleted base key and a key neither layer holds
        for key in (3, 9):
            assert derived.get(key) is None
            assert derived.get(key, "default") == "default"
            with pytest.raises(KeyError):
                derived[key]

    def test_derive_is_chainable_without_stacking_levels(self):
        base = {i: i for i in range(100)}
        m = base
        for step in range(10):
            m = derive_mapping(m, {step: -step}, min_compact=1000)
        assert isinstance(m, LayeredMapping)
        # Still two levels deep: the base is the original dict.
        assert m.base is base
        assert m[5] == -5
        assert m[50] == 50

    def test_no_changes_returns_same_object(self):
        base = {1: "a"}
        assert derive_mapping(base, {}) is base

    def test_tombstone_then_reinsert(self):
        base = {1: "a"}
        gone = derive_mapping(base, {1: TOMBSTONE}, min_compact=1000)
        assert len(gone) == 0 and 1 not in gone
        back = derive_mapping(gone, {1: "z"}, min_compact=1000)
        assert dict(back) == {1: "z"}

    def test_compaction_returns_plain_dict(self):
        base = {i: i for i in range(20)}
        flat = derive_mapping(base, {i: -i for i in range(10)},
                              min_compact=4, compact_ratio=4)
        assert isinstance(flat, dict)
        assert flat[3] == -3 and flat[15] == 15
        assert flat is not base

    def test_equality_with_plain_dict(self):
        base = {1: 1.0, 2: 2.0}
        derived = derive_mapping(base, {2: 4.0}, min_compact=1000)
        assert derived == {1: 1.0, 2: 4.0}
        assert {1: 1.0, 2: 4.0} == derived


# ---------------------------------------------------------------------------
# copy-on-write snapshots
# ---------------------------------------------------------------------------

class TestSnapshotSharing:
    def test_unchanged_vertices_share_adjacency(self):
        g = DynamicGraph()
        for i in range(10):
            g.add_edge(i, i + 1, 1.0)
        s1 = g.snapshot()
        g.add_edge(0, 5, 2.0)
        s2 = g.snapshot()
        # Vertex 8 was untouched: both snapshots hold the same dict object.
        assert s2._out[8] is s1._out[8]
        # Vertex 0 changed: the objects differ and s1 kept the old contents.
        assert s2._out[0] is not s1._out[0]
        assert 5 not in s1._out[0] and 5 in s2._out[0]

    def test_snapshot_memoized_per_epoch(self):
        g = DynamicGraph()
        g.add_edge(0, 1, 1.0)
        s1 = g.snapshot()
        assert g.snapshot() is s1
        g.add_edge(1, 2, 1.0)
        s2 = g.snapshot()
        assert s2 is not s1
        assert g.snapshot() is s2

    def test_vertex_removal_tombstones(self):
        g = DynamicGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        s1 = g.snapshot()
        g.remove_vertex(0)
        s2 = g.snapshot()
        assert s1.has_vertex(0) and s1.has_edge(0, 1)
        assert not s2.has_vertex(0)
        assert sorted(s2.vertices()) == [1, 2, 3]
        assert s2.num_vertices == 3

    def test_live_mutation_after_snapshot_does_not_leak(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        snap = g.snapshot()
        g.add_edge(1, 3, 3.0)
        g.remove_edge(0, 1)
        assert dict(snap.out_items(1)) == {2: 2.0}
        assert dict(snap.in_items(1)) == {0: 1.0}
        assert snap.num_edges == 2


# ---------------------------------------------------------------------------
# randomized churn differential
# ---------------------------------------------------------------------------

def _churn_and_publish(directed: bool, seed: int, steps: int = 120,
                       publish_every: int = 10):
    """Run a random churn script, publishing along the way.

    Returns (store, published) where published holds
    ``(view, edge_list, vertex_list)`` captured at each publish.
    """
    rng = random.Random(seed)
    graph = erdos_renyi_graph(70, 220, seed=seed, directed=directed,
                              weight_range=(1.0, 5.0))
    config = SGraphConfig(num_hubs=4, queries=("distance", "hops"))
    sg = SGraph(graph=graph, config=config)
    sg.rebuild_indexes()
    store = VersionedStore(sg, capacity=64)
    published = []
    for step in range(steps):
        roll = rng.random()
        verts = list(sg.graph.vertices())
        if roll < 0.50:
            # Insert a fresh edge or re-weight an existing one.
            u, v = rng.choice(verts), rng.choice(verts)
            if u != v:
                sg.add_edge(u, v, rng.uniform(1.0, 5.0))
        elif roll < 0.85:
            edges = sg.graph.edge_list()
            if edges:
                s, d, _w = rng.choice(edges)
                sg.discard_edge(s, d)
        elif roll < 0.95:
            u, v = rng.choice(verts), rng.choice(verts)
            if u != v:
                sg.add_edge(u, v, rng.uniform(1.0, 5.0))
        else:
            # Occasional vertex removal; removing a hub forces a full index
            # rebuild, which must reset the freeze baseline correctly.
            victim = rng.choice(verts)
            if sg.graph.num_vertices > 10:
                sg.remove_vertex(victim)
        if step % publish_every == publish_every - 1:
            view = store.publish(label=f"step{step}")
            published.append((
                view,
                sg.graph.edge_list(),
                sorted(sg.graph.vertices()),
            ))
    return store, published, config


@pytest.mark.parametrize("directed", [False, True])
def test_views_match_from_scratch_rebuild(directed):
    _store, published, config = _churn_and_publish(directed, seed=31)
    assert len(published) >= 10
    check_rng = random.Random(99)
    for view, edges, verts in published:
        # Bit-identical structure: the shared snapshot must equal the edge
        # list recorded at publish time, untouched by later churn.
        assert sorted(view.snapshot.edge_list()) == sorted(edges)
        assert sorted(view.snapshot.vertices()) == verts

        oracle = SGraph.from_edges(edges, directed=directed, config=config)
        for v in verts:
            oracle.add_vertex(v)  # isolated vertices survive the round trip
        oracle.rebuild_indexes()
        for _ in range(12):
            s, t = check_rng.choice(verts), check_rng.choice(verts)
            expected = oracle.distance(s, t).value
            got = view.distance(s, t).value
            if math.isinf(expected):
                assert math.isinf(got), (view.label, s, t)
            else:
                assert got == pytest.approx(expected), (view.label, s, t)
            assert (view.hop_distance(s, t).value
                    == oracle.hop_distance(s, t).value), (view.label, s, t)
            assert (view.reachable(s, t).value
                    == oracle.reachable(s, t).value), (view.label, s, t)
            budget = 0.75 * expected if not math.isinf(expected) else 10.0
            assert (view.within_distance(s, t, budget).value
                    == oracle.within_distance(s, t, budget).value), (
                view.label, s, t, budget)


def test_frozen_tables_shared_when_unchanged():
    graph = erdos_renyi_graph(60, 180, seed=3, weight_range=(1.0, 4.0))
    sg = SGraph(graph=graph,
                config=SGraphConfig(num_hubs=4, queries=("distance",)))
    sg.rebuild_indexes()
    store = VersionedStore(sg, capacity=8)
    v1 = store.publish()
    # A far-away self-contained change: most hub tables see few updates, so
    # consecutive frozen tables share structure instead of being copies.
    sg.add_vertex(10_001)
    sg.add_vertex(10_002)
    sg.add_edge(10_001, 10_002, 1.0)
    v2 = store.publish()
    index = sg.index_for("distance")
    shared = 0
    for hub in index.hubs:
        t1 = v1._engines["distance"]._index.forward_tree(hub).raw_cost_table()
        t2 = v2._engines["distance"]._index.forward_tree(hub).raw_cost_table()
        if t1 is t2 or (isinstance(t2, LayeredMapping) and t2.base is t1):
            shared += 1
    assert shared == len(index.hubs)


def test_publish_tracks_last_published_epoch():
    graph = erdos_renyi_graph(40, 120, seed=5, weight_range=(1.0, 4.0))
    sg = SGraph(graph=graph,
                config=SGraphConfig(num_hubs=4, queries=("distance",)))
    sg.rebuild_indexes()
    assert sg.last_published_epoch is None
    store = VersionedStore(sg)
    store.publish()
    assert sg.last_published_epoch == sg.epoch
    before = sg.last_published_epoch
    sg.add_edge(0, 39, 2.0)
    assert sg.last_published_epoch == before
    store.publish()
    assert sg.last_published_epoch == sg.epoch
