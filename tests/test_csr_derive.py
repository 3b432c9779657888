"""Deriving one epoch's CSR from another's: equal to a from-scratch build.

``GraphSnapshot.to_csr(reuse=prev)`` rebuilds only the rows whose adjacency
changed and splices the rest out of ``prev``.  The contract checked here is
that nobody downstream can tell: every array equals what
``CSRGraph.from_snapshot`` builds (values, dtypes, layout), the id space is
shared by reference whenever the vertex set is unchanged, and the chain
works in any order — across a compaction of the snapshot mapping, from a
newer CSR to an older snapshot, over skipped epochs, and from the
unit-weight variant the hops plane carries.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SGraphConfig
from repro.core.hub_index import DensePlane
from repro.graph.csr import CSRGraph
from repro.graph.deltas import LayeredMapping
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph, grid_graph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

ARRAYS = ("indptr", "indices", "weights",
          "rev_indptr", "rev_indices", "rev_weights")


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    for field in ARRAYS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.dtype == (np.float64 if "weights" in field else np.int64)
        assert a.flags.c_contiguous and a.flags.owndata, field
        assert np.array_equal(a, b), field
    assert got.ids == want.ids
    # Dense ids must sort like vertex ids: both planes break heap ties by
    # id, and their stats parity under tied weights rests on this.
    assert got.ids == sorted(got.ids)
    assert got.dense_map == want.dense_map
    assert (got.directed, got.epoch) == (want.directed, want.epoch)
    assert got.nbytes == want.nbytes
    if not got.directed:
        assert got.rev_indptr is got.indptr
        assert got.rev_indices is got.indices
        assert got.rev_weights is got.weights
    assert got.out_views == want.out_views
    assert got.in_views == want.in_views
    assert (got.in_views is got.out_views) == (not got.directed)


_FROM_SNAPSHOT = CSRGraph.from_snapshot.__func__


def oracle(snapshot) -> CSRGraph:
    """From-scratch build that the ``full_builds`` counter does not see."""
    return _FROM_SNAPSHOT(CSRGraph, snapshot)


@pytest.fixture
def full_builds(monkeypatch):
    """Epochs ``CSRGraph.from_snapshot`` (the O(V+E) build) was called for."""
    calls = []

    def counting(cls, snapshot):
        calls.append(snapshot.epoch)
        return _FROM_SNAPSHOT(cls, snapshot)

    monkeypatch.setattr(CSRGraph, "from_snapshot", classmethod(counting))
    return calls


# -- hypothesis churn ---------------------------------------------------------

VERTS = st.integers(0, 11)
WEIGHTS = st.sampled_from([0.5, 1.0, 1.25, 3.0])
OPS = st.tuples(
    st.sampled_from(["add_edge", "remove_edge", "add_vertex", "remove_vertex"]),
    VERTS, VERTS, WEIGHTS,
)
STEPS = st.lists(st.lists(OPS, max_size=6), min_size=2, max_size=7)


def _apply(graph: DynamicGraph, op) -> None:
    kind, u, v, w = op
    if kind == "add_edge":
        graph.add_edge(u, v, w)  # reweights too; u == v stores a self-loop
    elif kind == "remove_edge":
        graph.discard_edge(u, v)
    elif kind == "add_vertex":
        graph.add_vertex(u)  # may stay isolated
    elif graph.has_vertex(u):
        graph.remove_vertex(u)


@pytest.mark.parametrize("directed", [False, True])
@settings(max_examples=120, deadline=None)
@given(steps=STEPS)
def test_churn_sequences_match_from_scratch(directed, steps):
    graph = DynamicGraph(directed=directed)
    prev = None
    for ops in steps:
        for op in ops:
            _apply(graph, op)
        snapshot = graph.snapshot()
        csr = snapshot.to_csr(reuse=prev)
        assert_same_csr(csr, oracle(snapshot))
        if prev is not None and prev.ids == csr.ids:
            assert csr.ids is prev.ids and csr.same_id_space(prev)
            assert csr.dense_map is prev.dense_map
        if prev is not None and csr is not prev and csr.num_arcs:
            assert csr.out_views is not prev.out_views
        prev = csr


# -- directed cases the random walk is too small to reach ---------------------

def _directed_graph(n: int = 200, seed: int = 7) -> DynamicGraph:
    return erdos_renyi_graph(n, 3 * n, seed=seed, directed=True,
                             weight_range=(1.0, 4.0))


def _churn(graph: DynamicGraph, rng: random.Random, edits: int) -> None:
    """Edge-only churn (add / reweight / remove): the vertex set stays."""
    verts = sorted(graph.vertices())
    for _ in range(edits):
        u, v = rng.sample(verts, 2)
        if graph.has_edge(u, v) and rng.random() < 0.5:
            graph.remove_edge(u, v)  # never drops a vertex
        else:
            graph.add_edge(u, v, rng.choice([0.75, 1.5, 2.25]))


def test_chain_across_snapshot_compaction(full_builds):
    graph = _directed_graph()
    rng = random.Random(1)
    csr0 = graph.snapshot().to_csr()
    _churn(graph, rng, 3)
    snap1 = graph.snapshot()
    assert isinstance(snap1._out, LayeredMapping)
    csr1 = snap1.to_csr(reuse=csr0)
    _churn(graph, rng, 120)  # > max(64, V // 4) dirty vertices: compacts
    snap2 = graph.snapshot()
    assert type(snap2._out) is dict and type(snap2._in) is dict
    csr2 = snap2.to_csr(reuse=csr1)
    assert full_builds == [csr0.epoch]
    assert_same_csr(csr1, oracle(snap1))
    assert_same_csr(csr2, oracle(snap2))
    assert csr2.ids is csr0.ids


def test_out_of_order_and_skipped_epochs(full_builds):
    graph = _directed_graph(seed=8)
    rng = random.Random(2)
    snaps = [graph.snapshot()]
    for edits in (2, 40, 5, 90, 1):
        _churn(graph, rng, edits)
        snaps.append(graph.snapshot())
    newest = snaps[-1].to_csr()
    older = snaps[1].to_csr(reuse=newest)     # prev is newer, four epochs on
    middle = snaps[3].to_csr(reuse=older)     # forward again, skipping one
    first = snaps[0].to_csr(reuse=middle)     # back past everything
    assert full_builds == [newest.epoch]
    for csr, snap in ((older, snaps[1]), (middle, snaps[3]), (first, snaps[0])):
        assert_same_csr(csr, oracle(snap))
        assert csr.ids is newest.ids


def test_vertex_churn_falls_back_to_full_build(full_builds):
    graph = _directed_graph(60)
    csr0 = graph.snapshot().to_csr()
    graph.add_edge(0, 10_000, 1.0)
    snap1 = graph.snapshot()
    csr1 = snap1.to_csr(reuse=csr0)
    graph.remove_vertex(10_000)
    graph.add_vertex(10_001)  # same |V| as csr1, different vertex
    snap2 = graph.snapshot()
    csr2 = snap2.to_csr(reuse=csr1)
    assert full_builds == [csr0.epoch, csr1.epoch, csr2.epoch]
    assert not csr1.same_id_space(csr0) and not csr2.same_id_space(csr1)
    assert_same_csr(csr1, oracle(snap1))
    assert_same_csr(csr2, oracle(snap2))


def test_prev_adopted_from_arrays_falls_back_cleanly(full_builds):
    graph = _directed_graph(60)
    built = graph.snapshot().to_csr()
    adopted = CSRGraph.from_arrays(
        built.indptr, built.indices, built.weights, built.ids,
        directed=True, epoch=built.epoch,
        rev_indptr=built.rev_indptr, rev_indices=built.rev_indices,
        rev_weights=built.rev_weights,
    )
    _churn(graph, random.Random(3), 4)
    snapshot = graph.snapshot()
    csr = snapshot.to_csr(reuse=adopted)
    assert full_builds == [built.epoch, csr.epoch]
    assert_same_csr(csr, oracle(snapshot))


def test_unit_variant_derives_from_weighted_parent():
    graph = _directed_graph(80)
    rng = random.Random(4)
    unit = graph.snapshot().to_csr().with_unit_weights()
    for _ in range(3):
        _churn(graph, rng, 6)
        snapshot = graph.snapshot()
        csr = snapshot.to_csr(reuse=unit)
        assert_same_csr(csr, oracle(snapshot))
        assert csr.weights.max() > 1.0
        unit = csr.with_unit_weights()
        assert csr.with_unit_weights() is unit
        assert unit.indptr is csr.indptr and unit.indices is csr.indices
        assert unit.same_id_space(csr)
        assert unit.weights.dtype == np.float64
        assert unit.weights.flags.c_contiguous
        assert np.all(unit.weights == 1.0) and np.all(unit.rev_weights == 1.0)


@pytest.mark.parametrize("queries", [("hops",), ("distance", "hops")])
@pytest.mark.parametrize("live", [False, True])
def test_serving_planes_chain_without_full_builds(queries, live, full_builds):
    """Three publishes through the real call sites: the store's per-family
    plane chain and the live facade's, which are one chain."""
    graph = _directed_graph(90, seed=9)
    sg = SGraph(graph=graph, config=SGraphConfig(
        num_hubs=4, queries=queries, backend="dense"))
    sg.rebuild_indexes()
    store = VersionedStore(sg)
    rng = random.Random(5)
    first_epoch = None
    for _ in range(3):
        verts = sorted(graph.vertices())
        for _e in range(5):
            u, v = rng.sample(verts, 2)
            sg.add_edge(u, v, rng.choice([0.75, 1.5, 2.25]))
        if live:
            sg.hop_distance(verts[0], verts[1])
            snapshot = sg.snapshot()
            planes = {f: sg._planes[f] for f in queries if f in sg._planes}
        else:
            view = store.publish()
            snapshot = view.snapshot
            planes = {f: view.dense_plane(f) for f in queries}
        if first_epoch is None:
            first_epoch = snapshot.epoch
        want = oracle(snapshot)
        assert_same_csr(snapshot.to_csr(), want)
        assert planes["hops"].csr is snapshot.to_csr().with_unit_weights()
        assert np.array_equal(planes["hops"].csr.indices, want.indices)
        assert np.all(planes["hops"].csr.weights == 1.0)
        if "distance" in planes:
            assert planes["distance"].csr is snapshot.to_csr()
    assert full_builds == [first_epoch]


def test_live_facade_and_views_build_one_plane_per_epoch(monkeypatch):
    """The live facade and a view of the same epoch are served by one
    plane, built once; the next epoch's plane derives from it, whichever
    side asks first."""
    build = DensePlane.build.__func__
    built = []  # (plane, derived from a previous plane)

    def counting(cls, *args, **kwargs):
        plane = build(cls, *args, **kwargs)
        built.append((plane, kwargs.get("prev") is not None))
        return plane

    monkeypatch.setattr(DensePlane, "build", classmethod(counting))
    sg = SGraph(graph=grid_graph(16, 16, seed=3), config=SGraphConfig(
        num_hubs=4, backend="dense"))
    store = VersionedStore(sg)
    s, t = 0, 255
    live = sg.distance(s, t)
    view = store.publish()
    assert view.distance(s, t).value == live.value
    assert len(built) == 1
    assert view.dense_plane("distance") is built[0][0]
    sg.add_edge(s, 17, 0.5)
    view = store.publish()
    assert view.distance(s, t).value == sg.distance(s, t).value
    assert [derived for _plane, derived in built] == [False, True]
    assert view.dense_plane("distance") is built[1][0]
