"""Published views replay the graph exactly as it stood at their epoch.

A :class:`VersionedStore` view is the library's time-travel surface: each
publish freezes the facade's graph and indexes, derived from the previous
version plus the change journals.  These tests record the edge set at every
publish and check that each retained view's snapshot and answers match that
record, whatever churn came after and however often the store published.
"""

from __future__ import annotations

import math

import pytest

from repro import SGraph, SGraphConfig, VersionedStore
from repro.errors import QueryError, SnapshotError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.streaming.update import EdgeUpdate
from tests.conftest import random_mutation_sequence, reference_dijkstra

BACKENDS = ("dict", "dense")


def _edge_set(graph) -> set:
    return {(s, d, w) for s, d, w in graph.edges()}


def _rebuild(edges, directed: bool) -> DynamicGraph:
    return DynamicGraph.from_edges(sorted(edges), directed=directed)


def _apply(sg, op, u, v, w) -> None:
    if op == "insert":
        sg.add_edge(u, v, w)
    else:
        sg.remove_edge(u, v)


def _assert_view_matches(view, edges, directed: bool, sources) -> None:
    assert _edge_set(view.snapshot) == edges
    reference = _rebuild(edges, directed)
    for s in sources:
        if not view.snapshot.has_vertex(s):
            continue
        truth = reference_dijkstra(reference, s)
        for t in view.snapshot.vertices():
            value = view.distance(s, t).value
            assert value == pytest.approx(truth.get(t, math.inf)), (s, t)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_every_view_replays_its_epoch(directed, backend):
    graph = erdos_renyi_graph(16, 30, seed=3, directed=directed,
                              weight_range=(1.0, 4.0))
    sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=3, backend=backend))
    store = VersionedStore(sg, capacity=64)
    recorded = {store.publish().epoch: _edge_set(sg.graph)}
    for op, u, v, w in random_mutation_sequence(graph, 40, seed=11):
        _apply(sg, op, u, v, w)
        recorded[store.publish().epoch] = _edge_set(sg.graph)
    assert store.epochs() == sorted(recorded)
    for epoch, edges in recorded.items():
        _assert_view_matches(store.view_at(epoch), edges, directed,
                             sources=[0, 5])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("interval", [1, 2, 5, 1000])
def test_publish_cadence_does_not_change_answers(interval, backend):
    """The latest view answers the same whether every earlier epoch was
    published (a long chain of derived tables and planes) or none was."""
    graph = erdos_renyi_graph(18, 36, seed=8, weight_range=(1.0, 5.0))
    sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=4, backend=backend))
    store = VersionedStore(sg, capacity=3)
    store.publish()
    for step, (op, u, v, w) in enumerate(
            random_mutation_sequence(graph, 30, seed=21), start=1):
        _apply(sg, op, u, v, w)
        if step % interval == 0:
            view = store.publish()
            view.distance(0, 1)     # materialise this epoch's engine
    final = store.publish()
    assert final.epoch == sg.epoch
    _assert_view_matches(final, _edge_set(sg.graph), False,
                         sources=sorted(sg.graph.vertices())[:6])


@pytest.mark.parametrize("backend", BACKENDS)
def test_weight_change_replayed(backend):
    sg = SGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)],
                           config=SGraphConfig(num_hubs=1, backend=backend))
    store = VersionedStore(sg, capacity=4)
    light = store.publish()
    sg.add_edge(0, 1, 9.0)
    heavy = store.publish()
    assert light.snapshot.edge_weight(0, 1) == 1.0
    assert heavy.snapshot.edge_weight(0, 1) == 9.0
    assert light.distance(0, 2).value == 2.0
    assert heavy.distance(0, 2).value == 5.0
    assert heavy.distance(0, 1).value == 6.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_vertex_removal_replayed(backend):
    sg = SGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                           config=SGraphConfig(num_hubs=2, backend=backend))
    store = VersionedStore(sg, capacity=4)
    before = store.publish()
    sg.remove_vertex(1)
    after = store.publish()
    assert before.snapshot.has_vertex(1)
    assert before.snapshot.has_edge(0, 1)
    assert before.distance(0, 3).value == 3.0
    assert not after.snapshot.has_vertex(1)
    assert after.num_edges == 1
    assert after.distance(0, 3).value == math.inf
    with pytest.raises(QueryError):
        after.distance(0, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reverse_arc_absent_from_older_view(backend):
    sg = SGraph.from_edges([(0, 1, 1.0)], directed=True,
                           config=SGraphConfig(num_hubs=1, backend=backend))
    store = VersionedStore(sg, capacity=4)
    one_way = store.publish()
    sg.add_edge(1, 0, 2.0)
    both_ways = store.publish()
    assert one_way.snapshot.directed
    assert not one_way.snapshot.has_edge(1, 0)
    assert one_way.distance(1, 0).value == math.inf
    assert both_ways.distance(1, 0).value == 2.0
    assert both_ways.distance(0, 1).value == 1.0


NOOPS = {
    "same-weight-edge": lambda sg: sg.add_edge(0, 1, 2.0),
    "existing-vertex": lambda sg: sg.add_vertex(0),
    "discard-missing-edge": lambda sg: sg.discard_edge(3, 4),
    "empty-batch": lambda sg: sg.apply([]),
}


@pytest.mark.parametrize("noop", sorted(NOOPS))
def test_noop_mutation_keeps_the_published_view(noop):
    sg = SGraph.from_edges([(0, 1, 2.0), (1, 2, 1.0)],
                           config=SGraphConfig(num_hubs=1))
    store = VersionedStore(sg, capacity=4)
    published = store.publish()
    NOOPS[noop](sg)
    assert sg.epoch == published.epoch
    assert store.publish() is published
    assert store.epochs() == [published.epoch]


def test_applied_batch_moves_the_epoch_once_per_change():
    sg = SGraph.from_edges([(0, 1, 2.0)], config=SGraphConfig(num_hubs=1))
    store = VersionedStore(sg, capacity=4)
    first = store.publish()
    applied = sg.apply([EdgeUpdate.insert(1, 2, 1.5),
                        EdgeUpdate.delete(0, 1)])
    assert applied == 2
    second = store.publish()
    assert second.epoch > first.epoch
    assert _edge_set(first.snapshot) == {(0, 1, 2.0)}
    assert _edge_set(second.snapshot) == {(1, 2, 1.5)}


def test_evicted_epoch_raises():
    sg = SGraph.from_edges([(0, 1, 1.0)], config=SGraphConfig(num_hubs=1))
    store = VersionedStore(sg, capacity=2)
    oldest = store.publish().epoch
    for i in range(2):
        sg.add_edge(i + 1, i + 2, 1.0)
        store.publish()
    assert oldest not in store.epochs()
    with pytest.raises(SnapshotError):
        store.view_at(oldest)


def test_unpublished_epoch_raises():
    sg = SGraph.from_edges([(0, 1, 1.0)], config=SGraphConfig(num_hubs=1))
    store = VersionedStore(sg, capacity=4)
    published = store.publish().epoch
    sg.add_edge(1, 2, 1.0)
    with pytest.raises(SnapshotError):
        store.view_at(sg.epoch)
    with pytest.raises(SnapshotError):
        store.view_at(published - 1)
    with pytest.raises(SnapshotError):
        store.view_at(published + 1000)
