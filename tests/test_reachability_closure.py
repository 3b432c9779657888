"""Reachability answers checked against networkx's transitive closure.

Every pair of a graph is asked through the facade on both serving planes
(``backend="dict"`` and ``backend="dense"``), and the yes/no answer, the
finiteness of the distance and of the hop count must all agree with
``networkx.descendants``.  The shapes cover the cases a condensation-based
oracle would special-case: cycles feeding a tail, DAG chains, two strongly
connected pieces joined one way, and undirected components.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro import SGraph, SGraphConfig, VersionedStore
from repro.errors import QueryError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph, rmat_graph

BACKENDS = ("dict", "dense")


def _config(backend: str, num_hubs: int = 4) -> SGraphConfig:
    return SGraphConfig(num_hubs=num_hubs, backend=backend,
                        queries=("distance", "hops"))


def _to_networkx(graph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(graph.vertices())
    for s, d, _w in graph.edges():
        nxg.add_edge(s, d)
        if not graph.directed:
            nxg.add_edge(d, s)
    return nxg


def _assert_closure(sg, graph, sources=None) -> None:
    nxg = _to_networkx(graph)
    verts = sorted(graph.vertices())
    for s in (verts if sources is None else sources):
        expected = nx.descendants(nxg, s) | {s}
        for t in verts:
            want = t in expected
            assert bool(sg.reachable(s, t).value) is want, (s, t)
            assert math.isfinite(sg.distance(s, t).value) is want, (s, t)
            assert math.isfinite(sg.hop_distance(s, t).value) is want, (s, t)


def _cycle_with_tail() -> DynamicGraph:
    g = DynamicGraph(directed=True)
    for s, d in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]:
        g.add_edge(s, d, 1.0)
    return g


def _dag_chain() -> DynamicGraph:
    g = DynamicGraph(directed=True)
    for i in range(6):
        g.add_edge(i, i + 1, float(i + 1))
    g.add_edge(0, 3, 2.5)
    return g


def _mutual_pair_with_tail() -> DynamicGraph:
    g = DynamicGraph(directed=True)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 0, 1.0)
    g.add_edge(1, 2, 3.0)
    return g


def _bridged_cycles() -> DynamicGraph:
    """Two 3-cycles joined by a single one-way arc 2 → 3."""
    g = DynamicGraph(directed=True)
    for s, d in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]:
        g.add_edge(s, d, 2.0)
    return g


def _undirected_components() -> DynamicGraph:
    g = DynamicGraph()
    for s, d in [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]:
        g.add_edge(s, d, 1.5)
    g.add_vertex(8)
    return g


SHAPES = {
    "cycle-with-tail": _cycle_with_tail,
    "dag-chain": _dag_chain,
    "mutual-pair-with-tail": _mutual_pair_with_tail,
    "bridged-cycles": _bridged_cycles,
    "undirected-components": _undirected_components,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_closure_matches_networkx(shape, backend):
    graph = SHAPES[shape]()
    sg = SGraph(graph=graph, config=_config(backend, num_hubs=2))
    _assert_closure(sg, graph)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 7, 42, 1234])
def test_random_directed_closure(seed, backend):
    graph = erdos_renyi_graph(20, 50, seed=seed, directed=True,
                              weight_range=(1.0, 4.0))
    sg = SGraph(graph=graph, config=_config(backend))
    _assert_closure(sg, graph, sources=sorted(graph.vertices())[:8])


@pytest.mark.parametrize("backend", BACKENDS)
def test_rmat_closure(backend):
    graph = rmat_graph(scale=6, edge_factor=2, seed=5, directed=True,
                       weight_range=(1.0, 3.0))
    sg = SGraph(graph=graph, config=_config(backend))
    _assert_closure(sg, graph, sources=sorted(graph.vertices())[:6])


@pytest.mark.parametrize("backend", BACKENDS)
def test_long_directed_chain(backend):
    """A 3 000-arc chain is reachable one way only, at its full length."""
    n = 3000
    sg = SGraph.from_edges([(i, i + 1, 1.0) for i in range(n)],
                           directed=True, config=_config(backend))
    assert sg.reachable(0, n).value == 1.0
    assert sg.reachable(n, 0).value == 0.0
    assert sg.distance(0, n).value == float(n)
    assert sg.hop_distance(0, n).value == n
    assert sg.distance(n, 0).value == math.inf


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_vertex_raises(backend):
    sg = SGraph(graph=_cycle_with_tail(), config=_config(backend))
    with pytest.raises(QueryError):
        sg.reachable(0, 99)
    with pytest.raises(QueryError):
        sg.reachable(99, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_breaking_a_cycle_flips_reachability(backend):
    """Deleting the closing arc of a cycle cuts the way back; a view
    published before the cut keeps answering from the old closure."""
    graph = _bridged_cycles()
    sg = SGraph(graph=graph, config=_config(backend, num_hubs=2))
    store = VersionedStore(sg, capacity=2)
    before = store.publish()
    assert sg.reachable(2, 1).value == 1.0

    sg.remove_edge(2, 0)
    assert sg.reachable(2, 1).value == 0.0
    assert sg.reachable(0, 5).value == 1.0
    _assert_closure(sg, sg.graph)

    assert before.reachable(2, 1).value == 1.0
    _assert_closure(before, before.snapshot)


@pytest.mark.parametrize("backend", BACKENDS)
def test_joining_components_makes_them_reachable(backend):
    graph = _undirected_components()
    sg = SGraph(graph=graph, config=_config(backend, num_hubs=2))
    assert sg.reachable(0, 4).value == 0.0
    sg.add_edge(2, 3, 1.0)
    assert sg.reachable(0, 4).value == 1.0
    assert sg.distance(0, 4).value == 1.5 + 1.5 + 1.0 + 1.5
    _assert_closure(sg, sg.graph)
