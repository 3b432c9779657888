"""Every pruning policy answers exactly, on both serving planes.

The policy only decides how much of the graph a query may skip: ``none``
searches plainly, ``upper-only`` cuts with hub upper bounds, and
``upper+lower`` also answers from the index when the bounds meet and prunes
with lower bounds.  Each must return Dijkstra's value on graphs of every
regime the hub placement distinguishes (small-diameter power-law, large-
diameter grid, sparse directed), on the dict and the dense plane alike.
"""

from __future__ import annotations

import math

import pytest

from repro import SGraph, SGraphConfig
from repro.core.hub_selection import STRATEGIES
from repro.core.pruning import PruningPolicy
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph, grid_graph, power_law_graph
from tests.conftest import reference_dijkstra

BACKENDS = ("dict", "dense")

GRAPHS = {
    "power-law": lambda: power_law_graph(150, 3, seed=4, weight_range=(1.0, 4.0)),
    "grid": lambda: grid_graph(12, 12, seed=2, weight_range=(1.0, 3.0)),
    "directed": lambda: erdos_renyi_graph(60, 180, seed=9, directed=True,
                                          weight_range=(1.0, 4.0)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", [p.value for p in PruningPolicy])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_policy_matches_dijkstra(graph_name, policy, backend):
    graph = GRAPHS[graph_name]()
    sg = SGraph(graph=graph, config=SGraphConfig(
        num_hubs=6, policy=policy, backend=backend))
    assert sg.serving_backend() == backend
    verts = sorted(graph.vertices())
    for s in verts[::len(verts) // 4]:
        truth = reference_dijkstra(graph, s)
        for t in verts[::3]:
            value = sg.distance(s, t).value
            assert value == pytest.approx(truth.get(t, math.inf)), (s, t)


def _line_graph() -> DynamicGraph:
    g = DynamicGraph()
    for i in range(4):
        g.add_edge(i, i + 1, 1.0)
    return g


@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_bounds_answer_from_the_index(backend):
    """A pair with a hub endpoint has lb == ub, so upper+lower returns it
    with no search on either plane; a pair merely straddling the hub does
    not, and upper-only never answers a finite pair from the index."""
    sg = SGraph(graph=_line_graph(), config=SGraphConfig(
        num_hubs=1, hub_strategy="degree", backend=backend))
    hub = sg.index_for("distance").hubs[0]
    assert 0 < hub < 4
    result = sg.distance(hub, 4)
    assert result.value == 4.0 - hub
    assert result.stats.answered_by_index
    assert result.stats.activations == 0
    straddling = sg.distance(0, 4)
    assert straddling.value == 4.0
    assert not straddling.stats.answered_by_index

    upper_only = SGraph(graph=_line_graph(), config=SGraphConfig(
        num_hubs=1, hub_strategy="degree", policy="upper-only",
        backend=backend))
    result = upper_only.distance(hub, 4)
    assert result.value == 4.0 - hub
    assert not result.stats.answered_by_index


@pytest.mark.parametrize("backend", BACKENDS)
def test_unreachable_proof_answers_from_the_index(backend):
    sg = SGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
                           config=SGraphConfig(num_hubs=2, hub_strategy="degree",
                                               backend=backend))
    assert set(sg.index_for("distance").hubs) == {1, 4}
    result = sg.distance(0, 5)
    assert result.value == math.inf
    assert result.stats.answered_by_index
    assert result.stats.activations == 0


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_hub_budget_clamped_to_graph(strategy):
    """A budget larger than the graph places every vertex once and still
    answers exactly."""
    graph = power_law_graph(20, 2, seed=5, weight_range=(1.0, 3.0))
    sg = SGraph(graph=graph, config=SGraphConfig(
        num_hubs=10_000, hub_strategy=strategy))
    hubs = sg.index_for("distance").hubs
    assert sorted(hubs) == sorted(graph.vertices())
    truth = reference_dijkstra(graph, 0)
    for t in graph.vertices():
        assert sg.distance(0, t).value == pytest.approx(truth[t])
