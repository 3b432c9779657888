"""Path queries stay optimal when costs tie.

Path mode keeps tied vertices alive (strict pruning) precisely so that an
optimal path remains discoverable when many paths — or the hub witness and
a searched path — share the optimal cost.  Every other path suite draws
continuous weights, where ties never happen; here weights are small
integers or all 1, so ties are the common case and every sum is exact:
values compare with ``==``.

Values and path validity only.  Stats parity between the planes under ties
needs a total order on heap keys and is not asserted here.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.config import SGraphConfig
from repro.core.pruning import PruningPolicy
from repro.graph.dynamic_graph import DynamicGraph
from repro.sgraph import SGraph

WEIGHTS = {
    "small-int": (1.0, 1.0, 1.0, 2.0, 3.0),
    "unit": (1.0,),
}


def _tie_graph(seed: int, directed: bool, weights) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=directed)
    for v in range(60):
        g.add_vertex(v)
    added = 0
    while added < 150:
        # 57..59 stay isolated so unreachable pairs occur on every graph
        u, v = rng.randrange(57), rng.randrange(57)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, rng.choice(weights))
        added += 1
    return g


@pytest.mark.parametrize("backend", ["dict", "dense"])
@pytest.mark.parametrize("policy", list(PruningPolicy))
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_shortest_path_is_optimal_under_ties(weights, directed, policy,
                                             backend):
    rng = random.Random(f"{weights}-{directed}-{policy.value}-{backend}")
    unreachable = 0
    for seed in range(3):
        g = _tie_graph(seed, directed, WEIGHTS[weights])
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=5, policy=policy, queries=("distance",), backend=backend,
        ))
        verts = sorted(g.vertices())
        for _ in range(40):
            s, t = rng.sample(verts, 2)
            expected, _stats = dijkstra_distance(g, s, t)
            result = sg.shortest_path(s, t)
            assert result.value == sg.distance(s, t).value == expected
            if expected == math.inf:
                unreachable += 1
                assert result.path is None
                continue
            path = result.path
            assert path[0] == s and path[-1] == t
            cost = 0.0
            for u, v in zip(path, path[1:]):
                cost += g.edge_weight(u, v)
            assert cost == expected
    assert unreachable  # the "None iff unreachable" half was exercised
