"""Repeat queries on the live facade, which keeps no answer cache.

Every value verb runs the engine on each call and reflects the facade's
current epoch, so a repeated query is re-searched and a mutation is
visible to the very next query.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.config import SGraphConfig
from repro.graph.generators import power_law_graph
from repro.sgraph import SGraph


@pytest.fixture
def sg():
    graph = power_law_graph(300, 3, seed=7, weight_range=(1.0, 4.0))
    return SGraph(graph=graph, config=SGraphConfig(num_hubs=4))


def _pair(sg):
    verts = sorted(sg.graph.vertices())
    return verts[0], verts[100]


def test_cache_size_is_not_a_config_field():
    with pytest.raises(TypeError):
        SGraphConfig(cache_size=32)  # type: ignore[call-arg]
    assert not hasattr(SGraph.from_edges([(0, 1, 1.0)]), "cache")


def test_repeat_query_searches_again(sg):
    s, t = _pair(sg)
    first = sg.distance(s, t)
    second = sg.distance(s, t)
    assert second.value == first.value
    assert second is not first
    assert second.stats is not first.stats
    assert second.epoch == first.epoch == sg.epoch
    assert second.stats.elapsed > 0.0


def test_mutation_is_visible_to_the_next_query(sg):
    s, t = _pair(sg)
    before = sg.distance(s, t)
    sg.add_edge(s, t, 0.5)
    after = sg.distance(s, t)
    assert after.value == 0.5
    assert after.epoch > before.epoch


def test_tolerance_variants_answer_independently(sg):
    s, t = _pair(sg)
    exact = sg.distance(s, t).value
    approx = sg.distance(s, t, tolerance=1.0).value
    assert exact <= approx <= 2.0 * exact
    assert sg.distance(s, t).value == exact
    assert sg.distance(s, t, tolerance=1.0).value == approx


def test_repeat_queries_correct_under_churn(sg):
    rng = random.Random(11)
    verts = sorted(sg.graph.vertices())
    pairs = [tuple(rng.sample(verts, 2)) for _ in range(6)]
    for _round in range(8):
        u, v = rng.sample(verts, 2)
        if sg.graph.has_edge(u, v) and rng.random() < 0.5:
            sg.remove_edge(u, v)
        else:
            sg.add_edge(u, v, rng.uniform(1.0, 4.0))
        for s, t in pairs:
            ref, _stats = dijkstra_distance(sg.graph, s, t)
            assert sg.distance(s, t).value == pytest.approx(ref)
            assert sg.distance(s, t).value == pytest.approx(ref)
