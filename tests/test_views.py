"""UnitWeightView adapter tests."""

from __future__ import annotations

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.views import UnitWeightView


@pytest.fixture
def weighted_graph():
    g = DynamicGraph()
    g.add_edge(0, 1, 5.0)
    g.add_edge(1, 2, 0.5)
    return g


class TestUnitWeightView:
    def test_weights_are_unit(self, weighted_graph):
        view = UnitWeightView(weighted_graph)
        assert dict(view.out_items(1)) == {0: 1.0, 2: 1.0}
        assert dict(view.in_items(1)) == {0: 1.0, 2: 1.0}

    def test_topology_delegated(self, weighted_graph):
        view = UnitWeightView(weighted_graph)
        assert view.num_vertices == 3
        assert view.has_vertex(2)
        assert not view.has_vertex(9)
        assert sorted(view.vertices()) == [0, 1, 2]
        assert view.degree(1) == 2
        assert repr(view).startswith("UnitWeightView(DynamicGraph(")

    def test_live_follow(self, weighted_graph):
        view = UnitWeightView(weighted_graph)
        weighted_graph.add_edge(2, 3, 9.0)
        assert view.has_vertex(3)
        assert dict(view.out_items(3)) == {2: 1.0}

    def test_directed_in_items(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 3.0)
        view = UnitWeightView(g)
        assert view.directed
        assert dict(view.in_items(1)) == {0: 1.0}
        assert dict(view.out_items(1)) == {}
        assert view.degree(1) == 1

    def test_base_accessor(self, weighted_graph):
        assert UnitWeightView(weighted_graph).base is weighted_graph

    def test_surface_is_what_the_engine_calls(self):
        """Only the members the engine, index and maintainer call."""
        public = {name for name in dir(UnitWeightView)
                  if not name.startswith("_")}
        assert public == {"base", "directed", "num_vertices", "vertices",
                          "has_vertex", "out_items", "in_items", "degree"}
