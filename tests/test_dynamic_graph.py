"""DynamicGraph storage semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    EdgeNotFoundError,
    InvalidWeightError,
    VertexNotFoundError,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.snapshot import DictGraph, GraphSnapshot


class TestVertices:
    def test_add_vertex(self):
        g = DynamicGraph()
        assert g.add_vertex(1)
        assert not g.add_vertex(1)
        assert g.has_vertex(1)
        assert g.num_vertices == 1
        assert 1 in g
        assert list(g.vertices()) == [1]

    def test_remove_vertex_drops_incident_edges(self):
        g = DynamicGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_vertex(1)
        assert not g.has_vertex(1)
        assert g.num_edges == 0
        assert g.out_degree(0) == 0
        assert g.out_degree(2) == 0

    def test_remove_vertex_directed_in_edges(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        g.remove_vertex(1)
        assert g.num_edges == 0
        assert g.out_degree(0) == 0
        assert g.out_degree(2) == 0

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexNotFoundError):
            DynamicGraph().remove_vertex(3)

    def test_degree_of_missing_vertex_raises(self):
        g = DynamicGraph()
        with pytest.raises(VertexNotFoundError):
            g.degree(0)
        with pytest.raises(VertexNotFoundError):
            g.out_items(0)


class TestEdgesUndirected:
    def test_add_edge_creates_both_directions(self):
        g = DynamicGraph()
        assert g.add_edge(0, 1, 2.5)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.edge_weight(1, 0) == 2.5
        assert g.num_edges == 1

    def test_update_weight_returns_false(self):
        g = DynamicGraph()
        g.add_edge(0, 1, 1.0)
        assert not g.add_edge(0, 1, 3.0)
        assert g.edge_weight(0, 1) == 3.0
        assert g.num_edges == 1

    def test_remove_edge_symmetric(self):
        g = DynamicGraph()
        g.add_edge(0, 1)
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 0
        assert g.has_vertex(0) and g.has_vertex(1)

    def test_edges_listed_once(self):
        g = DynamicGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 1, 2.0)
        assert sorted(g.edge_list()) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_self_loop(self):
        g = DynamicGraph()
        g.add_edge(3, 3, 1.0)
        assert g.has_edge(3, 3)
        assert g.num_edges == 1
        g.remove_edge(3, 3)
        assert g.num_edges == 0

    def test_degree_counts_neighbors(self):
        g = DynamicGraph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert g.degree(0) == 2
        assert g.degree(1) == 1


class TestEdgesDirected:
    def test_arc_is_one_way(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 1.5)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_in_items_tracks_reverse(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 1.5)
        g.add_edge(2, 1, 2.5)
        assert dict(g.in_items(1)) == {0: 1.5, 2: 2.5}
        assert dict(g.out_items(1)) == {}

    def test_degree_sums_both(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert g.degree(1) == 2
        assert g.in_degree(1) == 1
        assert g.out_degree(1) == 1

    def test_antiparallel_arcs_are_distinct(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 9.0)
        assert g.num_edges == 2
        g.remove_edge(0, 1)
        assert g.has_edge(1, 0)


class TestErrors:
    def test_remove_missing_edge_raises(self):
        g = DynamicGraph()
        g.add_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)

    def test_discard_edge_is_tolerant(self):
        g = DynamicGraph()
        g.add_edge(0, 1)
        assert g.discard_edge(0, 1)
        assert not g.discard_edge(0, 1)

    def test_weight_of_missing_edge_raises(self):
        g = DynamicGraph()
        g.add_vertex(0)
        with pytest.raises(EdgeNotFoundError):
            g.edge_weight(0, 1)

    def test_weight_from_unknown_vertex_raises_vertex_error(self):
        """Same error as a snapshot's: both read through ``DictGraph``."""
        g = DynamicGraph()
        g.add_edge(0, 1)
        with pytest.raises(VertexNotFoundError):
            g.edge_weight(99, 0)
        with pytest.raises(VertexNotFoundError):
            g.snapshot().edge_weight(99, 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_weights_rejected(self, bad):
        g = DynamicGraph()
        with pytest.raises(InvalidWeightError):
            g.add_edge(0, 1, bad)


class TestEpoch:
    def test_epoch_advances_on_mutation(self):
        g = DynamicGraph()
        e0 = g.epoch
        g.add_edge(0, 1)
        assert g.epoch > e0
        e1 = g.epoch
        g.remove_edge(0, 1)
        assert g.epoch > e1

    def test_noop_add_vertex_does_not_advance(self):
        g = DynamicGraph()
        g.add_vertex(0)
        e = g.epoch
        g.add_vertex(0)
        assert g.epoch == e

    def test_failed_discard_does_not_advance(self):
        g = DynamicGraph()
        g.add_vertex(0)
        e = g.epoch
        g.discard_edge(0, 5)
        assert g.epoch == e


class TestBulk:
    def test_from_edges_mixed_arity(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2, 3.5)])
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(1, 2) == 3.5

    def test_copy_is_independent(self):
        g = DynamicGraph()
        g.add_edge(0, 1, 2.0)
        clone = g.copy()
        clone.add_edge(1, 2, 1.0)
        assert not g.has_edge(1, 2)
        assert clone.has_edge(0, 1)
        assert clone.num_edges == 2

    def test_copy_directed_reverse_adjacency(self):
        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 2.0)
        clone = g.copy()
        assert dict(clone.in_items(1)) == {0: 2.0}
        clone.remove_edge(0, 1)
        assert dict(g.in_items(1)) == {0: 2.0}

    def test_repr_mentions_shape(self):
        g = DynamicGraph()
        g.add_edge(0, 1)
        assert "|V|=2" in repr(g)
        assert "|E|=1" in repr(g)
        assert repr(g).startswith("DynamicGraph(")


class TestSharedReadSurface:
    """The live graph and its snapshots read through one implementation."""

    @pytest.mark.parametrize("name", ["out_items", "in_items", "edges",
                                      "edge_weight"])
    def test_one_function_object(self, name):
        assert getattr(DynamicGraph, name) is getattr(GraphSnapshot, name)
        assert getattr(DynamicGraph, name) is DictGraph.__dict__[name]


@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.booleans()),
        max_size=120,
    ),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_edge_count_invariant(ops, directed):
    """num_edges always equals the size of the tracked edge set, and
    undirected adjacency stays symmetric."""
    g = DynamicGraph(directed=directed)
    live = set()
    for u, v, is_insert in ops:
        key = (u, v) if directed or u <= v else (v, u)
        if is_insert:
            g.add_edge(u, v, 1.0)
            live.add(key)
        else:
            assert g.discard_edge(u, v) == (key in live)
            live.discard(key)
    assert g.num_edges == len(live)
    if not directed:
        for s, d, w in g.edges():
            assert g.has_edge(d, s)
            assert g.edge_weight(d, s) == w
