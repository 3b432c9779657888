"""CSRGraph materialization tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dijkstra import full_sssp
from repro.core.engine import expand_from_csr
from repro.core.workspace import SearchWorkspace
from repro.errors import VertexNotFoundError
from repro.graph.generators import erdos_renyi_graph


def _distances(csr, source: int) -> dict:
    """Every vertex the CSR's forward arcs reach from ``source``, with its
    distance (``source`` itself at 0.0), by the dense expansion."""
    found = expand_from_csr(csr, source, None, None, SearchWorkspace())
    return {source: 0.0, **dict(found)}


def _row(indptr, indices, weights, dense: int) -> list:
    """One CSR row as ``[(dense neighbor, weight), ...]``, in stored order."""
    start, stop = int(indptr[dense]), int(indptr[dense + 1])
    return list(zip(indices[start:stop].tolist(), weights[start:stop].tolist()))


def _out_row(csr, dense: int) -> list:
    return _row(csr.indptr, csr.indices, csr.weights, dense)


def _in_row(csr, dense: int) -> list:
    return _row(csr.rev_indptr, csr.rev_indices, csr.rev_weights, dense)


def _out_degree(csr, dense: int) -> int:
    return int(csr.indptr[dense + 1] - csr.indptr[dense])


def _in_degree(csr, dense: int) -> int:
    return int(csr.rev_indptr[dense + 1] - csr.rev_indptr[dense])


def _in_arcs(csr, vertex: int) -> dict:
    """``vertex``'s backward arcs as ``{caller-visible tail: weight}``."""
    return {csr.vertex_id(u): w for u, w in _in_row(csr, csr.dense_id(vertex))}


class TestConstruction:
    def test_counts(self, triangle_graph):
        csr = triangle_graph.snapshot().to_csr()
        assert csr.num_vertices == 3
        # Undirected: each edge stored as two arcs.
        assert csr.num_arcs == 6
        assert len(csr) == 3

    def test_id_round_trip(self, small_powerlaw):
        csr = small_powerlaw.snapshot().to_csr()
        for v in small_powerlaw.vertices():
            assert csr.vertex_id(csr.dense_id(v)) == v

    def test_dense_id_missing_raises(self, triangle_graph):
        csr = triangle_graph.snapshot().to_csr()
        with pytest.raises(VertexNotFoundError):
            csr.dense_id(99)

    def test_arcs_match_adjacency(self, triangle_graph):
        csr = triangle_graph.snapshot().to_csr()
        for v in triangle_graph.vertices():
            expected = {
                csr.dense_id(u): w for u, w in triangle_graph.out_items(v)
            }
            got = dict(_out_row(csr, csr.dense_id(v)))
            assert got == expected

    def test_directed_reverse_arcs(self, directed_diamond):
        csr = directed_diamond.snapshot().to_csr()
        d3 = csr.dense_id(3)
        incoming = {csr.vertex_id(u) for u, _w in _in_row(csr, d3)}
        assert incoming == {1, 2}

    def test_undirected_reverse_aliases_forward(self, triangle_graph):
        csr = triangle_graph.snapshot().to_csr()
        assert csr.rev_indptr is csr.indptr

    def test_epoch_carried(self, triangle_graph):
        snap = triangle_graph.snapshot()
        assert snap.to_csr().epoch == snap.epoch

    def test_sorted_indices_within_rows(self, small_powerlaw):
        csr = small_powerlaw.snapshot().to_csr()
        for v in range(csr.num_vertices):
            row = csr.indices[csr.indptr[v]:csr.indptr[v + 1]]
            assert np.all(np.diff(row) >= 0)


class TestEdgeCases:
    def test_directed_isolated_vertex(self):
        from repro.graph.dynamic_graph import DynamicGraph

        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 1.0)
        g.add_vertex(7)  # no arcs at all
        csr = g.snapshot().to_csr()
        d7 = csr.dense_id(7)
        assert _out_degree(csr, d7) == 0
        assert _in_degree(csr, d7) == 0
        assert _out_row(csr, d7) == []
        assert _in_row(csr, d7) == []
        # Still fully addressable and reachable-from-itself only.
        assert _distances(csr, 7) == {7: 0.0}

    def test_directed_sink_and_source_vertices(self):
        from repro.graph.dynamic_graph import DynamicGraph

        g = DynamicGraph(directed=True)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        csr = g.snapshot().to_csr()
        # 2 is a sink: in-arcs only.  0 is a source: out-arcs only.
        assert _out_degree(csr, csr.dense_id(2)) == 0
        assert _in_degree(csr, csr.dense_id(2)) == 1
        assert _out_degree(csr, csr.dense_id(0)) == 1
        assert _in_degree(csr, csr.dense_id(0)) == 0
        assert _distances(csr, 2) == {2: 0.0}
        assert _distances(csr, 0) == {0: 0.0, 1: 1.0, 2: 3.0}
        assert _in_arcs(csr, 2) == dict(g.snapshot().in_items(2)) == {1: 2.0}
        assert _in_arcs(csr, 0) == {}

    def test_round_trip_after_churn(self):
        g = erdos_renyi_graph(50, 150, seed=5, directed=True,
                              weight_range=(1.0, 3.0))
        csr0 = g.snapshot().to_csr()
        # Churn edges only: the vertex set is unchanged, so the rebuilt CSR
        # may adopt the previous id space by reference.
        edges = list(g.edges())
        for s, d, _w in edges[:10]:
            g.remove_edge(s, d)
        g.add_edge(0, 49, 9.0)
        csr1 = g.snapshot().to_csr(reuse=csr0)
        assert csr1.same_id_space(csr0)
        for v in g.vertices():
            assert csr1.vertex_id(csr1.dense_id(v)) == v
        dense = [csr1.dense_id(v) for v in sorted(g.vertices())]
        assert [csr1.ids[d] for d in dense] == sorted(g.vertices())
        # Arc content reflects the churned snapshot, not the old one.
        assert dict(_out_row(csr1, csr1.dense_id(0)))[csr1.dense_id(49)] == 9.0

    def test_vertex_churn_breaks_id_space_reuse(self):
        g = erdos_renyi_graph(30, 90, seed=6, weight_range=(1.0, 3.0))
        csr0 = g.snapshot().to_csr()
        g.add_edge(999, 0, 1.0)  # new vertex: dense numbering must change
        csr1 = g.snapshot().to_csr(reuse=csr0)
        assert not csr1.same_id_space(csr0)
        assert csr1.num_vertices == csr0.num_vertices + 1
        assert csr1.vertex_id(csr1.dense_id(999)) == 999
        with pytest.raises(VertexNotFoundError):
            csr0.dense_id(999)

    def test_unit_weights_share_id_space_and_structure(self, small_powerlaw):
        csr = small_powerlaw.snapshot().to_csr()
        unit = csr.with_unit_weights()
        assert unit.same_id_space(csr)
        assert unit.indptr is csr.indptr
        assert unit.indices is csr.indices
        assert np.all(unit.weights == 1.0)
        assert csr.with_unit_weights() is unit  # memoized

    def test_empty_rows_well_formed_lists(self):
        from repro.graph.dynamic_graph import DynamicGraph

        g = DynamicGraph(directed=True)
        for v in range(4):
            g.add_vertex(v)
        g.add_edge(1, 2, 1.0)
        csr = g.snapshot().to_csr()
        indptr, indices, weights = csr.out_views
        assert len(indptr) == csr.num_vertices + 1
        assert indptr[-1] == len(indices) == len(weights) == 1
        for v in range(csr.num_vertices):
            assert indptr[v] <= indptr[v + 1]


class TestSSSP:
    """Shortest paths over the CSR's arcs: forward by the dense expansion
    against the Dijkstra baseline, backward as in-arcs against the
    snapshot."""

    def test_matches_reference_undirected(self, small_powerlaw):
        csr = small_powerlaw.snapshot().to_csr()
        source = next(iter(small_powerlaw.vertices()))
        ref, _stats = full_sssp(small_powerlaw, source)
        got = _distances(csr, source)
        assert got.keys() == ref.keys()
        for v, d in ref.items():
            assert got[v] == pytest.approx(d)

    def test_backward_on_directed(self):
        g = erdos_renyi_graph(60, 240, seed=3, directed=True,
                              weight_range=(1.0, 4.0))
        snap = g.snapshot()
        csr = snap.to_csr()
        assert csr.rev_indptr is not csr.indptr
        for v in g.vertices():
            assert _in_arcs(csr, v) == dict(snap.in_items(v))
        assert sum(len(_in_arcs(csr, v)) for v in g.vertices()) == \
            g.num_edges

    def test_unreachable_is_not_reached(self, two_components):
        csr = two_components.snapshot().to_csr()
        dist = _distances(csr, 0)
        assert 2 not in dist
        assert dist[1] == 1.0
