"""Streaming layer: updates, batching, facade ingestion, workload generators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SGraphConfig
from repro.errors import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.sgraph import SGraph
from repro.streaming.update import EdgeUpdate, UpdateBatch, UpdateKind, batched
from repro.streaming.workload import (
    insert_only_stream,
    mixed_stream,
    sliding_window_stream,
)
from tests.conftest import reference_dijkstra


class TestUpdateTypes:
    def test_insert_factory(self):
        u = EdgeUpdate.insert(1, 2, 3.5)
        assert u.kind is UpdateKind.INSERT
        assert (u.src, u.dst, u.weight) == (1, 2, 3.5)
        assert "+" in repr(u)

    def test_delete_factory(self):
        u = EdgeUpdate.delete(1, 2)
        assert u.kind is UpdateKind.DELETE
        assert "-" in repr(u)

    def test_batch_counts(self):
        batch = UpdateBatch([
            EdgeUpdate.insert(0, 1), EdgeUpdate.delete(0, 1),
            EdgeUpdate.insert(1, 2),
        ])
        assert len(batch) == 3
        assert batch.num_inserts == 2
        assert batch.num_deletes == 1
        assert batch[0].kind is UpdateKind.INSERT

    def test_empty_batch_raises(self):
        with pytest.raises(WorkloadError):
            UpdateBatch([])

    def test_batched_splits(self):
        updates = [EdgeUpdate.insert(i, i + 1) for i in range(7)]
        batches = list(batched(iter(updates), 3))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_batched_invalid_size(self):
        with pytest.raises(WorkloadError):
            list(batched(iter([]), 0))


def _hub_tables_exact(index, graph):
    for hub in index.hubs:
        ref = reference_dijkstra(graph, hub)
        for v in graph.vertices():
            assert index.cost_from_hub(hub, v) == pytest.approx(
                ref.get(v, math.inf)
            )


def _apply_checked(graph, update):
    """Apply one update, asserting it changes the graph."""
    if update.kind is UpdateKind.INSERT:
        assert not graph.has_edge(update.src, update.dst)
        graph.add_edge(update.src, update.dst, update.weight)
    else:
        assert graph.has_edge(update.src, update.dst)
        graph.remove_edge(update.src, update.dst)


class TestFacadeApply:
    """``SGraph.apply`` mutates the graph first and notifies its indexes
    second."""

    def test_insert_and_delete(self, line_graph):
        sg = SGraph(graph=line_graph, config=SGraphConfig(num_hubs=1))
        assert sg.apply([
            EdgeUpdate.insert(0, 4, 2.0),
            EdgeUpdate.delete(1, 2),
        ]) == 2
        assert line_graph.has_edge(0, 4)
        assert not line_graph.has_edge(1, 2)

    def test_redundant_updates_tolerated(self, line_graph):
        sg = SGraph(graph=line_graph, config=SGraphConfig(num_hubs=1))
        edges = sorted(line_graph.edge_list())
        epoch = sg.epoch
        sg.apply([
            EdgeUpdate.insert(0, 1, 1.0),  # identical edge exists
            EdgeUpdate.delete(0, 4),       # missing edge
        ])
        assert sorted(line_graph.edge_list()) == edges
        assert sg.epoch == epoch

    @pytest.mark.parametrize("fixture", ["small_powerlaw", "small_directed"])
    def test_weight_changes_keep_tables_exact(self, fixture, request):
        """A weight change is a delete and a re-insert: a decrease folded
        into the deletion repair would stop at the repaired region."""
        graph = request.getfixturevalue(fixture)
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=3))
        index = sg.index_for("distance")
        src, dst, weight = sorted(graph.edges())[0]
        sg.apply([EdgeUpdate.insert(src, dst, weight / 4)])
        _hub_tables_exact(index, graph)
        sg.apply([EdgeUpdate.insert(src, dst, weight * 4)])
        _hub_tables_exact(index, graph)

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_index_stays_consistent_through_stream(self, seed):
        graph = erdos_renyi_graph(20, 30, seed=seed, weight_range=(1.0, 5.0))
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=3))
        index = sg.index_for("distance")
        sg.apply(list(mixed_stream(graph, 40, insert_fraction=0.6,
                                   seed=seed)))
        _hub_tables_exact(index, graph)


class TestWorkloadGenerators:
    def test_insert_only_yields_fresh_edges(self, small_powerlaw):
        updates = list(insert_only_stream(small_powerlaw, 50, seed=1))
        assert len(updates) == 50
        assert all(u.kind is UpdateKind.INSERT for u in updates)
        seen = {(min(u.src, u.dst), max(u.src, u.dst)) for u in updates}
        assert len(seen) == 50  # no duplicate inserts
        for u in updates:
            assert not small_powerlaw.has_edge(u.src, u.dst)

    def test_insert_only_deterministic(self, small_powerlaw):
        a = list(insert_only_stream(small_powerlaw, 20, seed=1))
        b = list(insert_only_stream(small_powerlaw, 20, seed=1))
        assert a == b

    def test_insert_only_saturation_raises(self, triangle_graph):
        with pytest.raises(WorkloadError):
            list(insert_only_stream(triangle_graph, 10, seed=1))

    def test_sliding_window_preserves_edge_count(self, small_powerlaw):
        graph = small_powerlaw
        before = graph.num_edges
        for update in sliding_window_stream(graph, 40, seed=2):
            _apply_checked(graph, update)
        assert graph.num_edges == before  # 20 inserts, 20 deletes

    def test_sliding_window_alternates(self, small_powerlaw):
        updates = list(sliding_window_stream(small_powerlaw, 10, seed=3))
        kinds = [u.kind for u in updates]
        assert kinds[::2] == [UpdateKind.INSERT] * 5
        assert kinds[1::2] == [UpdateKind.DELETE] * 5

    def test_mixed_ratio_roughly_respected(self, small_powerlaw):
        updates = list(mixed_stream(small_powerlaw, 200, insert_fraction=0.75,
                                    seed=4))
        inserts = sum(1 for u in updates if u.kind is UpdateKind.INSERT)
        assert 120 <= inserts <= 180

    def test_mixed_never_redundant(self, small_powerlaw):
        graph = small_powerlaw
        for update in mixed_stream(graph, 150, 0.5, seed=5):
            _apply_checked(graph, update)

    def test_mixed_invalid_fraction(self, small_powerlaw):
        with pytest.raises(WorkloadError):
            list(mixed_stream(small_powerlaw, 5, insert_fraction=1.5))

    def test_streams_need_two_vertices(self):
        g = DynamicGraph()
        g.add_vertex(0)
        with pytest.raises(WorkloadError):
            list(insert_only_stream(g, 1))
        with pytest.raises(WorkloadError):
            list(sliding_window_stream(g, 1))
        with pytest.raises(WorkloadError):
            list(mixed_stream(g, 1))


class TestQueryStream:
    def test_count_and_validity(self, small_powerlaw):
        from repro.streaming.workload import query_stream

        pairs = query_stream(small_powerlaw, 30, skew=1.0, seed=1)
        assert len(pairs) == 30
        assert all(s != t for s, t in pairs)
        assert all(small_powerlaw.has_vertex(s) and small_powerlaw.has_vertex(t)
                   for s, t in pairs)

    def test_deterministic(self, small_powerlaw):
        from repro.streaming.workload import query_stream

        assert query_stream(small_powerlaw, 10, seed=2) == query_stream(
            small_powerlaw, 10, seed=2
        )

    def test_skew_concentrates_on_hubs(self, small_powerlaw):
        from repro.streaming.workload import query_stream

        top = set(sorted(small_powerlaw.vertices(),
                         key=small_powerlaw.degree)[-10:])

        def hub_hits(skew):
            pairs = query_stream(small_powerlaw, 200, skew=skew, seed=3)
            return sum(1 for s, t in pairs if s in top or t in top)

        assert hub_hits(2.0) > 2 * hub_hits(0.0)

    def test_validation(self, small_powerlaw):
        from repro.errors import WorkloadError
        from repro.streaming.workload import query_stream

        with pytest.raises(WorkloadError):
            query_stream(small_powerlaw, -1)
        with pytest.raises(WorkloadError):
            query_stream(small_powerlaw, 5, skew=-0.5)

