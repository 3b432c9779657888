"""HubIndex build correctness and incremental maintenance tests."""

from __future__ import annotations

import math

import pytest

from repro.core.hub_index import HubIndex
from repro.core.semiring import BOTTLENECK_CAPACITY
from repro.errors import ConfigError, IndexStateError
from tests.conftest import (
    apply_and_notify,
    reference_dijkstra,
    reference_widest,
)


class TestBuild:
    def test_costs_match_dijkstra(self, small_powerlaw):
        index = HubIndex.build(small_powerlaw, 4)
        for hub in index.hubs:
            ref = reference_dijkstra(small_powerlaw, hub)
            for v in small_powerlaw.vertices():
                assert index.cost_from_hub(hub, v) == pytest.approx(
                    ref.get(v, math.inf)
                )

    def test_directed_backward_costs(self, directed_diamond):
        index = HubIndex(directed_diamond, [3])
        # cost to hub 3: from 0 it is min(1+1, 2+2) = 2.
        assert index.cost_to_hub(3, 0) == 2.0
        assert index.cost_to_hub(3, 1) == 1.0
        # forward from 3: nothing is reachable.
        assert index.cost_from_hub(3, 0) == math.inf

    def test_undirected_backward_aliases_forward(self, small_powerlaw):
        index = HubIndex.build(small_powerlaw, 2)
        hub = index.hubs[0]
        assert index.forward_tree(hub) is index.backward_tree(hub)

    def test_capacity_semiring(self, triangle_graph):
        index = HubIndex(triangle_graph, [0], semiring=BOTTLENECK_CAPACITY)
        ref = reference_widest(triangle_graph, 0)
        for v in triangle_graph.vertices():
            assert index.cost_from_hub(0, v) == ref[v]

    def test_validation(self, triangle_graph):
        with pytest.raises(ConfigError):
            HubIndex(triangle_graph, [])
        with pytest.raises(ConfigError):
            HubIndex(triangle_graph, [0, 0])
        with pytest.raises(IndexStateError):
            HubIndex(triangle_graph, [99])
        with pytest.raises(IndexStateError):
            HubIndex(triangle_graph, [0]).cost_from_hub(1, 0)

    def test_build_selects_requested_count(self, small_powerlaw):
        index = HubIndex.build(small_powerlaw, 7, strategy="random", seed=1)
        assert index.num_hubs == 7
        assert "k=7" in repr(index)


class TestMaintenance:
    def _assert_fresh(self, index, graph):
        for hub in index.hubs:
            ref = reference_dijkstra(graph, hub)
            for v in graph.vertices():
                assert index.cost_from_hub(hub, v) == pytest.approx(
                    ref.get(v, math.inf)
                ), f"hub {hub}, vertex {v}"

    def test_insert_improves(self, line_graph):
        index = HubIndex(line_graph, [0])
        assert index.cost_from_hub(0, 4) == 4.0
        line_graph.add_edge(0, 4, 1.5)
        index.notify_edge_inserted(0, 4, 1.5)
        assert index.cost_from_hub(0, 4) == 1.5
        self._assert_fresh(index, line_graph)

    def test_delete_worsens(self, line_graph):
        line_graph.add_edge(0, 4, 1.5)
        index = HubIndex(line_graph, [0])
        line_graph.remove_edge(0, 4)
        index.notify_edge_deleted(0, 4, 1.5)
        assert index.cost_from_hub(0, 4) == 4.0
        self._assert_fresh(index, line_graph)

    def test_delete_disconnects(self, line_graph):
        index = HubIndex(line_graph, [0])
        line_graph.remove_edge(2, 3)
        index.notify_edge_deleted(2, 3, 1.0)
        assert index.cost_from_hub(0, 3) == math.inf
        assert index.cost_from_hub(0, 4) == math.inf
        assert index.cost_from_hub(0, 2) == 2.0

    def test_delete_with_alternative_path(self, triangle_graph):
        index = HubIndex(triangle_graph, [0])
        assert index.cost_from_hub(0, 2) == 3.0  # via 1
        triangle_graph.remove_edge(1, 2)
        index.notify_edge_deleted(1, 2, 2.0)
        assert index.cost_from_hub(0, 2) == 4.0  # direct edge
        self._assert_fresh(index, triangle_graph)

    def test_directed_maintenance_both_directions(self, directed_diamond):
        index = HubIndex(directed_diamond, [3])
        directed_diamond.remove_edge(1, 3)
        index.notify_edge_deleted(1, 3, 1.0)
        assert index.cost_to_hub(3, 0) == 4.0  # only 0→2→3 remains
        directed_diamond.add_edge(0, 3, 0.5)
        index.notify_edge_inserted(0, 3, 0.5)
        assert index.cost_to_hub(3, 0) == 0.5

    def test_capacity_deletion_goes_lazy(self, triangle_graph):
        index = HubIndex(triangle_graph, [0], semiring=BOTTLENECK_CAPACITY)
        triangle_graph.remove_edge(1, 2)
        index.notify_edge_deleted(1, 2, 2.0)
        assert index.forward_tree(0).dirty
        # Reads must transparently rebuild.
        ref = reference_widest(triangle_graph, 0)
        assert index.cost_from_hub(0, 2) == ref[2]
        assert not index.forward_tree(0).dirty

    def test_settled_accounting(self, line_graph):
        index = HubIndex(line_graph, [0])
        line_graph.add_edge(3, 0, 0.5)
        index.notify_edge_inserted(3, 0, 0.5)
        assert index.settled_last_update > 0

    def test_refresh_when_clean_keeps_tables_fresh(self, small_powerlaw):
        index = HubIndex.build(small_powerlaw, 3)
        index.refresh()  # no-op when clean
        self._assert_fresh(index, small_powerlaw)

    def test_batch_repair_settles_far_fewer_than_a_rebuild(self):
        """Each 10-update batch of sliding-window churn repairs the hub
        trees settling under a tenth of the vertices a from-scratch build
        settles, and leaves every table equal to Dijkstra."""
        from repro.graph.datasets import load_dataset
        from repro.streaming.update import batched
        from repro.streaming.workload import sliding_window_stream

        graph = load_dataset("social-pl")
        index = HubIndex.build(graph, 16)
        for batch in batched(sliding_window_stream(graph, 50, seed=9), 10):
            repaired = 0
            for update in batch:
                apply_and_notify(graph, update, index)
                repaired += index.settled_last_update
            rebuild = sum(
                1 for hub in index.hubs for v in graph.vertices()
                if index.cost_from_hub(hub, v) < math.inf
            )
            assert 0 < repaired < rebuild / 10
        self._assert_fresh(index, graph)


class TestAccounting:
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_size_entries_undirected(self, small_powerlaw, k):
        index = HubIndex.build(small_powerlaw, k)
        # Connected graph: every vertex reachable from every hub.
        assert index.size_entries() == k * small_powerlaw.num_vertices

    def test_size_entries_directed_counts_both(self, directed_diamond):
        index = HubIndex(directed_diamond, [0])
        # forward from 0 reaches all 4; backward to 0 reaches only 0.
        assert index.size_entries() == 4 + 1

    def test_size_bytes_positive(self, small_powerlaw):
        index = HubIndex.build(small_powerlaw, 2)
        assert index.size_bytes() > index.size_entries() * 8
