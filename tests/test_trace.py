"""Trace record/replay tests."""

from __future__ import annotations

import pytest

from repro.streaming.trace import (
    TraceEvent,
    interleave,
    read_trace,
    replay_trace,
    write_trace,
)
from repro.core.config import SGraphConfig
from repro.core.pairwise import QueryKind
from repro.errors import WorkloadError
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.sgraph import SGraph
from repro.streaming.update import EdgeUpdate
from repro.streaming.workload import sliding_window_stream


class TestEvents:
    def test_exactly_one_payload(self):
        with pytest.raises(WorkloadError):
            TraceEvent()
        with pytest.raises(WorkloadError):
            TraceEvent(update=EdgeUpdate.insert(0, 1),
                       query=(QueryKind.DISTANCE, 0, 1))

    def test_factories(self):
        assert TraceEvent.of_update(EdgeUpdate.delete(0, 1)).is_query is False
        assert TraceEvent.of_query(QueryKind.HOPS, 0, 1).is_query


class TestSerialization:
    def test_round_trip(self, tmp_path):
        events = [
            TraceEvent.of_update(EdgeUpdate.insert(1, 2, 3.25)),
            TraceEvent.of_query(QueryKind.DISTANCE, 1, 2),
            TraceEvent.of_update(EdgeUpdate.delete(1, 2)),
            TraceEvent.of_query(QueryKind.REACHABILITY, 2, 1),
        ]
        path = tmp_path / "w.trace"
        assert write_trace(path, events) == 4
        back = list(read_trace(path))
        assert back == events

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(WorkloadError):
            list(read_trace(path))

    def test_bad_event(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\nI 1\n")
        with pytest.raises(WorkloadError):
            list(read_trace(path))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n\n# note\nQ hops 1 2\n")
        events = list(read_trace(path))
        assert len(events) == 1


class TestInterleave:
    def test_shape(self):
        updates = [EdgeUpdate.insert(i, i + 1) for i in range(6)]
        queries = [(QueryKind.DISTANCE, 0, 5), (QueryKind.DISTANCE, 1, 4)]
        events = interleave(updates, queries, updates_per_query=3)
        kinds = ["Q" if e.is_query else "U" for e in events]
        assert kinds == ["U", "U", "U", "Q", "U", "U", "U", "Q"]

    def test_leftover_queries_appended(self):
        updates = [EdgeUpdate.insert(0, 1)]
        queries = [(QueryKind.DISTANCE, 0, 1)] * 3
        events = interleave(updates, queries, updates_per_query=5)
        assert sum(1 for e in events if e.is_query) == 3

    def test_invalid_rate(self):
        with pytest.raises(WorkloadError):
            interleave([], [], updates_per_query=0)


class TestReplay:
    def _fresh(self):
        graph = power_law_graph(250, 3, seed=11, weight_range=(1.0, 4.0))
        return SGraph(graph=graph, config=SGraphConfig(num_hubs=4))

    def _events(self, sg):
        pairs = sample_vertex_pairs(sg.graph, 8, seed=12)
        queries = [(QueryKind.DISTANCE, s, t) for s, t in pairs]
        updates = list(sliding_window_stream(sg.graph, 40, seed=13))
        return interleave(updates, queries, updates_per_query=5)

    def test_replay_counts(self):
        sg = self._fresh()
        events = self._events(sg)
        report = replay_trace(sg, events)
        assert report.updates_applied == 40
        assert report.queries_answered == 8
        assert report.query_stats.total == 8

    def test_replay_aggregates_every_query(self):
        sg = self._fresh()
        report = replay_trace(sg, self._events(sg))
        agg = report.query_stats
        assert len(agg.activations) == len(agg.elapsed) == 8
        assert agg.mean_activations == sum(agg.activations) / 8
        assert 0 < agg.p(0.5) <= agg.p(1.0) == max(agg.elapsed)
        assert agg.mean_activation_fraction(sg.graph.num_vertices) == (
            agg.mean_activations / sg.graph.num_vertices)

    def test_replay_deterministic_across_instances(self, tmp_path):
        sg1 = self._fresh()
        events = self._events(sg1)
        path = tmp_path / "w.trace"
        write_trace(path, events)
        report1 = replay_trace(sg1, read_trace(path))
        report2 = replay_trace(self._fresh(), read_trace(path))
        assert report1.answers == report2.answers

    def test_replay_engine_invariance(self, tmp_path):
        """Different pruning policies replay to identical answers."""
        sg1 = self._fresh()
        events = self._events(sg1)
        path = tmp_path / "w.trace"
        write_trace(path, events)
        report_lb = replay_trace(sg1, read_trace(path))
        graph = power_law_graph(250, 3, seed=11, weight_range=(1.0, 4.0))
        sg_ub = SGraph(graph=graph,
                       config=SGraphConfig(num_hubs=4, policy="upper-only"))
        report_ub = replay_trace(sg_ub, read_trace(path))
        assert report_lb.answers == pytest.approx(report_ub.answers)

    def test_mixed_query_kinds(self):
        sg = self._fresh()
        pairs = sample_vertex_pairs(sg.graph, 4, seed=14)
        events = [
            TraceEvent.of_query(kind, s, t)
            for (s, t), kind in zip(
                pairs,
                [QueryKind.DISTANCE, QueryKind.HOPS,
                 QueryKind.REACHABILITY, QueryKind.DISTANCE],
            )
        ]
        sg2 = SGraph(
            graph=sg.graph,
            config=SGraphConfig(num_hubs=4, queries=("distance", "hops")),
        )
        report = replay_trace(sg2, events)
        assert report.queries_answered == 4
