"""End-to-end integration scenarios exercising the whole stack."""

from __future__ import annotations

import math

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.stats import StatsAggregate
from repro.graph.datasets import load_dataset
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.sgraph import SGraph
from repro.streaming.update import batched
from repro.streaming.workload import mixed_stream, sliding_window_stream
from tests.conftest import apply_and_notify


class TestSystemsAgreeWithDijkstra:
    """SGraph and the upper-bound-only comparator must return Dijkstra's
    distances over an evolving social graph."""

    def test_agreement_through_churn(self):
        graph = load_dataset("collab-sw")
        pairs = sample_vertex_pairs(graph, 8, seed=3, min_hops=2)

        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=8))
        sg.distance(*pairs[0])  # build index
        # The comparator follows a second copy of the graph: one graph
        # object mutated twice would apply every update twice.
        ub_graph = load_dataset("collab-sw")
        ub_index = HubIndex.build(ub_graph, 8)
        ub_only = PairwiseEngine(ub_graph, index=ub_index, policy="upper-only")

        for update in sliding_window_stream(graph, 120, seed=4):
            sg.apply_update(update)
            apply_and_notify(ub_graph, update, ub_index)

        for s, t in pairs:
            expected, _stats = dijkstra_distance(graph, s, t)
            assert sg.distance(s, t).value == pytest.approx(expected)
            assert ub_only.best_cost(s, t)[0] == pytest.approx(expected)


class TestScheduledWorkload:
    def test_mixed_stream_with_queries_and_oracle(self):
        graph = load_dataset("uniform-er")
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=6))
        pairs = sample_vertex_pairs(graph, 12, seed=5)
        sg.distance(*pairs[0])
        mismatches = []
        total_updates = total_queries = 0
        stream = mixed_stream(graph, 150, insert_fraction=0.6, seed=6)
        for batch in batched(stream, 30):
            total_updates += sg.apply(batch)
            for _ in range(4):
                s, t = pairs[total_queries % len(pairs)]
                total_queries += 1
                result = sg.distance(s, t)
                ref, _stats = dijkstra_distance(graph, s, t)
                if not math.isclose(result.value, ref, rel_tol=1e-9):
                    if not (result.value == ref):  # both inf compares equal
                        mismatches.append((s, t, result.value, ref))
        assert not mismatches
        assert total_updates == 150
        assert total_queries == 20


class TestInterleavedRounds:
    """Rounds of ``sg.apply(batch)`` followed by queries: each round's
    queries see that round's updates."""

    @pytest.fixture
    def setup(self):
        graph = power_law_graph(300, 3, seed=8, weight_range=(1.0, 4.0))
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=6))
        pairs = sample_vertex_pairs(graph, 16, seed=9)
        updates = list(sliding_window_stream(graph, 60, seed=10))
        return sg, pairs, updates

    def test_round_accounting(self, setup):
        sg, pairs, updates = setup
        applied = []
        agg = StatsAggregate()
        for round_no, batch in enumerate(batched(updates, 20)):
            applied.append(sg.apply(batch))
            for s, t in pairs[4 * round_no:4 * round_no + 4]:
                agg.add(sg.distance(s, t).stats)
        assert applied == [20, 20, 20]
        assert agg.total == 12

    def test_queries_observe_fresh_epochs(self, setup):
        sg, pairs, updates = setup
        seen = []
        for batch in batched(updates, 30):
            epoch_before = sg.epoch
            sg.apply(batch)
            assert sg.epoch > epoch_before
            for s, t in pairs[:2]:
                sg.distance(s, t)
                seen.append(sg.epoch)
        assert len(seen) == 4
        assert seen[2] > seen[0]

    def test_answers_stay_correct_under_sliding_window_churn(self, setup):
        sg, pairs, updates = setup
        checked = 0
        for round_no, batch in enumerate(batched(updates, 15)):
            sg.apply(batch)
            for s, t in pairs[3 * round_no:3 * round_no + 3]:
                ref, _stats = dijkstra_distance(sg.graph, s, t)
                assert sg.distance(s, t).value == pytest.approx(ref)
                checked += 1
        assert checked == 12


class TestUpperOnlyFollowsAStream:
    def test_mixed_stream_keeps_the_comparator_exact(self):
        graph = load_dataset("uniform-er")
        ub_index = HubIndex.build(graph, 4)
        ub_only = PairwiseEngine(graph, index=ub_index, policy="upper-only")
        for update in mixed_stream(graph, 100, 0.7, seed=7):
            apply_and_notify(graph, update, ub_index)
        verts = sorted(graph.vertices())
        for t in verts[1:15]:
            ref, _s = dijkstra_distance(graph, verts[0], t)
            assert ub_only.best_cost(verts[0], t)[0] == pytest.approx(ref)
