"""Scale smoke tests: moderate-size graphs finish in sane time.

These don't assert wall-clock numbers (CI noise); they assert the work
*counters* stay sub-linear where the design promises it, on graphs an
order of magnitude beyond the unit-test sizes — the canary for accidental
O(V²) regressions.
"""

from __future__ import annotations

import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.sgraph import SGraph
from repro.streaming.workload import sliding_window_stream


@pytest.fixture(scope="module")
def big_graph():
    return power_law_graph(12_000, 5, seed=77, weight_range=(1.0, 4.0))


@pytest.fixture(scope="module")
def big_index(big_graph):
    return HubIndex.build(big_graph, 16)


class TestScale:
    def test_queries_touch_tiny_fraction(self, big_graph, big_index):
        engine = PairwiseEngine(big_graph, index=big_index)
        pairs = sample_vertex_pairs(big_graph, 12, seed=78, min_hops=2)
        for s, t in pairs:
            _value, stats = engine.best_cost(s, t)
            assert stats.activations < 0.02 * big_graph.num_vertices

    def test_index_size_exact(self, big_graph, big_index):
        assert big_index.size_entries() == 16 * big_graph.num_vertices

    def test_update_maintenance_is_local(self, big_graph):
        # Private copy: the module-scoped graph/index must stay pristine
        # for the other tests.
        graph = big_graph.copy()
        index = HubIndex.build(graph, 8)
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=8))
        sg.adopt_indexes({"distance": index})
        total_settled = 0
        updates = list(sliding_window_stream(graph, 200, seed=79))
        for update in updates:
            sg.apply_update(update)
            # one fresh insert or one delete: one notification each
            total_settled += index.settled_last_update
        # Mean maintenance work per update stays far below |V| per hub.
        mean = total_settled / len(updates)
        assert mean < 0.05 * graph.num_vertices * index.num_hubs
