"""The ``backend="auto"`` live-facade crossover heuristic, pinned.

Auto must cross the live facade over to the dense plane exactly when the
workload justifies the per-epoch rebuild: AUTO_DENSE_QUERY_RATIO queries
in a row since the last mutation, or that many queries per update interval
on average (EMA).  Under alternating update/query churn it must stay dict
— the rebuild would dominate — and the decision must be observable without
being perturbed (``serving_backend`` is a pure peek).
"""

from __future__ import annotations

import random

from repro.core.config import SGraphConfig
from repro.graph.dynamic_graph import DynamicGraph
from repro.sgraph import AUTO_DENSE_QUERY_RATIO, SGraph


def _graph(seed: int = 0) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=False)
    for v in range(40):
        g.add_vertex(v)
    added = 0
    while added < 120:
        u, v = rng.randrange(40), rng.randrange(40)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, rng.uniform(0.5, 3.0))
        added += 1
    return g


def _auto() -> SGraph:
    return SGraph(graph=_graph(), config=SGraphConfig(
        num_hubs=5, queries=("distance",), backend="auto",
    ))


def _served_dense(sg: SGraph) -> bool:
    """Whether the last distance query ran on the dense plane (with nothing
    published, the facade holds a frozen engine for the current epoch
    exactly when it did)."""
    entry = sg._frozen.get("distance")
    return entry is not None and entry[0] == sg.epoch


class TestCrossoverThreshold:
    def test_query_run_crosses_at_ratio(self):
        """Queries 1..RATIO-1 after a mutation stay dict; query RATIO flips."""
        sg = _auto()
        threshold = int(AUTO_DENSE_QUERY_RATIO)
        for i in range(1, threshold):
            assert sg.serving_backend("distance") == "dict"
            sg.distance(0, 1)
            assert not _served_dense(sg), f"query {i} rebuilt the plane"
        assert sg.serving_backend("distance") == "dense"
        sg.distance(0, 1)
        assert _served_dense(sg)

    def test_alternating_churn_stays_dict(self):
        """update, query, update, query, ... never justifies the rebuild."""
        sg = _auto()
        rng = random.Random(1)
        for i in range(20):
            sg.add_edge(rng.randrange(40), rng.randrange(39) + 1,
                        rng.uniform(0.5, 3.0))
            assert sg.serving_backend("distance") == "dict"
            sg.distance(0, 1)
            assert not _served_dense(sg), f"round {i} rebuilt the plane"

    def test_query_heavy_history_survives_one_update(self):
        """A long query run folds into the EMA: one mutation later the very
        first query is already served dense (8 queries / 1 update ≥ ratio)."""
        sg = _auto()
        for _ in range(8):
            sg.distance(0, 1)
        sg.add_edge(0, 39, 0.25)
        assert sg.serving_backend("distance") == "dense"
        sg.distance(0, 39)
        assert _served_dense(sg)

    def test_sustained_churn_decays_the_ema(self):
        """The dense verdict from a query-heavy past fades under sustained
        mutation-only churn."""
        sg = _auto()
        for _ in range(8):
            sg.distance(0, 1)
        rng = random.Random(2)
        for _ in range(8):  # 8 mutations, no queries: EMA halves each time
            sg.add_edge(rng.randrange(40), rng.randrange(39) + 1,
                        rng.uniform(0.5, 3.0))
        assert sg.serving_backend("distance") == "dict"

    def test_peek_is_non_destructive(self):
        sg = _auto()
        for _ in range(50):
            assert sg.serving_backend("distance") == "dict"
        # 50 peeks recorded no queries: the first real queries still count
        # from zero
        sg.distance(0, 1)
        assert not _served_dense(sg)


class TestBackendPins:
    def test_dense_backend_always_dense(self):
        sg = SGraph(graph=_graph(), config=SGraphConfig(
            num_hubs=5, queries=("distance",), backend="dense",
        ))
        assert sg.serving_backend("distance") == "dense"
        sg.distance(0, 1)
        assert _served_dense(sg)

    def test_dict_backend_never_dense(self):
        sg = SGraph(graph=_graph(), config=SGraphConfig(
            num_hubs=5, queries=("distance",), backend="dict",
        ))
        for _ in range(10):
            sg.distance(0, 1)
        assert sg.serving_backend("distance") == "dict"
        assert not _served_dense(sg)

    def test_non_minplus_families_stay_dict(self):
        sg = SGraph(graph=_graph(), config=SGraphConfig(
            num_hubs=5, queries=("distance", "capacity"), backend="auto",
        ))
        assert sg.serving_backend("capacity") == "dict"

    def test_auto_answers_match_dict_across_crossover(self):
        """Values agree before, at, and after the flip."""
        sg_auto = _auto()
        sg_dict = SGraph(graph=_graph(), config=SGraphConfig(
            num_hubs=5, queries=("distance",), backend="dict",
        ))
        rng = random.Random(3)
        for i in range(12):
            s, t = rng.sample(range(40), 2)
            assert sg_auto.distance(s, t).value == sg_dict.distance(s, t).value
            if i % 5 == 4:
                u, v = rng.sample(range(40), 2)
                w = rng.uniform(0.5, 3.0)
                sg_auto.add_edge(u, v, w)
                sg_dict.add_edge(u, v, w)
