"""End-to-end fuzz: random interleavings of the whole public surface.

One randomized driver exercises mutations, every query kind, path queries,
budget queries, one-to-many, versioned views, and save/load in arbitrary
order against brute-force oracles computed on a shadow copy of the graph.
This is the test that catches cross-feature interactions no unit test
thinks to write.  Weights come from a continuous range and, in the
tie-heavy variants, from ``{1, 1, 1, 2, 3}`` or dyadic rationals, where
most queue priorities tie and every sum is exact.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SGraphConfig
from repro.core.paths import path_cost
from repro.core.semiring import SHORTEST_DISTANCE
from repro.graph.generators import erdos_renyi_graph
from repro.persist import load_sgraph, save_sgraph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore
from tests.conftest import reference_dijkstra, reference_widest


def _ref_hops(graph, source):
    from collections import deque

    hops = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u, _w in graph.out_items(v):
            if u not in hops:
                hops[u] = hops[v] + 1
                queue.append(u)
    return hops


#: tie-heavy weight draws, used for the seed graph and every mutation
TIE_DRAWS = {
    "small-int": lambda rng: rng.choice((1.0, 1.0, 1.0, 2.0, 3.0)),
    "dyadic": lambda rng: rng.randrange(8, 41) / 8,
}


class Driver:
    """Applies one random action and checks it against oracles."""

    def __init__(self, seed: int, tmp_path=None, directed: bool = False,
                 weights=None, backend: str = "auto"):
        self.rng = random.Random(seed)
        self.weight = weights or (lambda rng: rng.uniform(1.0, 5.0))
        self.graph = erdos_renyi_graph(
            18, 34, seed=seed % 997, directed=directed,
            weight_range=(1.0, 5.0),
        )
        if weights is not None:
            for u, v, _w in list(self.graph.edges()):
                self.graph.add_edge(u, v, weights(self.rng))
        self.sg = SGraph(
            graph=self.graph,
            config=SGraphConfig(
                num_hubs=3,
                queries=("distance", "hops", "capacity"),
                backend=backend,
            ),
        )
        self.sg.rebuild_indexes()
        self.verts = sorted(self.graph.vertices())
        self.store = VersionedStore(self.sg, capacity=2)
        self.published = []  # (view, frozen graph copy)
        self.tmp_path = tmp_path

    # -- actions ------------------------------------------------------------

    def act_mutate(self):
        u, v = self.rng.sample(self.verts, 2)
        if self.graph.has_edge(u, v) and self.rng.random() < 0.45:
            self.sg.remove_edge(u, v)
        else:
            self.sg.add_edge(u, v, self.weight(self.rng))

    def act_remove_vertex(self):
        """Remove a vertex (possibly a hub → index rebuild) and re-add it."""
        v = self.rng.choice(self.verts)
        self.sg.remove_vertex(v)
        self.sg.add_vertex(v)
        # Reconnect with a couple of edges so the vertex stays queryable.
        for u in self.rng.sample([x for x in self.verts if x != v], 2):
            self.sg.add_edge(v, u, self.weight(self.rng))

    def act_distance(self):
        s, t = self.rng.sample(self.verts, 2)
        expected = reference_dijkstra(self.graph, s).get(t, math.inf)
        assert self.sg.distance(s, t).value == pytest.approx(expected)

    def act_hops(self):
        s, t = self.rng.sample(self.verts, 2)
        expected = _ref_hops(self.graph, s).get(t, math.inf)
        assert self.sg.hop_distance(s, t).value == expected

    def act_capacity(self):
        s, t = self.rng.sample(self.verts, 2)
        expected = reference_widest(self.graph, s).get(t, -math.inf)
        assert self.sg.bottleneck(s, t).value == pytest.approx(expected)

    def act_path(self):
        s, t = self.rng.sample(self.verts, 2)
        expected = reference_dijkstra(self.graph, s).get(t, math.inf)
        result = self.sg.shortest_path(s, t)
        assert result.value == pytest.approx(expected)
        if result.path is not None:
            assert result.path[0] == s and result.path[-1] == t
            assert path_cost(self.graph, SHORTEST_DISTANCE,
                             result.path) == pytest.approx(expected)
        else:
            assert expected == math.inf

    def act_budget(self):
        s, t = self.rng.sample(self.verts, 2)
        budget = self.rng.uniform(0.5, 15.0)
        expected = reference_dijkstra(self.graph, s).get(t, math.inf) <= budget
        assert bool(self.sg.within_distance(s, t, budget).value) == expected

    def act_one_to_many(self):
        s = self.rng.choice(self.verts)
        targets = self.rng.sample(self.verts, 5)
        ref = reference_dijkstra(self.graph, s)
        results = self.sg.distance_many(s, targets)
        for t in targets:
            expected = 0.0 if t == s else ref.get(t, math.inf)
            assert results[t] == pytest.approx(expected)

    def act_tolerance(self):
        s, t = self.rng.sample(self.verts, 2)
        tol = self.rng.uniform(0.0, 1.0)
        opt = reference_dijkstra(self.graph, s).get(t, math.inf)
        value = self.sg.distance(s, t, tolerance=tol).value
        if opt == math.inf:
            assert value == math.inf
        else:
            assert opt - 1e-9 <= value <= (1 + tol) * opt + 1e-9

    def act_publish(self):
        view = self.store.publish()
        self.published.append((view, self.graph.copy()))
        if len(self.published) > 2:
            self.published.pop(0)

    def act_query_version(self):
        if not self.published:
            return
        view, frozen = self.rng.choice(self.published)
        s, t = self.rng.sample(self.verts, 2)
        expected = reference_dijkstra(frozen, s).get(t, math.inf)
        assert view.distance(s, t).value == pytest.approx(expected)

    def act_save_load(self):
        if self.tmp_path is None:
            return
        target = self.tmp_path / f"fuzz-{self.rng.randrange(1 << 30)}"
        save_sgraph(self.sg, target)
        restored = load_sgraph(target)
        s, t = self.rng.sample(self.verts, 2)
        assert restored.distance(s, t).value == pytest.approx(
            self.sg.distance(s, t).value
        )

    def run(self, steps: int):
        actions = [
            (self.act_mutate, 8),
            (self.act_remove_vertex, 1),
            (self.act_distance, 3),
            (self.act_hops, 2),
            (self.act_capacity, 2),
            (self.act_path, 2),
            (self.act_budget, 2),
            (self.act_one_to_many, 1),
            (self.act_tolerance, 1),
            (self.act_publish, 1),
            (self.act_query_version, 2),
            (self.act_save_load, 1),
        ]
        population = [fn for fn, weight in actions for _ in range(weight)]
        for _step in range(steps):
            self.rng.choice(population)()


@given(st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_fuzz_undirected(seed):
    Driver(seed).run(steps=45)


@given(st.integers(0, 10_000))
@settings(max_examples=4, deadline=None)
def test_fuzz_directed(seed):
    Driver(seed, directed=True).run(steps=35)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("draw", sorted(TIE_DRAWS))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=4, deadline=None)
def test_fuzz_tied_weights(draw, directed, seed):
    Driver(seed, directed=directed, weights=TIE_DRAWS[draw],
           backend="dense").run(steps=40)


def test_fuzz_with_persistence(tmp_path):
    Driver(1234, tmp_path=tmp_path).run(steps=60)
