"""Hub selection strategy tests."""

from __future__ import annotations

import inspect
import os
import random
import subprocess
import sys

import pytest

from repro import SGraph, SGraphConfig
from repro.core.hub_selection import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    _bfs_hops_update,
    select_by_degree,
    select_hubs,
    select_random,
)
from repro.errors import ConfigError
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import grid_graph, power_law_graph


@pytest.fixture
def star_plus_path():
    """Star centered at 0 (degree 6) plus a long path hanging off leaf 1."""
    g = DynamicGraph()
    for leaf in range(1, 7):
        g.add_edge(0, leaf)
    for i in range(10, 15):
        g.add_edge(i, i + 1)
    g.add_edge(1, 10)
    return g


class TestDegree:
    def test_picks_highest_degree(self, star_plus_path):
        assert select_by_degree(star_plus_path, 1) == [0]

    def test_tie_break_by_id(self):
        g = DynamicGraph()
        g.add_edge(5, 6)
        g.add_edge(1, 2)
        assert select_by_degree(g, 2) == [1, 2]

    def test_count_validation(self, star_plus_path):
        with pytest.raises(ConfigError):
            select_by_degree(star_plus_path, 0)
        with pytest.raises(ConfigError):
            select_by_degree(star_plus_path, 10_000)


class TestRandom:
    def test_deterministic(self, star_plus_path):
        assert select_random(star_plus_path, 4, seed=2) == select_random(
            star_plus_path, 4, seed=2
        )

    def test_distinct(self, star_plus_path):
        hubs = select_random(star_plus_path, 6, seed=3)
        assert len(set(hubs)) == 6

    def test_all_vertices_allowed(self, star_plus_path):
        n = star_plus_path.num_vertices
        assert sorted(select_random(star_plus_path, n, seed=1)) == sorted(
            star_plus_path.vertices()
        )


class TestFarApart:
    def test_starts_from_max_degree(self, star_plus_path):
        hubs = select_hubs(star_plus_path, 1, "far-apart")
        assert hubs == [0]

    def test_second_hub_is_far(self, star_plus_path):
        hubs = select_hubs(star_plus_path, 2, "far-apart")
        # The farthest vertex from the star center is the path's end.
        assert hubs[1] == 15

    def test_distinct(self, star_plus_path):
        hubs = select_hubs(star_plus_path, 5, "far-apart", seed=1)
        assert len(set(hubs)) == 5

    def test_covers_components(self, two_components):
        hubs = select_hubs(two_components, 2, "far-apart", seed=0)
        comp_a = {0, 1}
        comp_b = {2, 3}
        assert (set(hubs) & comp_a) and (set(hubs) & comp_b)


class TestDispatch:
    def test_registry_complete(self):
        assert set(STRATEGIES) == {"auto", "degree", "random", "far-apart"}

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_dispatch_runs(self, star_plus_path, strategy):
        hubs = select_hubs(star_plus_path, 3, strategy=strategy, seed=1)
        assert len(hubs) == 3
        assert all(star_plus_path.has_vertex(h) for h in hubs)

    def test_unknown_strategy(self, star_plus_path):
        with pytest.raises(ConfigError):
            select_hubs(star_plus_path, 2, strategy="psychic")


def _reference_far_apart(graph, count, seed=0):
    """The original O(k·|V|) farthest-point scan, kept as the reference."""
    first = min(graph.vertices(), key=lambda v: (-graph.degree(v), v))
    hubs = [first]
    hop_to_set = {}
    _bfs_hops_update(graph, first, hop_to_set)
    rng = random.Random(seed)
    while len(hubs) < count:
        best_v, best_hops = None, -1
        for v in graph.vertices():
            if v in hubs:
                continue
            hops = hop_to_set.get(v)
            if hops is None:
                hops = graph.num_vertices + rng.randrange(graph.num_vertices)
            if hops > best_hops:
                best_hops, best_v = hops, v
        hubs.append(best_v)
        _bfs_hops_update(graph, best_v, hop_to_set)
    return hubs


def _ledger_grid():
    return grid_graph(64, 64, seed=7, diagonal_fraction=0.15)


def _ledger_power_law():
    return power_law_graph(4000, 5, seed=7, weight_range=(1.0, 4.0))


#: what ``auto`` must pick: far-apart on the two large-diameter grids,
#: degree everywhere else
AUTO_SPREADS = {
    "road-grid": True, "social-pl": False, "web-rmat": False,
    "collab-sw": False, "uniform-er": False, "web-dir": False,
    "sensor-rel": False,
}


class TestAuto:
    def test_default_is_auto(self):
        assert DEFAULT_STRATEGY == "auto"
        assert inspect.signature(select_hubs).parameters[
            "strategy"].default == DEFAULT_STRATEGY

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_choice_per_dataset(self, name):
        assert set(AUTO_SPREADS) == set(DATASETS)
        graph = load_dataset(name)
        expected = (select_hubs(graph, 16, "far-apart") if AUTO_SPREADS[name]
                    else select_by_degree(graph, 16))
        assert select_hubs(graph, 16, "auto") == expected

    @pytest.mark.parametrize("build, spreads", [
        (_ledger_grid, True), (_ledger_power_law, False)])
    def test_choice_on_ledger_shapes(self, build, spreads):
        graph = build()
        expected = (select_hubs(graph, 16, "far-apart") if spreads
                    else select_by_degree(graph, 16))
        assert select_hubs(graph, 16, "auto") == expected

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_far_apart_matches_reference_scan(self, name):
        graph = load_dataset(name)
        for seed in (0, 3):
            assert select_hubs(graph, 16, "far-apart", seed=seed) == \
                _reference_far_apart(graph, 16, seed=seed)

    def test_one_vertex(self):
        g = DynamicGraph()
        g.add_vertex(7)
        assert select_hubs(g, 1, "auto") == [7]
        assert select_hubs(g, 1, "far-apart") == [7]

    @pytest.mark.parametrize("graph", [
        pytest.param(lambda: _path(40), id="long-path"),
        pytest.param(lambda: grid_graph(3, 3, seed=1), id="small-grid"),
    ])
    def test_count_equals_vertex_count(self, graph):
        g = graph()
        n = g.num_vertices
        for strategy in ("auto", "far-apart"):
            hubs = select_hubs(g, n, strategy)
            assert sorted(hubs) == sorted(g.vertices())
        assert select_hubs(g, n, "far-apart") == _reference_far_apart(g, n)

    def test_disconnected_small_diameter_takes_degree(self, two_components):
        assert select_hubs(two_components, 2, "auto") == \
            select_by_degree(two_components, 2)

    def test_disconnected_large_diameter_spreads_over_components(self):
        g = _path(60)
        for i in range(100, 159):
            g.add_edge(i, i + 1)
        hubs = select_hubs(g, 4, "auto", seed=2)
        assert hubs == select_hubs(g, 4, "far-apart", seed=2)
        assert hubs == _reference_far_apart(g, 4, seed=2)
        assert any(h < 100 for h in hubs) and any(h >= 100 for h in hubs)

    def test_directed_graph(self):
        g = grid_graph(24, 24, seed=3, directed=True)
        hubs = select_hubs(g, 8, "auto")
        # hop labels ignore arc direction, so the lattice counts as large-
        # diameter whichever way its arcs point
        assert hubs == select_hubs(g, 8, "far-apart")
        assert hubs == _reference_far_apart(g, 8)
        assert len(set(hubs)) == 8
        small = power_law_graph(300, 3, seed=4, directed=True)
        assert select_hubs(small, 8, "auto") == select_by_degree(small, 8)

    def test_sgraph_default_spreads_on_a_grid(self):
        sg = SGraph(graph=_ledger_grid(), config=SGraphConfig(num_hubs=16))
        sg.rebuild_indexes()
        assert sg.index_for("distance").hubs == select_hubs(
            sg.graph, 16, "far-apart")


def _path(n):
    g = DynamicGraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def _str_path(n):
    g = DynamicGraph()
    for i in range(n - 1):
        g.add_edge(f"v{i:03d}", f"v{i + 1:03d}")
    return g


class TestNonIntegerIds:
    def test_far_apart(self):
        g = _str_path(10)
        # every interior vertex has degree 2; the smallest id starts
        assert select_hubs(g, 2, "far-apart") == ["v001", "v009"]

    def test_auto_spreads_on_a_long_path(self):
        g = _str_path(64)
        hubs = select_hubs(g, 3, "auto")
        assert hubs == select_hubs(g, 3, "far-apart")
        assert hubs[:2] == ["v001", "v063"]

    def test_auto_two_vertices(self):
        g = DynamicGraph()
        g.add_edge("a", "b")
        assert select_hubs(g, 1, "auto") == ["a"]

    def test_sgraph_far_apart(self):
        edges = [(f"v{i:03d}", f"v{i + 1:03d}", 1.0) for i in range(30)]
        sg = SGraph.from_edges(edges, config=SGraphConfig(
            num_hubs=3, hub_strategy="far-apart"))
        assert sg.distance("v000", "v030").value == 30.0

    def test_strategies_independent_of_hash_seed(self):
        script = (
            "from repro.core.hub_selection import STRATEGIES, select_hubs\n"
            "from repro.graph.dynamic_graph import DynamicGraph\n"
            "g = DynamicGraph()\n"
            "for r in range(6):\n"
            "    for c in range(6):\n"
            "        if c < 5: g.add_edge(f'r{r}c{c}', f'r{r}c{c + 1}')\n"
            "        if r < 5: g.add_edge(f'r{r}c{c}', f'r{r + 1}c{c}')\n"
            "for name in sorted(STRATEGIES):\n"
            "    print(name, select_hubs(g, 6, name, seed=1))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = set()
        for hash_seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60,
                                  check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1
