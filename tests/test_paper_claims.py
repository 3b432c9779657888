"""The abstract's claims, asserted as activation counts.

The paper claims that upper-bound-only pruning removes "about half" of the
activations, that lower-bound pruning activates "< 1 %" of the vertices,
and that a pairwise query costs orders of magnitude less than recomputing
an analytic answer.  Counts of activated vertices are deterministic, so
each claim is asserted here on the dataset proxy, hub build and pair seed
it was first measured with (EXPERIMENTS.md maps claim to test).  The
measured values are quoted beside each assertion.

Finding 1 (EXPERIMENTS.md): "< 1 %" holds on the power-law proxy, not on
the grid, whose share is pinned to its measured band instead.
"""

from __future__ import annotations

import math
import random
import statistics
from functools import lru_cache

import pytest

from repro.baselines.dijkstra import full_sssp
from repro.baselines.propagation import PropagationEngine
from repro.core.bounds import QueryBounds
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.hub_selection import place_hubs
from repro.core.pruning import PruningPolicy
from repro.core.semiring import SHORTEST_DISTANCE
from repro.graph.datasets import load_dataset
from repro.graph.stats import sample_vertex_pairs

NONE = PruningPolicy.NONE
UPPER_ONLY = PruningPolicy.UPPER_ONLY
SGRAPH = PruningPolicy.UPPER_AND_LOWER


# The proxies and indexes are read-only here, so one build serves every
# test; the module drops them when it is done.

@pytest.fixture(scope="module", autouse=True)
def _drop_builds():
    yield
    for cached in (_graph, _index_over, _hub_tables, _pairs, _sgraph,
                   _propagation):
        cached.cache_clear()


@lru_cache(maxsize=None)
def _graph(name):
    return load_dataset(name)


def _index(name, k=16, strategy="auto", seed=0):
    """``HubIndex.build(graph, k, strategy, seed)``, assembled from
    per-hub tables: a hub's table does not depend on the other hubs, and
    the claims share hubs across k and strategies (``auto`` picks degree
    hubs on social-pl, spread ones on the grid)."""
    hubs, large = place_hubs(_graph(name), k, strategy=strategy, seed=seed)
    return _index_over(name, tuple(hubs), large)


@lru_cache(maxsize=None)
def _index_over(name, hubs, large):
    graph = _graph(name)
    tables = [_hub_tables(name, h) for h in hubs]
    return HubIndex.from_tables(
        graph, hubs, SHORTEST_DISTANCE,
        {h: fwd[h] for h, (fwd, _bwd) in zip(hubs, tables)},
        backward_tables={h: bwd[h] for h, (_fwd, bwd) in zip(hubs, tables)}
        if graph.directed else None,
        copy=False, large_diameter=large)


@lru_cache(maxsize=None)
def _hub_tables(name, hub):
    # the diameter verdict orders searches, not tables: skip its BFS
    return HubIndex(_graph(name), [hub], large_diameter=False).freeze()


@lru_cache(maxsize=None)
def _pairs(name, count, seed):
    return tuple(sample_vertex_pairs(_graph(name), count, seed=seed,
                                     min_hops=2))


def _mean_activations(query, pairs):
    return statistics.fmean(query(s, t)[1].activations for s, t in pairs)


def _engine_activations(name, pairs, policy=SGRAPH, **index_args):
    index = _index(name, **index_args) if policy is not NONE else None
    engine = PairwiseEngine(_graph(name), index=index, policy=policy)
    return _mean_activations(engine.best_cost, pairs)


def _share(name, activations):
    return activations / _graph(name).num_vertices


# -- the default build: 16 auto hubs, 16 pairs from seed 1 -----------------------

def _default_pairs(name):
    return _pairs(name, 16, 1)


@lru_cache(maxsize=None)
def _sgraph(name):
    return _engine_activations(name, _default_pairs(name))


@lru_cache(maxsize=None)
def _propagation(name, policy):
    index = _index(name) if policy is not NONE else None
    engine = PropagationEngine(_graph(name), index=index, policy=policy)

    def query(s, t):
        result = engine.distance(s, t)
        return result.value, result.stats

    return _mean_activations(query, _default_pairs(name))


class TestPropagationModel:
    """E2: the pruning policies under the label-correcting propagation
    model the paper's comparison systems run."""

    @pytest.mark.parametrize("name", ["social-pl", "collab-sw"])
    def test_upper_only_prunes_about_half(self, name):
        # 0.46x on social-pl, 0.47x on collab-sw
        assert _propagation(name, UPPER_ONLY) < 0.8 * _propagation(name, NONE)

    @pytest.mark.parametrize("name", ["social-pl", "collab-sw"])
    def test_sgraph_activates_under_a_tenth_of_unpruned(self, name):
        # 30.4 vs 4868 on social-pl, 140.4 vs 5458 on collab-sw
        assert _sgraph(name) < 0.1 * _propagation(name, NONE)

    def test_social_graph_activates_under_one_and_a_half_percent(self):
        # 0.76 %: the abstract's "< 1 %" on the power-law proxy
        assert _share("social-pl", _sgraph("social-pl")) < 0.015

    def test_grid_share_stays_in_its_measured_band(self):
        # 1.83 %: above the abstract's 1 % (finding 1), pinned so it shows
        assert 0.01 < _share("road-grid", _sgraph("road-grid")) < 0.03


class TestAgainstFullSSSP:
    """E3 as a count: an analytic engine answers a pair by settling the
    source's whole component; SGraph activates a tenth of that or less.
    Every pair's source lies in the largest component, so one full SSSP
    settles what each of them would."""

    @pytest.mark.parametrize("name", ["social-pl", "road-grid", "collab-sw"])
    def test_sgraph_activates_a_tenth_of_a_full_sssp(self, name):
        source = _default_pairs(name)[0][0]
        settled = full_sssp(_graph(name), source)[1].activations
        assert _sgraph(name) <= settled / 10


def _hub_share(name, k, strategy):
    # 16 pairs from seed 13; hubs spread with seed 3
    pairs = _pairs(name, 16, 13)
    return _share(name, _engine_activations(name, pairs, k=k,
                                            strategy=strategy, seed=3))


class TestHubSensitivity:
    """E7: more hubs tighten the bounds on the skewed graph; on the grid
    placement matters more than count, and ``auto`` places well on both."""

    def test_more_degree_hubs_activate_no_more(self):
        # 0.60 % at k = 32 vs 1.13 % at k = 1
        assert (_hub_share("social-pl", 32, "degree")
                <= _hub_share("social-pl", 1, "degree"))

    @pytest.mark.parametrize("name", ["social-pl", "road-grid"])
    def test_auto_matches_the_better_placement(self, name):
        assert _hub_share(name, 16, "auto") == min(
            _hub_share(name, 16, "degree"), _hub_share(name, 16, "far-apart"))

    def test_spread_hubs_beat_degree_hubs_on_the_grid(self):
        # 2.59 % vs 11.16 %
        assert (_hub_share("road-grid", 16, "far-apart")
                < _hub_share("road-grid", 16, "degree"))


def _median_gap(name, k, strategy):
    """Median ub/lb ratio over 32 pairs from seed 51: 1 when the index
    alone answers the pair, inf when a bound is missing or zero."""
    index = _index(name, k=k, strategy=strategy, seed=3)
    ratios = []
    for s, t in _pairs(name, 32, 51):
        bounds = QueryBounds(index, s, t)
        lower, upper = bounds.lower_bound(), bounds.upper_bound
        if lower == math.inf:
            ratios.append(1.0)
        elif upper == math.inf or lower <= 0:
            ratios.append(math.inf)
        else:
            ratios.append(upper / lower)
    return statistics.median(ratios)


class TestBoundTightness:
    """E11: pruning power is bound tightness."""

    @pytest.mark.parametrize("fewer, more", [(4, 16), (16, 64)])
    def test_gap_narrows_as_degree_hubs_grow(self, fewer, more):
        # 3.58 -> 2.49 -> 1.76 at k = 4, 16, 64
        assert (_median_gap("social-pl", fewer, "degree")
                > _median_gap("social-pl", more, "degree"))

    def test_spread_hubs_bound_the_grid_no_looser(self):
        # 1.07 vs 1.61
        assert (_median_gap("road-grid", 16, "far-apart")
                <= _median_gap("road-grid", 16, "degree"))


def _directed_pairs():
    """16 pairs from seed 61 over all of web-dir, unreachable ones
    included: the index proves those without a search."""
    rng = random.Random(61)
    vertices = list(_graph("web-dir").vertices())
    pairs = []
    while len(pairs) < 16:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            pairs.append((s, t))
    return pairs


class TestDirected:
    """E13: dual forward/backward tables on the directed web proxy."""

    def test_sgraph_activates_fewer_than_unpruned(self):
        # 7.9 vs 12.8
        pairs = _directed_pairs()
        assert (_engine_activations("web-dir", pairs, strategy="degree")
                < _engine_activations("web-dir", pairs, policy=NONE))

    def test_some_pairs_close_from_the_index_alone(self):
        # 2 of 16
        graph = _graph("web-dir")
        engine = PairwiseEngine(graph, index=_index("web-dir",
                                                    strategy="degree"))
        assert any(engine.best_cost(s, t)[1].answered_by_index
                   for s, t in _directed_pairs())
