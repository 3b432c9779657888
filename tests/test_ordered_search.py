"""The bound-ordered pairwise search, on the graphs that select it.

On a large-diameter graph (the hub placement's verdict, see
:func:`repro.core.hub_selection.is_large_diameter`) both min-plus kernels key
their queues by ``g + p``, ``p = ½(π_t − π_s)`` over the few hubs bounding
the query best.  The random 64-vertex graphs of the other differential
suites are small-diameter and never reach that loop; these fixtures are
grids and rings with a disconnected piece, directed and undirected, on
tie-heavy weights whose sums are exact, their edges inserted in shuffled
order so the dict plane lists neighbours unlike the CSR.  Every verb must
agree between the dict and dense planes in values, paths and the six
counters, and with a textbook Dijkstra in value; so must the loop forced
onto small random graphs.  The verdict must also survive every copy of an
index: frozen views, shm and tcp workers, and a persisted reload.
"""

from __future__ import annotations

import heapq
import json
import math
import random

import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.hub_selection import is_large_diameter, place_hubs
from repro.graph.dynamic_graph import DynamicGraph
from repro.persist import load_sgraph, save_sgraph
from repro.serving import shm_available
from repro.serving.codec import plane_manifest
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

#: tie-heavy weight draws whose sums (and half-differences) are exact
DRAWS = {
    "small-int": lambda rng: rng.choice((1.0, 1.0, 1.0, 2.0, 3.0)),
    "dyadic": lambda rng: rng.randrange(2, 25) / 8,
}


def _build(n: int, links, directed: bool, draw, rng) -> DynamicGraph:
    """Vertices ``0 .. n+5`` (the last six a path no other vertex reaches)
    and the ``(u, v, both_ways)`` links, each way its own weight, inserted
    in shuffled order: adjacency order is then unrelated to vertex ids, so
    the dict plane's neighbour order differs from the CSR's."""
    links = list(links) + [(v, v + 1, True) for v in range(n, n + 5)]
    arcs = [(u, v) for u, v, both in links]
    arcs += [(v, u) for u, v, both in links if both and directed]
    rng.shuffle(arcs)
    g = DynamicGraph(directed=directed)
    for v in range(n + 6):
        g.add_vertex(v)
    for u, v in arcs:
        g.add_edge(u, v, draw(rng))
    return g


def grid(side: int, directed: bool, draw, seed: int) -> DynamicGraph:
    """A ``side × side`` lattice (two-way on directed graphs) plus a
    disconnected piece."""
    links = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                links.append((v, v + 1, True))
            if r + 1 < side:
                links.append((v, v + side, True))
    return _build(side * side, links, directed, draw, random.Random(seed))


def ring(n: int, directed: bool, draw, seed: int) -> DynamicGraph:
    """An ``n``-cycle plus a disconnected piece.  Directed, two of its
    edges are one-way in opposite senses, so one arc cannot reach the
    other: unreachable pairs inside one component."""
    links = [(v, (v + 1) % n, True) for v in range(n)]
    links[n // 8] = (n // 8, n // 8 + 1, False)
    links[n // 2] = (n // 2 + 1, n // 2, False)
    return _build(n, links, directed, draw, random.Random(seed))


FIXTURES = {
    "grid": lambda directed, draw, seed: grid(22, directed, draw, seed),
    "ring": lambda directed, draw, seed: ring(160, directed, draw, seed),
}


def dijkstra(g: DynamicGraph, s: int, t: int, unit: bool = False) -> float:
    dist = {s: 0.0}
    heap = [(0.0, s)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        if v == t:
            return d
        done.add(v)
        for u, w in g.out_items(v):
            nd = d + (1.0 if unit else w)
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return math.inf


def path_cost(g: DynamicGraph, path) -> float:
    return sum(g.edge_weight(a, b) for a, b in zip(path, path[1:]))


def stats_tuple(stats):
    return (
        stats.activations,
        stats.pushes,
        stats.relaxations,
        stats.pruned_by_upper_bound,
        stats.pruned_by_lower_bound,
        stats.answered_by_index,
    )


def twins(graph_fn):
    return [
        SGraph(graph=graph_fn(), config=SGraphConfig(
            num_hubs=6, queries=("distance", "hops"), backend=backend))
        for backend in ("dict", "dense")
    ]


def pairs(g: DynamicGraph, rng, count: int):
    verts = sorted(g.vertices())
    return [tuple(rng.sample(verts, 2)) for _ in range(count)]


def answers(sg: SGraph, s: int, t: int, budget: float):
    return {
        "distance": sg.distance(s, t),
        "tolerance": sg.distance(s, t, tolerance=0.25),
        "path": sg.shortest_path(s, t),
        "feasible": sg.reachable(s, t),
        "budget": sg.within_distance(s, t, budget),
        "hops": sg.hop_distance(s, t),
    }


class TestOrderedParity:
    """Dict == dense == Dijkstra, every verb, on large-diameter fixtures."""

    @pytest.mark.parametrize("shape", sorted(FIXTURES))
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("directed", [False, True])
    def test_every_verb(self, shape, draw, directed):
        seed = 7 * len(shape) + 3 * directed + len(draw)
        make = FIXTURES[shape]
        sg_dict, sg_dense = twins(
            lambda: make(directed, DRAWS[draw], seed))
        assert sg_dict.index_for("distance").large_diameter
        assert sg_dict.index_for("hops").large_diameter
        g = sg_dict.graph
        rng = random.Random(seed)
        searched = 0
        for _round in range(2):
            for s, t in pairs(g, rng, 14):
                exact = dijkstra(g, s, t)
                budget = exact if rng.random() < 0.5 else exact - 0.5
                a = answers(sg_dict, s, t, budget)
                b = answers(sg_dense, s, t, budget)
                for verb in a:
                    assert b[verb].value == a[verb].value, verb
                    assert b[verb].path == a[verb].path, verb
                    assert (stats_tuple(b[verb].stats)
                            == stats_tuple(a[verb].stats)), verb
                searched += a["distance"].stats.activations
                assert a["distance"].value == exact
                assert exact <= a["tolerance"].value <= 1.25 * exact
                assert a["feasible"].value == float(exact != math.inf)
                assert a["budget"].value == float(exact <= budget < math.inf)
                assert a["hops"].value == dijkstra(g, s, t, unit=True)
                path = a["path"].path
                if exact == math.inf:
                    assert path is None
                else:
                    assert path[0] == s and path[-1] == t
                    assert path_cost(g, path) == exact
            # Churn, so the next round searches a later epoch's plane in
            # the same (sparse-reset) workspace.
            verts = sorted(g.vertices())
            for _ in range(4):
                u = rng.choice(verts[:-8])
                v = rng.choice([x for x, _w in g.out_items(u)] or [u])
                if v != u:
                    w = DRAWS[draw](rng)
                    for sg in (sg_dict, sg_dense):
                        sg.add_edge(u, v, w)
        assert searched > 0  # some pairs were not answered by the index
        ws = sg_dense._workspaces["distance"]
        assert ws.is_clean()


def _ordered_engines(g: DynamicGraph, hubs):
    """Dict and dense engines over one frozen epoch, ordered whatever the
    graph's diameter."""
    index = HubIndex(g, hubs, large_diameter=True)
    snap = g.snapshot()
    fwd, bwd = index.freeze()
    frozen = HubIndex.from_tables(
        snap, hubs, index.semiring, fwd,
        backward_tables=bwd if g.directed else None, copy=False,
        large_diameter=True)
    plane = DensePlane.build(snap, hubs, fwd, bwd, large_diameter=True)
    return (PairwiseEngine(snap, index=frozen),
            PairwiseEngine(snap, index=frozen, dense=plane))


class TestForcedOrder:
    """Correctness of the ordered loop does not rest on the verdict: forced
    on small random graphs, with hubs anywhere (sinks and isolated pieces
    included), it still matches Dijkstra and the planes still agree."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_random_graphs(self, directed):
        searched = 0
        for trial in range(30):
            rng = random.Random(100 * directed + trial)
            n = rng.randrange(8, 50)
            g = DynamicGraph(directed=directed)
            for v in range(n):
                g.add_vertex(v)
            draw = DRAWS[sorted(DRAWS)[trial % 2]]
            for _ in range(rng.randrange(n, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.add_edge(u, v, draw(rng))
            hubs = rng.sample(range(n), rng.randrange(1, 6))
            e_dict, e_dense = _ordered_engines(g, hubs)
            for _ in range(12):
                s, t = rng.randrange(n), rng.randrange(n)
                exact = dijkstra(g, s, t)
                budget = exact if rng.random() < 0.5 else 2.0
                got = []
                for e in (e_dict, e_dense):
                    value, stats = e.best_cost(s, t)
                    approx, a_stats = e.best_cost(s, t, tolerance=0.3)
                    p_value, path, p_stats = e.best_path(s, t)
                    ok, f_stats = e.feasible(s, t)
                    within, w_stats = e.within_budget(s, t, budget)
                    counters = [stats_tuple(x) for x in (
                        stats, a_stats, p_stats, f_stats, w_stats)]
                    got.append((value, approx, p_value, path, ok, within,
                                counters))
                assert got[0] == got[1]
                value, approx, p_value, path, ok, within, counters = got[0]
                searched += counters[0][0] > 0
                assert value == p_value == exact
                assert exact <= approx <= 1.3 * exact
                assert ok == (exact != math.inf)
                assert within == (exact <= budget < math.inf)
                if exact != math.inf and s != t:
                    assert path[0] == s and path[-1] == t
                    assert path_cost(g, path) == exact
        assert searched > 50


class TestVerdict:
    def test_fixtures_and_small_graphs(self):
        assert is_large_diameter(grid(20, False, DRAWS["dyadic"], 1))
        assert is_large_diameter(ring(100, True, DRAWS["small-int"], 1))
        # 2·15 hops <= 4·log2(256): a 16×16 lattice is not large-diameter
        small = DynamicGraph(directed=False)
        for v in range(256):
            small.add_vertex(v)
        for v in range(256):
            if v % 16 < 15:
                small.add_edge(v, v + 1, 1.0)
            if v + 16 < 256:
                small.add_edge(v, v + 16, 1.0)
        assert not is_large_diameter(small)

    @pytest.mark.parametrize("strategy",
                             ["auto", "degree", "far-apart", "random"])
    def test_every_strategy_reports_it(self, strategy):
        g = grid(20, False, DRAWS["dyadic"], 2)
        hubs, large = place_hubs(g, 4, strategy=strategy, seed=1)
        assert large is True and len(hubs) == 4
        index = HubIndex.build(g, 4, strategy=strategy, seed=1)
        assert index.large_diameter is True
        assert HubIndex(g, index.hubs).large_diameter is True

    def test_the_verdict_picks_the_order(self):
        """One index, both orders: same answers, far fewer activations
        ordered (the grid is where the unordered search grows a ball)."""
        g = grid(24, False, DRAWS["dyadic"], 3)
        index = HubIndex.build(g, 8)
        engine = PairwiseEngine(g, index=index)
        rng = random.Random(3)
        far = [(s, t) for s, t in pairs(g, rng, 60)
               if dijkstra(g, s, t, unit=True) >= 20][:20]
        totals = {}
        for large in (True, False):
            index.large_diameter = large
            values = []
            acts = 0
            for s, t in far:
                value, stats = engine.best_cost(s, t)
                values.append(value)
                acts += stats.activations
            totals[large] = (values, acts)
        assert totals[True][0] == totals[False][0]
        assert totals[True][1] < 0.7 * totals[False][1]


def _grid_sgraph() -> SGraph:
    return SGraph(graph=grid(22, False, DRAWS["dyadic"], 11),
                  config=SGraphConfig(num_hubs=6, queries=("distance",),
                                      backend="dense"))


#: a grid pair the index does not answer alone
FAR_PAIR = (27, 455)


class TestVerdictTravels:
    """One grid query answered through every copy of the index."""

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
    def test_five_copies_agree(self, tmp_path):
        sg = _grid_sgraph()
        s, t = FAR_PAIR
        live = sg.distance(s, t)
        assert live.stats.activations > 0  # not answered by the index
        seen = {"live": (live.value, stats_tuple(live.stats))}
        view = VersionedStore(sg).publish()
        assert view.dense_plane("distance").tables.large_diameter
        r = view.distance(s, t)
        seen["view"] = (r.value, stats_tuple(r.stats))
        for transport in ("shm", "tcp"):
            with sg.serve(workers=1, transport=transport) as session:
                value, stats, _epoch = session.distance(s, t)
                seen[transport] = (value, stats_tuple(stats))
        save_sgraph(sg, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["families"]["distance"]["large_diameter"] is True
        restored = load_sgraph(tmp_path)
        assert restored.index_for("distance").large_diameter is True
        r = restored.distance(s, t)
        seen["reload"] = (r.value, stats_tuple(r.stats))
        assert len(set(seen.values())) == 1, seen

    def test_manifest_carries_the_verdict(self):
        view = VersionedStore(_grid_sgraph()).publish()
        manifest = plane_manifest(view.dense_plane("distance"))[0]
        assert manifest["large_diameter"] is True
        rng = random.Random(4)
        small = DynamicGraph(directed=False)
        for v in range(64):
            small.add_vertex(v)
        while small.num_edges < 170:
            u, v = rng.sample(range(64), 2)
            small.add_edge(u, v, rng.randrange(2, 25) / 8)
        sg = SGraph(graph=small, config=SGraphConfig(
            num_hubs=6, queries=("distance",), backend="dense"))
        plane = VersionedStore(sg).publish().dense_plane("distance")
        assert plane_manifest(plane)[0]["large_diameter"] is False

    def test_old_saves_recompute_it(self, tmp_path):
        sg = _grid_sgraph()
        sg.distance(0, 5)
        save_sgraph(sg, tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["families"]["distance"]["large_diameter"]
        meta_path.write_text(json.dumps(meta))
        assert load_sgraph(tmp_path).index_for("distance").large_diameter
