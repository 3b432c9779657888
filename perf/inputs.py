"""Seeded input generators: graphs, update streams, query pairs.

Everything the program under test sees is produced here from ``--seed`` with
the standard library's ``random.Random`` only — plain tuples and lists, no
program types — so the same seed gives the same inputs on every commit, and
:func:`digest` can fingerprint them.

Edge weights are dyadic rationals (multiples of 1/64 in [1, 4], or small
integers): every path cost is then an exact float sum whatever order the
weights are added in, so the oracle can demand bit-equal answers from an
engine that sums a path from both ends.

Vertex ids are ``0 .. n-1``.  An update is ``("+", u, v, w)`` (insert, or
reweight when the edge is live) or ``("-", u, v)``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from typing import Dict, List, Sequence, Set, Tuple

Edge = Tuple[int, int, float]
Update = Tuple
Pair = Tuple[int, int]


def stream(seed: int, *purpose: object) -> random.Random:
    """An independent generator per (seed, purpose): adding a draw to one
    input never shifts another."""
    return random.Random("/".join(str(p) for p in (seed,) + purpose))


def dyadic_weight(rng: random.Random) -> float:
    return rng.randrange(64, 257) / 64.0


def grid_edges(rng: random.Random, side: int = 64,
               diagonal_share: float = 0.15) -> List[Edge]:
    """``side × side`` 4-connected grid plus a share of down-right diagonals.

    High diameter and bounded degree: the road-network regime, where hub
    bounds prune weakly and the search loop does the work.
    """
    edges: List[Edge] = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, dyadic_weight(rng)))
            if r + 1 < side:
                edges.append((v, v + side, dyadic_weight(rng)))
            if (r + 1 < side and c + 1 < side
                    and rng.random() < diagonal_share):
                edges.append((v, v + side + 1, dyadic_weight(rng) * 1.5))
    return edges


def power_law_edges(rng: random.Random, num_vertices: int = 4000,
                    edges_per_vertex: int = 5) -> List[Edge]:
    """Preferential attachment with integer weights 1–4.

    Heavy-tailed degrees and a small diameter: the social-graph regime,
    where degree hubs give tight bounds and most queries close from the
    index or after a handful of activations.
    """
    m = edges_per_vertex
    edges: List[Edge] = []
    endpoints: List[int] = []
    core = m + 1
    for u in range(core):
        for v in range(u + 1, core):
            edges.append((u, v, float(rng.randint(1, 4))))
            endpoints += (u, v)
    for v in range(core, num_vertices):
        chosen: Set[int] = set()
        while len(chosen) < m:
            chosen.add(rng.choice(endpoints))
        for u in sorted(chosen):
            edges.append((v, u, float(rng.randint(1, 4))))
            endpoints += (u, v)
    return edges


def adjacency(num_vertices: int, edges: Sequence[Edge]) -> List[Dict[int, float]]:
    adj: List[Dict[int, float]] = [{} for _ in range(num_vertices)]
    for u, v, w in edges:
        adj[u][v] = w
        adj[v][u] = w
    return adj


def largest_component(adj: Sequence[Dict[int, float]]) -> List[int]:
    seen = [False] * len(adj)
    best: List[int] = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def far_pairs(rng: random.Random, adj: Sequence[Dict[int, float]],
              pool: Sequence[int], count: int) -> List[Pair]:
    """``count`` pairs from ``pool`` at least two hops apart, sources distinct
    while the pool lasts (a repeated source would hit the engine's per-source
    caches, which is a property a workload should choose, not stumble on)."""
    sources = list(pool)
    rng.shuffle(sources)
    pairs: List[Pair] = []
    i = 0
    while len(pairs) < count:
        s = sources[i % len(sources)]
        i += 1
        t = rng.choice(pool)
        if t == s or t in adj[s]:
            continue
        pairs.append((s, t))
    return pairs


def near_pair(adj: Sequence[Dict[int, float]], pool: Sequence[int]) -> Pair:
    """The first vertex of ``pool`` and its smallest neighbour's neighbour
    that is not its own neighbour: a pair exactly two hops apart.  Rounds
    probe with it, so that "first answer on the new epoch" costs the same
    small search every time and the lag is the write path's, not the
    probe's."""
    for s in pool:
        for mid in sorted(adj[s]):
            for t in sorted(adj[mid]):
                if t != s and t not in adj[s]:
                    return (s, t)
    raise ValueError("no two vertices are two hops apart")


def sliding_log(rng: random.Random, num_vertices: int,
                edges: Sequence[Edge], inserts: int) -> Tuple[List[Edge], List[Edge]]:
    """The fixed material of a sliding window over ``edges``: ``inserts``
    candidate new edges (scattered uniformly, integer weights 1–4, none
    already present, all distinct) and the order in which the initial edges
    age out (a shuffle: generation order would strip the earliest,
    best-connected vertices first)."""
    present = {(min(u, v), max(u, v)) for u, v, _w in edges}
    fresh: List[Edge] = []
    while len(fresh) < inserts:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        fresh.append((u, v, float(rng.randint(1, 4))))
    ages = list(edges)
    rng.shuffle(ages)
    return fresh, ages


def sliding_window(inserts: Sequence[Edge], ages: Sequence[Edge],
                   count: int) -> List[Update]:
    """``count`` updates alternating insert-new / delete-oldest, so |E| holds.

    Inserts are ``inserts`` in order (drawn from a :func:`sliding_log`);
    deletes walk ``ages`` from the front.  No update is ever redundant: every
    insert is a new edge and every delete hits a live initial edge.
    """
    if (count + 1) // 2 > len(inserts) or count // 2 > len(ages):
        raise ValueError("sliding log too short for the stream asked of it")
    updates: List[Update] = []
    for (u, v, w), (ou, ov, _ow) in zip(inserts, ages):
        if len(updates) < count:
            updates.append(("+", u, v, w))
        if len(updates) < count:
            updates.append(("-", ou, ov))
    return updates


def reweights(rng: random.Random, edges: Sequence[Edge],
              count: int) -> List[Update]:
    """``count`` reweights of edges drawn uniformly: each gets a fresh dyadic
    weight different from the one it holds at that point in the stream."""
    current = {(u, v): w for u, v, w in edges}
    keys = list(current)
    updates: List[Update] = []
    while len(updates) < count:
        u, v = rng.choice(keys)
        w = dyadic_weight(rng)
        if w == current[(u, v)]:
            continue
        current[(u, v)] = w
        updates.append(("+", u, v, w))
    return updates


def is_slack(adj: Sequence[Dict[int, float]], u: int, v: int) -> bool:
    """Whether edge ``(u, v)`` has a strictly shorter detour.

    A slack edge lies on no shortest path, so *raising* its weight changes no
    distance anywhere: for any index the update is a "safe" one (RisGraph's
    term) — the common case in real streams, and the cheap, uniform one.
    A bounded Dijkstra from ``u`` that gives up at the edge's own weight.
    """
    limit = adj[u][v]
    dist = {u: 0.0}
    heap = [(0.0, u)]
    while heap:
        d, x = heapq.heappop(heap)
        if d >= limit:
            return False
        if x == v:
            return True
        if d > dist[x]:
            continue
        for y, w in adj[x].items():
            if x == u and y == v:
                continue
            nd = d + w
            if nd < limit and nd < dist.get(y, limit):
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return False


def slack_raises(rng: random.Random, adj: Sequence[Dict[int, float]],
                 candidates: Sequence[Pair], count: int) -> List[Update]:
    """``count`` weight raises (by 1/64 .. 1) of slack edges drawn from
    ``candidates``; raised edges stay slack, so they can be drawn again."""
    slack = [(u, v) for u, v in candidates if is_slack(adj, u, v)]
    if not slack:
        raise ValueError("no slack edge among the candidates")
    current = {key: adj[key[0]][key[1]] for key in slack}
    updates: List[Update] = []
    for _ in range(count):
        key = rng.choice(slack)
        current[key] += rng.randrange(1, 65) / 64.0
        updates.append(("+", key[0], key[1], current[key]))
    return updates


def grid_window(rng: random.Random, side: int, edges: Sequence[Edge],
                window: int) -> List[Pair]:
    """The edges leaving the cells of one random ``window × window`` block."""
    r0 = rng.randrange(side - window)
    c0 = rng.randrange(side - window)
    return [(u, v) for u, v, _w in edges
            if r0 <= u // side < r0 + window and c0 <= u % side < c0 + window]


def digest(*parts: object) -> str:
    """sha256 over a canonical JSON rendering of the generated inputs."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
