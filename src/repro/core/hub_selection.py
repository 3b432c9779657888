"""Hub (landmark) selection strategies.

Bound tightness — and therefore pruning power — depends heavily on *which*
vertices serve as hubs.  On skewed graphs, shortest paths concentrate through
high-degree vertices, so degree-ranked hubs give near-exact bounds for most
pairs; on large-diameter graphs (roads, lattices) degree hubs cluster in one
region and farthest-point hubs — ALT's landmarks — do better.

The default, :data:`DEFAULT_STRATEGY` = ``"auto"``, decides between the two
from the input.  It runs one BFS of hop labels from the top-degree vertex
(where both candidates start).  If that vertex's hop eccentricity, within its
component, exceeds ``LARGE_DIAMETER_FACTOR · log2|V|`` the graph counts as
large-diameter and farthest-point selection continues from the same BFS;
otherwise the hubs are the degree order.  Measured with k = 16 (mean query
ms over E7's pairs on a 2-vCPU host; the ledger rows are ``perf.run``'s
``query_p50_ms`` at its reference speed):

=============================  ================  ==========  =============  ==========
graph                          ecc ÷ log2|V|     degree ms   far-apart ms   ``auto``
=============================  ================  ==========  =============  ==========
``road-grid``                  7.25              2.50        **1.00**       far-apart
ledger grid (``engine-read``)  9.00              2.49        **0.81**       far-apart
``sensor-rel``                 1.15              **0.45**    0.57           degree
``collab-sw``                  0.92              **0.60**    0.74           degree
``uniform-er``                 0.43              0.45        0.43           degree
``web-rmat``                   0.44              **0.30**    0.44           degree
``web-dir``                    0.28              **0.12**    0.20           degree
``social-pl``                  0.25              **0.30**    0.37           degree
ledger power-law               0.25              **0.21**    0.31           degree
=============================  ================  ==========  =============  ==========

A degree-skew test (max ÷ mean degree) mis-sorts ``collab-sw`` and
``sensor-rel``: they are flat but small-diameter, and far-apart hubs are
slower there.  :data:`STRATEGIES` holds four names: ``auto``, the two
placements it chooses between (``degree``, ``far-apart``) as explicit
overrides, and ``random``, the ablation control.

The verdict also picks the pairwise search order, whatever the strategy:
:func:`place_hubs` returns it beside the hubs (reusing ``auto``'s and
``far-apart``'s BFS), :class:`~repro.core.hub_index.HubIndex` keeps it,
and on a large-diameter graph the min-plus search keys its queues by the
hub lower bound (``PairwiseEngine._search_dense``).
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigError

#: the strategy every entry point uses unless told otherwise
DEFAULT_STRATEGY = "auto"

#: ``auto`` spreads hubs when the top-degree vertex's hop eccentricity
#: exceeds this many times log2|V| (7.25 and 9.0 on the grids, <= 1.15 on
#: every small-world graph measured)
LARGE_DIAMETER_FACTOR = 4


def select_by_degree(graph, count: int) -> List[int]:
    """Top-``count`` vertices by total degree (ties broken by vertex id).

    On power-law graphs the hubs of the degree distribution are also the
    hubs of the shortest-path structure.
    """
    _check_count(graph, count)
    return sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))[:count]


def select_random(graph, count: int, seed: int = 0) -> List[int]:
    """Uniform random hubs — the ablation control."""
    _check_count(graph, count)
    rng = random.Random(seed)
    return sorted(rng.sample(list(graph.vertices()), count))


def select_far_apart(graph, count: int, seed: int = 0) -> List[int]:
    """Greedy farthest-point (2-approx k-center) hub spreading.

    Start from the highest-degree vertex, then repeatedly pick the vertex at
    the largest hop distance from the chosen set.  Good on large-diameter
    graphs (road networks) where degree-ranked hubs cluster in one region.
    """
    return place_hubs(graph, count, "far-apart", seed)[0]


def select_auto(graph, count: int, seed: int = 0) -> List[int]:
    """Farthest-point hubs on large-diameter graphs, degree hubs otherwise.

    One BFS from the top-degree vertex measures its hop eccentricity (over
    the vertices it reaches); above ``LARGE_DIAMETER_FACTOR · log2|V|`` the
    same BFS seeds :func:`select_far_apart`'s spreading.
    """
    return place_hubs(graph, count, "auto", seed)[0]


def is_large_diameter(graph) -> bool:
    """The large-diameter verdict: the top-degree vertex's hop eccentricity,
    within its component, exceeds ``LARGE_DIAMETER_FACTOR · log2|V|``.

    One BFS.  :func:`select_auto` places hubs by it and the pairwise search
    orders its queues by it (see :func:`place_hubs`).
    """
    if graph.num_vertices < 2:
        return False
    return _probe_diameter(graph)[2]


def _probe_diameter(graph) -> Tuple[int, Dict[int, int], bool]:
    """``(top-degree vertex, its BFS hop labels, large-diameter verdict)``."""
    first = _top_degree_vertex(graph)
    hops = _bfs_hops_multi(graph, [first])
    large = (max(hops.values())
             > LARGE_DIAMETER_FACTOR * math.log2(graph.num_vertices))
    return first, hops, large


def _top_degree_vertex(graph):
    """The vertex :func:`select_by_degree` ranks first."""
    return min(graph.vertices(), key=lambda v: (-graph.degree(v), v))


def _spread(graph, count: int, first, hops: Dict, seed: int) -> List[int]:
    """Farthest-point selection from ``first``; ``hops`` holds its BFS hop
    labels and is lowered in place as hubs are added."""
    hubs = [first]
    n = graph.num_vertices
    rng = random.Random(seed)
    while len(hubs) < count:
        if len(hops) < n:
            # Unreached vertices are infinitely far: draw among them at
            # random so one component does not monopolize the hub budget.
            nxt = max((v for v in graph.vertices() if v not in hops),
                      key=lambda _v: rng.randrange(n))
        else:
            # Hubs sit at 0 hops and every other vertex above, so the first
            # farthest vertex in iteration order is never a hub.
            nxt = max(graph.vertices(), key=hops.__getitem__)
        hubs.append(nxt)
        _bfs_hops_update(graph, nxt, hops)
    return hubs


def _check_count(graph, count: int) -> None:
    if count < 1:
        raise ConfigError("hub count must be >= 1")
    if count > graph.num_vertices:
        raise ConfigError(
            f"hub count {count} exceeds vertex count {graph.num_vertices}"
        )


def _bfs_hops_multi(graph, sources: List[int]) -> Dict[int, int]:
    hops = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for u, _w in graph.out_items(v):
            if u not in hops:
                hops[u] = hops[v] + 1
                queue.append(u)
        for u, _w in graph.in_items(v):
            if u not in hops:
                hops[u] = hops[v] + 1
                queue.append(u)
    return hops


def _bfs_hops_update(graph, source: int, hops: Dict[int, int]) -> None:
    """Lower existing hop labels given a new source (multi-source update)."""
    if hops.get(source, 1) <= 0:
        return
    hops[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        nxt = hops[v] + 1
        for u, _w in graph.out_items(v):
            if hops.get(u, nxt + 1) > nxt:
                hops[u] = nxt
                queue.append(u)
        for u, _w in graph.in_items(v):
            if hops.get(u, nxt + 1) > nxt:
                hops[u] = nxt
                queue.append(u)
    return


#: registry used by configs and the CLI
STRATEGIES: Dict[str, Callable[..., List[int]]] = {
    "auto": select_auto,
    "degree": select_by_degree,
    "random": select_random,
    "far-apart": select_far_apart,
}


def select_hubs(graph, count: int, strategy: str = DEFAULT_STRATEGY,
                seed: int = 0) -> List[int]:
    """Dispatch to a named strategy from :data:`STRATEGIES`."""
    try:
        fn = STRATEGIES[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown hub strategy {strategy!r}; known: {', '.join(STRATEGIES)}"
        ) from None
    if strategy == "degree":
        return fn(graph, count)
    return fn(graph, count, seed=seed)


def place_hubs(graph, count: int, strategy: str = DEFAULT_STRATEGY,
               seed: int = 0) -> Tuple[List[int], bool]:
    """:func:`select_hubs` plus the graph's :func:`is_large_diameter` verdict.

    ``auto`` and ``far-apart`` already run the verdict's BFS and reuse it;
    every other strategy pays one extra BFS.
    """
    if strategy not in ("auto", "far-apart"):
        return (select_hubs(graph, count, strategy, seed),
                is_large_diameter(graph))
    _check_count(graph, count)
    first, hops, large = _probe_diameter(graph)
    if large or strategy == "far-apart":
        return _spread(graph, count, first, hops, seed), large
    return select_by_degree(graph, count), large
