"""Structural statistics used by ``repro datasets`` and hub selection.

Everything here runs on the traversal protocol shared by
:class:`~repro.graph.DynamicGraph` and
:class:`~repro.graph.GraphSnapshot`, so live graphs and snapshots can both
be profiled.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import GraphError


@dataclass(frozen=True)
class GraphProfile:
    """Summary statistics for one graph."""

    num_vertices: int
    num_edges: int
    directed: bool
    max_degree: int
    mean_degree: float
    degree_skew: float
    estimated_diameter: int
    num_components: int
    largest_component_fraction: float

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the harness table printer."""
        return {
            "|V|": self.num_vertices,
            "|E|": self.num_edges,
            "dir": "Y" if self.directed else "N",
            "d_max": self.max_degree,
            "d_avg": round(self.mean_degree, 2),
            "skew": round(self.degree_skew, 2),
            "diam~": self.estimated_diameter,
            "comps": self.num_components,
            "lcc%": round(100.0 * self.largest_component_fraction, 1),
        }


def degree_sequence(graph) -> List[int]:
    """Total degree of every vertex."""
    return [graph.degree(v) for v in graph.vertices()]


def degree_skew(degrees: Sequence[int]) -> float:
    """Ratio of max degree to mean degree — a cheap skew indicator.

    Power-law graphs score in the tens-to-hundreds; lattices score ~1.
    """
    if not degrees:
        return 0.0
    mean = sum(degrees) / len(degrees)
    if mean == 0:
        return 0.0
    return max(degrees) / mean


def _bfs_hops(graph, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` following out-edges."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u, _w in graph.out_items(v):
            if u not in hops:
                hops[u] = hops[v] + 1
                queue.append(u)
    return hops


def estimate_diameter(graph, samples: int = 8, seed: int = 0) -> int:
    """Double-sweep lower bound on the (hop) diameter.

    Runs ``samples`` BFS double sweeps from random starts and returns the
    largest eccentricity seen.  Exact diameters are overkill for the dataset
    table; this is the standard cheap estimator.
    """
    vertices = list(graph.vertices())
    if not vertices:
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        start = rng.choice(vertices)
        hops = _bfs_hops(graph, start)
        if not hops:
            continue
        far, ecc = max(hops.items(), key=lambda kv: kv[1])
        best = max(best, ecc)
        hops2 = _bfs_hops(graph, far)
        if hops2:
            best = max(best, max(hops2.values()))
    return best


def connected_components(graph) -> List[List[int]]:
    """Weakly-connected components (edge direction ignored)."""
    seen = set()
    components: List[List[int]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        component = []
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            component.append(v)
            for u, _w in graph.out_items(v):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
            for u, _w in graph.in_items(v):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(component)
    return components


def largest_component(graph) -> List[int]:
    """Vertices of the largest weakly-connected component."""
    components = connected_components(graph)
    if not components:
        raise GraphError("graph has no vertices")
    return max(components, key=len)


def profile_graph(graph, diameter_samples: int = 4, seed: int = 0) -> GraphProfile:
    """Compute the full :class:`GraphProfile` for a graph or snapshot."""
    degrees = degree_sequence(graph)
    components = connected_components(graph)
    n = graph.num_vertices
    largest = max((len(c) for c in components), default=0)
    return GraphProfile(
        num_vertices=n,
        num_edges=graph.num_edges,
        directed=graph.directed,
        max_degree=max(degrees, default=0),
        mean_degree=(sum(degrees) / n) if n else 0.0,
        degree_skew=degree_skew(degrees),
        estimated_diameter=estimate_diameter(graph, samples=diameter_samples,
                                             seed=seed),
        num_components=len(components),
        largest_component_fraction=(largest / n) if n else 0.0,
    )


def sample_vertex_pairs(
    graph,
    count: int,
    seed: int = 0,
    connected_only: bool = True,
    min_hops: int = 0,
) -> List[tuple]:
    """Sample ``count`` (s, t) query pairs, s != t.

    With ``connected_only`` the pairs are drawn from the largest weakly-
    connected component so distance queries have finite answers; with
    ``min_hops`` pairs closer than that many hops are rejected, which is how
    the latency experiments avoid trivial adjacent-pair queries.
    """
    pool = largest_component(graph) if connected_only else list(graph.vertices())
    if len(pool) < 2:
        raise GraphError("need at least two vertices to sample pairs")
    rng = random.Random(seed)
    pairs = []
    attempts = 0
    max_attempts = 200 * count + 1000
    while len(pairs) < count:
        attempts += 1
        if attempts > max_attempts:
            raise GraphError(
                f"could not sample {count} pairs with min_hops={min_hops}"
            )
        s = rng.choice(pool)
        t = rng.choice(pool)
        if s == t:
            continue
        if min_hops > 0:
            hops = _bfs_limited(graph, s, t, min_hops)
            if hops is not None and hops < min_hops:
                continue
        pairs.append((s, t))
    return pairs


def _bfs_limited(graph, source: int, target: int, limit: int) -> Optional[int]:
    """Hop distance from source to target if it is < ``limit``, else None."""
    if source == target:
        return 0
    hops = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if hops[v] + 1 >= limit:
            continue
        for u, _w in graph.out_items(v):
            if u in hops:
                continue
            if u == target:
                return hops[v] + 1
            hops[u] = hops[v] + 1
            queue.append(u)
    return None
