"""Independent correctness oracle: a mirror graph and a textbook Dijkstra.

Shares no code with the program (only the benchmark's own generators).  The mirror applies the same update tuples
the workload feeds the program, so at any point of a replay it *is* the graph
of the epoch an answer claims; :meth:`Mirror.dijkstra` then gives the
distances that answer must equal bit for bit (weights are dyadic, see
``perf/inputs.py``, so float sums are exact in any order).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from perf.inputs import adjacency

INF = math.inf


class Mirror:
    """Undirected weighted graph over vertices ``0 .. n-1``."""

    def __init__(self, num_vertices: int, edges: Sequence[Tuple[int, int, float]]) -> None:
        self.adj: List[Dict[int, float]] = adjacency(num_vertices, edges)

    def apply(self, update: Tuple) -> bool:
        """Apply one update; False when it changed nothing (the program does
        not start a new epoch for a no-op either)."""
        if update[0] == "+":
            _k, u, v, w = update
            if self.adj[u].get(v) == w:
                return False
            self.adj[u][v] = w
            self.adj[v][u] = w
            return True
        _k, u, v = update
        self.adj[v].pop(u, None)
        return self.adj[u].pop(v, None) is not None

    def dijkstra(self, source: int,
                 targets: Optional[Sequence[int]] = None) -> Dict[int, float]:
        """Settled distances from ``source``: the whole component, or until
        every vertex of ``targets`` is settled."""
        adj = self.adj
        waiting = set(targets) if targets is not None else None
        dist: Dict[int, float] = {}
        heap = [(0.0, source)]
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            d, v = pop(heap)
            if v in dist:
                continue
            dist[v] = d
            if waiting is not None:
                waiting.discard(v)
                if not waiting:
                    break
            for u, w in adj[v].items():
                if u not in dist:
                    push(heap, (d + w, u))
        return dist

    def distance(self, source: int, target: int) -> float:
        """Bidirectional Dijkstra (the graph is undirected): settle from both
        ends alternately, stop when the two frontiers' minima add up to no
        less than the best meeting found."""
        if source == target:
            return 0.0
        adj = self.adj
        dist = ({source: 0.0}, {target: 0.0})
        done: Tuple[set, set] = (set(), set())
        heaps = ([(0.0, source)], [(0.0, target)])
        best = INF
        side = 0
        while heaps[0] and heaps[1]:
            if heaps[0][0][0] + heaps[1][0][0] >= best:
                break
            d, v = heapq.heappop(heaps[side])
            if v not in done[side]:
                done[side].add(v)
                mine, other = dist[side], dist[1 - side]
                for u, w in adj[v].items():
                    nd = d + w
                    if nd < mine.get(u, INF):
                        mine[u] = nd
                        heapq.heappush(heaps[side], (nd, u))
                        if u in other and nd + other[u] < best:
                            best = nd + other[u]
            side = 1 - side
        return best

    def path_cost(self, path: Sequence[int]) -> float:
        """Cost of walking ``path`` edge by edge; ``inf`` if an edge is missing."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            w = self.adj[u].get(v)
            if w is None:
                return INF
            total += w
        return total


def check_distance(mirror: Mirror, s: int, t: int, value: float) -> Optional[str]:
    want = mirror.distance(s, t)
    if value != want:
        return f"distance({s},{t}) = {value!r}, oracle {want!r}"
    return None


def check_path(mirror: Mirror, s: int, t: int, value: float,
               path: Optional[Sequence[int]]) -> Optional[str]:
    want = mirror.distance(s, t)
    if value != want:
        return f"path({s},{t}) cost {value!r}, oracle {want!r}"
    if want == INF:
        return None if path is None else f"path({s},{t}) given for unreachable pair"
    if not path or path[0] != s or path[-1] != t:
        return f"path({s},{t}) endpoints wrong: {path!r}"
    walked = mirror.path_cost(path)
    if walked != value:
        return f"path({s},{t}) re-costs to {walked!r}, claimed {value!r}"
    return None


def check_many(mirror: Mirror, s: int, targets: Sequence[int],
               values: Dict[int, float]) -> Optional[str]:
    dist = mirror.dijkstra(s, targets)
    for t in targets:
        want = dist.get(t, INF)
        got = values.get(t, INF)
        if got != want:
            return f"many({s})[{t}] = {got!r}, oracle {want!r}"
    return None


def check_nearest(mirror: Mirror, s: int, k: int,
                  pairs: Sequence[Tuple[int, float]]) -> Optional[str]:
    """The k nearest: each claimed distance is that vertex's true distance,
    and the claimed distances are the k smallest (ties may pick either)."""
    full = mirror.dijkstra(s)
    ranked = sorted(d for v, d in full.items() if v != s)
    if len(pairs) != min(k, len(ranked)):
        return f"nearest({s},{k}) returned {len(pairs)} results"
    for v, d in pairs:
        if v == s or full.get(v, INF) != d:
            return f"nearest({s},{k}) has ({v},{d!r}), oracle {full.get(v)!r}"
    if sorted(d for _v, d in pairs) != ranked[:len(pairs)]:
        return f"nearest({s},{k}) is not the {k} smallest distances"
    return None


class _Epochs:
    """Ties the epochs answers claim to the mirror states they were checked
    against: one epoch per visible state and one state per epoch, so an
    answer computed on a stale plane cannot pass by luck of equal values."""

    def __init__(self) -> None:
        self.version = 0
        self._epoch_of: Dict[int, int] = {}
        self._version_of: Dict[int, int] = {}

    def advance(self) -> None:
        self.version += 1

    def claim(self, epoch: int) -> Optional[str]:
        version = self.version
        seen = self._version_of.get(epoch)
        if seen is not None:
            if seen != version:
                return (f"epoch {epoch} claimed for state {version}, "
                        f"first seen on state {seen}")
            return None
        other = self._epoch_of.get(version)
        if other is not None:
            return f"state {version} answered as epoch {other} and {epoch}"
        self._version_of[epoch] = version
        self._epoch_of[version] = epoch
        return None


def _check_query(mirror: Mirror, op: Tuple, value: object) -> Optional[str]:
    kind = op[0]
    if kind == "distance":
        return check_distance(mirror, op[1], op[2], value)
    if kind == "path":
        return check_path(mirror, op[1], op[2], value[0], value[1])
    if kind == "many":
        return check_many(mirror, op[1], op[2], dict(value))
    if kind == "nearest":
        return check_nearest(mirror, op[1], op[2], value)
    if kind == "map":
        for (s, t), got in zip(op[1], value):
            err = check_distance(mirror, s, t, got)
            if err:
                return err
        return None
    raise ValueError(f"unknown op kind {kind!r}")


def replay(num_vertices: int, edges: Sequence[Tuple[int, int, float]],
           ops: Sequence[Tuple], answers: Sequence[object],
           reads_published: bool) -> List[Tuple[int, str]]:
    """Check one pass's canonical answers; returns ``(op index, error)``.

    ``answers[i]`` is ``(value, epoch)`` for a query, ``(final, stale)`` for a
    round (each itself ``(value, epoch)``), ``None`` for an update, or any
    non-tuple marker for an op that failed (reported by the caller already).
    With ``reads_published`` single updates stay invisible until the next
    round publishes them; otherwise queries read the live graph.
    """
    mirror = Mirror(num_vertices, edges)
    epochs = _Epochs()
    pending: List[Tuple] = []
    errors: List[Tuple[int, str]] = []
    for i, op in enumerate(ops):
        kind = op[0]
        answer = answers[i]
        if kind == "update":
            if reads_published:
                pending.append(op[1])
            elif mirror.apply(op[1]):
                epochs.advance()
            continue
        if kind == "round":
            s, t = op[2]
            ok = isinstance(answer, tuple)
            if ok and answer[1]:
                # Answers from before the new epoch became visible: they must
                # be right for the *previous* published state.
                old = mirror.distance(s, t) if reads_published else None
                for value, epoch in answer[1]:
                    err = epochs.claim(epoch)
                    if err is None and old is not None and value != old:
                        err = f"stale probe ({s},{t}) = {value!r}, oracle {old!r}"
                    if err:
                        errors.append((i, err))
            changed = [mirror.apply(update) for update in pending]
            pending.clear()
            changed += [mirror.apply(update) for update in op[1]]
            if any(changed):
                epochs.advance()
            if ok:
                value, epoch = answer[0]
                err = (check_distance(mirror, s, t, value)
                       or epochs.claim(epoch))
                if err:
                    errors.append((i, err))
            continue
        if not isinstance(answer, tuple):
            continue
        value, epoch = answer
        err = _check_query(mirror, op, value)
        if err is None:
            for e in (epoch if kind == "map" else (epoch,)):
                err = err or epochs.claim(e)
        if err:
            errors.append((i, err))
    return errors
