"""Incremental single-source best-path maintenance.

The hub index keeps one best-path tree per hub per direction.  Rebuilding a
tree on every graph update would dominate ingestion cost, so this module
maintains each tree *incrementally*:

* **insertions** only ever improve costs, so a bounded Dijkstra pass seeded at
  the inserted edge's head repairs the tree (sound for any monotone
  :class:`~repro.core.semiring.PathSemiring`);
* **deletions** under the additive :class:`ShortestDistance` algebra use the
  Ramalingam–Reps two-phase repair: find the affected region (vertices whose
  best path ran through the deleted edge and have no surviving tight parent),
  reset it, and re-run Dijkstra from the region's boundary.  Soundness
  requires strictly positive weights (enforced by
  :class:`~repro.graph.DynamicGraph`), which makes the tight-edge graph
  acyclic.
* **deletions** under non-additive algebras (bottleneck capacity) are handled
  by marking the tree dirty and rebuilding lazily before the next read —
  tight-edge ties make the affected-region argument unsound there, and
  correctness beats cleverness.

The maintainer reads the *live* graph, so callers must keep graph state
consistent with each notification: mutate first, notify second — and a
weight change must be executed as a true remove-then-reinsert (delete the
edge, notify the deletion, add the edge with the new weight, notify the
insertion).  Notifying a deletion while the edge still exists with a new
weight breaks the repair's assumption that deletions never improve costs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.core.semiring import PathSemiring, ShortestDistance
from repro.errors import IndexStateError


class IncrementalBestPath:
    """Best-path costs from one source vertex, maintained under edge churn.

    Parameters
    ----------
    graph:
        A live :class:`~repro.graph.DynamicGraph` (or anything with the
        traversal protocol).  Held by reference — the maintainer always reads
        current adjacency.
    source:
        The tree root (a hub).  Must exist in the graph and must not be
        removed while the maintainer is alive.
    semiring:
        The cost algebra.
    direction:
        ``"forward"`` maintains costs *from* the source along arc directions;
        ``"backward"`` maintains costs *to* the source (i.e. runs on the
        reversed graph).  Irrelevant for undirected graphs.
    """

    __slots__ = ("_graph", "_source", "_semiring", "_forward", "_costs",
                 "_dirty", "_touched", "_full", "settled_last_op")

    def __init__(
        self,
        graph,
        source: int,
        semiring: PathSemiring,
        direction: str = "forward",
    ) -> None:
        if direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward/backward, got {direction!r}")
        if not graph.has_vertex(source):
            raise IndexStateError(f"source vertex {source} not in graph")
        self._graph = graph
        self._source = source
        self._semiring = semiring
        self._forward = direction == "forward"
        self._costs: Dict[int, float] = {}
        self._dirty = False
        # What the next freeze must re-read: the vertices whose cost was
        # written or dropped since the last drain, or everything (`_full`)
        # after a wholesale rebuild — the initial one included.
        self._touched: Set[int] = set()
        self._full = True
        #: vertices touched by the most recent operation (maintenance-cost metric)
        self.settled_last_op = 0
        self.rebuild()

    @classmethod
    def from_cost_table(
        cls,
        graph,
        source: int,
        semiring: PathSemiring,
        direction: str,
        costs: Mapping,
        copy: bool = True,
    ) -> "IncrementalBestPath":
        """Adopt a previously computed cost table without rebuilding.

        The caller asserts the table matches the graph (persistence restore
        path); a wrong table silently corrupts later queries, so load-time
        verification is the persistence layer's job.  With ``copy=False``
        the mapping is adopted by reference — only valid for *frozen* trees
        that will never be notified of updates (the publish path, where the
        mapping is structurally shared across versions).
        """
        tree = cls.__new__(cls)
        if direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward/backward, got {direction!r}")
        if not graph.has_vertex(source):
            raise IndexStateError(f"source vertex {source} not in graph")
        tree._graph = graph
        tree._source = source
        tree._semiring = semiring
        tree._forward = direction == "forward"
        tree._costs = dict(costs) if copy else costs
        tree._dirty = False
        tree._touched = set()
        tree._full = True
        tree.settled_last_op = 0
        return tree

    # -- introspection ---------------------------------------------------------

    @property
    def source(self) -> int:
        return self._source

    @property
    def semiring(self) -> PathSemiring:
        return self._semiring

    @property
    def direction(self) -> str:
        return "forward" if self._forward else "backward"

    @property
    def dirty(self) -> bool:
        """True when a lazy rebuild is pending (non-additive deletions)."""
        return self._dirty

    @property
    def num_reachable(self) -> int:
        self.ensure_fresh()
        return len(self._costs)

    def cost(self, vertex: int) -> float:
        """Current best cost for ``vertex`` (the algebra's unreachable value
        if no path exists)."""
        self.ensure_fresh()
        return self._costs.get(vertex, self._semiring.unreachable)

    def costs(self) -> Dict[int, float]:
        """Copy of the reachable-cost table (test/diagnostic use)."""
        self.ensure_fresh()
        return dict(self._costs)

    def raw_cost_table(self) -> Mapping:
        """The live cost table, *without* a freshness check.

        Only the hub index's bound evaluators use this, after calling
        :meth:`ensure_fresh` once per query instead of per lookup.
        """
        return self._costs

    # -- traversal helpers ---------------------------------------------------------

    def _succ(self, vertex: int):
        return (self._graph.out_items(vertex) if self._forward
                else self._graph.in_items(vertex))

    def _pred(self, vertex: int):
        return (self._graph.in_items(vertex) if self._forward
                else self._graph.out_items(vertex))

    # -- full rebuild ----------------------------------------------------------------

    def ensure_fresh(self) -> None:
        if self._dirty:
            self.rebuild()

    def rebuild(self) -> None:
        """Recompute the whole tree with Dijkstra.  O((V+E) log V).

        The queue is ``heapq`` with lazy deletion, as in every search loop:
        a vertex is pushed again only with a strictly better cost, hence its
        live entry pops first, in ``(priority, id)`` order, and every later
        one finds it settled.
        """
        sr = self._semiring
        extend, is_better, priority = sr.extend, sr.is_better, sr.priority
        succ = self._graph.out_items if self._forward else self._graph.in_items
        source = self._source
        costs: Dict[int, float] = {source: sr.source_value}
        heap = [(priority(sr.source_value), source)]
        done = set()
        while heap:
            v = heappop(heap)[1]
            if v in done:
                continue
            done.add(v)
            base = costs[v]
            for u, w in succ(v):
                if u in done:
                    continue
                cand = extend(base, w)
                if u not in costs or is_better(cand, costs[u]):
                    costs[u] = cand
                    heappush(heap, (priority(cand), u))
        self._costs = costs
        self._dirty = False
        self._full = True
        self.settled_last_op = len(done)

    # -- touched vertices (drained by HubIndex.freeze) ---------------------------

    def drain_touched(self) -> Tuple[bool, Set[int]]:
        """``(full, touched)`` since the last drain, and reset both.

        ``touched`` names every vertex whose cost was written or dropped,
        net no-ops included (the freeze filters those against the previous
        frozen table); ``full=True`` means the table was rebuilt wholesale
        and the caller must copy all of it.  Forces any pending lazy rebuild
        first, so the drained state matches what queries would observe.
        """
        self.ensure_fresh()
        full, touched = self._full, self._touched
        self._full = False
        self._touched = set()
        return full, touched

    # -- incremental updates -------------------------------------------------------

    def on_edge_inserted(self, u: int, v: int, weight: float) -> None:
        """Repair after the arc ``u → v`` (weight ``weight``) was added.

        For undirected graphs the caller notifies once; the symmetric arc is
        handled by a second seed.
        """
        if self._dirty:
            # A rebuild is already pending; it will see this edge.
            self.settled_last_op = 0
            return
        seeds = [self._seed_for_arc(u, v, weight)]
        if not self._graph.directed and u != v:
            seeds.append(self._seed_for_arc(v, u, weight))
        seeds = [s for s in seeds if s is not None]
        if not seeds:
            # No improving arc (the common case): nothing can change.
            self.settled_last_op = 0
            return
        self._relax(seeds)

    def _seed_for_arc(self, u: int, v: int, weight: float):
        """Candidate (head, cost) induced by arc u→v, or None if no improvement."""
        sr = self._semiring
        tail, head = (u, v) if self._forward else (v, u)
        base = self._costs.get(tail)
        if base is None:
            return None
        cand = sr.extend(base, weight)
        current = self._costs.get(head, sr.unreachable)
        if sr.is_better(cand, current):
            return head, cand
        return None

    def _relax(self, seeds: Iterable[Tuple[int, float]]) -> None:
        """Bounded Dijkstra from improvement seeds."""
        sr = self._semiring
        costs = self._costs
        touch = self._touched.add
        # `pending` holds each queued vertex's best candidate, always better
        # than its stored cost; an entry whose vertex is no longer pending
        # was superseded by a better one that popped first.
        heap: list = []
        pending: Dict[int, float] = {}
        for vertex, cand in seeds:
            if vertex not in pending or sr.is_better(cand, pending[vertex]):
                pending[vertex] = cand
                heappush(heap, (sr.priority(cand), vertex))
        settled = 0
        while heap:
            v = heappop(heap)[1]
            cand = pending.pop(v, None)
            if cand is None:
                continue
            touch(v)
            costs[v] = cand
            settled += 1
            for u, w in self._succ(v):
                nxt = sr.extend(cand, w)
                best_known = pending.get(u, costs.get(u, sr.unreachable))
                if sr.is_better(nxt, best_known):
                    pending[u] = nxt
                    heappush(heap, (sr.priority(nxt), u))
        self.settled_last_op = settled

    def on_edge_deleted(self, u: int, v: int, old_weight: float) -> None:
        """Repair after the arc ``u → v`` (old weight ``old_weight``) was removed."""
        if self._dirty:
            self.settled_last_op = 0
            return
        if not isinstance(self._semiring, ShortestDistance):
            # Tight-edge ties (e.g. bottleneck plateaus) break the affected-
            # region argument; rebuild lazily instead.
            self._dirty = True
            self.settled_last_op = 0
            return
        arcs = [(u, v)]
        if not self._graph.directed and u != v:
            arcs.append((v, u))
        sr = self._semiring
        costs = self._costs
        seeds: List[int] = []
        for a, b in arcs:
            tail, head = (a, b) if self._forward else (b, a)
            base = costs.get(tail)
            if base is None or head not in costs:
                continue
            if costs[head] == sr.extend(base, old_weight):
                # The deleted arc was tight for head: head may have depended on it.
                seeds.append(head)
        if not seeds:
            self.settled_last_op = 0
            return
        affected = self._affected_region(seeds)
        if not affected:
            self.settled_last_op = 0
            return
        self._repair_region(affected)

    def _affected_region(self, seeds: List[int]) -> set:
        """Vertices whose stored cost depended on the deleted arc(s)."""
        sr = self._semiring
        costs = self._costs
        affected: set = set()
        worklist: List[int] = list(seeds)
        while worklist:
            y = worklist.pop()
            if y in affected or y == self._source or y not in costs:
                continue
            # Supported if some unaffected predecessor still yields our cost.
            supported = False
            for z, w in self._pred(y):
                if z in affected:
                    continue
                zc = costs.get(z)
                if zc is not None and sr.extend(zc, w) == costs[y]:
                    supported = True
                    break
            if supported:
                continue
            affected.add(y)
            # Tight successors may have depended on y; they get re-examined
            # even if previously judged supported (their support may be y).
            yc = costs[y]
            for x, w in self._succ(y):
                xc = costs.get(x)
                if xc is not None and xc == sr.extend(yc, w) and x not in affected:
                    worklist.append(x)
        return affected

    def _repair_region(self, affected: set) -> None:
        """Clear the affected region and re-run Dijkstra from its boundary."""
        sr = self._semiring
        costs = self._costs
        self._touched.update(affected)
        for a in affected:
            costs.pop(a, None)
        heap: list = []
        pending: Dict[int, float] = {}
        for a in affected:
            best = sr.unreachable
            for z, w in self._pred(a):
                zc = costs.get(z)
                if zc is None or z in affected:
                    continue
                cand = sr.extend(zc, w)
                if sr.is_better(cand, best):
                    best = cand
            if sr.is_reachable(best):
                pending[a] = best
                heappush(heap, (sr.priority(best), a))
        settled = 0
        while heap:
            v = heappop(heap)[1]
            cand = pending.pop(v, None)
            if cand is None:
                continue  # superseded, as in `_relax`
            costs[v] = cand
            settled += 1
            for x, w in self._succ(v):
                if x not in affected:
                    continue  # unaffected costs are already optimal
                nxt = sr.extend(cand, w)
                best_known = pending.get(x, costs.get(x, sr.unreachable))
                if sr.is_better(nxt, best_known):
                    pending[x] = nxt
                    heappush(heap, (sr.priority(nxt), x))
        self.settled_last_op = settled + len(affected)
