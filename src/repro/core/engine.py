"""The pruned bidirectional pairwise query engine.

One search routine serves every pruning policy the evaluation compares:

* ``NONE`` — plain bidirectional best-first search (meet-in-the-middle
  termination only); the index-free baseline.
* ``UPPER_ONLY`` — the search is seeded with the hub-index witness bound
  ``cost(s→h→t)`` and discards frontier vertices whose own cost already
  cannot beat it.  This models the "existing upper-bound-only" systems the
  paper measures at roughly 50% activation savings.
* ``UPPER_AND_LOWER`` — SGraph: additionally, every popped vertex ``v`` is
  tested against ``concat(g(v), residual(v))`` where ``residual(v)`` is the
  index's optimistic bound on the *remaining* cost.  Vertices that provably
  cannot improve the incumbent are discarded, and queries whose lower and
  upper bounds already coincide are answered with zero traversal.

The routine is generic over :class:`~repro.core.semiring.PathSemiring`, so
the same code answers shortest-distance and bottleneck queries.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bounds import DenseManyBounds, DenseQueryBounds, QueryBounds
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.paths import hub_witness_path, stitch_bidirectional
from repro.core.pruning import PruningPolicy
from repro.core.semiring import SHORTEST_DISTANCE, PathSemiring, ShortestDistance
from repro.core.stats import QueryStats
from repro.core.workspace import SearchWorkspace
from repro.errors import ConfigError, QueryError
from repro.utils.pqueue import IndexedHeap


class PairwiseEngine:
    """Answers pairwise best-cost queries over one graph (live or snapshot).

    Parameters
    ----------
    graph:
        Anything implementing the traversal protocol (``out_items`` /
        ``in_items`` / ``has_vertex``).
    index:
        A :class:`HubIndex` over the *same* graph, required for the two
        index-using policies.
    policy:
        The pruning policy; accepts the enum or its string value.
    semiring:
        Cost algebra; defaults to the index's algebra when an index is given.
    dense:
        An optional :class:`DensePlane` (CSR adjacency + numpy hub tables)
        over the same graph.  When present, :meth:`best_cost`,
        :meth:`feasible` and :meth:`within_budget` run the flat-array search
        path instead of the dict path; answers are identical, only faster.
        Min-plus (distance/hops) algebra only.
    dense_factory:
        Zero-argument callable producing the :class:`DensePlane` on demand.
        The freeze path uses this to keep publishing O(Δ): the plane is
        built (and cached) at the *first dense query*, not at construction.
    workspace:
        An optional :class:`SearchWorkspace` to adopt.  Long-lived owners
        (the SGraph facade's frozen engines, serving workers) pass the same
        workspace into each epoch's fresh engine so the O(V) search state
        survives epoch handoff; when omitted the engine allocates its own
        at the first dense query.
    reuse_workspace:
        When False every dense query runs in a freshly allocated
        workspace — the pre-workspace cold path, kept for benchmarking the
        reuse win (E24) and for bit-identity reference runs.
    """

    def __init__(
        self,
        graph,
        index: Optional[HubIndex] = None,
        policy: "PruningPolicy | str" = PruningPolicy.UPPER_AND_LOWER,
        semiring: Optional[PathSemiring] = None,
        dense: Optional[DensePlane] = None,
        dense_factory: Optional[Callable[[], DensePlane]] = None,
        workspace: Optional[SearchWorkspace] = None,
        reuse_workspace: bool = True,
    ) -> None:
        self._graph = graph
        self._policy = PruningPolicy.parse(policy)
        if (self._policy.uses_index and index is None
                and dense is None and dense_factory is None):
            # A dense plane carries its own hub tables, so index-using
            # policies can run index-free over it (the shm worker path);
            # only the all-dict configuration strictly needs the index.
            raise ConfigError(f"policy {self._policy.value} requires a hub index")
        if index is not None and semiring is not None and index.semiring is not semiring:
            raise ConfigError(
                "explicit semiring conflicts with the index's semiring"
            )
        if index is not None and index.graph is not graph:
            # A mismatched pair silently returns wrong answers (bounds from
            # one graph pruning a search over another), so it is an error.
            raise ConfigError(
                "hub index was built over a different graph object"
            )
        self._index = index
        if semiring is not None:
            self._semiring = semiring
        elif index is not None:
            self._semiring = index.semiring
        else:
            self._semiring = SHORTEST_DISTANCE
        if dense is not None and dense_factory is not None:
            raise ConfigError("pass dense or dense_factory, not both")
        if (dense is not None or dense_factory is not None) and not isinstance(
            self._semiring, ShortestDistance
        ):
            raise ConfigError(
                "the dense serving plane only supports the distance algebra"
            )
        self._dense = dense
        self._dense_factory = dense_factory
        self._ws = workspace
        self._reuse_workspace = reuse_workspace

    def _workspace_for(self, num_vertices: int) -> SearchWorkspace:
        """The workspace one dense search should run in.

        Steady state returns the engine's bound workspace (allocating it on
        first use).  A fresh throwaway is handed out when reuse is disabled
        (cold-reference mode) or, defensively, if the bound workspace is
        somehow still claimed — dense verbs never nest today, but a stale
        ``in_use`` flag must degrade to a slow query, not a wrong one.
        """
        if not self._reuse_workspace:
            return SearchWorkspace(num_vertices)
        ws = self._ws
        if ws is None:
            ws = self._ws = SearchWorkspace(num_vertices)
        elif ws.in_use:
            return SearchWorkspace(num_vertices)
        return ws

    @property
    def workspace(self) -> Optional[SearchWorkspace]:
        """The engine's bound workspace (None until the first dense query)."""
        return self._ws

    def workspace_stats(self) -> Dict[str, int]:
        """Lifetime reuse counters of the bound workspace (zeros if unbound)."""
        return (self._ws or SearchWorkspace()).stats_row()

    def _dense_ready(self) -> Optional[DensePlane]:
        """The dense plane, forcing the lazy factory exactly once."""
        if self._dense is None and self._dense_factory is not None:
            factory = self._dense_factory
            self._dense_factory = None
            self._dense = factory()
        return self._dense

    @property
    def policy(self) -> PruningPolicy:
        return self._policy

    @property
    def semiring(self) -> PathSemiring:
        return self._semiring

    @property
    def index(self) -> Optional[HubIndex]:
        return self._index

    @property
    def dense_plane(self) -> Optional[DensePlane]:
        """The dense plane serving this engine (forces the lazy build)."""
        return self._dense_ready()

    # -- public query surface ---------------------------------------------------

    def best_cost(
        self, source: int, target: int, tolerance: float = 0.0
    ) -> Tuple[float, QueryStats]:
        """Best path cost from source to target, with counters.

        ``tolerance`` enables bounded-error approximation (distance algebra
        only): the returned value is the cost of a real path and is at most
        ``(1 + tolerance)`` times the optimum.  A nonzero tolerance lets the
        bound gap close earlier — often answering straight from the index —
        which trades a sliver of accuracy for another large latency factor.
        """
        value, _path, stats = self._kernel()(source, target,
                                             tolerance=tolerance)
        return value, stats

    def feasible(self, source: int, target: int) -> Tuple[bool, QueryStats]:
        """Whether any source→target path exists (reachability)."""
        value, _path, stats = self._kernel()(source, target,
                                             stop_at_feasible=True)
        return self._semiring.is_reachable(value), stats

    def within_budget(
        self, source: int, target: int, budget: float
    ) -> Tuple[bool, QueryStats]:
        """Whether the best cost is at least as good as ``budget``.

        The budget-threshold query ("is t within distance 10 of s?", "is
        there a path of capacity ≥ 5?") is where the bound pair shines: a
        witness within budget answers *yes* and a residual beyond it answers
        *no*, both without traversal.  Only indecisive pairs fall back to a
        full search.
        """
        sr = self._semiring
        stats = QueryStats()
        graph = self._graph
        for v in (source, target):
            if not graph.has_vertex(v):
                raise QueryError(f"query endpoint {v} is not in the graph")
        if source == target:
            stats.answered_by_index = True
            return not sr.is_better(budget, sr.source_value), stats
        plane = self._dense_ready()
        if self._policy.uses_index:
            if plane is not None:
                csr = plane.csr
                bounds = DenseQueryBounds(
                    plane.tables, csr.dense_id(source), csr.dense_id(target)
                )
            else:
                assert self._index is not None
                bounds = QueryBounds(self._index, source, target)
            upper = bounds.upper_bound
            if upper != sr.unreachable and not sr.is_better(budget, upper):
                # The witness already meets the budget.
                stats.answered_by_index = True
                return True, stats
            if self._policy.uses_lower_bounds:
                lower = bounds.lower_bound()
                if sr.is_better(budget, lower):
                    # Even the optimistic bound misses the budget.
                    stats.answered_by_index = True
                    return False, stats
        value, _path, search_stats = self._kernel()(source, target)
        stats.merge(search_stats)
        stats.answered_by_index = search_stats.answered_by_index
        return sr.is_reachable(value) and not sr.is_better(budget, value), stats

    def best_path(
        self, source: int, target: int
    ) -> Tuple[float, Optional[list], QueryStats]:
        """Exact best cost plus a witness path (None when unreachable).

        The same search as :meth:`best_cost` with two differences: ties
        survive every prune (so at least one optimal path remains
        discoverable), and when the hub witness itself is optimal the path
        is materialized by descending the hub trees instead of searching.
        Under the non-additive algebras the witness shortcut is skipped
        (cost plateaus make tree descent ambiguous) and the search always
        produces the path.

        When a dense plane serves this engine the parent chains live in
        flat arrays in dense-id space; ids translate back only when the
        final path is stitched.  The witness-shortcut fallback still
        descends the dict hub trees, so a dense path engine under an
        index-using policy needs its index.
        """
        if (self._dense_ready() is not None and self._policy.uses_index
                and self._index is None):
            raise ConfigError(
                "path queries under an index-using policy need the hub "
                "index for witness reconstruction"
            )
        return self._kernel()(source, target, want_path=True)

    def expand(
        self,
        source: int,
        max_results: Optional[int],
        radius: Optional[float],
    ) -> list:
        """Truncated Dijkstra from ``source`` (the nearest/within verbs).

        Returns ``(vertex, distance)`` pairs in non-decreasing distance
        order, source excluded.  Over a dense plane the search runs in the
        engine's reusable workspace (O(touched) setup); without one it
        falls back to the dict-plane reference expansion.
        """
        plane = self._dense_ready()
        if plane is None:
            return expand_from_graph(self._graph, source, max_results, radius)
        if not self._graph.has_vertex(source):
            raise QueryError(f"query endpoint {source} is not in the graph")
        ws = self._workspace_for(plane.csr.num_vertices)
        return expand_from_csr(
            plane.csr, source, max_results, radius, workspace=ws
        )

    def one_to_many(
        self, source: int, targets: Sequence[int]
    ) -> Tuple[Dict[int, float], QueryStats]:
        """Best costs from ``source`` to every target, in one pass.

        Amortizes work across targets three ways: targets whose index bounds
        already coincide are answered with zero traversal; the rest share a
        single forward search; and each target *finalizes early* — as soon as
        the search frontier can no longer beat that target's hub witness,
        the witness is the answer.  Returns a dict (unreachable targets map
        to the algebra's unreachable value) and one combined stats record.

        When a dense plane serves this engine the whole routine runs on
        flat arrays (see :meth:`_one_to_many_dense`); answers and stats are
        identical, only faster.
        """
        if self._dense_ready() is not None:
            return self._one_to_many_dense(source, targets)
        graph = self._graph
        sr = self._semiring
        stats = QueryStats()
        if not graph.has_vertex(source):
            raise QueryError(f"query endpoint {source} is not in the graph")
        results: Dict[int, float] = {}
        incumbents: Dict[int, float] = {}
        target_bounds: Dict[int, QueryBounds] = {}
        unreachable = sr.unreachable
        for t in targets:
            if not graph.has_vertex(t):
                raise QueryError(f"query endpoint {t} is not in the graph")
            if t in results or t in incumbents:
                continue
            if t == source:
                results[t] = sr.source_value
                continue
            witness = unreachable
            if self._policy.uses_index:
                assert self._index is not None
                bounds = QueryBounds(self._index, source, t)
                witness = bounds.upper_bound
                if self._policy.uses_lower_bounds:
                    lower = bounds.lower_bound()
                    if lower == unreachable:
                        results[t] = unreachable
                        continue
                    if witness != unreachable and lower == witness:
                        results[t] = witness
                        continue
                    target_bounds[t] = bounds
            incumbents[t] = witness
        if not incumbents:
            stats.answered_by_index = True
            return results, stats

        remaining = set(incumbents)
        use_lb = self._policy.uses_lower_bounds
        labels = {source: sr.source_value}
        settled: set = set()
        heap = IndexedHeap()
        heap.push(source, sr.priority(sr.source_value))
        while heap and remaining:
            v, _priority = heap.pop()
            cost_v = labels[v]
            settled.add(v)
            # Finalize targets the frontier can no longer improve on.
            finished = [
                t for t in remaining
                if not sr.is_better(cost_v, incumbents[t])
            ]
            for t in finished:
                results[t] = incumbents[t]
                remaining.discard(t)
            if not remaining:
                break
            if v in remaining:
                results[v] = cost_v
                remaining.discard(v)
                if not remaining:
                    break
            if use_lb:
                # Expand only vertices that can still improve on *some*
                # remaining target's incumbent — the one-to-many form of the
                # lower-bound prune.
                useful = False
                for t in remaining:
                    if not target_bounds[t].prunable_forward(
                        v, cost_v, incumbents[t]
                    ):
                        useful = True
                        break
                if not useful:
                    stats.pruned_by_lower_bound += 1
                    continue
            stats.activations += 1
            for u, w in graph.out_items(v):
                stats.relaxations += 1
                if u in settled:
                    continue
                candidate = sr.extend(cost_v, w)
                current = labels.get(u)
                if current is None or sr.is_better(candidate, current):
                    labels[u] = candidate
                    heap.push(u, sr.priority(candidate))
                    stats.pushes += 1
                    # A better label for a live target tightens its incumbent.
                    if u in remaining and sr.is_better(candidate, incumbents[u]):
                        incumbents[u] = candidate
        for t in remaining:
            results[t] = incumbents[t]
        return results, stats

    def _one_to_many_dense(
        self, source: int, targets: Sequence[int]
    ) -> Tuple[Dict[int, float], QueryStats]:
        """Flat-array mirror of :meth:`one_to_many` over the dense plane.

        Same amortization, same answers, same stats.  The per-target dict
        bookkeeping of the reference path becomes dense-id arrays: one
        shared ``g``-label list, a ``slot`` array mapping dense ids to
        active-target positions (swap-removed as targets finalize), and
        per-hub bound math batched over the whole target set by
        :class:`DenseManyBounds` — index-closable targets drop out before
        the search starts, and the finalize-early / lower-bound prune
        checks scan flat incumbent and residual lists instead of probing
        dicts per target.  Min-plus algebra only.
        """
        plane = self._dense
        csr = plane.csr
        graph = self._graph
        stats = QueryStats()
        if not graph.has_vertex(source):
            raise QueryError(f"query endpoint {source} is not in the graph")
        inf = math.inf
        results: Dict[int, float] = {}
        seen: set = set()
        uniq: List[int] = []
        for t in targets:
            if not graph.has_vertex(t):
                raise QueryError(f"query endpoint {t} is not in the graph")
            if t in seen:
                continue
            seen.add(t)
            if t == source:
                results[t] = 0.0
                continue
            uniq.append(t)

        s = csr.dense_id(source)
        use_lb = self._policy.uses_lower_bounds
        act_t: List[int] = []        # dense ids of targets the search carries
        act_inc: List[float] = []    # their incumbents (hub witness seeds)
        bounds: Optional[DenseManyBounds] = None
        if uniq:
            t_dense = [csr.dense_id(t) for t in uniq]
            if self._policy.uses_index:
                bounds = DenseManyBounds(plane.tables, s, t_dense)
                ubs = bounds.upper_bounds()
                if use_lb:
                    lbs = bounds.lower_bounds()
                    for i, t in enumerate(uniq):
                        ub = ubs[i]
                        lb = lbs[i]
                        if lb == inf:
                            # The index proves there is no path at all.
                            results[t] = inf
                        elif ub != inf and lb == ub:
                            # Bounds coincide: the witness is the answer.
                            results[t] = ub
                        else:
                            act_t.append(t_dense[i])
                            act_inc.append(ub)
                else:
                    act_t = t_dense
                    act_inc = list(ubs)
            else:
                act_t = t_dense
                act_inc = [inf] * len(t_dense)
        if not act_t:
            stats.answered_by_index = True
            return results, stats
        act_res: List[list] = (
            bounds.residual_lists(act_t) if use_lb else []
        )

        # Snapshot the active target ids before the search swap-removes
        # them: the slot map is the one workspace array not covered by the
        # journal, so it is reset from this list in `finally`.
        slot_ids = list(act_t)
        ws = self._workspace_for(csr.num_vertices)
        stats.workspace_hits = 1 if ws.acquire(csr.num_vertices) else 0
        activations = relaxations = pushes = pruned_lb = 0
        try:
            g = ws.g_f
            settled = ws.settled_f
            # Dense id -> position in the active lists (-1 when not active);
            # the array form of the dict path's `remaining` membership test.
            slot = ws.ensure_slot()
            for i, td in enumerate(act_t):
                slot[td] = i
            ids = csr.ids
            indptr, indices, weights = csr.out_views
            # Lazy-deletion heapq on the workspace's list, as in
            # `_search_dense`; forward-only, so a superseded entry is simply
            # skipped when it surfaces.
            heap = ws.heap_f
            journal = ws.journal_f
            journal.append(s)
            g[s] = 0.0
            heap.append((0.0, s))
            m = len(act_t)
            while heap and m:
                cost_v, v = heappop(heap)
                if settled[v]:
                    continue
                settled[v] = 1
                # Finalize targets the frontier can no longer improve on
                # (swap-removal keeps the active lists packed; the answer
                # set is order-independent, so removal order does not
                # matter).
                i = 0
                while i < m:
                    if cost_v >= act_inc[i]:
                        td = act_t[i]
                        results[ids[td]] = act_inc[i]
                        slot[td] = -1
                        m -= 1
                        if i != m:
                            act_t[i] = act_t[m]
                            act_inc[i] = act_inc[m]
                            if use_lb:
                                act_res[i] = act_res[m]
                            slot[act_t[i]] = i
                        act_t.pop()
                        act_inc.pop()
                        if use_lb:
                            act_res.pop()
                    else:
                        i += 1
                if not m:
                    break
                i = slot[v]
                if i >= 0:
                    results[ids[v]] = cost_v
                    slot[v] = -1
                    m -= 1
                    if i != m:
                        act_t[i] = act_t[m]
                        act_inc[i] = act_inc[m]
                        if use_lb:
                            act_res[i] = act_res[m]
                        slot[act_t[i]] = i
                    act_t.pop()
                    act_inc.pop()
                    if use_lb:
                        act_res.pop()
                    if not m:
                        break
                if use_lb:
                    # Expand only vertices that can still improve on *some*
                    # remaining target's incumbent.  `residual >= inc - g(v)`
                    # is the dict path's full prunable_forward decision: the
                    # clamped residual covers `need <= 0` and `inf` marks a
                    # proof of unreachability (inf >= inf prunes too).
                    useful = False
                    for i in range(m):
                        if act_res[i][v] < act_inc[i] - cost_v:
                            useful = True
                            break
                    if not useful:
                        pruned_lb += 1
                        continue
                activations += 1
                start, stop = indptr[v], indptr[v + 1]
                relaxations += stop - start
                for k in range(start, stop):
                    u = indices[k]
                    if settled[u]:
                        continue
                    candidate = cost_v + weights[k]
                    known = g[u]
                    if candidate < known:
                        if known == inf:
                            journal.append(u)
                        g[u] = candidate
                        heappush(heap, (candidate, u))
                        pushes += 1
                        # A better label for a live target tightens its
                        # incumbent.
                        j = slot[u]
                        if j >= 0 and candidate < act_inc[j]:
                            act_inc[j] = candidate
            for i in range(m):
                results[ids[act_t[i]]] = act_inc[i]
            return results, stats
        finally:
            slot = ws.slot
            if slot is not None:
                for td in slot_ids:
                    slot[td] = -1
            stats.activations = activations
            stats.relaxations = relaxations
            stats.pushes = pushes
            stats.pruned_by_lower_bound = pruned_lb
            stats.workspace_resets = 1
            stats.touched_reset = ws.release()

    # -- the search -------------------------------------------------------------

    def _kernel(self):
        """The bidirectional search of whichever plane serves this engine."""
        return self._search if self._dense_ready() is None else self._search_dense

    def _search(
        self,
        source: int,
        target: int,
        stop_at_feasible: bool = False,
        tolerance: float = 0.0,
        want_path: bool = False,
    ) -> Tuple[float, Optional[list], QueryStats]:
        """The pruned bidirectional search, dict plane, any algebra.

        Returns ``(value, path, stats)``; ``path`` is None unless
        ``want_path``.  Path mode is the same search with ties kept: a
        vertex (or a meet) that merely *equals* the incumbent survives,
        because the incumbent may be the hub witness and the tied vertex
        the only way to an explicit path of that cost.  The early-outs that
        answer with a value but no path (bounds coincide, any finite
        witness) are cost-mode only.  This is the reference every dense
        routine is differentially tested against, and the only search for
        the capacity and reliability algebras.
        """
        graph = self._graph
        sr = self._semiring
        stats = QueryStats()
        if tolerance < 0:
            raise ConfigError("tolerance must be non-negative")
        is_distance = isinstance(sr, ShortestDistance)
        if tolerance > 0 and not is_distance:
            raise ConfigError(
                "approximate queries are only defined for the distance algebra"
            )
        scale = 1.0 + tolerance
        for v in (source, target):
            if not graph.has_vertex(v):
                raise QueryError(f"query endpoint {v} is not in the graph")
        if source == target:
            stats.answered_by_index = True
            return sr.source_value, [source] if want_path else None, stats

        unreachable = sr.unreachable
        bounds: Optional[QueryBounds] = None
        incumbent = unreachable
        if self._policy.uses_index:
            assert self._index is not None
            bounds = QueryBounds(self._index, source, target)
            if is_distance or not want_path:
                # Seed the incumbent with the hub witness.  A path query
                # must be able to materialize an unbeaten witness from the
                # hub trees, which only the distance algebra supports.
                incumbent = bounds.upper_bound
            if self._policy.uses_lower_bounds:
                lower = bounds.lower_bound()
                if lower == unreachable:
                    # The index proves there is no path at all.
                    stats.answered_by_index = True
                    return unreachable, None, stats
                if not want_path and incumbent != unreachable:
                    # Bounds (approximately) coincide: the witness path is
                    # optimal, or within the requested tolerance of it.  For
                    # non-additive algebras only exact coincidence applies.
                    if is_distance:
                        closed = lower * scale >= incumbent
                    else:
                        closed = lower == incumbent
                    if closed:
                        stats.answered_by_index = True
                        return incumbent, None, stats
            if stop_at_feasible and incumbent != unreachable:
                # Any finite witness answers a reachability query.
                stats.answered_by_index = True
                return incumbent, None, stats

        labels_f = {source: sr.source_value}
        labels_b = {target: sr.source_value}
        parents_f: dict = {source: None}
        parents_b: dict = {target: None}
        settled_f: set = set()
        settled_b: set = set()
        heap_f = IndexedHeap()
        heap_b = IndexedHeap()
        heap_f.push(source, sr.priority(sr.source_value))
        heap_b.push(target, sr.priority(sr.source_value))
        use_ub = self._policy.uses_index
        use_lb = self._policy.uses_lower_bounds
        # With a tolerance, prune/terminate against incumbent/(1+tol): any
        # path forgone then costs at least that much, so the returned
        # incumbent is within the requested factor of the optimum.
        threshold = incumbent / scale
        best_meet = None

        while heap_f and heap_b:
            if incumbent != unreachable:
                key_f, _ = heap_f.peek()
                key_b, _ = heap_b.peek()
                frontier = sr.concat(labels_f[key_f], labels_b[key_b])
                if (sr.is_better(threshold, frontier) if want_path
                        else not sr.is_better(frontier, threshold)):
                    break
            forward = len(heap_f) <= len(heap_b)
            if forward:
                heap, labels, other_labels, settled, parents = (
                    heap_f, labels_f, labels_b, settled_f, parents_f,
                )
            else:
                heap, labels, other_labels, settled, parents = (
                    heap_b, labels_b, labels_f, settled_b, parents_b,
                )

            v, _priority = heap.pop()
            cost_v = labels[v]
            settled.add(v)

            # Meeting the other search's label yields a real s→t path.
            other = other_labels.get(v)
            if other is not None:
                candidate = sr.concat(cost_v, other)
                if sr.is_better(candidate, incumbent) or (
                    want_path and candidate == incumbent
                ):
                    incumbent = candidate
                    threshold = incumbent / scale
                    best_meet = v
                    if stop_at_feasible:
                        break

            if use_ub and incumbent != unreachable and (
                sr.is_better(threshold, cost_v) if want_path
                else not sr.is_better(cost_v, threshold)
            ):
                stats.pruned_by_upper_bound += 1
                continue
            if use_lb:
                assert bounds is not None
                prunable = (
                    bounds.prunable_forward(v, cost_v, threshold,
                                            strict=want_path)
                    if forward
                    else bounds.prunable_backward(v, cost_v, threshold,
                                                  strict=want_path)
                )
                if prunable:
                    stats.pruned_by_lower_bound += 1
                    continue

            stats.activations += 1
            neighbors = graph.out_items(v) if forward else graph.in_items(v)
            for u, w in neighbors:
                stats.relaxations += 1
                if u in settled:
                    continue
                candidate = sr.extend(cost_v, w)
                current = labels.get(u)
                if current is None or sr.is_better(candidate, current):
                    labels[u] = candidate
                    parents[u] = v
                    heap.push(u, sr.priority(candidate))
                    stats.pushes += 1

        if not want_path or incumbent == unreachable:
            return incumbent, None, stats
        if best_meet is not None:
            # The incumbent is only ever replaced together with best_meet,
            # so a recorded meet is the one that set the final value.
            path = stitch_bidirectional(best_meet, parents_f, parents_b)
            return incumbent, path, stats
        # The hub witness remained unbeaten: materialize it from the index.
        assert self._index is not None
        path = hub_witness_path(self._index, graph, source, target)
        stats.answered_by_index = True
        return incumbent, path, stats

    # -- the dense search ---------------------------------------------------------

    def _search_dense(
        self,
        source: int,
        target: int,
        stop_at_feasible: bool = False,
        tolerance: float = 0.0,
        want_path: bool = False,
    ) -> Tuple[float, Optional[list], QueryStats]:
        """Flat-array mirror of :meth:`_search` over the dense plane.

        Same decisions, same answers, same stats — but search state lives in
        flat lists indexed by dense id (``g`` labels, parents, settled
        bytemaps) and adjacency is walked through memoryviews of the CSR
        arrays, eliminating the per-step dict hashing of the reference path.
        Min-plus algebra only, which lets the semiring calls inline to
        ``+`` / ``<`` and lets path mode keep its ties by arithmetic instead
        of by a second set of comparisons: every prune tests against
        ``cut``, which is the threshold itself in cost mode and the next
        float above it in path mode (``x >= cut`` is then ``x > threshold``).
        """
        plane = self._dense
        csr = plane.csr
        graph = self._graph
        stats = QueryStats()
        if tolerance < 0:
            raise ConfigError("tolerance must be non-negative")
        scale = 1.0 + tolerance
        for v in (source, target):
            if not graph.has_vertex(v):
                raise QueryError(f"query endpoint {v} is not in the graph")
        if source == target:
            stats.answered_by_index = True
            return 0.0, [source] if want_path else None, stats

        inf = math.inf
        s = csr.dense_id(source)
        t = csr.dense_id(target)
        incumbent = inf
        if self._policy.uses_index:
            bounds = DenseQueryBounds(plane.tables, s, t)
            incumbent = bounds.upper_bound
            if self._policy.uses_lower_bounds:
                lower = bounds.lower_bound()
                if lower == inf:
                    # The index proves there is no path at all.
                    stats.answered_by_index = True
                    return inf, None, stats
                if (not want_path and incumbent != inf
                        and lower * scale >= incumbent):
                    stats.answered_by_index = True
                    return incumbent, None, stats
            if stop_at_feasible and incumbent != inf:
                # Any finite witness answers a reachability query.
                stats.answered_by_index = True
                return incumbent, None, stats

        # Validation and index early-outs are all behind us: claim the
        # workspace last, release it in `finally`, and the state can never
        # be claimed for a query that raises before searching nor leak from
        # one that raises mid-search.
        ws = self._workspace_for(csr.num_vertices)
        stats.workspace_hits = 1 if ws.acquire(csr.num_vertices) else 0
        activations = relaxations = pushes = pruned_ub = pruned_lb = 0
        try:
            g_f = ws.g_f
            g_b = ws.g_b
            parent_f = ws.parent_f
            parent_b = ws.parent_b
            settled_f = ws.settled_f
            settled_b = ws.settled_b
            # The queues are plain lists under heapq with lazy deletion: a
            # relaxation pushes `(label, id)`, the entry it supersedes stays
            # behind and is dropped when it surfaces (its id is settled by
            # then: the smaller entry surfaced first).  The loop keeps each
            # list's head live, so `heap[0][0]` is the frontier's label and
            # an empty list an exhausted side.  Entries order as
            # `(label, dense id)` — the dict plane's `(priority, vertex id)`
            # order, because dense ids are assigned in sorted id order.
            heap_f = ws.heap_f
            heap_b = ws.heap_b
            journal_f = ws.journal_f
            journal_b = ws.journal_b
            journal_f.append(s)
            g_f[s] = 0.0
            heap_f.append((0.0, s))
            journal_b.append(t)
            g_b[t] = 0.0
            heap_b.append((0.0, t))
            # Frontier sizes (what the dict plane's `len(heap)` reads) are
            # first touches minus pops: journal length minus these.
            popped_f = popped_b = 0
            indptr_f, indices_f, weights_f = csr.out_views
            indptr_b, indices_b, weights_b = csr.in_views
            use_ub = self._policy.uses_index
            use_lb = self._policy.uses_lower_bounds
            if use_lb:
                # Per-hub row memoryviews plus the four per-endpoint
                # scalar columns the prune tests reference, zipped into one
                # tuple per hub so the probe loops unpack instead of
                # indexing four sequences.  Probes short-circuit on the
                # first deciding hub, exactly like the dict path — O(1) for
                # the overwhelmingly common pruned vertex.
                tables = plane.tables
                rows_f, rows_b = tables.fwd_views, tables.bwd_views
                fwd_t, bwd_t = tables.columns_for(t)  # d(h,t) / d(t,h)
                fwd_s, bwd_s = tables.columns_for(s)  # d(h,s) / d(s,h)
                probes_f = list(zip(rows_f, fwd_t, bwd_t, rows_b))
                probes_b = list(zip(fwd_s, rows_f, rows_b, bwd_s))
            # With a tolerance, prune/terminate against incumbent/(1+tol):
            # any path forgone then costs at least that much, so the
            # returned incumbent is within the requested factor of the
            # optimum.
            threshold = incumbent / scale
            nextafter = math.nextafter
            cut = nextafter(threshold, inf) if want_path else threshold
            best_meet = -1

            while heap_f and heap_b:
                if incumbent != inf and heap_f[0][0] + heap_b[0][0] >= cut:
                    break
                forward = (len(journal_f) - popped_f
                           <= len(journal_b) - popped_b)
                if forward:
                    popped_f += 1
                    heap, journal, g, g_other, settled, parent = (
                        heap_f, journal_f, g_f, g_b, settled_f, parent_f,
                    )
                    indptr, indices, weights = indptr_f, indices_f, weights_f
                else:
                    popped_b += 1
                    heap, journal, g, g_other, settled, parent = (
                        heap_b, journal_b, g_b, g_f, settled_b, parent_b,
                    )
                    indptr, indices, weights = indptr_b, indices_b, weights_b

                cost_v, v = heappop(heap)
                settled[v] = 1
                while heap and settled[heap[0][1]]:
                    heappop(heap)

                # Meeting the other search's label yields a real s→t path.
                # Path mode accepts ties so an optimal meet is recorded even
                # when the incumbent was seeded by an equally good witness.
                other = g_other[v]
                if other != inf:
                    candidate = cost_v + other
                    if candidate < incumbent or (
                        want_path and candidate == incumbent
                    ):
                        incumbent = candidate
                        threshold = incumbent / scale
                        cut = (nextafter(threshold, inf) if want_path
                               else threshold)
                        best_meet = v
                        if stop_at_feasible:
                            break

                if use_ub and incumbent != inf and cost_v >= cut:
                    pruned_ub += 1
                    continue
                if use_lb:
                    # cost_v < cut got us here, so `need` is positive (zero
                    # for a tie path mode kept).  One ulp up turns the
                    # probes' `>= need` into the `> need` ties require.
                    need = threshold - cost_v
                    if want_path:
                        need = nextafter(need, inf)
                    # The dense-id transliteration of the dict path's
                    # QueryBounds._prunable_distance, per-hub short-circuit
                    # included: prune as soon as one hub's bound on the
                    # remaining distance reaches `need` (or proves the pair
                    # unreachable).
                    prunable = False
                    if forward:
                        for row_hv, ht, th, row_vh in probes_f:
                            hv = row_hv[v]                     # d(h, v)
                            if hv != inf and (ht == inf or ht - hv >= need):
                                prunable = True
                                break
                            if th != inf:
                                vh = row_vh[v]                 # d(v, h)
                                if vh == inf or vh - th >= need:
                                    prunable = True
                                    break
                    else:
                        # Bound on d(source, v): roles (source, v) as (v, t).
                        for hv, row_ht, row_th, vh in probes_b:
                            if hv != inf:
                                ht = row_ht[v]                 # d(h, v)
                                if ht == inf or ht - hv >= need:
                                    prunable = True
                                    break
                            th = row_th[v]                     # d(v, h)
                            if th != inf and (vh == inf or vh - th >= need):
                                prunable = True
                                break
                    if prunable:
                        pruned_lb += 1
                        continue

                activations += 1
                start, stop = indptr[v], indptr[v + 1]
                relaxations += stop - start
                for k in range(start, stop):
                    u = indices[k]
                    if settled[u]:
                        continue
                    candidate = cost_v + weights[k]
                    known = g[u]
                    if candidate < known:
                        if known == inf:
                            journal.append(u)
                        g[u] = candidate
                        parent[u] = v
                        heappush(heap, (candidate, u))
                        pushes += 1

            if not want_path or incumbent == inf:
                return incumbent, None, stats
            if best_meet >= 0:
                # The incumbent is only ever replaced together with
                # best_meet, so a recorded meet set the final value.  Stitch
                # both parent chains in dense-id space; translate to caller
                # ids only here, once per path vertex.
                ids = csr.ids
                path: List[int] = []
                node = best_meet
                while node != -1:
                    path.append(ids[node])
                    node = parent_f[node]
                path.reverse()
                node = parent_b[best_meet]
                while node != -1:
                    path.append(ids[node])
                    node = parent_b[node]
                return incumbent, path, stats
            # The hub witness remained unbeaten: materialize it from the
            # index.
            assert self._index is not None
            path = hub_witness_path(self._index, graph, source, target)
            stats.answered_by_index = True
            return incumbent, path, stats
        finally:
            stats.activations = activations
            stats.relaxations = relaxations
            stats.pushes = pushes
            stats.pruned_by_upper_bound = pruned_ub
            stats.pruned_by_lower_bound = pruned_lb
            stats.workspace_resets = 1
            stats.touched_reset = ws.release()


# -- neighborhood expansion (nearest / within) --------------------------------
#
# Truncated forward Dijkstra in its two serving representations.  Both
# return (vertex, distance) pairs in non-decreasing distance order,
# equidistant vertices in id order (dense ids sort like caller ids).


def expand_from_graph(
    graph,
    source: int,
    max_results: Optional[int],
    radius: Optional[float],
) -> list:
    """Dict-plane truncated Dijkstra from ``source`` (the reference path).

    Stops after ``max_results`` results (``nearest``) or once the frontier
    passes ``radius`` (``within``); the source itself is excluded.
    """
    if not graph.has_vertex(source):
        raise QueryError(f"query endpoint {source} is not in the graph")
    heap = IndexedHeap()
    heap.push(source, 0.0)
    labels = {source: 0.0}
    settled: set = set()
    results: list = []
    while heap:
        v, dist = heap.pop()
        settled.add(v)
        if radius is not None and dist > radius:
            break
        if v != source:
            results.append((v, dist))
            if max_results is not None and len(results) >= max_results:
                break
        for u, w in graph.out_items(v):
            if u in settled:
                continue
            cand = dist + w
            if cand < labels.get(u, math.inf):
                labels[u] = cand
                heap.push(u, cand)
    return results


def expand_from_csr(
    csr,
    source: int,
    max_results: Optional[int],
    radius: Optional[float],
    workspace: SearchWorkspace,
) -> list:
    """Dense-plane twin of :func:`expand_from_graph` over CSR arrays.

    Search state lives in ``workspace``'s flat lists indexed by dense id
    (sparse-reset on the way out); results are translated back to
    caller-visible vertex ids on append.  ``source`` is a caller-visible id
    and must already be validated against the graph the CSR was built from.
    """
    s = csr.dense_id(source)
    ids = csr.ids
    indptr, indices, weights = csr.out_views
    workspace.acquire(csr.num_vertices)
    try:
        g = workspace.g_f
        settled = workspace.settled_f
        heap = workspace.heap_f
        journal = workspace.journal_f
        journal.append(s)
        g[s] = 0.0
        heap.append((0.0, s))
        inf = math.inf
        results: list = []
        while heap:
            dist, v = heappop(heap)
            if settled[v]:
                continue
            settled[v] = 1
            if radius is not None and dist > radius:
                break
            if v != s:
                results.append((ids[v], dist))
                if max_results is not None and len(results) >= max_results:
                    break
            for k in range(indptr[v], indptr[v + 1]):
                u = indices[k]
                if settled[u]:
                    continue
                cand = dist + weights[k]
                known = g[u]
                if cand < known:
                    if known == inf:
                        journal.append(u)
                    g[u] = cand
                    heappush(heap, (cand, u))
        return results
    finally:
        workspace.release()
