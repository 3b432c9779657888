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
  upper bounds already coincide are answered with zero traversal.  On a
  large-diameter graph (the hub placement's verdict) the min-plus search
  is also *ordered* by the bound: both queues key by ``g(v) + p(v)``, the
  ALT potential ``p = ½(π_t − π_s)`` over
  :data:`~repro.core.bounds.POTENTIAL_HUBS` hubs.

The routine is generic over :class:`~repro.core.semiring.PathSemiring`, so
the same code answers shortest-distance and bottleneck queries.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import DenseQueryBounds, QueryBounds
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.paths import hub_witness_path, stitch_bidirectional
from repro.core.pruning import PruningPolicy
from repro.core.semiring import SHORTEST_DISTANCE, PathSemiring, ShortestDistance
from repro.core.stats import QueryStats
from repro.core.workspace import SearchWorkspace
from repro.errors import ConfigError, QueryError
from repro.utils.pqueue import IndexedHeap

#: The fewest distinct non-source targets :meth:`PairwiseEngine.one_to_many`
#: answers with one frontier pass over the dense plane instead of a loop of
#: pairwise searches.  Loop / pass per batch, warm ms on a 2-vCPU host, the
#: ledger's grid (64², dyadic weights) and power-law graph (4 000 vertices,
#: integer weights):
#:
#: =====  ===========  ==========
#: width  grid         power-law
#: =====  ===========  ==========
#: 4      3.95 / 4.94  2.35 / 2.15
#: 8      7.37 / 5.62  4.13 / 2.38
#: 16     14.5 / 6.2   8.56 / 2.77
#: =====  ===========  ==========
WIDE_BATCH = 8

#: The frontier pass keeps a vertex while its label is at most
#: ``cap · CAP_SLACK`` (see :func:`_frontier_pass`).  The gate makes the
#: labels and the cap exact, so the margin can only keep a vertex, never
#: lose one a target needs.
CAP_SLACK = 1.0 + 1e-12


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
        workspace — the pre-workspace cold path, kept as the fresh-state
        reference the workspace tests compare against.
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
        falls back to the dict-plane reference expansion.  Either way
        :func:`_check_expansion` vets ``max_results`` and ``radius`` first.
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
        """Best costs from ``source`` to every target.

        Every endpoint is checked before any search runs; ``source`` and
        repeated targets are answered without searching.  Each value is
        the float :meth:`best_cost` returns for that pair (unreachable
        targets map to the algebra's unreachable value).

        A batch of at least :data:`WIDE_BATCH` distinct non-source targets
        over a dense plane whose sums are exact
        (:attr:`DensePlane.exact_sums`) runs one frontier pass from
        ``source`` (:meth:`_wide_many`); that pass counts frontier
        expansions as ``activations``, arcs scanned as ``relaxations``,
        label improvements as ``pushes`` and frontier vertices the cap
        drops as ``pruned_by_upper_bound``.  Any other batch is a loop of
        pairwise searches and its stats are their counters summed.  Either
        way ``answered_by_index`` holds only when every target was answered
        from the hub tables.
        """
        graph = self._graph
        for v in (source, *targets):
            if not graph.has_vertex(v):
                raise QueryError(f"query endpoint {v} is not in the graph")
        distinct = dict.fromkeys(targets)
        pending = [t for t in distinct if t != source]
        plane = self._dense_ready()
        if (plane is not None and len(pending) >= WIDE_BATCH
                and plane.exact_sums):
            found, stats = self._wide_many(plane, source, pending)
        else:
            found, stats = self._loop_many(source, pending)
        unit = self._semiring.source_value
        return {t: found.get(t, unit) for t in distinct}, stats

    def _loop_many(
        self, source: int, pending: List[int]
    ) -> Tuple[Dict[int, float], QueryStats]:
        """One pairwise search per target, counters summed."""
        search = self._kernel()
        found: Dict[int, float] = {}
        stats = QueryStats(answered_by_index=True)
        for t in pending:
            found[t], _path, single = search(source, t)
            stats.merge(single)
            stats.answered_by_index &= single.answered_by_index
        return found, stats

    def _wide_many(
        self, plane: DensePlane, source: int, pending: List[int]
    ) -> Tuple[Dict[int, float], QueryStats]:
        """Distances to many targets from one label-correcting pass.

        The hub tables answer what they can first, exactly as a pairwise
        search's early outs would: under ``upper+lower`` a target whose
        lower bound is ``inf`` is unreachable and one whose bounds meet is
        its witness.  Every other target is *open*, and the pass from
        ``source`` (:func:`_frontier_pass`) runs until no frontier vertex
        could still improve an open target; each open target then reads
        its label.  The witnesses of the index-using policies tighten the
        pass's cap and are never an answer themselves.  The plane's sums
        are exact, so the label is the float the pairwise search returns.
        """
        csr = plane.csr
        inf = math.inf
        ts = np.array([csr.dense_id(t) for t in pending], dtype=np.int64)
        s = csr.dense_id(source)
        values = np.full(ts.size, inf)
        is_open = np.ones(ts.size, dtype=bool)
        if self._policy.uses_index:
            upper, lower = plane.tables.bounds_many(s, ts)
            if self._policy.uses_lower_bounds:
                closed = (lower == inf) | ((upper != inf) & (lower >= upper))
                values[closed] = np.where(lower[closed] == inf, inf,
                                          upper[closed])
                is_open = ~closed
            upper = upper[is_open]
        else:
            upper = np.full(ts.size, inf)
        stats = QueryStats(answered_by_index=not is_open.any())
        if not stats.answered_by_index:
            open_ts = ts[is_open]
            dist = _frontier_pass(csr, s, open_ts, upper, stats)
            values[is_open] = dist[open_ts]
        return dict(zip(pending, values.tolist())), stats

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
        the capacity and reliability algebras.  On a large-diameter graph
        the distance algebra's search is bound-ordered exactly as in
        :meth:`_search_dense`.
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
        use_ub = self._policy.uses_index
        use_lb = self._policy.uses_lower_bounds
        # With a tolerance, prune/terminate against incumbent/(1+tol): any
        # path forgone then costs at least that much, so the returned
        # incumbent is within the requested factor of the optimum.
        threshold = incumbent / scale
        nextafter = math.nextafter
        cut = nextafter(threshold, math.inf) if want_path else threshold
        # On a large-diameter graph the min-plus search is bound-ordered:
        # both queues key by g + p (p_b = -p_f), see `_search_dense`.
        ordered = use_lb and is_distance and self._index.large_diameter
        if ordered:
            assert bounds is not None
            rows = bounds.potential_rows()
            pot_f: dict = {}
            pot_b: dict = {}
            for v in (source, target):
                pot_f[v], pot_b[v] = _potential_dict(rows, v)
            heap_f.push(source, pot_f[source][0])
            heap_b.push(target, pot_b[target][0])
        else:
            heap_f.push(source, sr.priority(sr.source_value))
            heap_b.push(target, sr.priority(sr.source_value))
        best_meet = None

        while heap_f and heap_b:
            if incumbent != unreachable:
                if ordered:
                    if heap_f.peek()[1] + heap_b.peek()[1] >= cut:
                        break
                else:
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
                    cut = (nextafter(threshold, math.inf) if want_path
                           else threshold)
                    best_meet = v
                    if stop_at_feasible:
                        break

            if use_ub and incumbent != unreachable and (
                sr.is_better(threshold, cost_v) if want_path
                else not sr.is_better(cost_v, threshold)
            ):
                stats.pruned_by_upper_bound += 1
                continue
            if ordered:
                pot = pot_f if forward else pot_b
                if cost_v + pot[v][1] >= cut:
                    stats.pruned_by_lower_bound += 1
                    continue
            elif use_lb:
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
            if not ordered:
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
                continue
            # The bound-ordered relaxation, step for step `_search_dense`'s.
            meet = math.inf
            meet_u = None
            for u, w in neighbors:
                stats.relaxations += 1
                if u in settled:
                    continue
                candidate = cost_v + w
                current = labels.get(u)
                if current is None or candidate < current:
                    cached = pot.get(u)
                    if cached is None:
                        pot_f[u], pot_b[u] = _potential_dict(rows, u)
                        cached = pot[u]
                    p_u, lb_u = cached
                    if candidate + lb_u >= cut:
                        stats.pruned_by_lower_bound += 1
                        continue
                    labels[u] = candidate
                    parents[u] = v
                    heap.push(u, candidate + p_u)
                    stats.pushes += 1
                    other = other_labels.get(u)
                    if other is not None:
                        total = candidate + other
                        if total < meet or (total == meet and u < meet_u):
                            meet = total
                            meet_u = u
            if meet_u is not None and (
                meet < incumbent or (want_path and meet == incumbent)
            ):
                incumbent = meet
                threshold = incumbent / scale
                cut = nextafter(threshold, math.inf) if want_path else threshold
                best_meet = meet_u
                if stop_at_feasible:
                    break

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

        Where the tables' ``large_diameter`` verdict holds (and lower bounds
        are on), the queues key by ``g + p`` instead of ``g``: a relaxation
        evaluates the vertex's potential on first touch, refuses the push
        when ``candidate + π ≥ cut`` and meets the other side's labels
        (the row's best meet lowers the incumbent once the row is done);
        the pop-time lower-bound test reads the cached ``π`` instead of
        probing every hub.  THEORY §3.3 has the argument.
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
            use_ub = self._policy.uses_index
            use_lb = self._policy.uses_lower_bounds
            # On a large-diameter graph the search is bound-ordered: both
            # queues key by g + p, p = ½(π_t − π_s) over a few hubs (see
            # `POTENTIAL_HUBS`), p_b = −p_f.  p and the direction's π are
            # evaluated once per touched vertex and cached in the workspace
            # as `(±p, π)`; elsewhere the keys are the labels themselves.
            ordered = use_lb and plane.tables.large_diameter
            seed_f = seed_b = 0.0
            if ordered:
                rows = bounds.potential_rows()
                pot_f, pot_b = ws.ensure_pot()
                journal_p = ws.journal_p
                for v in (s, t):
                    journal_p.append(v)
                    pot_f[v], pot_b[v] = _potential_dense(rows, v)
                seed_f = pot_f[s][0]
                seed_b = pot_b[t][0]
            journal_f.append(s)
            g_f[s] = 0.0
            heap_f.append((seed_f, s))
            journal_b.append(t)
            g_b[t] = 0.0
            heap_b.append((seed_b, t))
            # Frontier sizes (what the dict plane's `len(heap)` reads) are
            # first touches minus pops: journal length minus these.
            popped_f = popped_b = 0
            indptr_f, indices_f, weights_f = csr.out_views
            indptr_b, indices_b, weights_b = csr.in_views
            if use_lb and not ordered:
                # Per-hub row memoryviews plus the per-endpoint scalar
                # columns the prune tests reference, one tuple per hub, so
                # a probe loop unpacks instead of indexing four sequences.
                # Probes short-circuit on the first deciding hub, exactly
                # like the dict path — O(1) for the overwhelmingly common
                # pruned vertex.
                tables = plane.tables
                fwd_t, bwd_t = tables.columns_for(t)  # d(h,t) / d(t,h)
                probes_f = list(zip(tables.fwd_views, fwd_t,
                                    bwd_t, tables.bwd_views))
                fwd_s, bwd_s = tables.columns_for(s)  # d(h,s) / d(s,h)
                probes_b = list(zip(fwd_s, tables.fwd_views,
                                    tables.bwd_views, bwd_s))
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

                v = heappop(heap)[1]
                cost_v = g[v]
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
                if ordered:
                    pot = pot_f if forward else pot_b
                    if cost_v + pot[v][1] >= cut:
                        pruned_lb += 1
                        continue
                elif use_lb:
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
                if not ordered:
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
                    continue
                # Bound-ordered relaxation: refuse a push that cannot beat
                # the incumbent (safe, the incumbent only falls), and meet
                # the other side here, not only at its pop.  The best meet
                # of the row (ties to the smaller id) lowers the incumbent
                # once the row is done, so no decision depends on the order
                # the row lists its neighbours in.
                meet = inf
                meet_u = -1
                for k in range(start, stop):
                    u = indices[k]
                    if settled[u]:
                        continue
                    candidate = cost_v + weights[k]
                    known = g[u]
                    if candidate < known:
                        cached = pot[u]
                        if cached is None:
                            journal_p.append(u)
                            pot_f[u], pot_b[u] = _potential_dense(rows, u)
                            cached = pot[u]
                        p_u, lb_u = cached
                        if candidate + lb_u >= cut:
                            pruned_lb += 1
                            continue
                        if known == inf:
                            journal.append(u)
                        g[u] = candidate
                        parent[u] = v
                        heappush(heap, (candidate + p_u, u))
                        pushes += 1
                        other = g_other[u]
                        if other != inf:
                            total = candidate + other
                            if total < meet or (total == meet and u < meet_u):
                                meet = total
                                meet_u = u
                if meet_u >= 0 and (
                    meet < incumbent or (want_path and meet == incumbent)
                ):
                    incumbent = meet
                    threshold = incumbent / scale
                    cut = nextafter(threshold, inf) if want_path else threshold
                    best_meet = meet_u
                    if stop_at_feasible:
                        break

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


def _frontier_pass(csr, s: int, ts: np.ndarray, upper: np.ndarray,
                   stats: QueryStats) -> np.ndarray:
    """Label-correcting distances from dense id ``s``, cut for targets ``ts``.

    Each round relaxes every arc out of the frontier at once: the arcs are
    gathered through ``indptr`` with ``np.repeat``, the candidate labels
    fold in with ``np.minimum.at``, and the vertices whose label fell
    (marked in a boolean array) are the next frontier.  Before a round the
    cap ``max_t min(upper[t], dist[t])`` over the targets bounds every
    target's distance, so a frontier vertex above it, by the relative
    :data:`CAP_SLACK`, can shorten no target's path and is dropped; a
    vertex whose label later falls under the cap comes back.  Returns the
    labels (``inf`` off the explored part), which are exact at every
    target.  The counters go into ``stats``.
    """
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    n = csr.num_vertices
    inf = math.inf
    dist = np.full(n, inf)
    dist[s] = 0.0
    marked = np.zeros(n, dtype=bool)
    frontier = np.array([s], dtype=np.int64)
    activations = relaxations = pushes = pruned = 0
    while frontier.size:
        labels = dist[frontier]
        limit = float(np.minimum(upper, dist[ts]).max()) * CAP_SLACK
        if limit != inf:
            keep = labels <= limit
            kept = int(np.count_nonzero(keep))
            if kept < frontier.size:
                pruned += frontier.size - kept
                if not kept:
                    break
                frontier = frontier[keep]
                labels = labels[keep]
        activations += frontier.size
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1])
        relaxations += total
        if not total:
            break
        arcs = np.arange(total) + np.repeat(starts - ends + counts, counts)
        heads = indices[arcs]
        candidates = np.repeat(labels, counts) + weights[arcs]
        better = candidates < dist[heads]
        heads = heads[better]
        np.minimum.at(dist, heads, candidates[better])
        marked[heads] = True
        frontier = np.flatnonzero(marked)
        marked[frontier] = False
        pushes += frontier.size
    stats.activations = activations
    stats.relaxations = relaxations
    stats.pushes = pushes
    stats.pruned_by_upper_bound = pruned
    return dist


def _potential_dense(rows, v: int) -> Tuple[tuple, tuple]:
    """``((p, π_t), (−p, π_s))`` at dense id ``v``: the forward and backward
    cache entries of the bound-ordered search.

    ``π_t(v)`` bounds ``d(v, t)`` and ``π_s(v)`` bounds ``d(s, v)``, each
    the best triangle inequality over ``rows``
    (:meth:`DenseQueryBounds.potential_rows`) and at least 0; ``inf`` is a
    proof that no path exists.  ``p = ½(π_t − π_s)``.
    """
    inf = math.inf
    pt = ps = 0.0
    for row_hv, row_vh, ht, th, hs, sh in rows:
        hv = row_hv[v]                              # d(h, v)
        vh = row_vh[v]                              # d(v, h)
        if hv != inf:
            x = ht - hv                             # d(v,t) >= d(h,t) - d(h,v)
            if x > pt:
                pt = x
        if th != inf:
            x = vh - th                             # d(v,t) >= d(v,h) - d(t,h)
            if x > pt:
                pt = x
        if hs != inf:
            x = hv - hs                             # d(s,v) >= d(h,v) - d(h,s)
            if x > ps:
                ps = x
        if vh != inf:
            x = sh - vh                             # d(s,v) >= d(s,h) - d(v,h)
            if x > ps:
                ps = x
    p = (pt - ps) * 0.5
    return (p, pt), (-p, ps)


def _potential_dict(rows, v: int) -> Tuple[tuple, tuple]:
    """Dict-plane twin of :func:`_potential_dense`, the same arithmetic in
    the same order over :meth:`QueryBounds.potential_rows`."""
    inf = math.inf
    pt = ps = 0.0
    for fwd, bwd, ht, th, hs, sh in rows:
        hv = fwd.get(v, inf)
        vh = bwd.get(v, inf)
        if hv != inf:
            x = ht - hv
            if x > pt:
                pt = x
        if th != inf:
            x = vh - th
            if x > pt:
                pt = x
        if hs != inf:
            x = hv - hs
            if x > ps:
                ps = x
        if vh != inf:
            x = sh - vh
            if x > ps:
                ps = x
    p = (pt - ps) * 0.5
    return (p, pt), (-p, ps)


# -- neighborhood expansion (nearest / within) --------------------------------
#
# Truncated forward Dijkstra in its two serving representations.  Both
# return (vertex, distance) pairs in non-decreasing distance order,
# equidistant vertices in id order (dense ids sort like caller ids).


def _check_expansion(max_results: Optional[int],
                     radius: Optional[float]) -> None:
    """The nearest/within argument check both expansion kernels run first,
    so the facade, published views and pool workers all reject ``k < 1``
    and a negative radius with :class:`~repro.errors.QueryError`.  The
    comparisons are negated so a NaN fails them too: it would otherwise
    never stop the expansion and return the whole component."""
    if max_results is not None and not max_results >= 1:
        raise QueryError("k must be >= 1")
    if radius is not None and not radius >= 0:
        raise QueryError("radius must be non-negative")


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
    _check_expansion(max_results, radius)
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
    _check_expansion(max_results, radius)
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
