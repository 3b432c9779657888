"""The SGraph facade: evolving graph + hub indexes + pruned query engines.

This is the library's front door.  An :class:`SGraph` owns one
:class:`~repro.graph.DynamicGraph`, builds a hub index per configured query
family (weighted distance, hop count, bottleneck capacity), keeps every
index incrementally in sync as edges churn, and answers pairwise queries
through the pruned bidirectional engine.

Typical use::

    from repro import SGraph, SGraphConfig

    sg = SGraph.from_edges([(0, 1, 2.0), (1, 2, 1.0)],
                           config=SGraphConfig(num_hubs=4))
    sg.add_edge(2, 3, 5.0)
    result = sg.distance(0, 3)
    result.value          # 8.0
    result.stats.activations

The facade guarantees the mutate-then-notify ordering the incremental
maintainers need, translates weight changes into delete+insert notifications,
and rebuilds indexes when a hub vertex is removed.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cache import QueryCache
from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine, expand_from_graph
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.workspace import SearchWorkspace
from repro.core.pairwise import ManyQueryResult, QueryKind, QueryResult
from repro.core.semiring import (
    BOTTLENECK_CAPACITY,
    RELIABILITY_PRODUCT,
    SHORTEST_DISTANCE,
)
from repro.errors import ConfigError, QueryError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.snapshot import GraphSnapshot
from repro.graph.views import UnitWeightView
from repro.streaming.update import EdgeUpdate, UpdateKind

#: ``backend="auto"`` crossover: the live facade switches a min-plus family
#: to the dense plane once the workload looks query-heavy — at least this
#: many queries per update interval (EMA), or this many queries since the
#: last mutation.  Below the threshold the per-epoch dense rebuild would
#: cost more than it saves, so auto stays on the dict path.
AUTO_DENSE_QUERY_RATIO = 4.0
#: EMA fold weight for the queries-per-interval estimate: each mutation
#: closes an interval and folds its query count in at this weight.
AUTO_EMA_WEIGHT = 0.5


class SGraph:
    """Sub-second pairwise queries over an evolving graph.

    Parameters
    ----------
    graph:
        An existing :class:`DynamicGraph` to adopt (mutations must go through
        this facade afterwards), or None for a fresh empty graph.
    directed:
        Used only when ``graph`` is None.
    config:
        Engine knobs; see :class:`SGraphConfig`.
    """

    def __init__(
        self,
        graph: Optional[DynamicGraph] = None,
        directed: bool = False,
        config: Optional[SGraphConfig] = None,
    ) -> None:
        self._graph = graph if graph is not None else DynamicGraph(directed=directed)
        self._config = config or SGraphConfig()
        self._indexes: Dict[str, HubIndex] = {}
        self._engines: Dict[str, PairwiseEngine] = {}
        self._unit_view = UnitWeightView(self._graph)
        self._hubs: set = set()
        self._cache = (QueryCache(self._config.cache_size)
                       if self._config.cache_size > 0 else None)
        # backend="dense" serving state: per-family (epoch, engine) pairs
        # built at the first query after a mutation, plus the plane chain
        # that lets each epoch's dense tables derive from the previous one.
        self._dense_serving: Dict[str, Tuple[int, PairwiseEngine]] = {}
        self._dense_planes: Dict[str, DensePlane] = {}
        # One search workspace per dense-served family, passed into each
        # epoch's fresh engine: the O(V) search state survives epoch
        # handoff, so steady-state queries only pay the sparse reset.
        self._workspaces: Dict[str, SearchWorkspace] = {}
        # backend="auto" crossover state: queries observed since the last
        # mutation, and an EMA of queries-per-update-interval (folded each
        # time the epoch moves; see _auto_fold).
        self._auto_epoch: int = self._graph.epoch
        self._auto_queries: int = 0
        self._auto_ema: float = 0.0
        self._last_published_epoch: Optional[int] = None
        #: vertices settled by index maintenance for the last update applied
        self.last_maintenance_settled = 0

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple],
        directed: bool = False,
        config: Optional[SGraphConfig] = None,
    ) -> "SGraph":
        """Build from ``(src, dst)`` or ``(src, dst, weight)`` tuples."""
        graph = DynamicGraph.from_edges(edges, directed=directed)
        return cls(graph=graph, config=config)

    # -- introspection -----------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    @property
    def config(self) -> SGraphConfig:
        return self._config

    @property
    def epoch(self) -> int:
        return self._graph.epoch

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    @property
    def cache(self) -> Optional[QueryCache]:
        """The epoch-guarded result cache, when enabled by the config."""
        return self._cache

    @property
    def last_published_epoch(self) -> Optional[int]:
        """Epoch of the most recent :meth:`VersionedStore.publish` over this
        facade (None before the first publish).  When it equals
        :attr:`epoch`, publishing again is a no-op by construction."""
        return self._last_published_epoch

    def _note_published(self, epoch: int) -> None:
        self._last_published_epoch = epoch

    def snapshot(self) -> GraphSnapshot:
        """Immutable snapshot of the current graph state.

        Memoized per epoch and derived copy-on-write from the previous
        snapshot, so repeated calls between mutations return the same object
        and the freeze cost tracks the churn delta, not |V|+|E|.
        """
        return self._graph.snapshot()

    def index_for(self, family: str) -> HubIndex:
        """The (lazily built) hub index of one query family."""
        self._ensure_indexes()
        try:
            return self._indexes[family]
        except KeyError:
            raise ConfigError(
                f"query family {family!r} not configured; "
                f"configured: {', '.join(self._config.queries)}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"SGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"epoch={self.epoch}, families={list(self._config.queries)})"
        )

    # -- index lifecycle -----------------------------------------------------------

    def _ensure_indexes(self) -> None:
        if self._indexes:
            return
        if self._graph.num_vertices == 0:
            raise QueryError("cannot build an index over an empty graph")
        self.rebuild_indexes()

    def rebuild_indexes(self) -> None:
        """(Re)select hubs and rebuild every configured index from scratch.

        Called automatically on first query and when a hub vertex is removed;
        callable manually after massive churn to refresh hub selection.
        """
        cfg = self._config
        num_hubs = min(cfg.num_hubs, self._graph.num_vertices)
        self._indexes = {}
        self._engines = {}
        for family in cfg.queries:
            if family == "distance":
                index = HubIndex.build(
                    self._graph, num_hubs, strategy=cfg.hub_strategy,
                    seed=cfg.seed, semiring=SHORTEST_DISTANCE,
                )
                engine_graph = self._graph
            elif family == "hops":
                index = HubIndex.build(
                    self._unit_view, num_hubs, strategy=cfg.hub_strategy,
                    seed=cfg.seed, semiring=SHORTEST_DISTANCE,
                )
                engine_graph = self._unit_view
            elif family == "reliability":
                self._validate_probability_weights()
                index = HubIndex.build(
                    self._graph, num_hubs, strategy=cfg.hub_strategy,
                    seed=cfg.seed, semiring=RELIABILITY_PRODUCT,
                )
                engine_graph = self._graph
            else:  # capacity
                index = HubIndex.build(
                    self._graph, num_hubs, strategy=cfg.hub_strategy,
                    seed=cfg.seed, semiring=BOTTLENECK_CAPACITY,
                )
                engine_graph = self._graph
            self._indexes[family] = index
            self._engines[family] = PairwiseEngine(
                engine_graph, index=index, policy=cfg.policy,
            )
        self._hubs = set()
        for index in self._indexes.values():
            self._hubs.update(index.hubs)
        # Dense engines froze the *old* tables; the plane chain stays (the
        # CSR id space is still reusable) but serving engines must rebuild.
        self._dense_serving = {}

    def adopt_indexes(self, indexes: Dict[str, HubIndex]) -> None:
        """Install externally constructed indexes (persistence restore path).

        The mapping must cover exactly the configured query families; each
        index must already be built over this instance's graph (or its
        unit-weight view for the ``hops`` family).
        """
        expected = set(self._config.queries)
        if set(indexes) != expected:
            raise ConfigError(
                f"adopt_indexes needs families {sorted(expected)}, "
                f"got {sorted(indexes)}"
            )
        for family, index in indexes.items():
            graph = index.graph
            if isinstance(graph, UnitWeightView):
                graph = graph.base
            if graph is not self._graph:
                raise ConfigError(
                    f"index for family {family!r} was built over a different "
                    "graph object"
                )
        self._indexes = dict(indexes)
        self._engines = {}
        for family, index in self._indexes.items():
            # Bind each engine to the exact graph (or view) the index was
            # built over, so the engine's identity check holds.
            self._engines[family] = PairwiseEngine(
                index.graph, index=index, policy=self._config.policy
            )
        self._hubs = set()
        for index in self._indexes.values():
            self._hubs.update(index.hubs)
        self._dense_serving = {}

    def _validate_probability_weights(self) -> None:
        for src, dst, weight in self._graph.edges():
            if not 0.0 < weight <= 1.0:
                raise ConfigError(
                    "the reliability family needs every edge weight in "
                    f"(0, 1]; edge ({src}, {dst}) has weight {weight}"
                )

    # -- mutation (mutate graph first, notify indexes second) -----------------------

    def add_vertex(self, vertex: int) -> bool:
        """Add an isolated vertex.  No index maintenance needed."""
        return self._graph.add_vertex(vertex)

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        """Insert an edge, or change its weight if it already exists."""
        graph = self._graph
        old_weight: Optional[float] = None
        if graph.has_edge(src, dst):
            old_weight = graph.edge_weight(src, dst)
            if old_weight == weight:
                self.last_maintenance_settled = 0
                return
        settled = 0
        if old_weight is not None:
            # Weight change: remove-then-reinsert so every index notification
            # observes graph state consistent with the event.  The hop index
            # is topology-only and skips the churn entirely.
            graph.remove_edge(src, dst)
            if self._indexes:
                for family, index in self._indexes.items():
                    if family == "hops":
                        continue
                    index.notify_edge_deleted(src, dst, old_weight)
                    settled += index.settled_last_update
        graph.add_edge(src, dst, weight)
        if self._indexes:
            for family, index in self._indexes.items():
                if old_weight is not None and family == "hops":
                    continue  # topology unchanged; hop index unaffected
                w_new = 1.0 if family == "hops" else weight
                index.notify_edge_inserted(src, dst, w_new)
                settled += index.settled_last_update
        self.last_maintenance_settled = settled

    def remove_edge(self, src: int, dst: int) -> None:
        """Delete an edge (raises if absent; see :meth:`discard_edge`)."""
        old_weight = self._graph.edge_weight(src, dst)
        self._graph.remove_edge(src, dst)
        settled = 0
        if self._indexes:
            for family, index in self._indexes.items():
                w_old = 1.0 if family == "hops" else old_weight
                index.notify_edge_deleted(src, dst, w_old)
                settled += index.settled_last_update
        self.last_maintenance_settled = settled

    def discard_edge(self, src: int, dst: int) -> bool:
        """Delete an edge if present.  Returns True if removed."""
        if not self._graph.has_edge(src, dst):
            return False
        self.remove_edge(src, dst)
        return True

    def remove_vertex(self, vertex: int) -> None:
        """Remove a vertex and its incident edges.

        If the vertex serves as a hub, the indexes are rebuilt with a fresh
        hub selection (rare in practice; hubs are high-degree vertices).
        """
        graph = self._graph
        incident: List[Tuple[int, int]] = [
            (vertex, dst) for dst, _w in graph.out_items(vertex)
        ]
        if graph.directed:
            incident += [(src, vertex) for src, _w in graph.in_items(vertex)]
        for src, dst in incident:
            self.discard_edge(src, dst)
        graph.remove_vertex(vertex)
        if self._indexes and vertex in self._hubs:
            self.rebuild_indexes()

    def apply_update(self, update: EdgeUpdate) -> None:
        """Apply one stream update (redundant deletes are tolerated)."""
        if update.kind is UpdateKind.INSERT:
            self.add_edge(update.src, update.dst, update.weight)
        else:
            self.discard_edge(update.src, update.dst)

    def apply(self, updates: Iterable[EdgeUpdate]) -> int:
        """Apply a batch of updates; returns how many were applied."""
        count = 0
        for update in updates:
            self.apply_update(update)
            count += 1
        return count

    # -- queries ------------------------------------------------------------------

    def distance(
        self, source: int, target: int, tolerance: float = 0.0
    ) -> QueryResult:
        """Weighted shortest-path cost from source to target.

        ``tolerance`` requests a bounded-error approximation: the result is a
        real path cost at most ``(1 + tolerance)`` times the optimum, letting
        many more queries resolve directly from the index bounds.
        """
        return self._run(QueryKind.DISTANCE, "distance", source, target,
                         tolerance=tolerance)

    def hop_distance(self, source: int, target: int) -> QueryResult:
        """Unweighted shortest-path length (hop count)."""
        return self._run(QueryKind.HOPS, "hops", source, target)

    def bottleneck(self, source: int, target: int) -> QueryResult:
        """Widest-path capacity from source to target."""
        return self._run(QueryKind.BOTTLENECK, "capacity", source, target)

    def reliability(self, source: int, target: int) -> QueryResult:
        """Most-reliable-path probability (edge weights are probabilities)."""
        return self._run(QueryKind.RELIABILITY, "reliability", source, target)

    def shortest_path(self, source: int, target: int) -> QueryResult:
        """Weighted shortest path: cost plus an explicit vertex list.

        The result's :attr:`~repro.core.pairwise.QueryResult.path` is None
        when the target is unreachable.
        """
        return self._run_path(QueryKind.DISTANCE, "distance", source, target)

    def widest_path(self, source: int, target: int) -> QueryResult:
        """Bottleneck-optimal path: capacity plus an explicit vertex list."""
        return self._run_path(QueryKind.BOTTLENECK, "capacity", source, target)

    def _run_path(
        self, kind: QueryKind, family: str, source: int, target: int
    ) -> QueryResult:
        self._ensure_indexes()
        if family not in self._engines:
            raise ConfigError(
                f"{kind.value} path queries need the {family!r} family in "
                f"SGraphConfig.queries (configured: {self._config.queries})"
            )
        engine = self._serving_engine(family)
        start = time.perf_counter()
        value, path, stats = engine.best_path(source, target)
        stats.elapsed = time.perf_counter() - start
        return QueryResult(
            kind=kind,
            source=source,
            target=target,
            value=value,
            stats=stats,
            epoch=self.epoch,
            path=path,
        )

    def reachable(self, source: int, target: int) -> QueryResult:
        """Whether any source→target path exists.

        Served by whichever configured family answers cheapest: the first of
        distance / hops / capacity present in the configuration.
        """
        self._ensure_indexes()
        family = self._config.queries[0]
        engine = self._serving_engine(family)
        start = time.perf_counter()
        exists, stats = engine.feasible(source, target)
        stats.elapsed = time.perf_counter() - start
        return QueryResult(
            kind=QueryKind.REACHABILITY,
            source=source,
            target=target,
            value=1.0 if exists else 0.0,
            stats=stats,
            epoch=self.epoch,
        )

    def within_distance(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether the weighted distance source→target is ≤ ``budget``.

        Usually answered from the index bounds alone (see
        :meth:`PairwiseEngine.within_budget`); the result value is 1.0/0.0.
        """
        return self._run_budget("distance", source, target, budget)

    def capacity_at_least(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether some path of capacity ≥ ``budget`` exists."""
        return self._run_budget("capacity", source, target, budget)

    def reliability_at_least(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether some path of delivery probability ≥ ``budget`` exists."""
        return self._run_budget("reliability", source, target, budget)

    def _run_budget(
        self, family: str, source: int, target: int, budget: float
    ) -> QueryResult:
        self._ensure_indexes()
        if family not in self._engines:
            raise ConfigError(
                f"budget queries on {family!r} need that family in "
                f"SGraphConfig.queries (configured: {self._config.queries})"
            )
        engine = self._serving_engine(family)
        start = time.perf_counter()
        ok, stats = engine.within_budget(source, target, budget)
        stats.elapsed = time.perf_counter() - start
        return QueryResult(
            kind=QueryKind.REACHABILITY,
            source=source,
            target=target,
            value=1.0 if ok else 0.0,
            stats=stats,
            epoch=self.epoch,
        )

    def distance_many(
        self, source: int, targets: Iterable[int]
    ) -> Dict[int, float]:
        """Shortest distances from ``source`` to every target in one pass.

        Much cheaper than per-target :meth:`distance` calls when the target
        set is large: index-closable targets cost nothing and the rest share
        a single search (see :meth:`PairwiseEngine.one_to_many`).  Use
        :meth:`distance_many_result` when the combined search counters are
        wanted alongside the values.
        """
        return self.distance_many_result(source, targets).values

    def distance_many_result(
        self, source: int, targets: Iterable[int]
    ) -> ManyQueryResult:
        """Like :meth:`distance_many`, surfacing the combined counters.

        Returns a :class:`~repro.core.pairwise.ManyQueryResult` whose
        ``stats`` record covers the entire shared search — batched queries
        are observable exactly like pairwise ones.  Under
        ``backend="dense"`` the search runs on the flat-array plane.
        """
        self._ensure_indexes()
        if "distance" not in self._engines:
            raise ConfigError(
                "distance_many needs the 'distance' family in "
                f"SGraphConfig.queries (configured: {self._config.queries})"
            )
        engine = self._serving_engine("distance")
        start = time.perf_counter()
        results, stats = engine.one_to_many(source, list(targets))
        stats.elapsed = time.perf_counter() - start
        return ManyQueryResult(
            kind=QueryKind.DISTANCE,
            source=source,
            values=results,
            stats=stats,
            epoch=self.epoch,
        )

    def nearest(self, source: int, k: int) -> List[Tuple[int, float]]:
        """The ``k`` closest vertices to ``source`` by weighted distance.

        Returns ``(vertex, distance)`` pairs sorted by distance (excluding
        the source itself); fewer than ``k`` when the component is small.
        A plain truncated Dijkstra — neighborhood queries don't benefit
        from pairwise bounds, but they round out the query surface.
        """
        if k < 1:
            raise QueryError("k must be >= 1")
        return self._expand_from(source, max_results=k, radius=None)

    def within(self, source: int, radius: float) -> List[Tuple[int, float]]:
        """All vertices within weighted distance ``radius`` of ``source``."""
        if radius < 0:
            raise QueryError("radius must be non-negative")
        return self._expand_from(source, max_results=None, radius=radius)

    def _expand_from(
        self,
        source: int,
        max_results: Optional[int],
        radius: Optional[float],
    ) -> List[Tuple[int, float]]:
        """Truncated Dijkstra behind :meth:`nearest` / :meth:`within`.

        Served by whichever engine answers ``distance`` queries (see
        :meth:`_serving_engine`; under ``backend="auto"`` the expansion
        counts as a query): over a dense plane it walks the per-epoch CSR
        slices, otherwise the live dict adjacency — same distances either
        way.  Equidistant vertices may order differently between the two
        planes (heap tie-breaking); distances always agree.
        """
        if "distance" not in self._config.queries:
            return expand_from_graph(self._graph, source, max_results, radius)
        self._ensure_indexes()
        return self._serving_engine("distance").expand(
            source, max_results, radius
        )

    # -- dense serving (backend="dense" / "auto") ---------------------------------

    def _serving_engine(self, family: str) -> PairwiseEngine:
        """The engine answering queries for ``family``.

        With ``backend="dense"`` the min-plus families are always served by
        a per-epoch dense engine (flat arrays over the current snapshot).
        With ``backend="auto"`` the same engine serves them once the
        workload looks query-heavy (see :meth:`serving_backend`); under
        heavy churn auto skips the per-epoch dense rebuild and stays on the
        dict path.  Everything else — and every family under
        ``backend="dict"`` — uses the live dict engine.  Value, path,
        budget, and one-to-many queries all route through here.
        """
        if family in ("distance", "hops"):
            backend = self._config.backend
            if backend == "dense" or (backend == "auto"
                                      and self._note_query()):
                return self._dense_engine(family)
        return self._engines[family]

    def _auto_fold(self) -> Tuple[float, int]:
        """Project the auto-crossover state to the current epoch.

        Each mutation interval that closed since the last observation folds
        its query count into the EMA; extra query-free intervals decay it.
        Pure projection — callers commit by writing the state back.
        """
        ema, queries = self._auto_ema, self._auto_queries
        gap = self.epoch - self._auto_epoch
        if gap > 0:
            w = AUTO_EMA_WEIGHT
            ema = (1.0 - w) * ema + w * queries
            # gap mutations closed gap intervals; the first carried
            # `queries` queries, the other gap-1 carried none.  Cap the
            # exponent — past ~60 halvings the decay is already total.
            ema *= (1.0 - w) ** min(gap - 1, 60)
            queries = 0
        return ema, queries

    def _note_query(self) -> bool:
        """Record one query and decide dict vs dense for ``backend="auto"``.

        Dense when the recent query:update ratio (EMA) or the current
        run of uninterrupted queries reaches AUTO_DENSE_QUERY_RATIO.
        """
        ema, queries = self._auto_fold()
        queries += 1
        self._auto_epoch = self.epoch
        self._auto_ema = ema
        self._auto_queries = queries
        return (ema >= AUTO_DENSE_QUERY_RATIO
                or queries >= AUTO_DENSE_QUERY_RATIO)

    def serving_backend(self, family: str = "distance") -> str:
        """Which plane the *next* ``family`` query would be served from.

        A non-destructive peek at the crossover decision — returns
        ``"dense"`` or ``"dict"`` without recording a query.
        """
        if family not in ("distance", "hops"):
            return "dict"
        backend = self._config.backend
        if backend in ("dense", "dict"):
            return backend
        ema, queries = self._auto_fold()
        dense = (ema >= AUTO_DENSE_QUERY_RATIO
                 or queries + 1 >= AUTO_DENSE_QUERY_RATIO)
        return "dense" if dense else "dict"

    def serve(self, workers: int = 2, store=None, capacity: int = 4,
              transport: str = "shm", chunk: Optional[int] = None,
              delta: bool = False, **transport_options):
        """Serve this facade from ``workers`` reader processes.

        Publishes each epoch's dense plane through the chosen transport and
        fans queries across N reader processes running the bit-identical
        flat-array hot path; ingest through this facade continues
        concurrently and each :meth:`~repro.serving.ServeSession.publish`
        hands readers the new epoch.

        ``transport="shm"`` (default) lays each plane into named
        shared-memory segments the readers map zero-copy — one box, no
        copies.  ``transport="tcp"`` starts a loopback-or-LAN plane server
        instead: readers (the local pool, plus any remote ``repro attach``
        fleet) fetch each published plane over a socket exactly once into a
        digest-verified local cache.  ``delta=True`` (TCP only) switches
        those fetches to chunk-addressed deltas: each reader ships only
        the chunks that changed since the plane it already caches — O(Δ)
        bytes per epoch, digest-verified to be bit-identical to a full
        fetch, falling back to a full frame when the reader's base left
        the server's ``cache_planes`` publish history.  TCP options pass
        through keyword arguments (``host=``, ``port=``,
        ``cache_planes=``, ``retry=``, ``backoff=``, ``max_backoff=``,
        ``op_timeout=``, ``idle_timeout=``).  ``chunk`` overrides how
        many queries batched verbs bundle per pool message.

        The session is fault tolerant by default: crashed workers are
        reaped and re-forked onto the current epoch (``respawn=False``
        disables this; ``respawn_limit``/``respawn_window`` tune the
        circuit breaker that stops a crash loop), TCP readers reconnect
        with jittered exponential backoff under per-op deadlines, and
        workers that cannot reach the server keep answering from their
        last-acquired plane (counted as ``stale_serves`` in
        ``stats_row()``).

        Returns a :class:`repro.serving.ServeSession` (usable as a context
        manager); requires the distance family and a non-dict backend.
        """
        from repro.serving.pool import ServeSession

        return ServeSession(self, workers=workers, store=store,
                            capacity=capacity, transport=transport,
                            chunk=chunk, delta=delta, **transport_options)

    def _dense_engine(self, family: str) -> PairwiseEngine:
        """Per-epoch dense-served engine for one min-plus family (memoized).

        Built at the first query after a mutation: freeze the live index
        (O(Δ) — derived from the previous freeze), snapshot the graph
        (copy-on-write), and derive the dense plane from the previous
        epoch's plane.  Queries between mutations reuse the cached engine.
        """
        entry = self._dense_serving.get(family)
        if entry is not None and entry[0] == self.epoch:
            return entry[1]
        snapshot = self.snapshot()
        index = self._indexes[family]
        fwd, bwd = index.freeze()
        view_graph = (UnitWeightView(snapshot) if family == "hops"
                      else snapshot)
        frozen = HubIndex.from_tables(
            view_graph, index.hubs, index.semiring, fwd,
            backward_tables=bwd if snapshot.directed else None,
            copy=False,
        )
        plane = DensePlane.build(
            snapshot, index.hubs, fwd, bwd,
            unit_weights=(family == "hops"),
            prev=self._dense_planes.get(family),
        )
        self._dense_planes[family] = plane
        workspace = self._workspaces.get(family)
        if workspace is None:
            workspace = self._workspaces[family] = SearchWorkspace()
        engine = PairwiseEngine(
            view_graph, index=frozen, policy=self._config.policy, dense=plane,
            workspace=workspace,
        )
        self._dense_serving[family] = (self.epoch, engine)
        return engine

    def workspace_stats(self, family: str = "distance") -> Dict[str, int]:
        """Lifetime reuse counters of one family's dense search workspace.

        All zeros until the family has served a dense query.  In steady
        state ``workspace_allocs`` stays at 1 across epochs (the workspace
        outlives each per-epoch engine) while ``workspace_hits`` /
        ``workspace_resets`` count reused searches.
        """
        workspace = self._workspaces.get(family) or SearchWorkspace()
        return workspace.stats_row()

    def _run(
        self,
        kind: QueryKind,
        family: str,
        source: int,
        target: int,
        tolerance: float = 0.0,
    ) -> QueryResult:
        self._ensure_indexes()
        if family not in self._engines:
            raise ConfigError(
                f"{kind.value} queries need the {family!r} family in "
                f"SGraphConfig.queries (configured: {self._config.queries})"
            )
        cache_key = None
        if self._cache is not None:
            cache_key = (kind, source, target, tolerance)
            cached = self._cache.get(cache_key, self.epoch)
            if cached is not None:
                return cached  # type: ignore[return-value]
        engine = self._serving_engine(family)
        start = time.perf_counter()
        value, stats = engine.best_cost(source, target, tolerance=tolerance)
        stats.elapsed = time.perf_counter() - start
        result = QueryResult(
            kind=kind,
            source=source,
            target=target,
            value=value,
            stats=stats,
            epoch=self.epoch,
        )
        if self._cache is not None:
            self._cache.put(cache_key, self.epoch, result)
        return result
