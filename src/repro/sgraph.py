"""The SGraph facade: evolving graph + hub indexes + pruned query engines.

This is the library's front door.  An :class:`SGraph` owns one
:class:`~repro.graph.DynamicGraph`, builds a hub index per configured query
family (weighted distance, hop count, bottleneck capacity), keeps every
index incrementally in sync as edges churn, and answers pairwise queries
through the pruned bidirectional engine — with the same verbs
(:class:`~repro.core.pairwise.PairwiseVerbs`) a published
:class:`~repro.streaming.versioning.FrozenView` answers with.

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

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cache import QueryCache
from repro.core.config import FAMILIES, SGraphConfig
from repro.core.engine import PairwiseEngine, expand_from_graph
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.pairwise import PairwiseVerbs
from repro.core.semiring import RELIABILITY_PRODUCT
from repro.core.workspace import SearchWorkspace
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


def _check_directed(directed) -> None:
    """Reject a non-bool ``directed``: ``SGraph(g, SGraphConfig(...))``
    binds the config there, and would otherwise run on default knobs."""
    if not isinstance(directed, bool):
        raise ConfigError(
            f"directed must be a bool, got {type(directed).__name__} "
            "(pass the config by keyword: config=...)"
        )


class SGraph(PairwiseVerbs):
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
        _check_directed(directed)
        self._graph = graph if graph is not None else DynamicGraph(directed=directed)
        self._config = config or SGraphConfig()
        self._families = self._config.queries
        self._indexes: Dict[str, HubIndex] = {}
        self._engines: Dict[str, PairwiseEngine] = {}
        self._unit_view = UnitWeightView(self._graph)
        self._hubs: set = set()
        self._cache = (QueryCache(self._config.cache_size)
                       if self._config.cache_size > 0 else None)
        # The families a dense plane serves: the min-plus ones, unless the
        # config pins the dict reference path.
        self._dense_families = frozenset(
            f for f in self._families
            if FAMILIES[f].dense and self._config.backend != "dict"
        )
        # Frozen serving state per family, shared by the live facade's dense
        # queries and every publish: the (epoch, engine) of the latest
        # freeze; the latest plane built, which the next one derives from;
        # and the one search workspace every frozen engine of the family
        # binds, so the O(V) search state survives epoch handoff and
        # steady-state queries only pay the sparse reset.
        self._frozen: Dict[str, Tuple[int, PairwiseEngine]] = {}
        self._planes: Dict[str, DensePlane] = {}
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
        _check_directed(directed)
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
        indexes: Dict[str, HubIndex] = {}
        for family in cfg.queries:
            spec = FAMILIES[family]
            if spec.semiring is RELIABILITY_PRODUCT:
                self._validate_probability_weights()
            indexes[family] = HubIndex.build(
                self._unit_view if spec.unit_weights else self._graph,
                num_hubs, strategy=cfg.hub_strategy, seed=cfg.seed,
                semiring=spec.semiring,
            )
        self._install(indexes)

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
        self._install(dict(indexes))

    def _install(self, indexes: Dict[str, HubIndex]) -> None:
        """Serve queries and maintenance from one index per family."""
        policy = self._config.policy
        self._indexes = indexes
        # Bind each engine to the exact graph (or view) the index was built
        # over, so the engine's identity check holds.
        self._engines = {
            family: PairwiseEngine(index.graph, index=index, policy=policy)
            for family, index in indexes.items()
        }
        self._hubs = {h for index in indexes.values() for h in index.hubs}
        # Frozen engines hold the old tables and must be refrozen; the plane
        # chain stays (the CSR id space is still reusable).
        self._frozen = {}

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
            for family, index in self._indexes.items():
                if not FAMILIES[family].unit_weights:
                    index.notify_edge_deleted(src, dst, old_weight)
                    settled += index.settled_last_update
        graph.add_edge(src, dst, weight)
        for family, index in self._indexes.items():
            unit = FAMILIES[family].unit_weights
            if unit and old_weight is not None:
                continue  # topology unchanged; hop index unaffected
            index.notify_edge_inserted(src, dst, 1.0 if unit else weight)
            settled += index.settled_last_update
        self.last_maintenance_settled = settled

    def remove_edge(self, src: int, dst: int) -> None:
        """Delete an edge (raises if absent; see :meth:`discard_edge`)."""
        old_weight = self._graph.edge_weight(src, dst)
        self._graph.remove_edge(src, dst)
        settled = 0
        for family, index in self._indexes.items():
            unit = FAMILIES[family].unit_weights
            index.notify_edge_deleted(src, dst, 1.0 if unit else old_weight)
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

    # -- serving: which engine answers a query ------------------------------------

    def _engine(self, family: str) -> PairwiseEngine:
        """The engine answering ``family`` queries now.

        With ``backend="dense"`` the min-plus families are always served by
        this epoch's frozen engine (:meth:`_frozen_engine`), its plane built
        here, before the query timer starts.  With ``backend="auto"`` the
        same engine serves them once the workload looks query-heavy (see
        :meth:`serving_backend`); under heavy churn auto skips the per-epoch
        plane and stays on the dict path.  Everything else — and every
        family under ``backend="dict"`` — uses the live dict engine.
        """
        engine = self._engines.get(family)
        if engine is None:
            self.index_for(family)  # builds the indexes, or raises
            engine = self._engines[family]
        if family in self._dense_families and (
                self._config.backend == "dense" or self._note_query()):
            engine = self._frozen_engine(family)
            engine.dense_plane  # forces the lazy build
        return engine

    def _expand(self, source: int, max_results: Optional[int],
                radius: Optional[float]) -> List[Tuple[int, float]]:
        """As :meth:`PairwiseVerbs._expand` (under ``backend="auto"`` the
        expansion counts as a query); with no distance family configured,
        a plain dict traversal of the live graph."""
        if "distance" not in self._families:
            return expand_from_graph(self._graph, source, max_results, radius)
        return super()._expand(source, max_results, radius)

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
        if family not in self._dense_families:
            return "dict"
        if self._config.backend == "dense":
            return "dense"
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

    def _frozen_engine(self, family: str) -> PairwiseEngine:
        """This epoch's engine over the frozen state of ``family`` (memoized).

        The one freeze path, shared by the live facade's dense queries and
        :meth:`VersionedStore.publish`: freeze the index (O(Δ), derived from
        the previous freeze), wrap the tables in a frozen :class:`HubIndex`
        over the copy-on-write snapshot (its unit-weight view for ``hops``)
        and bind the family's search workspace.  A dense-served family gets
        its :class:`DensePlane` lazily, at its first use, so a publish stays
        O(Δ); the plane derives from the last plane built for the family,
        whatever epoch that was (derivation diffs the frozen mappings
        symmetrically, so views queried out of publish order are fine).
        """
        epoch = self.epoch
        entry = self._frozen.get(family)
        if entry is not None and entry[0] == epoch:
            return entry[1]
        index = self.index_for(family)
        snapshot = self.snapshot()
        fwd, bwd = index.freeze()
        hubs = index.hubs
        unit = FAMILIES[family].unit_weights
        graph = UnitWeightView(snapshot) if unit else snapshot
        frozen = HubIndex.from_tables(
            graph, hubs, index.semiring, fwd,
            backward_tables=bwd if snapshot.directed else None,
            copy=False, large_diameter=index.large_diameter,
        )
        build = workspace = None
        if family in self._dense_families:
            def build() -> DensePlane:
                plane = self._planes[family] = DensePlane.build(
                    snapshot, hubs, fwd, bwd, unit_weights=unit,
                    prev=self._planes.get(family),
                    large_diameter=index.large_diameter,
                )
                return plane

            workspace = self._workspaces.setdefault(family, SearchWorkspace())
        engine = PairwiseEngine(
            graph, index=frozen, policy=self._config.policy,
            dense_factory=build, workspace=workspace,
        )
        self._frozen[family] = (epoch, engine)
        return engine

    def workspace_stats(self, family: str = "distance") -> Dict[str, int]:
        """Lifetime reuse counters of one family's dense search workspace.

        All zeros until the family has served a dense query.  Every frozen
        engine of the family binds the same workspace — the live facade's
        and each published view's, at every epoch — so in steady state
        ``workspace_allocs`` stays at 1 while ``workspace_hits`` /
        ``workspace_resets`` count reused searches.
        """
        workspace = self._workspaces.get(family) or SearchWorkspace()
        return workspace.stats_row()
