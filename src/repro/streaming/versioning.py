"""Versioned query views: answer pairwise queries *as of* a published epoch.

Real-time OLAP systems let analysts query a consistent recent version while
ingestion races ahead.  :class:`VersionedStore` provides that on top of the
facade: :meth:`VersionedStore.publish` captures the current epoch — an
immutable graph snapshot plus frozen hub-index cost tables — and keeps a
bounded ring of versions.  :meth:`VersionedStore.view_at` returns a
:class:`FrozenView` whose queries run the same pruned engine against that
frozen state, unaffected by later churn.

Publishing is *delta-proportional*: the graph snapshot is derived
copy-on-write from the previous snapshot (unchanged vertices share their
adjacency dicts; see :mod:`repro.graph.deltas`), and each frozen hub table
is derived from the previous freeze's table plus the maintainer's change
journal via :meth:`repro.core.hub_index.HubIndex.freeze`.  A publish after
Δ updates therefore costs O(Δ · affected-region) plus O(k) bookkeeping —
independent of |V| and |E| — and publishing an epoch that is already the
last published one is a dictionary lookup.  Only the first publish (or one
right after a wholesale index rebuild) pays the old O(|V|·k) full-copy
cost.  Queries against a view cost the same as live queries.  This is the
deterministic single-process stand-in for SGraph's epoch-published,
snapshot-isolated concurrent reads.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.engine import PairwiseEngine
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.pairwise import ManyQueryResult, QueryKind, QueryResult
from repro.errors import ConfigError, QueryError, SnapshotError
from repro.graph.snapshot import GraphSnapshot
from repro.graph.views import UnitWeightView


class FrozenView:
    """Read-only pairwise query surface over one published epoch."""

    def __init__(
        self,
        snapshot: GraphSnapshot,
        engines: Dict[str, PairwiseEngine],
        label: Optional[str] = None,
    ) -> None:
        self._snapshot = snapshot
        self._engines = engines
        self.label = label

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    @property
    def snapshot(self) -> GraphSnapshot:
        return self._snapshot

    @property
    def num_vertices(self) -> int:
        return self._snapshot.num_vertices

    @property
    def num_edges(self) -> int:
        return self._snapshot.num_edges

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return f"FrozenView(epoch={self.epoch}{tag})"

    def _engine(self, family: str) -> PairwiseEngine:
        try:
            return self._engines[family]
        except KeyError:
            raise ConfigError(
                f"family {family!r} was not indexed when this view was "
                f"published; available: {sorted(self._engines)}"
            ) from None

    def engine(self, family: str = "distance") -> PairwiseEngine:
        """The frozen engine serving ``family`` at this epoch.

        Public accessor for consumers that need engine internals — the shm
        exporter reads its dense plane, benchmarks read its hub index to
        build bit-identical dict references.
        """
        return self._engine(family)

    def dense_plane(self, family: str = "distance") -> DensePlane:
        """The dense plane serving ``family``, forcing the lazy build.

        This is what the shm exporter lays into a segment: CSR arrays, hub
        rows, and the id map of this epoch.  Raises :class:`ConfigError`
        when the family is served dict-only (``backend="dict"``).
        """
        plane = self._engine(family).dense_plane
        if plane is None:
            raise ConfigError(
                f"family {family!r} is not served by a dense plane at this "
                "view (backend is dict-only)"
            )
        return plane

    def _run(self, kind: QueryKind, family: str, source: int,
             target: int) -> QueryResult:
        engine = self._engine(family)
        start = time.perf_counter()
        value, stats = engine.best_cost(source, target)
        stats.elapsed = time.perf_counter() - start
        return QueryResult(kind=kind, source=source, target=target,
                           value=value, stats=stats, epoch=self.epoch)

    def distance(self, source: int, target: int) -> QueryResult:
        """Weighted shortest-path cost at this epoch."""
        return self._run(QueryKind.DISTANCE, "distance", source, target)

    def hop_distance(self, source: int, target: int) -> QueryResult:
        """Hop count at this epoch."""
        return self._run(QueryKind.HOPS, "hops", source, target)

    def bottleneck(self, source: int, target: int) -> QueryResult:
        """Widest-path capacity at this epoch."""
        return self._run(QueryKind.BOTTLENECK, "capacity", source, target)

    def reachable(self, source: int, target: int) -> QueryResult:
        """Path existence at this epoch."""
        family = next(iter(self._engines))
        engine = self._engines[family]
        start = time.perf_counter()
        exists, stats = engine.feasible(source, target)
        stats.elapsed = time.perf_counter() - start
        return QueryResult(kind=QueryKind.REACHABILITY, source=source,
                           target=target, value=1.0 if exists else 0.0,
                           stats=stats, epoch=self.epoch)

    def within_distance(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether the weighted distance at this epoch is ≤ ``budget``."""
        engine = self._engine("distance")
        start = time.perf_counter()
        ok, stats = engine.within_budget(source, target, budget)
        stats.elapsed = time.perf_counter() - start
        return QueryResult(kind=QueryKind.REACHABILITY, source=source,
                           target=target, value=1.0 if ok else 0.0,
                           stats=stats, epoch=self.epoch)

    # -- batched queries ----------------------------------------------------

    def distance_many(
        self, source: int, targets: Iterable[int]
    ) -> Dict[int, float]:
        """Shortest distances to every target, as of this epoch.

        One shared search (see :meth:`PairwiseEngine.one_to_many`); when
        this view serves the dense plane the whole batch runs on the same
        flat arrays as its pairwise queries.
        """
        return self.distance_many_result(source, targets).values

    def distance_many_result(
        self, source: int, targets: Iterable[int]
    ) -> ManyQueryResult:
        """Like :meth:`distance_many`, surfacing the combined counters."""
        engine = self._engine("distance")
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
        """The ``k`` closest vertices to ``source`` as of this epoch.

        Runs over the view's dense CSR when the distance family is served
        dense; otherwise a dict traversal of the frozen snapshot.
        """
        if k < 1:
            raise QueryError("k must be >= 1")
        return self._engine("distance").expand(source, max_results=k,
                                               radius=None)

    def within(self, source: int, radius: float) -> List[Tuple[int, float]]:
        """All vertices within distance ``radius``, as of this epoch."""
        if radius < 0:
            raise QueryError("radius must be non-negative")
        return self._engine("distance").expand(source, max_results=None,
                                               radius=radius)


class VersionedStore:
    """Bounded ring of published epochs over one :class:`repro.SGraph`."""

    def __init__(self, sgraph, capacity: int = 4) -> None:
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self._sgraph = sgraph
        self._capacity = capacity
        self._views: "OrderedDict[int, FrozenView]" = OrderedDict()
        # Most recently *built* dense plane per family — the `prev` seed that
        # lets the next epoch's plane derive its CSR id space and hub rows
        # delta-proportionally instead of from scratch.
        self._planes: Dict[str, DensePlane] = {}
        self._subscribers: List = []

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._views)

    def epochs(self) -> List[int]:
        """Published epochs, oldest first."""
        return list(self._views)

    def publish(self, label: Optional[str] = None) -> FrozenView:
        """Capture the facade's current state as an immutable version.

        Evicts the oldest version beyond ``capacity``.  Publishing the same
        epoch twice returns the existing view; otherwise the cost is
        proportional to the churn since the last publish (the snapshot and
        every frozen table are derived from the previous version plus the
        change journals — see the module docstring).
        """
        sg = self._sgraph
        epoch = sg.epoch
        existing = self._views.get(epoch)
        if existing is not None:
            return existing
        snapshot = sg.snapshot()  # memoized per epoch
        engines: Dict[str, PairwiseEngine] = {}
        for family in sg.config.queries:
            index = sg.index_for(family)
            fwd, bwd = index.freeze()
            view_graph = (UnitWeightView(snapshot) if family == "hops"
                          else snapshot)
            frozen_index = HubIndex.from_tables(
                view_graph, index.hubs, index.semiring, fwd,
                backward_tables=bwd if snapshot.directed else None,
                copy=False,
            )
            # Dense serving for the min-plus families unless the config pins
            # the dict reference path.  The factory defers the plane build
            # to the first query against this view, so publish() itself
            # stays O(Δ) — no CSR or array materialization here.
            dense_factory = None
            if sg.config.backend != "dict" and family in ("distance", "hops"):
                dense_factory = self._make_plane_factory(
                    family, snapshot, index.hubs, fwd, bwd
                )
            engines[family] = PairwiseEngine(
                view_graph, index=frozen_index, policy=sg.config.policy,
                dense_factory=dense_factory,
            )
        view = FrozenView(snapshot, engines, label=label)
        self._views[epoch] = view
        sg._note_published(epoch)
        while len(self._views) > self._capacity:
            self._views.popitem(last=False)
        for callback in list(self._subscribers):
            callback(view)
        return view

    def subscribe(self, callback,
                  replay_latest: bool = False) -> "Callable[[], None]":
        """Invoke ``callback(view)`` on every *new* publish.

        Republishing an already-published epoch does not fire (the early
        return above never reaches the callbacks), so subscribers see each
        epoch at most once.  With ``replay_latest`` the callback also fires
        immediately for the most recently published view, if any — so a
        subscriber joining a store whose current epoch is already published
        (where ``publish()`` would be a cache hit that fires nothing) still
        observes it.  Returns an idempotent unsubscribe closure.
        """
        self._subscribers.append(callback)
        if replay_latest and self._views:
            callback(next(reversed(self._views.values())))

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _make_plane_factory(self, family, snapshot, hubs, fwd, bwd):
        """Lazy :class:`DensePlane` builder for one published family.

        Chains off the last plane this store built for the family, whatever
        epoch that was: derivation diffs the frozen mapping objects
        symmetrically (union of both overlays), so it is order-independent
        even when views are queried out of publish order or some freezes
        were never queried at all.
        """

        def build() -> DensePlane:
            plane = DensePlane.build(
                snapshot, hubs, fwd, bwd,
                unit_weights=(family == "hops"),
                prev=self._planes.get(family),
            )
            self._planes[family] = plane
            return plane

        return build

    def view_at(self, epoch: int) -> FrozenView:
        """The view published at exactly ``epoch``."""
        try:
            return self._views[epoch]
        except KeyError:
            raise SnapshotError(
                f"epoch {epoch} is not published (or was evicted); "
                f"published: {self.epochs()}"
            ) from None

    def latest(self) -> FrozenView:
        """The most recently published view."""
        if not self._views:
            raise SnapshotError("no version has been published yet")
        return next(reversed(self._views.values()))
