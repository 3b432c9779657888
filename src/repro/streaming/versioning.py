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
cost.  The freeze itself is the facade's (``SGraph._frozen_engine``): a
view and the live facade at the same epoch share one frozen engine per
family, and so one dense plane.  Queries against a view answer the same
verbs as live queries (:class:`~repro.core.pairwise.PairwiseVerbs`) at the
same cost.  This is the deterministic single-process stand-in for SGraph's
epoch-published, snapshot-isolated concurrent reads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.core.engine import PairwiseEngine
from repro.core.hub_index import DensePlane
from repro.core.pairwise import PairwiseVerbs
from repro.errors import ConfigError, SnapshotError
from repro.graph.snapshot import GraphSnapshot


class FrozenView(PairwiseVerbs):
    """Read-only pairwise query surface over one published epoch."""

    def __init__(
        self,
        snapshot: GraphSnapshot,
        engines: Dict[str, PairwiseEngine],
        label: Optional[str] = None,
    ) -> None:
        self._snapshot = snapshot
        self._engines = engines
        self._families = tuple(engines)
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


class VersionedStore:
    """Bounded ring of published epochs over one :class:`repro.SGraph`."""

    def __init__(self, sgraph, capacity: int = 4) -> None:
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self._sgraph = sgraph
        self._capacity = capacity
        self._views: "OrderedDict[int, FrozenView]" = OrderedDict()
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
        change journals — see the module docstring), and no dense plane is
        built until the view's first dense query or :meth:`FrozenView.dense_plane`.
        """
        sg = self._sgraph
        epoch = sg.epoch
        existing = self._views.get(epoch)
        if existing is not None:
            return existing
        engines = {f: sg._frozen_engine(f) for f in sg.config.queries}
        view = FrozenView(sg.snapshot(), engines, label=label)
        self._views[epoch] = view
        sg._note_published(epoch)
        while len(self._views) > self._capacity:
            self._views.popitem(last=False)
        for callback in list(self._subscribers):
            callback(view)
        return view

    def subscribe(self, callback) -> "Callable[[], None]":
        """Invoke ``callback(view)`` on every *new* publish.

        Republishing an already-published epoch does not fire (the early
        return above never reaches the callbacks), so subscribers see each
        epoch at most once, and a view published before the subscription
        is never replayed.  Returns an idempotent unsubscribe closure.
        """
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

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
