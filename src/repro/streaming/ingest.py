"""The ingestion engine: applies update streams to a graph and its indexes.

Responsibilities:

* apply each :class:`~repro.streaming.update.EdgeUpdate` to the live
  :class:`~repro.graph.DynamicGraph` with the right mutate-then-notify
  ordering (the incremental maintainers read post-mutation adjacency);
* translate weight *changes* (insert of an existing edge) into a delete+
  insert notification pair;
* tolerate redundant updates (inserting an identical edge, deleting a
  missing edge) the way a real stream consumer must — they are counted and
  skipped, not fatal;
* account for throughput and maintenance work (:class:`IngestStats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Sequence

from repro.graph.dynamic_graph import DynamicGraph
from repro.streaming.update import EdgeUpdate, UpdateKind


class IndexListener(Protocol):
    """Anything that tracks graph mutations (hub indexes, baselines)."""

    def notify_edge_inserted(self, src: int, dst: int, weight: float) -> None: ...

    def notify_edge_deleted(self, src: int, dst: int, old_weight: float) -> None: ...


@dataclass
class IngestStats:
    """Counters for one ingestion run."""

    applied: int = 0
    inserts: int = 0
    deletes: int = 0
    redundant: int = 0
    #: vertices settled by index maintenance across all listeners
    maintenance_settled: int = 0
    elapsed: float = 0.0

    @property
    def updates_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.applied / self.elapsed

    def as_row(self) -> dict:
        return {
            "applied": self.applied,
            "+": self.inserts,
            "-": self.deletes,
            "redundant": self.redundant,
            "settled": self.maintenance_settled,
            "ups": round(self.updates_per_second),
        }


class IngestEngine:
    """Applies update streams to one graph, keeping listeners in sync."""

    def __init__(
        self,
        graph: DynamicGraph,
        listeners: Optional[Sequence[IndexListener]] = None,
    ) -> None:
        self._graph = graph
        self._listeners: List[IndexListener] = list(listeners or [])

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    def add_listener(self, listener: IndexListener) -> None:
        self._listeners.append(listener)

    # -- single updates ---------------------------------------------------------

    def apply_update(self, update: EdgeUpdate, stats: Optional[IngestStats] = None) -> None:
        """Apply one update with mutate-then-notify ordering."""
        if update.kind is UpdateKind.INSERT:
            self._apply_insert(update.src, update.dst, update.weight, stats)
        else:
            self._apply_delete(update.src, update.dst, stats)
        if stats is not None:
            stats.applied += 1

    def _apply_insert(
        self, src: int, dst: int, weight: float, stats: Optional[IngestStats]
    ) -> None:
        graph = self._graph
        old_weight: Optional[float] = None
        if graph.has_edge(src, dst):
            old_weight = graph.edge_weight(src, dst)
            if old_weight == weight:
                if stats is not None:
                    stats.redundant += 1
                return
        settled = 0
        if old_weight is not None:
            # A weight change is a true remove-then-reinsert: each listener
            # notification must observe graph state consistent with the event
            # (deletion repair while the edge is absent, insertion repair
            # after the new edge exists), or a weight decrease smuggled into
            # a deletion repair would improve costs without propagating the
            # improvement beyond the repaired region.
            graph.remove_edge(src, dst)
            for listener in self._listeners:
                listener.notify_edge_deleted(src, dst, old_weight)
                settled += getattr(listener, "settled_last_update", 0)
        graph.add_edge(src, dst, weight)
        for listener in self._listeners:
            listener.notify_edge_inserted(src, dst, weight)
            settled += getattr(listener, "settled_last_update", 0)
        if stats is not None:
            stats.inserts += 1
            stats.maintenance_settled += settled

    def _apply_delete(
        self, src: int, dst: int, stats: Optional[IngestStats]
    ) -> None:
        graph = self._graph
        if not graph.has_edge(src, dst):
            if stats is not None:
                stats.redundant += 1
            return
        old_weight = graph.edge_weight(src, dst)
        graph.remove_edge(src, dst)
        settled = 0
        for listener in self._listeners:
            listener.notify_edge_deleted(src, dst, old_weight)
            settled += getattr(listener, "settled_last_update", 0)
        if stats is not None:
            stats.deletes += 1
            stats.maintenance_settled += settled

    # -- streams -----------------------------------------------------------------

    def apply_all(self, updates: Iterable[EdgeUpdate]) -> IngestStats:
        """Apply a whole stream, timing it."""
        stats = IngestStats()
        start = time.perf_counter()
        for update in updates:
            self.apply_update(update, stats)
        stats.elapsed = time.perf_counter() - start
        return stats
