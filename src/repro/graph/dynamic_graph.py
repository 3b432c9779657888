"""Mutable, versioned graph storage for evolving-graph workloads.

:class:`DynamicGraph` is the ingestion-side representation: a weighted
adjacency structure (directed or undirected) that tracks an *epoch* counter.
Every mutation advances the epoch, and :meth:`DynamicGraph.snapshot` freezes
the current state into an immutable :class:`~repro.graph.snapshot.GraphSnapshot`
that query engines and indexes run against.  This epoch/snapshot split is the
pure-Python stand-in for SGraph's concurrent ingest/query design: updates and
queries never race because queries only ever see published epochs.

Weights must be *strictly positive* finite floats: shortest-path semantics
need non-negative weights, and the incremental index maintainer additionally
relies on zero-weight cycles being impossible for its deletion repair to be
sound.  For unweighted use, leave the weight at the default 1.0.

Snapshots are copy-on-write: the graph keeps a dirty-vertex journal since
the last snapshot, every mutation clones a vertex's adjacency dict only the
first time that vertex is touched after a snapshot, and
:meth:`DynamicGraph.snapshot` derives the new snapshot from the previous
one's mapping plus the journal.  Freezing therefore costs O(vertices changed
since the last snapshot), not O(V+E), and calling ``snapshot()`` twice at
the same epoch returns the identical object.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import (
    EdgeNotFoundError,
    InvalidWeightError,
    VertexNotFoundError,
)
from repro.graph.deltas import derive_touched
from repro.graph.snapshot import DictGraph, Edge, GraphSnapshot


def _check_weight(weight: float) -> float:
    weight = float(weight)
    if math.isnan(weight) or math.isinf(weight) or weight <= 0.0:
        raise InvalidWeightError(
            f"edge weight must be a finite positive number, got {weight!r}"
        )
    return weight


class DynamicGraph(DictGraph):
    """A weighted graph that supports in-place edge/vertex churn.

    The read surface (traversal, degrees, edge lookups) is
    :class:`~repro.graph.snapshot.DictGraph`'s, shared with every snapshot.

    Parameters
    ----------
    directed:
        If True, ``add_edge(u, v)`` creates only the arc u→v and a reverse
        adjacency is maintained for backward traversal.  If False, edges are
        symmetric and stored once in each endpoint's adjacency.
    """

    def __init__(self, directed: bool = False) -> None:
        self._directed = directed
        self._out: Dict[int, Dict[int, float]] = {}
        # For undirected graphs _in aliases _out, so backward traversal is
        # uniform for the engines without duplicating storage.
        self._in: Dict[int, Dict[int, float]] = {} if directed else self._out
        self._num_edges = 0
        self._epoch = 0
        # Dirty-vertex journal: vertices whose adjacency dict was (re)bound
        # or mutated since the last snapshot.  A vertex NOT in the journal
        # may share its adjacency dict with the last snapshot, so mutators
        # clone-before-write on first touch (see _touch_out/_touch_in).
        self._dirty_out: set = set()
        self._dirty_in: set = self._dirty_out if not directed else set()
        self._last_snapshot: Optional[GraphSnapshot] = None

    # -- copy-on-write plumbing ----------------------------------------------

    def _touch_out(self, vertex: int) -> None:
        """Mark ``vertex``'s forward adjacency dirty, cloning it first when
        it may be shared with the last snapshot."""
        if vertex not in self._dirty_out:
            if self._last_snapshot is not None:
                nbrs = self._out.get(vertex)
                if nbrs is not None:
                    self._out[vertex] = dict(nbrs)
            self._dirty_out.add(vertex)

    def _touch_in(self, vertex: int) -> None:
        if not self._directed:
            self._touch_out(vertex)
            return
        if vertex not in self._dirty_in:
            if self._last_snapshot is not None:
                nbrs = self._in.get(vertex)
                if nbrs is not None:
                    self._in[vertex] = dict(nbrs)
            self._dirty_in.add(vertex)

    # -- vertices -------------------------------------------------------------

    def add_vertex(self, vertex: int) -> bool:
        """Ensure ``vertex`` exists.  Returns True if it was newly created."""
        if vertex in self._out:
            return False
        self._out[vertex] = {}
        self._dirty_out.add(vertex)
        if self._directed:
            self._in[vertex] = {}
            self._dirty_in.add(vertex)
        self._epoch += 1
        return True

    def remove_vertex(self, vertex: int) -> None:
        """Remove ``vertex`` and every incident edge."""
        if vertex not in self._out:
            raise VertexNotFoundError(vertex)
        for dst in list(self._out[vertex]):
            self._remove_edge_internal(vertex, dst)
        if self._directed:
            for src in list(self._in[vertex]):
                self._remove_edge_internal(src, vertex)
            del self._in[vertex]
            self._dirty_in.add(vertex)
        del self._out[vertex]
        self._dirty_out.add(vertex)
        self._epoch += 1

    # -- edges ----------------------------------------------------------------

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        """Insert or update the edge ``src → dst``.

        Self-loops are stored but never affect shortest paths.  Returns True
        if a new edge was created, False if an existing edge's weight was
        updated.
        """
        weight = _check_weight(weight)
        self.add_vertex(src)
        self.add_vertex(dst)
        self._touch_out(src)
        created = dst not in self._out[src]
        self._out[src][dst] = weight
        if self._directed:
            self._touch_in(dst)
            self._in[dst][src] = weight
        elif src != dst:
            self._touch_out(dst)
            self._out[dst][src] = weight
        if created:
            self._num_edges += 1
        self._epoch += 1
        return created

    def remove_edge(self, src: int, dst: int) -> None:
        """Remove the edge ``src → dst`` (or the undirected edge {src, dst})."""
        if src not in self._out or dst not in self._out[src]:
            raise EdgeNotFoundError(src, dst)
        self._remove_edge_internal(src, dst)
        self._epoch += 1

    def _remove_edge_internal(self, src: int, dst: int) -> None:
        self._touch_out(src)
        del self._out[src][dst]
        if self._directed:
            self._touch_in(dst)
            del self._in[dst][src]
        elif src != dst:
            self._touch_out(dst)
            del self._out[dst][src]
        self._num_edges -= 1

    def discard_edge(self, src: int, dst: int) -> bool:
        """Remove the edge if present.  Returns True if removed."""
        if src in self._out and dst in self._out[src]:
            self._remove_edge_internal(src, dst)
            self._epoch += 1
            return True
        return False

    # -- bulk construction -------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[int, int] | Edge], directed: bool = False
    ) -> "DynamicGraph":
        """Build a graph from ``(src, dst)`` or ``(src, dst, weight)`` tuples."""
        graph = cls(directed=directed)
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge  # type: ignore[misc]
                graph.add_edge(src, dst)
            else:
                src, dst, weight = edge  # type: ignore[misc]
                graph.add_edge(src, dst, weight)
        return graph

    def copy(self) -> "DynamicGraph":
        """Deep copy with an independent epoch counter (reset to 0)."""
        clone = DynamicGraph(directed=self._directed)
        clone._out = {v: dict(nbrs) for v, nbrs in self._out.items()}
        if self._directed:
            clone._in = {v: dict(nbrs) for v, nbrs in self._in.items()}
        else:
            clone._in = clone._out
        clone._num_edges = self._num_edges
        return clone

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> GraphSnapshot:
        """Freeze the current state into an immutable snapshot.

        Memoized per epoch: calling this twice with no intervening mutation
        returns the same object.  Otherwise the new snapshot is derived from
        the previous one plus the dirty-vertex journal — unchanged vertices
        share their per-vertex adjacency dicts with the previous snapshot
        (copy-on-write keeps later mutations from leaking in), so the cost
        is O(vertices changed since the last snapshot).
        """
        prev = self._last_snapshot
        if prev is not None and prev.epoch == self._epoch:
            return prev
        if prev is None:
            # First snapshot: one top-level copy that shares the per-vertex
            # dicts; the copy-on-write discipline protects them from now on.
            out = dict(self._out)
            inn = dict(self._in) if self._directed else None
        else:
            out = derive_touched(prev._out, self._out, self._dirty_out)
            inn = (derive_touched(prev._in, self._in, self._dirty_in)
                   if self._directed else None)
        snap = GraphSnapshot(
            out=out,
            inn=inn,
            directed=self._directed,
            num_edges=self._num_edges,
            epoch=self._epoch,
        )
        self._last_snapshot = snap
        self._dirty_out.clear()
        if self._directed:
            self._dirty_in.clear()
        return snap
