"""Epoch-scoped search workspaces: per-query setup in O(touched), not O(V).

Every dense-plane verb needs the same per-search state — distance labels,
settled bytemaps, parent arrays, two indexed heaps — and before this module
existed each call rebuilt all of it from scratch: ``[inf] * n`` twice, two
``bytearray(n)``, fresh heaps.  For the index-pruned queries that dominate
real workloads (settled after touching a few dozen vertices) that O(V)
setup *was* the query.

:class:`SearchWorkspace` keeps one copy of that state alive across queries
and restores it by **sparse reset**: every array write in the search loops
is paired with a ``heap.push`` of the same dense id (seeds included), so
the heap's insertion journal is a complete record of the touched entries.
``release()`` walks the journal and resets only those — the search loop
text stays byte-for-byte identical, and steady-state per-query cost is
proportional to work done, not graph size.

The contract is acquire → search → release, with release in a ``finally``
so an exception mid-search can never leak a dirty workspace into the next
query.  A workspace is bound to one plane epoch (engine or serving worker);
rebinding onto a same-sized plane is free, resizing reallocates once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.utils.pqueue import IndexedHeap

_INF = math.inf


class JournaledHeap(IndexedHeap):
    """An :class:`IndexedHeap` that records each key's *first* insertion.

    ``journal`` lists every key pushed since the last :meth:`clear`, exactly
    once, regardless of later decrease-keys, pops, or removals.  Because the
    search loops only ever write a label / settled mark / parent entry for a
    key they also push (or for the seed, which is pushed too), the journal
    enumerates precisely the workspace entries that need resetting.

    Heap semantics are identical to the parent class; ``push`` is re-inlined
    here so journaling costs one ``list.append`` on first insertion and
    nothing on the decrease-key path.
    """

    __slots__ = ("journal",)

    def __init__(self) -> None:
        super().__init__()
        self.journal: List[int] = []

    def push(self, key: int, priority: float) -> bool:
        heap = self._heap
        pos = self._pos
        idx = pos.get(key)
        if idx is None:
            self.journal.append(key)
            heap.append((priority, key))
            pos[key] = len(heap) - 1
            self._sift_up(len(heap) - 1)
            return True
        if priority < heap[idx][0]:
            heap[idx] = (priority, key)
            self._sift_up(idx)
            return True
        return False

    def clear(self) -> None:
        super().clear()
        self.journal.clear()


class SearchWorkspace:
    """Reusable per-search state for every dense-plane verb.

    Owns two of everything (forward / backward direction): distance label
    lists ``g_f`` / ``g_b``, settled bytemaps, parent arrays, plus the
    lazily-allocated ``slot`` active-target map used by the batched
    one-to-many verb and two :class:`JournaledHeap` instances whose backing
    storage is retained across queries.

    Lifecycle::

        ws = engine-or-worker workspace          # one per plane epoch
        reused = ws.acquire(csr.num_vertices)    # O(1) warm, O(V) on resize
        try:
            ... run the search on ws.g_f / ws.settled_f / ws.heap_f ...
        finally:
            touched = ws.release()               # sparse reset, O(touched)

    Counters (``allocations`` / ``hits`` / ``resets`` / ``touched_reset``)
    accumulate over the workspace's lifetime and surface through
    ``QueryStats`` and serving ``stats_row()`` so steady-state reuse is
    observable: a healthy serving worker shows ``allocations`` frozen at its
    epoch-rebind count while ``hits``/``resets`` track request throughput.
    """

    __slots__ = (
        "num_vertices",
        "g_f", "g_b",
        "settled_f", "settled_b",
        "parent_f", "parent_b",
        "slot",
        "heap_f", "heap_b",
        "allocations", "hits", "resets", "touched_reset",
        "in_use", "_fresh",
    )

    def __init__(self, num_vertices: int = 0) -> None:
        self.allocations = 0
        self.hits = 0
        self.resets = 0
        self.touched_reset = 0
        self.in_use = False
        self.heap_f = JournaledHeap()
        self.heap_b = JournaledHeap()
        self._allocate(num_vertices)

    # -- storage ------------------------------------------------------------

    def _allocate(self, n: int) -> None:
        """(Re)build the O(V) state for an ``n``-vertex plane."""
        self.num_vertices = n
        self.g_f = [_INF] * n
        self.g_b = [_INF] * n
        self.settled_f = bytearray(n)
        self.settled_b = bytearray(n)
        self.parent_f = [-1] * n
        self.parent_b = [-1] * n
        # The one-to-many slot map is allocated on first use so
        # pairwise-only workloads never pay for it.
        self.slot: Optional[List[int]] = None
        self.heap_f.clear()
        self.heap_b.clear()
        if n:
            # The empty shell built by `SearchWorkspace()` before a plane is
            # known costs nothing and is not a real allocation.
            self.allocations += 1
        self._fresh = True

    def ensure_slot(self) -> List[int]:
        """Allocate the dense-id → active-target slot map if absent."""
        if self.slot is None:
            self.slot = [-1] * self.num_vertices
        return self.slot

    # -- lifecycle ----------------------------------------------------------

    def acquire(self, num_vertices: int) -> bool:
        """Claim the workspace for one search over ``num_vertices`` ids.

        Returns True when the existing O(V) state was reused (the sparse-
        reset fast path) and False when it had to be (re)built — either the
        first search after construction or a plane-size change on epoch
        rebind.
        """
        if num_vertices != self.num_vertices:
            self._allocate(num_vertices)
        reused = not self._fresh
        self._fresh = False
        if reused:
            self.hits += 1
        self.in_use = True
        return reused

    def release(self) -> int:
        """Sparse-reset everything the last search touched.

        Walks both heap journals, restoring ``g[v] = inf``, the settled
        mark and the parent entry for each touched id, then clears the
        heaps in place — backing list/dict capacity is retained.  Returns
        the number of touched entries reset.  Always call from a
        ``finally`` so a raising search cannot leak state.
        """
        touched = 0
        for heap, g, settled, parent in (
            (self.heap_f, self.g_f, self.settled_f, self.parent_f),
            (self.heap_b, self.g_b, self.settled_b, self.parent_b),
        ):
            journal = heap.journal
            touched += len(journal)
            for v in journal:
                g[v] = _INF
                settled[v] = 0
                parent[v] = -1
            heap.clear()
        self.resets += 1
        self.touched_reset += touched
        self.in_use = False
        return touched

    # -- observability ------------------------------------------------------

    def stats_row(self) -> Dict[str, int]:
        """Lifetime reuse counters, in ``stats_row()`` column form."""
        return {
            "workspace_vertices": self.num_vertices,
            "workspace_allocs": self.allocations,
            "workspace_hits": self.hits,
            "workspace_resets": self.resets,
            "touched_reset": self.touched_reset,
        }

    def is_clean(self) -> bool:
        """O(V) audit that no search state leaked (test use only)."""
        if self.heap_f or self.heap_b:
            return False
        if self.heap_f.journal or self.heap_b.journal:
            return False
        if any(x != _INF for x in self.g_f) or any(x != _INF for x in self.g_b):
            return False
        if any(self.settled_f) or any(self.settled_b):
            return False
        for parent in (self.parent_f, self.parent_b):
            if any(p != -1 for p in parent):
                return False
        if self.slot is not None and any(i != -1 for i in self.slot):
            return False
        return True
