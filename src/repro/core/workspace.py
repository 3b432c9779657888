"""Epoch-scoped search workspaces: per-query setup in O(touched), not O(V).

Every dense-plane verb needs the same per-search state — distance labels,
settled bytemaps, parent arrays, two priority queues — and before this
module existed each call rebuilt all of it from scratch: ``[inf] * n``
twice, two ``bytearray(n)``, fresh heaps.  For the index-pruned queries
that dominate real workloads (settled after touching a few dozen vertices)
that O(V) setup *was* the query.

:class:`SearchWorkspace` keeps one copy of that state alive across queries
and restores it by **sparse reset**: the first write of a label appends its
dense id to that direction's journal, in the same statement group (seeds
included), and a settled mark or parent entry is only ever written for an
id whose label was written first — so the two journals are a complete
record of the touched entries.  ``release()`` walks them and resets only
those; steady-state per-query cost is proportional to work done, not graph
size.

The queues are plain lists driven by ``heapq`` from inside the search loops
(lazy deletion: a relaxation pushes ``(label, id)``, a pop skips ids that
are already settled), so the workspace only owns their storage.

The contract is acquire → search → release, with release in a ``finally``
so an exception mid-search can never leak a dirty workspace into the next
query.  A workspace is bound to one plane epoch (engine or serving worker);
rebinding onto a same-sized plane is free, resizing reallocates once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

_INF = math.inf


class SearchWorkspace:
    """Reusable per-search state for every dense-plane verb.

    Owns two of everything (forward / backward direction): distance label
    lists ``g_f`` / ``g_b``, settled bytemaps, parent arrays, ``heapq``
    entry lists ``heap_f`` / ``heap_b`` and first-touch journals
    ``journal_f`` / ``journal_b``, plus one lazily-allocated extra: the
    potential cache ``pot_f`` / ``pot_b`` of the bound-ordered pairwise
    search (``None`` until a vertex's potential is evaluated, then a
    ``(±p(v), π(v))`` pair per direction; ``journal_p`` records every
    evaluated id).

    Lifecycle::

        ws = engine-or-worker workspace          # one per plane epoch
        reused = ws.acquire(csr.num_vertices)    # O(1) warm, O(V) on resize
        try:
            ... run the search on ws.g_f / ws.settled_f / ws.heap_f,
            ... appending to ws.journal_f before an id's first label write
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
        "pot_f", "pot_b",
        "heap_f", "heap_b",
        "journal_f", "journal_b", "journal_p",
        "allocations", "hits", "resets", "touched_reset",
        "in_use", "_fresh",
    )

    def __init__(self, num_vertices: int = 0) -> None:
        self.allocations = 0
        self.hits = 0
        self.resets = 0
        self.touched_reset = 0
        self.in_use = False
        self.heap_f: List[tuple] = []
        self.heap_b: List[tuple] = []
        self.journal_f: List[int] = []
        self.journal_b: List[int] = []
        self.journal_p: List[int] = []
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
        # The potential cache is allocated on first use, so workloads that
        # never order their search never pay for it.
        self.pot_f: Optional[List[Optional[tuple]]] = None
        self.pot_b: Optional[List[Optional[tuple]]] = None
        for store in (self.heap_f, self.heap_b,
                      self.journal_f, self.journal_b, self.journal_p):
            store.clear()
        if n:
            # The empty shell built by `SearchWorkspace()` before a plane is
            # known costs nothing and is not a real allocation.
            self.allocations += 1
        self._fresh = True

    def ensure_pot(self) -> Tuple[List[Optional[tuple]],
                                  List[Optional[tuple]]]:
        """Allocate the per-direction potential caches if absent."""
        if self.pot_f is None:
            self.pot_f = [None] * self.num_vertices
            self.pot_b = [None] * self.num_vertices
        return self.pot_f, self.pot_b

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

        Walks both journals, restoring ``g[v] = inf``, the settled mark
        and the parent entry for each touched id, and the potential journal,
        clearing each evaluated potential; then empties the journals and the
        heap lists in place.  Returns the number of touched label entries
        reset.  Always call from a ``finally`` so a raising search cannot
        leak state.
        """
        touched = 0
        for journal, heap, g, settled, parent in (
            (self.journal_f, self.heap_f, self.g_f, self.settled_f,
             self.parent_f),
            (self.journal_b, self.heap_b, self.g_b, self.settled_b,
             self.parent_b),
        ):
            touched += len(journal)
            for v in journal:
                g[v] = _INF
                settled[v] = 0
                parent[v] = -1
            journal.clear()
            heap.clear()
        journal_p = self.journal_p
        if journal_p:
            pot_f, pot_b = self.pot_f, self.pot_b
            for v in journal_p:
                pot_f[v] = pot_b[v] = None
            journal_p.clear()
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
        if (self.heap_f or self.heap_b or self.journal_f or self.journal_b
                or self.journal_p):
            return False
        if any(x != _INF for x in self.g_f) or any(x != _INF for x in self.g_b):
            return False
        if any(self.settled_f) or any(self.settled_b):
            return False
        for parent in (self.parent_f, self.parent_b):
            if any(p != -1 for p in parent):
                return False
        for pot in (self.pot_f, self.pot_b):
            if pot is not None and any(p is not None for p in pot):
                return False
        return True
