"""Keyed min-heap on ``heapq``: decrease-key by lazy deletion.

Dijkstra-style searches dominate this library's runtime, so the sifting
runs in C: decrease-key is a second ``heappush``, a ``key -> best priority``
dict names the one live entry per key, and a superseded entry is dropped
when it surfaces.  ``len``/``bool`` count live keys, not stored entries, so
heap sizes still equal frontier sizes (the bidirectional searches pick a
direction by them).  Entries order as ``(priority, key)``, a total order:
equal priorities pop in key order on every plane, so keys must be mutually
orderable — vertex ids are ints everywhere.  The dense kernels in
:mod:`repro.core.engine` inline the same idiom on plain lists, their label
array being the best-priority table.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterator, Optional, Tuple


class IndexedHeap:
    """Min-heap of ``(priority, key)`` pairs with decrease-key.

    Each key is live at most once; pushing a live key with a smaller
    priority supersedes it, and pushing with a larger or equal priority is
    ignored (the standard relaxation contract).
    """

    __slots__ = ("_heap", "_best")

    def __init__(self) -> None:
        self._heap: list = []                # (priority, key), stale ones too
        self._best: Dict[int, float] = {}    # live keys only

    def __len__(self) -> int:
        return len(self._best)

    def __bool__(self) -> bool:
        return bool(self._best)

    def __contains__(self, key: int) -> bool:
        return key in self._best

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        """Iterate over live (priority, key) pairs in arbitrary order."""
        return ((priority, key) for key, priority in self._best.items())

    def priority(self, key: int) -> Optional[float]:
        """Return the current priority of ``key``, or None if absent."""
        return self._best.get(key)

    def push(self, key: int, priority: float) -> bool:
        """Insert ``key`` or decrease its priority; True if the heap changed
        (a new key, or a strictly smaller priority for a live one)."""
        current = self._best.get(key)
        if current is not None and current <= priority:
            return False
        self._best[key] = priority
        heappush(self._heap, (priority, key))
        return True

    def peek(self) -> Tuple[int, float]:
        """Return ``(key, priority)`` with the smallest priority, no removal."""
        heap = self._heap
        # An entry is live iff it carries its key's best priority (identical
        # twins left by a re-push are interchangeable), and every live key
        # has one, so only an empty heap runs the list dry.
        while heap:
            priority, key = heap[0]
            if self._best.get(key) == priority:
                return key, priority
            heappop(heap)
        raise IndexError("peek at empty IndexedHeap")

    def pop(self) -> Tuple[int, float]:
        """Remove and return ``(key, priority)`` with the smallest priority."""
        heap = self._heap
        best = self._best
        while heap:
            priority, key = heappop(heap)
            if best.get(key) == priority:
                del best[key]
                if not best:
                    heap.clear()  # all stale: garbage must not outlive reuse
                return key, priority
        raise IndexError("pop from empty IndexedHeap")

    def remove(self, key: int) -> bool:
        """Remove ``key`` if present.  Returns True if it was removed."""
        if self._best.pop(key, None) is None:
            return False
        if not self._best:
            self._heap.clear()
        return True

    def clear(self) -> None:
        """Empty the heap in place, retaining the backing containers."""
        self._heap.clear()
        self._best.clear()
