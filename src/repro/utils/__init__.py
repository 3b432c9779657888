"""Shared low-level utilities: the indexed heap."""

from repro.utils.pqueue import IndexedHeap

__all__ = ["IndexedHeap"]
