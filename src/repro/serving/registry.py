"""The writer's record of its newest published plane.

Readers never consult it: a shm pool request carries the record as its
stamp, and a tcp reader asks the server, which reads it.  So the record
is writer-private — ``(generation, epoch, ref)`` behind a
``threading.RLock`` — and holds no reader state.  A *ref* is whatever the
transport finds the bytes by: a shm segment name, a payload digest.

Nothing here keeps a plane alive.  The transport owns each plane's
lifetime: :class:`~repro.serving.transport.ShmTransport` keeps the last
``KEEP_LINKED`` segments linked (a reader's mapping outlives the unlink),
and the TCP server its last ``cache_planes`` payloads (its readers copy
every plane they serve).  A plane is fully written *before* its ref is
registered, so no reader can observe a torn plane.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple


class EpochRegistry:
    """``(generation, epoch, ref)`` of the newest registered plane."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._generation = 0
        # replaced whole under the lock, so a lock-free read is consistent
        self._current: Optional[Tuple[int, int, str]] = None

    @property
    def lock(self):
        """The mutation lock (the TCP server guards its publish history
        under it too, so an acquire reads one consistent plane)."""
        return self._lock

    def generation(self) -> int:
        """Registration counter — the reader's cheap staleness probe."""
        return self._generation

    def current(self) -> Optional[Tuple[int, int, str]]:
        """``(generation, epoch, ref)``, or None before the first publish."""
        return self._current

    def current_epoch(self) -> Optional[int]:
        """Epoch of the newest plane, or None before the first publish."""
        current = self._current
        return None if current is None else current[1]

    def register(self, ref: str, epoch: int) -> int:
        """Record a fully materialized plane as the newest epoch; returns
        the new generation."""
        with self._lock:
            self._generation += 1
            self._current = (self._generation, epoch, ref)
            return self._generation

    # The members below only keep the perf ledger's slot-table probe
    # (``perf/layers.py``) running until ROADMAP's re-baseline item
    # retires its ``registry.*_cycle_us`` cells; nothing else calls them.

    @classmethod
    def create(cls, _name: str, num_workers: int = 1,
               lock=None) -> "EpochRegistry":
        return cls()

    def acquire(self, _reader) -> Optional[Tuple[int, int, str]]:
        return self.current()

    def release(self, _slot, _reader) -> None:
        pass

    def shutdown(self) -> None:
        pass


#: former name of the process-private table, kept as an alias
LocalRegistry = EpochRegistry
