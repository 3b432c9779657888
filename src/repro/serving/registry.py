"""The epoch-handoff slot table: one state machine over one of two buffers.

A registry is the one piece of shared state between a plane writer and
its readers: a table of published planes, each identified by a *ref* (a
shm segment name, a payload digest — whatever the transport uses to find
the bytes) and carrying an epoch, a refcount, and a state in
{FREE, LIVE, RETIRED}.  The protocol:

* the writer :meth:`~EpochRegistry.register`\\ s a fully materialized
  plane as the newest epoch; the previous current slot is RETIRED and a
  generation counter bumps (the reader's one-word staleness probe);
* readers :meth:`~EpochRegistry.acquire` a reference on the current slot
  before serving from it and :meth:`~EpochRegistry.release` it when they
  move on; a RETIRED slot whose refcount reaches zero is *evicted* (the
  segment is unlinked / the transport drops the payload);
* every reader's references are a multiset of slots, so a reader that
  dies — even between acquiring the new epoch and releasing the old one —
  is reaped whole: :meth:`~EpochRegistry.release_reader` returns every
  reference the table attributes to it.

The cells are numpy arrays over one of two buffers.
:meth:`EpochRegistry.create` / :meth:`EpochRegistry.attach` lay the table
into a small shared-memory segment the writer and its forked readers all
map, behind a ``multiprocessing`` lock; reader ids are worker indexes
into a ``(num_workers, num_slots)`` count matrix inside the segment, and
eviction unlinks the plane's segment.  The constructor keeps the table in
process-private memory behind a ``threading.RLock`` (the TCP server
keeps its generation and current epoch there; its readers copy each plane
and take no references); reader ids are any hashable token, each with its
own count row.  The safety argument is the same for
both: a plane is fully written *before* its ref is registered, and a ref
is evicted only when its slot is RETIRED with refcount zero — so no
reader can ever observe a torn or vanished plane.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serving import shm_plane
from repro.serving.shm_plane import _untrack, unlink_segment

try:  # pragma: no cover
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: slot states
FREE, LIVE, RETIRED = 0, 1, 2

#: default slot-table capacity (bounds how many retired planes readers
#: may pin concurrently before registration fails loudly)
DEFAULT_SLOTS = 16

_NAME_LEN = 128
_HEADER = 4  # generation, current_slot, num_slots, num_workers


def _table_bytes(num_slots: int, num_workers: int) -> int:
    return (_HEADER * 8 + num_slots * (_NAME_LEN + 3 * 8)
            + num_workers * num_slots * 8)


def _unlink_plane(_slot: int, name: str) -> None:
    unlink_segment(name)


class EpochRegistry:
    """The slot table: FREE/LIVE/RETIRED states, refcounts, reaping.

    :meth:`create` / :meth:`attach` build it over a shared-memory segment;
    ``EpochRegistry(num_slots, on_evict)`` builds a process-private
    table.  ``on_evict(slot, ref)`` fires — under the lock — whenever a
    slot is freed, so the owning transport can drop the payload the ref
    points at.
    """

    def __init__(self, num_slots: int = DEFAULT_SLOTS,
                 on_evict: Optional[Callable[[int, str], None]] = None
                 ) -> None:
        if num_slots < 1:
            raise ConfigError("num_slots must be >= 1")
        self._shm = None
        self._created = False
        self._lock = threading.RLock()
        self._on_evict = on_evict
        # reader -> count row; the shm table keeps its rows in the segment
        self._rows: Optional[Dict[object, np.ndarray]] = {}
        self._map(bytearray(_table_bytes(num_slots, 0)),
                  (0, -1, num_slots, 0))

    @classmethod
    def create(cls, name: str, num_workers: int, lock,
               num_slots: int = DEFAULT_SLOTS) -> "EpochRegistry":
        """Writer side: allocate a zeroed table segment for ``num_workers``
        readers, who attach it by ``name``."""
        if shared_memory is None:  # pragma: no cover
            raise ConfigError("multiprocessing.shared_memory is unavailable")
        if num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if num_slots < 1:
            raise ConfigError("num_slots must be >= 1")
        size = _table_bytes(num_slots, num_workers)
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        shm_plane._created.add(name)
        _untrack(name)
        shm.buf[:size] = bytes(size)
        return cls._over_segment(shm, lock, True,
                                 (0, -1, num_slots, num_workers))

    @classmethod
    def attach(cls, name: str, lock) -> "EpochRegistry":
        """Reader side: map an existing table segment."""
        return cls._over_segment(shm_plane._attach_segment(name), lock, False)

    @classmethod
    def _over_segment(cls, shm, lock, created: bool,
                      header=None) -> "EpochRegistry":
        self = cls.__new__(cls)
        self._shm = shm
        self._created = created
        self._lock = lock
        self._on_evict = _unlink_plane
        self._rows = None
        self._map(shm.buf, header)
        return self

    def _map(self, buf, header=None) -> None:
        head = np.frombuffer(buf, dtype=np.int64, count=_HEADER)
        if header is not None:
            head[:] = header
        num_slots, num_workers = int(head[2]), int(head[3])
        off = _HEADER * 8
        self._head = head  # [generation, current_slot, slots, workers]
        self._names = np.frombuffer(
            buf, dtype=np.uint8, count=num_slots * _NAME_LEN, offset=off
        ).reshape(num_slots, _NAME_LEN)
        off += num_slots * _NAME_LEN
        # (num_slots, 3): epoch, refcount, state
        self._meta = np.frombuffer(
            buf, dtype=np.int64, count=num_slots * 3, offset=off
        ).reshape(num_slots, 3)
        off += num_slots * 3 * 8
        # (num_workers, num_slots): references each worker holds per slot
        self._held = np.frombuffer(
            buf, dtype=np.int64, count=num_workers * num_slots, offset=off
        ).reshape(num_workers, num_slots)

    # -- introspection ------------------------------------------------------

    @property
    def lock(self):
        """The mutation lock (the TCP server guards its publish history
        under it too, so an acquire reads one consistent plane)."""
        return self._lock

    @property
    def name(self) -> Optional[str]:
        """The table segment's name (None for a process-private table)."""
        return None if self._shm is None else self._shm.name.lstrip("/")

    def generation(self) -> int:
        """Registration counter — the reader's cheap staleness probe."""
        with self._lock:
            return int(self._head[0])

    def current_epoch(self) -> Optional[int]:
        """Epoch of the current slot, or None before the first publish."""
        with self._lock:
            slot = int(self._head[1])
            return None if slot < 0 else int(self._meta[slot, 0])

    def slots(self) -> List[Tuple[int, str, int, int, int]]:
        """Snapshot of non-FREE slots: (slot, ref, epoch, refcount, state)."""
        with self._lock:
            return [
                (int(i), self._slot_name(i), int(self._meta[i, 0]),
                 int(self._meta[i, 1]), int(self._meta[i, 2]))
                for i in np.flatnonzero(self._meta[:, 2] != FREE)
            ]

    def readers(self) -> Dict[object, Dict[int, int]]:
        """Per-reader multiset of held slots (reap bookkeeping)."""
        with self._lock:
            rows = (enumerate(self._held) if self._rows is None
                    else self._rows.items())
            out = {}
            for reader, row in rows:
                held = {int(s): int(row[s]) for s in np.flatnonzero(row)}
                if held:
                    out[reader] = held
            return out

    # -- writer protocol ----------------------------------------------------

    def register(self, ref: str, epoch: int) -> int:
        """Publish a fully materialized plane as the newest epoch.

        Retires the previous current slot (evicted immediately when no
        reader holds it, else by the last release) and bumps the
        generation.  Returns the slot index used.
        """
        encoded = ref.encode("ascii")
        if len(encoded) >= _NAME_LEN:
            raise ConfigError(f"plane ref too long: {ref!r}")
        with self._lock:
            free = np.flatnonzero(self._meta[:, 2] == FREE)
            if not len(free):
                raise ConfigError(
                    "epoch registry is full: readers are holding "
                    f"{len(self._meta)} retired planes"
                )
            slot = int(free[0])
            row = self._names[slot]
            row[:] = 0
            row[: len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)
            self._meta[slot] = (epoch, 0, LIVE)
            old = int(self._head[1])
            if old >= 0:
                self._meta[old, 2] = RETIRED
                self._maybe_evict(old)
            self._head[1] = slot
            self._head[0] += 1
            return slot

    def release_reader(self, reader) -> int:
        """Reap a reader that died without releasing: return every
        reference the table attributes to it.  Returns how many."""
        with self._lock:
            row = self._row(reader)
            if row is None:
                return 0
            returned = int(row.sum())
            for slot in np.flatnonzero(row):
                self._meta[slot, 1] -= row[slot]
                row[slot] = 0
                self._maybe_evict(slot)
            if self._rows is not None:
                del self._rows[reader]
            return returned

    def shutdown(self) -> None:
        """Writer teardown: evict every remaining slot (and unlink the
        table segment this process created)."""
        with self._lock:
            for slot in np.flatnonzero(self._meta[:, 2] != FREE):
                self._evict(slot)
            self._head[1] = -1
            if self._rows is not None:
                self._rows.clear()
        if self._shm is not None:
            name = self.name
            self.detach()
            if self._created:
                unlink_segment(name)

    # -- reader protocol ----------------------------------------------------

    def acquire(self, reader) -> Optional[Tuple[int, int, int, str]]:
        """Take a reference on the current plane for ``reader``.

        Returns ``(generation, slot, epoch, ref)``, or None when nothing
        has been registered yet.  The caller must pair this with
        :meth:`release` — or die and be reaped via :meth:`release_reader`.
        """
        with self._lock:
            slot = int(self._head[1])
            if slot < 0:
                return None
            self._meta[slot, 1] += 1
            self._row(reader, create=True)[slot] += 1
            return (int(self._head[0]), slot, int(self._meta[slot, 0]),
                    self._slot_name(slot))

    def release(self, slot: int, reader) -> bool:
        """Drop one of ``reader``'s references on ``slot``; the last
        release of a retired slot evicts it.

        Tolerant: a release the table does not attribute to ``reader`` (a
        retried release whose reference a reap already returned, or one
        landing on a restarted writer that never saw the acquire) changes
        nothing.  Returns whether a reference was returned.
        """
        with self._lock:
            row = self._row(reader)
            if row is None or not 0 <= slot < len(row) or row[slot] <= 0:
                return False
            row[slot] -= 1
            self._meta[slot, 1] -= 1
            self._maybe_evict(slot)
            return True

    def detach(self) -> None:
        """Drop this process's mapping of the table segment."""
        if self._shm is None:
            return
        # numpy views must be dropped before the mapping can close.
        self._head = self._names = self._meta = self._held = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass

    # -- internals ----------------------------------------------------------

    def _row(self, reader, create: bool = False) -> Optional[np.ndarray]:
        # Lock held.  The reader's per-slot reference counts.
        if self._rows is None:
            return self._held[reader]
        row = self._rows.get(reader)
        if row is None and create:
            row = self._rows[reader] = np.zeros(len(self._meta), np.int64)
        return row

    def _slot_name(self, slot: int) -> str:
        return bytes(self._names[slot]).rstrip(b"\0").decode("ascii")

    def _maybe_evict(self, slot: int) -> None:
        # Lock held.  RETIRED + refcount 0 means nobody can ever reach the
        # ref again (readers only learn refs of the *current* slot), so the
        # last releaser evicts it.
        if self._meta[slot, 2] == RETIRED and self._meta[slot, 1] <= 0:
            self._evict(slot)

    def _evict(self, slot: int) -> None:
        ref = self._slot_name(slot)
        self._names[slot] = 0
        self._meta[slot] = (0, 0, FREE)
        if self._on_evict is not None:
            self._on_evict(int(slot), ref)


#: former name of the process-private table, kept as an alias
LocalRegistry = EpochRegistry
