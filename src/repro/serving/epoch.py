"""The epoch handoff protocol between one writer and N plane readers.

A tiny control segment (the *board*) carries everything readers need to
find the newest published plane and everything the writer needs to retire
old ones safely:

* a header: ``generation`` (bumped on every registration — the reader's
  one-word staleness probe), ``current_slot``, and the table dimensions;
* a slot table (default 16 slots): segment name, epoch, refcount, and a
  state in {FREE, LIVE, RETIRED};
* one cell per worker recording which slot it currently holds, so the
  writer can *reap* the refcount of a worker that died without releasing.

Every mutation happens under one shared ``multiprocessing.Lock``.  The
safety argument is layout-free: a plane segment is fully written *before*
:meth:`EpochBoard.register` publishes its name (so no reader can map a
torn plane), and a segment is unlinked only when its slot is RETIRED *and*
its refcount has reached zero (the last detacher — reader or writer —
performs the unlink).  Readers re-attach between requests, so a query in
flight always finishes on the epoch it started on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serving import shm_plane
from repro.serving.registry import FREE, LIVE, RETIRED, EpochRegistry
from repro.serving.shm_plane import _untrack, unlink_segment

try:  # pragma: no cover
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

__all__ = ["EpochBoard", "FREE", "LIVE", "RETIRED"]

_NAME_LEN = 128
_HEADER = 4  # generation, current_slot, num_slots, num_workers


class EpochBoard(EpochRegistry):
    """Shared-memory :class:`EpochRegistry`: the slot table itself lives in
    a segment both the writer and its forked readers map.

    Reader ids are small ints (worker indexes) — the reap bookkeeping is a
    fixed per-worker cell array inside the segment."""

    def __init__(self, shm, lock, head: np.ndarray, names: np.ndarray,
                 meta: np.ndarray, worker_slots: np.ndarray,
                 created: bool) -> None:
        self._shm = shm
        self._lock = lock
        self._head = head            # [generation, current_slot, slots, workers]
        self._names = names          # (num_slots, _NAME_LEN) uint8
        self._meta = meta            # (num_slots, 3) int64: epoch, refcount, state
        self._worker_slots = worker_slots
        self._created = created

    # -- construction -------------------------------------------------------

    @staticmethod
    def _layout(buf, num_slots: int, num_workers: int):
        head = np.frombuffer(buf, dtype=np.int64, count=_HEADER)
        off = _HEADER * 8
        names = np.frombuffer(
            buf, dtype=np.uint8, count=num_slots * _NAME_LEN, offset=off
        ).reshape(num_slots, _NAME_LEN)
        off += num_slots * _NAME_LEN
        meta = np.frombuffer(
            buf, dtype=np.int64, count=num_slots * 3, offset=off
        ).reshape(num_slots, 3)
        off += num_slots * 3 * 8
        worker_slots = np.frombuffer(
            buf, dtype=np.int64, count=num_workers, offset=off
        )
        return head, names, meta, worker_slots

    @classmethod
    def create(cls, name: str, num_workers: int, lock,
               num_slots: int = 16) -> "EpochBoard":
        """Writer side: allocate and zero-initialize the board segment."""
        if shared_memory is None:  # pragma: no cover
            raise ConfigError("multiprocessing.shared_memory is unavailable")
        if num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        size = _HEADER * 8 + num_slots * _NAME_LEN + num_slots * 3 * 8 \
            + num_workers * 8
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        shm_plane._created.add(name)
        _untrack(name)
        shm.buf[:size] = b"\0" * size
        head, names, meta, worker_slots = cls._layout(
            shm.buf, num_slots, num_workers
        )
        head[:] = (0, -1, num_slots, num_workers)
        worker_slots[:] = -1
        return cls(shm, lock, head, names, meta, worker_slots, created=True)

    @classmethod
    def attach(cls, name: str, lock) -> "EpochBoard":
        """Reader side: map an existing board."""
        shm = shm_plane._attach_segment(name)
        head = np.frombuffer(shm.buf, dtype=np.int64, count=_HEADER)
        num_slots, num_workers = int(head[2]), int(head[3])
        head, names, meta, worker_slots = cls._layout(
            shm.buf, num_slots, num_workers
        )
        return cls(shm, lock, head, names, meta, worker_slots, created=False)

    # -- introspection ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name.lstrip("/")

    def generation(self) -> int:
        """The registration counter — cheap staleness probe for readers."""
        with self._lock:
            return int(self._head[0])

    def current_epoch(self) -> Optional[int]:
        with self._lock:
            slot = int(self._head[1])
            if slot < 0:
                return None
            return int(self._meta[slot, 0])

    def slots(self) -> List[Tuple[int, str, int, int, int]]:
        """Snapshot of the slot table: (slot, name, epoch, refcount, state)."""
        with self._lock:
            out = []
            for i in range(int(self._head[2])):
                state = int(self._meta[i, 2])
                if state == FREE:
                    continue
                out.append((i, self._slot_name(i), int(self._meta[i, 0]),
                            int(self._meta[i, 1]), state))
            return out

    def _slot_name(self, slot: int) -> str:
        raw = bytes(self._names[slot])
        return raw.rstrip(b"\0").decode("ascii")

    # -- writer protocol ----------------------------------------------------

    def register(self, seg_name: str, epoch: int) -> int:
        """Publish a fully written plane segment as the newest epoch.

        Retires the previous current slot (unlinked immediately when no
        reader holds it, else by the last release) and bumps the
        generation.  Returns the slot index used.
        """
        encoded = seg_name.encode("ascii")
        if len(encoded) >= _NAME_LEN:
            raise ConfigError(f"segment name too long: {seg_name!r}")
        with self._lock:
            num_slots = int(self._head[2])
            slot = -1
            for i in range(num_slots):
                if int(self._meta[i, 2]) == FREE:
                    slot = i
                    break
            if slot < 0:
                raise ConfigError(
                    "epoch board is full: readers are holding "
                    f"{num_slots} retired planes"
                )
            row = self._names[slot]
            row[:] = 0
            row[: len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)
            self._meta[slot] = (epoch, 0, LIVE)
            old = int(self._head[1])
            if old >= 0:
                self._meta[old, 2] = RETIRED
                self._maybe_unlink(old)
            self._head[1] = slot
            self._head[0] += 1
            return slot

    def release_reader(self, reader_id) -> None:
        """Reap the slot held by a worker that died without releasing."""
        self.release_worker(int(reader_id))

    def release_worker(self, worker_id: int) -> None:
        """Reap the slot held by a worker that died without releasing."""
        with self._lock:
            slot = int(self._worker_slots[worker_id])
            if slot < 0:
                return
            self._worker_slots[worker_id] = -1
            self._meta[slot, 1] -= 1
            self._maybe_unlink(slot)

    def shutdown(self) -> None:
        """Writer teardown: unlink every remaining plane and the board."""
        with self._lock:
            for i in range(int(self._head[2])):
                if int(self._meta[i, 2]) != FREE:
                    unlink_segment(self._slot_name(i))
                    self._meta[i] = (0, 0, FREE)
            self._head[1] = -1
        name = self.name
        self._release_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass
        if self._created:
            unlink_segment(name)

    # -- reader protocol ----------------------------------------------------

    def acquire(self, worker_id: int) -> Optional[Tuple[int, int, int, str]]:
        """Take a reference on the current plane.

        Returns ``(generation, slot, epoch, segment_name)``, or None when
        nothing has been registered yet.  The caller must pair this with
        :meth:`release` (normal detach) — or die and be reaped via
        :meth:`release_worker`.
        """
        with self._lock:
            slot = int(self._head[1])
            if slot < 0:
                return None
            self._meta[slot, 1] += 1
            if worker_id >= 0:
                self._worker_slots[worker_id] = slot
            return (int(self._head[0]), slot, int(self._meta[slot, 0]),
                    self._slot_name(slot))

    def release(self, slot: int, worker_id: int = -1) -> None:
        """Drop a reference; the last release of a retired slot unlinks."""
        with self._lock:
            self._meta[slot, 1] -= 1
            # Workers acquire the next epoch before releasing the previous
            # one: only forget the worker's slot if it is the one released.
            if worker_id >= 0 and int(self._worker_slots[worker_id]) == slot:
                self._worker_slots[worker_id] = -1
            self._maybe_unlink(slot)

    def detach(self) -> None:
        """Drop this process's mapping of the board (reader teardown)."""
        self._release_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass

    # -- internals ----------------------------------------------------------

    def _maybe_unlink(self, slot: int) -> None:
        # Lock held.  RETIRED + refcount 0 means nobody can ever map the
        # segment again (readers only learn names of the *current* slot),
        # so the last detacher removes it from the system.
        if int(self._meta[slot, 2]) == RETIRED and int(self._meta[slot, 1]) <= 0:
            unlink_segment(self._slot_name(slot))
            self._names[slot] = 0
            self._meta[slot] = (0, 0, FREE)

    def _release_views(self) -> None:
        # numpy views must be dropped before the mapping can close.
        self._head = self._names = self._meta = self._worker_slots = None
