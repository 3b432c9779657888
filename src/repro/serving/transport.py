"""Transport layer: how published planes travel from writer to readers.

The epoch-handoff protocol (:mod:`repro.serving.registry`) and the plane
byte format (:mod:`repro.serving.codec`) say nothing about *where* the
bytes live.  A :class:`PlaneTransport` decides that:

* writer side — :meth:`PlaneTransport.publish_plane` materializes one
  encoded plane per epoch and registers its ref with the transport's
  :class:`~repro.serving.registry.EpochRegistry`;
* reader side — a picklable :class:`ReaderSpec` travels into each reader
  process, whose :meth:`~ReaderSpec.connect` yields a
  :class:`PlaneClient`: ``generation()`` is the cheap staleness probe and
  ``acquire()`` returns a :class:`PlaneLease` on one epoch's
  materialized :class:`~repro.core.hub_index.DensePlane` (a shm lease
  pins the writer's segment until released; a tcp one holds a local
  copy and pins nothing).
  A :class:`PlaneReader` drives a client: it holds one lease and the
  engine over it, and swaps both when the generation moves.

:class:`ShmTransport` is the one-box implementation — each plane encoded
once into a named POSIX shared-memory segment that readers map zero-copy
(see :mod:`repro.serving.shm_plane`).  :class:`repro.serving.net.NetTransport`
ships the same bytes over a length-prefixed TCP protocol to readers on
any host, which cache each fetched plane locally (fetch-on-publish) in
one ``acquire`` round trip per epoch.
:class:`~repro.serving.pool.WorkerPool` and
:class:`~repro.serving.pool.ServeSession` are generic over this interface.
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.engine import PairwiseEngine
from repro.core.workspace import SearchWorkspace
from repro.errors import ConfigError, QueryError
from repro.serving.codec import PlaneGraph
from repro.serving.registry import EpochRegistry
from repro.serving.shm_plane import ShmPlane


class PlaneLease:
    """One acquired plane: epoch state plus the release hook (None where
    the transport pins nothing, as tcp's local copies)."""

    __slots__ = ("generation", "epoch", "plane", "_release")

    def __init__(self, generation, epoch: int, plane,
                 release: Optional[Callable[[], None]] = None) -> None:
        # generation is the transport's opaque staleness token (int for
        # shm, (rev, generation) tuple for tcp) — equality-compare only.
        self.generation = generation
        self.epoch = epoch
        self.plane = plane
        self._release = release

    def release(self) -> None:
        """Return the refcount (and unmap, where the transport maps).

        Callers must drop every reference into ``plane`` (engines, array
        views) *before* releasing, or a mapped transport cannot unmap.
        The lease drops its own ``plane`` reference here for the same
        reason.
        """
        release, self._release = self._release, None
        self.plane = None
        if release is not None:
            release()


class PlaneClient(ABC):
    """Reader-side endpoint of one transport, bound to one reader id."""

    @abstractmethod
    def generation(self):
        """Opaque staleness token — compare *for equality* with a held
        lease's ``generation`` to detect staleness between requests.

        The shm client returns the board's bare generation counter; the
        TCP client returns a ``(server incarnation rev, generation)``
        tuple so a lease acquired before a server restart reads stale
        even when the restarted registry's counter collides with the old
        one.  Callers must not order or arithmetic these tokens.
        """

    @abstractmethod
    def acquire(self) -> Optional[PlaneLease]:
        """Materialize the current epoch's plane, pinned where the
        transport maps it (None when the writer has not published yet)."""

    @abstractmethod
    def close(self) -> None:
        """Drop the client's own transport footprint (board mapping,
        socket).  Leases must be released first."""


class ReaderSpec(ABC):
    """Picklable recipe a reader process turns into a :class:`PlaneClient`.

    Travels through ``multiprocessing.Process`` args (fork or spawn), so
    it may carry only picklable state — names, addresses, and
    multiprocessing primitives, never mapped segments or sockets.
    """

    @abstractmethod
    def connect(self, reader_id) -> PlaneClient:
        """Open this reader's endpoint (called inside the reader process)."""


class PlaneReader:
    """The reader half of serving: one held lease and the engine over it.

    Pool workers (any transport) and standalone remote readers
    (:class:`repro.serving.net.NetReader`) are both this class around a
    :class:`PlaneClient`.  :meth:`refresh` polls the client's generation
    and, when stale, acquires the newest plane *before* releasing the held
    one, so there is never a served gap.  A standalone reader refreshes
    before every request (:meth:`current`); a pool worker refreshes only
    when the writer's request stamp says the registry moved and otherwise
    answers on the held lease (:meth:`held`), polling nothing.  Every
    epoch's engine adopts the reader's one
    :class:`~repro.core.workspace.SearchWorkspace`, so an epoch handoff
    re-allocates O(V) search state only when the vertex count changes.

    With ``degrade=True`` a reader that cannot reach the writer —
    retries exhausted, deadline blown, or a restarted writer that has not
    republished — keeps answering from its held plane with :attr:`stale`
    set and :attr:`stale_serves` counting; the next successful refresh
    clears the flag.  ``degrade=False`` raises instead.
    """

    def __init__(self, client: PlaneClient, policy: str = "upper+lower",
                 degrade: bool = True) -> None:
        self._client = client
        self._policy = policy
        self._degrade = bool(degrade)
        self._lease: Optional[PlaneLease] = None
        self._engine = None
        self._workspace = SearchWorkspace()
        self._stale = False
        self._stale_serves = 0

    @property
    def client(self) -> PlaneClient:
        return self._client

    @property
    def epoch(self) -> Optional[int]:
        """Epoch currently served (None before the writer publishes)."""
        lease = self._lease
        return None if lease is None else lease.epoch

    @property
    def stale(self) -> bool:
        """Whether answers come from a plane the writer may have
        superseded (degraded mode after an unreachable-writer refresh)."""
        return self._stale

    @property
    def stale_serves(self) -> int:
        """Refreshes answered from the held plane in degraded mode."""
        return self._stale_serves

    def _serve_stale(self) -> int:
        self._stale = True
        self._stale_serves += 1
        return self._lease.epoch

    def refresh(self, poll: bool = True) -> Optional[int]:
        """Adopt the newest published epoch; returns it (None when bare).

        ``poll=False`` skips the generation probe and acquires outright,
        for a caller that already knows the registry moved.
        """
        lease = self._lease
        try:
            if (poll and lease is not None
                    and lease.generation == self._client.generation()):
                self._stale = False
                return lease.epoch
            fresh = self._client.acquire()
        except QueryError:
            if self._degrade and lease is not None:
                return self._serve_stale()
            raise
        if fresh is None:
            # Writer reachable but bare — a restarted writer that has not
            # republished yet.  Degraded readers keep the held plane.
            if self._degrade and lease is not None:
                return self._serve_stale()
            self.release()
            return None
        # Acquire-before-release: the new lease is pinned before the old
        # one goes.  The old engine is dropped before its lease releases —
        # a mapped transport cannot unmap a plane an engine still views.
        self._engine = None
        self._lease = fresh
        if lease is not None:
            lease.release()
        self._engine = PairwiseEngine(
            PlaneGraph(fresh.plane.csr), policy=self._policy,
            dense=fresh.plane, workspace=self._workspace,
        )
        self._stale = False
        return fresh.epoch

    def held(self) -> Tuple[object, int]:
        """``(engine, epoch)`` over the held lease, asking the client
        nothing — for callers that know the lease is still the newest.

        Callers drop the engine once the request is answered: between
        requests the reader must be the plane's only holder.
        """
        if self._engine is None:
            raise QueryError("no epoch has been published yet")
        return self._engine, self._lease.epoch

    def current(self) -> Tuple[object, int]:
        """Refresh, then :meth:`held`."""
        self.refresh()
        return self.held()

    def stats_row(self) -> Dict[str, object]:
        """The client's transfer and fault counters (transports that move
        bytes keep them), the workspace reuse counters, the served epoch,
        the staleness markers, and ``gc_frozen``: the objects in this
        process's permanent gc generation, which every collection skips
        (a pool worker freezes what it inherited from the writer)."""
        row: Dict[str, object] = dict(getattr(self._client, "transfer", {}))
        row.update(self._workspace.stats_row())
        row["epoch"] = self.epoch
        row["stale"] = self._stale
        row["stale_serves"] = self._stale_serves
        row["gc_frozen"] = gc.get_freeze_count()
        return row

    def release(self) -> None:
        """Drop the engine and return the held lease (idempotent)."""
        lease, self._lease = self._lease, None
        self._engine = None
        if lease is not None:
            lease.release()

    def close(self) -> None:
        self.release()
        self._client.close()

    def __enter__(self) -> "PlaneReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class PlaneTransport(ABC):
    """Writer-side handle: publish planes, hand out reader specs."""

    #: short tag for logs / stats rows ("shm", "tcp")
    kind: str = "?"

    @property
    @abstractmethod
    def registry(self) -> EpochRegistry:
        """The slot table this transport registers planes on."""

    @abstractmethod
    def publish_plane(self, plane, epoch: int) -> bool:
        """Encode + register one epoch's plane; False when that epoch was
        already published (republish is a no-op end to end)."""

    @abstractmethod
    def reader_spec(self) -> ReaderSpec:
        """The spec reader processes use to reach this transport."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable endpoint ("shm segments rp…*", "tcp host:port")."""

    def stamp(self):
        """The registry generation a pool request carries: a worker that
        refreshed at this stamp answers on its held lease without polling.
        None when the transport cannot vouch for its registry (the worker
        then polls, as a standalone reader does)."""
        return self.registry.generation()

    def release_reader(self, reader_id) -> None:
        """Reap a dead reader's refcount (idempotent)."""
        self.registry.release_reader(reader_id)

    def transfer_stats(self) -> Dict[str, int]:
        """Payload-movement counters for ``stats_row`` observability.

        Byte-moving transports report ``delta_fetches`` / ``full_fetches``
        / ``bytes_sent`` / ``bytes_full`` (actual vs all-full hypothetical
        bytes) plus their delta-base cache occupancy; mapped transports
        move no bytes per epoch and report nothing.
        """
        return {}

    @abstractmethod
    def close(self) -> None:
        """Tear down every plane this transport materialized."""


# ---------------------------------------------------------------------------
# Shared-memory implementation (the PR-4 path, unchanged behaviour)
# ---------------------------------------------------------------------------


class ShmReaderSpec(ReaderSpec):
    """Board name + the shared lock, inherited through process creation."""

    def __init__(self, board_name: str, lock) -> None:
        self.board_name = board_name
        self.lock = lock

    def connect(self, reader_id) -> "ShmClient":
        return ShmClient(
            EpochRegistry.attach(self.board_name, self.lock), int(reader_id)
        )


class ShmClient(PlaneClient):
    """Reader endpoint over the shm board: attach segments by name."""

    def __init__(self, board: EpochRegistry, reader_id: int) -> None:
        self._board = board
        self._reader_id = reader_id

    def generation(self) -> int:
        return self._board.generation()

    def acquire(self) -> Optional[PlaneLease]:
        board = self._board
        reader_id = self._reader_id
        got = board.acquire(reader_id)
        if got is None:
            return None
        generation, slot, epoch, seg_name = got
        try:
            handle = ShmPlane.attach(seg_name)
        except FileNotFoundError:
            board.release(slot, reader_id)
            return None
        plane = handle.as_dense_plane()

        def release() -> None:
            # The engine and plane hold numpy views into the mapping; the
            # caller dropped its references, but stray cycles would defer
            # the munmap to interpreter shutdown — collect first.  Pool
            # workers gc.freeze() everything inherited from the writer at
            # start, so this walks only the reader's own objects.
            gc.collect()
            handle.close()
            board.release(slot, reader_id)

        return PlaneLease(generation, epoch, plane, release)

    def close(self) -> None:
        self._board.detach()


class ShmTransport(PlaneTransport):
    """One named shm segment per epoch; readers map the writer's bytes."""

    kind = "shm"

    def __init__(self, prefix: str, num_workers: int, ctx) -> None:
        self._prefix = prefix
        self._lock = ctx.Lock()
        self._board = EpochRegistry.create(
            prefix + "board", num_workers=num_workers, lock=self._lock,
        )
        self._published: Set[int] = set()

    @property
    def registry(self) -> EpochRegistry:
        return self._board

    @property
    def prefix(self) -> str:
        """Name prefix of every segment this transport creates."""
        return self._prefix

    def publish_plane(self, plane, epoch: int) -> bool:
        if epoch in self._published:
            return False
        name = f"{self._prefix}e{epoch}"
        handle = ShmPlane.export(plane, name, epoch=epoch)
        self._published.add(epoch)
        try:
            self._board.register(name, epoch)
        finally:
            # The writer never reads a segment back, and eviction and
            # shutdown unlink it by name: a kept mapping would pin every
            # published plane's pages (and every forked worker would
            # inherit them) for the whole session.
            handle.close()
        return True

    def reader_spec(self) -> ShmReaderSpec:
        return ShmReaderSpec(self._board.name, self._lock)

    def describe(self) -> str:
        return f"shm segments {self._prefix}*"

    def close(self) -> None:
        self._board.shutdown()


# ---------------------------------------------------------------------------


def make_transport(kind: str, prefix: str, num_workers: int, ctx,
                   **options) -> PlaneTransport:
    """Construct the writer-side transport for ``kind`` ("shm" or "tcp")."""
    if kind == "shm":
        if options:
            bad = ", ".join(sorted(options))
            raise ConfigError(f"shm transport takes no options: {bad}")
        return ShmTransport(prefix, num_workers, ctx)
    if kind == "tcp":
        from repro.serving.net import NetTransport

        return NetTransport(**options)
    raise ConfigError(f"unknown transport {kind!r}; known: shm, tcp")
