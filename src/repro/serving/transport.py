"""Transport layer: how published planes travel from writer to readers.

The plane byte format (:mod:`repro.serving.codec`) says nothing about
*where* the bytes live.  A :class:`PlaneTransport` decides that:

* writer side — :meth:`PlaneTransport.publish_plane` materializes one
  encoded plane per epoch, records its ref in the transport's
  :class:`~repro.serving.registry.EpochRegistry`, and owns the plane's
  lifetime; :meth:`PlaneTransport.stamp` is what each pool request
  carries;
* reader side — a picklable :class:`ReaderSpec` travels into each reader
  process, whose :meth:`~ReaderSpec.connect` yields a
  :class:`PlaneClient`: ``acquire(stamp)`` returns a :class:`PlaneLease`
  on one epoch's materialized :class:`~repro.core.hub_index.DensePlane`
  (a shm lease maps the stamp's segment, a tcp one holds a local copy;
  neither is known to the writer) and ``generation()`` is a standalone
  reader's staleness probe.
  A :class:`PlaneReader` drives a client: it holds one lease and the
  engine over it, and swaps both when the stamp or generation moves.

:class:`ShmTransport` is the one-box implementation — each plane encoded
once into a named POSIX shared-memory segment that readers map zero-copy
(see :mod:`repro.serving.shm_plane`), the last :data:`KEEP_LINKED` of
them linked.  :class:`repro.serving.net.NetTransport` ships the same
bytes over a length-prefixed TCP protocol to readers on any host, which
cache each fetched plane locally (fetch-on-publish) in one ``acquire``
round trip per epoch.
:class:`~repro.serving.pool.WorkerPool` and
:class:`~repro.serving.pool.ServeSession` are generic over this interface.
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.core.engine import PairwiseEngine
from repro.core.workspace import SearchWorkspace
from repro.errors import ConfigError, QueryError
from repro.serving.registry import EpochRegistry
from repro.serving.shm_plane import ShmPlane, unlink_segment


class PlaneLease:
    """One acquired plane: epoch state plus the release hook (None where
    there is nothing to unmap, as tcp's local copies)."""

    __slots__ = ("generation", "epoch", "plane", "_release")

    def __init__(self, generation, epoch: int, plane,
                 release: Optional[Callable[[], None]] = None) -> None:
        # generation is the transport's opaque staleness token (the stamp
        # for shm, the plane's digest for tcp) — equality only.
        self.generation = generation
        self.epoch = epoch
        self.plane = plane
        self._release = release

    def release(self) -> None:
        """Unmap, where the transport maps; the writer is not told.

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
    """Reader-side endpoint of one transport; the writer never names it."""

    @abstractmethod
    def generation(self):
        """Opaque staleness token — compare *for equality* with a held
        lease's ``generation`` to detect staleness between requests.

        The TCP client returns the digest of the server's current plane,
        which names the plane itself: a lease from before a server restart
        reads stale exactly when the restarted server serves other bytes.
        Callers must not order these tokens.  The shm client has none: it
        refreshes only at a writer's stamp.
        """

    @abstractmethod
    def acquire(self, stamp=None) -> Optional[PlaneLease]:
        """Materialize the plane to serve (None when the writer has not
        published yet).  ``stamp`` is the writer's
        :meth:`PlaneTransport.stamp` for the request, when the caller has
        one; a shm client attaches the segment it names, a tcp client
        fetches the server's current plane either way."""

    def close(self) -> None:
        """Drop the client's own transport footprint (a socket).  Leases
        must be released first."""


class ReaderSpec(ABC):
    """Picklable recipe a reader process turns into a :class:`PlaneClient`.

    Travels through ``multiprocessing.Process`` args (fork or spawn), so
    it may carry only picklable state — names, addresses, and
    multiprocessing primitives, never mapped segments or sockets.
    """

    @abstractmethod
    def connect(self) -> PlaneClient:
        """Open this reader's endpoint (called inside the reader process)."""


class PlaneReader:
    """The reader half of serving: one held lease and the engine over it.

    Pool workers (any transport) and standalone remote readers
    (:class:`repro.serving.net.NetReader`) are both this class around a
    :class:`PlaneClient`.  :meth:`refresh` polls the client's generation
    (or takes the writer's stamp) and, when stale, acquires the newest
    plane *before* releasing the held one, so there is never a served gap.
    A standalone reader refreshes before every request (:meth:`current`);
    a pool worker refreshes only when the writer's request stamp moved and
    otherwise answers on the held lease (:meth:`held`), polling nothing.
    Every epoch's engine adopts the reader's one
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

    def refresh(self, stamp=None) -> Optional[int]:
        """Adopt the newest published epoch; returns it (None when bare).

        With the writer's ``stamp`` (a pool worker whose stamp moved) the
        generation probe is skipped and the client acquires at the stamp
        outright; a shm stamp whose segment is gone raises
        :class:`StaleStamp` and leaves the held lease in place.
        """
        lease = self._lease
        try:
            if (stamp is None and lease is not None
                    and lease.generation == self._client.generation()):
                self._stale = False
                return lease.epoch
            fresh = self._client.acquire(stamp)
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
            fresh.plane.csr, policy=self._policy,
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
        """The record of the newest plane this transport published."""

    @abstractmethod
    def publish_plane(self, plane, epoch: int) -> bool:
        """Encode + register one epoch's plane; False when the epoch is not
        newer than the registered one (a republish, or an older epoch, is
        a no-op end to end)."""

    def _newer(self, epoch: int) -> bool:
        current = self.registry.current_epoch()
        return current is None or epoch > current

    @abstractmethod
    def reader_spec(self) -> ReaderSpec:
        """The spec reader processes use to reach this transport."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable endpoint ("shm segments rp…*", "tcp host:port")."""

    def stamp(self):
        """What a pool request carries: a worker that refreshed at this
        stamp answers on its held lease without polling.  The registry
        generation here; None when the transport cannot vouch for its
        registry (the worker then polls, as a standalone reader does)."""
        return self.registry.generation()

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
# Shared-memory implementation
# ---------------------------------------------------------------------------

#: epochs whose segments stay linked: a stamp names a segment at least
#: this many publishes old before its attach can fail (see StaleStamp)
KEEP_LINKED = 2


class StaleStamp(Exception):
    """The stamp's segment was unlinked before the reader attached it.

    At least :data:`KEEP_LINKED` publishes landed between the writer
    stamping a request and the worker reading it.  The held plane is
    older than the stamp, so answering on it would break "answered at
    that epoch or later": the request is sent again with a fresh stamp.
    Deliberately not a :class:`QueryError`, which a reader degrades on.
    """


class ShmReaderSpec(ReaderSpec):
    """Nothing to carry: every request's stamp names its segment."""

    def connect(self) -> "ShmClient":
        return ShmClient()


class ShmClient(PlaneClient):
    """Reader endpoint over the writer's segments: attach by the stamp's
    name.  It reads no shared table, so it has no generation to poll."""

    def generation(self):
        raise ConfigError("a shm reader refreshes only at a writer's stamp")

    def acquire(self, stamp=None) -> Optional[PlaneLease]:
        if stamp is None:
            return None
        _generation, epoch, name = stamp
        try:
            handle = ShmPlane.attach(name)
        except FileNotFoundError:
            raise StaleStamp(name) from None

        def release() -> None:
            # The engine and plane hold numpy views into the mapping; the
            # caller dropped its references, but stray cycles would defer
            # the munmap to interpreter shutdown — collect first.  Pool
            # workers gc.freeze() everything inherited from the writer at
            # start, so this walks only the reader's own objects.
            gc.collect()
            handle.close()

        return PlaneLease(stamp, epoch, handle.as_dense_plane(), release)


class ShmTransport(PlaneTransport):
    """One named shm segment per epoch; readers map the writer's bytes.

    The writer alone decides when a segment goes: each publish unlinks
    all but the newest :data:`KEEP_LINKED`, and :meth:`close` the rest.
    A reader still mapping an unlinked segment keeps its pages until it
    unmaps, so no reader is ever counted.
    """

    kind = "shm"

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._registry = EpochRegistry()
        self._linked: Deque[str] = deque()

    @property
    def registry(self) -> EpochRegistry:
        return self._registry

    @property
    def prefix(self) -> str:
        """Name prefix of every segment this transport creates."""
        return self._prefix

    def publish_plane(self, plane, epoch: int) -> bool:
        if not self._newer(epoch):
            return False
        name = f"{self._prefix}e{epoch}"
        # The writer never reads a segment back: a kept mapping would pin
        # every published plane's pages (and every forked worker would
        # inherit them) for the whole session.
        ShmPlane.export(plane, name, epoch=epoch).close()
        self._registry.register(name, epoch)
        self._linked.append(name)
        while len(self._linked) > KEEP_LINKED:
            unlink_segment(self._linked.popleft())
        return True

    def stamp(self):
        """``(generation, epoch, segment name)`` of the newest plane."""
        return self._registry.current()

    def reader_spec(self) -> ShmReaderSpec:
        return ShmReaderSpec()

    def describe(self) -> str:
        return f"shm segments {self._prefix}*"

    def close(self) -> None:
        while self._linked:
            unlink_segment(self._linked.popleft())


# ---------------------------------------------------------------------------


def make_transport(kind: str, prefix: str, **options) -> PlaneTransport:
    """Construct the writer-side transport for ``kind`` ("shm" or "tcp")."""
    if kind == "shm":
        if options:
            bad = ", ".join(sorted(options))
            raise ConfigError(f"shm transport takes no options: {bad}")
        return ShmTransport(prefix)
    if kind == "tcp":
        from repro.serving.net import NetTransport

        return NetTransport(**options)
    raise ConfigError(f"unknown transport {kind!r}; known: shm, tcp")
