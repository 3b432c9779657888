"""Multiprocess serving over published dense planes.

A published :class:`~repro.streaming.versioning.FrozenView`'s dense plane
is nothing but flat numpy buffers — CSR ``indptr/indices/weights``, the id
map, and the stacked hub cost matrices.  This package ships those buffers
to N reader processes that run the bit-identical ``_search_dense`` hot
path against them while one writer process keeps ingesting and
publishing.  Three layers:

* :mod:`repro.serving.codec` — the byte format: one self-describing blob
  per plane (embedded manifest, 64-byte-aligned buffers), decode cost
  O(buffers) not O(V+E).  Both transports speak it.
* :mod:`repro.serving.registry` — the epoch-handoff protocol: one
  :class:`~repro.serving.registry.EpochRegistry` slot table with
  per-plane refcounts and FREE/LIVE/RETIRED states; the writer registers
  fully materialized planes and bumps a generation counter, shm readers
  acquire/release by slot, and each reader's references are a multiset
  so a dead reader is reaped whole.  The table lives in a shared-memory
  segment for shm readers (``create`` / ``attach``); the TCP server keeps
  one in its own memory (the constructor) only as its generation and
  current-epoch record, since its readers copy every plane.
* :mod:`repro.serving.transport` — where the bytes live:
  :class:`~repro.serving.transport.ShmTransport` encodes each plane into a
  named segment readers map zero-copy
  (:mod:`repro.serving.shm_plane`); :class:`~repro.serving.net.NetTransport`
  announces each publish over length-prefixed TCP and a remote reader
  takes each new epoch in one ``acquire`` round trip that names the
  digests it caches and carries the payload once — in full, or as a
  delta against its newest cached plane — into a digest-verified local
  cache (fetch-on-publish); the server holds nothing per reader.  Every
  reader, pool worker or remote :class:`~repro.serving.net.NetReader`, is
  one :class:`~repro.serving.transport.PlaneReader`: it holds one lease
  and the engine over it, acquiring a new epoch before releasing the old.

:mod:`repro.serving.pool` ties it together: :class:`WorkerPool` /
:class:`ServeSession` fan requests across reader processes generically
over the transport, surfaced as ``SGraph.serve(workers=N, transport=...)``
and the ``repro serve`` / ``repro attach`` CLI subcommands.

:mod:`repro.serving.faults` is the fault-tolerance substrate: the
deterministic :class:`~repro.serving.faults.FaultPolicy` /
:class:`~repro.serving.faults.FaultProxy` injection harness the retry
paths are tested against, plus the :class:`~repro.serving.faults.Backoff`
and :class:`~repro.serving.faults.RespawnBreaker` primitives the client
reconnect and worker-respawn layers share.
"""

from repro.serving.faults import (
    Backoff,
    FaultPolicy,
    FaultProxy,
    RespawnBreaker,
)
from repro.serving.codec import (
    CHUNK_BYTES,
    PlaneGraph,
    apply_plane_delta,
    decode_plane,
    diff_payloads,
    encode_plane,
    encode_plane_delta,
    materialize_plane,
    plane_digest,
)
from repro.serving.pool import ServeSession, WorkerPool
from repro.serving.registry import EpochRegistry
from repro.serving.shm_plane import (
    ShmPlane,
    leaked_segments,
    shm_available,
)
from repro.serving.transport import (
    PlaneTransport,
    ShmTransport,
    make_transport,
)

__all__ = [
    "Backoff",
    "CHUNK_BYTES",
    "EpochRegistry",
    "FaultPolicy",
    "FaultProxy",
    "RespawnBreaker",
    "PlaneGraph",
    "PlaneTransport",
    "ServeSession",
    "ShmPlane",
    "ShmTransport",
    "WorkerPool",
    "apply_plane_delta",
    "decode_plane",
    "diff_payloads",
    "encode_plane",
    "encode_plane_delta",
    "leaked_segments",
    "make_transport",
    "materialize_plane",
    "plane_digest",
    "shm_available",
]
