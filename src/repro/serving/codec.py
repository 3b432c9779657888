"""Transport-agnostic dense-plane (de)serialization.

One :class:`~repro.core.hub_index.DensePlane` becomes one self-describing
byte blob laid out as::

    [0:8)    uint64  manifest length L
    [8:16)   uint64  data_start (aligned offset of the first buffer)
    [16:16+L)        manifest JSON (epoch, directedness, hubs, the
                     large-diameter verdict, buffer table)
    [data_start:...) the buffers themselves, each at a 64-byte-aligned
                     offset *relative to data_start*

The manifest records ``{name: {dtype, shape, offset}}`` (plus ``chunks``
on chunked payloads, below) for every buffer — CSR
``indptr/indices/weights`` (plus the ``rev_*`` triple when directed),
the dense→caller id map, and the hub cost matrices
``F`` (and ``B`` when directed and distinct) — so decoding needs nothing
but the bytes: parse the manifest, wrap each buffer in a zero-copy numpy
view.

**Chunk addressing.**  On a chunked payload every buffer is additionally
divided into fixed :data:`CHUNK_BYTES` chunks and the manifest records a
short content digest per chunk.  Two manifests therefore describe not
just *what* their planes contain but *which bytes differ*: :func:`diff_manifests` yields
per-buffer dirty byte ranges, :func:`encode_plane_delta` packs exactly
those ranges (plus the new manifest) into a delta frame, and
:func:`apply_plane_delta` composes a delta onto the base payload to
reproduce the target payload **bit-identically** — same bytes, same
:func:`plane_digest` — verified on every apply.  A buffer whose shape or
dtype changed (CSR growth, a dtype migration) falls back to a
full-buffer patch inside the same frame; a delta between planes with
identical buffers reduces to a header-only frame carrying just the new
manifest.  This is what makes remote epoch visibility O(Δ): a reader
holding the previous payload fetches only the churned chunks.

The transport decides which manifests carry chunk tables, and shm
segments carry no chunk table.  The shm transport encodes straight into
a ``shared_memory`` segment's buffer (readers map the same bytes and
never diff, so hashing would be wasted); the TCP transport encodes a
chunked payload into a ``bytearray`` once per publish, ships it (or a
delta against the reader's cached base) over the socket, and remote
readers decode their private copy.  Either encode lays the manifest out
once: the layout that sizes the sink is the one written into it.
Either way :func:`materialize_plane` rebuilds a fully functional ``DensePlane`` over
the decoded views in O(#buffers) plus the id map; the search loops read
the buffers in place, exactly as on the in-process plane.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

ALIGN = 64
#: 3 added the manifest's ``large_diameter`` verdict (the search order)
FORMAT_VERSION = 3
_HEADER_BYTES = 16

#: fixed chunk size for the per-buffer dirty-range tables.  Small enough
#: that a handful of churned vertices dirty a handful of chunks, large
#: enough that the digest table stays ~2% of the payload.
CHUNK_BYTES = 1024

#: hex digits of the per-chunk blake2b digest kept in the manifest
_CHUNK_DIGEST_BYTES = 8


def aligned(offset: int) -> int:
    """Round ``offset`` up to the next :data:`ALIGN`-byte boundary."""
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def chunk_digests(data, chunk_bytes: int = CHUNK_BYTES) -> List[str]:
    """Per-chunk content digests of one buffer's bytes.

    The last chunk may be short; an empty buffer has no chunks.  blake2b
    (8-byte digests) is collision-safe for what the table is used for —
    deciding whether a specific chunk changed between two *known* adjacent
    versions — and hashes the whole plane in single-digit milliseconds.
    """
    mv = memoryview(data)
    if mv.ndim != 1 or mv.format != "B":
        mv = mv.cast("B")
    return [
        hashlib.blake2b(mv[i:i + chunk_bytes],
                        digest_size=_CHUNK_DIGEST_BYTES).hexdigest()
        for i in range(0, len(mv), chunk_bytes)
    ]


def plane_buffers(plane) -> List[Tuple[str, np.ndarray]]:
    """The named flat arrays a plane is made of, in canonical order.

    Order matters only for layout determinism (identical planes encode to
    identical bytes, so digests are stable); decoding goes by name.
    """
    csr = plane.csr
    tables = plane.tables
    buffers: List[Tuple[str, np.ndarray]] = [
        ("indptr", csr.indptr),
        ("indices", csr.indices),
        ("weights", csr.weights),
        ("ids", np.asarray(csr.ids, dtype=np.int64)),
        ("F", tables.F),
    ]
    if csr.directed:
        buffers += [
            ("rev_indptr", csr.rev_indptr),
            ("rev_indices", csr.rev_indices),
            ("rev_weights", csr.rev_weights),
        ]
        if tables.B is not tables.F:
            buffers.append(("B", tables.B))
    return buffers


#: ``(manifest, manifest JSON bytes, total encoded size)`` — computed
#: once per encode, then used both to size the sink and to fill it
Layout = Tuple[Dict, bytes, int]


def buffers_manifest(buffers: Sequence[Tuple[str, np.ndarray]],
                     meta: Optional[Dict] = None,
                     chunked: bool = True) -> Layout:
    """Manifest dict, its JSON encoding, and the total encoded size.

    The generalized core of :func:`plane_manifest`: lays out any named
    buffer sequence (offset table, plus the per-chunk digest table when
    ``chunked``) under arbitrary ``meta`` keys.  The size covers header +
    manifest + aligned buffers — callers presize their sink (a shm
    segment, a bytearray) with it, then hand the same layout to
    :func:`encode_buffers_into`, so nothing is laid out or hashed twice.

    Only a byte-moving transport diffs manifests, so only it asks for
    chunk tables.  An unchunked manifest has neither ``chunk_bytes`` nor
    per-buffer ``chunks``, and :func:`diff_manifests` never calls any of
    its buffers clean.
    """
    table: Dict[str, Dict] = {}
    offset = 0
    for buf_name, arr in buffers:
        offset = aligned(offset)
        spec = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "offset": offset,
        }
        if chunked:
            spec["chunks"] = chunk_digests(np.ascontiguousarray(arr))
        table[buf_name] = spec
        offset += arr.nbytes
    manifest = {"version": FORMAT_VERSION}
    manifest.update(meta or {})
    if chunked:
        manifest["chunk_bytes"] = CHUNK_BYTES
    manifest["buffers"] = table
    mbytes = json.dumps(manifest, separators=(",", ":")).encode("ascii")
    data_start = aligned(_HEADER_BYTES + len(mbytes))
    total = max(data_start + offset, 1)
    return manifest, mbytes, total


def _plane_meta(plane, epoch) -> Dict:
    csr = plane.csr
    return {
        "epoch": int(csr.epoch if epoch is None else epoch),
        "directed": bool(csr.directed),
        "n": csr.num_vertices,
        "hubs": [int(h) for h in plane.tables.hubs],
        "large_diameter": bool(plane.tables.large_diameter),
    }


def plane_manifest(plane, epoch=None, buffers=None,
                   chunked: bool = True) -> Layout:
    """Manifest dict, its JSON encoding, and the total encoded size."""
    if buffers is None:
        buffers = plane_buffers(plane)
    return buffers_manifest(buffers, _plane_meta(plane, epoch), chunked)


def encode_buffers_into(buffers: Sequence[Tuple[str, np.ndarray]], sink,
                        layout: Layout,
                        ) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Serialize named buffers into a writable sink (shm segment,
    bytearray) at least ``layout``'s total size long.

    ``layout`` is the :func:`buffers_manifest` of these buffers that the
    caller sized the sink with.  Returns the manifest plus the
    writer-side views over the sink's buffers (the shm exporter hands
    these out so tests can mutate shared bytes in place); every buffer
    offset is 64-byte aligned so the views keep the alignment the
    vectorized kernels expect.
    """
    manifest, mbytes, total = layout
    buf = memoryview(sink)
    if len(buf) < total:
        raise ConfigError(
            f"plane sink too small: {len(buf)} bytes < {total} needed"
        )
    data_start = aligned(_HEADER_BYTES + len(mbytes))
    np.frombuffer(buf, dtype=np.uint64, count=2)[:] = (len(mbytes), data_start)
    buf[_HEADER_BYTES:_HEADER_BYTES + len(mbytes)] = mbytes
    table = manifest["buffers"]
    arrays: Dict[str, np.ndarray] = {}
    for buf_name, arr in buffers:
        spec = table[buf_name]
        view = np.frombuffer(
            buf, dtype=arr.dtype, count=arr.size,
            offset=data_start + spec["offset"],
        ).reshape(arr.shape)
        view[...] = arr
        arrays[buf_name] = view
    return manifest, arrays


def encode_buffers(buffers: Sequence[Tuple[str, np.ndarray]],
                   meta: Optional[Dict] = None) -> bytes:
    """Serialize named buffers into a fresh bytes object (chunked: the
    layout, and so every chunk digest, is computed once)."""
    layout = buffers_manifest(buffers, meta)
    sink = bytearray(layout[2])
    encode_buffers_into(buffers, sink, layout)
    return bytes(sink)


def encode_plane(plane, epoch=None) -> bytes:
    """Serialize ``plane`` into a fresh bytes object (the TCP payload,
    chunked so TCP readers can diff consecutive manifests)."""
    return encode_buffers(plane_buffers(plane), _plane_meta(plane, epoch))


def payload_manifest(payload) -> Dict:
    """Parse just the manifest out of an encoded plane payload."""
    buf = memoryview(payload)
    mlen = int(np.frombuffer(buf, dtype=np.uint64, count=1)[0])
    return json.loads(
        bytes(buf[_HEADER_BYTES:_HEADER_BYTES + mlen]).decode("ascii")
    )


def decode_plane(source,
                 writable: bool = False) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Parse an encoded plane into ``(manifest, named zero-copy views)``.

    ``source`` is any buffer holding :func:`encode_plane` output — a
    mapped shm segment or fetched socket bytes.  O(#buffers): no array is
    copied.  Views are read-only unless ``writable`` (only the shm writer
    asks for writable views, over a segment it owns).
    """
    buf = memoryview(source)
    header = np.frombuffer(buf, dtype=np.uint64, count=2)
    mlen, data_start = int(header[0]), int(header[1])
    manifest = json.loads(
        bytes(buf[_HEADER_BYTES:_HEADER_BYTES + mlen]).decode("ascii")
    )
    if manifest.get("version") != FORMAT_VERSION:
        raise ConfigError(
            f"encoded plane has format version {manifest.get('version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    arrays: Dict[str, np.ndarray] = {}
    for buf_name, spec in manifest["buffers"].items():
        count = 1
        for dim in spec["shape"]:
            count *= dim
        view = np.frombuffer(
            buf, dtype=np.dtype(spec["dtype"]), count=count,
            offset=data_start + spec["offset"],
        ).reshape(spec["shape"])
        if not writable:
            view.flags.writeable = False
        arrays[buf_name] = view
    return manifest, arrays


def materialize_plane(manifest: Dict, arrays: Dict[str, np.ndarray]):
    """A :class:`DensePlane` over decoded buffers, O(#buffers).

    The CSR adopts the views directly and the hub tables adopt the cost
    matrices; both index memoryviews of those buffers at query time, so
    nothing is ever copied out of the payload.  The id buffer must be
    strictly increasing (:meth:`CSRGraph.from_arrays` raises
    :class:`ConfigError` otherwise, with one vectorized comparison).
    """
    from repro.core.hub_index import DenseHubTables, DensePlane
    from repro.graph.csr import CSRGraph

    directed = manifest["directed"]
    csr = CSRGraph.from_arrays(
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        weights=arrays["weights"],
        vertex_ids=arrays["ids"],
        directed=directed,
        epoch=manifest["epoch"],
        rev_indptr=arrays.get("rev_indptr"),
        rev_indices=arrays.get("rev_indices"),
        rev_weights=arrays.get("rev_weights"),
    )
    F = arrays["F"]
    B = arrays.get("B", F)
    tables = DenseHubTables.from_matrices(
        manifest["hubs"], F, B, ids=csr.ids, directed=directed,
        large_diameter=manifest["large_diameter"],
    )
    return DensePlane(csr, tables)


def plane_digest(payload) -> str:
    """Content digest of an encoded plane (what readers verify on fetch)."""
    return hashlib.sha256(memoryview(payload)).hexdigest()


# ---------------------------------------------------------------------------
# Delta frames: chunk-addressed diffs between two encoded planes
# ---------------------------------------------------------------------------


def _buffer_nbytes(spec: Dict) -> int:
    count = 1
    for dim in spec["shape"]:
        count *= dim
    return count * np.dtype(spec["dtype"]).itemsize


def diff_manifests(base: Dict, target: Dict) -> Dict[str, Optional[
        List[Tuple[int, int]]]]:
    """Per-buffer dirty byte ranges between two chunk-addressed manifests.

    For every buffer in ``target``: ``None`` means the whole buffer must
    be resent (new buffer, or shape/dtype changed so chunk positions are
    incomparable); otherwise a list of coalesced ``(start, end)`` byte
    ranges — relative to the buffer — covering exactly the chunks whose
    digests differ (empty when the buffer is bit-identical).  Buffers
    present only in ``base`` simply vanish: the target manifest does not
    mention them.  A buffer without a chunk table on either side (an
    unchunked shm layout) is always resent whole: absent digests prove
    nothing clean.
    """
    out: Dict[str, Optional[List[Tuple[int, int]]]] = {}
    base_table = base.get("buffers", {})
    chunk = target.get("chunk_bytes")
    comparable = chunk is not None and base.get("chunk_bytes") == chunk
    for name, spec in target["buffers"].items():
        old = base_table.get(name)
        if (not comparable or old is None
                or "chunks" not in old or "chunks" not in spec
                or old["dtype"] != spec["dtype"]
                or old["shape"] != spec["shape"]):
            out[name] = None
            continue
        nbytes = _buffer_nbytes(spec)
        ranges: List[Tuple[int, int]] = []
        for i, (was, now) in enumerate(zip(old["chunks"], spec["chunks"])):
            if was == now:
                continue
            start = i * chunk
            end = min(start + chunk, nbytes)
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        out[name] = ranges
    return out


def encode_plane_delta(base_payload, target_payload,
                       base_digest: Optional[str] = None,
                       target_digest: Optional[str] = None) -> bytes:
    """A delta frame turning ``base_payload`` into ``target_payload``.

    Frame layout::

        [0:8)      uint64  header JSON length H
        [8:8+H)            header JSON: kind, base/target digests, total
                           target size, manifest_len, data_start, and the
                           patch table [[buffer, start, end], ...]
        [8+H:...)          the target manifest JSON bytes, verbatim
        [...:end)          the patched byte ranges, concatenated in patch
                           table order

    Patches address bytes *relative to each buffer*; a ``(0, nbytes)``
    patch is the full-buffer fallback (new buffer, shape/dtype change).
    Composing the frame onto the base payload with
    :func:`apply_plane_delta` reproduces the target payload bit-identically.
    """
    base_mv = memoryview(base_payload)
    target_mv = memoryview(target_payload)
    base_manifest = payload_manifest(base_mv)
    header = np.frombuffer(target_mv, dtype=np.uint64, count=2)
    manifest_len, data_start = int(header[0]), int(header[1])
    manifest_bytes = bytes(
        target_mv[_HEADER_BYTES:_HEADER_BYTES + manifest_len]
    )
    target_manifest = json.loads(manifest_bytes.decode("ascii"))
    dirty = diff_manifests(base_manifest, target_manifest)
    patches: List[List] = []
    pieces: List[bytes] = []
    for name, spec in target_manifest["buffers"].items():
        ranges = dirty[name]
        if ranges is None:
            ranges = [(0, _buffer_nbytes(spec))]
        for start, end in ranges:
            if end <= start:
                continue
            patches.append([name, int(start), int(end)])
            lo = data_start + spec["offset"] + start
            pieces.append(bytes(target_mv[lo:lo + (end - start)]))
    head = {
        "version": FORMAT_VERSION,
        "kind": "plane-delta",
        "base": base_digest or plane_digest(base_mv),
        "target": target_digest or plane_digest(target_mv),
        "total": len(target_mv),
        "manifest_len": manifest_len,
        "data_start": data_start,
        "patches": patches,
    }
    hbytes = json.dumps(head, separators=(",", ":")).encode("ascii")
    out = bytearray()
    out += len(hbytes).to_bytes(8, "big")
    out += hbytes
    out += manifest_bytes
    for piece in pieces:
        out += piece
    return bytes(out)


def delta_header(delta) -> Dict:
    """Parse a delta frame's header (base/target digests, patch table)."""
    mv = memoryview(delta)
    hlen = int.from_bytes(bytes(mv[:8]), "big")
    head = json.loads(bytes(mv[8:8 + hlen]).decode("ascii"))
    if head.get("kind") != "plane-delta":
        raise ConfigError("frame is not a plane delta")
    if head.get("version") != FORMAT_VERSION:
        raise ConfigError(
            f"plane delta has format version {head.get('version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    return head


def delta_patch_bytes(delta) -> int:
    """Buffer bytes a delta frame actually carries (excluding headers)."""
    head = delta_header(delta)
    return sum(end - start for _name, start, end in head["patches"])


def apply_plane_delta(base_payload, delta,
                      base_digest: Optional[str] = None) -> bytes:
    """Compose a delta frame onto its base payload.

    Returns the target payload, byte-for-byte identical to the full
    encoding the delta was derived from: the frame's manifest bytes are
    written verbatim, clean buffers are copied from the base at their
    (possibly shifted) target offsets, patched ranges come from the
    frame, and inter-buffer alignment gaps are zero on both sides by
    construction.  The composed payload's :func:`plane_digest` is
    verified against the frame's ``target`` digest — a mismatch (wrong
    base, corrupt frame) raises :class:`ConfigError` rather than ever
    yielding a plausible-but-wrong plane.
    """
    base_mv = memoryview(base_payload)
    head = delta_header(delta)
    if base_digest is None:
        base_digest = plane_digest(base_mv)
    if base_digest != head["base"]:
        raise ConfigError(
            f"delta base mismatch: frame expects {head['base'][:12]}…, "
            f"composing onto {base_digest[:12]}…"
        )
    mv = memoryview(delta)
    hlen = int.from_bytes(bytes(mv[:8]), "big")
    manifest_len = head["manifest_len"]
    manifest_bytes = bytes(mv[8 + hlen:8 + hlen + manifest_len])
    target_manifest = json.loads(manifest_bytes.decode("ascii"))
    base_manifest = payload_manifest(base_mv)
    base_start = int(np.frombuffer(base_mv, dtype=np.uint64, count=2)[1])
    data_start = head["data_start"]

    out = bytearray(head["total"])
    np.frombuffer(out, dtype=np.uint64, count=2)[:] = (
        manifest_len, data_start,
    )
    out[_HEADER_BYTES:_HEADER_BYTES + manifest_len] = manifest_bytes

    fully_patched = {
        name for name, start, end in head["patches"]
        if start == 0 and end >= _buffer_nbytes(
            target_manifest["buffers"][name])
    }
    base_table = base_manifest.get("buffers", {})
    for name, spec in target_manifest["buffers"].items():
        if name in fully_patched:
            continue
        old = base_table.get(name)
        if (old is None or old["dtype"] != spec["dtype"]
                or old["shape"] != spec["shape"]):
            raise ConfigError(
                f"delta frame leaves buffer {name!r} unpatched but the "
                "base has no matching buffer to copy it from"
            )
        nbytes = _buffer_nbytes(spec)
        src = base_start + old["offset"]
        dst = data_start + spec["offset"]
        out[dst:dst + nbytes] = base_mv[src:src + nbytes]

    cursor = 8 + hlen + manifest_len
    for name, start, end in head["patches"]:
        spec = target_manifest["buffers"][name]
        size = end - start
        dst = data_start + spec["offset"] + start
        out[dst:dst + size] = mv[cursor:cursor + size]
        cursor += size

    composed = bytes(out)
    if plane_digest(composed) != head["target"]:
        raise ConfigError(
            "delta composition digest mismatch: the composed plane is not "
            "bit-identical to the full encoding"
        )
    return composed


class PlaneGraph:
    """Minimal traversal-protocol adapter over a decoded CSR.

    Reader processes have no :class:`DynamicGraph` — only the plane.  The
    engine needs ``has_vertex`` for endpoint validation (the dense search
    itself walks the CSR directly); ``out_items``/``in_items`` complete the
    protocol for any dict-path fallback, translating through the id map.
    """

    __slots__ = ("_csr",)

    def __init__(self, csr) -> None:
        self._csr = csr

    @property
    def directed(self) -> bool:
        return self._csr.directed

    @property
    def num_vertices(self) -> int:
        return self._csr.num_vertices

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._csr.dense_map

    def out_items(self, vertex: int) -> Iterator[Tuple[int, float]]:
        csr = self._csr
        ids = csr.ids
        for u, w in csr.out_arcs(csr.dense_id(vertex)):
            yield ids[u], w

    def in_items(self, vertex: int) -> Iterator[Tuple[int, float]]:
        csr = self._csr
        ids = csr.ids
        for u, w in csr.in_arcs(csr.dense_id(vertex)):
            yield ids[u], w
