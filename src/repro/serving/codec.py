"""Transport-agnostic dense-plane (de)serialization.

One :class:`~repro.core.hub_index.DensePlane` becomes one self-describing
byte blob laid out as::

    [0:8)    uint64  manifest length L
    [8:16)   uint64  data_start (aligned offset of the first buffer)
    [16:16+L)        manifest JSON (epoch, directedness, hubs, the
                     large-diameter verdict, buffer table)
    [data_start:...) the buffers themselves, each at a 64-byte-aligned
                     offset *relative to data_start*

The manifest records ``{name: {dtype, shape, offset}}`` for every buffer
— CSR ``indptr/indices/weights`` (plus the ``rev_*`` triple when
directed), the dense→caller id map, and the hub cost matrices ``F`` (and
``B`` when directed and distinct) — so decoding needs nothing but the
bytes: parse the manifest, wrap each buffer in a zero-copy numpy view.

**Delta frames.**  :func:`diff_payloads` compares two encoded payloads
buffer by buffer in fixed :data:`CHUNK_BYTES` chunks and yields
per-buffer dirty byte ranges, :func:`encode_plane_delta` packs exactly
those ranges (plus the new manifest) into a delta frame, and
:func:`apply_plane_delta` composes a delta onto the base payload to
reproduce the target payload **bit-identically** — same bytes, same
:func:`plane_digest` — verified on every apply.  A buffer whose shape or
dtype changed (CSR growth, a dtype migration) falls back to a
full-buffer patch inside the same frame; a delta between planes with
identical buffers reduces to a header-only frame carrying just the new
manifest.  This is what makes remote epoch visibility O(Δ): a reader
holding the previous payload fetches only the churned chunks.  Only the
side holding both payloads — the TCP server — diffs, so the manifest
carries nothing for it.

Both transports write the same bytes for the same plane and epoch.  The
shm transport encodes straight into a named POSIX segment's writable
mapping, which readers map read-only; the TCP transport encodes into a
``bytearray`` once per publish, ships it (or a delta against the
reader's cached base) over the socket, and remote readers decode their
private copy.  Either encode
lays the manifest out once: the layout that sizes the sink is the one
written into it.  Either way :func:`materialize_plane` rebuilds a fully
functional ``DensePlane`` over the decoded views in O(#buffers) plus the
id map; the search loops read the buffers in place, exactly as on the
in-process plane.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

ALIGN = 64
#: 3 added the manifest's ``large_diameter`` verdict (the search order)
FORMAT_VERSION = 3
_HEADER_BYTES = 16

#: granularity of delta dirty ranges.  Small enough that a handful of
#: churned vertices dirty a handful of chunks, large enough that a
#: delta's patch table stays short.
CHUNK_BYTES = 1024


def aligned(offset: int) -> int:
    """Round ``offset`` up to the next :data:`ALIGN`-byte boundary."""
    return (offset + ALIGN - 1) // ALIGN * ALIGN


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
                     meta: Optional[Dict] = None) -> Layout:
    """Manifest dict, its JSON encoding, and the total encoded size.

    The generalized core of :func:`plane_manifest`: lays out any named
    buffer sequence (the offset table) under arbitrary ``meta`` keys.
    The size covers header + manifest + aligned buffers — callers presize
    their sink (a shm segment, a bytearray) with it, then hand the same
    layout to :func:`encode_buffers_into`, so nothing is laid out twice.
    """
    table: Dict[str, Dict] = {}
    offset = 0
    for buf_name, arr in buffers:
        offset = aligned(offset)
        table[buf_name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "offset": offset,
        }
        offset += arr.nbytes
    manifest = {"version": FORMAT_VERSION}
    manifest.update(meta or {})
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


def plane_manifest(plane, epoch=None, buffers=None) -> Layout:
    """Manifest dict, its JSON encoding, and the total encoded size."""
    if buffers is None:
        buffers = plane_buffers(plane)
    return buffers_manifest(buffers, _plane_meta(plane, epoch))


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
    """Serialize named buffers into a fresh bytes object."""
    layout = buffers_manifest(buffers, meta)
    sink = bytearray(layout[2])
    encode_buffers_into(buffers, sink, layout)
    return bytes(sink)


def encode_plane(plane, epoch=None) -> bytes:
    """Serialize ``plane`` into a fresh bytes object (the TCP payload,
    byte-identical to the shm segment of the same plane and epoch)."""
    return encode_buffers(plane_buffers(plane), _plane_meta(plane, epoch))


def _payload_header(buf: memoryview) -> Tuple[int, int]:
    """``(manifest length, data_start)`` of an encoded plane."""
    mlen, data_start = np.frombuffer(buf, dtype=np.uint64, count=2)
    return int(mlen), int(data_start)


def _parse_payload(payload) -> Tuple[memoryview, Dict, int]:
    """``(byte view, manifest, data_start)`` of an encoded plane."""
    buf = memoryview(payload)
    mlen, data_start = _payload_header(buf)
    manifest = json.loads(
        bytes(buf[_HEADER_BYTES:_HEADER_BYTES + mlen]).decode("ascii")
    )
    return buf, manifest, data_start


def decode_plane(source,
                 writable: bool = False) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Parse an encoded plane into ``(manifest, named zero-copy views)``.

    ``source`` is any buffer holding :func:`encode_plane` output — a
    mapped shm segment or fetched socket bytes.  O(#buffers): no array is
    copied.  Views are read-only unless ``writable`` (only the shm writer
    asks for writable views, over a segment it owns).
    """
    buf, manifest, data_start = _parse_payload(source)
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
# Delta frames: chunk-granular diffs between two encoded planes
# ---------------------------------------------------------------------------


def _buffer_nbytes(spec: Dict) -> int:
    count = 1
    for dim in spec["shape"]:
        count *= dim
    return count * np.dtype(spec["dtype"]).itemsize


def _buffer_bytes(buf: memoryview, data_start: int,
                  spec: Dict) -> np.ndarray:
    """One buffer of an encoded plane as a flat uint8 view (no copy)."""
    return np.frombuffer(buf, dtype=np.uint8, count=_buffer_nbytes(spec),
                         offset=data_start + spec["offset"])


def _dirty_ranges(old: np.ndarray, new: np.ndarray) -> List[Tuple[int, int]]:
    """Coalesced byte ranges of the :data:`CHUNK_BYTES` chunks in which
    two equal-length byte arrays differ (the last chunk may be short)."""
    nbytes = new.size
    whole = nbytes - nbytes % CHUNK_BYTES
    dirty = (old[:whole] != new[:whole]).reshape(-1, CHUNK_BYTES).any(axis=1)
    if whole < nbytes:
        dirty = np.append(dirty, (old[whole:] != new[whole:]).any())
    chunks = np.flatnonzero(dirty)
    if not chunks.size:
        return []
    cuts = np.flatnonzero(np.diff(chunks) > 1) + 1
    firsts = chunks[np.r_[0, cuts]]
    lasts = chunks[np.r_[cuts - 1, chunks.size - 1]]
    return [(int(first) * CHUNK_BYTES, min((int(last) + 1) * CHUNK_BYTES,
                                           nbytes))
            for first, last in zip(firsts, lasts)]


def diff_payloads(base_payload, target_payload) -> Dict[str, Optional[
        List[Tuple[int, int]]]]:
    """Per-buffer dirty byte ranges between two encoded planes.

    For every buffer in the target: ``None`` means the whole buffer must
    be resent (new buffer, or shape/dtype changed so chunk positions are
    incomparable); otherwise a list of coalesced ``(start, end)`` byte
    ranges — relative to the buffer — covering exactly the
    :data:`CHUNK_BYTES` chunks whose bytes differ (empty when the buffer
    is bit-identical).  Buffers present only in the base simply vanish:
    the target manifest does not mention them.  Each buffer pair is
    compared in place with one vectorized pass, nothing is hashed.
    """
    base, base_manifest, base_start = _parse_payload(base_payload)
    target, target_manifest, target_start = _parse_payload(target_payload)
    base_table = base_manifest["buffers"]
    out: Dict[str, Optional[List[Tuple[int, int]]]] = {}
    for name, spec in target_manifest["buffers"].items():
        old = base_table.get(name)
        if (old is None or old["dtype"] != spec["dtype"]
                or old["shape"] != spec["shape"]):
            out[name] = None
        else:
            out[name] = _dirty_ranges(_buffer_bytes(base, base_start, old),
                                      _buffer_bytes(target, target_start,
                                                    spec))
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

    Patches address bytes *relative to each buffer* and cover exactly
    :func:`diff_payloads`' ranges; a ``(0, nbytes)`` patch is the
    full-buffer fallback (new buffer, shape/dtype change).  Composing
    the frame onto the base payload with :func:`apply_plane_delta`
    reproduces the target payload bit-identically.
    """
    dirty = diff_payloads(base_payload, target_payload)
    target, manifest, data_start = _parse_payload(target_payload)
    manifest_len = _payload_header(target)[0]
    patches: List[List] = []
    pieces: List[memoryview] = []
    for name, spec in manifest["buffers"].items():
        ranges = dirty[name]
        if ranges is None:
            ranges = [(0, _buffer_nbytes(spec))]
        for start, end in ranges:
            if end <= start:
                continue
            patches.append([name, start, end])
            lo = data_start + spec["offset"] + start
            pieces.append(target[lo:lo + (end - start)])
    head = {
        "version": FORMAT_VERSION,
        "kind": "plane-delta",
        "base": base_digest or plane_digest(base_payload),
        "target": target_digest or plane_digest(target),
        "total": len(target),
        "manifest_len": manifest_len,
        "data_start": data_start,
        "patches": patches,
    }
    hbytes = json.dumps(head, separators=(",", ":")).encode("ascii")
    return b"".join([len(hbytes).to_bytes(8, "big"), hbytes,
                     target[_HEADER_BYTES:_HEADER_BYTES + manifest_len],
                     *pieces])


#: the header fields a plane delta must carry, with their JSON types
_DELTA_FIELDS = {"base": str, "target": str, "total": int,
                 "manifest_len": int, "data_start": int, "patches": list}


def delta_header(delta) -> Dict:
    """Parse a delta frame's header (base/target digests, patch table).

    Raises :class:`ConfigError` for any frame whose header does not parse
    into a complete plane-delta header of this format version.
    """
    mv = memoryview(delta)
    try:
        hlen = int.from_bytes(mv[:8], "big")
        head = json.loads(bytes(mv[8:8 + hlen]).decode("ascii"))
    except (ValueError, RecursionError):  # undecodable bytes or JSON
        head = None
    if not isinstance(head, dict) or head.get("kind") != "plane-delta":
        raise ConfigError("frame is not a plane delta")
    if head.get("version") != FORMAT_VERSION:
        raise ConfigError(
            f"plane delta has format version {head.get('version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    if not all(isinstance(head.get(key), kind)
               for key, kind in _DELTA_FIELDS.items()):
        raise ConfigError("plane delta header is incomplete")
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
    yielding a plausible-but-wrong plane, and so does a frame too
    malformed to compose at all.
    """
    head = delta_header(delta)
    if base_digest is None:
        base_digest = plane_digest(base_payload)
    if base_digest != head["base"]:
        raise ConfigError(
            f"delta base mismatch: frame expects {head['base'][:12]}…, "
            f"composing onto {base_digest[:12]}…"
        )
    try:
        composed = _compose(base_payload, memoryview(delta), head)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise ConfigError(f"malformed plane delta: {exc!r}") from None
    if plane_digest(composed) != head["target"]:
        raise ConfigError(
            "delta composition digest mismatch: the composed plane is not "
            "bit-identical to the full encoding"
        )
    return composed


def _compose(base_payload, frame: memoryview, head: Dict) -> bytes:
    """The target payload ``frame`` describes, before its digest check."""
    base, base_manifest, base_start = _parse_payload(base_payload)
    hlen = int.from_bytes(frame[:8], "big")
    manifest_len, data_start = head["manifest_len"], head["data_start"]
    cursor = 8 + hlen + manifest_len
    manifest_bytes = frame[8 + hlen:cursor]
    table = json.loads(bytes(manifest_bytes).decode("ascii"))["buffers"]
    # Every target byte comes from the base, the frame or alignment
    # padding: a larger size is a corrupt frame, not an allocation.
    total = head["total"]
    if not _HEADER_BYTES <= total <= (len(base) + len(frame)
                                      + ALIGN * (len(table) + 1)):
        raise ConfigError(f"plane delta claims an impossible size {total}")

    out = bytearray(total)
    np.frombuffer(out, dtype=np.uint64, count=2)[:] = (
        manifest_len, data_start,
    )
    out[_HEADER_BYTES:_HEADER_BYTES + manifest_len] = manifest_bytes

    fully_patched = {
        name for name, start, end in head["patches"]
        if start == 0 and end >= _buffer_nbytes(table[name])
    }
    base_table = base_manifest["buffers"]
    for name, spec in table.items():
        nbytes = _buffer_nbytes(spec)
        if name in fully_patched or not nbytes:  # an empty buffer: no bytes
            continue
        old = base_table.get(name)
        if (old is None or old["dtype"] != spec["dtype"]
                or old["shape"] != spec["shape"]):
            raise ConfigError(
                f"delta frame leaves buffer {name!r} unpatched but the "
                "base has no matching buffer to copy it from"
            )
        src = base_start + old["offset"]
        dst = data_start + spec["offset"]
        out[dst:dst + nbytes] = base[src:src + nbytes]

    for name, start, end in head["patches"]:
        size = end - start
        dst = data_start + table[name]["offset"] + start
        out[dst:dst + size] = frame[cursor:cursor + size]
        cursor += size
    return bytes(out)

