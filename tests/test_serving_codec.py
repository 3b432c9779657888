"""The plane codec: the byte format both transports speak.

Contract: encoding a :class:`DensePlane` and decoding the bytes yields
bit-identical buffers at 64-byte-aligned offsets, the digest is stable
across encodes of the same plane, and a materialized plane answers
queries bit-identically (values and stats) to the original.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.pruning import PruningPolicy
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.serving.codec import (
    ALIGN,
    CHUNK_BYTES,
    PlaneGraph,
    apply_plane_delta,
    buffers_manifest,
    decode_plane,
    delta_header,
    delta_patch_bytes,
    diff_manifests,
    encode_buffers,
    encode_buffers_into,
    encode_plane,
    encode_plane_delta,
    materialize_plane,
    payload_manifest,
    plane_buffers,
    plane_digest,
    plane_manifest,
)
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore


def _random_graph(seed: int, directed: bool = False, n: int = 60,
                  m: int = 180) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=directed)
    for v in range(n):
        g.add_vertex(v)
    added = 0
    while added < m:
        u, v = rng.randrange(n - 3), rng.randrange(n - 3)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, rng.uniform(0.5, 3.0))
        added += 1
    return g


def _published_plane(seed: int, directed: bool = False):
    sg = SGraph(graph=_random_graph(seed, directed),
                config=SGraphConfig(num_hubs=6, queries=("distance",)))
    view = VersionedStore(sg).publish()
    return sg, view, view.dense_plane("distance")


class TestRoundTrip:
    @pytest.mark.parametrize("directed", [False, True])
    def test_buffers_bit_identical(self, directed):
        _sg, view, plane = _published_plane(51, directed)
        payload = encode_plane(plane, epoch=view.epoch)
        assert len(payload) == plane_manifest(plane, view.epoch)[2]
        manifest, arrays = decode_plane(payload)
        assert manifest["epoch"] == view.epoch
        assert manifest["directed"] == directed
        np.testing.assert_array_equal(arrays["indptr"], plane.csr.indptr)
        np.testing.assert_array_equal(arrays["indices"], plane.csr.indices)
        np.testing.assert_array_equal(arrays["weights"], plane.csr.weights)
        np.testing.assert_array_equal(arrays["ids"],
                                      np.asarray(plane.csr.ids))
        F, B = plane.tables.F, plane.tables.B
        np.testing.assert_array_equal(arrays["F"], F)
        if directed:
            np.testing.assert_array_equal(arrays["rev_indptr"],
                                          plane.csr.rev_indptr)
            if "B" in arrays:
                np.testing.assert_array_equal(arrays["B"], B)
        assert all(not a.flags.writeable for a in arrays.values())

    def test_buffer_offsets_are_aligned(self):
        _sg, view, plane = _published_plane(52, directed=True)
        payload = encode_plane(plane)
        manifest, _arrays = decode_plane(payload)
        for spec in manifest["buffers"].values():
            assert spec["offset"] % ALIGN == 0

    def test_digest_stable_and_content_sensitive(self):
        _sg, view, plane = _published_plane(53)
        a = encode_plane(plane, epoch=view.epoch)
        b = encode_plane(plane, epoch=view.epoch)
        assert a == b
        assert plane_digest(a) == plane_digest(b)
        c = encode_plane(plane, epoch=view.epoch + 1)
        assert plane_digest(c) != plane_digest(a)

    def test_materialized_plane_answers_bit_identically(self):
        sg, view, plane = _published_plane(54)
        manifest, arrays = decode_plane(encode_plane(plane,
                                                     epoch=view.epoch))
        remote = materialize_plane(manifest, arrays)
        engine = PairwiseEngine(
            PlaneGraph(remote.csr), policy=PruningPolicy.UPPER_AND_LOWER,
            dense=remote,
        )
        reference = PairwiseEngine(
            view.snapshot, index=view.engine("distance").index,
            policy=PruningPolicy.UPPER_AND_LOWER,
        )
        rng = random.Random(3)
        verts = sorted(sg.graph.vertices())
        for _ in range(40):
            s, t = rng.sample(verts, 2)
            value, stats = engine.best_cost(s, t)
            ref_value, ref_stats = reference.best_cost(s, t)
            assert value == ref_value
            assert (stats.activations, stats.pushes, stats.relaxations,
                    stats.answered_by_index) == (
                ref_stats.activations, ref_stats.pushes,
                ref_stats.relaxations, ref_stats.answered_by_index)

    def test_version_mismatch_rejected(self):
        _sg, _view, plane = _published_plane(55)
        payload = bytearray(encode_plane(plane))
        # corrupt the manifest's format version in place
        import json

        import numpy as np
        header = np.frombuffer(payload, dtype=np.uint64, count=2)
        mlen = int(header[0])
        manifest = json.loads(bytes(payload[16:16 + mlen]).decode("ascii"))
        manifest["version"] = 999
        mbytes = json.dumps(manifest, separators=(",", ":")).encode("ascii")
        # same-length rewrite keeps offsets valid
        if len(mbytes) == mlen:
            payload[16:16 + mlen] = mbytes
            with pytest.raises(ConfigError):
                decode_plane(payload)

    def test_sink_too_small_rejected(self):
        _sg, _view, plane = _published_plane(56)
        buffers = plane_buffers(plane)
        with pytest.raises(ConfigError, match="sink too small"):
            encode_buffers_into(buffers, bytearray(16),
                                plane_manifest(plane, None, buffers))

    def test_unsorted_ids_rejected(self):
        """A foreign plane's id buffer must be strictly increasing: dense
        ids break label ties, and only sorted ids break them the way the
        dict plane does."""
        _sg, view, plane = _published_plane(57)
        payload = bytearray(encode_plane(plane, epoch=view.epoch))
        ids = decode_plane(payload, writable=True)[1]["ids"]
        ids[:] = np.random.default_rng(1).permutation(ids)
        manifest, arrays = decode_plane(bytes(payload))
        assert not np.all(np.diff(arrays["ids"]) > 0)
        with pytest.raises(ConfigError, match="strictly increasing"):
            materialize_plane(manifest, arrays)
        # a repeated id is rejected too, from a plain list as well
        csr = plane.csr
        with pytest.raises(ConfigError, match="strictly increasing"):
            CSRGraph.from_arrays(
                csr.indptr, csr.indices, csr.weights,
                [0] + csr.ids[:-1], directed=False, epoch=0,
            )


class TestChunkTables:
    """The chunk-addressed side of the format: dirty ranges and deltas."""

    def test_manifest_chunk_counts(self):
        x = np.arange(CHUNK_BYTES // 8 * 3 + 5, dtype=np.float64)
        payload = encode_buffers([("x", x)])
        spec = payload_manifest(payload)["buffers"]["x"]
        assert len(spec["chunks"]) == -(-x.nbytes // CHUNK_BYTES)
        assert all(len(c) == 16 for c in spec["chunks"])

    def test_empty_buffer_has_no_chunks(self):
        empty = np.zeros(0, dtype=np.float32)
        tail = np.ones(7, dtype=np.int32)
        payload = encode_buffers([("empty", empty), ("tail", tail)])
        manifest, arrays = decode_plane(payload)
        assert manifest["buffers"]["empty"]["chunks"] == []
        assert arrays["empty"].size == 0
        np.testing.assert_array_equal(arrays["tail"], tail)
        # a delta whose base and target both carry the empty buffer is
        # composable and names no patches for it
        delta = encode_plane_delta(payload, payload)
        assert not any(n == "empty" for n, _s, _e
                       in delta_header(delta)["patches"])
        assert apply_plane_delta(payload, delta) == payload

    def test_dirty_ranges_cover_exactly_the_churn(self):
        x = np.zeros(CHUNK_BYTES, dtype=np.float64)  # 8 chunks
        base = encode_buffers([("x", x)])
        y = x.copy()
        y[0] = 1.0                        # chunk 0
        y[CHUNK_BYTES // 8 * 5] = 2.0     # chunk 5
        target = encode_buffers([("x", y)])
        dirty = diff_manifests(payload_manifest(base),
                               payload_manifest(target))
        assert dirty["x"] == [(0, CHUNK_BYTES),
                              (5 * CHUNK_BYTES, 6 * CHUNK_BYTES)]
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == 2 * CHUNK_BYTES
        assert len(delta) < len(target)
        assert apply_plane_delta(base, delta) == target

    def test_adjacent_dirty_chunks_coalesce(self):
        x = np.zeros(CHUNK_BYTES, dtype=np.float64)
        base = encode_buffers([("x", x)])
        y = x.copy()
        y[CHUNK_BYTES // 8 * 2:CHUNK_BYTES // 8 * 4] = 3.0  # chunks 2+3
        target = encode_buffers([("x", y)])
        dirty = diff_manifests(payload_manifest(base),
                               payload_manifest(target))
        assert dirty["x"] == [(2 * CHUNK_BYTES, 4 * CHUNK_BYTES)]

    @pytest.mark.parametrize("new_len", [CHUNK_BYTES // 8 * 8 + 100,
                                         CHUNK_BYTES // 8 * 2])
    def test_growth_and_shrink_force_full_buffer_patch(self, new_len):
        x = np.arange(CHUNK_BYTES, dtype=np.float64)
        base = encode_buffers([("x", x)])
        y = np.arange(new_len, dtype=np.float64)
        target = encode_buffers([("x", y)])
        dirty = diff_manifests(payload_manifest(base),
                               payload_manifest(target))
        assert dirty["x"] is None
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == y.nbytes
        assert apply_plane_delta(base, delta) == target

    def test_dtype_change_forces_full_resend(self):
        x = np.arange(512, dtype=np.float64)
        base = encode_buffers([("x", x)])
        target = encode_buffers([("x", x.astype(np.float32))])
        dirty = diff_manifests(payload_manifest(base),
                               payload_manifest(target))
        assert dirty["x"] is None
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == x.astype(np.float32).nbytes
        assert apply_plane_delta(base, delta) == target

    def test_new_buffer_arrives_whole_and_dropped_buffer_vanishes(self):
        x = np.arange(600, dtype=np.float64)
        z = np.arange(40, dtype=np.int32)
        base = encode_buffers([("x", x)])
        target = encode_buffers([("x", x), ("z", z)])
        dirty = diff_manifests(payload_manifest(base),
                               payload_manifest(target))
        assert dirty["x"] == [] and dirty["z"] is None
        assert apply_plane_delta(base, encode_plane_delta(base, target)) \
            == target
        # the reverse direction simply stops mentioning z
        back = diff_manifests(payload_manifest(target),
                              payload_manifest(base))
        assert set(back) == {"x"}
        assert apply_plane_delta(target, encode_plane_delta(target, base)) \
            == base

    def test_identical_plane_delta_is_header_only(self):
        """A republish under a new epoch ships zero buffer bytes."""
        _sg, view, plane = _published_plane(57)
        base = encode_plane(plane, epoch=view.epoch)
        target = encode_plane(plane, epoch=view.epoch + 1)
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == 0
        assert len(delta) < len(target) // 4
        assert apply_plane_delta(base, delta) == target

    def test_published_epochs_compose_bit_identically(self):
        """Real churn: the composed payload answers like the full fetch."""
        sg, view, plane = _published_plane(58)
        store = VersionedStore(sg)
        base = encode_plane(plane, epoch=view.epoch)
        verts = sorted(sg.graph.vertices())
        rng = random.Random(21)
        for _ in range(5):
            u, v = rng.sample(verts[:20], 2)
            sg.add_edge(u, v, rng.uniform(0.1, 0.4))
        new_view = store.publish()
        target = encode_plane(new_view.dense_plane("distance"),
                              epoch=new_view.epoch)
        delta = encode_plane_delta(base, target)
        composed = apply_plane_delta(base, delta)
        assert composed == target
        assert plane_digest(composed) == plane_digest(target)
        manifest, arrays = decode_plane(composed)
        remote = materialize_plane(manifest, arrays)
        engine = PairwiseEngine(
            PlaneGraph(remote.csr), policy=PruningPolicy.UPPER_AND_LOWER,
            dense=remote,
        )
        for _ in range(20):
            s, t = rng.sample(verts, 2)
            value, _stats = engine.best_cost(s, t)
            assert value == new_view.distance(s, t).value

    def test_unchunked_manifests_never_diff_clean(self):
        """Without chunk tables nothing proves a buffer clean: every buffer
        is resent whole, even between byte-identical payloads."""
        x = np.arange(600, dtype=np.float64)
        layout = buffers_manifest([("x", x)], chunked=False)
        sink = bytearray(layout[2])
        encode_buffers_into([("x", x)], sink, layout)
        bare = bytes(sink)
        manifest = payload_manifest(bare)
        assert "chunk_bytes" not in manifest
        assert "chunks" not in manifest["buffers"]["x"]
        np.testing.assert_array_equal(decode_plane(bare)[1]["x"], x)
        chunked = encode_buffers([("x", x)])
        for base, target in ((bare, bare), (chunked, bare), (bare, chunked)):
            dirty = diff_manifests(payload_manifest(base),
                                   payload_manifest(target))
            assert dirty == {"x": None}
            delta = encode_plane_delta(base, target)
            assert delta_patch_bytes(delta) == x.nbytes
            assert apply_plane_delta(base, delta) == target
        # a chunk table missing on one buffer only resends that buffer
        spec_less = payload_manifest(chunked)
        del spec_less["buffers"]["x"]["chunks"]
        assert diff_manifests(spec_less, payload_manifest(chunked)) \
            == {"x": None}
        assert diff_manifests(payload_manifest(chunked), spec_less) \
            == {"x": None}

    def test_encode_plane_hashes_each_buffer_once(self, monkeypatch):
        """One layout per encode: the payload is byte-identical to the
        two-pass encode, with exactly one digest pass per buffer."""
        from repro.serving import codec

        _sg, view, plane = _published_plane(60, directed=True)
        calls = []
        real = codec.chunk_digests

        def counting(data, *args, **kwargs):
            calls.append(data.nbytes)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(codec, "chunk_digests", counting)
        payload = encode_plane(plane, epoch=view.epoch)
        buffers = codec.plane_buffers(plane)
        assert len(calls) == len(buffers)
        assert calls == [arr.nbytes for _name, arr in buffers]
        calls.clear()
        layout = plane_manifest(plane, view.epoch, buffers)
        two_pass = bytearray(layout[2])
        encode_buffers_into(buffers, two_pass, layout)
        assert bytes(two_pass) == payload
        assert plane_digest(two_pass) == plane_digest(payload)

    def test_wrong_base_rejected(self):
        _sg, view, plane = _published_plane(59)
        a = encode_plane(plane, epoch=view.epoch)
        b = encode_plane(plane, epoch=view.epoch + 1)
        c = encode_plane(plane, epoch=view.epoch + 2)
        delta = encode_plane_delta(b, c)
        with pytest.raises(ConfigError, match="base mismatch"):
            apply_plane_delta(a, delta)

    def test_corrupt_patch_bytes_rejected(self):
        x = np.zeros(2048, dtype=np.float64)
        base = encode_buffers([("x", x)])
        y = x.copy()
        y[5] = 9.0
        target = encode_buffers([("x", y)])
        delta = bytearray(encode_plane_delta(base, target))
        delta[-1] ^= 0xFF  # flip one patched byte
        with pytest.raises(ConfigError, match="digest"):
            apply_plane_delta(base, bytes(delta))
