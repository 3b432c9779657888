"""The plane codec: the byte format both transports speak.

Contract: encoding a :class:`DensePlane` and decoding the bytes yields
bit-identical buffers at 64-byte-aligned offsets, the digest is stable
across encodes of the same plane, and a materialized plane answers
queries bit-identically (values and stats) to the original.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.pruning import PruningPolicy
from repro.errors import ConfigError, QueryError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.serving.codec import (
    ALIGN,
    CHUNK_BYTES,
    apply_plane_delta,
    decode_plane,
    delta_header,
    delta_patch_bytes,
    diff_payloads,
    encode_buffers,
    encode_buffers_into,
    encode_plane,
    encode_plane_delta,
    materialize_plane,
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
            remote.csr, policy=PruningPolicy.UPPER_AND_LOWER,
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
        # The CSR is the reader engine's graph: it validates endpoints.
        missing = max(verts) + 1
        assert remote.csr.has_vertex(verts[0])
        assert not remote.csr.has_vertex(missing)
        with pytest.raises(QueryError, match="not in the graph"):
            engine.best_cost(verts[0], missing)

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


def _payload(*buffers) -> bytes:
    return encode_buffers(list(buffers))


def _with_header(delta: bytes, **changes) -> bytes:
    """``delta`` with its header JSON rewritten (lengths kept consistent)."""
    hlen = int.from_bytes(delta[:8], "big")
    head = json.loads(delta[8:8 + hlen])
    head.update(changes)
    hbytes = json.dumps(head).encode("ascii")
    return len(hbytes).to_bytes(8, "big") + hbytes + delta[8 + hlen:]


def _reference_diff(base: bytes, target: bytes):
    """The dirty ranges :func:`diff_payloads` must find, chunk by chunk in
    plain Python over the decoded buffers' bytes."""
    base_manifest, base_arrays = decode_plane(base)
    target_manifest, target_arrays = decode_plane(target)
    out = {}
    for name, spec in target_manifest["buffers"].items():
        old = base_manifest["buffers"].get(name)
        if (old is None or (old["dtype"], old["shape"])
                != (spec["dtype"], spec["shape"])):
            out[name] = None
            continue
        was = base_arrays[name].tobytes()
        now = target_arrays[name].tobytes()
        ranges = []
        for start in range(0, len(now), CHUNK_BYTES):
            end = min(start + CHUNK_BYTES, len(now))
            if was[start:end] == now[start:end]:
                continue
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        out[name] = ranges
    return out


class TestPayloadDiff:
    """Dirty ranges found by comparing the two payloads, and the deltas
    built from them."""

    def test_manifest_carries_only_the_layout(self):
        """No per-chunk table: the manifest does not grow with a buffer."""
        small = decode_plane(_payload(("x", np.zeros(10))))[0]
        big = decode_plane(_payload(("x", np.zeros(100_000))))[0]
        assert set(small) == {"version", "buffers"}
        assert set(small["buffers"]["x"]) == {"dtype", "shape", "offset"}
        assert set(big["buffers"]["x"]) == {"dtype", "shape", "offset"}

    def test_empty_buffer_diffs_clean(self):
        empty = np.zeros(0, dtype=np.float32)
        tail = np.ones(7, dtype=np.int32)
        payload = _payload(("empty", empty), ("tail", tail))
        manifest, arrays = decode_plane(payload)
        assert arrays["empty"].size == 0
        np.testing.assert_array_equal(arrays["tail"], tail)
        assert diff_payloads(payload, payload) == {"empty": [], "tail": []}
        # a delta whose base and target both carry the empty buffer is
        # composable and names no patches for it
        delta = encode_plane_delta(payload, payload)
        assert delta_header(delta)["patches"] == []
        assert apply_plane_delta(payload, delta) == payload

    def test_dirty_ranges_cover_exactly_the_churn(self):
        x = np.zeros(CHUNK_BYTES, dtype=np.float64)  # 8 chunks
        base = _payload(("x", x))
        y = x.copy()
        y[0] = 1.0                        # chunk 0
        y[CHUNK_BYTES // 8 * 5] = 2.0     # chunk 5
        target = _payload(("x", y))
        assert diff_payloads(base, target)["x"] == [
            (0, CHUNK_BYTES), (5 * CHUNK_BYTES, 6 * CHUNK_BYTES)]
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == 2 * CHUNK_BYTES
        assert len(delta) < len(target)
        assert apply_plane_delta(base, delta) == target

    def test_adjacent_dirty_chunks_coalesce(self):
        x = np.zeros(CHUNK_BYTES, dtype=np.float64)
        base = _payload(("x", x))
        y = x.copy()
        y[CHUNK_BYTES // 8 * 2:CHUNK_BYTES // 8 * 4] = 3.0  # chunks 2+3
        target = _payload(("x", y))
        assert diff_payloads(base, target)["x"] == [
            (2 * CHUNK_BYTES, 4 * CHUNK_BYTES)]

    @pytest.mark.parametrize("new_len", [CHUNK_BYTES // 8 * 8 + 100,
                                         CHUNK_BYTES // 8 * 2])
    def test_growth_and_shrink_force_full_buffer_patch(self, new_len):
        x = np.arange(CHUNK_BYTES, dtype=np.float64)
        base = _payload(("x", x))
        y = np.arange(new_len, dtype=np.float64)
        target = _payload(("x", y))
        assert diff_payloads(base, target)["x"] is None
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == y.nbytes
        assert apply_plane_delta(base, delta) == target

    def test_dtype_change_forces_full_resend(self):
        x = np.arange(512, dtype=np.float64)
        base = _payload(("x", x))
        target = _payload(("x", x.astype(np.float32)))
        assert diff_payloads(base, target)["x"] is None
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == x.astype(np.float32).nbytes
        assert apply_plane_delta(base, delta) == target

    def test_new_buffer_arrives_whole_and_dropped_buffer_vanishes(self):
        x = np.arange(600, dtype=np.float64)
        z = np.arange(40, dtype=np.int32)
        base = _payload(("x", x))
        target = _payload(("x", x), ("z", z))
        dirty = diff_payloads(base, target)
        assert dirty["x"] == [] and dirty["z"] is None
        assert apply_plane_delta(base, encode_plane_delta(base, target)) \
            == target
        # the reverse direction simply stops mentioning z
        assert set(diff_payloads(target, base)) == {"x"}
        assert apply_plane_delta(target, encode_plane_delta(target, base)) \
            == base

    def test_emptied_or_retyped_empty_buffer_composes(self):
        """A buffer that is empty in the target carries no bytes, so the
        delta has no patch for it and composing needs none."""
        x = np.arange(300, dtype=np.int64)
        for old, new in ((x, x[:0]), (x[:0], x[:0].astype(np.float32)),
                         (np.zeros((0, 4)), np.zeros((0, 9)))):
            base = _payload(("a", old), ("b", x))
            target = _payload(("a", new), ("b", x))
            delta = encode_plane_delta(base, target)
            assert delta_header(delta)["patches"] == []
            assert apply_plane_delta(base, delta) == target

    def test_byte_identical_buffers_diff_clean_across_layout_shifts(self):
        """Equal buffers are clean even when the manifest (and so every
        buffer offset) moved between the two payloads."""
        x = np.arange(3000, dtype=np.float64)
        base = _payload(("x", x))
        target = encode_buffers([("x", x)], {"epoch": 10 ** 40})
        assert decode_plane(base)[0] != decode_plane(target)[0]
        assert diff_payloads(base, target) == {"x": []}
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == 0
        assert apply_plane_delta(base, delta) == target

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_diff_and_composes(self, seed):
        """Seeded differential against a plain-Python chunk comparison:
        mixed dtypes and 2-D buffers, lengths off the chunk grid, empty,
        grown, shrunk, retyped, new and dropped buffers."""
        rng = np.random.default_rng(seed)
        dtypes = [np.uint8, np.int32, np.int64, np.float32, np.float64]

        def buffer(dtype, shape):
            return rng.integers(0, 4, size=shape).astype(dtype)

        base, target = [], []
        for i in range(8):
            dtype = dtypes[rng.integers(len(dtypes))]
            length = int(rng.choice([0, 1, 7, 511, CHUNK_BYTES,
                                     CHUNK_BYTES + 3,
                                     int(rng.integers(1, 6000))]))
            shape = (length,) if i % 3 else (3, length)
            old = buffer(dtype, shape)
            new = old.copy()
            flat = new.reshape(-1)
            if flat.size:
                hits = rng.integers(0, flat.size,
                                    size=int(rng.integers(0, 5)))
                flat[hits] = flat[hits] + 1
            fate = rng.integers(6)
            if fate == 1:
                new = buffer(dtype, (length + int(rng.integers(1, 300)),))
            elif fate == 2 and length:
                new = buffer(dtype, (int(rng.integers(0, length)),))
            elif fate == 3:
                new = new.astype(np.float64 if dtype != np.float64
                                 else np.float32)
            if fate != 4:   # 4: the buffer is dropped from the target
                target.append((f"b{i}", new))
            if fate != 5:   # 5: the buffer is new in the target
                base.append((f"b{i}", old))
        base, target = _payload(*base), _payload(*target)
        expected = _reference_diff(base, target)
        assert diff_payloads(base, target) == expected
        delta = encode_plane_delta(base, target)
        assert delta_patch_bytes(delta) == sum(
            end - start
            for name, ranges in expected.items()
            for start, end in (ranges if ranges is not None else [
                (0, decode_plane(target)[1][name].nbytes)]))
        assert apply_plane_delta(base, delta) == target
        back = encode_plane_delta(target, base)
        assert apply_plane_delta(target, back) == base

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
        assert diff_payloads(base, target) == _reference_diff(base, target)
        delta = encode_plane_delta(base, target)
        composed = apply_plane_delta(base, delta)
        assert composed == target
        assert plane_digest(composed) == plane_digest(target)
        manifest, arrays = decode_plane(composed)
        remote = materialize_plane(manifest, arrays)
        engine = PairwiseEngine(
            remote.csr, policy=PruningPolicy.UPPER_AND_LOWER,
            dense=remote,
        )
        for _ in range(20):
            s, t = rng.sample(verts, 2)
            value, _stats = engine.best_cost(s, t)
            assert value == new_view.distance(s, t).value

    def test_encode_plane_lays_out_once_and_hashes_nothing(self,
                                                           monkeypatch):
        """The payload is byte-identical to the two-pass encode, and
        encoding computes no digest at all: only the delta and the
        plane's content digest hash."""
        from repro.serving import codec

        class NoHashing:
            def __getattr__(self, name):
                raise AssertionError(f"encode called hashlib.{name}")

        _sg, view, plane = _published_plane(60, directed=True)
        monkeypatch.setattr(codec, "hashlib", NoHashing())
        payload = encode_plane(plane, epoch=view.epoch)
        monkeypatch.undo()
        buffers = codec.plane_buffers(plane)
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
        base = _payload(("x", x))
        y = x.copy()
        y[5] = 9.0
        target = _payload(("x", y))
        delta = bytearray(encode_plane_delta(base, target))
        delta[-1] ^= 0xFF  # flip one patched byte
        with pytest.raises(ConfigError, match="digest"):
            apply_plane_delta(base, bytes(delta))


class TestMalformedDelta:
    """Any frame that is not a well-formed delta raises ConfigError, the
    one error a reader answers by asking for the full frame."""

    @staticmethod
    def _pair():
        x = np.zeros(4096, dtype=np.float64)
        y = x.copy()
        y[700] = 1.0
        base = _payload(("x", x), ("z", np.arange(50)))
        return base, encode_plane_delta(base, _payload(("x", y),
                                                       ("z", np.arange(50))))

    def _rejected(self, base, frame):
        with pytest.raises(ConfigError):
            delta_header(frame)
        with pytest.raises(ConfigError):
            apply_plane_delta(base, frame)

    def test_flipped_header_byte(self):
        base, delta = self._pair()
        frame = bytearray(delta)
        frame[20] ^= 0xFF
        self._rejected(base, bytes(frame))

    def test_garbage_header(self):
        base, delta = self._pair()
        garbage = bytes(np.random.default_rng(3).integers(
            0, 256, size=64, dtype=np.uint8))
        self._rejected(base, len(garbage).to_bytes(8, "big") + garbage)
        for body in (b"[1, 2, 3]", b"[" * 100_000):
            self._rejected(base, len(body).to_bytes(8, "big") + body)

    @pytest.mark.parametrize("cut", [0, 5, 8, 30])
    def test_truncated_header(self, cut):
        base, delta = self._pair()
        self._rejected(base, delta[:cut])

    def test_patch_naming_an_unknown_buffer(self):
        base, delta = self._pair()
        patches = delta_header(delta)["patches"]
        assert patches
        patches[0][0] = "no-such-buffer"
        frame = _with_header(delta, patches=patches)
        with pytest.raises(ConfigError, match="malformed plane delta"):
            apply_plane_delta(base, frame)

    @pytest.mark.parametrize("changes", [
        {"total": 1 << 60},                  # an allocation, not a plane
        {"total": 3},                        # shorter than the header
        {"patches": [["x", "a", "b"]]},      # non-integer range
        {"patches": [["x", 0]]},             # short patch entry
        {"manifest_len": 5},                 # manifest cut mid-JSON
        {"target": None},                    # incomplete header
    ])
    def test_inconsistent_header_fields(self, changes):
        base, delta = self._pair()
        frame = _with_header(delta, **changes)
        with pytest.raises(ConfigError):
            apply_plane_delta(base, frame)
