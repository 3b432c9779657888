"""TCP plane transport: differential parity vs shm, fetch-on-publish, no
server-side lease.

The contract mirrors the shm suite's, plus three transport-specific
claims: (1) a loopback :class:`NetTransport` pool answers
*bit-identically* (values and stats counters) to a :class:`ShmTransport`
pool serving the same store across a multi-epoch publish sequence; (2)
each published plane's buffers cross the socket **exactly once per
reader** — queries after the first hit the reader's digest-keyed cache;
(3) the server holds nothing on a reader's behalf: no number of idle,
dead or departed readers pins a plane or makes a publish fail.
"""

from __future__ import annotations

import gc
import random
import socket
import time
import weakref

import pytest

from repro.core.config import SGraphConfig
from repro.graph.dynamic_graph import DynamicGraph
from repro.serving import shm_available
from repro.serving.net import (
    NetReader,
    PlaneServer,
    _recv_msg,
    _send_msg,
    net_available,
)
from repro.serving.pool import ServeSession
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

pytestmark = [
    pytest.mark.net,
    pytest.mark.skipif(not net_available(),
                       reason="loopback TCP sockets unavailable"),
]


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


def _sgraph(seed: int, directed: bool = False) -> SGraph:
    return SGraph(graph=_random_graph(seed, directed),
                  config=SGraphConfig(num_hubs=6, queries=("distance",)))


def _stats_tuple(stats):
    return (
        stats.activations,
        stats.pushes,
        stats.relaxations,
        stats.pruned_by_upper_bound,
        stats.pruned_by_lower_bound,
        stats.answered_by_index,
    )


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _peers(server: PlaneServer) -> set:
    """Client addresses of the server's open connections."""
    peers = set()
    for conn in list(server._conns):
        try:
            peers.add(conn.getpeername())
        except OSError:  # closed by its thread, not yet removed
            pass
    return peers


class TestTransportDifferential:
    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    @pytest.mark.parametrize("directed", [False, True])
    def test_tcp_bit_identical_to_shm_across_epochs(self, directed):
        """One graph, two transports, three epochs: every answer agrees.

        Both sessions serve the same :class:`SGraph`, and an epoch has one
        frozen plane, so the two publishes of a round hand the identical
        plane to the shm segments and the TCP payload store.  Each round
        fans the same query batch through both pools; values AND stats
        counters must match pair for pair, and afterwards each pool reader
        must have fetched each plane exactly once.
        """
        sg = _sgraph(61, directed)
        rng = random.Random(7)
        verts = sorted(sg.graph.vertices())
        with ServeSession(sg, workers=2) as shm_sess, \
                ServeSession(sg, workers=2, transport="tcp") as net_sess:
            epochs = []
            for round_no in range(3):
                if round_no:
                    u, v = rng.sample(verts[:40], 2)
                    sg.add_edge(u, v, rng.uniform(0.1, 0.4))
                    shm_view = shm_sess.publish()
                    assert (net_sess.publish().dense_plane("distance")
                            is shm_view.dense_plane("distance"))
                epochs.append(shm_sess.store.latest().epoch)
                pairs = [tuple(rng.sample(verts, 2)) for _ in range(24)]
                for s, t in pairs:
                    shm_value, shm_stats, shm_epoch = shm_sess.distance(s, t)
                    net_value, net_stats, net_epoch = net_sess.distance(s, t)
                    assert net_value == shm_value
                    assert _stats_tuple(net_stats) == _stats_tuple(shm_stats)
                    assert net_epoch == shm_epoch == epochs[-1]
            assert len(set(epochs)) == 3
            rows = net_sess.reader_stats()
            # every pool reader fetched every epoch's plane exactly once
            assert len(rows) == 2
            for row in rows:
                assert row["full_fetches"] + row["delta_fetches"] == \
                    len(epochs)

    def test_batched_verbs_match_view(self):
        sg = _sgraph(62)
        with sg.serve(workers=2, transport="tcp", chunk=8) as session:
            view = session.store.latest()
            values, _stats, epoch = session.distance_many(
                0, list(range(1, 30)),
            )
            expected = view.distance_many(0, list(range(1, 30)))
            # per-slice searches may answer a target from the hub index,
            # whose bound sums round differently than the full batch's
            # path accumulation — equality is to float tolerance here,
            # bit-identity is the transport-vs-transport claim above
            assert values.keys() == expected.keys()
            for t in expected:
                assert values[t] == pytest.approx(expected[t])
            assert epoch == view.epoch
            nn, _ = session.nearest(0, 5)
            assert [d for _, d in nn] == [d for _, d in view.nearest(0, 5)]


class TestReadOnlyPlane:
    @pytest.mark.parametrize("directed", [False, True])
    def test_decoded_read_only_plane_answers_like_writer(self, directed):
        """A tcp reader's plane is decoded from fetched bytes, so every
        array — and every memoryview the kernels index — is read-only.
        It must answer every dense verb exactly as the writer's plane."""
        from repro.core.engine import PairwiseEngine
        from repro.serving.net import NetClient

        sg = _sgraph(69, directed=directed)
        with sg.serve(workers=1, transport="tcp") as session:
            server = session.transport.server
            view = session.store.latest()
            client = NetClient(server.host, server.port)
            lease = client.acquire()
            try:
                remote = lease.plane
                csr, tables = remote.csr, remote.tables
                assert not csr.weights.flags.writeable
                assert not tables.F.flags.writeable
                assert all(v.readonly for v in csr.out_views + csr.in_views)
                assert all(v.readonly for v in tables.fwd_views)
                writer = view.dense_plane()
                engines = [
                    PairwiseEngine(plane.csr,
                                   policy="upper+lower", dense=plane)
                    for plane in (remote, writer)
                ]
                rng = random.Random(23)
                verts = sorted(sg.graph.vertices())
                for _ in range(30):
                    s, t = rng.sample(verts, 2)
                    got, want = (e.best_cost(s, t) for e in engines)
                    assert got[0] == want[0]
                    assert _stats_tuple(got[1]) == _stats_tuple(want[1])
                targets = verts[1:30]
                got, want = (e.one_to_many(verts[0], targets) for e in engines)
                assert got[0] == want[0]
                assert _stats_tuple(got[1]) == _stats_tuple(want[1])
                got, want = (e.expand(verts[0], 6, None) for e in engines)
                assert got == want
            finally:
                lease.release()
                client.close()


class TestFetchOnPublish:
    def test_cached_plane_not_refetched(self):
        sg = _sgraph(63)
        with sg.serve(workers=1, transport="tcp") as session:
            for _ in range(10):
                session.distance(0, 1)
            row, = session.reader_stats()
            assert (row["full_fetches"], row["delta_fetches"]) == (1, 0)

    def test_lru_bound_evicts_and_refetches(self):
        """With cache_planes=1 a reader bounced between epochs refetches."""
        sg = _sgraph(64)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=1, transport="tcp",
                      cache_planes=1) as session:
            session.distance(0, 1)
            sg.add_edge(verts[0], verts[-1], 0.2)
            session.publish()
            session.distance(0, 1)
            row, = session.reader_stats()
            # two distinct planes fetched once each; the 1-plane LRU held
            # only the newest at any time
            assert (row["full_fetches"], row["delta_fetches"]) == (2, 0)

    def test_digest_verification_rejects_corruption(self):
        from repro.errors import QueryError
        from repro.serving.net import NetClient

        sg = _sgraph(65)
        with sg.serve(workers=1, transport="tcp") as session:
            server = session.transport.server
            with server.registry.lock:
                digest, payload = next(reversed(server._history.items()))
                tampered = bytearray(payload)
                tampered[-1] ^= 0xFF
                server._history[digest] = bytes(tampered)
            client = NetClient(server.host, server.port)
            try:
                with pytest.raises(QueryError, match="digest"):
                    client.acquire()
            finally:
                client.close()


class TestNoServerLease:
    @pytest.mark.usefixtures("breaker_opens_at_first_crash")
    def test_killed_reader_leaves_nothing_pinned(self):
        """SIGKILL a pool worker mid-hold: the server never counted a
        reference for it, so the next publish retires the old plane at
        once, the history is all the server holds, and the survivor
        answers on the new epoch."""
        sg = _sgraph(66)
        verts = sorted(sg.graph.vertices())
        # The breaker opens at the first crash: this test pins down a
        # permanently lost reader; respawn recovery has its own coverage.
        with sg.serve(workers=2, transport="tcp") as session:
            registry = session.transport.registry
            server = session.transport.server
            # both workers answer (and therefore hold) the first epoch
            for _ in range(4):
                session.distance(0, 1)
            first = registry.current_epoch()
            session.pool.kill_worker(0)
            sg.add_edge(verts[0], verts[-1], 0.2)
            view = session.publish()
            # the publish moved the record on: nothing held the old epoch
            assert registry.current_epoch() == view.epoch != first
            assert server.stats()["cached"] == 2
            value, _stats, epoch = session.distance(0, 1)
            assert value > 0 and epoch == view.epoch

    def test_session_reap_of_a_tcp_reader_is_a_no_op(self):
        sg = _sgraph(67)
        with sg.serve(workers=2, transport="tcp") as session:
            value = session.distance(0, 1)[0]
            session.pool.kill_worker(1)
            epoch = session.transport.registry.current_epoch()
            assert session.reap() == [1]  # nothing to return server-side
            assert session.transport.registry.current_epoch() == epoch
            assert session.distance(0, 1)[0] == value

    def test_idle_readers_on_many_epochs_never_fail_a_publish(self):
        """20 idle readers, each left on a different epoch: every publish
        succeeds and the server holds at most ``cache_planes`` payloads."""
        sg = _sgraph(76)
        verts = sorted(sg.graph.vertices())
        readers = []
        with sg.serve(workers=1, transport="tcp") as session:
            server = session.transport.server
            try:
                epochs = []
                for i in range(20):
                    reader = NetReader(session.transport.address)
                    readers.append(reader)
                    epochs.append(reader.refresh())
                    sg.add_edge(verts[i], verts[-1 - i], 0.5 + i)
                    session.publish()
                    stats = server.stats()
                    assert stats["cached"] <= stats["cache_planes"] == 4
                assert len(set(epochs)) == 20
                # each idle reader still serves the epoch it adopted
                for reader, epoch in zip(readers, epochs):
                    assert reader.epoch == epoch
                latest = session.store.latest()
                assert readers[0].distance(0, 1)[::2] == \
                    (latest.distance(0, 1).value, latest.epoch)
            finally:
                for reader in readers:
                    reader.close()

    def test_removed_ops_are_unknown(self):
        """The wire is poll and acquire: the old ``release``, ``fetch``,
        ``hello`` and ``stats`` ops are refused like any unknown op."""
        server = PlaneServer()
        try:
            with socket.create_connection((server.host, server.port)) as s:
                for op in ("release", "fetch", "hello", "stats"):
                    _send_msg(s, {"op": op, "slot": 0})
                    assert _recv_msg(s) == {
                        "ok": False, "error": f"unknown op {op!r}",
                    }
        finally:
            server.close(drain=False)


class TestMalformedRequests:
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_malformed_requests_close_only_their_connection(self):
        """Undecodable bodies, non-object JSON, a non-list ``have`` and an
        oversized length prefix are each answered ``malformed request``
        and end that connection; no server thread raises, and the server
        keeps serving."""
        from repro.serving.net import _LEN, _MAX_REQUEST, NetClient

        def framed(body: bytes) -> bytes:
            return _LEN.pack(len(body)) + body

        server = PlaneServer()
        try:
            for raw in (
                framed('{"op": "pöll"}'.encode("utf-8")),
                framed(b"\xff\xfe garbage"),
                framed(b'{"op": '),
                framed(b'["poll"]'),
                framed(b"[" * 100_000),
                framed(b'{"op": "acquire", "have": "abc"}'),
                framed(b'{"op": "acquire", "have": [1, 2]}'),
                _LEN.pack(_MAX_REQUEST + 1),
            ):
                with socket.create_connection((server.host,
                                               server.port)) as s:
                    s.sendall(raw)
                    assert _recv_msg(s) == {"ok": False,
                                            "error": "malformed request"}
                    assert s.recv(1) == b""
            client = NetClient(server.host, server.port, retry=0)
            try:
                assert client.generation() is None  # nothing published
            finally:
                client.close()
        finally:
            # joins every connection thread, so any exception one raised
            # has reached the thread-exception check before the test ends
            server.close(drain=False)


class TestNetReader:
    def test_standalone_reader_matches_view_and_refreshes(self):
        sg = _sgraph(68)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=1, transport="tcp") as session:
            view = session.store.latest()
            server = session.transport.server
            with NetReader(session.transport.address) as reader:
                name = reader.client._sock.getsockname()
                assert _wait_until(lambda: name in _peers(server))
                assert reader.refresh() == view.epoch
                rng = random.Random(5)
                for _ in range(20):
                    s, t = rng.sample(verts, 2)
                    value, _stats, epoch = reader.distance(s, t)
                    assert value == view.distance(s, t).value
                    assert epoch == view.epoch
                values, _stats, _epoch = reader.distance_many(
                    0, list(range(1, 20))
                )
                assert values == view.distance_many(0, list(range(1, 20)))
                # writer publishes; the reader's next query adopts it
                sg.add_edge(verts[0], verts[-1], 0.15)
                new_view = session.publish()
                value, _stats, epoch = reader.distance(verts[0], verts[-1])
                assert epoch == new_view.epoch
                assert value == pytest.approx(0.15)
            # context exit closed the socket; the server drops its end
            assert _wait_until(lambda: name not in _peers(server))

    def test_reader_keeps_one_workspace_across_epochs(self):
        """Each epoch's engine adopts the reader's one workspace: the first
        query after a same-|V| handoff is a reuse hit, not a fresh O(V)
        allocation."""
        from repro.graph.generators import grid_graph

        sg = SGraph(graph=grid_graph(8, 8, seed=3),
                    config=SGraphConfig(num_hubs=4, backend="dense"))
        with sg.serve(workers=1, transport="tcp") as session:
            with NetReader(session.transport.address) as reader:
                reader.distance(0, 63)
                hits = []
                for round_no in range(3):
                    sg.add_edge(round_no, 63 - round_no, 0.5 + round_no)
                    view = session.publish()
                    value, stats, epoch = reader.distance(0, 63)
                    assert value == view.distance(0, 63).value
                    assert epoch == view.epoch
                    hits.append(stats.workspace_hits)
                assert hits == [1, 1, 1]

    def test_bad_address_raises(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            NetReader("not-an-address")
        with pytest.raises(ConfigError):
            NetReader("127.0.0.1:1")  # nothing listening


def _churn_weights(sg, rng, count: int = 6) -> None:
    """Re-weight existing edges only: topology (and CSR layout) stable."""
    g = sg.graph
    verts = sorted(g.vertices())
    done = 0
    while done < count:
        u, v = rng.choice(verts), rng.choice(verts)
        if u == v or not g.has_edge(u, v):
            continue
        sg.add_edge(u, v, rng.uniform(0.5, 3.0))
        done += 1


class TestDeltaSync:
    def test_delta_bit_identical_to_full_across_epochs(self):
        """One graph, delta and full TCP sessions, three churn epochs.

        Every answer (value AND stats counters) must agree pair for pair
        — the composed plane is bit-identical to the full fetch — and the
        delta session must actually have moved fewer bytes than the
        all-full hypothetical.
        """
        sg = _sgraph(71)
        rng = random.Random(17)
        verts = sorted(sg.graph.vertices())
        with ServeSession(sg, workers=1, transport="tcp") as full_sess, \
                ServeSession(sg, workers=1, transport="tcp",
                             delta=True) as delta_sess:
            for round_no in range(3):
                if round_no:
                    _churn_weights(sg, rng)
                    # both publish the epoch's one frozen plane
                    full_sess.publish()
                    delta_sess.publish()
                pairs = [tuple(rng.sample(verts, 2)) for _ in range(16)]
                for s, t in pairs:
                    f_value, f_stats, f_epoch = full_sess.distance(s, t)
                    d_value, d_stats, d_epoch = delta_sess.distance(s, t)
                    assert d_value == f_value
                    assert _stats_tuple(d_stats) == _stats_tuple(f_stats)
                    assert d_epoch == f_epoch
            row = delta_sess.stats_row()
            assert row["delta"] is True
            assert row["delta_fetches"] >= 2  # epochs 2 and 3
            assert row["full_fetches"] >= 1   # the bootstrap fetch
            assert 0 < row["bytes_sent"] < row["bytes_full"]
            full_row = full_sess.stats_row()
            assert full_row["delta"] is False
            assert full_row["delta_fetches"] == 0
            assert full_row["bytes_sent"] == full_row["bytes_full"] > 0

    def test_evicted_base_falls_back_to_full_fetch(self):
        """cache_planes=1: the reader's base digest is never in the
        server's history by fetch time, so every refresh is a full frame
        (mode="full" fallback, not an error)."""
        sg = _sgraph(72)
        rng = random.Random(19)
        with sg.serve(workers=1, transport="tcp", delta=True,
                      cache_planes=1) as session:
            session.distance(0, 1)
            for _ in range(2):
                _churn_weights(sg, rng)
                session.publish()
                session.distance(0, 1)
            row = session.stats_row()
            assert row["full_fetches"] >= 3
            assert row["delta_fetches"] == 0
            assert row["cache_planes"] == 1
            assert row["cached"] == 1

    def test_malformed_delta_frame_falls_back_to_full_fetch(self):
        """A delta frame that does not even parse is a delta that does not
        compose: the reader asks again in full instead of raising."""
        from repro.serving.codec import encode_plane, encode_plane_delta
        from repro.serving.net import NetClient

        sg = _sgraph(74)
        store = VersionedStore(sg)
        view0 = store.publish()
        _churn_weights(sg, random.Random(29))
        view1 = store.publish()
        payloads = [encode_plane(v.dense_plane("distance"), epoch=v.epoch)
                    for v in (view0, view1)]
        server = PlaneServer()
        client = None
        try:
            d0 = server.publish(payloads[0], view0.epoch)
            client = NetClient(server.host, server.port, delta=True)
            assert client.acquire().epoch == view0.epoch
            d1 = server.publish(payloads[1], view1.epoch)
            frame = bytearray(encode_plane_delta(*payloads, d0, d1))
            frame[20] ^= 0xFF
            with server.registry.lock:
                server._deltas[(d0, d1)] = bytes(frame)
            full = client.transfer["full_fetches"]
            lease = client.acquire()
            assert lease.epoch == view1.epoch
            assert client.transfer["full_fetches"] == full + 1
            assert client.transfer["delta_fetches"] == 0
            transfer = server.stats()
            assert transfer["delta_fetches"] == 1  # the bad frame, once
            assert transfer["full_fetches"] == 2
        finally:
            if client is not None:
                client.close()
            server.close(drain=False)

    def test_standalone_reader_delta_matches_view(self):
        sg = _sgraph(73)
        rng = random.Random(23)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=1, transport="tcp", delta=True) as session:
            with NetReader(session.transport.address,
                           delta=True) as reader:
                for _ in range(3):
                    _churn_weights(sg, rng)
                    view = session.publish()
                    assert reader.refresh() == view.epoch
                    for _ in range(10):
                        s, t = rng.sample(verts, 2)
                        value, _stats, epoch = reader.distance(s, t)
                        assert value == view.distance(s, t).value
                        assert epoch == view.epoch
                transfer = reader.stats_row()
                assert transfer["delta_fetches"] >= 2
                assert transfer["full_fetches"] >= 1
                assert transfer["bytes_received"] < transfer["bytes_full"]
                # the server's row surfaces cache depth and occupancy
                stats = session.transport.server.stats()
                assert stats["cache_planes"] == 4
                assert 1 <= stats["cached"] <= 4
                assert stats["delta_fetches"] >= 2

    def test_localised_slack_churn_ships_under_a_tenth_of_the_frame(self):
        """The O(Δ) claim: ~1 % of a grid's edges, inside one vertex-id
        window, re-weighted upward where no hub's shortest-path tree
        runs.  Every hub table stays bit-identical, so only the CSR weight
        chunks the window spans change, and a delta fetch moves under a
        tenth of the full frame's bytes (the manifest is ~2 % of it)."""
        import numpy as np

        from repro.graph.generators import grid_graph

        sg = SGraph(graph=grid_graph(32, 32, seed=13,
                                     weight_range=(1.0, 10.0)),
                    config=SGraphConfig(num_hubs=8, hub_strategy="degree"))
        g = sg.graph
        rng = random.Random(41)
        verts = sorted(g.vertices())
        with sg.serve(workers=1, transport="tcp", delta=True) as session:
            with NetReader(session.transport.address,
                           delta=True) as reader:
                reader.refresh()
                plane = session.store.latest().dense_plane("distance")
                F, dense = plane.tables.F, plane.csr.dense_map
                window = set(verts[len(verts) // 3:][:len(verts) // 12])
                # slack: strictly longer than the detour through any hub
                # both ways, so raising its weight moves no hub distance
                slack = [
                    (u, v, w) for u, v, w in sorted(g.edges())
                    if u in window and v in window
                    and np.all(np.abs(F[:, dense[u]] - F[:, dense[v]])
                               < w - 1e-9)
                ]
                chosen = slack[:g.num_edges // 100]
                assert len(chosen) == g.num_edges // 100
                for u, v, w in chosen:
                    sg.add_edge(u, v, w + rng.uniform(0.05, 0.3))
                before = reader.stats_row()
                view = session.publish()
                assert reader.refresh() == view.epoch
                after = reader.stats_row()
                assert np.array_equal(view.dense_plane("distance").tables.F,
                                      F)
                assert after["delta_fetches"] == before["delta_fetches"] + 1
                sent = after["bytes_received"] - before["bytes_received"]
                full = after["bytes_full"] - before["bytes_full"]
                assert 0 < sent < 0.10 * full
                for _ in range(20):
                    s, t = rng.sample(verts, 2)
                    value, _stats, epoch = reader.distance(s, t)
                    assert value == view.distance(s, t).value
                    assert epoch == view.epoch

    @pytest.mark.usefixtures("fast_backoff")
    def test_server_death_surfaces_as_query_error(self):
        """A strict (degrade=False) reader whose server dies mid-session
        gets a QueryError (the CLI's clean-exit contract), never a raw
        ConnectionResetError; a degraded reader keeps serving the held
        plane with the stale flag up instead."""
        from repro.errors import QueryError

        sg = _sgraph(74)
        session = ServeSession(sg, workers=1, transport="tcp")
        try:
            reader = NetReader(session.transport.address, degrade=False,
                               retry=1, max_backoff=0.02)
            stale_reader = NetReader(session.transport.address,
                                     retry=1, max_backoff=0.02)
        except Exception:
            session.close()
            raise
        try:
            value, _stats, _epoch = reader.distance(0, 1)
            assert value >= 0
            stale_value, _stats, stale_epoch = stale_reader.distance(0, 1)
            assert stale_value == value
            session.close()
            with pytest.raises(QueryError):
                # the probe may need a couple of calls before the socket
                # reports the peer is gone
                for _ in range(10):
                    reader.distance(0, 1)
                    time.sleep(0.05)
            # graceful degradation: same answer, from the held plane
            value2, _stats, epoch2 = stale_reader.distance(0, 1)
            assert value2 == stale_value and epoch2 == stale_epoch
            assert stale_reader.stale
            assert stale_reader.stats_row()["stale_serves"] >= 1
        finally:
            for r in (reader, stale_reader):
                try:
                    r.close()
                except Exception:
                    pass
            session.close()


class _SlowExitServer(PlaneServer):
    """A server whose connection threads linger a moment after their
    socket is severed."""

    def _serve_conn(self, conn):
        try:
            super()._serve_conn(conn)
        finally:
            time.sleep(0.3)


class TestServerClose:
    def test_close_waits_for_connection_threads(self):
        server = _SlowExitServer()
        with socket.create_connection((server.host, server.port)):
            assert _wait_until(lambda: server._conn_threads)
            server.close(drain=False)
            assert not server._accept_thread.is_alive()
            assert not any(t.is_alive() for t in server._conn_threads)

    def test_close_joins_threads_and_drops_plane_bytes(self):
        """Closing a session joins every server thread and drops the
        payload history, so one collection right after close frees the
        server whatever its connection threads were doing."""
        sg = _sgraph(74)
        rng = random.Random(29)
        with sg.serve(workers=1, transport="tcp", delta=True) as session:
            server = session.transport.server
            session.distance(0, 1)
            for _ in range(2):
                _churn_weights(sg, rng)
                session.publish()
                session.distance(0, 1)
            assert session.stats_row()["delta_fetches"] >= 1
            assert server._history and server._deltas
        threads = [server._accept_thread, *server._conn_threads]
        assert len(threads) >= 2
        assert not any(t.is_alive() for t in threads)
        assert not (server._history or server._deltas)
        ref = weakref.ref(server)
        del server, session
        gc.collect()
        assert ref() is None

    def test_publish_after_close_keeps_no_plane(self):
        """A closed server serves nobody: publishing through its transport
        encodes nothing, so the server still holds no plane bytes."""
        sg = _sgraph(77)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=1, transport="tcp") as session:
            server = session.transport.server
            server.close(drain=False)
            sg.add_edge(verts[0], verts[-1], 0.2)
            view = session.publish()
            assert server.stats()["cached"] == 0
            assert not session.transport.publish_plane(
                view.dense_plane("distance"), view.epoch + 1)
            assert server.stats()["cached"] == 0

    def test_failed_serve_leaves_no_plane_server(self, monkeypatch):
        """A session whose pool cannot start closes the tcp transport it
        already built: no plane-server thread (and no listening socket)
        outlives the error."""
        from repro.errors import ConfigError
        from repro.serving.pool import WorkerPool

        sg = _sgraph(75)
        before = _plane_servers()
        with pytest.raises(ConfigError):
            sg.serve(workers=0, transport="tcp")

        def fork_fails(_pool, _worker_id):
            raise OSError("fork failed")

        # the transport exists by the time the pool forks its first worker
        monkeypatch.setattr(WorkerPool, "_start", fork_fails)
        with pytest.raises(OSError, match="fork failed"):
            sg.serve(workers=1, transport="tcp")
        assert _wait_until(lambda: _plane_servers() <= before)

    @pytest.mark.parametrize("max_backoff", [0.0, -1.0, float("nan")])
    def test_bad_max_backoff_is_refused_before_anything_starts(
            self, max_backoff, monkeypatch):
        """Refused on the writer side: no worker forks (each would crash
        in its reader and be re-forked until the breaker opened) and no
        plane server starts."""
        from repro.errors import ConfigError
        from repro.serving.pool import WorkerPool

        forks = []
        monkeypatch.setattr(WorkerPool, "_start",
                            lambda _pool, worker_id: forks.append(worker_id))
        sg = _sgraph(76)
        before = _plane_servers()
        with pytest.raises(ConfigError, match="max_backoff must be > 0"):
            sg.serve(workers=1, transport="tcp", max_backoff=max_backoff)
        assert forks == []
        assert _wait_until(lambda: _plane_servers() <= before)

    def test_max_backoff_below_the_first_delay_serves(self):
        """A ceiling under the first reconnect delay is a flat delay."""
        from repro.serving import faults

        sg = _sgraph(76)
        with sg.serve(workers=1, transport="tcp",
                      max_backoff=0.01) as session:
            value, _stats, epoch = session.distance(0, 1)
            assert value == session.store.latest().distance(0, 1).value
            assert epoch == session.store.latest().epoch
            assert session.transport.reader_spec().max_backoff == 0.01
        backoff = faults.Backoff(0.01)
        ceiling = 0.01 * (1 + faults.BACKOFF_JITTER)
        assert all(backoff.delay(i) <= ceiling for i in range(8))


def _plane_servers():
    import threading

    return {t for t in threading.enumerate()
            if t.name == "repro-plane-server"}
