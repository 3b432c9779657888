"""The pool protocol: one duplex pipe per worker, one request in flight,
requests stamped with the generation to serve — on both transports.

Claims: (1) a worker outlives its writer by no more than a moment, even
when the writer is SIGKILLed (it holds the only writer-side end of its
pipe, so ``recv`` reads EOF); (2) a batch whose request and answer bytes
dwarf the pipe's socket buffers completes on one worker (the writer never
sends while that worker may be sending back); (3) kill + respawn cycles
leak no writer-side file descriptor; (4) between publishes, pool queries
poll nothing, and a tcp worker adopts a new epoch in one ``acquire``;
(5) the first query after ``publish()`` returns is answered at the new
epoch; (6) a worker whose server died tries it again on every
request, degrading each time; (7) a batch chunk size below 1 raises
ConfigError rather than answering nothing; (8) a worker's ConfigError
reaches the caller as ConfigError, every other failure as QueryError.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import random
import signal

import pytest

from repro.errors import ConfigError
from repro.serving import leaked_segments, shm_available
from repro.serving.net import PlaneServer, net_available
from repro.serving.pool import ServeSession
from repro.serving.shm_plane import unlink_segment

from tests.test_serving_net import _sgraph, _stats_tuple, _wait_until

TRANSPORTS = [
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable")),
    pytest.param("tcp", marks=[pytest.mark.net, pytest.mark.skipif(
        not net_available(), reason="loopback TCP sockets unavailable")]),
]


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _writer(transport: str, report) -> None:
    """A writer process: serve, answer one query, report the worker pids,
    then wait to be killed."""
    sg = _sgraph(101)
    session = ServeSession(sg, workers=2, transport=transport)
    session.distance(0, 1)
    session.distance(2, 3)
    report.send([p.pid for p in mp.active_children()
                 if p.name.startswith("repro-serve-")])
    signal.pause()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc")
class TestPoolLifecycle:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_workers_exit_when_the_writer_is_sigkilled(self, transport):
        ctx = mp.get_context("fork")
        report, child_end = ctx.Pipe(duplex=False)
        writer = ctx.Process(target=_writer, args=(transport, child_end))
        writer.start()
        child_end.close()
        workers = []
        try:
            assert report.poll(60), "writer never reported its workers"
            workers = report.recv()
            assert len(workers) == 2
            assert all(_running(pid) for pid in workers)
            os.kill(writer.pid, signal.SIGKILL)
            writer.join(5)
            assert _wait_until(
                lambda: not any(_running(pid) for pid in workers), 5.0
            ), "pool workers outlived their SIGKILLed writer"
        finally:
            for pid in [writer.pid, *workers]:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            writer.join(5)
            # A SIGKILLed writer never runs its atexit sweep: unlink the
            # segments it left (the default session prefix is rp<pid>-).
            for name in leaked_segments(f"rp{writer.pid:x}-"):
                unlink_segment(name)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_oversized_batch_on_one_worker_completes(self, transport):
        """Ten chunks whose answers total ~4 MB through one worker: with
        two requests in flight the writer would block sending the second
        while the worker blocks sending the first answer."""
        sg = _sgraph(102)
        verts = sorted(sg.graph.vertices())
        rng = random.Random(5)
        # mostly s == t (answered without a search, so the batch stays
        # ~1 s) with a real pair every 20th to check the values
        pairs = [tuple(rng.sample(verts, 2)) if i % 20 == 0
                 else (verts[i % len(verts)],) * 2 for i in range(60_000)]
        with ServeSession(sg, workers=1, transport=transport,
                          chunk=6_000) as session:
            engine = session.store.latest().engine("distance")
            out = session.map_distance(pairs, timeout=60)
            assert len(out) == len(pairs)
            for (s, t), (value, stats, _epoch) in zip(pairs[::20], out[::20]):
                ref_value, ref_stats = engine.best_cost(s, t)
                assert value == ref_value
                assert _stats_tuple(stats) == _stats_tuple(ref_stats)
            assert all(value == 0.0 for value, _stats, _epoch in out[1:20])

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_respawn_cycles_leak_no_descriptor(self, transport,
                                                    monkeypatch):
        from repro.serving import faults

        # six crashes: past the default breaker of five
        monkeypatch.setattr(faults, "RESPAWN_LIMIT", 10)
        sg = _sgraph(103)
        with ServeSession(sg, workers=2, transport=transport) as session:
            value = session.distance(0, 1)[0]
            session.distance(0, 1)
            start = _fd_count()
            for cycle in range(6):
                session.pool.kill_worker(cycle % 2)
                assert session.distance(0, 1)[0] == value
                assert session.distance(0, 1)[0] == value
            assert session.pool.respawns == 6
            # a tcp server closes a dead reader's socket on its own thread
            assert _wait_until(lambda: _fd_count() == start, 5.0), \
                f"fd count {start} -> {_fd_count()}"


class TestStampedRequests:
    @pytest.mark.net
    @pytest.mark.skipif(not net_available(),
                        reason="loopback TCP sockets unavailable")
    def test_tcp_pool_queries_poll_nothing_between_publishes(
            self, monkeypatch):
        ops = []
        handle_op = PlaneServer._handle_op

        def counting(self, conn, msg):
            ops.append(msg.get("op"))
            return handle_op(self, conn, msg)

        monkeypatch.setattr(PlaneServer, "_handle_op", counting)
        sg = _sgraph(104)
        verts = sorted(sg.graph.vertices())
        with ServeSession(sg, workers=2, transport="tcp") as session:
            # both workers connect (no op is sent) before round 0
            server = session.transport.server
            assert _wait_until(lambda: len(server._conns) == 2)
            for round_no in range(3):
                del ops[:]
                for i in range(12):
                    session.distance(verts[i], verts[-1 - i])
                # each worker takes the new epoch in one op, on its first
                # query: no poll, and no fetch or release round trip
                assert ops == ["acquire", "acquire"]
                sg.add_edge(verts[round_no], verts[-2 - round_no], 0.5)
                session.publish()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_first_query_after_publish_reads_the_new_epoch(self, transport):
        sg = _sgraph(105)
        verts = sorted(sg.graph.vertices())
        with ServeSession(sg, workers=2, transport=transport,
                          chunk=1) as session:
            session.map_distance([(0, 1)] * 4)
            for step in range(6):
                sg.add_edge(verts[step], verts[-1 - step], 0.25 + step)
                view = session.publish()
                s, t = verts[step], verts[-1 - step]
                value, stats, epoch = session.distance(s, t)
                assert epoch == view.epoch
                ref_value, ref_stats = view.engine("distance").best_cost(s, t)
                assert value == ref_value
                assert _stats_tuple(stats) == _stats_tuple(ref_stats)

    @pytest.mark.net
    @pytest.mark.skipif(not net_available(),
                        reason="loopback TCP sockets unavailable")
    @pytest.mark.usefixtures("fast_backoff", "short_op_deadline")
    def test_degraded_worker_retries_on_every_request(self):
        sg = _sgraph(106)
        with ServeSession(sg, workers=1, transport="tcp", retry=1,
                          max_backoff=0.02) as session:
            value, _stats, epoch = session.distance(0, 1)
            assert session.reader_stats()[0]["stale_serves"] == 0
            session.transport.server.close(drain=False)
            for served in range(1, 5):
                assert session.distance(0, 1)[::2] == (value, epoch)
                row = session.reader_stats()[0]
                assert row["stale"] is True
                assert row["stale_serves"] == served


class TestExpansionArguments:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_pool_and_facade_reject_bad_nearest_within(self, transport):
        """``k < 1`` and a negative radius raise QueryError wherever the
        expansion runs: pool workers, the live facade, a published view,
        and a facade with no distance family (its plain dict traversal)."""
        from repro.core.config import SGraphConfig
        from repro.errors import QueryError
        from repro.sgraph import SGraph

        path = [(i, i + 1, 1.0) for i in range(20)]
        sg = SGraph.from_edges(path, config=SGraphConfig(num_hubs=2))
        hops_only = SGraph.from_edges(
            path, config=SGraphConfig(num_hubs=2, queries=("hops",)))
        with ServeSession(sg, workers=1, transport=transport) as session:
            view = session.store.latest()
            for target in (session, sg, view, hops_only):
                for k in (0, -3):
                    with pytest.raises(QueryError):
                        target.nearest(0, k)
                with pytest.raises(QueryError):
                    target.within(0, -1.0)
            assert session.nearest(0, 1)[0] == [(1, 1.0)]
            assert session.within(0, 0.0)[0] == []


class TestWorkerErrorTypes:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_bad_tolerance_is_a_config_error_as_on_the_facade(
            self, transport):
        """A NaN or negative tolerance raises ConfigError from a pool
        worker exactly as from the facade, the message naming the worker;
        a bad ``k`` and a missing endpoint stay QueryError, and the worker
        keeps answering."""
        from repro.core.config import SGraphConfig
        from repro.errors import QueryError
        from repro.graph.generators import grid_graph
        from repro.sgraph import SGraph

        sg = SGraph(graph=grid_graph(20, 20, seed=1),
                    config=SGraphConfig(num_hubs=4))
        with ServeSession(sg, workers=1, transport=transport) as session:
            for tolerance in (math.nan, -1.0):
                with pytest.raises(ConfigError):
                    sg.distance(0, 399, tolerance=tolerance)
                with pytest.raises(ConfigError, match="worker 0 failed"):
                    session.distance(0, 399, tolerance=tolerance)
            for bad in (lambda: session.nearest(0, 0),
                        lambda: session.distance(0, 10 ** 6)):
                with pytest.raises(QueryError, match="worker 0 failed"):
                    bad()
            assert session.distance(0, 399)[0] == sg.distance(0, 399).value


class TestPublishOrder:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_an_older_epoch_is_refused(self, transport):
        """A transport keeps only its newest epoch: a plane for an older
        epoch, even one never published, is refused, and the registered
        epoch does not move back."""
        sg = _sgraph(108)
        verts = sorted(sg.graph.vertices())
        with ServeSession(sg, workers=1, transport=transport) as session:
            sg.add_edge(verts[0], verts[-1], 0.3)
            skipped = sg.epoch  # never published
            sg.add_edge(verts[1], verts[-2], 0.3)
            view = session.publish()
            registry = session.transport.registry
            generation = registry.generation()
            assert skipped < view.epoch == registry.current_epoch()
            plane = view.dense_plane("distance")
            assert not session.transport.publish_plane(plane, skipped)
            assert not session.transport.publish_plane(plane, view.epoch)
            assert registry.current_epoch() == view.epoch
            assert registry.generation() == generation
            assert session.distance(0, 1)[2] == view.epoch


class TestBatchArguments:
    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_is_rejected(self, chunk):
        """A session chunk below 1 is refused when the session is made,
        instead of batches answering nothing; a chunk of 1 answers every
        pair and target."""
        sg = _sgraph(107)
        pairs = [(0, 1), (2, 3), (4, 5)]
        with pytest.raises(ConfigError, match="chunk must be >= 1"):
            ServeSession(sg, workers=1, transport="shm", chunk=chunk)
        with ServeSession(sg, workers=1, transport="shm",
                          chunk=1) as session:
            assert len(session.map_distance(pairs)) == 3
            values, _stats, _epoch = session.distance_many(0, [1, 2, 3])
            assert sorted(values) == [1, 2, 3]
