"""Fault tolerance of the serving plane, under deterministic injection.

Three layers of claims:

* **Primitives** — :class:`FaultPolicy` schedules are seed-reproducible,
  :class:`Backoff` delays are bounded and jittered, the
  :class:`RespawnBreaker` opens after N failures in a window and
  re-closes as they age out.
* **Client retry** — a :class:`NetReader` dialing the real server
  through a :class:`FaultProxy` answers *bit-identically* (values and
  stats counters) to a clean reader across a multi-epoch churn
  workload, and its fault counters match the injected schedule exactly.
* **Pool resilience** — crashed workers are respawned onto the current
  epoch (batches in flight are resubmitted, never lost), the breaker
  degrades the pool to survivors instead of crash-loop forking, and a
  SIGKILL'd server restarted on the same address — with a *colliding*
  generation counter — is detected and re-synced, including the
  delta-history-lost → full-frame-fetch fallback.
"""

from __future__ import annotations

import multiprocessing as mp
import random

import pytest

from repro.errors import ConfigError
from repro.serving import faults, shm_available
from repro.serving.faults import (
    Backoff,
    FaultPolicy,
    FaultProxy,
    RespawnBreaker,
)
from repro.serving.net import NetReader, net_available
from repro.serving.pool import ServeSession

from tests.test_serving_net import _sgraph, _stats_tuple, _wait_until

net_only = [
    pytest.mark.net,
    pytest.mark.skipif(not net_available(),
                       reason="loopback TCP sockets unavailable"),
]
shm_only = [
    pytest.mark.shm,
    pytest.mark.skipif(not shm_available(),
                       reason="POSIX shared memory unavailable"),
]


# -- primitives --------------------------------------------------------------


class TestFaultPolicy:
    def test_same_seed_same_schedule(self):
        a = FaultPolicy(seed=7, drops=2, truncations=1, corruptions=2,
                        delays=1)
        b = FaultPolicy(seed=7, drops=2, truncations=1, corruptions=2,
                        delays=1)
        assert a.plans == b.plans
        assert a.scheduled() == {"drop": 2, "truncate": 1,
                                 "corrupt": 2, "delay": 1}

    def test_round_robin_interleave(self):
        policy = FaultPolicy(seed=1, drops=2, corruptions=2)
        assert [p.kind for p in policy.plans] == \
            ["drop", "corrupt", "drop", "corrupt"]

    def test_offsets_inside_window(self):
        policy = FaultPolicy(seed=3, drops=8, window=(64, 2048))
        assert all(64 <= p.at_bytes < 2048 for p in policy.plans)

    def test_one_plan_per_connection_then_exhausted(self):
        policy = FaultPolicy(seed=0, drops=1, delays=1)
        assert policy.plan_for_connection().kind == "drop"
        assert policy.plan_for_connection().kind == "delay"
        assert policy.plan_for_connection() is None

    def test_explicit_schedule_and_validation(self):
        policy = FaultPolicy(schedule=["truncate", "drop"])
        assert [p.kind for p in policy.plans] == ["truncate", "drop"]
        with pytest.raises(ConfigError):
            FaultPolicy(schedule=["meteor"])
        with pytest.raises(ConfigError):
            FaultPolicy(window=(10, 10))

    def test_disruptions_excludes_delays(self):
        policy = FaultPolicy(seed=0, drops=1, delays=3)
        for kind in ("drop", "delay", "delay"):
            policy.record(kind)
        assert policy.disruptions() == 1
        assert policy.injected["delay"] == 2


class TestBackoff:
    def test_grows_exponentially_and_caps(self, monkeypatch):
        monkeypatch.setattr(faults, "BACKOFF_JITTER", 0.0)
        b = Backoff(0.4)
        assert [b.delay(i) for i in range(5)] == [0.05, 0.1, 0.2, 0.4, 0.4]

    def test_maximum_below_the_initial_delay_is_flat(self, monkeypatch):
        monkeypatch.setattr(faults, "BACKOFF_JITTER", 0.0)
        b = Backoff(0.01)
        assert [b.delay(i) for i in range(4)] == [0.01] * 4

    def test_jitter_bounded_and_seed_reproducible(self, monkeypatch):
        monkeypatch.setattr(faults, "BACKOFF_JITTER", 0.5)
        b1 = Backoff(2.0, rng=random.Random(9))
        b2 = Backoff(2.0, rng=random.Random(9))
        for attempt in range(8):
            d1, d2 = b1.delay(attempt), b2.delay(attempt)
            assert d1 == d2
            base = min(2.0, 0.05 * 2.0 ** attempt)
            assert 0.5 * base <= d1 <= 1.5 * base


class TestRespawnBreaker:
    def test_opens_after_n_failures_and_recloses(self, monkeypatch):
        monkeypatch.setattr(faults, "RESPAWN_LIMIT", 2)
        monkeypatch.setattr(faults, "RESPAWN_WINDOW_S", 10.0)
        now = [0.0]
        breaker = RespawnBreaker(clock=lambda: now[0])
        assert breaker.allow()
        breaker.record()
        assert breaker.allow()
        breaker.record()
        assert not breaker.allow()
        assert breaker.open
        assert breaker.trips == 1
        # failures age out of the window -> the breaker re-closes itself
        now[0] = 11.0
        assert not breaker.open
        assert breaker.allow()
        assert breaker.failures_in_window() == 0


# -- client retry under the fault proxy --------------------------------------


class TestFaultProxy:
    pytestmark = net_only

    @pytest.mark.usefixtures("fast_backoff")
    def test_churn_bit_identical_under_seeded_faults(self):
        """The acceptance workload: 3 churn epochs through drops,
        truncations, corruption, and a latency spike — every answer
        (value AND stats counters) matches a clean reader, and the
        client's fault counters match the injected schedule exactly."""
        sg = _sgraph(81)
        verts = sorted(sg.graph.vertices())
        rng = random.Random(17)
        policy = FaultPolicy(seed=42, drops=2, truncations=2,
                             corruptions=2, delays=1, delay_s=0.05)
        with ServeSession(sg, workers=1, transport="tcp") as session:
            server = session.transport.server
            with FaultProxy(server.host, server.port, policy) as proxy:
                faulted = NetReader(proxy.address, retry=6,
                                    max_backoff=0.05)
                clean = NetReader(server.address)
                try:
                    for round_no in range(3):
                        if round_no:
                            u, v = rng.sample(verts[:40], 2)
                            sg.add_edge(u, v, rng.uniform(0.1, 0.4))
                            session.publish()
                        pairs = [tuple(rng.sample(verts, 2))
                                 for _ in range(16)]
                        for s, t in pairs:
                            fv, fstats, fepoch = faulted.distance(s, t)
                            cv, cstats, cepoch = clean.distance(s, t)
                            assert fv == cv
                            assert _stats_tuple(fstats) == \
                                _stats_tuple(cstats)
                            assert fepoch == cepoch
                    stats = faulted.stats_row()
                    injected = policy.injected
                    # every disruptive fault that fired cost exactly one
                    # retry; nothing hung, nothing went stale
                    assert stats["retries"] == policy.disruptions()
                    assert stats["peer_closed"] == \
                        injected["drop"] + injected["truncate"]
                    assert stats["corrupt_frames"] == injected["corrupt"]
                    assert stats["deadline_exceeded"] == 0
                    assert stats["stale_serves"] == 0
                    assert not faulted.stale
                    assert proxy.stats()["connections"] >= \
                        policy.disruptions() + 1
                finally:
                    faulted.close()
                    clean.close()

    @pytest.mark.usefixtures("fast_backoff")
    def test_pool_workers_dial_through_proxy(self):
        """`advertise=` points pool reader specs at the proxy; worker-side
        retry counters surface through ``reader_stats``/``stats_row``."""
        import socket as socket_mod

        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = FaultPolicy(seed=5, drops=1, corruptions=1)
        sg = _sgraph(83)
        with FaultProxy("127.0.0.1", port, policy) as proxy:
            with ServeSession(sg, workers=1, transport="tcp", port=port,
                              advertise=(proxy.host, proxy.port),
                              retry=6, max_backoff=0.05) as session:
                clean = NetReader(f"127.0.0.1:{port}")
                try:
                    verts = sorted(sg.graph.vertices())
                    rng = random.Random(3)
                    for _ in range(12):
                        s, t = rng.sample(verts, 2)
                        pv, pstats, pepoch = session.distance(s, t)
                        cv, cstats, cepoch = clean.distance(s, t)
                        assert pv == cv
                        assert _stats_tuple(pstats) == _stats_tuple(cstats)
                        assert pepoch == cepoch
                    rows = session.reader_stats()
                    assert len(rows) == 1
                    assert rows[0]["retries"] == policy.disruptions()
                    assert not rows[0]["stale"]
                    row = session.stats_row()
                    assert row["retries"] == policy.disruptions()
                    assert row["respawns"] == 0
                finally:
                    clean.close()

    @pytest.mark.usefixtures("fast_backoff")
    def test_seeded_schedule_fires_within_its_plan(self):
        """The schedule really disrupts the reader (so ``retries ==
        disruptions`` is not 0 == 0), and no kind fires more often than
        it was planned."""
        sg = _sgraph(86)
        policy = FaultPolicy(seed=42, drops=1, truncations=1,
                             corruptions=1, delays=1, delay_s=0.01)
        with ServeSession(sg, workers=1, transport="tcp") as session:
            server = session.transport.server
            with FaultProxy(server.host, server.port, policy) as proxy:
                with NetReader(proxy.address, retry=6,
                               max_backoff=0.05) as reader:
                    for round_no in range(3):
                        if round_no:
                            sg.add_edge(0, 50 + round_no, 0.3)
                            session.publish()
                        reader.distance(0, 1)
                    scheduled = policy.scheduled()
                    assert policy.disruptions() >= 1
                    assert all(policy.injected[kind] <= scheduled[kind]
                               for kind in scheduled)
                    assert (reader.stats_row()["retries"]
                            == policy.disruptions())

    def test_delay_fault_costs_no_retry(self):
        sg = _sgraph(85)
        policy = FaultPolicy(seed=11, delays=2, delay_s=0.05)
        with ServeSession(sg, workers=1, transport="tcp") as session:
            server = session.transport.server
            with FaultProxy(server.host, server.port, policy) as proxy:
                with NetReader(proxy.address) as reader:
                    value, _stats, _epoch = reader.distance(0, 1)
                    assert value >= 0
                    assert reader.stats_row()["retries"] == 0


# -- pool respawn and degradation --------------------------------------------


class TestWorkerRespawn:
    pytestmark = shm_only

    def test_killed_worker_is_respawned_and_answers(self):
        sg = _sgraph(91)
        with sg.serve(workers=2) as session:
            value, stats, epoch = session.distance(0, 1)
            session.pool.kill_worker(0)
            # the next queries route around / resubmit past the corpse,
            # then the reap respawns it onto the current epoch.  Search
            # counters must match bit for bit (workspace reuse counters
            # legitimately reset on the respawned worker's fresh arrays).
            for _ in range(4):
                got_value, got_stats, got_epoch = session.distance(0, 1)
                assert (got_value, got_epoch) == (value, epoch)
                assert _stats_tuple(got_stats) == _stats_tuple(stats)
            assert _wait_until(lambda: session.pool.respawns >= 1)
            assert _wait_until(
                lambda: sorted(session.pool.alive()) == [0, 1]
            )
            assert session.distance(0, 1)[0] == value

    def test_one_respawn_leaves_the_breaker_closed(self):
        """A single crash is charged to the breaker without opening it:
        the pool is back to full strength and would respawn again."""
        sg = _sgraph(95)
        with sg.serve(workers=2) as session:
            value = session.distance(0, 1)[0]
            session.pool.kill_worker(1)
            assert session.distance(0, 1)[0] == value
            assert _wait_until(lambda: session.pool.respawns >= 1)
            assert _wait_until(
                lambda: sorted(session.pool.alive()) == [0, 1]
            )
            row = session.stats_row()
            assert row["alive"] == row["workers"] == 2
            assert row["breaker_open"] is False
            assert row["respawns"] >= 1

    def test_batch_survives_killing_every_worker(self):
        """The one-shot-resubmission fix: a batched verb keeps reaping,
        respawning, and resubmitting until the whole batch is answered —
        even with *all* workers dead at submit time."""
        sg = _sgraph(92)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=2, chunk=4) as session:
            targets = verts[1:25]
            pairs = [(0, t) for t in targets]
            expected, _stats, _epoch = session.distance_many(0, targets)
            expected_rows = [row[0] for row in session.map_distance(pairs)]
            session.pool.kill_worker(0)
            session.pool.kill_worker(1)
            values, _stats, _epoch = session.distance_many(0, targets)
            assert values == expected
            assert session.pool.respawns >= 2
            rows = session.map_distance(pairs)
            assert [row[0] for row in rows] == expected_rows

    @pytest.mark.usefixtures("breaker_opens_at_first_crash")
    def test_breaker_degrades_to_survivors(self):
        sg = _sgraph(93)
        with sg.serve(workers=2) as session:
            value, _stats, epoch = session.distance(0, 1)
            session.pool.kill_worker(0)
            # RESPAWN_LIMIT=1: the first crash already opens the breaker,
            # so the corpse stays dead and the pool serves from the survivor
            for _ in range(4):
                assert session.distance(0, 1)[0] == value
                assert session.distance(0, 1)[2] == epoch
            assert session.pool.respawns == 0
            assert session.pool.alive() == [1]
            row = session.stats_row()
            assert row["breaker_open"] is True
            assert row["breaker_trips"] >= 1
            assert row["respawns"] == 0

    @pytest.mark.usefixtures("breaker_opens_at_first_crash")
    def test_respawn_disabled_keeps_pool_shrunk(self):
        sg = _sgraph(94)
        with sg.serve(workers=2) as session:
            value = session.distance(0, 1)[0]
            session.pool.kill_worker(1)
            assert session.distance(0, 1)[0] == value
            assert session.pool.alive() == [0]
            assert session.pool.respawns == 0


# -- server restart (SIGKILL + same-address rebind) ---------------------------


def _server_incarnation(port, seed, mutate, ready):
    """Child-process PlaneServer serving one deterministic plane forever.

    Rebuilds the seed graph (plus one deterministic mutation for the
    second incarnation), publishes its dense plane, reports the bound
    port, then parks until SIGKILL/terminate.
    """
    import time as time_mod

    from repro.serving.codec import encode_plane
    from repro.serving.net import PlaneServer
    from repro.streaming.versioning import VersionedStore

    sg = _sgraph(seed)
    epoch = 1
    if mutate:
        verts = sorted(sg.graph.vertices())
        sg.add_edge(verts[0], verts[-1], 0.25)
        epoch = 2
    view = VersionedStore(sg).publish()
    server = PlaneServer(host="127.0.0.1", port=port)
    server.publish(encode_plane(view.dense_plane("distance"), epoch=epoch),
                   epoch)
    ready.put(server.port)
    while True:  # parked; the parent kills us
        time_mod.sleep(3600)


class TestServerRestart:
    pytestmark = net_only

    @pytest.mark.usefixtures("fast_backoff", "short_op_deadline")
    def test_pool_worker_serves_stale_when_server_dies(self):
        """A pool worker that loses its server keeps answering from the
        held plane, flagged stale in its reader_stats row."""
        sg = _sgraph(97)
        with ServeSession(sg, workers=1, transport="tcp", retry=1,
                          max_backoff=0.02) as session:
            value, _stats, epoch = session.distance(0, 1)
            session.transport.server.close(drain=False)
            assert session.distance(0, 1)[::2] == (value, epoch)
            row = session.reader_stats()[0]
            assert row["stale"] is True
            assert row["stale_serves"] >= 1

    @pytest.mark.usefixtures("fast_backoff")
    def test_reader_survives_sigkill_restart_bit_identically(self):
        """SIGKILL the server, restart on the same address with the next
        epoch and a *colliding* generation counter: the reader detects
        the restart (server identity, not generation arithmetic), serves
        stale during the outage, re-syncs, and every answer before and
        after matches an uninterrupted run bit for bit — including the
        delta reader, whose lost diff-base history degrades to a
        full-frame fetch rather than an error."""
        from repro.serving.codec import encode_plane
        from repro.serving.net import PlaneServer
        from repro.streaming.versioning import VersionedStore

        seed = 96
        ctx = mp.get_context("fork")
        pairs = [(0, 9), (3, 41), (7, 22), (11, 50)]

        # -- uninterrupted reference run (in-process server) --------------
        sg1 = _sgraph(seed)
        view1 = VersionedStore(sg1).publish()
        payload1 = encode_plane(view1.dense_plane("distance"), epoch=1)
        sg2 = _sgraph(seed)
        verts = sorted(sg2.graph.vertices())
        sg2.add_edge(verts[0], verts[-1], 0.25)
        view2 = VersionedStore(sg2).publish()
        payload2 = encode_plane(view2.dense_plane("distance"), epoch=2)

        reference = {}
        ref_server = PlaneServer()
        try:
            ref_server.publish(payload1, 1)
            with NetReader(ref_server.address) as ref_reader:
                reference[1] = [ref_reader.distance(s, t) for s, t in pairs]
                ref_server.publish(payload2, 2)
                assert ref_reader.refresh() == 2
                reference[2] = [ref_reader.distance(s, t) for s, t in pairs]
        finally:
            ref_server.close(drain=False)

        # -- faulted run: child server, SIGKILL, same-address restart -----
        ready = ctx.Queue()
        first = ctx.Process(target=_server_incarnation,
                            args=(0, seed, False, ready), daemon=True)
        first.start()
        port = ready.get(timeout=30)
        readers = {
            "full": NetReader(f"127.0.0.1:{port}", retry=2,
                              max_backoff=0.05),
            "delta": NetReader(f"127.0.0.1:{port}", delta=True, retry=2,
                               max_backoff=0.05),
        }
        second = None
        try:
            for reader in readers.values():
                answers = [reader.distance(s, t) for s, t in pairs]
                for got, want in zip(answers, reference[1]):
                    assert got[0] == want[0]
                    assert _stats_tuple(got[1]) == _stats_tuple(want[1])
                    assert got[2] == want[2] == 1

            first.kill()
            first.join(timeout=10)

            # outage: degraded readers keep answering epoch 1, flagged
            for reader in readers.values():
                value, stats, epoch = reader.distance(*pairs[0])
                assert (value, epoch) == \
                    (reference[1][0][0], 1)
                assert _stats_tuple(stats) == _stats_tuple(reference[1][0][1])
                assert reader.stale
                assert reader.stats_row()["stale_serves"] >= 1

            # restart on the SAME port; the new server's generation
            # counter starts over and collides with the cached one
            ready2 = ctx.Queue()
            second = ctx.Process(target=_server_incarnation,
                                 args=(port, seed, True, ready2),
                                 daemon=True)
            second.start()
            assert ready2.get(timeout=30) == port

            for name, reader in readers.items():
                assert _wait_until(lambda r=reader: r.refresh() == 2,
                                   timeout=10.0)
                assert not reader.stale
                answers = [reader.distance(s, t) for s, t in pairs]
                for got, want in zip(answers, reference[2]):
                    assert got[0] == want[0]
                    assert _stats_tuple(got[1]) == _stats_tuple(want[1])
                    assert got[2] == want[2] == 2
                stats = reader.stats_row()
                assert stats["reconnects"] >= 1
                # the restarted server never saw the old plane: the delta
                # reader's base history is gone, so epoch 2 arrived as a
                # full frame for both readers
                assert stats["full_fetches"] == 2
                assert stats["delta_fetches"] == 0, name
        finally:
            for reader in readers.values():
                reader.close()
            for proc in (first, second):
                if proc is not None and proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5)
