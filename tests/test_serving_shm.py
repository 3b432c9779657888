"""Multiprocess shm serving: export/attach parity, epoch handoff, cleanup.

The serving plane's contract is threefold: workers attached over shared
memory answer *bit-identically* to the in-process dict reference (values
and stats counters), every published epoch is handed off without torn
reads or stale answers labeled with the wrong epoch, and no shm segment
outlives the session — including when a worker is SIGKILLed mid-query.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.pruning import PruningPolicy
from repro.graph.dynamic_graph import DynamicGraph
from repro.serving import ShmPlane, leaked_segments, shm_available
from repro.serving.codec import decode_plane, encode_plane
from repro.serving.pool import STALE_STAMP
from repro.serving.transport import KEEP_LINKED, PlaneLease
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore
from tests.conftest import assert_frontier_pass_counters

pytestmark = [
    pytest.mark.shm,
    pytest.mark.skipif(not shm_available(),
                       reason="POSIX shared memory unavailable"),
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


def _dict_reference(view, policy=PruningPolicy.UPPER_AND_LOWER):
    """An index-backed dict engine over the view's frozen snapshot."""
    return PairwiseEngine(
        view.snapshot,
        index=view.engine("distance").index,
        policy=policy,
    )


class TestShmPlaneRoundTrip:
    @pytest.mark.parametrize("directed", [False, True])
    def test_export_attach_parity(self, directed):
        sg = _sgraph(11, directed)
        store = VersionedStore(sg)
        view = store.publish()
        plane = view.dense_plane("distance")
        name = f"rptest-rt{int(directed)}"
        exported = ShmPlane.export(plane, name, epoch=view.epoch)
        try:
            attached = ShmPlane.attach(name)
            assert attached.epoch == view.epoch
            assert attached.directed == directed
            remote = attached.as_dense_plane()
            engine = PairwiseEngine(
                remote.csr,
                policy=PruningPolicy.UPPER_AND_LOWER,
                dense=remote,
            )
            reference = _dict_reference(view)
            rng = random.Random(5)
            verts = sorted(sg.graph.vertices())
            for _ in range(40):
                s, t = rng.sample(verts, 2)
                value, stats = engine.best_cost(s, t)
                ref_value, ref_stats = reference.best_cost(s, t)
                assert value == ref_value
                assert _stats_tuple(stats) == _stats_tuple(ref_stats)
            engine = remote = None  # drop views before unmapping
            attached.close()
        finally:
            exported.close()
            exported.unlink()
        assert leaked_segments(name) == []

    @pytest.mark.parametrize("directed", [False, True])
    def test_segment_bytes_equal_the_tcp_payload(self, directed):
        """One layout for both transports: the segment holds exactly
        ``encode_plane(plane, epoch)``, and the plane it maps answers like
        the writer's."""
        sg = _sgraph(13, directed)
        view = VersionedStore(sg).publish()
        plane = view.dense_plane("distance")
        payload = encode_plane(plane, epoch=view.epoch)
        name = f"rptest-layout{int(directed)}"
        exported = ShmPlane.export(plane, name, epoch=view.epoch)
        try:
            attached = ShmPlane.attach(name)
            assert attached.nbytes >= len(payload)
            assert attached._mm[:len(payload)] == payload
            assert attached.manifest == decode_plane(payload)[0]
            remote = attached.as_dense_plane()
            engine = PairwiseEngine(
                remote.csr,
                policy=PruningPolicy.UPPER_AND_LOWER,
                dense=remote,
            )
            local = view.engine("distance")
            rng = random.Random(6)
            verts = sorted(sg.graph.vertices())
            for _ in range(30):
                s, t = rng.sample(verts, 2)
                value, stats = engine.best_cost(s, t)
                ref_value, ref_stats = local.best_cost(s, t)
                assert value == ref_value
                assert _stats_tuple(stats) == _stats_tuple(ref_stats)
            targets = verts[1:25]
            assert (engine.one_to_many(verts[0], targets)[0]
                    == local.one_to_many(verts[0], targets)[0])
            engine = remote = None  # drop views before unmapping
            attached.close()
        finally:
            exported.close()
            exported.unlink()
        assert leaked_segments(name) == []

    def test_attach_is_zero_copy(self):
        sg = _sgraph(12)
        store = VersionedStore(sg)
        view = store.publish()
        name = "rptest-zc"
        exported = ShmPlane.export(view.dense_plane("distance"), name)
        try:
            attached = ShmPlane.attach(name)
            arrays = attached.arrays()
            assert all(not a.flags.writeable for a in arrays.values())
            # mutate through the writer's view; the reader sees it (shared
            # bytes, not a pickle round-trip)
            exported.arrays()["weights"][0] = 99.5
            assert arrays["weights"][0] == 99.5
            arrays = None  # drop views before unmapping
            attached.close()
        finally:
            exported.close()
            exported.unlink()


class TestServeSessionParity:
    def test_pool_matches_dict_reference(self):
        sg = _sgraph(21)
        with sg.serve(workers=2) as session:
            prefix = session.prefix
            view = session.store.latest()
            reference = _dict_reference(view)
            rng = random.Random(9)
            verts = sorted(sg.graph.vertices())
            pairs = [tuple(rng.sample(verts, 2)) for _ in range(80)]
            answers = session.map_distance(pairs)
            for (s, t), (value, stats, epoch) in zip(pairs, answers):
                ref_value, ref_stats = reference.best_cost(s, t)
                assert value == ref_value
                assert _stats_tuple(stats) == _stats_tuple(ref_stats)
                assert epoch == view.epoch
        assert leaked_segments(prefix) == []

    def test_batched_and_expansion_verbs(self):
        sg = _sgraph(22)
        with sg.serve(workers=2) as session:
            view = session.store.latest()
            values, stats, epoch = session.distance_many(0, list(range(1, 30)))
            assert values == view.distance_many(0, list(range(1, 30)))
            nn, _ = session.nearest(0, 5)
            assert [d for _, d in nn] == [d for _, d in view.nearest(0, 5)]
            within, _ = session.within(0, 2.5)
            assert sorted(within) == sorted(view.within(0, 2.5))

    def test_chunked_distance_many_matches_single_requests(self):
        """The fan-out merge is exactly the sum of its single-request parts.

        Slicing the target list at chunk boundaries and asking each slice
        as its own (single-worker-path) request must reproduce the chunked
        fan-out bit for bit: disjoint value union, summed counters,
        ``answered_by_index`` AND-ed.
        """
        sg = _sgraph(24)
        targets = list(range(1, 42))
        chunk = 10
        with sg.serve(workers=3, chunk=chunk) as session:
            merged_values, merged_stats, merged_epoch = session.distance_many(
                0, targets
            )
            assert merged_epoch == session.store.latest().epoch
            expected_values = {}
            expected = (0, 0, 0, 0, 0, True)
            for i in range(0, len(targets), chunk):
                part = targets[i:i + chunk]
                values, stats, epoch = session.distance_many(0, part)
                assert epoch == merged_epoch
                expected_values.update(values)
                s = _stats_tuple(stats)
                expected = tuple(a + b for a, b in zip(expected[:5], s[:5])
                                 ) + (expected[5] and s[5],)
            assert merged_values == expected_values
            assert _stats_tuple(merged_stats) == expected
            # and the values agree with the frozen view's full batch
            view_values = session.store.latest().distance_many(0, targets)
            for t, v in view_values.items():
                assert merged_values[t] == v
            # Duplicates spanning slices are searched once, as in a
            # single-worker request: the fan-out does not depend on chunk.
            dup_targets = targets[:15] + targets[5:25] + [0, 3, 3]
            fanned = session.distance_many(0, dup_targets)
            with sg.serve(workers=1) as one_worker:  # one request, no slices
                single = one_worker.distance_many(0, dup_targets)
            assert fanned[0] == single[0]
            assert _stats_tuple(fanned[1]) == _stats_tuple(single[1])
            assert fanned[2] == single[2]

    def test_exact_plane_batch_is_one_frontier_pass(self):
        """Integer weights sum exactly, so a batch longer than the chunk
        stays one request: one worker runs one frontier pass over all its
        targets instead of one pass per slice."""
        rng = random.Random(26)
        g = DynamicGraph()
        for v in range(300):
            g.add_edge(v, (v + 1) % 300, rng.randint(1, 9))
            g.add_edge(v, rng.randrange(300), rng.randint(1, 9))
        sg = SGraph(graph=g,
                    config=SGraphConfig(num_hubs=4, queries=("distance",)))
        targets = list(range(100, 164))
        with sg.serve(workers=2, chunk=32) as session:
            values, stats, _epoch = session.distance_many(0, targets)
            view = session.store.latest()
            assert values == view.distance_many(0, targets)
            for half in (targets[:32], targets[32:]):
                assert not session.distance_many(0, half)[1].answered_by_index
        assert_frontier_pass_counters(stats)

    def test_chunk_knob_and_stats_row(self):
        sg = _sgraph(25)
        with sg.serve(workers=1, chunk=5) as session:
            assert session.chunk == 5
            row = session.stats_row()
            assert row["transport"] == "shm"
            assert row["chunk"] == 5
            assert row["workers"] == row["alive"] == 1
            assert row["epoch"] == session.store.latest().epoch
            assert row["generation"] >= 1
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            sg.serve(workers=1, chunk=0)

    def test_workspace_reuse_counters_steady_state(self):
        """Zero O(V) allocations per request: after warm-up, every worker's
        ``workspace_allocs`` is frozen while hits/resets track throughput —
        and a same-|V| epoch handoff does not move it either."""
        sg = _sgraph(26)
        rng = random.Random(11)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=2) as session:
            pairs = [tuple(rng.sample(verts, 2)) for _ in range(40)]
            session.map_distance(pairs)
            session.distance_many(0, list(range(1, 25)))
            session.nearest(0, 5)
            rows = {r["worker"]: r for r in session.reader_stats()}
            assert len(rows) == 2
            for row in rows.values():
                assert row["workspace_allocs"] == 1
                # every acquire after a worker's first was a reuse hit
                assert row["workspace_hits"] == row["workspace_resets"] - 1
                assert row["workspace_resets"] >= 1
                assert row["touched_reset"] >= 1
            # the session row aggregates the same counters
            agg = session.stats_row()
            assert agg["workspace_allocs"] == 2
            assert agg["workspace_resets"] == sum(
                r["workspace_resets"] for r in rows.values()
            )

            # same-|V| epoch handoff: workers rebind engines, not arrays
            sg.add_edge(verts[0], verts[50], 0.2)
            view = session.publish()
            for _ in range(20):
                s, t = rng.sample(verts, 2)
                _value, _stats, epoch = session.distance(s, t)
            after = {r["worker"]: r for r in session.reader_stats()}
            for worker_id, row in after.items():
                assert row["workspace_allocs"] == 1, row
                assert (row["workspace_resets"]
                        >= rows[worker_id]["workspace_resets"])
            assert any(r["epoch"] == view.epoch for r in after.values())

    def test_unreachable_and_bad_endpoint(self):
        sg = _sgraph(23)
        with sg.serve(workers=1) as session:
            # 57..59 are isolated vertices: finite graph, infinite distance
            value, _stats, _epoch = session.distance(0, 58)
            assert value == math.inf
            from repro.errors import QueryError
            with pytest.raises(QueryError):
                session.distance(0, 10**9)


class TestEpochHandoff:
    @pytest.mark.parametrize("directed", [False, True])
    def test_three_epoch_handoff_no_torn_reads(self, directed):
        """Workers keep answering while the writer publishes 3 epochs; every
        answer must match the dict reference *of the epoch it reports*."""
        sg = _sgraph(31, directed)
        rng = random.Random(13)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=2) as session:
            prefix = session.prefix
            references = {
                session.store.latest().epoch:
                    _dict_reference(session.store.latest())
            }
            served_epochs = set()
            for round_no in range(3):
                for _ in range(30):
                    s, t = rng.sample(verts, 2)
                    value, stats, epoch = session.distance(s, t)
                    assert epoch in references
                    ref_value, ref_stats = references[epoch].best_cost(s, t)
                    assert value == ref_value
                    assert _stats_tuple(stats) == _stats_tuple(ref_stats)
                    served_epochs.add(epoch)
                # writer ingests and publishes a new epoch mid-serve
                u, v = rng.sample(verts[:40], 2)
                sg.add_edge(u, v, rng.uniform(0.1, 0.4))
                view = session.publish()
                references[view.epoch] = _dict_reference(view)
            # drain one more batch on the final epoch
            final_epoch = session.store.latest().epoch
            for _ in range(10):
                s, t = rng.sample(verts, 2)
                _value, _stats, epoch = session.distance(s, t)
                served_epochs.add(epoch)
            assert final_epoch in served_epochs
            assert len(served_epochs) >= 2  # handoff actually happened
        assert leaked_segments(prefix) == []

    def test_in_place_kernels_unmap_cleanly_across_epochs(self, capfd):
        """Every search loop in the worker indexes memoryviews of the mapped
        segment.  Each handoff must still unmap the old segment: a view
        outliving its lease makes closing the mapping raise ``BufferError``
        (``TestWriterMappings`` reads the worker's mappings)."""
        sg = _sgraph(33)
        rng = random.Random(19)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=1, transport="shm") as session:
            prefix = session.prefix
            epochs = []
            for round_no in range(3):
                if round_no:
                    u, v = rng.sample(verts[:40], 2)
                    sg.add_edge(u, v, rng.uniform(0.1, 0.4))
                    session.publish()
                view = session.store.latest()
                epochs.append(view.epoch)
                reference = _dict_reference(view)
                activations = 0
                for _ in range(15):
                    s, t = rng.sample(verts, 2)
                    value, stats, epoch = session.distance(s, t)
                    assert epoch == view.epoch
                    assert value == reference.best_cost(s, t)[0]
                    activations += stats.activations
                assert activations > 0  # the pairwise loop really ran
                targets = list(range(1, 30))
                values, _stats, _epoch = session.distance_many(0, targets)
                assert values == view.distance_many(0, targets)
                nn, _ = session.nearest(0, 5)
                assert nn == view.nearest(0, 5)
            assert len(set(epochs)) == 3
        assert leaked_segments(prefix) == []
        assert "BufferError" not in capfd.readouterr().err

    def test_retired_plane_unlinked_after_reattach(self):
        sg = _sgraph(32)
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            first = session.transport.registry.current_epoch()
            session.distance(0, 1)  # worker now holds epoch `first`
            for i in range(KEEP_LINKED):
                assert leaked_segments(f"{prefix}e{first}") != []
                sg.add_edge(0, 55 - i, 0.2)
                session.publish()
                session.distance(0, 55)  # forces attach new / unmap old
            # KEEP_LINKED newer publishes unlink it
            assert leaked_segments(f"{prefix}e{first}") == []
            assert len(leaked_segments(prefix)) == KEEP_LINKED
        assert leaked_segments(prefix) == []

    def test_idle_worker_survives_20_publishes(self):
        """A worker left idle on epoch e while the writer publishes 20 more
        pins nothing: no publish fails, at most KEEP_LINKED segments are
        ever linked, and the idle worker's next answer is on the newest
        epoch."""
        sg = _sgraph(34)
        with sg.serve(workers=2) as session:
            prefix = session.prefix
            pool = session.pool
            first = session.store.latest().epoch

            def ask(worker_id):
                rid = pool.submit_to(worker_id, "distance", (0, 1, 0.0))
                return pool.gather([rid], timeout=30)[rid]

            assert ask(0).epoch == ask(1).epoch == first
            for i in range(20):
                sg.add_edge(0, 30 + i, 0.1 + i / 100)
                view = session.publish()
                assert len(leaked_segments(prefix)) <= KEEP_LINKED
                assert ask(1).epoch == view.epoch  # worker 1 follows
            resp = ask(0)  # worker 0 still maps the long-unlinked `first`
            assert resp.ok and resp.epoch == view.epoch > first
            assert resp.payload[0] == view.distance(0, 1).value
        assert leaked_segments(prefix) == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="needs /proc/<pid>/stat")
    def test_stamp_of_an_unlinked_segment_is_resent(self, monkeypatch):
        """A stamp whose segment KEEP_LINKED publishes unlinked before the
        worker read it is answered STALE_STAMP — never on the older plane
        the worker holds — and ``_pump`` sends it once more, fresh."""
        sg = _sgraph(35)
        verts = sorted(sg.graph.vertices())
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            pool = session.pool
            pid = pool._procs[0].pid
            rounds = iter(range(100))

            def publish_twice():
                for _ in range(2):
                    i = next(rounds)
                    sg.add_edge(verts[i], verts[-1 - i], 0.5 + i / 100)
                    view = session.publish()
                return view

            held = session.distance(0, 1)[2]  # the worker holds `held`
            publish_twice()  # stamped next, but the worker is idle
            _stop(pid)
            try:
                rid = pool.submit("distance", (0, 1, 0.0))
                view = publish_twice()  # unlinks the stamp's segment
            finally:
                os.kill(pid, signal.SIGCONT)
            resp = pool.gather([rid], timeout=30)[rid]
            assert (resp.ok, resp.epoch, resp.payload) == (
                False, None, STALE_STAMP)
            value, _stats, epoch = session.distance(0, 1)
            assert epoch == view.epoch > held
            assert value == view.distance(0, 1).value

            # The same race under _pump: one resend, answered fresh.
            submit, sent = pool.submit, []

            def racing_submit(verb, payload):
                sent.append(verb)
                if len(sent) > 1:
                    return submit(verb, payload)
                _stop(pid)
                try:
                    rid = submit(verb, payload)
                    publish_twice()
                finally:
                    os.kill(pid, signal.SIGCONT)
                return rid

            stamped = publish_twice()  # worker idle on `view`
            monkeypatch.setattr(pool, "submit", racing_submit)
            value, _stats, epoch = session.distance(0, 1)
            latest = session.store.latest()
            assert sent == ["distance", "distance"]
            assert epoch == latest.epoch > stamped.epoch
            assert value == latest.distance(0, 1).value
        assert leaked_segments(prefix) == []


def _stop(pid: int) -> None:
    """SIGSTOP ``pid`` and wait until it is stopped."""
    os.kill(pid, signal.SIGSTOP)
    for _ in range(500):
        with open(f"/proc/{pid}/stat") as fh:
            if fh.read().rsplit(")", 1)[1].split()[0] in ("T", "t"):
                return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} did not stop")


def _mappings(pid, prefix: str) -> dict:
    """``{name: permissions}`` of the ``prefix`` shm segments ``pid`` maps."""
    with open(f"/proc/{pid}/maps") as maps:
        return {line.split("/dev/shm/", 1)[1].split()[0]: line.split()[1]
                for line in maps if f"/dev/shm/{prefix}" in line}


def _mapped_segments(pid, prefix: str) -> set:
    """Names of the ``prefix`` shm segments process ``pid`` maps."""
    return set(_mappings(pid, prefix))


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/<pid>/maps")
class TestWriterMappings:
    """The writer unmaps each plane segment once it is exported: only
    readers map planes, so neither the writer nor a worker forked from it
    pins retired epochs' pages."""

    @staticmethod
    def _publish_20(sg, session):
        for i in range(20):
            sg.add_edge(0, 30 + i, 0.1 + i / 100)
            session.publish()

    def test_writer_maps_no_segment_after_20_publishes(self):
        sg = _sgraph(45)
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            self._publish_20(sg, session)
            assert session.distance(0, 49)[2] == sg.last_published_epoch
            assert _mapped_segments("self", prefix) == set()
        assert leaked_segments(prefix) == []

    def test_respawned_worker_maps_only_the_current_plane(self):
        sg = _sgraph(46)
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            self._publish_20(sg, session)
            session.pool.kill_worker(0)
            session.reap()
            assert session.pool.respawns == 1
            epoch = session.distance(0, 49)[2]
            assert epoch == sg.last_published_epoch
            pid = session.pool._procs[0].pid
            assert _mapped_segments(pid, prefix) == {f"{prefix}e{epoch}"}
        assert leaked_segments(prefix) == []

    def test_worker_maps_only_its_plane_read_only(self):
        """Readers share the writer's bytes read-only, and the OS enforces
        it: a worker maps its segment without write permission.  After
        every dense verb ran on three epochs, the two retired segments are
        unmapped (a view outliving its lease would keep one mapped)."""
        sg = _sgraph(48)
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            for i in range(3):
                if i:
                    sg.add_edge(0, 30 + i, 0.2)
                    session.publish()
                epoch = session.distance(0, 49)[2]
                session.distance_many(0, list(range(1, 30)))
                session.nearest(0, 5)
                session.within(0, 2.5)
            assert epoch == sg.last_published_epoch
            pid = session.pool._procs[0].pid
            assert _mappings(pid, prefix) == {f"{prefix}e{epoch}": "r--s"}
        assert leaked_segments(prefix) == []

    def test_republishing_an_epoch_exports_nothing(self):
        sg = _sgraph(47)
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            view = session.store.latest()
            before = leaked_segments(prefix)
            assert not session.transport.publish_plane(
                view.dense_plane("distance"), view.epoch)
            assert leaked_segments(prefix) == before
        assert leaked_segments(prefix) == []


class TestWorkerCrash:
    @pytest.mark.usefixtures("breaker_opens_at_first_crash")
    def test_killed_worker_leaves_no_segments(self):
        sg = _sgraph(41)
        rng = random.Random(17)
        verts = sorted(sg.graph.vertices())
        # The breaker opens at the first crash: this test pins the
        # degraded-survivor protocol.
        with sg.serve(workers=2) as session:
            prefix = session.prefix
            pairs = [tuple(rng.sample(verts, 2)) for _ in range(60)]
            before = session.map_distance(pairs)
            session.pool.kill_worker(0)
            assert session.pool.dead() == [0]
            # map_distance reaps the corpse and resubmits lost chunks
            after = session.map_distance(pairs)
            assert [a[0] for a in after] == [b[0] for b in before]
        assert leaked_segments(prefix) == []

    def test_workers_freeze_the_inherited_heap(self):
        """Every worker, forked at start or respawned after a kill, moves
        what it inherited from the writer into the permanent gc
        generation, so the collect each epoch handoff runs skips it."""
        sg = _sgraph(44)
        with sg.serve(workers=2) as session:
            rows = session.reader_stats()
            assert len(rows) == 2
            assert all(row["gc_frozen"] > 0 for row in rows), rows
            session.pool.kill_worker(0)
            session.reap()
            assert session.pool.respawns == 1
            session.distance(0, 1)
            rows = session.reader_stats()
            assert sorted(row["worker"] for row in rows) == [0, 1]
            assert all(row["gc_frozen"] > 0 for row in rows), rows

    def test_crash_then_publish_still_hands_off(self):
        sg = _sgraph(42)
        with sg.serve(workers=2) as session:
            prefix = session.prefix
            session.distance(0, 1)
            session.pool.kill_worker(1)
            session.reap()
            sg.add_edge(0, 56, 0.3)
            session.publish()
            value, _stats, epoch = session.distance(0, 56)
            assert value == pytest.approx(0.3)
            assert epoch == session.store.latest().epoch
        assert leaked_segments(prefix) == []

    def test_worker_killed_between_attach_and_unmap(self, monkeypatch):
        """SIGKILL a worker after it attached the new epoch and before it
        unmapped the old one: nothing is held on its behalf, so a later
        publish still unlinks both, and no segment is left behind."""
        sg = _sgraph(43)
        writer = os.getpid()
        release = PlaneLease.release

        def killing_release(lease):
            if os.getpid() != writer:  # only in the worker forked below
                os.kill(os.getpid(), signal.SIGKILL)
            release(lease)

        monkeypatch.setattr(PlaneLease, "release", killing_release)
        with sg.serve(workers=1) as session:
            prefix = session.prefix
            monkeypatch.undo()  # respawns fork an unpatched worker
            first = session.distance(0, 1)[2]  # attach, no old lease
            sg.add_edge(0, 56, 0.3)
            second = session.publish().epoch
            rid = session.pool.submit("distance", (0, 56, 0.0))
            assert session.pool.gather([rid], timeout=30) == {}
            assert session.pool.dead() == [0]
            assert leaked_segments(prefix) == sorted(
                [f"{prefix}e{first}", f"{prefix}e{second}"])
            value, _stats, epoch = session.distance(0, 56)  # respawns
            assert session.pool.respawns == 1
            assert (value, epoch) == (pytest.approx(0.3), second)
            newer = []
            for i in range(KEEP_LINKED):
                sg.add_edge(1, 50 + i, 0.2)
                newer.append(f"{prefix}e{session.publish().epoch}")
            assert leaked_segments(prefix) == sorted(newer)
        assert leaked_segments(prefix) == []


_TRACKER_SCRIPT = """
from multiprocessing import resource_tracker
from repro.core.config import SGraphConfig
from repro.graph.dynamic_graph import DynamicGraph
from repro.serving import leaked_segments
from repro.sgraph import SGraph

g = DynamicGraph()
for v in range(40):
    g.add_edge(v, (v + 1) % 40, 1.0 + v % 3)
sg = SGraph(graph=g, config=SGraphConfig(num_hubs=4, queries=("distance",)))
with sg.serve(workers=2) as session:
    epochs = {session.distance(0, 20)[2]}
    sg.add_edge(0, 20, 0.5)
    session.publish()
    epochs.add(session.distance(0, 20)[2])
assert len(epochs) == 2, epochs
assert leaked_segments(session.prefix) == []
print(resource_tracker._resource_tracker._pid)
"""


def test_a_shm_session_starts_no_resource_tracker():
    """Segments are mapped and unlinked without ``multiprocessing``'s
    resource tracker, so a session across two epochs never starts its
    helper process (checked in a fresh interpreter, which has none)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _TRACKER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.split() == ["None"]
