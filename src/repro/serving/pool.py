"""Reader-process fan-out: :class:`WorkerPool` and :class:`ServeSession`.

The writer/readers split the paper's serving story needs: one process owns
the live :class:`~repro.SGraph` and keeps ingesting; N reader processes
acquire the newest published plane through a
:class:`~repro.serving.transport.PlaneTransport` and answer
``distance / distance_many / nearest / within`` requests with the
bit-identical ``_search_dense`` hot path.  Each worker has one private
duplex pipe to the writer and at most one request in flight on it;
per-query payloads are a few scalars plus a
:class:`~repro.core.stats.QueryStats` — graphs are never pickled.

Each worker is a :class:`~repro.serving.transport.PlaneReader` plus a
request loop.  Every request carries the transport's *stamp* as the
writer read it at send — on shm ``(generation, epoch, segment name)``,
on tcp the generation.  A worker refreshes (acquires the stamped plane,
then drops the old one locally, telling the writer nothing) only when
the stamp differs from the one it last refreshed at, so a query
submitted after ``publish()`` returns is answered at that epoch or
later, and no query polls.  A shm stamp whose segment is already
unlinked is answered :data:`STALE_STAMP`, never on the older held plane,
and :meth:`ServeSession._pump` sends it again with a fresh stamp.  A
request being answered keeps the plane it started on.

The pool is generic over the transport: each worker receives a picklable
:class:`~repro.serving.transport.ReaderSpec` and connects inside its own
process — a shm spec maps the segments stamps name, a tcp spec opens a
socket and caches fetched planes.  The request loop never knows which.

:class:`ServeSession` is the writer-side facade tying it together: it owns
a :class:`~repro.streaming.versioning.VersionedStore`, publishes every new
epoch through the transport, and exposes blocking query helpers over the
pool.  ``SGraph.serve(workers=N, transport=..., delta=...)`` constructs
one; ``delta=True`` (TCP only) makes each reader fetch O(Δ) deltas — the
dirty 1 KiB ranges found by ``codec.diff_payloads`` — against its cached
planes instead of full payloads, and ``stats_row()`` reports the
delta/full fetch counters and byte totals.

A session takes only what callers set: ``workers``, ``transport``,
``chunk``, ``delta`` and the tcp options of
:class:`~repro.serving.net.NetTransport`.  The rest are module constants,
read when the object using them is made, so a test patches them before
``serve()`` and forked workers inherit the patch: the store keeps
:class:`~repro.streaming.versioning.VersionedStore`'s default four views,
the respawn breaker opens at ``faults.RESPAWN_LIMIT`` crashes inside
``faults.RESPAWN_WINDOW_S`` seconds, tcp readers back off by
``faults.BACKOFF_*`` and give each op ``net.OP_TIMEOUT`` seconds.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import multiprocessing as mp
import os
import time
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigError, QueryError
from repro.serving.transport import (
    PlaneReader,
    PlaneTransport,
    StaleStamp,
    make_transport,
)

#: queries bundled per pool message — amortizes the pipe round-trip (p50
#: ~31µs for a small pickled message on a 2-vCPU Xeon VM) across enough
#: sub-millisecond searches to keep workers compute-bound.
#: Override per session with ``SGraph.serve(chunk=...)``.
DEFAULT_CHUNK = 32

#: a failed :class:`Response`'s payload when the request's stamp named a
#: segment the writer had already unlinked (resent, never answered older)
STALE_STAMP = "stale stamp"


class Response(NamedTuple):
    """One answered (or failed) request.  A failure's payload is
    :data:`STALE_STAMP` or ``(error class, message)``: the class the
    caller raises, :class:`ConfigError` for a bad argument as on the
    facade, :class:`QueryError` for anything else."""

    req_id: int
    worker_id: int
    epoch: Optional[int]
    ok: bool
    payload: object


def _dispatch(engine, verb: str, payload):
    if verb == "distance":
        source, target, tolerance = payload
        return engine.best_cost(source, target, tolerance=tolerance)
    if verb == "distance_batch":
        return [engine.best_cost(s, t) for s, t in payload]
    if verb == "distance_many":
        source, targets = payload
        return engine.one_to_many(source, list(targets))
    if verb in ("nearest", "within"):
        source, arg = payload
        if verb == "nearest":
            return engine.expand(source, arg, None)
        return engine.expand(source, None, arg)
    raise QueryError(f"unknown verb {verb!r}")


def _worker_main(worker_id: int, spec, conn, writer_ends,
                 policy_value: str) -> None:
    """One reader process: answer requests from ``conn`` until it closes.

    ``conn`` is this worker's end of a *private* duplex pipe: one reader
    and one writer per end per incarnation, so no cross-process lock
    guards it and a sibling's SIGKILL cannot strand it.  The writer sends
    a request only when this worker's previous answer has arrived, so
    neither side can block sending while the other is blocked sending a
    large payload back.  ``writer_ends`` are the writer's ends of every
    pool pipe this fork inherited (its own and its siblings'): closing
    them leaves the writer their only holder, so a writer that dies — even
    by SIGKILL — turns ``recv`` into ``EOFError`` and the worker exits
    instead of waiting forever.
    """
    for end in writer_ends:
        end.close()
    # Move everything inherited from the writer into the permanent
    # generation: each shm epoch handoff runs a full gc.collect() (see
    # ShmClient.acquire), which would otherwise walk the writer's whole
    # heap every time.  Respawns re-enter here, so they freeze too.
    gc.freeze()
    # A worker that loses the writer keeps answering from its held plane
    # (degraded), flagged stale in its reader_stats row.
    reader = PlaneReader(spec.connect(), policy_value)
    # The stamp of the last refresh that reached the writer's plane; None
    # until one has, and again after a degraded one, so the next request
    # refreshes (and a None stamp always refreshes).
    fresh_at = None
    try:
        while True:
            try:
                req = conn.recv()
            except (EOFError, OSError):
                break  # the writer is gone
            if req is None:
                break
            req_id, verb, payload, stamp = req
            try:
                if verb == "reader_stats":
                    resp = Response(req_id, worker_id, reader.epoch, True,
                                    reader.stats_row())
                else:
                    if stamp is None or stamp != fresh_at:
                        # A new stamp means the writer published: acquire
                        # at it without polling.  No stamp: poll first, as
                        # a standalone reader does.
                        fresh_at = None
                        reader.refresh(stamp)
                        if not reader.stale:
                            fresh_at = stamp
                    engine, epoch = reader.held()
                    resp = Response(req_id, worker_id, epoch, True,
                                    _dispatch(engine, verb, payload))
            except StaleStamp:
                resp = Response(req_id, worker_id, None, False, STALE_STAMP)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                error = (ConfigError if isinstance(exc, ConfigError)
                         else QueryError)
                resp = Response(req_id, worker_id, None, False,
                                (error, f"{type(exc).__name__}: {exc}"))
            finally:
                # Keep the reader the only holder of the plane between
                # requests, so its release can actually unmap.
                engine = None
            try:
                conn.send(resp)
            except OSError:
                break  # the writer is gone
    finally:
        reader.close()


class WorkerPool:
    """N reader processes, each behind one private duplex pipe.

    A worker has at most one request in flight: :meth:`submit` sends to
    the next *idle* alive worker round-robin, and a worker turns idle
    again when :meth:`gather` reads its answer.  Each request is stamped
    with the transport's :meth:`~PlaneTransport.stamp` — the plane to
    serve, or None when the worker must poll.

    Crashed workers can be :meth:`respawn`\\ ed — re-forked from the same
    spec onto whatever epoch is current, with a *fresh* pipe (a SIGKILL
    mid-``send`` can leave a partial pickle frame in the old one,
    desyncing any future reader of it).  A
    :class:`~repro.serving.faults.RespawnBreaker` bounds the respawn rate:
    once ``RESPAWN_LIMIT`` crashes land inside its window the pool degrades
    to the survivors until the storm ages out.
    """

    def __init__(self, ctx, workers: int, transport: PlaneTransport,
                 policy_value: str) -> None:
        from repro.serving.faults import RespawnBreaker

        self._ctx = ctx
        self._spec = transport.reader_spec()
        self._stamp = transport.stamp
        self._policy_value = policy_value
        self._breaker = RespawnBreaker()
        self._ids = itertools.count()
        self._last = workers - 1  # round-robin cursor: last worker sent to
        #: completed respawns over the pool's lifetime
        self.respawns = 0
        # per-worker fork count (process names, crash accounting)
        self._incarnations = [0] * workers
        # crashes already charged to the breaker: (worker, incarnation)
        self._charged: set = set()
        # per worker: the id of its one request in flight, or None (idle);
        # a respawn clears it, so the request reads as lost
        self._busy: List[Optional[int]] = [None] * workers
        # per worker: the writer's end of its pipe
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        for worker_id in range(workers):
            self._start(worker_id)

    def _start(self, worker_id: int) -> None:
        # One pipe per fork, made just before it: a sibling forked earlier
        # never inherits this worker's end, so its death reads as EOF.
        mine, theirs = self._ctx.Pipe()
        self._conns[worker_id] = mine
        suffix = (f"-r{self._incarnations[worker_id]}"
                  if self._incarnations[worker_id] else "")
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._spec, theirs,
                  [end for end in self._conns if end is not None],
                  self._policy_value),
            daemon=True,
            name=f"repro-serve-{worker_id}{suffix}",
        )
        proc.start()
        theirs.close()
        self._procs[worker_id] = proc
        self._busy[worker_id] = None

    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def breaker(self):
        """The respawn circuit breaker (stats and tests)."""
        return self._breaker

    def alive(self) -> List[int]:
        return [i for i, p in enumerate(self._procs) if p.is_alive()]

    def dead(self) -> List[int]:
        return [i for i, p in enumerate(self._procs) if not p.is_alive()]

    def idle(self) -> List[int]:
        """Alive workers with no request in flight."""
        return [i for i, p in enumerate(self._procs)
                if self._busy[i] is None and p.is_alive()]

    def in_flight(self) -> List[int]:
        """Ids of the requests alive workers are still answering."""
        return [rid for i, rid in enumerate(self._busy)
                if rid is not None and self._procs[i].is_alive()]

    def respawn(self) -> List[int]:
        """Re-fork dead workers onto the current epoch; returns their ids.

        Each crash is charged to the breaker exactly once; while the
        breaker is open dead workers stay dead (the pool serves from the
        survivors) and are picked up by a later call once the crash burst
        ages out of the window.
        """
        revived: List[int] = []
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            crash = (worker_id, self._incarnations[worker_id])
            if crash not in self._charged:
                self._charged.add(crash)
                self._breaker.record()
            if not self._breaker.allow():
                continue
            proc.join(timeout=1)
            proc.close()
            # The crash may have left a partial pickle frame in the old
            # pipe, and an answer still in it belongs to the dead
            # incarnation anyway (its request reads as lost).
            self._conns[worker_id].close()
            self._incarnations[worker_id] += 1
            self._start(worker_id)
            self.respawns += 1
            revived.append(worker_id)
        return revived

    def submit(self, verb: str, payload) -> int:
        """Send one request to the next idle alive worker; returns its id."""
        idle = self.idle()
        if not idle:
            raise QueryError("all serving workers are dead" if not self.alive()
                             else "every serving worker has a request in flight")
        count = len(self._procs)
        self._last = min(idle, key=lambda w: (w - self._last - 1) % count)
        return self.submit_to(self._last, verb, payload)

    def submit_to(self, worker_id: int, verb: str, payload) -> int:
        """Send one request to a *specific* idle worker; returns its id.

        For the per-worker probe verb (``reader_stats``) that the
        round-robin cursor cannot target.  The worker must be alive and
        idle.
        """
        if not self._procs[worker_id].is_alive():
            raise QueryError(f"serving worker {worker_id} is dead")
        if self._busy[worker_id] is not None:
            raise QueryError(
                f"serving worker {worker_id} has a request in flight"
            )
        req_id = next(self._ids)
        self._busy[worker_id] = req_id
        try:
            self._conns[worker_id].send(
                (req_id, verb, payload, self._stamp())
            )
        except OSError:
            pass  # died since the check: the request reads as lost
        return req_id

    def request_lost(self, req_id: int) -> bool:
        """Whether a request sent and not yet answered never will be:
        the worker it went to has died or been respawned since (a fresh
        incarnation never sees the old pipe)."""
        return req_id not in self.in_flight()

    def gather(self, req_ids: Sequence[int],
               timeout: Optional[float] = None) -> Dict[int, Response]:
        """Wait until some of ``req_ids`` answer; returns those answers.

        Keyed by request id; empty when the timeout passed, or no worker
        that could answer is alive, first — callers decide whether to
        resubmit (reads are idempotent) or raise.  Late answers to
        requests outside ``req_ids`` are read and dropped, freeing their
        workers.
        """
        wanted = set(req_ids)
        got: Dict[int, Response] = {}
        deadline = None if timeout is None else time.monotonic() + timeout
        while wanted and not got:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
            # Multiplex the pipes of alive workers with a request in
            # flight.  Dead workers are skipped on purpose: respawn
            # discards their pipe and their request reads as lost.
            busy = {self._conns[i]: i for i in range(len(self._procs))
                    if self._busy[i] is not None
                    and self._procs[i].is_alive()}
            if not busy:
                break
            for conn in _mp_wait(list(busy), timeout=remaining):
                worker_id = busy[conn]
                try:
                    # No other process holds the worker's end, so a
                    # worker killed mid-frame reads as EOF, not a hang.
                    resp = conn.recv()
                except (EOFError, OSError):
                    continue  # dying: the next round no longer sees it
                self._busy[worker_id] = None
                if resp.req_id in wanted:
                    wanted.discard(resp.req_id)
                    got[resp.req_id] = resp
        return got

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker (crash-injection hook for tests)."""
        proc = self._procs[worker_id]
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)

    def close(self, timeout: float = 5.0) -> None:
        for i, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._conns[i].send(None)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            conn.close()


class ServeSession:
    """Writer-side handle on a running multiprocess serving deployment.

    Owns the version store, the plane transport, and the worker pool.  Use
    as a context manager (or call :meth:`close`); an ``atexit`` hook
    backstops sessions the caller forgot, so no segment or socket outlives
    the writer process.
    """

    def __init__(self, sgraph, workers: int = 2, transport: str = "shm",
                 chunk: Optional[int] = None, delta: bool = False,
                 **transport_options) -> None:
        from repro.streaming.versioning import VersionedStore

        config = sgraph.config
        if "distance" not in config.queries:
            raise ConfigError(
                "serving needs the 'distance' family in SGraphConfig.queries"
            )
        if config.backend == "dict":
            raise ConfigError(
                "serving shares the dense plane; backend='dict' publishes none"
            )
        # Checked before the transport exists: a tcp transport starts its
        # plane server thread and listening socket on construction.
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if chunk is None:
            chunk = DEFAULT_CHUNK
        if chunk < 1:
            raise ConfigError("chunk must be >= 1")
        if delta:
            if transport != "tcp":
                raise ConfigError(
                    "delta fetches need a byte-moving transport: "
                    "serve(delta=True) requires transport='tcp' "
                    "(shm readers already share the writer's bytes)"
                )
            transport_options["delta"] = True
        self._delta = bool(delta)
        self._sgraph = sgraph
        self._store = VersionedStore(sgraph)
        self._prefix = f"rp{os.getpid():x}-{os.urandom(3).hex()}-"
        self._chunk = chunk
        self._closed = False
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        self._transport = make_transport(
            transport, self._prefix, **transport_options
        )
        try:
            self._pool = WorkerPool(
                ctx, workers, self._transport,
                policy_value=config.policy.value,
            )
        except BaseException:
            self._transport.close()
            raise
        self._unsubscribe = self._store.subscribe(self._on_publish)
        atexit.register(self.close)
        self.publish()

    # -- introspection ------------------------------------------------------

    @property
    def prefix(self) -> str:
        """Name prefix of every resource this session creates."""
        return self._prefix

    @property
    def store(self):
        return self._store

    @property
    def transport(self) -> PlaneTransport:
        return self._transport

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def chunk(self) -> int:
        """Queries bundled per pool message in batched verbs."""
        return self._chunk

    @property
    def delta(self) -> bool:
        """Whether TCP readers fetch deltas (dirty 1 KiB ranges) per epoch."""
        return self._delta

    def stats_row(self) -> Dict[str, object]:
        """One observability row: transport, fan-out, the newest epoch,
        payload movement (delta vs full fetches, actual vs all-full bytes
        — the savings ratio is ``1 - bytes_sent / bytes_full``), and the
        pool's aggregated workspace reuse counters (a healthy steady state
        shows ``workspace_allocs`` frozen at the epoch-rebind count while
        ``workspace_resets`` tracks request throughput)."""
        registry = self._transport.registry
        row = {
            "transport": self._transport.kind,
            "endpoint": self._transport.describe(),
            "workers": self._pool.workers,
            "alive": len(self._pool.alive()),
            "chunk": self._chunk,
            "delta": self._delta,
            "epoch": registry.current_epoch(),
            "generation": registry.generation(),
            "delta_fetches": 0,
            "full_fetches": 0,
            "bytes_sent": 0,
            "bytes_full": 0,
            "workspace_allocs": 0,
            "workspace_hits": 0,
            "workspace_resets": 0,
            "touched_reset": 0,
            "respawns": self._pool.respawns,
            "breaker_open": self._pool.breaker.open,
            "breaker_trips": self._pool.breaker.trips,
            "retries": 0,
            "reconnects": 0,
            "peer_closed": 0,
            "corrupt_frames": 0,
            "deadline_exceeded": 0,
            "stale_serves": 0,
        }
        row.update(self._transport.transfer_stats())
        for reader_row in self.reader_stats():
            for key in ("retries", "reconnects", "peer_closed",
                        "corrupt_frames", "deadline_exceeded", "stale_serves",
                        "workspace_allocs", "workspace_hits",
                        "workspace_resets", "touched_reset"):
                row[key] += reader_row.get(key, 0)
        return row

    def reader_stats(self, timeout: float = 5.0) -> List[Dict[str, object]]:
        """One :meth:`PlaneReader.stats_row` per alive worker, plus its id.

        Each row carries the reader client's fault accounting (retries,
        reconnects, frames rejected, fetches and bytes; tcp only),
        the ``stale``/``stale_serves`` degradation markers, the served
        ``epoch``, and the search-workspace reuse counters — the
        observable form of the zero-O(V)-allocations-per-request
        guarantee: ``workspace_allocs`` only moves when an epoch rebind
        changes the vertex count.  Workers that cannot answer are skipped.
        """
        # A worker still answering a request an earlier failed call
        # abandoned cannot take the probe until that answer is read.
        deadline = time.monotonic() + timeout
        while self._pool.in_flight() and time.monotonic() < deadline:
            self._pool.gather(self._pool.in_flight(),
                              timeout=deadline - time.monotonic())
        rows: List[Dict[str, object]] = []
        for worker_id in self._pool.alive():
            try:
                req_id = self._pool.submit_to(worker_id, "reader_stats", None)
            except QueryError:
                continue
            resp = self._pool.gather([req_id], timeout=timeout).get(req_id)
            if resp is not None and resp.ok:
                rows.append(dict(resp.payload, worker=worker_id))
        return rows

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- publishing ---------------------------------------------------------

    def publish(self, label: Optional[str] = None):
        """Publish the facade's current epoch and hand it to the readers.

        Delegates to :meth:`VersionedStore.publish`; the store's publish
        hook encodes the new plane through the transport (same-epoch
        republish is a no-op end to end).
        """
        return self._store.publish(label)

    def _on_publish(self, view) -> None:
        if self._closed:
            return
        self._transport.publish_plane(view.dense_plane("distance"), view.epoch)

    # -- queries ------------------------------------------------------------

    def _pump(self, verb: str, payloads: Sequence,
              timeout: Optional[float] = None) -> List[Response]:
        """Fan one request per payload across the pool until all answer.

        Payloads wait in a backlog and go, one at a time, to idle workers:
        a worker gets its next payload only once its answer has arrived.
        This is also the resubmission loop that makes pool queries survive
        worker crashes: a request lost to a dead worker goes back on the
        backlog — after respawning the worker — as many times as it takes,
        until every payload is answered, the deadline passes, or no worker
        is left alive.  A :data:`STALE_STAMP` answer goes back on the
        backlog too, to be sent with a fresh stamp.  Pure reads are
        idempotent, so a lost slice re-runs with no visible effect beyond
        latency.
        """
        if self._pool.dead():
            self.reap()
        deadline = None if timeout is None else time.monotonic() + timeout
        answered: Dict[int, Response] = {}
        backlog = deque(range(len(payloads)))
        req_for: Dict[int, int] = {}  # in-flight req_id -> payload index
        while len(answered) < len(payloads):
            while backlog and self._pool.idle():
                idx = backlog.popleft()
                req_for[self._pool.submit(verb, payloads[idx])] = idx
            # With nothing of ours in flight, wait out requests an earlier
            # failed call abandoned: they hold the workers we need.
            wave = self._pool.gather(list(req_for) or self._pool.in_flight(),
                                     timeout=0.25)
            for rid, resp in wave.items():
                idx = req_for.pop(rid, None)
                if idx is None:
                    continue  # an abandoned request's late answer
                if not resp.ok and resp.payload == STALE_STAMP:
                    backlog.appendleft(idx)
                    continue
                if not resp.ok:
                    error, message = resp.payload
                    raise error(f"worker {resp.worker_id} failed: {message}")
                answered[idx] = resp
            if wave:
                continue
            lost = [rid for rid in req_for if self._pool.request_lost(rid)]
            if lost or not self._pool.alive():
                self.reap()
                for rid in lost:
                    backlog.appendleft(req_for.pop(rid))
                if not self._pool.alive():
                    raise QueryError(
                        "all serving workers are dead and respawn could not "
                        "revive any"
                    )
                continue
            if deadline is not None and time.monotonic() >= deadline:
                raise QueryError(
                    f"serving request timed out after {timeout}s with "
                    f"{len(payloads) - len(answered)} unanswered "
                    f"(alive workers: {len(self._pool.alive())})"
                )
        return [answered[i] for i in range(len(payloads))]

    def _one(self, verb: str, payload,
             timeout: Optional[float] = None) -> Response:
        return self._pump(verb, [payload], timeout)[0]

    def distance(self, source: int, target: int, tolerance: float = 0.0,
                 timeout: Optional[float] = None) -> Tuple[float, object, int]:
        """One pairwise distance; returns ``(value, stats, epoch)``."""
        resp = self._one("distance", (source, target, tolerance), timeout)
        value, stats = resp.payload
        return value, stats, resp.epoch

    def distance_many(self, source: int, targets: Sequence[int],
                      timeout: Optional[float] = None):
        """One-to-many distances; returns ``(values, stats, epoch)``.

        Targets are de-duplicated in order first, so the answer does not
        depend on the session chunk.  On a plane whose sums are exact
        (:attr:`DensePlane.exact_sums`) the batch is one request: one
        frontier pass answers every target, cheaper than one pass per
        slice.  Otherwise target lists longer than the session chunk are
        split across the pool: each worker answers one slice and
        the partial results merge — values union disjointly, counters
        sum (:meth:`QueryStats.merge`), ``answered_by_index`` only when
        every slice was.  Slices lost to crashed workers are reaped,
        respawned, and resubmitted until the batch completes or every
        worker is dead.  All partials must come from one epoch; a publish
        racing the fan-out is retried once on the new epoch.
        """
        targets = list(dict.fromkeys(targets))
        if (len(targets) <= self._chunk or self._pool.workers == 1
                or self._store.latest().dense_plane("distance").exact_sums):
            resp = self._one("distance_many", (source, targets), timeout)
            values, stats = resp.payload
            return values, stats, resp.epoch
        for _attempt in (0, 1):
            merged = self._distance_many_fanout(source, targets, timeout)
            if merged is not None:
                return merged
        raise QueryError(
            "distance_many partials kept landing on different epochs "
            "(a publish raced every retry)"
        )

    def _distance_many_fanout(self, source, targets, timeout):
        # One request per slice; _pump replays slices lost to worker
        # crashes until all answer.  The merge checks epoch agreement.
        chunk = self._chunk
        slices = [targets[i:i + chunk] for i in range(0, len(targets), chunk)]
        responses = self._pump(
            "distance_many", [(source, part) for part in slices], timeout,
        )
        epochs = {resp.epoch for resp in responses}
        if len(epochs) > 1:
            return None  # publish raced the fan-out; caller retries
        from repro.core.stats import QueryStats

        values: Dict[int, float] = {}
        stats = QueryStats(answered_by_index=True)
        for resp in responses:
            part_values, part_stats = resp.payload
            values.update(part_values)
            stats.merge(part_stats)
            stats.answered_by_index = (
                stats.answered_by_index and part_stats.answered_by_index
            )
        return values, stats, epochs.pop()

    def nearest(self, source: int, k: int,
                timeout: Optional[float] = None):
        """``(pairs, epoch)`` — the k nearest vertices at the served epoch."""
        resp = self._one("nearest", (source, k), timeout)
        return resp.payload, resp.epoch

    def within(self, source: int, radius: float,
               timeout: Optional[float] = None):
        """``(pairs, epoch)`` — vertices within ``radius`` at the epoch."""
        resp = self._one("within", (source, radius), timeout)
        return resp.payload, resp.epoch

    def map_distance(self, pairs: Sequence[Tuple[int, int]],
                     timeout: Optional[float] = None) -> List[tuple]:
        """Fan a batch of ``(s, t)`` pairs across the pool in session
        chunks.

        Returns one ``(value, stats, epoch)`` per input pair, in input
        order.  Chunks lost to crashed workers are reaped, respawned, and
        resubmitted until the batch completes (pure reads are
        idempotent); a batch nobody is left to answer raises.
        """
        chunk = self._chunk
        chunks = [list(pairs[i:i + chunk])
                  for i in range(0, len(pairs), chunk)]
        responses = self._pump("distance_batch", chunks, timeout)
        out: List[tuple] = []
        for resp in responses:
            out.extend(
                (value, stats, resp.epoch) for value, stats in resp.payload
            )
        return out

    # -- lifecycle ----------------------------------------------------------

    def reap(self) -> List[int]:
        """Respawn dead workers; returns their ids.  No transport holds
        anything on a reader's behalf, so there is nothing else to return.

        Respawned workers re-fork from the same reader spec, connect, and
        acquire whatever epoch is current (rebinding a fresh
        :class:`~repro.core.workspace.SearchWorkspace`).  The pool's
        circuit breaker keeps a crash loop from fork-bombing the writer:
        past its failure budget the dead stay dead and the session serves
        from the survivors.
        """
        dead = self._pool.dead()
        if dead:
            self._pool.respawn()
        return dead

    def close(self) -> None:
        """Stop the pool and tear down every transport resource."""
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        self._pool.close()
        self._transport.close()
        atexit.unregister(self.close)
