"""Deterministic fault injection for the TCP serving plane.

The serving stack's fault-tolerance story (reconnect/backoff in
:class:`~repro.serving.net.NetClient`, worker respawn in
:class:`~repro.serving.pool.WorkerPool`, graceful degradation in
:class:`~repro.serving.net.NetReader`) is only as trustworthy as the
faults it was tested against.  This module is that test substrate:

* :class:`FaultPolicy` — a seeded, *scripted* schedule of faults.  Each
  proxied connection consumes at most one plan; once the schedule is
  exhausted every later connection passes bytes through untouched, so a
  bounded retry budget is guaranteed to converge.  The policy records
  which faults actually fired (:attr:`FaultPolicy.injected`) so tests can
  assert client retry counters against the schedule exactly.
* :class:`FaultProxy` — an in-process TCP proxy interposed between a
  :class:`~repro.serving.net.NetClient` and its
  :class:`~repro.serving.net.PlaneServer`.  Faults are applied to the
  server→client byte stream (where payload frames travel): connection
  drops, mid-frame truncation, single-byte corruption, and latency
  spikes.
* :class:`Backoff` — exponential backoff with bounded jitter over an
  injectable RNG, shared by the client reconnect path.
* :class:`RespawnBreaker` — a failures-in-window circuit breaker over an
  injectable clock, guarding :class:`~repro.serving.pool.WorkerPool`
  respawn so a crash-looping worker cannot fork-bomb the writer.

Nothing here touches wall-clock state non-deterministically: the seed
fixes every fault offset, and clocks/sleeps are injectable wherever a
test wants to script time.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError

#: fault kinds a policy can schedule, in round-robin interleave order
FAULT_KINDS = ("drop", "truncate", "corrupt", "delay")


class FaultSpec(NamedTuple):
    """One scripted fault: what fires, and after how many forwarded bytes.

    ``at_bytes`` counts server→client bytes already forwarded on the
    connection when the fault triggers; ``delay_s`` only matters for
    ``kind="delay"``.
    """

    kind: str
    at_bytes: int
    delay_s: float = 0.0


class FaultPolicy:
    """A seeded, finite schedule of faults consumed one per connection.

    Build either from per-kind counts (interleaved round-robin so a retry
    storm sees a *mix* of failure modes, the adversarial case for a
    retry classifier) or from an explicit ``schedule`` of kind names.
    The byte offsets are drawn once, at construction, from
    ``random.Random(seed)`` — two policies with the same arguments inject
    byte-identical fault streams.
    """

    def __init__(self, seed: int = 0, drops: int = 0, truncations: int = 0,
                 corruptions: int = 0, delays: int = 0,
                 delay_s: float = 0.25,
                 window: Tuple[int, int] = (64, 2048),
                 schedule: Optional[List[str]] = None) -> None:
        if window[0] < 1 or window[1] <= window[0]:
            raise ConfigError("fault window must satisfy 1 <= lo < hi")
        if schedule is None:
            counts = {"drop": drops, "truncate": truncations,
                      "corrupt": corruptions, "delay": delays}
            schedule = []
            while any(counts.values()):
                for kind in FAULT_KINDS:
                    if counts[kind] > 0:
                        counts[kind] -= 1
                        schedule.append(kind)
        for kind in schedule:
            if kind not in FAULT_KINDS:
                raise ConfigError(
                    f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
                )
        rng = random.Random(seed)
        self._plans = [
            FaultSpec(kind, rng.randrange(*window),
                      delay_s if kind == "delay" else 0.0)
            for kind in schedule
        ]
        self._next = 0
        self._lock = threading.Lock()
        #: faults that actually fired, by kind (a plan whose connection
        #: carried fewer than ``at_bytes`` bytes never fires)
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    @property
    def plans(self) -> List[FaultSpec]:
        """The full scripted schedule (read-only introspection)."""
        return list(self._plans)

    def scheduled(self) -> Dict[str, int]:
        """Planned fault counts by kind (compare against ``injected``)."""
        out = {kind: 0 for kind in FAULT_KINDS}
        for plan in self._plans:
            out[plan.kind] += 1
        return out

    def disruptions(self) -> int:
        """Faults fired that kill the in-flight op (everything but delay)."""
        return sum(n for kind, n in self.injected.items() if kind != "delay")

    def plan_for_connection(self) -> Optional[FaultSpec]:
        """Consume the next plan; None once the schedule is exhausted."""
        with self._lock:
            if self._next >= len(self._plans):
                return None
            plan = self._plans[self._next]
            self._next += 1
            return plan

    def record(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] += 1


class FaultProxy:
    """In-process TCP proxy applying one :class:`FaultPolicy` plan per
    accepted connection.

    Point a reader at :attr:`address` instead of the real server; each
    connection is paired with a fresh upstream connection and two pump
    threads.  Downstream (server→client) bytes pass through the
    connection's fault plan; upstream bytes are forwarded verbatim.
    Closing either side closes both, so the server's disconnect-reap
    path sees exactly what a real network fault produces.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 policy: Optional[FaultPolicy] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._upstream = (upstream_host, upstream_port)
        self._policy = policy
        self._closed = False
        self._lock = threading.Lock()
        self._pairs: List[Tuple[socket.socket, socket.socket]] = []
        self.connections = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-fault-proxy", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        """``host:port`` readers connect to instead of the real server."""
        return f"{self.host}:{self.port}"

    @property
    def policy(self) -> Optional[FaultPolicy]:
        return self._policy

    def stats(self) -> Dict[str, object]:
        """Connections proxied and faults actually injected, by kind."""
        injected = (dict(self._policy.injected) if self._policy
                    else {kind: 0 for kind in FAULT_KINDS})
        return {"connections": self.connections, "injected": injected}

    def close(self) -> None:
        self._closed = True
        # shutdown() wakes the accept thread; close() alone would leave
        # it blocked with the kernel still completing handshakes.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for pair in pairs:
            _close_pair(pair)

    def __enter__(self) -> "FaultProxy":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client_conn, _addr = self._listener.accept()
            except OSError:
                return
            if self._closed:
                client_conn.close()
                return
            try:
                server_conn = socket.create_connection(self._upstream,
                                                       timeout=5.0)
                server_conn.settimeout(None)
            except OSError:
                client_conn.close()
                continue
            for conn in (client_conn, server_conn):
                try:
                    conn.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                except OSError:  # pragma: no cover
                    pass
            with self._lock:
                self.connections += 1
                self._pairs.append((client_conn, server_conn))
            plan = (self._policy.plan_for_connection()
                    if self._policy else None)
            pair = (client_conn, server_conn)
            threading.Thread(
                target=self._pump_down, args=(server_conn, client_conn,
                                              plan, pair),
                name="repro-fault-down", daemon=True,
            ).start()
            threading.Thread(
                target=self._pump_up, args=(client_conn, server_conn, pair),
                name="repro-fault-up", daemon=True,
            ).start()

    def _pump_up(self, src: socket.socket, dst: socket.socket,
                 pair) -> None:
        # client→server: verbatim copy (faults target the payload-bearing
        # downstream direction; a dropped downstream closes both anyway).
        try:
            while True:
                data = src.recv(1 << 16)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            _close_pair(pair)

    def _pump_down(self, src: socket.socket, dst: socket.socket,
                   plan: Optional[FaultSpec], pair) -> None:
        forwarded = 0
        fired = False
        try:
            while True:
                data = src.recv(1 << 16)
                if not data:
                    break
                if plan is not None and not fired \
                        and forwarded + len(data) > plan.at_bytes:
                    fired = True
                    idx = plan.at_bytes - forwarded
                    self._policy.record(plan.kind)
                    if plan.kind == "drop":
                        # sever without forwarding this chunk at all
                        return
                    if plan.kind == "truncate":
                        # forward a prefix, then sever mid-frame
                        if idx:
                            dst.sendall(data[:idx])
                        return
                    if plan.kind == "corrupt":
                        mutated = bytearray(data)
                        mutated[idx] ^= 0xFF
                        data = bytes(mutated)
                    elif plan.kind == "delay":
                        time.sleep(plan.delay_s)
                forwarded += len(data)
                dst.sendall(data)
        except OSError:
            pass
        finally:
            _close_pair(pair)


def _close_pair(pair) -> None:
    # shutdown() before close(): the peer pump thread may be blocked in
    # recv() on the other socket, and close() alone neither wakes it nor
    # sends FIN — the connection would linger ESTABLISHED and the proxied
    # client would wait out its full op deadline instead of seeing EOF.
    for conn in pair:
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# Retry/respawn primitives (shared by net.py and pool.py)
# ---------------------------------------------------------------------------


#: the first reconnect delay in seconds, the growth per attempt, and the
#: jitter band; read when a :class:`Backoff` is made
BACKOFF_INITIAL = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.2

#: crashes inside the trailing window (seconds) that open a
#: :class:`RespawnBreaker`; read when one is made
RESPAWN_LIMIT = 5
RESPAWN_WINDOW_S = 30.0


class Backoff:
    """Exponential backoff with bounded jitter over an injectable RNG.

    ``delay(attempt)`` for attempt 0, 1, 2, … returns
    ``min(maximum, BACKOFF_INITIAL * BACKOFF_FACTOR**attempt)`` scaled by a
    jitter factor uniform in ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]``.
    A ``maximum`` below the initial delay is a flat delay.  Jitter
    decorrelates a fleet of readers reconnecting to one restarted server
    (the thundering-herd case); determinism comes from seeding ``rng``.
    """

    def __init__(self, maximum: float,
                 rng: Optional[random.Random] = None) -> None:
        self.initial = BACKOFF_INITIAL
        self.maximum = maximum
        self.factor = BACKOFF_FACTOR
        self.jitter = BACKOFF_JITTER
        self._rng = rng if rng is not None else random.Random()

    def delay(self, attempt: int) -> float:
        base = min(self.maximum, self.initial * (self.factor ** attempt))
        if not self.jitter:
            return base
        return base * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))


class RespawnBreaker:
    """Failures-in-window circuit breaker guarding worker respawn.

    Each observed failure is :meth:`record`\\ ed; :meth:`allow` answers
    whether another respawn may proceed — False once :data:`RESPAWN_LIMIT`
    failures have landed inside the trailing :data:`RESPAWN_WINDOW_S`
    seconds.  The breaker re-closes by itself when failures age out of the
    window, so a burst of crashes degrades the pool only until the storm
    passes.  The clock is injectable for deterministic tests.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self.max_failures = RESPAWN_LIMIT
        self.window_s = RESPAWN_WINDOW_S
        self._clock = clock
        self._events: List[float] = []
        self._lock = threading.Lock()
        self.trips = 0

    def _prune(self) -> None:
        cutoff = self._clock() - self.window_s
        while self._events and self._events[0] <= cutoff:
            self._events.pop(0)

    def allow(self) -> bool:
        with self._lock:
            self._prune()
            allowed = len(self._events) < self.max_failures
            if not allowed:
                self.trips += 1
            return allowed

    def record(self) -> None:
        with self._lock:
            self._prune()
            self._events.append(self._clock())

    @property
    def open(self) -> bool:
        """Whether the breaker is currently refusing respawns."""
        with self._lock:
            self._prune()
            return len(self._events) >= self.max_failures

    def failures_in_window(self) -> int:
        with self._lock:
            self._prune()
            return len(self._events)
