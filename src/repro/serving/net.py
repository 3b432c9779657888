"""TCP plane transport: fetch-on-publish serving across host boundaries.

The shm transport needs readers on the writer's box.  This module serves
published epochs over a small length-prefixed TCP wire so reader fleets
anywhere can answer queries on them:

* the writer owns a :class:`PlaneServer` — a background accept thread plus
  one thread per reader connection — holding the last ``cache_planes``
  published planes, each encoded once by :mod:`repro.serving.codec` and
  keyed by its SHA-256 digest.  The newest of them is the current epoch;
  a process-private :class:`~repro.serving.registry.EpochRegistry`
  records only its generation and epoch;
* readers poll the generation and, when it moved, send one ``acquire``
  naming the digests already in their bounded local cache.  The server
  answers ``cached`` when the current digest is among them, and otherwise
  appends the plane: the reader verifies the digest and decodes it into a
  private :class:`~repro.core.hub_index.DensePlane` (fetch-on-publish:
  the bytes cross the socket once per reader per epoch, never per query);
* a **delta-enabled** reader's newest cached digest is a diff base: when
  the server still holds that plane it compares the two payloads it
  holds (:func:`~repro.serving.codec.encode_plane_delta`) and ships only
  the churned chunks — O(Δ) bytes per epoch instead of O(|plane|).  The
  reader composes the delta onto a *copy* of its cached payload and
  verifies the composed digest before swap-in; a base the server no
  longer holds gets the full frame, and a delta that does not compose is
  asked for again in full, so delta mode is never less correct than full
  mode;
* queries then run entirely locally on the cached plane — the same
  ``_search_dense`` hot path, bit-identical to shm workers.  A reader
  copies every plane it serves, so the server pins nothing for it: no
  number of idle or dead readers can hold a plane or fail a publish.

Wire format: every message is an 8-byte big-endian length followed by a
JSON body; an ``acquire`` response whose ``mode`` is "full" or "delta" is
followed by one raw frame carrying the encoded plane or the delta frame.
Ops: ``hello``, ``poll``, ``acquire`` (``have``: cached digests, newest
last; ``delta``: whether a delta is welcome), ``stats``.  A request that
does not parse as a JSON object (or an ``acquire`` whose ``have`` is not
a list of digest strings) is answered ``malformed request`` and its
connection closed.
"""

from __future__ import annotations

import json
import os
import random
import socket
import struct
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigError,
    CorruptFrameError,
    DeadlineExceededError,
    PeerClosedError,
    QueryError,
)
from repro.serving.faults import Backoff
from repro.serving.codec import (
    apply_plane_delta,
    decode_plane,
    delta_header,
    encode_plane,
    encode_plane_delta,
    materialize_plane,
    plane_digest,
)
from repro.serving.registry import EpochRegistry
from repro.serving.transport import (
    PlaneClient,
    PlaneLease,
    PlaneReader,
    PlaneTransport,
    ReaderSpec,
)

_LEN = struct.Struct(">Q")

#: planes a reader keeps decoded locally; re-acquiring a cached digest
#: costs one control round-trip and zero payload bytes.
DEFAULT_CACHE_PLANES = 4

#: reconnect attempts per op before the client gives up (the op's
#: deadline can cut retries shorter; see DEFAULT_OP_TIMEOUT)
DEFAULT_RETRY = 4

#: initial / maximum reconnect backoff in seconds (exponential, jittered)
DEFAULT_BACKOFF = 0.05
DEFAULT_MAX_BACKOFF = 2.0

#: per-op deadline in seconds: no client op — including every reconnect
#: attempt and backoff sleep inside it — may run longer than this
DEFAULT_OP_TIMEOUT = 30.0

#: seconds ``PlaneServer.close`` waits for each of its threads to exit once
#: their sockets are shut down (they normally exit at once)
CLOSE_JOIN_TIMEOUT = 5.0

#: a frame length beyond this is treated as stream corruption rather
#: than waited out (a flipped bit in a length prefix reads as exabytes)
_MAX_FRAME = 1 << 34

#: the server's cap on a request body: requests are small JSON (the
#: largest, ``acquire``, names a reader's few cached digests), so a longer
#: length prefix is a corrupt stream, not a request to buffer
_MAX_REQUEST = 1 << 20


def net_available() -> bool:
    """Whether loopback TCP sockets actually work in this environment."""
    try:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            probe = socket.create_connection(
                listener.getsockname(), timeout=1.0
            )
            probe.close()
        finally:
            listener.close()
    except OSError:
        return False
    return True


# -- framing ----------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _send_msg(sock: socket.socket, obj: dict) -> None:
    _send_frame(sock, json.dumps(obj, separators=(",", ":")).encode("ascii"))


class _MalformedRequest(Exception):
    """A request the server cannot parse; it ends the connection."""


def _recv_msg(sock: socket.socket) -> Optional[dict]:
    """One JSON-object message; None at EOF.  Raises
    :class:`_MalformedRequest` for a body over :data:`_MAX_REQUEST` bytes
    or one that is not an ASCII JSON object."""
    head = _recv_exact(sock, _LEN.size)
    if head is None:
        return None
    (nbytes,) = _LEN.unpack(head)
    if nbytes > _MAX_REQUEST:
        raise _MalformedRequest
    frame = _recv_exact(sock, nbytes)
    if frame is None:
        return None
    try:
        msg = json.loads(frame.decode("ascii"))
    except (ValueError, RecursionError):  # undecodable bytes or JSON
        raise _MalformedRequest from None
    if not isinstance(msg, dict):
        raise _MalformedRequest
    return msg


# -- writer side ------------------------------------------------------------


class PlaneServer:
    """Writer-owned TCP endpoint: publish history + one-op plane handoff.

    One thread accepts connections; each connection gets a thread that
    drains its ops.  The history, the delta cache and the counters are
    mutated under the registry's RLock, so an ``acquire`` reads the
    current plane and its payload as one consistent pair.  Nothing is
    held on a reader's behalf between ops.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_planes: int = DEFAULT_CACHE_PLANES) -> None:
        if cache_planes < 1:
            raise ConfigError("cache_planes must be >= 1")
        # Fresh per process start: readers compare it across reconnects to
        # tell "same server, new generation" from "restarted server whose
        # generation counter may collide with the one I cached".
        self.server_id = f"{os.getpid():x}-{os.urandom(4).hex()}"
        # The generation and current-epoch record.  No reader acquires on
        # it, so each register evicts the slot it retires at once.
        self._registry = EpochRegistry()
        # digest -> payload for the last cache_planes published planes,
        # newest (the current plane) last: what acquire serves and what
        # deltas are diffed against.
        self._cache_planes = cache_planes
        self._history: "OrderedDict[str, bytes]" = OrderedDict()
        # (base digest, target digest) -> delta frame, shared by every
        # reader diffing the same pair; pruned with the history.
        self._deltas: Dict[Tuple[str, str], bytes] = {}
        # delta/full fetch counters and actual-vs-hypothetical byte totals
        self._transfer: Dict[str, int] = {
            "delta_fetches": 0, "full_fetches": 0,
            "bytes_sent": 0, "bytes_full": 0,
        }
        # reader -> digest -> fetch count (the fetched-exactly-once audit)
        self._fetches: Dict[str, Dict[str, int]] = {}
        # connection-lifecycle counters, reported through the stats op
        self._lifecycle: Dict[str, int] = {"drains": 0}
        # ops between recv and response; drain waits for this to hit zero
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._conns: List[socket.socket] = []
        # each connection's thread; close() joins them with the acceptor
        self._conn_threads: List[threading.Thread] = []
        # conn -> reader id, set by the hello op (each conn's own thread
        # is the only writer of its entry)
        self._conn_readers: Dict[socket.socket, str] = {}
        self._next_reader = 0
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-plane-server", daemon=True
        )
        self._accept_thread.start()

    # -- writer API ---------------------------------------------------------

    @property
    def registry(self) -> EpochRegistry:
        return self._registry

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._closed

    def publish(self, payload: bytes, epoch: int) -> str:
        """Make one encoded plane the newest epoch; returns its digest."""
        digest = plane_digest(payload)
        with self._registry.lock:
            self._registry.register(digest, epoch)
            self._history[digest] = payload
            self._history.move_to_end(digest)
            while len(self._history) > self._cache_planes:
                evicted, _ = self._history.popitem(last=False)
                self._deltas = {
                    key: frame for key, frame in self._deltas.items()
                    if evicted not in key
                }
        return digest

    def fetch_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-reader, per-digest fetch counts (each should be exactly 1)."""
        with self._registry.lock:
            return {r: dict(d) for r, d in self._fetches.items()}

    def stats(self) -> dict:
        """Slots, per-reader fetch totals, and the ``transfer`` (delta/full
        fetches, byte totals), ``lifecycle`` (drains) and ``cache``
        (publish-history depth and occupancy) counters — the ``stats``
        op's body, as one snapshot."""
        with self._registry.lock:
            return {
                "server_id": self.server_id,
                "generation": self._registry.generation(),
                "slots": self._registry.slots(),
                "fetches": {
                    r: sum(d.values()) for r, d in self._fetches.items()
                },
                "cache": {
                    "cache_planes": self._cache_planes,
                    "cached": len(self._history),
                },
                "transfer": dict(self._transfer),
                "lifecycle": dict(self._lifecycle),
            }

    def close(self, drain: bool = True,
              drain_timeout: float = 5.0) -> int:
        """Stop serving; returns the final generation.

        With ``drain`` (the default) the listener closes first — no new
        connections — then in-flight ops are given ``drain_timeout``
        seconds to finish before connections are severed, so a reader
        mid-acquire gets its last frame instead of a mid-payload EOF.
        """
        self._closed = True
        # shutdown() before close(): close() alone does not wake a thread
        # already blocked in accept(), and the kernel would keep the
        # listening socket accepting on its behalf.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if drain:
            deadline = time.monotonic() + drain_timeout
            with self._inflight_cv:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cv.wait(remaining)
            with self._registry.lock:
                self._lifecycle["drains"] += 1
        for conn in list(self._conns):
            # shutdown() wakes the connection's own thread out of a
            # blocked recv and sends FIN; close() alone does neither.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        # No server thread outlives close(): a connection thread still
        # running keeps this server reachable, so a collection made right
        # after close() would miss it and its payload history would live
        # on until some later full collection.
        # The acceptor first: once it is gone no connection thread is added.
        me = threading.current_thread()
        if self._accept_thread is not me:
            self._accept_thread.join(CLOSE_JOIN_TIMEOUT)
        for thread in list(self._conn_threads):
            if thread is not me:
                thread.join(CLOSE_JOIN_TIMEOUT)
        generation = self._registry.generation()
        self._registry.shutdown()
        # A closed server holds no plane bytes at all.
        with self._registry.lock:
            self._history.clear()
            self._deltas.clear()
        return generation

    # -- internals ----------------------------------------------------------

    def _acquire(self, reader, have: Sequence[str],
                 delta: bool) -> Tuple[dict, Optional[bytes]]:
        """The ``acquire`` reply and the frame that follows it (None when
        the reader already caches the current plane)."""
        with self._registry.lock:
            if not self._history:
                return {"ok": True, "empty": True}, None
            digest, payload = next(reversed(self._history.items()))
            resp = {
                "ok": True, "generation": self._registry.generation(),
                "epoch": self._registry.current_epoch(), "digest": digest,
                "full_nbytes": len(payload),
            }
            if digest in have:
                return {**resp, "mode": "cached", "nbytes": 0}, None
            # Diff against the reader's newest plane when it asked for a
            # delta and that plane is still in the history; otherwise (no
            # base, base evicted or unknown) ship the full frame.
            base = have[-1] if delta and have else None
            if base in self._history:
                frame = self._deltas.get((base, digest))
                if frame is None:
                    frame = encode_plane_delta(
                        self._history[base], payload,
                        base_digest=base, target_digest=digest,
                    )
                    self._deltas[(base, digest)] = frame
                mode = "delta"
            else:
                frame, mode = payload, "full"
            # One audit entry per payload crossing — delta or full, a
            # digest still reaches each reader exactly once — plus the
            # actual-vs-hypothetical byte totals.
            counts = self._fetches.setdefault(str(reader), {})
            counts[digest] = counts.get(digest, 0) + 1
            self._transfer[f"{mode}_fetches"] += 1
            self._transfer["bytes_sent"] += len(frame)
            self._transfer["bytes_full"] += len(payload)
        return {**resp, "mode": mode, "nbytes": len(frame)}, frame

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            if self._closed:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                return
            try:
                # small response frames (delta frames, control messages)
                # must not sit out a Nagle/delayed-ACK round trip
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass
            self._conns.append(conn)
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-plane-conn", daemon=True,
            )
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ] + [thread]
            thread.start()

    def _enter_op(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _exit_op(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cv.notify_all()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                msg = _recv_msg(conn)
                if msg is None:
                    return
                self._enter_op()
                try:
                    self._handle_op(conn, msg)
                finally:
                    self._exit_op()
        except _MalformedRequest:
            # The stream can no longer be trusted to be framed: say why
            # once and drop the connection; the reader reconnects.
            try:
                _send_msg(conn, {"ok": False, "error": "malformed request"})
            except OSError:
                pass
        except OSError:
            return
        finally:
            self._conn_readers.pop(conn, None)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            try:
                self._conns.remove(conn)
            except ValueError:  # pragma: no cover
                pass

    def _handle_op(self, conn: socket.socket, msg: dict) -> None:
        op = msg.get("op")
        if op == "hello":
            reader = msg.get("reader")
            if reader is None:
                with self._registry.lock:
                    reader = f"r{self._next_reader}"
                    self._next_reader += 1
            self._conn_readers[conn] = reader
            _send_msg(conn, {
                "ok": True, "reader": reader,
                "generation": self._registry.generation(),
                "server_id": self.server_id,
            })
        elif op == "poll":
            _send_msg(conn, {
                "ok": True,
                "generation": self._registry.generation(),
            })
        elif op == "acquire":
            have = msg.get("have") or []
            if not (isinstance(have, list)
                    and all(isinstance(d, str) for d in have)):
                raise _MalformedRequest
            resp, frame = self._acquire(self._conn_readers.get(conn), have,
                                        bool(msg.get("delta")))
            _send_msg(conn, resp)
            if frame is not None:
                _send_frame(conn, frame)
        elif op == "stats":
            _send_msg(conn, {"ok": True, **self.stats()})
        else:
            _send_msg(conn, {"ok": False,
                             "error": f"unknown op {op!r}"})


class NetTransport(PlaneTransport):
    """Writer-side TCP transport: one :class:`PlaneServer`, planes encoded
    once per epoch and fetched once per reader."""

    kind = "tcp"

    def __init__(self, host: str = "127.0.0.1",
                 port: int = 0, cache_planes: int = DEFAULT_CACHE_PLANES,
                 delta: bool = False,
                 retry: int = DEFAULT_RETRY,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF,
                 op_timeout: float = DEFAULT_OP_TIMEOUT,
                 advertise: Optional[Tuple[str, int]] = None) -> None:
        if cache_planes < 1:
            raise ConfigError("cache_planes must be >= 1")
        if retry < 0:
            raise ConfigError("retry must be >= 0")
        self._server = PlaneServer(host=host, port=port,
                                   cache_planes=cache_planes)
        # When readers must dial something other than the bind address
        # (a fault proxy in tests, a NAT'd endpoint in deployment),
        # reader specs advertise that address instead.
        host, port = advertise or (self._server.host, self._server.port)
        self._spec = TcpReaderSpec(
            host, port, cache_planes, delta=bool(delta), retry=retry,
            backoff=backoff, max_backoff=max_backoff, op_timeout=op_timeout,
        )
        self._published: set = set()

    @property
    def registry(self) -> EpochRegistry:
        return self._server.registry

    @property
    def server(self) -> PlaneServer:
        return self._server

    @property
    def address(self) -> str:
        """``host:port`` remote readers pass to ``repro attach``."""
        return self._server.address

    def publish_plane(self, plane, epoch: int) -> bool:
        # A closed server serves nobody: encode and keep nothing for it.
        if self._server.closed or epoch in self._published:
            return False
        payload = encode_plane(plane, epoch=epoch)
        self._server.publish(payload, epoch)
        self._published.add(epoch)
        return True

    def reader_spec(self) -> "TcpReaderSpec":
        return self._spec

    def stamp(self) -> Optional[int]:
        # A closed server's registry no longer says what readers can reach.
        return None if self._server.closed else super().stamp()

    def transfer_stats(self) -> Dict[str, int]:
        """The server's transfer, lifecycle and cache counters, flattened
        into one row (see ``stats_row``)."""
        stats = self._server.stats()
        return {**stats["transfer"], **stats["lifecycle"], **stats["cache"]}

    def describe(self) -> str:
        mode = "delta" if self._spec.delta else "full"
        return f"tcp {self.address} ({mode} fetch)"

    def close(self) -> None:
        self._server.close()


# -- reader side ------------------------------------------------------------


class TcpReaderSpec(ReaderSpec):
    """Address + cache bound + delta/retry knobs; picklable across starts."""

    def __init__(self, host: str, port: int,
                 cache_planes: int = DEFAULT_CACHE_PLANES,
                 delta: bool = False,
                 retry: int = DEFAULT_RETRY,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF,
                 op_timeout: float = DEFAULT_OP_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.cache_planes = cache_planes
        self.delta = delta
        self.retry = retry
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.op_timeout = op_timeout

    def connect(self, reader_id) -> "NetClient":
        return NetClient(self.host, self.port, reader_id=reader_id,
                         cache_planes=self.cache_planes, delta=self.delta,
                         timeout=self.op_timeout, retry=self.retry,
                         backoff=self.backoff, max_backoff=self.max_backoff)


class NetClient(PlaneClient):
    """Reader endpoint over one persistent socket, with a plane cache.

    The cache is an LRU keyed by payload digest, bounded to
    ``cache_planes`` decoded planes (each kept alongside its raw payload
    bytes).  Every ``acquire`` names the cached digests, so re-acquiring
    a cached plane is one control round-trip (no payload), and each
    epoch's buffers cross the socket exactly once however many queries it
    serves.  A lease pins nothing server-side and releases nothing.

    With ``delta=True`` a cache miss is answered against the newest cached
    payload as the base: the server ships only the churned chunks, the
    client composes them onto a copy of its cached bytes, and the
    composed payload's digest is verified before the plane is decoded and
    swapped in.  A base the server no longer holds comes back as a full
    frame; a delta that does not compose is asked for again in full.

    **Fault tolerance.**  Every public op runs inside a retry loop: a
    transport fault (connection reset, peer EOF mid-frame, corrupt frame)
    tears the socket down and the whole op — hello included — is replayed
    against a fresh connection, up to ``retry`` reconnect attempts with
    exponential jittered backoff.  Each op carries a deadline of
    ``timeout`` seconds covering all its attempts and backoff sleeps; a
    blown deadline raises :class:`DeadlineExceededError` and is *not*
    retried.  The hello response carries the server's ``server_id``; when
    it changes across a reconnect the client bumps an internal revision
    that is folded into every generation token, so leases acquired from
    the previous incarnation compare unequal even if the restarted
    server's generation counter collides with the old one.
    """

    def __init__(self, host: str, port: int, reader_id=None,
                 cache_planes: int = DEFAULT_CACHE_PLANES,
                 delta: bool = False,
                 timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
                 retry: int = DEFAULT_RETRY,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None) -> None:
        if retry < 0:
            raise ConfigError("retry must be >= 0")
        if cache_planes < 1:
            raise ConfigError("cache_planes must be >= 1")
        self._host, self._port = host, port
        self._timeout = timeout
        self._retry = retry
        self._clock = clock
        self._sleep = sleep
        self._backoff = Backoff(initial=backoff, maximum=max_backoff,
                                rng=rng)
        self._sock: Optional[socket.socket] = None
        self._server_id: Optional[str] = None
        self._seen_hello = False
        # bumped when a reconnect lands on a different server incarnation;
        # folded into generation tokens so stale leases compare unequal
        self._rev = 0
        self.reader_id = reader_id
        # digest -> (materialized plane, raw payload bytes)
        self._cache: "OrderedDict[str, Tuple[object, bytes]]" = OrderedDict()
        self._cache_planes = cache_planes
        self._delta = bool(delta)
        #: client-side transfer accounting plus fault counters
        self.transfer: Dict[str, int] = {
            "delta_fetches": 0, "full_fetches": 0,
            "bytes_received": 0, "bytes_full": 0,
            "retries": 0, "reconnects": 0, "server_restarts": 0,
            "peer_closed": 0, "corrupt_frames": 0, "deadline_exceeded": 0,
        }
        deadline = self._deadline()
        try:
            self._connect(deadline)
        except (OSError, QueryError) as exc:
            raise ConfigError(
                f"cannot reach plane server at {host}:{port}: {exc}"
            ) from None

    # -- retry machinery ----------------------------------------------------

    def _deadline(self) -> Optional[float]:
        return None if self._timeout is None else self._clock() + self._timeout

    def _remaining(self, deadline: Optional[float], op: str) -> Optional[float]:
        if deadline is None:
            return None
        remaining = deadline - self._clock()
        if remaining <= 0:
            raise DeadlineExceededError(
                f"plane server op {op!r} exceeded its "
                f"{self._timeout}s deadline"
            )
        return remaining

    def _teardown(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _connect(self, deadline: Optional[float],
                 reconnect: bool = False) -> None:
        remaining = self._remaining(deadline, "hello")
        sock = socket.create_connection((self._host, self._port),
                                        timeout=remaining)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover
            pass
        self._sock = sock
        resp = self._call_once({"op": "hello", "reader": self.reader_id},
                               deadline)
        self.reader_id = resp["reader"]
        server_id = resp.get("server_id")
        if not self._seen_hello:
            self._seen_hello = True
            self._server_id = server_id
        elif server_id != self._server_id:
            # A different incarnation answered at the same address: its
            # registry (and delta-base history) started over.  Bump the
            # revision so every lease from the old incarnation reads
            # stale; cached payloads stay valid (they are digest-keyed).
            self._server_id = server_id
            self._rev += 1
            self.transfer["server_restarts"] += 1
        if reconnect:
            self.transfer["reconnects"] += 1

    def _retrying(self, op: str, fn: Callable[[Optional[float]], dict]):
        """Run ``fn(deadline)`` replaying the whole op across reconnects.

        Transient faults (reset, EOF, corrupt frame) tear the socket down
        and replay after a backoff; :class:`DeadlineExceededError` is
        terminal.  ``fn`` must be safe to replay from scratch.
        """
        deadline = self._deadline()
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._connect(deadline, reconnect=True)
                return fn(deadline)
            except DeadlineExceededError:
                self.transfer["deadline_exceeded"] += 1
                self._teardown()
                raise
            except (OSError, PeerClosedError, CorruptFrameError) as exc:
                self._teardown()
                if isinstance(exc, PeerClosedError):
                    self.transfer["peer_closed"] += 1
                elif isinstance(exc, CorruptFrameError):
                    self.transfer["corrupt_frames"] += 1
                attempt += 1
                if attempt > self._retry:
                    raise QueryError(
                        f"plane server op {op!r} failed after "
                        f"{attempt} attempts: {exc}"
                    ) from None
                self.transfer["retries"] += 1
                delay = self._backoff.delay(attempt - 1)
                if deadline is not None:
                    budget = deadline - self._clock()
                    if budget <= delay:
                        self.transfer["deadline_exceeded"] += 1
                        raise DeadlineExceededError(
                            f"plane server op {op!r}: deadline exhausted "
                            f"after {attempt} attempts ({exc})"
                        ) from None
                if delay > 0:
                    self._sleep(delay)

    # -- deadline-aware framing ---------------------------------------------

    def _settimeout(self, deadline: Optional[float], op: str) -> None:
        self._sock.settimeout(self._remaining(deadline, op))

    def _recv_exact_once(self, n: int, op: str, phase: str,
                         deadline: Optional[float]) -> bytes:
        chunks = []
        need = n
        while need:
            self._settimeout(deadline, op)
            try:
                chunk = self._sock.recv(min(need, 1 << 20))
            except socket.timeout:
                raise DeadlineExceededError(
                    f"plane server op {op!r} timed out mid-{phase} "
                    f"({n - need}/{n} bytes received)"
                ) from None
            if not chunk:
                raise PeerClosedError(
                    f"plane server closed the connection mid-{phase} "
                    f"during {op!r} ({n - need}/{n} bytes received)"
                )
            chunks.append(chunk)
            need -= len(chunk)
        return b"".join(chunks)

    def _call_once(self, msg: dict, deadline: Optional[float]) -> dict:
        op = msg.get("op")
        self._settimeout(deadline, op)
        body = json.dumps(msg, separators=(",", ":")).encode("ascii")
        try:
            self._sock.sendall(_LEN.pack(len(body)) + body)
        except socket.timeout:
            raise DeadlineExceededError(
                f"plane server op {op!r} timed out mid-send"
            ) from None
        head = self._recv_exact_once(_LEN.size, op, "header", deadline)
        (nbytes,) = _LEN.unpack(head)
        if nbytes > _MAX_FRAME:
            raise CorruptFrameError(
                f"response frame for {op!r} announces {nbytes} bytes — "
                "corrupt length prefix"
            )
        frame = self._recv_exact_once(nbytes, op, "response", deadline)
        try:
            resp = json.loads(frame.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise CorruptFrameError(
                f"undecodable response frame for {op!r}"
            ) from None
        if not isinstance(resp, dict):
            raise CorruptFrameError(
                f"malformed response frame for {op!r}"
            )
        if not resp.get("ok", False):
            raise QueryError(
                f"plane server refused {op!r}: "
                f"{resp.get('error', 'unknown error')}"
            )
        return resp

    def _recv_payload_frame(self, op: str, nbytes: int,
                            deadline: Optional[float]) -> bytes:
        """Receive the raw frame trailing an ``acquire`` response.

        Failure modes are distinguished so the retry layer (and users)
        can tell them apart: EOF or a short read mid-payload raises
        :class:`PeerClosedError` naming the op and byte position, a
        deadline overrun raises :class:`DeadlineExceededError`, and a
        frame length disagreeing with the announced size raises
        :class:`CorruptFrameError`.
        """
        head = self._recv_exact_once(_LEN.size, op, "payload header",
                                     deadline)
        (framelen,) = _LEN.unpack(head)
        if framelen != nbytes:
            raise CorruptFrameError(
                f"{op!r} announced {nbytes} payload bytes but the frame "
                f"header says {framelen}"
            )
        return self._recv_exact_once(nbytes, op, "payload", deadline)

    # -- public ops ---------------------------------------------------------

    @property
    def server_id(self) -> Optional[str]:
        """Incarnation token of the server last spoken to."""
        return self._server_id

    def generation(self) -> Tuple[int, int]:
        """Opaque staleness token: ``(incarnation rev, generation)``.

        Compared for equality against ``PlaneLease.generation``; the rev
        component makes tokens from before and after a server restart
        unequal even when the generation counters collide.
        """
        resp = self._retrying(
            "poll", lambda d: self._call_once({"op": "poll"}, d)
        )
        return (self._rev, resp["generation"])

    def stats(self) -> dict:
        """Server-side fetch and cache counters (tests and dashboards)."""
        return self._retrying(
            "stats", lambda d: self._call_once({"op": "stats"}, d)
        )

    def acquire(self) -> Optional[PlaneLease]:
        return self._retrying("acquire", self._acquire_once)

    def _acquire_once(self, deadline: Optional[float]) -> Optional[PlaneLease]:
        """One ``acquire`` round trip, plus one more asking for the full
        frame when a delta does not compose.  Safe to replay: the server
        holds nothing for the reader between ops."""
        delta = self._delta
        while True:
            have = list(self._cache)
            resp = self._call_once(
                {"op": "acquire", "have": have, "delta": delta}, deadline,
            )
            if resp.get("empty"):
                return None
            digest = resp["digest"]
            if resp["mode"] == "cached":
                self._cache.move_to_end(digest)
                break
            frame = self._recv_payload_frame("acquire", resp["nbytes"],
                                             deadline)
            payload = self._verified_payload(resp, frame, have)
            if payload is not None:
                manifest, arrays = decode_plane(payload)
                self._cache[digest] = (materialize_plane(manifest, arrays),
                                       payload)
                while len(self._cache) > self._cache_planes:
                    self._cache.popitem(last=False)
                break
            delta = False  # the server sends full frames only from here
        return PlaneLease((self._rev, resp["generation"]), resp["epoch"],
                          self._cache[digest][0])

    def _verified_payload(self, resp: dict, frame: bytes,
                          have: List[str]) -> Optional[bytes]:
        """The payload ``frame`` carries, its digest checked; None when a
        delta frame did not compose onto its base (``have[-1]``).

        A full frame failing its digest is a corrupt frame.
        """
        digest = resp["digest"]
        if resp["mode"] == "delta":
            try:
                if delta_header(frame)["target"] != digest:
                    raise ConfigError("delta frame targets a different plane")
                payload = apply_plane_delta(self._cache[have[-1]][1], frame,
                                            base_digest=have[-1])
            except ConfigError:
                return None
            kind = "delta_fetches"
        elif plane_digest(frame) != digest:
            raise CorruptFrameError(
                f"plane digest mismatch for epoch {resp['epoch']}: "
                "payload corrupt"
            )
        else:
            payload, kind = frame, "full_fetches"
        self.transfer[kind] += 1
        self.transfer["bytes_received"] += len(frame)
        self.transfer["bytes_full"] += resp["full_nbytes"]
        return payload

    def close(self) -> None:
        self._teardown()
        self._cache.clear()


class NetReader(PlaneReader):
    """Standalone remote reader: attach to a writer, serve queries locally.

    What ``repro attach host:port`` drives — the single-process analogue
    of one pool worker (the same :class:`PlaneReader` over a
    :class:`NetClient`), usable from any host that can reach the writer's
    :class:`PlaneServer`.  Queries run on the locally cached plane; call
    :meth:`refresh` (or any query, which refreshes implicitly) to pick up
    newly published epochs.  ``degrade`` is :class:`PlaneReader`'s: by
    default an unreachable server leaves the last-acquired plane in
    service with :attr:`stale` set and ``stale_serves`` counting in
    :meth:`transfer_stats`.
    """

    def __init__(self, address: str, policy: str = "upper+lower",
                 cache_planes: int = DEFAULT_CACHE_PLANES,
                 delta: bool = False,
                 retry: int = DEFAULT_RETRY,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF,
                 timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
                 degrade: bool = True) -> None:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(
                f"attach address must be host:port, got {address!r}"
            )
        client = NetClient(host, int(port), cache_planes=cache_planes,
                           delta=delta, retry=retry, backoff=backoff,
                           max_backoff=max_backoff, timeout=timeout)
        super().__init__(client, policy, degrade=degrade)

    def transfer_stats(self) -> Dict[str, object]:
        """This reader's fetch/fault counters and byte totals (its
        :meth:`~PlaneReader.stats_row`)."""
        return self.stats_row()

    def vertices(self) -> List[int]:
        """Caller-space vertex ids of the served plane (demo drivers)."""
        engine, _epoch = self.current()
        return list(engine.dense_plane.csr.ids)

    def distance(self, source: int, target: int,
                 tolerance: float = 0.0) -> Tuple[float, object, int]:
        """One pairwise distance on the cached plane: (value, stats, epoch)."""
        engine, epoch = self.current()
        value, stats = engine.best_cost(source, target, tolerance=tolerance)
        return value, stats, epoch

    def distance_many(self, source: int, targets) -> Tuple[dict, object, int]:
        """One-to-many on the cached plane: (values, stats, epoch)."""
        engine, epoch = self.current()
        values, stats = engine.one_to_many(source, list(targets))
        return values, stats, epoch
