"""Spans recorded by the benchmark itself, around its calls into each layer.

The program has no tracing of its own yet (ROADMAP "metrics spine"), so a
traced pass installs thin runtime wrappers on the public functions where one
layer hands work to the next, records a span per call — name, layer, start,
end, parent, and the id of the request (op) that caused it — and removes the
wrappers again when the pass ends.  Untraced passes never see them.

A span's *self time* is its duration minus the part of it its children cover;
summed by layer it says where a pass's time went, and summed over the ops of
one kind (rounds, single queries) which layers can move that kind's metric.

A pool worker is forked while the wrappers are in, so it runs them too — but
into its own copy of the tracer.  Spans opened in another process than the
tracer's are therefore kept apart, and the search wrapper hangs them on the
``QueryStats`` that travels back with the answer; the ``WorkerPool.gather``
wrapper adopts them as children of the writer's wait.  ``perf_counter`` reads
one system-wide monotonic clock, so worker and writer times line up.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import threading
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, owner class or None, attribute, span name, layer)
_PATCHES: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.graph.dynamic_graph", "DynamicGraph", "from_edges", "graph.from_edges", "graph"),
    ("repro.graph.dynamic_graph", "DynamicGraph", "snapshot", "graph.snapshot", "graph"),
    ("repro.graph.snapshot", "GraphSnapshot", "to_csr", "graph.csr", "graph"),
    ("repro.core.hub_index", "HubIndex", "build", "core.index_build", "core"),
    ("repro.core.hub_index", "HubIndex", "notify_edge_inserted", "streaming.maintain", "streaming"),
    ("repro.core.hub_index", "HubIndex", "notify_edge_deleted", "streaming.maintain", "streaming"),
    ("repro.core.hub_index", "HubIndex", "freeze", "streaming.freeze", "streaming"),
    ("repro.core.hub_index", "DensePlane", "build", "core.plane_build", "core"),
    ("repro.streaming.versioning", "VersionedStore", "publish", "streaming.publish", "streaming"),
    ("repro.sgraph", "SGraph", "apply", "sgraph.apply", "sgraph"),
    ("repro.serving.pool", "ServeSession", "publish", "pool.session_publish", "serving.pool"),
    ("repro.serving.pool", "WorkerPool", "submit", "pool.submit", "serving.pool"),
    ("repro.serving.transport", "ShmTransport", "publish_plane", "shm.publish_plane", "serving.shm"),
    ("repro.serving.shm_plane", "ShmPlane", "export", "shm.export", "serving.shm"),
    ("repro.serving.epoch", "EpochBoard", "register", "registry.board_register", "serving.registry"),
    ("repro.serving.registry", "LocalRegistry", "register", "registry.local_register", "serving.registry"),
    ("repro.serving.net", "NetTransport", "publish_plane", "net.publish_plane", "serving.net"),
    # reader side: these run in the pool worker
    ("repro.serving.transport", "ShmClient", "acquire", "shm.acquire", "serving.shm"),
    ("repro.serving.net", "NetClient", "generation", "net.poll", "serving.net"),
    ("repro.serving.net", "NetClient", "acquire", "net.acquire", "serving.net"),
    ("repro.serving.transport", "PlaneLease", "release", "registry.release", "serving.registry"),
    ("repro.serving.net", None, "encode_plane", "codec.encode", "serving.codec"),
    ("repro.serving.net", None, "encode_plane_delta", "codec.delta_encode", "serving.codec"),
    ("repro.serving.net", None, "apply_plane_delta", "codec.apply_delta", "serving.codec"),
    ("repro.serving.net", None, "decode_plane", "codec.decode", "serving.codec"),
)

_SEARCHES = (
    ("best_cost", "core.search.distance"),
    ("best_path", "core.search.path"),
    ("one_to_many", "core.search.many"),
    ("expand", "core.search.nearest"),
)

# span record layout
SID, PARENT, NAME, LAYER, RID, THREAD, START, END = range(8)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, clock: Callable[[], float], query_layer: str) -> None:
        self.clock = clock
        #: layer charged with a query op's own time (the API it calls into)
        self.query_layer = query_layer
        self.spans: List[list] = []
        # the tcp plane server records spans from its connection threads
        self._lock = threading.Lock()
        self.counts: Counter = Counter()
        #: counts of the pass being recorded, folded into ``pass_counts``
        self.pass_counts: List[Counter] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._pid = os.getpid()
        #: spans opened in a forked pool worker, until an answer takes them
        #: home: [local id, local parent, name, layer, start, end]
        self._remote: List[list] = []
        self._remote_stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._pass = -1
        self._rid: object = None
        self._root: Optional[int] = None
        self._setup: Optional[int] = None

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        if os.getpid() != self._pid:
            return self._open_remote(name, layer)
        stack = self._stack()
        thread = 0 if threading.get_ident() == self._main else threading.get_ident()
        span = [None, stack[-1] if stack else None, name, layer, self._rid,
                thread, None, None]
        with self._lock:
            sid = span[SID] = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        span[START] = self.clock()
        return sid

    def close(self, sid: int) -> None:
        if os.getpid() != self._pid:
            self._remote[sid][5] = self.clock()
            stack = self._remote_stack
        else:
            self.spans[sid][END] = self.clock()
            stack = self._stack()
        # an exception may have skipped inner closes; unwind to this span
        while stack and stack.pop() != sid:
            pass

    def _open_remote(self, name: str, layer: str) -> int:
        stack = self._remote_stack
        sid = len(self._remote)
        self._remote.append([sid, stack[-1] if stack else None, name, layer,
                             self.clock(), None])
        stack.append(sid)
        return sid

    def take_remote(self) -> List[list]:
        """The worker's finished spans, handed over once nothing is open."""
        if self._remote_stack:
            return []
        spans, self._remote = self._remote, []
        return spans

    def adopt(self, parent: int, remote: List[list]) -> None:
        """Spans a pool worker recorded, as descendants of ``parent``."""
        with self._lock:
            base = len(self.spans)
            for sid, up, name, layer, start, end in remote:
                self.spans.append([
                    base + sid, parent if up is None else base + up, name,
                    layer, self._rid, 0, start, end])

    # -- pass lifecycle (driven by perf.run) -------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """One traced pass: wrappers in on entry, out again however it ends.
        Inside, the caller reports ``end_setup`` and ``end_pass``."""
        self._pass += 1
        self.counts = Counter()
        self._local = threading.local()
        self.install()
        try:
            self._rid = (self._pass, "setup")
            self._root = self.open("pass", "loadgen")
            self._setup = self.open("setup", "loadgen")
            yield self
        finally:
            self.uninstall()

    def end_setup(self) -> None:
        self.close(self._setup)
        self._rid = (self._pass, "kernel")

    def wrap_execute(self, execute: Callable) -> Callable:
        """``execute`` with one span per op; ops are numbered as replayed."""
        layer_of = {"update": "sgraph", "round": "loadgen"}
        counter = iter(range(1 << 62))
        opener, closer = self.open, self.close
        pass_no = self._pass

        def traced(op):
            self._rid = (pass_no, next(counter))
            sid = opener(op[0], layer_of.get(op[0], self.query_layer))
            try:
                return execute(op)
            finally:
                closer(sid)
                self._rid = (pass_no, "kernel")

        return traced

    def end_pass(self, live) -> None:
        """Close the pass; ``live`` is still up, so its session can be asked
        what moved over the wire."""
        self.close(self._root)
        self.uninstall()
        if live.session is not None:
            moved = live.session.transport.transfer_stats()
            for key in ("bytes_sent", "full_fetches", "delta_fetches"):
                self.counts[key] = moved.get(key, 0)
            self.counts["publishes"] = sum(
                1 for span in self.named("pool.session_publish")
                if span[RID][0] == self._pass)
        self.pass_counts.append(self.counts)

    # -- wrappers ----------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for module_name, owner_name, attr, name, layer in _PATCHES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attr, self._span_wrapper(name, layer))
        engine = importlib.import_module("repro.core.engine").PairwiseEngine
        for attr, name in _SEARCHES:
            self._patch(engine, attr, self._search_wrapper(name))
        pool = importlib.import_module("repro.serving.pool")
        self._patch(pool.WorkerPool, "gather", self._gather_wrapper())
        self._patch(pool.ServeSession, "reap", self._count_wrapper("reaps"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        elif isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def _span_wrapper(self, name: str, layer: str):
        opener, closer = self.open, self.close
        settled = name == "streaming.maintain"

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = opener(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closer(sid)
                    if settled:
                        self.counts["settled"] += args[0].settled_last_update
            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _count_wrapper(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _search_wrapper(self, name: str):
        opener, closer = self.open, self.close

        def make(fn):
            def wrapper(engine, *args, **kwargs):
                sid = opener(name, "core")
                try:
                    out = fn(engine, *args, **kwargs)
                finally:
                    closer(sid)
                if os.getpid() != self._pid:
                    stats = out[-1] if isinstance(out, tuple) else None
                    if hasattr(stats, "activations"):
                        # travels back from the pool worker with the answer
                        stats.perf_spans = self.take_remote()
                    return out
                self.counts["searches"] += 1
                if engine.dense_plane is not None:
                    self.counts["searches_dense"] += 1
                return out
            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _gather_wrapper(self):
        opener, closer = self.open, self.close

        def make(fn):
            def wrapper(pool, req_ids, timeout=None):
                sid = opener("pool.gather", "serving.pool")
                try:
                    got = fn(pool, req_ids, timeout)
                    for resp in got.values():
                        if resp.ok:
                            for remote in _worker_spans(resp.payload):
                                self.adopt(sid, remote)
                    return got
                finally:
                    closer(sid)
            wrapper.__wrapped__ = fn
            return wrapper

        return make

    # -- analysis ----------------------------------------------------------------

    def self_times(self, where: Optional[Callable[[object], bool]] = None
                   ) -> Dict[int, Dict[str, float]]:
        """Per pass: seconds of self time by layer.

        ``where`` narrows it to spans whose request position — an op index,
        ``"setup"`` or ``"kernel"`` — it accepts: the self time of the rounds
        alone, say.  A child counts for the part of it that lies inside its
        parent (a worker may start on a request before the writer starts to
        wait for it).  Spans from other threads (the tcp plane server's
        connection handlers) run while the main thread waits in a span of
        its own; they are kept in the trace file but not added twice here.
        """
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            up = span[PARENT]
            if up is None or span[END] is None or self.spans[up][END] is None:
                continue
            parent = self.spans[up]
            covered[up] += max(0.0, min(span[END], parent[END])
                               - max(span[START], parent[START]))
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span[THREAD] != 0 or span[END] is None:
                continue
            if where is not None and not where(span[RID][1]):
                continue
            own = span[END] - span[START] - covered.get(span[SID], 0.0)
            out[span[RID][0]][span[LAYER]] += max(own, 0.0)
        return out

    def pass_durations(self) -> Dict[int, float]:
        return {span[RID][0]: span[END] - span[START]
                for span in self.spans
                if span[NAME] == "pass" and span[END] is not None}

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[NAME] == name and s[END] is not None]

    def children_of(self, sid: int, name: str) -> List[list]:
        return [s for s in self.spans
                if s[PARENT] == sid and s[NAME] == name and s[END] is not None]

    def write(self, path: str, header: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "layer", "request", "thread",
                "start", "end")
        doc = dict(header)
        doc["spans"] = [dict(zip(keys, span)) for span in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _worker_spans(payload) -> List[List[list]]:
    """Span batches hung on the ``QueryStats`` of a pool answer:
    ``(value, stats)``, ``(values, stats)`` or a list of ``(value, stats)``."""
    items = payload if isinstance(payload, list) else [payload]
    batches = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2:
            remote = getattr(item[1], "perf_spans", None)
            if remote:
                batches.append(remote)
    return batches
