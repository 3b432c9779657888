"""Per-layer metrics of a traced run: spans, counts, and direct probes.

Three sources, all normalised by the speed kernel like the end-to-end times:

* **spans** recorded during the traced passes (``perf/trace.py``) — how long
  the workload's own ops spent in ``graph`` / ``streaming`` / ``core`` /
  ``serving.*`` calls, and each layer's share of self time;
* **counts** the program reports (``QueryStats``, settled vertices, bytes
  moved) — these repeat exactly for a seed;
* **probes**: each layer's public functions called directly on the
  workload's own graph and planes, outside any pass, so a layer has a number
  even on a workload whose ops never cross it (``perf/README.md`` says which
  end-to-end metric each one should move, and where).  Probes that need a
  serving session run only on the serving workloads and read 0 elsewhere.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import SGraph, SGraphConfig, VersionedStore
from repro.graph import DynamicGraph
from repro.serving import codec, leaked_segments, shm_available
from repro.serving.epoch import EpochBoard
from repro.serving.net import NetReader
from repro.serving.registry import LocalRegistry
from repro.serving.shm_plane import ShmPlane

from perf import kernel, measure, trace, workloads
from perf.measure import Estimate

LAYERS = ("graph", "streaming", "core", "sgraph", "serving.codec",
          "serving.shm", "serving.registry", "serving.net", "serving.pool",
          "loadgen")

#: per-layer shares of self time a traced run reports, by the op kinds they
#: are taken over: ``lag_share.<layer>`` says how much of a round — of
#: ``visible_lag_p50_ms`` and ``updates_per_s`` — a layer holds on this
#: workload, ``query_share.<layer>`` how much of the query ops.  A layer can
#: move a metric by at most its share of it.
SHARES: Dict[str, Tuple[str, ...]] = {
    "lag_share": ("round",),
    "query_share": workloads.QUERY_KINDS,
}

#: single-pair queries a probe replays (three times each)
PROBE_PAIRS = 40

#: open-loop diagnostic leg (serve-shm, traced run only): a thousand
#: requests, the fewest a p99 may be read from
OPENLOOP_QPS = 250
OPENLOOP_SECONDS = 4.0

#: every per-layer metric a traced run emits: (name, unit, which way is
#: better), in print order.  ``BENCHMARK.json`` lists exactly these.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.mutate_us", "us", "lower"),
    ("graph.snapshot_ms", "ms", "lower"),
    ("graph.csr_ms", "ms", "lower"),
    ("streaming.maintain_us", "us", "lower"),
    ("streaming.settled_per_update", "count", "lower"),
    ("streaming.freeze_ms", "ms", "lower"),
    ("streaming.publish_ms", "ms", "lower"),
    ("core.plane_build_ms", "ms", "lower"),
    ("core.search_ms.distance", "ms", "lower"),
    ("core.search_ms.path", "ms", "lower"),
    ("core.search_ms.many", "ms", "lower"),
    ("core.search_ms.nearest", "ms", "lower"),
    ("core.activations_per_query", "count", "lower"),
    ("core.heap_pushes_per_query", "count", "lower"),
    ("core.ws_touched_reset_per_query", "count", "lower"),
    ("core.index_closed_share", "share", "higher"),
    ("sgraph.facade_ms", "ms", "lower"),
    ("sgraph.dense_share", "share", "higher"),
    ("codec.encode_ms", "ms", "lower"),
    ("codec.delta_encode_ms", "ms", "lower"),
    ("codec.apply_delta_ms", "ms", "lower"),
    ("codec.decode_ms", "ms", "lower"),
    ("codec.delta_bytes_share", "share", "lower"),
    ("shm.export_ms", "ms", "lower"),
    ("shm.attach_ms", "ms", "lower"),
    ("registry.board_cycle_us", "us", "lower"),
    ("registry.local_cycle_us", "us", "lower"),
    ("net.refresh_full_ms", "ms", "lower"),
    ("net.refresh_delta_ms", "ms", "lower"),
    ("net.bytes_per_publish", "count", "lower"),
    ("net.full_fetch_share", "share", "lower"),
    ("pool.hop_ms", "ms", "lower"),
    ("pool.batch_us_per_pair", "us", "lower"),
    ("pool.session_publish_ms", "ms", "lower"),
    ("pool.resubmits", "count", "lower"),
    ("loadgen.kernel_ms", "ms", "lower"),
    ("loadgen.speed_cv", "share", "lower"),
    ("loadgen.kernel_share", "share", "lower"),
    ("loadgen.trace_overhead_share", "share", "lower"),
    ("loadgen.openloop_p50_ms", "ms", "lower"),
    ("loadgen.openloop_p99_ms", "ms", "lower"),
    ("loadgen.gen_late_p99_ms", "ms", "lower"),
) + tuple((f"{prefix}.{layer}", "share", "lower")
          for prefix in SHARES for layer in LAYERS) + (
    ("raw.setup_s", "s", "lower"),
    ("raw.queries_per_s", "1/s", "higher"),
    ("raw.query_p50_ms", "ms", "lower"),
    ("raw.query_p95_ms", "ms", "lower"),
    ("raw.updates_per_s", "1/s", "higher"),
    ("raw.update_p50_ms", "ms", "lower"),
    ("raw.visible_lag_p50_ms", "ms", "lower"),
)


class _Timer:
    """Kernel-bracketed stopwatch for probes: durations come back in
    milliseconds at reference speed."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    def batch_ms(self, calls: Sequence[Callable[[], object]]) -> List[float]:
        """Time each call; all share the factor of the kernel runs around."""
        clock = self.clock
        before = kernel.time_kernel(clock)
        raw = []
        for call in calls:
            start = clock()
            call()
            raw.append(clock() - start)
        f = measure.speed_factor(before, kernel.time_kernel(clock))
        return [r * f * 1000.0 for r in raw]

    def p50(self, calls: Sequence[Callable[[], object]], reps: int = 3) -> Estimate:
        """p50 over the calls of each call's median across ``reps`` batches."""
        rows = [self.batch_ms(calls) for _ in range(reps)]
        per_call = measure.per_op_median(rows)
        return Estimate(statistics.median(per_call), "ms", len(per_call))


def collect(run, tracer: trace.Tracer, out_dir: str) -> Dict[str, Estimate]:
    """Every per-layer metric of this traced run, and the trace file."""
    found: Dict[str, Estimate] = {}
    found.update(_from_spans(run, tracer))
    found.update(_from_probes(run))
    found.update(_loadgen(run))
    for name, est in run.end_to_end(run.untraced, raw=True).items():
        found[f"raw.{name}"] = est
    by_kind = {prefix: kind_shares(tracer, run.plan, kinds)
               for prefix, kinds in SHARES.items()}
    for prefix, shares in by_kind.items():
        for layer in LAYERS:
            found[f"{prefix}.{layer}"] = Estimate(
                shares.get(layer, 0.0), "share", len(run.traced))
    for line in check_claims(run.workload, by_kind):
        print(f"  {line}")
    path = os.path.join(out_dir, f"trace-{run.workload.name}.json")
    covered = _covered_share(tracer)
    tracer.write(path, {
        "workload": run.workload.name,
        "seed": run.plan.seed,
        "inputs_sha256": run.plan.digest,
        "clock": "time.perf_counter seconds, raw (not normalised)",
        "self_time_share_by_layer": _shares(tracer.self_times()),
        "self_time_share_by_op_kind_and_layer": by_kind,
        "covered_share": covered,
    })
    print(f"  trace: {len(tracer.spans)} spans -> {os.path.relpath(path)}; "
          f"layer self times cover {covered:.1%} of traced pass time")
    out: Dict[str, Estimate] = {}
    for name, unit, _better in LAYER_METRICS:
        est = found.get(name)
        out[name] = (Estimate(est.value, unit, est.n) if est is not None
                     else Estimate(0.0, unit, 0))
    return out


# -- spans ---------------------------------------------------------------------


def _shares(per_pass: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Median across traced passes of each layer's share of self time."""
    shares: Dict[str, List[float]] = {}
    for by_layer in per_pass.values():
        total = sum(by_layer.values())
        for layer in LAYERS:
            shares.setdefault(layer, []).append(by_layer.get(layer, 0.0) / total)
    return {layer: statistics.median(v) for layer, v in shares.items()}


def kind_shares(tracer: trace.Tracer, plan, kinds: Sequence[str]) -> Dict[str, float]:
    """Each layer's share of the self time of the ops of ``kinds``."""
    ops = plan.ops
    return _shares(tracer.self_times(
        lambda at: isinstance(at, int) and ops[at][0] in kinds))


def check_claims(workload, by_kind: Dict[str, Dict[str, float]]) -> List[str]:
    """One line per claim of the workload: the share its layers were measured
    to hold, against the share the workload says they hold.  A report, not a
    gate: a later PR that moves work out of a layer is not wrong for it."""
    lines = []
    for claim in workload.claims:
        held = sum(by_kind[claim.of][layer] for layer in claim.layers)
        verdict = "ok" if held >= claim.share else "NOT MET"
        lines.append(f"claim {claim.of} {'+'.join(claim.layers)} >= "
                     f"{claim.share:.0%}: measured {held:.1%} {verdict}")
    return lines


def _covered_share(tracer: trace.Tracer) -> float:
    """Σ layer self times ÷ traced pass durations (1.0 when spans nest and
    close properly; the acceptance check allows 10 % either way)."""
    per_pass = tracer.self_times()
    durations = tracer.pass_durations()
    covered = sum(sum(layers.values()) for layers in per_pass.values())
    return covered / sum(durations.values())


def _from_spans(run, tracer: trace.Tracer) -> Dict[str, Estimate]:
    plan = run.plan
    passes = run.traced.passes
    out: Dict[str, Estimate] = {}
    if not passes:
        return out

    def ms(span) -> Optional[float]:
        """Normalised duration of a span recorded inside an op."""
        pass_no, where = span[trace.RID]
        if not isinstance(where, int):
            return None
        f = passes[pass_no].factor[where]
        return (span[trace.END] - span[trace.START]) * f * 1000.0

    def median_of(name: str) -> Optional[Estimate]:
        values = [v for v in map(ms, tracer.named(name)) if v is not None]
        if not values:
            return None
        return Estimate(statistics.median(values), "ms", len(values))

    for metric, span_name in (
        ("graph.snapshot_ms", "graph.snapshot"),
        ("graph.csr_ms", "graph.csr"),
        ("streaming.freeze_ms", "streaming.freeze"),
        ("core.plane_build_ms", "core.plane_build"),
        ("pool.session_publish_ms", "pool.session_publish"),
    ):
        est = median_of(span_name)
        if est is not None:
            out[metric] = est

    # publish: the store's own time, without the transport callback inside it
    own = []
    for span in tracer.named("streaming.publish"):
        total = ms(span)
        if total is None:
            continue
        for child in ("shm.publish_plane", "net.publish_plane"):
            for c in tracer.children_of(span[trace.SID], child):
                total -= ms(c) or 0.0
        own.append(total)
    if own:
        out["streaming.publish_ms"] = Estimate(statistics.median(own), "ms",
                                               len(own))

    num_updates = sum(1 if op[0] == "update" else len(op[1])
                      for op in plan.ops if op[0] in ("update", "round"))
    maintain: Dict[int, float] = {}
    for span in tracer.named("streaming.maintain"):
        value = ms(span)
        if value is not None:
            p = span[trace.RID][0]
            maintain[p] = maintain.get(p, 0.0) + value
    if maintain and num_updates:
        out["streaming.maintain_us"] = Estimate(
            statistics.median(maintain.values()) * 1000.0 / num_updates,
            "us", num_updates)
        settled = [c["settled"] for c in tracer.pass_counts]
        out["streaming.settled_per_update"] = Estimate(
            statistics.median(settled) / num_updates, "count", num_updates)

    counts = tracer.pass_counts[-1]
    if run.workload.mode.target == "live" and counts["searches"]:
        out["sgraph.dense_share"] = Estimate(
            counts["searches_dense"] / counts["searches"], "share",
            counts["searches"])
    out["pool.resubmits"] = Estimate(float(counts["reaps"]), "count",
                                     len(tracer.named("pool.submit")))
    publishes = counts.get("publishes", 0)
    if publishes:
        out["net.bytes_per_publish"] = Estimate(
            counts["bytes_sent"] / publishes, "count", publishes)
        fetches = counts["full_fetches"] + counts["delta_fetches"]
        out["net.full_fetch_share"] = Estimate(
            counts["full_fetches"] / fetches if fetches else 0.0, "share",
            fetches)
    return out


# -- loadgen -------------------------------------------------------------------


def _loadgen(run) -> Dict[str, Estimate]:
    kernel_s = run.untraced.kernel_samples() + run.traced.kernel_samples()
    kernel_ms = [k * 1000.0 for k in kernel_s]
    out = {
        "loadgen.kernel_ms": Estimate(statistics.median(kernel_ms), "ms",
                                      len(kernel_ms)),
        "loadgen.speed_cv": Estimate(
            statistics.pstdev(kernel_ms) / statistics.mean(kernel_ms),
            "share", len(kernel_ms)),
        "loadgen.kernel_share": Estimate(sum(kernel_s) / run.wall_s, "share",
                                         len(kernel_ms)),
    }
    if len(run.traced) and len(run.untraced):
        plain = run.untraced.total_s()
        out["loadgen.trace_overhead_share"] = Estimate(
            (run.traced.total_s() - plain) / plain, "share",
            len(run.traced) + len(run.untraced))
    return out


# -- probes --------------------------------------------------------------------


def _from_probes(run) -> Dict[str, Estimate]:
    plan = run.plan
    timer = _Timer(run.clock)
    out: Dict[str, Estimate] = {}
    out.update(_probe_graph(plan, timer))
    sg = SGraph.from_edges(plan.edges, config=SGraphConfig(
        num_hubs=workloads.NUM_HUBS, backend="dense"))
    store = VersionedStore(sg)
    view0 = store.publish()
    plane0 = view0.dense_plane()
    out.update(_probe_core(plan, sg, view0, timer))
    first_round = next(op for op in plan.exec_ops if op[0] == "round")
    sg.apply(first_round[1])
    view1 = store.publish()
    plane1 = view1.dense_plane()
    out.update(_probe_codec(plane0, view0.epoch, plane1, view1.epoch, timer))
    if shm_available():
        out.update(_probe_shm(plane1, view1.epoch, timer))
    out.update(_probe_registries(timer))
    mode = run.workload.mode
    if mode.transport is not None:
        out.update(_probe_session(run, timer))
    return out


def _probe_graph(plan, timer: _Timer) -> Dict[str, Estimate]:
    """The plan's whole update stream on a bare ``DynamicGraph``."""
    stream = []
    for op in plan.ops:
        if op[0] == "update":
            stream.append(op[1])
        elif op[0] == "round":
            stream.extend(op[1])
    per_update = []
    for _ in range(3):
        graph = DynamicGraph.from_edges(plan.edges)

        def apply_all(graph=graph):
            add, discard = graph.add_edge, graph.discard_edge
            for u in stream:
                if u[0] == "+":
                    add(u[1], u[2], u[3])
                else:
                    discard(u[1], u[2])

        per_update.append(timer.batch_ms([apply_all])[0] * 1000.0 / len(stream))
    return {"graph.mutate_us": Estimate(statistics.median(per_update), "us",
                                        len(stream))}


def _probe_core(plan, sg, view, timer: _Timer) -> Dict[str, Estimate]:
    """The engine's four verbs called directly on a published view's engine,
    and the facade's cost over it on the same pairs."""
    engine = view.engine("distance")
    singles = [op for op in plan.ops if op[0] in workloads.SINGLE_KINDS]
    pairs = [(op[1], op[2]) for op in singles[:PROBE_PAIRS]]
    manys = [op for op in plan.ops if op[0] == "many"][:4]
    if not manys:
        manys = [("many", s, tuple(t for _s, t in pairs[:16]))
                 for s, _t in pairs[:4]]
    out: Dict[str, Estimate] = {}
    direct = timer.p50([lambda s=s, t=t: engine.best_cost(s, t)
                        for s, t in pairs])
    out["core.search_ms.distance"] = direct
    out["core.search_ms.path"] = timer.p50(
        [lambda s=s, t=t: engine.best_path(s, t) for s, t in pairs[:16]])
    out["core.search_ms.many"] = timer.p50(
        [lambda op=op: engine.one_to_many(op[1], list(op[2])) for op in manys])
    out["core.search_ms.nearest"] = timer.p50(
        [lambda s=s: engine.expand(s, 8, None) for s, _t in pairs[:16]])
    stats = [engine.best_cost(s, t)[1] for s, t in pairs]
    n = len(stats)
    out["core.activations_per_query"] = Estimate(
        sum(s.activations for s in stats) / n, "count", n)
    out["core.heap_pushes_per_query"] = Estimate(
        sum(s.pushes for s in stats) / n, "count", n)
    out["core.ws_touched_reset_per_query"] = Estimate(
        sum(s.touched_reset for s in stats) / n, "count", n)
    out["core.index_closed_share"] = Estimate(
        sum(1 for s in stats if s.answered_by_index) / n, "share", n)
    facade = timer.p50([lambda s=s, t=t: sg.distance(s, t) for s, t in pairs])
    out["sgraph.facade_ms"] = Estimate(facade.value - direct.value, "ms", n)
    return out


def _probe_codec(plane0, epoch0, plane1, epoch1, timer: _Timer) -> Dict[str, Estimate]:
    base = codec.encode_plane(plane0, epoch=epoch0)
    target = codec.encode_plane(plane1, epoch=epoch1)
    delta = codec.encode_plane_delta(base, target)

    def decode():
        manifest, arrays = codec.decode_plane(target)
        codec.materialize_plane(manifest, arrays)

    reps = 5
    return {
        "codec.encode_ms": timer.p50(
            [lambda: codec.encode_plane(plane1, epoch=epoch1)] * reps, 1),
        "codec.delta_encode_ms": timer.p50(
            [lambda: codec.encode_plane_delta(base, target)] * reps, 1),
        "codec.apply_delta_ms": timer.p50(
            [lambda: codec.apply_plane_delta(base, delta)] * reps, 1),
        "codec.decode_ms": timer.p50([decode] * reps, 1),
        "codec.delta_bytes_share": Estimate(len(delta) / len(target), "share",
                                            len(target)),
    }


def _probe_shm(plane, epoch, timer: _Timer) -> Dict[str, Estimate]:
    prefix = f"rpperf{os.getpid():x}-"
    handles: List[ShmPlane] = []
    attached: List[ShmPlane] = []
    names = [f"{prefix}{i}" for i in range(5)]
    try:
        def export(name):
            handles.append(ShmPlane.export(plane, name, epoch=epoch))

        def attach(name):
            handle = ShmPlane.attach(name)
            attached.append(handle)
            handle.as_dense_plane()

        exported = timer.p50([lambda n=n: export(n) for n in names], 1)
        mapped = timer.p50([lambda n=n: attach(n) for n in names], 1)
    finally:
        for handle in attached:
            handle.close()
        for handle in handles:
            handle.close()
            handle.unlink()
    leaked = leaked_segments(prefix)
    if leaked:
        raise RuntimeError(f"shm probe leaked segments: {leaked}")
    return {"shm.export_ms": exported, "shm.attach_ms": mapped}


def _probe_registries(timer: _Timer, cycles: int = 200) -> Dict[str, Estimate]:
    """register → acquire → release, on both slot-table implementations.

    The refs are names of segments that do not exist, so the board's
    unlink-on-retire is a failed ``shm_unlink`` rather than a real one.
    """
    import multiprocessing as mp

    out: Dict[str, Estimate] = {}

    def cycle_all(registry, reader):
        for i in range(cycles):
            slot = registry.register(f"ref{i}", i)
            registry.acquire(reader)
            registry.release(slot, reader)

    local = LocalRegistry()
    per = timer.batch_ms([lambda: cycle_all(local, "probe")])[0]
    out["registry.local_cycle_us"] = Estimate(per * 1000.0 / cycles, "us", cycles)
    if shm_available():
        name = f"rpperf{os.getpid():x}-board"
        board = EpochBoard.create(name, num_workers=1, lock=mp.get_context().Lock())
        try:
            per = timer.batch_ms([lambda: cycle_all(board, 0)])[0]
        finally:
            board.shutdown()
        out["registry.board_cycle_us"] = Estimate(per * 1000.0 / cycles, "us",
                                                  cycles)
    return out


def _probe_session(run, timer: _Timer) -> Dict[str, Estimate]:
    """Probes that need a running pool: the hop, the batch verb, remote
    refresh (tcp), and the open-loop leg (shm)."""
    plan = run.plan
    mode = run.workload.mode
    out: Dict[str, Estimate] = {}
    sg = SGraph.from_edges(plan.edges, config=SGraphConfig(
        num_hubs=workloads.NUM_HUBS, backend=mode.backend))
    singles = [op for op in plan.ops if op[0] in workloads.SINGLE_KINDS]
    pairs = [(op[1], op[2]) for op in singles[:PROBE_PAIRS]]
    rounds = [op for op in plan.exec_ops if op[0] == "round"]
    with sg.serve(workers=1, transport=mode.transport, delta=mode.delta) as session:
        view = session.store.latest()
        timeout = workloads.OP_TIMEOUT_S
        hop = timer.p50([lambda s=s, t=t: session.distance(s, t, timeout=timeout)
                         for s, t in pairs])
        local = timer.p50([lambda s=s, t=t: view.distance(s, t)
                           for s, t in pairs])
        out["pool.hop_ms"] = Estimate(hop.value - local.value, "ms", len(pairs))
        batch = (pairs * 2)[:64]
        per = timer.p50([lambda: session.map_distance(batch, timeout=timeout)] * 3, 1)
        out["pool.batch_us_per_pair"] = Estimate(
            per.value * 1000.0 / len(batch), "us", len(batch))
        if mode.transport == "tcp":
            out.update(_probe_refresh(session, sg, rounds[:6], timer))
        if mode.transport == "shm":
            out.update(_open_loop(session, pairs, run.clock))
    leaked = leaked_segments(session.prefix)
    if leaked:
        raise RuntimeError(f"session probe leaked segments: {leaked}")
    return out


def _probe_refresh(session, sg, rounds, timer: _Timer) -> Dict[str, Estimate]:
    """Two standalone readers beside the pool, one fetching full planes and
    one deltas; each adopts every epoch the rounds publish."""
    address = session.transport.address
    full_ms: List[float] = []
    delta_ms: List[float] = []
    with NetReader(address, delta=False) as full, \
            NetReader(address, delta=True) as delta:
        full.refresh()
        delta.refresh()
        for op in rounds:
            sg.apply(op[1])
            session.publish()
            a, b = timer.batch_ms([full.refresh, delta.refresh])
            full_ms.append(a)
            delta_ms.append(b)
    return {
        "net.refresh_full_ms": Estimate(statistics.median(full_ms), "ms",
                                        len(full_ms)),
        "net.refresh_delta_ms": Estimate(statistics.median(delta_ms), "ms",
                                         len(delta_ms)),
    }


def _open_loop(session, pairs, clock) -> Dict[str, Estimate]:
    """250 requests a second for four seconds, each timed from when it was
    *due*: a stall delays the requests queued behind it and they say so.

    Diagnostic only — identical ten-second open-loop runs on this host
    differed by 36 % (p50) and 285 % (p99), so nothing here is gated.
    """
    total = int(OPENLOOP_QPS * OPENLOOP_SECONDS)
    gap = 1.0 / OPENLOOP_QPS
    latency_ms: List[float] = []
    late_ms: List[float] = []
    timeout = workloads.OP_TIMEOUT_S
    start = clock() + 0.05
    for i in range(total):
        due = start + i * gap
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock()
        s, t = pairs[i % len(pairs)]
        session.distance(s, t, timeout=timeout)
        done = clock()
        late_ms.append((sent - due) * 1000.0)
        latency_ms.append((done - due) * 1000.0)
    return {
        "loadgen.openloop_p50_ms": Estimate(
            measure.percentile(latency_ms, 0.5), "ms", total),
        "loadgen.openloop_p99_ms": Estimate(
            measure.percentile(latency_ms, 0.99), "ms", total),
        "loadgen.gen_late_p99_ms": Estimate(
            measure.percentile(late_ms, 0.99), "ms", total),
    }
