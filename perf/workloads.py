"""The five workloads: what each replays, and how an op reaches the program.

A workload is a seeded *plan* — a graph as an edge list plus one op list that
every pass replays — and a *mode* saying which product API serves it: the
live ``SGraph`` facade, published ``FrozenView`` versions, or a
``ServeSession`` over shm or tcp.  Imports are product API only.

Op kinds (plain tuples, see ``perf/inputs.py`` for updates):

``("distance", s, t)`` / ``("path", s, t)``
    one pairwise call — the samples behind ``query_p50_ms``/``query_p95_ms``.
``("many", s, targets)`` / ``("nearest", s, k)`` / ``("map", pairs)``
    batched verbs — they add answered pairs to ``queries_per_s``.
``("update", u)``
    one ``SGraph.apply_update`` on the live facade — ``update_p50_ms``.
``("round", batch, (s, t))``
    the whole write path: ``SGraph.apply(batch)`` → publish → query ``(s, t)``
    until an answer is stamped with the new epoch.  Its duration is one
    ``visible_lag_p50_ms`` sample; batch sizes over durations give
    ``updates_per_s``.

The contract asks every workload to report every end-to-end metric, so each
plan carries all op kinds; what differs is which kinds dominate and which
layers they cross (see ``perf/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import EdgeUpdate, SGraph, SGraphConfig, VersionedStore

from perf import inputs

GRID_SIDE = 64
PL_VERTICES = 4000
PL_EDGES_PER_VERTEX = 5
NUM_HUBS = 16
#: seeds the two graphs and the query logs — the datasets — of every run
DATASET_SEED = 2023
#: a run swaps one entry in SWAP_ONE_IN of each fixed log for a spare one
SWAP_ONE_IN = 20
#: a round's probe loop gives up (a failed op) after this many stale answers
MAX_PROBES = 200
#: a pool request that has not answered after this long is a failed op
OP_TIMEOUT_S = 20.0

QUERY_KINDS = ("distance", "path", "many", "nearest", "map")
SINGLE_KINDS = ("distance", "path")


@dataclass
class Plan:
    """Seeded inputs of one workload."""

    workload: str
    seed: int
    num_vertices: int
    edges: List[inputs.Edge]
    ops: List[Tuple]
    #: nominal cost per op kind in ms — only used to cut units
    nominal_ms: Dict[str, float]
    digest: str = ""
    #: program-typed twin of ``ops`` (updates as ``EdgeUpdate``)
    exec_ops: List[Tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.digest = inputs.digest(self.workload, self.seed, self.edges,
                                    self.ops)
        self.exec_ops = [_typed(op) for op in self.ops]

    def first_single(self) -> Tuple:
        """The op whose answer ends a pass's set-up."""
        return next(op for op in self.ops if op[0] in SINGLE_KINDS)

    def indices(self, *kinds: str) -> List[int]:
        return [i for i, op in enumerate(self.ops) if op[0] in kinds]

    def pairs_answered(self, i: int) -> int:
        op = self.ops[i]
        if op[0] in SINGLE_KINDS:
            return 1
        if op[0] == "many":
            return len(op[2])
        if op[0] == "nearest":
            return op[2]
        if op[0] == "map":
            return len(op[1])
        return 0

    def costs_ms(self) -> List[float]:
        out = []
        for op in self.ops:
            cost = self.nominal_ms[op[0]]
            if op[0] == "round":
                cost += self.nominal_ms["update"] * len(op[1])
            elif op[0] == "map":
                cost *= len(op[1])
            out.append(cost)
        return out


def _edge_update(update: Tuple) -> EdgeUpdate:
    if update[0] == "+":
        return EdgeUpdate.insert(update[1], update[2], update[3])
    return EdgeUpdate.delete(update[1], update[2])


def _typed(op: Tuple) -> Tuple:
    if op[0] == "update":
        return ("update", _edge_update(op[1]))
    if op[0] == "round":
        return ("round", [_edge_update(u) for u in op[1]], op[2])
    return op


@dataclass(frozen=True)
class Mode:
    """Which product surface a workload drives."""

    backend: str
    #: where query ops go: "live" (SGraph), "view" (latest FrozenView) or
    #: "session" (ServeSession through the worker pool)
    target: str
    transport: Optional[str] = None
    delta: bool = False

    @property
    def query_layer(self) -> str:
        """The layer whose API a query op calls: a trace charges it with the
        op's own time."""
        return {"live": "sgraph", "view": "streaming",
                "session": "serving.pool"}[self.target]


class Live:
    """One pass's program state: built from scratch, torn down at the end.

    Construction is the pass's timed setup: edge list → ``SGraph`` → hub
    index → first publish (and serving session) → first answer.
    """

    def __init__(self, plan: Plan, mode: Mode) -> None:
        self.mode = mode
        self.sg = SGraph.from_edges(
            plan.edges,
            config=SGraphConfig(num_hubs=NUM_HUBS, backend=mode.backend),
        )
        self.session = None
        first = plan.first_single()
        try:
            if mode.transport is not None:
                self.session = self.sg.serve(
                    workers=1, transport=mode.transport, delta=mode.delta,
                )
                self.store = self.session.store
            else:
                self.store = VersionedStore(self.sg)
                self.store.publish()
            self.view = self.store.latest()
            self.handlers: Dict[str, Callable] = {
                "update": self._update,
                "round": (self._round_session if self.session is not None
                          else self._round_view),
            }
            self.handlers.update(self._query_handlers())
            self.first_answer = self.handlers["distance"](
                ("distance", first[1], first[2])
            )
        except BaseException:
            self.close()
            raise

    def execute(self, op: Tuple) -> object:
        return self.handlers[op[0]](op)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- queries ------------------------------------------------------------

    def _query_handlers(self) -> Dict[str, Callable]:
        target = self.mode.target
        if target == "live":
            sg = self.sg
            return {
                "distance": lambda op: sg.distance(op[1], op[2]),
                "path": lambda op: sg.shortest_path(op[1], op[2]),
                "many": lambda op: sg.distance_many_result(op[1], op[2]),
                "nearest": lambda op: (sg.nearest(op[1], op[2]), sg.epoch),
            }
        if target == "view":
            # FrozenView has no path verb; plans for this target carry none.
            return {
                "distance": lambda op: self.view.distance(op[1], op[2]),
                "many": lambda op: self.view.distance_many_result(op[1], op[2]),
                "nearest": lambda op: (self.view.nearest(op[1], op[2]),
                                       self.view.epoch),
            }
        session = self.session
        return {
            "distance": lambda op: session.distance(
                op[1], op[2], timeout=OP_TIMEOUT_S),
            "many": lambda op: session.distance_many(
                op[1], op[2], timeout=OP_TIMEOUT_S),
            "nearest": lambda op: session.nearest(
                op[1], op[2], timeout=OP_TIMEOUT_S),
            "map": lambda op: session.map_distance(
                op[1], timeout=OP_TIMEOUT_S),
        }

    # -- writes -------------------------------------------------------------

    def _update(self, op: Tuple) -> None:
        self.sg.apply_update(op[1])

    def _round_view(self, op: Tuple) -> Tuple:
        self.sg.apply(op[1])
        self.view = view = self.store.publish()
        s, t = op[2]
        return view.distance(s, t), ()

    def _round_session(self, op: Tuple) -> Tuple:
        self.sg.apply(op[1])
        session = self.session
        self.view = view = session.publish()
        epoch = view.epoch
        s, t = op[2]
        stale = []
        for _ in range(MAX_PROBES):
            answer = session.distance(s, t, timeout=OP_TIMEOUT_S)
            if answer[2] == epoch:
                return answer, tuple(stale)
            stale.append(answer)
        raise RuntimeError(
            f"epoch {epoch} not visible after {MAX_PROBES} probes"
        )


def canonical(op: Tuple, answer: object) -> Tuple:
    """``(comparable value, claimed epoch)`` of a raw answer, or ``None`` for
    ops that answer nothing.  What must be bit-identical across passes."""
    kind = op[0]
    if kind == "update":
        return None
    if kind == "round":
        final, stale = answer
        return (canonical(("distance",) + tuple(op[2]), final),
                tuple(canonical(("distance",) + tuple(op[2]), a)
                      for a in stale))
    if kind == "map":
        return (tuple(v for v, _s, _e in answer),
                tuple(e for _v, _s, e in answer))
    if kind == "nearest":
        pairs, epoch = answer
        return (tuple(pairs), epoch)
    if isinstance(answer, tuple):  # session: (value(s), stats, epoch)
        value, _stats, epoch = answer
        if kind == "many":
            value = tuple(sorted(value.items()))
        return (value, epoch)
    if kind == "many":
        return (tuple(sorted(answer.values.items())), answer.epoch)
    if kind == "path":
        path = None if answer.path is None else tuple(answer.path)
        return ((answer.value, path), answer.epoch)
    return (answer.value, answer.epoch)


# -- plans ------------------------------------------------------------------
#
# Two fixed *datasets* (the graphs, and a log of queries and of window inserts
# over each) come from DATASET_SEED and are the same in every run, in the same
# order.  ``--seed`` perturbs them: it swaps one entry in twenty of each log
# for a spare one, and draws every safe-update stream.  See "What --seed
# varies" in perf/README.md for the measurements behind that split.


def _grid():
    rng = inputs.stream(DATASET_SEED, "grid")
    edges = inputs.grid_edges(rng, GRID_SIDE)
    n = GRID_SIDE * GRID_SIDE
    adj = inputs.adjacency(n, edges)
    return n, edges, adj, inputs.largest_component(adj)


def _power_law():
    rng = inputs.stream(DATASET_SEED, "power-law")
    edges = inputs.power_law_edges(rng, PL_VERTICES, PL_EDGES_PER_VERTEX)
    adj = inputs.adjacency(PL_VERTICES, edges)
    return PL_VERTICES, edges, adj, inputs.largest_component(adj)


def _spares(count: int) -> int:
    return count // SWAP_ONE_IN


def _perturbed(rng, log: Sequence, count: int) -> List:
    """The first ``count`` entries of a fixed log, in its order, with a seeded
    one in twenty of them swapped for the log's spare entries.

    Two seeds thus share nineteen twentieths of their ops *in place*: which
    query meets which graph state, and which pays for the rebuild an update
    left behind, is the dataset's to decide, not the seed's.
    """
    out = list(log[:count])
    spare = log[count:]
    for slot, entry in zip(rng.sample(range(count), len(spare)), spare):
        out[slot] = entry
    return out


def _pair_log(workload: str, what: str, adj, pool, count: int) -> List:
    """The fixed log of far pairs: ``count`` entries and their spares."""
    rng = inputs.stream(DATASET_SEED, workload, what)
    return inputs.far_pairs(rng, adj, pool, count + _spares(count))


def _many_ops(workload: str, pool, count: int, width: int) -> List[Tuple]:
    """``count`` fixed one-to-many ops (too few to spare any)."""
    rng = inputs.stream(DATASET_SEED, workload, "many-log")
    return [("many", rng.choice(pool), tuple(rng.sample(pool, width)))
            for _ in range(count)]


def _singles(seed: int, workload: str, adj, pool, distances: int,
             paths: int = 0) -> List[Tuple]:
    """``distances + paths`` single-pair query ops: the workload's fixed logs
    (one per verb, so the verb mix is exact), perturbed by the seed, in a
    fixed interleaving."""
    rng = inputs.stream(seed, workload, "singles")
    ops = [("distance", s, t) for s, t in _perturbed(
        rng, _pair_log(workload, "distance-log", adj, pool, distances),
        distances)]
    if paths:
        ops += [("path", s, t) for s, t in _perturbed(
            rng, _pair_log(workload, "path-log", adj, pool, paths), paths)]
    inputs.stream(DATASET_SEED, workload, "singles-order").shuffle(ops)
    return ops


def _sliding(seed: int, workload: str, n: int, edges, count: int) -> List:
    """A sliding-window stream over the workload's fixed insert log,
    perturbed by the seed."""
    inserts = (count + 1) // 2
    fresh, ages = inputs.sliding_log(
        inputs.stream(DATASET_SEED, workload, "sliding-log"), n, edges,
        inserts + _spares(inserts))
    return inputs.sliding_window(
        _perturbed(inputs.stream(seed, workload, "updates"), fresh, inserts),
        ages, count)


def _write_tail(updates: Sequence, probes: Sequence, singles: int,
                batch: int) -> List[List[Tuple]]:
    """Per probe pair one group: ``singles`` single updates then a round of
    ``batch``, consuming ``updates`` in order."""
    groups: List[List[Tuple]] = []
    at = 0
    for pair in probes:
        group: List[Tuple] = [("update", u) for u in updates[at:at + singles]]
        at += singles
        group.append(("round", tuple(updates[at:at + batch]), pair))
        at += batch
        groups.append(group)
    if at != len(updates):
        raise ValueError(f"write tail used {at} of {len(updates)} updates")
    return groups


def plan_engine_read(seed: int) -> Plan:
    name = "engine-read"
    n, edges, adj, pool = _grid()
    reads = _singles(seed, name, adj, pool, distances=168, paths=42)
    reads += _many_ops(name, pool, 8, 16)
    reads += [("nearest", s, 8)
              for s, _t in _pair_log(name, "nearest-log", adj, pool, 8)]
    inputs.stream(DATASET_SEED, name, "reads-order").shuffle(reads)
    rounds, singles, batch = 6, 8, 16
    updates = inputs.slack_raises(
        inputs.stream(seed, name, "updates"), adj, [(u, v) for u, v, _w in edges],
        rounds * (singles + batch))
    probes = [inputs.near_pair(adj, pool)] * rounds
    ops = reads + [op for group in _write_tail(updates, probes, singles, batch)
                   for op in group]
    return Plan(name, seed, n, edges, ops, nominal_ms={
        "distance": 4.0, "path": 4.5, "many": 9.0, "nearest": 0.2,
        "update": 0.2, "round": 90.0,
    })


def plan_ingest_publish(seed: int) -> Plan:
    name = "ingest-publish"
    n, edges, adj, pool = _power_law()
    rounds, singles, batch = 18, 32, 168
    updates = _sliding(seed, name, n, edges, rounds * (singles + batch))
    probes = [inputs.near_pair(adj, pool)] * rounds
    groups = _write_tail(updates, probes, singles, batch)
    queries = _singles(seed, name, adj, pool, distances=360)
    every, per_group = 3, 60
    ops: List[Tuple] = []
    for r, group in enumerate(groups):
        ops += group
        if r % every == every - 1:
            # reads go to the view just published; its plane is already
            # derived (the round's probe paid for that)
            at = (r // every) * per_group
            ops += queries[at:at + per_group]
    ops += _many_ops(name, pool, 8, 16)
    return Plan(name, seed, n, edges, ops, nominal_ms={
        "distance": 0.5, "many": 2.0, "update": 0.22, "round": 30.0,
    })


def plan_live_mixed(seed: int) -> Plan:
    name = "live-mixed"
    n, edges, adj, pool = _grid()
    cycles, churn, reads, fan = 3, 18, 4, 13
    rounds_per_cycle, batch = 3, 8
    num_singles = cycles * (churn + reads)
    # One query log per phase: the dict plane answers the churn phase and the
    # dense plane the read phase at different costs, so which queries land in
    # which phase must not be the seed's to decide.
    in_churn, in_read = cycles * churn, cycles * reads * fan
    churn_q = _singles(seed, name + "/churn", adj, pool,
                       distances=in_churn - in_churn // 5,
                       paths=in_churn // 5)
    read_q = _singles(seed, name + "/read", adj, pool,
                      distances=in_read - in_read // 5, paths=in_read // 5)
    # Single updates: mostly safe raises, one in five an arbitrary reweight
    # (the unsafe kind, whose cost spans three orders of magnitude).  The
    # arbitrary ones are a fixed set — which edges they hit decides how much
    # of every hub table the next publish must re-derive, and a seeded sample
    # of them moved updates_per_s by 16 % — and so are the slots they fill.
    unsafe = num_singles // 5
    wild = inputs.reweights(
        inputs.stream(DATASET_SEED, name, "reweight-log"), edges, unsafe)
    # Safe must mean safe whenever it is applied: judge slack on a graph where
    # every arbitrarily reweighted edge is at its heaviest (detours at their
    # longest), and leave those edges themselves alone.
    heavy = [dict(row) for row in adj]
    for _k, u, v, w in wild:
        heavy[u][v] = heavy[v][u] = max(heavy[u][v], w)
    touched = {(u, v) for _k, u, v, _w in wild}
    calm = [(u, v) for u, v, _w in edges if (u, v) not in touched]
    safe = iter(inputs.slack_raises(
        inputs.stream(seed, name, "safe-singles"), heavy, calm,
        num_singles - unsafe))
    wild_slots = dict(zip(inputs.stream(DATASET_SEED, name, "reweight-slots")
                          .sample(range(num_singles), unsafe), wild))
    singles = [wild_slots[i] if i in wild_slots else next(safe)
               for i in range(num_singles)]
    batches = inputs.slack_raises(
        inputs.stream(seed, name, "batches"), heavy, calm,
        cycles * rounds_per_cycle * batch)
    probes = [inputs.near_pair(adj, pool)] * (cycles * rounds_per_cycle)
    ops: List[Tuple] = []
    u = b = 0
    for cycle in range(cycles):
        # churn phase: below the auto crossover, the dict plane answers
        for i in range(churn):
            ops.append(("update", singles[u]))
            ops.append(churn_q[cycle * churn + i])
            u += 1
        # read phase: above it, each update buys a dense rebuild
        for i in range(reads):
            ops.append(("update", singles[u]))
            u += 1
            at = (cycle * reads + i) * fan
            ops += read_q[at:at + fan]
        for _ in range(rounds_per_cycle):
            ops.append(("round", tuple(batches[b * batch:(b + 1) * batch]),
                        probes[b]))
            b += 1
    return Plan(name, seed, n, edges, ops, nominal_ms={
        "distance": 5.0, "path": 5.5, "update": 1.0, "round": 90.0,
    })


def plan_serve_shm(seed: int) -> Plan:
    name = "serve-shm"
    n, edges, adj, pool = _power_law()
    rng = inputs.stream(seed, name, "ops")
    rounds, singles, batch, per_round = 8, 48, 72, 90
    updates = _sliding(seed, name, n, edges, rounds * (singles + batch))
    probes = [inputs.near_pair(adj, pool)] * rounds
    groups = _write_tail(updates, probes, singles, batch)
    queries = _singles(seed, name, adj, pool, distances=rounds * per_round)
    ops: List[Tuple] = []
    for r, group in enumerate(groups):
        ops += group
        ops += queries[r * per_round:(r + 1) * per_round]
    ops.append(("map", tuple(_perturbed(
        rng, _pair_log(name, "map-log", adj, pool, 256), 256))))
    ops += _many_ops(name, pool, 4, 16)
    return Plan(name, seed, n, edges, ops, nominal_ms={
        "distance": 1.5, "many": 3.0, "map": 0.6, "update": 0.22,
        "round": 60.0,
    })


def plan_sync_tcp(seed: int) -> Plan:
    name = "sync-tcp"
    n, edges, adj, pool = _grid()
    rounds, singles, batch, per_round = 12, 4, 7, 17
    churn_rng = inputs.stream(seed, name, "updates")
    probes = [inputs.near_pair(adj, pool)] * rounds
    queries = _singles(seed, name, adj, pool, distances=rounds * per_round)
    ops: List[Tuple] = []
    for r in range(rounds):
        # localised churn: safe raises inside one 16x16 block of the grid
        window = inputs.grid_window(churn_rng, GRID_SIDE, edges, 16)
        churn = inputs.slack_raises(churn_rng, adj, window, singles + batch)
        for update in churn:
            adj[update[1]][update[2]] = adj[update[2]][update[1]] = update[3]
        ops += [("update", u) for u in churn[:singles]]
        ops.append(("round", tuple(churn[singles:]), probes[r]))
        ops += queries[r * per_round:(r + 1) * per_round]
    return Plan(name, seed, n, edges, ops, nominal_ms={
        "distance": 5.0, "update": 0.2, "round": 120.0,
    })


@dataclass(frozen=True)
class Claim:
    """The part of a workload's ``why`` a trace can check: ``layers`` together
    hold at least ``share`` of the self time of the ops behind ``of`` —
    ``"lag_share"`` (rounds) or ``"query_share"`` (query ops), as in
    ``perf.layers.SHARES``.  Shares are set a fifth below what was measured
    when the workload was written (``perf/README.md`` has the measurements)."""

    of: str
    layers: Tuple[str, ...]
    share: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: Mode
    plan: Callable[[int], Plan]
    claims: Tuple[Claim, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "engine-read",
        "read-heavy on a high-diameter grid, dense live facade: core's "
        "search loop and workspace are 99% of query time; the short write "
        "tail's lag is three quarters snapshot->CSR",
        Mode(backend="dense", target="live"), plan_engine_read,
        claims=(Claim("query_share", ("core",), 0.80),
                Claim("lag_share", ("graph",), 0.55))),
    Workload(
        "ingest-publish",
        "write-heavy sliding window on a power-law graph, apply -> publish "
        "-> view probe: a round is 55% snapshot->CSR and 30% hub "
        "maintenance, the search loop almost none of it",
        Mode(backend="auto", target="view"), plan_ingest_publish,
        claims=(Claim("lag_share", ("graph", "streaming"), 0.70),
                Claim("lag_share", ("streaming",), 0.24))),
    Workload(
        "live-mixed",
        "writes beside reads on the live facade, backend=auto, both sides "
        "of the dense crossover: queries are core plus the CSR rebuild each "
        "update buys (a tenth), one update at a time",
        Mode(backend="auto", target="live"), plan_live_mixed,
        claims=(Claim("query_share", ("graph",), 0.08),
                Claim("query_share", ("core", "graph"), 0.80))),
    Workload(
        "serve-shm",
        "query-heavy through one shm worker, scattered churn: the pool hop "
        "is a quarter of query time; shm export and the worker's slot "
        "release are a third of the lag, snapshot->CSR half",
        Mode(backend="auto", target="session", transport="shm"),
        plan_serve_shm,
        claims=(Claim("query_share", ("serving.pool",), 0.18),
                Claim("lag_share", ("serving.shm", "serving.registry"), 0.26))),
    Workload(
        "sync-tcp",
        "publish-heavy through one tcp worker, delta sync, localised safe "
        "churn: codec encode/apply and the tcp fetch are 30% of the lag "
        "(snapshot->CSR 55%), queries 90% core",
        Mode(backend="auto", target="session", transport="tcp", delta=True),
        plan_sync_tcp,
        claims=(Claim("lag_share", ("serving.codec", "serving.net"), 0.24),
                Claim("query_share", ("core",), 0.70))),
)}
