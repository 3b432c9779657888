"""One function per reconstructed experiment (E1–E24).

Each ``run_eN`` returns the table rows the corresponding paper table/figure
would carry; the ``benchmarks/bench_eN_*.py`` modules execute them under
pytest-benchmark and print them.  Run everything standalone with::

    python -m repro.bench.experiments

Sizes are tuned so the full suite completes in a few minutes of pure
Python; see DESIGN.md for the scale-substitution rationale.
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.dijkstra import bidirectional_dijkstra, dijkstra_distance
from repro.baselines.propagation import PropagationEngine
from repro.baselines.recompute import RecomputeEngine
from repro.baselines.streaming_engine import ContinuousPairwiseEngine
from repro.bench.harness import run_query_workload, time_callable
from repro.bench.workloads import build_workload
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.pruning import PruningPolicy
from repro.core.config import SGraphConfig
from repro.graph.datasets import DATASETS, load_dataset, load_scaled
from repro.graph.generators import rmat_graph
from repro.graph.stats import profile_graph, sample_vertex_pairs
from repro.sgraph import SGraph
from repro.streaming.ingest import IngestEngine
from repro.streaming.scheduler import EpochScheduler
from repro.streaming.versioning import VersionedStore
from repro.streaming.update import batched
from repro.streaming.workload import (
    insert_only_stream,
    mixed_stream,
    sliding_window_stream,
)

Row = Dict[str, object]

#: datasets used by the per-dataset experiments (kept to three for runtime)
CORE_DATASETS = ("social-pl", "road-grid", "collab-sw")

def _pct(x: float) -> float:
    return round(100.0 * x, 2)


def _ms(x: float) -> float:
    return round(1e3 * x, 3)


# ---------------------------------------------------------------------------
# E1 — dataset table
# ---------------------------------------------------------------------------

def run_e1_datasets() -> List[Row]:
    """Structural profile of every dataset proxy (the paper's Table 1)."""
    rows: List[Row] = []
    for name, spec in DATASETS.items():
        graph = load_dataset(name)
        row: Row = {"dataset": name, "models": spec.stands_in_for}
        row.update(profile_graph(graph).as_row())
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E2 — activation fraction per pruning policy (the headline figure)
# ---------------------------------------------------------------------------

def run_e2_activations(num_pairs: int = 24) -> List[Row]:
    """Mean activation fraction by pruning policy and dataset.

    Claim validated: upper-bound-only pruning removes about half of the
    activations of the unpruned propagation model; SGraph's lower-bound
    pruning activates under ~1% of the vertices.
    """
    rows: List[Row] = []
    for dataset in CORE_DATASETS:
        wl = build_workload(dataset, num_pairs=num_pairs)
        engines: List[Tuple[str, Callable]] = [
            ("propagate/none",
             PropagationEngine(wl.graph, policy=PruningPolicy.NONE).distance),
            ("propagate/upper-only",
             PropagationEngine(wl.graph, index=wl.index,
                               policy=PruningPolicy.UPPER_ONLY).distance),
            ("propagate/upper+lower",
             PropagationEngine(wl.graph, index=wl.index,
                               policy=PruningPolicy.UPPER_AND_LOWER).distance),
        ]
        sgraph_engine = PairwiseEngine(
            wl.graph, index=wl.index, policy=PruningPolicy.UPPER_AND_LOWER
        )
        for label, query in engines + [("sgraph (ordered)", None)]:
            if query is None:
                agg = run_query_workload(sgraph_engine.best_cost, wl.pairs)
            else:
                agg = run_query_workload(
                    lambda s, t, q=query: _unwrap(q(s, t)), wl.pairs
                )
            rows.append({
                "dataset": dataset,
                "engine": label,
                "act/query": round(agg.mean_activations, 1),
                "act%": _pct(agg.mean_activation_fraction(wl.num_vertices)),
                "index-only%": _pct(agg.answered_by_index / agg.total),
            })
    return rows


def _unwrap(result) -> Tuple[float, object]:
    return result.value, result.stats


def _dense_engine_for(wl, policy: PruningPolicy) -> PairwiseEngine:
    """A dense-plane-served engine over a workload's frozen state.

    Mirrors what a published :class:`FrozenView` serves: freeze the live
    hub index (a no-op after the first call), adopt the tables by reference
    over the snapshot, and attach the CSR + numpy-table plane.
    """
    snapshot = wl.graph.snapshot()
    index = wl.index
    fwd, bwd = index.freeze()
    frozen = HubIndex.from_tables(
        snapshot, index.hubs, index.semiring, fwd,
        backward_tables=bwd if snapshot.directed else None,
        copy=False, large_diameter=index.large_diameter,
    )
    plane = DensePlane.build(snapshot, index.hubs, fwd, bwd,
                             large_diameter=index.large_diameter)
    return PairwiseEngine(snapshot, index=frozen, policy=policy, dense=plane)


# ---------------------------------------------------------------------------
# E3 — query latency vs baselines
# ---------------------------------------------------------------------------

def run_e3_latency(num_pairs: int = 24, backend: str = "auto") -> List[Row]:
    """Mean distance-query latency per engine; speedup relative to the
    exhaustive recompute model (claim: several orders of magnitude).

    ``backend="dense"`` serves the two index-using engines from the dense
    plane (flat-array search over CSR + numpy hub tables); ``"auto"`` and
    ``"dict"`` keep the dict reference path this table historically showed.
    """
    rows: List[Row] = []
    for dataset in CORE_DATASETS:
        wl = build_workload(dataset, num_pairs=num_pairs)
        recompute = RecomputeEngine(wl.graph)
        if backend == "dense":
            ub_engine = _dense_engine_for(wl, PruningPolicy.UPPER_ONLY)
            sg_engine = _dense_engine_for(wl, PruningPolicy.UPPER_AND_LOWER)
        else:
            ub_engine = PairwiseEngine(wl.graph, index=wl.index,
                                       policy=PruningPolicy.UPPER_ONLY)
            sg_engine = PairwiseEngine(wl.graph, index=wl.index,
                                       policy=PruningPolicy.UPPER_AND_LOWER)
        contenders: List[Tuple[str, Callable]] = [
            ("recompute", lambda s, t: _unwrap(recompute.distance(s, t))),
            ("dijkstra", lambda s, t: dijkstra_distance(wl.graph, s, t)),
            ("bidirectional", lambda s, t: bidirectional_dijkstra(wl.graph, s, t)),
            ("upper-only", ub_engine.best_cost),
            ("sgraph", sg_engine.best_cost),
        ]
        base_latency = None
        for label, query in contenders:
            agg = run_query_workload(query, wl.pairs)
            if base_latency is None:
                base_latency = agg.mean_elapsed
            rows.append({
                "dataset": dataset,
                "engine": label,
                "mean_ms": _ms(agg.mean_elapsed),
                "p99_ms": _ms(agg.p(0.99)),
                "speedup": round(base_latency / max(agg.mean_elapsed, 1e-9), 1),
            })
    return rows


# ---------------------------------------------------------------------------
# E4 — latency and activations by query type
# ---------------------------------------------------------------------------

def run_e4_query_types(num_pairs: int = 24) -> List[Row]:
    """All four pairwise query kinds through the SGraph facade."""
    rows: List[Row] = []
    for dataset in ("social-pl", "road-grid"):
        graph = load_dataset(dataset)
        sg = SGraph(graph=graph, config=SGraphConfig(
            num_hubs=16, queries=("distance", "hops", "capacity")))
        sg.rebuild_indexes()  # build outside the timed region
        pairs = sample_vertex_pairs(graph, num_pairs, seed=11, min_hops=2)
        kinds: List[Tuple[str, Callable]] = [
            ("distance", sg.distance),
            ("hops", sg.hop_distance),
            ("reachability", sg.reachable),
            ("bottleneck", sg.bottleneck),
        ]
        for label, query in kinds:
            agg = run_query_workload(
                lambda s, t, q=query: _unwrap(q(s, t)), pairs
            )
            rows.append({
                "dataset": dataset,
                "query": label,
                "mean_ms": _ms(agg.mean_elapsed),
                "act/query": round(agg.mean_activations, 1),
                "index-only%": _pct(agg.answered_by_index / agg.total),
            })
    return rows


# ---------------------------------------------------------------------------
# E5 — ingestion throughput
# ---------------------------------------------------------------------------

def run_e5_ingest(num_updates: int = 3000) -> List[Row]:
    """Updates/second by stream shape and index maintenance load.

    Claim validated (relative form): ingestion sustains high update rates
    and the hub index costs a bounded constant factor over raw ingestion.
    """
    rows: List[Row] = []
    for stream_name, stream_fn in (
        ("insert-only", insert_only_stream),
        ("sliding-window", sliding_window_stream),
        ("mixed-80/20", lambda g, n, seed=0: mixed_stream(g, n, 0.8, seed=seed)),
    ):
        for label, with_index in (("graph-only", False), ("graph+index(k=16)", True)):
            graph = load_dataset("social-pl")
            listeners = []
            if with_index:
                listeners.append(HubIndex.build(graph, 16))
            engine = IngestEngine(graph, listeners)
            updates = list(stream_fn(graph, num_updates, seed=5))
            stats = engine.apply_all(updates)
            rows.append({
                "stream": stream_name,
                "pipeline": label,
                "updates": stats.applied,
                "ups": round(stats.updates_per_second),
                "settled/update": round(
                    stats.maintenance_settled / max(stats.applied, 1), 2),
            })
    return rows


# ---------------------------------------------------------------------------
# E6 — incremental maintenance vs full rebuild
# ---------------------------------------------------------------------------

def run_e6_maintenance(batch_sizes: Sequence[int] = (1, 10, 100, 1000)) -> List[Row]:
    """Per-batch index maintenance cost: incremental repair vs full rebuild."""
    rows: List[Row] = []
    for batch_size in batch_sizes:
        graph = load_dataset("social-pl")
        index = HubIndex.build(graph, 16)
        engine = IngestEngine(graph, [index])
        updates = list(sliding_window_stream(graph, 5 * batch_size, seed=9))
        batches = list(batched(iter(updates), batch_size))

        incr_seconds = 0.0
        for batch in batches:
            start = time.perf_counter()
            for update in batch:
                engine.apply_update(update)
            incr_seconds += time.perf_counter() - start
        incr_per_batch = incr_seconds / len(batches)

        rebuild_per_batch = time_callable(index.rebuild, repeat=2)
        rows.append({
            "batch": batch_size,
            "incremental_ms": _ms(incr_per_batch),
            "rebuild_ms": _ms(rebuild_per_batch),
            "speedup": round(rebuild_per_batch / max(incr_per_batch, 1e-9), 1),
        })
    return rows


# ---------------------------------------------------------------------------
# E7 — hub-count and strategy sensitivity
# ---------------------------------------------------------------------------

def run_e7_hubs(
    hub_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    num_pairs: int = 24,
) -> List[Row]:
    """Bound tightness vs hub count k and selection strategy."""
    rows: List[Row] = []
    for dataset in ("social-pl", "road-grid"):
        graph = load_dataset(dataset)
        pairs = sample_vertex_pairs(graph, num_pairs, seed=13, min_hops=2)
        for k in hub_counts:
            index = HubIndex.build(graph, k, strategy="degree")
            engine = PairwiseEngine(graph, index=index)
            agg = run_query_workload(engine.best_cost, pairs)
            rows.append({
                "dataset": dataset,
                "strategy": "degree",
                "k": k,
                "act%": _pct(agg.mean_activation_fraction(graph.num_vertices)),
                "index-only%": _pct(agg.answered_by_index / agg.total),
                "mean_ms": _ms(agg.mean_elapsed),
            })
        for strategy in ("random", "far-apart", "auto"):
            index = HubIndex.build(graph, 16, strategy=strategy, seed=3)
            engine = PairwiseEngine(graph, index=index)
            agg = run_query_workload(engine.best_cost, pairs)
            rows.append({
                "dataset": dataset,
                "strategy": strategy,
                "k": 16,
                "act%": _pct(agg.mean_activation_fraction(graph.num_vertices)),
                "index-only%": _pct(agg.answered_by_index / agg.total),
                "mean_ms": _ms(agg.mean_elapsed),
            })
    return rows


# ---------------------------------------------------------------------------
# E8 — query latency under concurrent update load
# ---------------------------------------------------------------------------

def run_e8_concurrent(
    update_rates: Sequence[int] = (10, 100, 500),
    rounds: int = 10,
    queries_per_round: int = 10,
) -> List[Row]:
    """Query latency percentiles while the graph is being updated."""
    rows: List[Row] = []
    for updates_per_round in update_rates:
        graph = load_dataset("social-pl")
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=16))
        sg.distance(*next(iter(sample_vertex_pairs(graph, 1, seed=1))))  # build index
        pairs = sample_vertex_pairs(graph, 64, seed=17, min_hops=2)
        updates = sliding_window_stream(
            graph, updates_per_round * rounds, seed=23
        )
        scheduler = EpochScheduler(sg, sg.distance)
        report = scheduler.run(
            updates, pairs,
            updates_per_round=updates_per_round,
            queries_per_round=queries_per_round,
        )
        row: Row = {"updates/round": updates_per_round}
        row.update(report.as_row())
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E9 — crossover vs the continuous streaming engine
# ---------------------------------------------------------------------------

def run_e9_crossover(
    source_counts: Sequence[int] = (1, 4, 16, 64),
    num_updates: int = 400,
    num_queries: int = 200,
) -> List[Row]:
    """Total (update + query) time: SGraph vs continuous per-source
    maintenance, sweeping the number of distinct query sources.

    Shape validated: continuous maintenance wins only when the query working
    set is tiny; SGraph's cost is independent of it.
    """
    rows: List[Row] = []
    for num_sources in source_counts:
        # --- SGraph ---------------------------------------------------------
        graph = load_dataset("collab-sw")
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=16))
        pairs = _pairs_with_sources(graph, num_sources, num_queries, seed=31)
        sg.distance(*pairs[0])  # force index build outside the timed region
        updates = list(sliding_window_stream(graph, num_updates, seed=37))
        start = time.perf_counter()
        for update in updates:
            sg.apply_update(update)
        sg_update = time.perf_counter() - start
        start = time.perf_counter()
        for s, t in pairs:
            sg.distance(s, t)
        sg_query = time.perf_counter() - start

        # --- continuous maintenance ------------------------------------------
        graph2 = load_dataset("collab-sw")
        cont = ContinuousPairwiseEngine(graph2)
        cont.register_pairs(pairs)
        ingest = IngestEngine(graph2, [cont])
        updates2 = list(sliding_window_stream(graph2, num_updates, seed=37))
        start = time.perf_counter()
        for update in updates2:
            ingest.apply_update(update)
        cont_update = time.perf_counter() - start
        start = time.perf_counter()
        for s, t in pairs:
            cont.distance(s, t)
        cont_query = time.perf_counter() - start

        rows.append({
            "sources": num_sources,
            "sgraph_total_ms": _ms(sg_update + sg_query),
            "continuous_total_ms": _ms(cont_update + cont_query),
            "winner": ("continuous"
                       if cont_update + cont_query < sg_update + sg_query
                       else "sgraph"),
        })
    return rows


def _pairs_with_sources(
    graph, num_sources: int, num_queries: int, seed: int
) -> List[Tuple[int, int]]:
    import random

    base = sample_vertex_pairs(graph, max(num_sources, 8), seed=seed, min_hops=2)
    sources = [s for s, _t in base][:num_sources]
    targets = [t for _s, t in sample_vertex_pairs(graph, 64, seed=seed + 1)]
    rng = random.Random(seed + 2)
    return [
        (rng.choice(sources), rng.choice(targets)) for _ in range(num_queries)
    ]


# ---------------------------------------------------------------------------
# E10 — index size
# ---------------------------------------------------------------------------

def run_e10_memory(
    hub_counts: Sequence[int] = (4, 16, 64),
    scales: Sequence[float] = (0.5, 1.0, 2.0),
) -> List[Row]:
    """Index entries and estimated bytes vs hub count and graph scale."""
    rows: List[Row] = []
    for scale in scales:
        graph = load_scaled("social-pl", scale)
        for k in hub_counts:
            index = HubIndex.build(graph, k)
            rows.append({
                "scale": scale,
                "|V|": graph.num_vertices,
                "k": k,
                "entries": index.size_entries(),
                "approx_MB": round(index.size_bytes() / 2**20, 2),
                "entries/vertex": round(
                    index.size_entries() / graph.num_vertices, 1),
            })
    return rows


# ---------------------------------------------------------------------------
# E11 (ablation) — bound tightness by hub strategy and count
# ---------------------------------------------------------------------------

def run_e11_bound_tightness(num_pairs: int = 48) -> List[Row]:
    """Bound-gap distribution per hub configuration.

    The ablation behind E2/E7: pruning power is bound tightness.  Reports
    the fraction of pairs whose bounds close exactly (answerable with zero
    traversal) and the gap-ratio percentiles.
    """
    from repro.core.diagnostics import bound_gap_profile

    rows: List[Row] = []
    for dataset in ("social-pl", "road-grid"):
        graph = load_dataset(dataset)
        pairs = sample_vertex_pairs(graph, num_pairs, seed=51, min_hops=2)
        configs = [("degree", 4), ("degree", 16), ("degree", 64),
                   ("random", 16), ("far-apart", 16)]
        for strategy, k in configs:
            index = HubIndex.build(graph, k, strategy=strategy, seed=3)
            report = bound_gap_profile(index, pairs)
            row: Row = {"dataset": dataset, "strategy": strategy, "k": k}
            row.update(report.as_row())
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E12 (extension) — bounded-error approximation trade-off
# ---------------------------------------------------------------------------

def run_e12_tolerance(
    tolerances: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 1.0),
    num_pairs: int = 24,
) -> List[Row]:
    """Latency/accuracy trade: activations and index-only answers vs the
    allowed error factor, plus the error actually incurred."""
    rows: List[Row] = []
    graph = load_dataset("social-pl")
    index = HubIndex.build(graph, 16)
    engine = PairwiseEngine(graph, index=index)
    pairs = sample_vertex_pairs(graph, num_pairs, seed=53, min_hops=2)
    exact = {pair: engine.best_cost(*pair)[0] for pair in pairs}
    for tolerance in tolerances:
        agg = run_query_workload(
            lambda s, t, tol=tolerance: engine.best_cost(s, t, tolerance=tol),
            pairs,
        )
        worst_error = 0.0
        for pair in pairs:
            value, _stats = engine.best_cost(*pair, tolerance=tolerance)
            if exact[pair] > 0:
                worst_error = max(worst_error, value / exact[pair] - 1.0)
        rows.append({
            "tolerance": tolerance,
            "act/query": round(agg.mean_activations, 1),
            "index-only%": _pct(agg.answered_by_index / agg.total),
            "mean_ms": _ms(agg.mean_elapsed),
            "worst_err%": _pct(worst_error),
        })
    return rows


# ---------------------------------------------------------------------------
# E13 (extension) — directed graphs
# ---------------------------------------------------------------------------

def run_e13_directed(num_pairs: int = 20) -> List[Row]:
    """Pruning effectiveness on a *directed* web-graph proxy.

    Directed graphs double the index (per-hub forward and backward trees)
    and asymmetric reachability makes the lower bound's unreachability
    proofs do real work — many directed pairs simply have no path, and the
    index answers those instantly.
    """
    graph = load_dataset("web-dir")
    index = HubIndex.build(graph, 16, strategy="degree")
    engines: List[Tuple[str, object]] = [
        ("none", PairwiseEngine(graph, policy=PruningPolicy.NONE)),
        ("upper-only", PairwiseEngine(graph, index=index,
                                      policy=PruningPolicy.UPPER_ONLY)),
        ("sgraph", PairwiseEngine(graph, index=index,
                                  policy=PruningPolicy.UPPER_AND_LOWER)),
    ]
    # Directed pairs: sample from all vertices, not just mutually reachable
    # ones, so the unreachable-pair behaviour is part of the measurement.
    import random

    rng = random.Random(61)
    vertices = list(graph.vertices())
    pairs = []
    while len(pairs) < num_pairs:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            pairs.append((s, t))
    rows: List[Row] = []
    for label, engine in engines:
        agg = run_query_workload(engine.best_cost, pairs)
        rows.append({
            "engine": label,
            "act/query": round(agg.mean_activations, 1),
            "act%": _pct(agg.mean_activation_fraction(graph.num_vertices)),
            "index-only%": _pct(agg.answered_by_index / agg.total),
            "mean_ms": _ms(agg.mean_elapsed),
        })
    return rows


# ---------------------------------------------------------------------------
# E16 (extension) — third algebra: most-reliable path
# ---------------------------------------------------------------------------

def run_e16_reliability(num_pairs: int = 20) -> List[Row]:
    """Pruning effectiveness under the multiplicative reliability algebra.

    Generality check: the same index/bound machinery, instantiated with the
    probability-product semiring, prunes most-reliable-path queries on a
    sensor-mesh proxy whose weights are link success probabilities.
    """
    from repro.core.semiring import RELIABILITY_PRODUCT

    graph = load_dataset("sensor-rel")
    index = HubIndex.build(graph, 16, semiring=RELIABILITY_PRODUCT)
    engines: List[Tuple[str, PairwiseEngine]] = [
        ("none", PairwiseEngine(graph, policy=PruningPolicy.NONE,
                                semiring=RELIABILITY_PRODUCT)),
        ("upper-only", PairwiseEngine(graph, index=index,
                                      policy=PruningPolicy.UPPER_ONLY)),
        ("sgraph", PairwiseEngine(graph, index=index,
                                  policy=PruningPolicy.UPPER_AND_LOWER)),
    ]
    pairs = sample_vertex_pairs(graph, num_pairs, seed=81, min_hops=2)
    rows: List[Row] = []
    for label, engine in engines:
        agg = run_query_workload(engine.best_cost, pairs)
        rows.append({
            "engine": label,
            "act/query": round(agg.mean_activations, 1),
            "act%": _pct(agg.mean_activation_fraction(graph.num_vertices)),
            "index-only%": _pct(agg.answered_by_index / agg.total),
            "mean_ms": _ms(agg.mean_elapsed),
        })
    return rows


# ---------------------------------------------------------------------------
# E17 (extension) — epoch-guarded result cache on skewed query workloads
# ---------------------------------------------------------------------------

def run_e17_cache(
    num_queries: int = 300,
    updates_per_round: int = 20,
    skew: float = 1.5,
) -> List[Row]:
    """Serving-layer cache: hot-pair hit rates between update rounds.

    A Zipf-skewed query stream re-asks popular pairs; between update rounds
    the epoch is stable so repeats hit the cache, and every update round
    implicitly invalidates (the epoch moves).  Rows sweep the query skew.
    """
    from repro.streaming.workload import query_stream

    rows: List[Row] = []
    for skew_value in (0.0, skew, 2 * skew):
        graph = load_dataset("social-pl")
        sg = SGraph(graph=graph,
                    config=SGraphConfig(num_hubs=16, cache_size=256))
        sg.rebuild_indexes()
        pairs = query_stream(graph, num_queries, skew=skew_value, seed=91)
        updates = iter(sliding_window_stream(graph, 10_000, seed=92))
        start = time.perf_counter()
        for i, (s, t) in enumerate(pairs):
            if i and i % updates_per_round == 0:
                for _ in range(5):
                    sg.apply_update(next(updates))
            sg.distance(s, t)
        elapsed = time.perf_counter() - start
        cache = sg.cache
        assert cache is not None
        row: Row = {
            "query_skew": skew_value,
            "queries": num_queries,
            "total_ms": _ms(elapsed),
        }
        row.update(cache.stats_row())
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E18 (extension) — delta-proportional snapshot + publish latency
# ---------------------------------------------------------------------------

def run_e18_publish(
    scales: Sequence[int] = (12, 15),
    edge_factor: int = 8,
    deltas: Sequence[int] = (1, 10, 100, 1000),
    publishes_per_delta: int = 3,
    seed: int = 18,
) -> List[Row]:
    """Snapshot+publish latency as a function of churn delta.

    Claim reproduced: with delta-versioned storage the cost of publishing a
    queryable version tracks the number of updates since the last publish,
    not |V|+|E| — the same per-delta latency shows up at both R-MAT scales
    (~8x apart in size) while the initial full-copy publish grows with the
    graph.  ``publish_ms`` is the best of ``publishes_per_delta`` rounds
    (each round applies ``delta`` random edge insertions, then publishes).
    """
    rows: List[Row] = []
    for scale in scales:
        graph = rmat_graph(scale, edge_factor, seed=seed,
                           weight_range=(1.0, 4.0))
        sg = SGraph(graph=graph,
                    config=SGraphConfig(num_hubs=8, queries=("distance",)))
        sg.rebuild_indexes()
        store = VersionedStore(sg, capacity=4)
        rng = random.Random(seed)
        verts = list(graph.vertices())
        start = time.perf_counter()
        store.publish()
        first_publish = time.perf_counter() - start
        for delta in deltas:
            best = math.inf
            for _rep in range(publishes_per_delta):
                for _ in range(delta):
                    sg.add_edge(rng.choice(verts), rng.choice(verts),
                                rng.uniform(1.0, 4.0))
                start = time.perf_counter()
                store.publish()
                best = min(best, time.perf_counter() - start)
            rows.append({
                "scale": scale,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "delta": delta,
                "publish_ms": _ms(best),
                "full_publish_ms": _ms(first_publish),
            })
    return rows


# ---------------------------------------------------------------------------
# E19 (extension) — dict vs dense serving plane
# ---------------------------------------------------------------------------

def run_e19_backend(num_pairs: int = 32) -> List[Row]:
    """Pairwise-query latency of the dict plane vs the dense plane.

    Same frozen state, same pruned bidirectional algorithm, same answers
    (the ``match`` column verifies value parity pair by pair) — the only
    difference is the serving representation: dict-of-dict adjacency and
    dict hub tables vs CSR arrays and numpy hub rows with flat search
    state.  The dense rows should dominate on both the R-MAT-style and
    grid stand-ins; ``benchmarks/bench_e19_backend.py`` asserts it.
    """
    rows: List[Row] = []
    for dataset in ("social-pl", "road-grid"):
        wl = build_workload(dataset, num_pairs=num_pairs)
        dict_engine = PairwiseEngine(wl.graph, index=wl.index,
                                     policy=PruningPolicy.UPPER_AND_LOWER)
        dense_engine = _dense_engine_for(wl, PruningPolicy.UPPER_AND_LOWER)
        match = all(
            dict_engine.best_cost(s, t)[0] == dense_engine.best_cost(s, t)[0]
            for s, t in wl.pairs
        )
        for label, engine in (("dict", dict_engine), ("dense", dense_engine)):
            agg = run_query_workload(engine.best_cost, wl.pairs)
            rows.append({
                "dataset": dataset,
                "backend": label,
                "median_ms": _ms(agg.p(0.5)),
                "mean_ms": _ms(agg.mean_elapsed),
                "p99_ms": _ms(agg.p(0.99)),
                "act/query": round(agg.mean_activations, 1),
                "index-only%": _pct(agg.answered_by_index / agg.total),
                "match": match,
            })
    return rows


# ---------------------------------------------------------------------------
# E21 (extension) — multiprocess shm serving: scaling + attach latency
# ---------------------------------------------------------------------------

def run_e21_shm_serving(
    worker_counts: Optional[Sequence[int]] = None,
    num_pairs: int = 192,
    ingest_rounds: int = 3,
    updates_per_round: int = 20,
    attach_scales: Sequence[float] = (0.25, 0.5, 1.0),
) -> List[Row]:
    """Throughput scaling of the shm worker pool, with concurrent ingest.

    Per dataset: a single-process baseline answers the full query schedule
    against published views (dense plane, same ``_search_dense`` hot path)
    while ingesting between rounds; then the identical schedule fans out
    over a :class:`~repro.serving.pool.ServeSession` with 1/2/4 reader
    processes attached to the shm-exported planes.  An untimed parity pass
    at the final epoch checks every pool answer — value AND the six stats
    counters — against a dict-free reference engine over the same frozen
    state, and the ``leaked`` column counts segments left in ``/dev/shm``
    after teardown (must be 0).

    Speedup > 1 requires actual cores; on a single-core box the pool pays
    IPC for no parallelism and the scaling rows document that honestly
    (``benchmarks/bench_e21_shm_serving.py`` gates its ≥2.5× assertion on
    ``len(os.sched_getaffinity(0)) >= 4``).  ``REPRO_E21_WORKERS`` (a
    comma list) overrides the worker counts — CI smoke uses ``1,2``.

    The attach rows measure the handoff cost model: attaching a plane is
    O(#buffers) — map + manifest parse + a few ``np.frombuffer`` views —
    so the latency must stay flat as ``load_scaled`` grows the plane.
    """
    from repro.serving import ShmPlane, leaked_segments, shm_available

    if not shm_available():  # pragma: no cover - exotic platforms only
        return [{"dataset": "-", "workers": 0, "mode": "unavailable"}]
    if worker_counts is None:
        env = os.environ.get("REPRO_E21_WORKERS", "")
        parsed = tuple(int(x) for x in env.split(",") if x.strip())
        worker_counts = parsed or (1, 2, 4)

    rows: List[Row] = []
    for dataset in ("social-pl", "road-grid"):
        pairs = [tuple(p) for p in build_workload(
            dataset, num_pairs=num_pairs).pairs]
        batches = [pairs[i::ingest_rounds] for i in range(ingest_rounds)]
        plan_rng = random.Random(29)
        verts = sorted(load_dataset(dataset).vertices())
        plan = [
            [(plan_rng.choice(verts), plan_rng.choice(verts),
              plan_rng.uniform(0.5, 2.0))
             for _ in range(updates_per_round)]
            for _ in range(ingest_rounds)
        ]

        def fresh_sgraph() -> SGraph:
            return SGraph(graph=load_dataset(dataset), config=SGraphConfig(
                num_hubs=16, queries=("distance",),
            ))

        # -- single-process baseline (same dense search, no pool) --------
        sg = fresh_sgraph()
        store = VersionedStore(sg)
        store.publish()
        start = time.perf_counter()
        for round_no in range(ingest_rounds):
            engine = store.latest().engine("distance")
            for s, t in batches[round_no]:
                engine.best_cost(s, t)
            for u, v, w in plan[round_no]:
                if u != v:
                    sg.add_edge(u, v, w)
            store.publish()
        base_elapsed = time.perf_counter() - start
        rows.append({
            "dataset": dataset, "workers": 0, "mode": "single-process",
            "queries": num_pairs, "elapsed_s": round(base_elapsed, 3),
            "qps": round(num_pairs / base_elapsed, 1), "speedup": 1.0,
            "parity": "-", "leaked": 0,
        })

        # -- shm worker pool at each worker count -------------------------
        for workers in worker_counts:
            sg = fresh_sgraph()
            session = sg.serve(workers=workers)
            prefix = session.prefix
            try:
                start = time.perf_counter()
                for round_no in range(ingest_rounds):
                    session.map_distance(batches[round_no])
                    for u, v, w in plan[round_no]:
                        if u != v:
                            sg.add_edge(u, v, w)
                    session.publish()
                elapsed = time.perf_counter() - start

                # untimed parity pass at the final epoch
                final = session.store.latest()
                reference = PairwiseEngine(
                    final.snapshot, index=final.engine("distance").index,
                    policy=PruningPolicy.UPPER_AND_LOWER,
                )
                sample = pairs[:48]
                matches = 0
                for (s, t), (value, stats, epoch) in zip(
                        sample, session.map_distance(sample)):
                    ref_value, ref_stats = reference.best_cost(s, t)
                    matches += (
                        value == ref_value and epoch == final.epoch
                        and stats.activations == ref_stats.activations
                        and stats.pushes == ref_stats.pushes
                        and stats.relaxations == ref_stats.relaxations
                        and (stats.pruned_by_upper_bound
                             == ref_stats.pruned_by_upper_bound)
                        and (stats.pruned_by_lower_bound
                             == ref_stats.pruned_by_lower_bound)
                        and (stats.answered_by_index
                             == ref_stats.answered_by_index)
                    )
            finally:
                session.close()
            rows.append({
                "dataset": dataset, "workers": workers, "mode": "shm-pool",
                "queries": num_pairs, "elapsed_s": round(elapsed, 3),
                "qps": round(num_pairs / elapsed, 1),
                "speedup": round(base_elapsed / elapsed, 2),
                "parity": f"{matches}/{len(sample)}",
                "leaked": len(leaked_segments(prefix)),
            })

    # -- attach latency vs plane size: O(#buffers), not O(V+E) -----------
    for scale in attach_scales:
        g = load_scaled("social-pl", scale)
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=16, queries=("distance",),
        ))
        store = VersionedStore(sg)
        view = store.publish()
        plane = view.dense_plane("distance")
        name = f"rpe21-{os.getpid():x}-{int(scale * 100)}"
        exported = ShmPlane.export(plane, name, epoch=view.epoch)
        try:
            timings = []
            for _ in range(5):
                t0 = time.perf_counter()
                handle = ShmPlane.attach(name)
                timings.append(time.perf_counter() - t0)
                handle.close()
            timings.sort()
            rows.append({
                "dataset": "social-pl", "workers": 0, "mode": "attach",
                "scale": scale, "n": g.num_vertices,
                "plane_mb": round(exported.nbytes / 2 ** 20, 2),
                "attach_ms": _ms(timings[len(timings) // 2]),
            })
        finally:
            exported.close()
            exported.unlink()
    return rows


# ---------------------------------------------------------------------------
# E22 (extension) — TCP plane transport: loopback overhead + fetch-on-publish
# ---------------------------------------------------------------------------

def run_e22_net_serving(
    worker_counts: Optional[Sequence[int]] = None,
    num_pairs: int = 128,
    ingest_rounds: int = 3,
    updates_per_round: int = 20,
) -> List[Row]:
    """The cost of crossing a socket instead of mapping a segment.

    Per dataset: the identical query/ingest/publish schedule runs over a
    shm-transport pool and a loopback TCP-transport pool; the ``overhead``
    column is the TCP/shm elapsed ratio (both pools run the same
    ``_search_dense`` hot path on locally held planes, so the gap is pure
    transport: fetch-on-publish payload shipping plus the per-query
    control-message-free round-robin — queries themselves never touch the
    socket).  An untimed parity pass at the final epoch checks every TCP
    answer — value AND the six stats counters — against a dict-free
    reference engine; ``fetches`` audits the server's per-reader fetch
    counters (each plane must cross the socket exactly once per reader).

    The visibility rows measure the fetch-on-publish handoff itself: an
    attached remote :class:`~repro.serving.net.NetReader` times
    ``refresh()`` — generation poll, acquire, payload fetch, digest
    verify, decode — right after each publish.  That is the full
    publish→remote-visibility latency; planes already cached re-acquire
    with zero payload bytes.  ``REPRO_E22_WORKERS`` (a comma list)
    overrides the worker counts — CI smoke uses ``1,2``.
    """
    from repro.serving import leaked_segments, shm_available
    from repro.serving.net import NetReader, net_available

    if not net_available():  # pragma: no cover - socketless sandboxes only
        return [{"dataset": "-", "workers": 0, "mode": "unavailable"}]
    if worker_counts is None:
        env = os.environ.get("REPRO_E22_WORKERS", "")
        parsed = tuple(int(x) for x in env.split(",") if x.strip())
        worker_counts = parsed or (2,)

    rows: List[Row] = []
    for dataset in ("social-pl", "road-grid"):
        pairs = [tuple(p) for p in build_workload(
            dataset, num_pairs=num_pairs).pairs]
        batches = [pairs[i::ingest_rounds] for i in range(ingest_rounds)]
        plan_rng = random.Random(31)
        verts = sorted(load_dataset(dataset).vertices())
        plan = [
            [(plan_rng.choice(verts), plan_rng.choice(verts),
              plan_rng.uniform(0.5, 2.0))
             for _ in range(updates_per_round)]
            for _ in range(ingest_rounds)
        ]

        def fresh_sgraph() -> SGraph:
            return SGraph(graph=load_dataset(dataset), config=SGraphConfig(
                num_hubs=16, queries=("distance",),
            ))

        for workers in worker_counts:
            elapsed_by_transport: Dict[str, float] = {}
            transports = (["shm"] if shm_available() else []) + ["tcp"]
            for transport in transports:
                sg = fresh_sgraph()
                session = sg.serve(workers=workers, transport=transport)
                prefix = session.prefix
                try:
                    start = time.perf_counter()
                    for round_no in range(ingest_rounds):
                        session.map_distance(batches[round_no])
                        for u, v, w in plan[round_no]:
                            if u != v:
                                sg.add_edge(u, v, w)
                        session.publish()
                    elapsed = time.perf_counter() - start
                    elapsed_by_transport[transport] = elapsed

                    # untimed parity pass at the final epoch
                    final = session.store.latest()
                    reference = PairwiseEngine(
                        final.snapshot, index=final.engine("distance").index,
                        policy=PruningPolicy.UPPER_AND_LOWER,
                    )
                    sample = pairs[:48]
                    matches = 0
                    for (s, t), (value, stats, epoch) in zip(
                            sample, session.map_distance(sample)):
                        ref_value, ref_stats = reference.best_cost(s, t)
                        matches += (
                            value == ref_value and epoch == final.epoch
                            and stats.activations == ref_stats.activations
                            and stats.pushes == ref_stats.pushes
                            and stats.relaxations == ref_stats.relaxations
                            and (stats.pruned_by_upper_bound
                                 == ref_stats.pruned_by_upper_bound)
                            and (stats.pruned_by_lower_bound
                                 == ref_stats.pruned_by_lower_bound)
                            and (stats.answered_by_index
                                 == ref_stats.answered_by_index)
                        )
                    fetches = "-"
                    if transport == "tcp":
                        counts = session.transport.server.fetch_counts()
                        per_plane = [
                            n for per_digest in counts.values()
                            for n in per_digest.values()
                        ]
                        fetches = (f"max {max(per_plane)}/plane"
                                   if per_plane else "none")
                finally:
                    session.close()
                shm_elapsed = elapsed_by_transport.get("shm")
                rows.append({
                    "dataset": dataset, "workers": workers,
                    "mode": f"{transport}-pool", "queries": num_pairs,
                    "elapsed_s": round(elapsed, 3),
                    "qps": round(num_pairs / elapsed, 1),
                    "overhead": (round(elapsed / shm_elapsed, 2)
                                 if shm_elapsed else "-"),
                    "parity": f"{matches}/{len(sample)}",
                    "fetches": fetches,
                    "leaked": len(leaked_segments(prefix)),
                })

    # -- publish → remote-visibility latency (fetch-on-publish cost) -----
    sg = SGraph(graph=load_dataset("social-pl"), config=SGraphConfig(
        num_hubs=16, queries=("distance",),
    ))
    mut_rng = random.Random(37)
    verts = sorted(sg.graph.vertices())
    session = sg.serve(workers=1, transport="tcp")
    try:
        reader = NetReader(session.transport.address)
        try:
            reader.refresh()  # adopt (and fetch) the first epoch untimed
            cold, warm = [], []
            for _ in range(4):
                u, v = mut_rng.sample(verts, 2)
                sg.add_edge(u, v, mut_rng.uniform(0.5, 2.0))
                session.publish()
                t0 = time.perf_counter()
                reader.refresh()  # poll + acquire + fetch + verify + decode
                cold.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                reader.refresh()  # same generation: one poll, no payload
                warm.append(time.perf_counter() - t0)
            plane = session.store.latest().dense_plane("distance")
            from repro.serving.codec import encoded_size

            rows.append({
                "dataset": "social-pl", "workers": 1, "mode": "visibility",
                "plane_mb": round(encoded_size(plane) / 2 ** 20, 2),
                "fetch_refresh_ms": _ms(sorted(cold)[len(cold) // 2]),
                "cached_poll_ms": _ms(sorted(warm)[len(warm) // 2]),
            })
        finally:
            reader.close()
    finally:
        session.close()
    return rows


# ---------------------------------------------------------------------------
# E23 (extension) — delta-encoded plane sync: O(Δ) epoch visibility
# ---------------------------------------------------------------------------

def _slack_edges(plane, edges):
    """Edges on no hub's shortest-path tree.

    ``(u, v, w)`` is slack when every hub ``h`` has
    ``|d(h,u) - d(h,v)| < w``: the edge is strictly longer than the
    detour both ways, so *increasing* its weight cannot change any hub
    distance — the F table stays bit-identical and only the CSR weights
    buffer churns.  This is the evolving-graph common case (most weight
    updates land off the index's shortest-path trees) and the byte-local
    churn the chunk-addressed delta is built for.
    """
    import numpy as np

    F = plane.tables.F
    dense = plane.csr.dense_map
    out = []
    for u, v, w in edges:
        if np.all(np.abs(F[:, dense[u]] - F[:, dense[v]]) < w - 1e-9):
            out.append((u, v, w))
    return out


def run_e23_delta_sync(
    epochs: Optional[int] = None,
    churn_fraction: float = 0.01,
) -> List[Row]:
    """Bytes-per-epoch and visibility latency of delta plane sync.

    Two churn regimes, each over a ``delta=True`` TCP session with one
    delta-fetching and one full-fetching :class:`NetReader` attached:

    * ``local`` (road-grid) — per epoch, ~1% of edges inside one
      contiguous vertex-id window are re-weighted *upward*, restricted to
      slack edges (see :func:`_slack_edges`) so the hub table is provably
      unchanged and the churn is byte-local in the CSR weights buffer.
      This is the O(Δ) claim the delta codec makes: the per-epoch
      ``ratio`` column (delta frame bytes / full encoding bytes) must
      stay well under 0.10 — the bench asserts it.
    * ``scattered`` (social-pl) — ~1% of edges anywhere are re-weighted
      to fresh values.  Distance changes ripple through the hub table
      and dirty chunks everywhere; the ratio is reported (not asserted)
      as the adversarial bound on what delta sync can save.

    Hubs are degree-selected in both regimes so weight-only churn cannot
    flip the hub set between publishes (a hub swap rewrites F wholesale —
    that case is exactly what the full-frame fallback is for).  The
    ``summary`` row carries the reader's cumulative transfer counters and
    an untimed parity pass at the final epoch: every delta-composed
    answer must equal the in-process view's (the frame compose is
    digest-verified, so a mismatch would have raised long before).  The
    ``evict-fallback`` rows force ``cache_planes=1`` and two publishes
    per refresh, so the reader's base digest is always evicted server
    side: every fetch must degrade to a full frame, never an error.
    ``REPRO_E23_EPOCHS`` overrides the per-regime epoch count — CI smoke
    uses 2.
    """
    from repro.serving.codec import encoded_size
    from repro.serving.net import NetReader, net_available

    if not net_available():  # pragma: no cover - socketless sandboxes only
        return [{"dataset": "-", "mode": "unavailable"}]
    if epochs is None:
        env = os.environ.get("REPRO_E23_EPOCHS", "")
        epochs = int(env) if env.strip() else 4

    rows: List[Row] = []
    for dataset, regime in (("road-grid", "local"),
                            ("social-pl", "scattered")):
        sg = SGraph(graph=load_dataset(dataset), config=SGraphConfig(
            num_hubs=16, hub_strategy="degree", queries=("distance",),
        ))
        g = sg.graph
        m = g.num_edges
        churn_n = max(1, int(m * churn_fraction))
        rng = random.Random(41)
        verts = sorted(g.vertices())
        session = sg.serve(workers=1, transport="tcp", delta=True)
        try:
            delta_reader = NetReader(session.transport.address, delta=True)
            full_reader = NetReader(session.transport.address)
            try:
                delta_reader.refresh()  # bootstrap fetches, untimed
                full_reader.refresh()
                for epoch_no in range(epochs):
                    edges = sorted(g.edges())
                    if regime == "local":
                        plane = session.store.latest().dense_plane(
                            "distance")
                        span = max(2, len(verts) // 12)
                        lo = rng.randrange(len(verts) - span)
                        window = set(verts[lo:lo + span])
                        pool = _slack_edges(plane, [
                            e for e in edges
                            if e[0] in window and e[1] in window
                        ])
                        chosen = pool[:churn_n]
                        for u, v, w in chosen:
                            sg.add_edge(u, v, w + rng.uniform(0.05, 0.3))
                    else:
                        chosen = rng.sample(edges, churn_n)
                        for u, v, _w in chosen:
                            sg.add_edge(u, v, rng.uniform(0.5, 3.0))
                    before = delta_reader.transfer_stats()
                    view = session.publish()
                    full_nbytes = encoded_size(
                        view.dense_plane("distance"), epoch=view.epoch)
                    t0 = time.perf_counter()
                    delta_reader.refresh()
                    delta_s = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    full_reader.refresh()
                    full_s = time.perf_counter() - t0
                    after = delta_reader.transfer_stats()
                    moved = (after["bytes_received"]
                             - before["bytes_received"])
                    rows.append({
                        "dataset": dataset, "mode": f"{regime}-churn",
                        "epoch": epoch_no + 1,
                        "churn_pct": round(100.0 * len(chosen) / m, 2),
                        "full_kb": round(full_nbytes / 1024, 1),
                        "delta_kb": round(moved / 1024, 1),
                        "ratio": round(moved / full_nbytes, 3),
                        "delta_refresh_ms": _ms(delta_s),
                        "full_refresh_ms": _ms(full_s),
                    })
                # untimed parity pass at the final epoch
                final = session.store.latest()
                sample = [tuple(rng.sample(verts, 2)) for _ in range(32)]
                matches = sum(
                    delta_reader.distance(s, t)[0]
                    == final.distance(s, t).value
                    for s, t in sample
                )
                transfer = delta_reader.transfer_stats()
                rows.append({
                    "dataset": dataset, "mode": "summary",
                    "epoch": epochs,
                    "delta_fetches": transfer["delta_fetches"],
                    "full_fetches": transfer["full_fetches"],
                    "bytes_ratio": round(
                        transfer["bytes_received"]
                        / transfer["bytes_full"], 3),
                    "parity": f"{matches}/{len(sample)}",
                })
            finally:
                delta_reader.close()
                full_reader.close()
        finally:
            session.close()

    # -- eviction fallback: the base digest ages out of the history ------
    sg = SGraph(graph=load_dataset("uniform-er"), config=SGraphConfig(
        num_hubs=8, hub_strategy="degree", queries=("distance",),
    ))
    g = sg.graph
    rng = random.Random(43)
    session = sg.serve(workers=1, transport="tcp", delta=True,
                       cache_planes=1)
    try:
        reader = NetReader(session.transport.address, delta=True)
        try:
            reader.refresh()
            edges = sorted(g.edges())
            for _ in range(3):
                for u, v, _w in rng.sample(edges, 10):
                    sg.add_edge(u, v, rng.uniform(0.5, 3.0))
                session.publish()  # evicts the reader's base...
                for u, v, _w in rng.sample(edges, 10):
                    sg.add_edge(u, v, rng.uniform(0.5, 3.0))
                session.publish()  # ...twice over
                reader.refresh()
            transfer = reader.transfer_stats()
            rows.append({
                "dataset": "uniform-er", "mode": "evict-fallback",
                "epoch": 6,
                "delta_fetches": transfer["delta_fetches"],
                "full_fetches": transfer["full_fetches"],
                "bytes_ratio": round(transfer["bytes_received"]
                                     / transfer["bytes_full"], 3),
            })
        finally:
            reader.close()
    finally:
        session.close()
    return rows


def _e24_stats_key(stats) -> tuple:
    """The six pre-workspace counters — the bit-identity comparison basis.

    Workspace counters are excluded on purpose: the reference (cold) path
    reports zero hits by construction, and the parity claim is about the
    *search*, which must not observe the state regime it runs in.
    """
    return (
        stats.activations, stats.pushes, stats.relaxations,
        stats.pruned_by_lower_bound, stats.pruned_by_upper_bound,
        stats.answered_by_index,
    )


def run_e24_workspace(
    side: Optional[int] = None, queries: Optional[int] = None
) -> List[Row]:
    """Warm (reused-workspace) vs cold (fresh-state) dense query latency.

    One ≥100k-vertex plane (a ``side``×``side`` grid, 317² = 100,489 by
    default) served by two engines over the *same* CSR and hub tables: the
    warm engine reuses one :class:`SearchWorkspace` across queries
    (sparse-reset, O(touched) setup), the cold engine is the pre-workspace
    reference — fresh O(V) state every call (``reuse_workspace=False``).

    Workloads:

    * ``pairwise-pruned`` — endpoints within two cells of a hub, so the
      index bounds are tight and the search settles after touching a few
      dozen ids.  Setup dominated these queries before; the bench asserts
      the warm median is at least 2x below the cold one.
    * ``pairwise-unpruned`` — random pairs up to 16 cells apart under
      ``policy="none"``: the search does real traversal work, so the reuse
      win shrinks toward 1x.  Reported unasserted — it documents where the
      optimization stops mattering.
    * ``batched`` — ``one_to_many`` from a source to 16 targets, all within
      two cells of the same hub, same warm/cold split.

    The ``parity`` rows re-run every workload under all three policies on
    both engines and compare values AND stats (:func:`_e24_stats_key`);
    the bench asserts every comparison matches — reuse can never trade
    correctness for latency.  The ``workspace`` row carries the warm
    engine's lifetime counters: exactly one allocation regardless of how
    many queries ran.

    ``REPRO_E24_SIDE`` / ``REPRO_E24_QUERIES`` override the plane side and
    per-workload query count.
    """
    from repro.graph.generators import grid_graph

    if side is None:
        env = os.environ.get("REPRO_E24_SIDE", "")
        side = int(env) if env.strip() else 317
    if queries is None:
        env = os.environ.get("REPRO_E24_QUERIES", "")
        queries = int(env) if env.strip() else 32

    g = grid_graph(side, side, seed=13, weight_range=(1.0, 10.0))
    sg = SGraph(graph=g, config=SGraphConfig(
        num_hubs=4, queries=("distance",), backend="dense",
    ))
    view = VersionedStore(sg).publish()
    plane = view.dense_plane()
    index = view.engine("distance").index
    graph = index.graph
    rng = random.Random(24)

    def near(hub: int, radius: int) -> int:
        r, c = divmod(hub, side)
        rr = min(max(r + rng.randrange(-radius, radius + 1), 0), side - 1)
        cc = min(max(c + rng.randrange(-radius, radius + 1), 0), side - 1)
        return rr * side + cc

    # Keep only pairs the index *prunes* (small traversal) rather than
    # *answers* (zero traversal): index-answered queries return before the
    # workspace is acquired, so they carry no setup cost in either regime.
    probe = PairwiseEngine(graph, index=index, policy="upper+lower",
                           dense=plane)
    pruned_pairs: List[Tuple[int, int]] = []
    while len(pruned_pairs) < queries:
        hub = rng.choice(index.hubs)
        s, t = near(hub, 2), near(hub, 2)
        if s == t:
            continue
        _probe_value, probe_stats = probe.best_cost(s, t)
        if probe_stats.touched_reset > 0:
            pruned_pairs.append((s, t))
    unpruned_pairs: List[Tuple[int, int]] = []
    while len(unpruned_pairs) < queries:
        r, c = rng.randrange(side - 16), rng.randrange(side - 16)
        dr, dc = rng.randrange(16), rng.randrange(16)
        if dr or dc:
            unpruned_pairs.append((r * side + c, (r + dr) * side + (c + dc)))
    # The batch stays around one hub, like the pruned pairs: with hubs
    # spread farthest-point, a target near another hub puts the whole grid
    # between it and the source, and the row would time traversal, not setup.
    batch_source = near(index.hubs[0], 2)
    batch_targets = [near(index.hubs[0], 2) for _ in range(16)]

    def engines(policy: str) -> Tuple[PairwiseEngine, PairwiseEngine]:
        warm = PairwiseEngine(graph, index=index, policy=policy, dense=plane)
        cold = PairwiseEngine(graph, index=index, policy=policy, dense=plane,
                              reuse_workspace=False)
        return warm, cold

    def median_ms(run: Callable[[], object], reps: int) -> Tuple[float, object]:
        samples = []
        last = None
        for _ in range(reps):
            start = time.perf_counter()
            last = run()
            samples.append(time.perf_counter() - start)
        samples.sort()
        return 1e3 * samples[len(samples) // 2], last

    rows: List[Row] = []
    vertices = plane.csr.num_vertices

    def sweep(mode: str, policy: str, pairs: List[Tuple[int, int]]) -> None:
        warm, cold = engines(policy)
        for s, t in pairs[: max(1, len(pairs) // 4)]:
            warm.best_cost(s, t)  # allocate + settle the workspace
        touched: List[int] = []
        warm_samples = []
        cold_samples = []
        for s, t in pairs:
            start = time.perf_counter()
            _value, stats = warm.best_cost(s, t)
            warm_samples.append(time.perf_counter() - start)
            touched.append(stats.touched_reset)
        for s, t in pairs:
            start = time.perf_counter()
            cold.best_cost(s, t)
            cold_samples.append(time.perf_counter() - start)
        warm_samples.sort()
        cold_samples.sort()
        touched.sort()
        warm_ms = 1e3 * warm_samples[len(warm_samples) // 2]
        cold_ms = 1e3 * cold_samples[len(cold_samples) // 2]
        rows.append({
            "mode": mode, "policy": policy, "vertices": vertices,
            "queries": len(pairs),
            "warm_ms": round(warm_ms, 4), "cold_ms": round(cold_ms, 4),
            "ratio": round(cold_ms / warm_ms, 2) if warm_ms else float("inf"),
            "touched_med": touched[len(touched) // 2],
        })

    sweep("pairwise-pruned", "upper+lower", pruned_pairs)
    sweep("pairwise-unpruned", "none", unpruned_pairs)

    # Batched one-to-many, warm vs cold.
    warm, cold = engines("upper+lower")
    warm.one_to_many(batch_source, batch_targets)
    warm_ms, _ = median_ms(
        lambda: warm.one_to_many(batch_source, batch_targets), 8
    )
    cold_ms, _ = median_ms(
        lambda: cold.one_to_many(batch_source, batch_targets), 8
    )
    rows.append({
        "mode": "batched", "policy": "upper+lower", "vertices": vertices,
        "queries": 8,
        "warm_ms": round(warm_ms, 4), "cold_ms": round(cold_ms, 4),
        "ratio": round(cold_ms / warm_ms, 2) if warm_ms else float("inf"),
        "touched_med": "-",
    })

    # Bit-identity parity sweep: warm vs the pre-workspace reference path,
    # every policy, values AND stats, pairwise and batched.
    for policy in ("none", "upper-only", "upper+lower"):
        warm, cold = engines(policy)
        matched = total = 0
        for s, t in pruned_pairs + unpruned_pairs:
            wv, ws_ = warm.best_cost(s, t)
            cv, cs = cold.best_cost(s, t)
            total += 1
            if wv == cv and _e24_stats_key(ws_) == _e24_stats_key(cs):
                matched += 1
        wv, ws_ = warm.one_to_many(batch_source, batch_targets)
        cv, cs = cold.one_to_many(batch_source, batch_targets)
        total += 1
        if wv == cv and _e24_stats_key(ws_) == _e24_stats_key(cs):
            matched += 1
        ws_counters = warm.workspace_stats()
        rows.append({
            "mode": "parity", "policy": policy, "vertices": vertices,
            "queries": total, "parity": f"{matched}/{total}",
            "workspace_allocs": ws_counters["workspace_allocs"],
            "workspace_hits": ws_counters["workspace_hits"],
        })
    return rows


def run_e25_fault_tolerance(
    epochs: Optional[int] = None, queries: Optional[int] = None
) -> List[Row]:
    """Serving correctness under deterministic fault injection.

    Two legs, each comparing a disrupted deployment against an untouched
    one on the *same* published planes — so parity is bit-identity
    (values and the :func:`_e24_stats_key` search counters), not
    tolerance:

    * ``churn`` (TCP) — a seeded :class:`FaultPolicy` (two connection
      drops, two mid-frame truncations, two payload corruptions, one
      latency spike) sits on a :class:`FaultProxy` between a retrying
      :class:`NetReader` and the server; a clean reader dials direct.
      Every epoch of a churn workload is answered by both and compared.
      The ``summary`` row carries the faulted reader's counters: each
      disruptive fault costs exactly one retry (``retries ==
      disruptions``), corruptions are caught by the frame digest
      (``corrupt_frames``), drops/truncations surface as peer-closed
      reconnects, and nothing times out or goes stale.
    * ``respawn`` (shm) — a two-worker pool answers a baseline, one
      worker is SIGKILLed, and the same queries are re-asked: lost
      requests are resubmitted around the corpse while the reap
      respawns it, so every answer still matches and the pool is back
      to full strength (``respawns >= 1``, all workers alive).

    Latency columns report the per-query median — the faulted median
    stays near the clean one because only the faulted *connections* pay
    the backoff, not every query.  ``REPRO_E25_EPOCHS`` /
    ``REPRO_E25_QUERIES`` cap the workload for CI smoke runs.
    """
    from repro.serving import shm_available
    from repro.serving.faults import FaultPolicy, FaultProxy
    from repro.serving.net import NetReader, net_available

    if epochs is None:
        env = os.environ.get("REPRO_E25_EPOCHS", "")
        epochs = int(env) if env.strip() else 3
    if queries is None:
        env = os.environ.get("REPRO_E25_QUERIES", "")
        queries = int(env) if env.strip() else 16

    def median_ms(samples: List[float]) -> float:
        samples = sorted(samples)
        return round(1e3 * samples[len(samples) // 2], 3)

    rows: List[Row] = []

    # -- churn through the fault proxy (TCP) -----------------------------
    if net_available():
        sg = SGraph(graph=load_dataset("road-grid"), config=SGraphConfig(
            num_hubs=16, queries=("distance",),
        ))
        verts = sorted(sg.graph.vertices())
        rng = random.Random(25)
        policy = FaultPolicy(seed=42, drops=2, truncations=2,
                             corruptions=2, delays=1, delay_s=0.05)
        session = sg.serve(workers=1, transport="tcp")
        try:
            server = session.transport.server
            proxy = FaultProxy(server.host, server.port, policy)
            faulted = NetReader(proxy.address, retry=6, backoff=0.01,
                                max_backoff=0.05)
            clean = NetReader(server.address)
            try:
                for epoch_no in range(epochs):
                    if epoch_no:
                        u, v = rng.sample(verts[:50], 2)
                        sg.add_edge(u, v, rng.uniform(0.1, 0.4))
                        session.publish()
                    pairs = [tuple(rng.sample(verts, 2))
                             for _ in range(queries)]
                    matched = 0
                    f_samples: List[float] = []
                    c_samples: List[float] = []
                    for s, t in pairs:
                        start = time.perf_counter()
                        fv, fstats, fepoch = faulted.distance(s, t)
                        f_samples.append(time.perf_counter() - start)
                        start = time.perf_counter()
                        cv, cstats, cepoch = clean.distance(s, t)
                        c_samples.append(time.perf_counter() - start)
                        if (fv == cv and fepoch == cepoch
                                and _e24_stats_key(fstats)
                                == _e24_stats_key(cstats)):
                            matched += 1
                    rows.append({
                        "mode": "churn", "epoch": epoch_no + 1,
                        "queries": queries,
                        "parity": f"{matched}/{queries}",
                        "clean_ms": median_ms(c_samples),
                        "faulted_ms": median_ms(f_samples),
                    })
                transfer = faulted.transfer_stats()
                injected = policy.injected
                rows.append({
                    "mode": "summary", "epoch": epochs,
                    "scheduled": sum(policy.scheduled().values()),
                    "injected": sum(injected.values()),
                    "inj_closed": injected["drop"] + injected["truncate"],
                    "inj_corrupt": injected["corrupt"],
                    "disruptions": policy.disruptions(),
                    "retries": transfer["retries"],
                    "reconnects": transfer["reconnects"],
                    "peer_closed": transfer["peer_closed"],
                    "corrupt_frames": transfer["corrupt_frames"],
                    "deadline_exceeded": transfer["deadline_exceeded"],
                    "stale_serves": transfer["stale_serves"],
                })
            finally:
                faulted.close()
                clean.close()
                proxy.close()
        finally:
            session.close()
    else:  # pragma: no cover - socketless sandboxes only
        rows.append({"mode": "churn-unavailable"})

    # -- worker SIGKILL + respawn (shm) ----------------------------------
    if shm_available():
        sg = SGraph(graph=load_dataset("road-grid"), config=SGraphConfig(
            num_hubs=16, queries=("distance",),
        ))
        verts = sorted(sg.graph.vertices())
        rng = random.Random(26)
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(queries)]
        with sg.serve(workers=2) as session:
            baseline = [session.distance(s, t) for s, t in pairs]
            session.pool.kill_worker(0)
            matched = 0
            samples: List[float] = []
            for (s, t), want in zip(pairs, baseline):
                start = time.perf_counter()
                value, stats, epoch = session.distance(s, t)
                samples.append(time.perf_counter() - start)
                if (value == want[0] and epoch == want[2]
                        and _e24_stats_key(stats)
                        == _e24_stats_key(want[1])):
                    matched += 1
            rows.append({
                "mode": "respawn", "queries": queries,
                "parity": f"{matched}/{queries}",
                "post_kill_ms": median_ms(samples),
                "respawns": session.pool.respawns,
                "alive": len(session.pool.alive()),
                "workers": session.workers,
                "breaker_open": session.pool.breaker.open,
            })
    else:  # pragma: no cover - no POSIX shm only
        rows.append({"mode": "respawn-unavailable"})
    return rows


# ---------------------------------------------------------------------------

ALL_EXPERIMENTS: Dict[str, Callable[[], List[Row]]] = {
    "E1 datasets": run_e1_datasets,
    "E2 activations": run_e2_activations,
    "E3 latency": run_e3_latency,
    "E4 query types": run_e4_query_types,
    "E5 ingest throughput": run_e5_ingest,
    "E6 maintenance": run_e6_maintenance,
    "E7 hub sensitivity": run_e7_hubs,
    "E8 concurrent load": run_e8_concurrent,
    "E9 crossover": run_e9_crossover,
    "E10 index size": run_e10_memory,
    "E11 bound tightness": run_e11_bound_tightness,
    "E12 approximation": run_e12_tolerance,
    "E13 directed": run_e13_directed,
    "E16 reliability": run_e16_reliability,
    "E17 cache": run_e17_cache,
    "E18 publish latency": run_e18_publish,
    "E19 backend": run_e19_backend,
    "E21 shm serving": run_e21_shm_serving,
    "E22 net serving": run_e22_net_serving,
    "E23 delta sync": run_e23_delta_sync,
    "E24 workspace reuse": run_e24_workspace,
    "E25 fault tolerance": run_e25_fault_tolerance,
}


def main() -> None:
    from repro.bench.report import print_table

    for title, fn in ALL_EXPERIMENTS.items():
        print_table(fn(), title=f"== {title} ==")


if __name__ == "__main__":
    main()
