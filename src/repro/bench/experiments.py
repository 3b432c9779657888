"""One function per reconstructed experiment (E2, E3, E7, E9–E11, E13, E19).

Each ``run_eN`` returns the table rows the corresponding paper table/figure
would carry; the ``benchmarks/bench_eN_*.py`` modules execute them under
pytest-benchmark and print them.  Run everything standalone with::

    python -m repro.bench.experiments

Sizes are tuned so the full suite completes in a few minutes of pure
Python; see DESIGN.md for the scale-substitution rationale.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.dijkstra import bidirectional_dijkstra, dijkstra_distance
from repro.baselines.propagation import PropagationEngine
from repro.baselines.recompute import RecomputeEngine
from repro.baselines.streaming_engine import ContinuousPairwiseEngine
from repro.bench.harness import run_query_workload
from repro.bench.workloads import build_workload
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import DensePlane, HubIndex
from repro.core.pruning import PruningPolicy
from repro.core.config import SGraphConfig
from repro.graph.datasets import load_dataset, load_scaled
from repro.graph.stats import sample_vertex_pairs
from repro.sgraph import SGraph
from repro.streaming.ingest import IngestEngine
from repro.streaming.workload import sliding_window_stream

Row = Dict[str, object]

#: datasets used by the per-dataset experiments (kept to three for runtime)
CORE_DATASETS = ("social-pl", "road-grid", "collab-sw")

def _pct(x: float) -> float:
    return round(100.0 * x, 2)


def _ms(x: float) -> float:
    return round(1e3 * x, 3)


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

ALL_EXPERIMENTS: Dict[str, Callable[[], List[Row]]] = {
    "E2 activations": run_e2_activations,
    "E3 latency": run_e3_latency,
    "E7 hub sensitivity": run_e7_hubs,
    "E9 crossover": run_e9_crossover,
    "E10 index size": run_e10_memory,
    "E11 bound tightness": run_e11_bound_tightness,
    "E13 directed": run_e13_directed,
    "E19 backend": run_e19_backend,
}


def main() -> None:
    from repro.bench.report import print_table

    for title, fn in ALL_EXPERIMENTS.items():
        print_table(fn(), title=f"== {title} ==")


if __name__ == "__main__":
    main()
