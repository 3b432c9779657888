"""Streaming dashboard: concurrent ingest + query, the paper's headline demo.

Models the deployment the abstract describes — "ingest millions of updates
per second and simultaneously answer pairwise queries" — as a round loop:
every round applies an update batch (sliding-window churn, so deletions
exercise the repair path) and then answers a slice of the query workload,
printing a rolling dashboard of ingest throughput and query latency
percentiles.

Run with::

    python examples/streaming_dashboard.py
"""

import itertools
import time

from repro import SGraph, SGraphConfig
from repro.core.stats import StatsAggregate
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.streaming.update import batched
from repro.streaming.workload import sliding_window_stream


def main() -> None:
    graph = power_law_graph(3000, 5, seed=41, weight_range=(1.0, 4.0))
    sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=16))
    sg.rebuild_indexes()
    queries = sample_vertex_pairs(graph, 64, seed=42, min_hops=2)
    updates = sliding_window_stream(graph, 2000, seed=43)

    print(f"{'round':>5}  {'updates':>7}  {'upd k/s':>8}  "
          f"{'queries':>7}  {'q mean ms':>9}  {'q max ms':>8}")

    agg = StatsAggregate()
    pairs = itertools.cycle(queries)
    total_updates = 0
    update_seconds = 0.0
    for round_no, batch in enumerate(batched(updates, 200)):
        start = time.perf_counter()
        applied = sg.apply(batch)
        elapsed = time.perf_counter() - start
        total_updates += applied
        update_seconds += elapsed
        round_ms = []
        for s, t in itertools.islice(pairs, 16):
            q_start = time.perf_counter()
            stats = sg.distance(s, t).stats
            stats.elapsed = time.perf_counter() - q_start
            agg.add(stats)
            round_ms.append(1e3 * stats.elapsed)
        print(f"{round_no:>5}  {applied:>7}  "
              f"{applied / max(elapsed, 1e-9) / 1e3:>8.1f}  "
              f"{len(round_ms):>7}  {sum(round_ms) / len(round_ms):>9.3f}  "
              f"{max(round_ms):>8.3f}")

    print("\noverall:")
    print(f"  {total_updates} updates at "
          f"{total_updates / max(update_seconds, 1e-9) / 1e3:.1f}k updates/s")
    print(f"  {agg.total} queries: "
          f"mean {1e3 * agg.mean_elapsed:.3f} ms, "
          f"p50 {1e3 * agg.p(0.50):.3f} ms, "
          f"p99 {1e3 * agg.p(0.99):.3f} ms")
    print(f"  answered purely from index: "
          f"{100.0 * agg.answered_by_index / agg.total:.1f}%")
    print(f"  mean activations/query: {agg.mean_activations:.1f} "
          f"of {graph.num_vertices} vertices "
          f"({100 * agg.mean_activation_fraction(graph.num_vertices):.2f}%)")


if __name__ == "__main__":
    main()
