"""Analytics workflow: record a workload trace, replay it across
configurations, and time-travel with versioned views.

This example shows the operational surface around the core engine:

1. a mixed update+query workload is recorded to a trace file, making the
   benchmark bit-reproducible;
2. the trace is replayed under the default config and under upper-bound-only
   pruning with the same hubs — identical answers, very different work;
3. a :class:`VersionedStore` publishes epochs mid-stream so an analyst can
   query "as of" an earlier version after the graph has moved on.

Run with::

    python examples/analytics_replay.py
"""

import tempfile
from pathlib import Path

from repro import SGraph, SGraphConfig
from repro.core.pairwise import QueryKind
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.streaming.trace import interleave, read_trace, replay_trace, write_trace
from repro.streaming.versioning import VersionedStore
from repro.streaming.workload import sliding_window_stream


def main() -> None:
    graph = power_law_graph(2000, 4, seed=51, weight_range=(1.0, 4.0))

    cfg = SGraphConfig()

    # 1. record -------------------------------------------------------------
    pairs = sample_vertex_pairs(graph, 12, seed=53, min_hops=2)
    queries = [(QueryKind.DISTANCE, s, t) for s, t in pairs]
    updates = list(sliding_window_stream(graph, 300, seed=54))
    events = interleave(updates, queries, updates_per_query=25)
    trace_path = Path(tempfile.mkdtemp()) / "workload.trace"
    write_trace(trace_path, events)
    print(f"recorded {len(events)} events to {trace_path}")

    # 2. replay under two configurations -------------------------------------
    for label, config in (
        ("sgraph", cfg),
        ("upper-only", SGraphConfig(policy="upper-only")),
    ):
        sg = SGraph(graph=power_law_graph(2000, 4, seed=51,
                                          weight_range=(1.0, 4.0)),
                    config=config)
        report = replay_trace(sg, read_trace(trace_path))
        agg = report.query_stats
        print(f"  {label:13s}: {report.queries_answered} queries, "
              f"mean {1e3 * agg.mean_elapsed:.3f} ms, "
              f"{agg.mean_activations:.1f} activations/query")

    # 3. time travel ---------------------------------------------------------
    sg = SGraph(graph=power_law_graph(2000, 4, seed=51,
                                      weight_range=(1.0, 4.0)), config=cfg)
    sg.rebuild_indexes()
    store = VersionedStore(sg, capacity=4)
    s, t = pairs[0]
    v0 = store.publish(label="before")
    for update in sliding_window_stream(sg.graph, 200, seed=55):
        sg.apply_update(update)
    sg.add_edge(s, t, 1.0)  # a shortcut appears after the first version
    v1 = store.publish(label="after")
    print(f"\ndistance({s}, {t}) as of {v0.label!r} (epoch {v0.epoch}): "
          f"{v0.distance(s, t).value:.2f}")
    print(f"distance({s}, {t}) as of {v1.label!r} (epoch {v1.epoch}): "
          f"{v1.distance(s, t).value:.2f}")
    print(f"live answer now: {sg.distance(s, t).value:.2f}")


if __name__ == "__main__":
    main()
