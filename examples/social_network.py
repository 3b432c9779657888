"""Social-network scenario: degrees-of-separation queries over a feed of
new friendships.

This is the workload the paper's introduction motivates: a social service
wants "how far is user A from user B" (for friend suggestions, trust
scoring, ad targeting) answered interactively while friendships stream in
at high rate.  The script:

1. builds a power-law friendship graph (the LiveJournal-class proxy);
2. streams batches of new friendships through the SGraph facade;
3. after each batch, answers separation queries and reports latency and
   how much of the graph each query touched, comparing against what the
   exhaustive baseline would have paid.

Run with::

    python examples/social_network.py
"""

import time

from repro import SGraph, SGraphConfig
from repro.baselines import full_sssp
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.streaming.update import batched
from repro.streaming.workload import insert_only_stream


def main() -> None:
    graph = power_law_graph(3000, 5, seed=21, weight_range=(1.0, 3.0))
    print(f"friendship graph: {graph.num_vertices} users, "
          f"{graph.num_edges} friendships")

    sg = SGraph(
        graph=graph,
        config=SGraphConfig(num_hubs=16, queries=("distance", "hops")),
    )
    sg.rebuild_indexes()
    queries = sample_vertex_pairs(graph, 12, seed=22, min_hops=2)
    stream = insert_only_stream(graph, 600, seed=23)

    for epoch, batch in enumerate(batched(stream, 200)):
        start = time.perf_counter()
        sg.apply(batch)
        ingest_ms = 1e3 * (time.perf_counter() - start)
        print(f"\nepoch {epoch}: ingested {len(batch)} friendships "
              f"in {ingest_ms:.1f} ms")

        for s, t in queries[:4]:
            result = sg.hop_distance(s, t)
            sep = "unreachable" if not result.reachable else int(result.value)
            print(
                f"  separation({s:>5}, {t:>5}) = {sep:>3}  "
                f"[{1e3 * result.stats.elapsed:7.3f} ms, "
                f"{result.stats.activations:4d} activated"
                f"{', from index' if result.stats.answered_by_index else ''}]"
            )

    # What would the exhaustive engine have paid for the last query?
    # It settles the source's whole component before it can answer.
    s, t = queries[0]
    start = time.perf_counter()
    _dist, baseline = full_sssp(graph, s)
    baseline_ms = 1e3 * (time.perf_counter() - start)
    mine = sg.distance(s, t)
    print(
        f"\nexhaustive baseline for ({s}, {t}): "
        f"{baseline_ms:.1f} ms, "
        f"{baseline.activations} activated "
        f"vs SGraph {1e3 * mine.stats.elapsed:.3f} ms, "
        f"{mine.stats.activations} activated"
    )


if __name__ == "__main__":
    main()
