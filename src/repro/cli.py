"""Command-line interface.

Usage (also available as ``python -m repro.cli``)::

    repro datasets                      # profile every dataset proxy
    repro profile social-pl             # profile one dataset proxy
    repro query social-pl 3 1542        # run one pairwise query
    repro many social-pl 3 1542 97 210  # one-to-many from a published view
    repro serve social-pl --workers 2   # multiprocess shm serving demo
    repro serve social-pl --transport tcp  # + TCP plane server for remotes
    repro attach 127.0.0.1:4702         # remote reader over TCP
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.core.config import SGraphConfig
from repro.errors import ConfigError, QueryError, ReproError
from repro.core.hub_selection import DEFAULT_STRATEGY, STRATEGIES
from repro.core.semiring import ShortestDistance
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.graph.stats import profile_graph
from repro.sgraph import SGraph


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render dict-rows as a fixed-width table.

    Column order follows the first row's key order; missing cells render
    empty.  Values are stringified with ``str``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[str(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    parts: List[str] = [title] if title else []
    parts.append("  ".join(col.ljust(widths[i])
                           for i, col in enumerate(columns)))
    parts.append("  ".join("-" * w for w in widths))
    for line in cells:
        parts.append("  ".join(line[i].ljust(widths[i])
                               for i in range(len(columns))))
    return "\n".join(parts)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        {"dataset": name, "models": spec.stands_in_for,
         **profile_graph(load_dataset(name)).as_row()}
        for name, spec in DATASETS.items()
    ]
    print(format_table(rows, title="dataset proxies"))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset)
    profile = profile_graph(graph)
    rows = [{"dataset": args.dataset, **profile.as_row()}]
    print(format_table(rows, title=f"profile of {args.dataset}"))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset)
    sg = SGraph(
        graph=graph,
        config=SGraphConfig(
            num_hubs=args.hubs,
            hub_strategy=args.strategy,
            queries=("distance", "hops", "capacity"),
            backend=args.backend,
        ),
    )
    sg.rebuild_indexes()
    dispatch = {
        "distance": sg.distance,
        "hops": sg.hop_distance,
        "reachability": sg.reachable,
        "bottleneck": sg.bottleneck,
    }
    if args.repeat < 1:
        raise ConfigError("--repeat must be >= 1")
    run = dispatch[args.kind]
    family = {"hops": "hops", "bottleneck": "capacity"}.get(args.kind,
                                                          "distance")
    result = run(args.source, args.target)
    stats = result.stats
    print(f"{args.kind}({args.source}, {args.target}) = {result.value}")
    print(
        f"  latency {1e3 * stats.elapsed:.3f} ms, "
        f"{stats.activations} activations ordered by "
        f"{_search_order(sg, family)}, "
        f"answered_by_index={stats.answered_by_index}"
    )
    if args.repeat > 1:
        # Steady-state measurement: the first run above was the cold query
        # (it allocated the search workspace); the repeats reuse it, so
        # their median is the warm-workspace serving latency.
        warm = sorted(run(args.source, args.target).stats.elapsed
                      for _ in range(args.repeat - 1))
        median = warm[len(warm) // 2]
        print(
            f"  repeat x{args.repeat}: cold {1e3 * stats.elapsed:.3f} ms, "
            f"warm median {1e3 * median:.3f} ms"
        )
        ws = sg.workspace_stats(family)
        if ws["workspace_allocs"]:
            print(
                f"  workspace: {ws['workspace_allocs']} allocs, "
                f"{ws['workspace_hits']} hits, "
                f"{ws['workspace_resets']} resets, "
                f"{ws['touched_reset']} entries sparse-reset"
            )
    if args.path and args.kind == "distance":
        path_result = sg.shortest_path(args.source, args.target)
        print(f"  path: {path_result.path}")
    return 0


def _search_order(sg: SGraph, family: str) -> str:
    """The queue key ``family``'s pairwise search uses: ``g + p`` (label
    plus hub-bound potential) where the hub placement found the graph
    large-diameter and the family is min-plus under lower-bound pruning,
    the label ``g`` alone otherwise."""
    index = sg.index_for(family)
    if (index.large_diameter and sg.config.policy.uses_lower_bounds
            and isinstance(index.semiring, ShortestDistance)):
        return "g+p (large-diameter graph)"
    return "g"


def _cmd_many(args: argparse.Namespace) -> int:
    import math

    from repro.streaming.versioning import VersionedStore

    graph = load_dataset(args.dataset)
    sg = SGraph(
        graph=graph,
        config=SGraphConfig(
            num_hubs=args.hubs,
            hub_strategy=args.strategy,
            queries=("distance",),
            backend=args.backend,
        ),
    )
    sg.rebuild_indexes()
    # Serve from a published epoch, the paper's read pattern: the batch runs
    # against the frozen snapshot (dense CSR + numpy hub rows unless
    # --backend dict), isolated from any later churn.
    view = VersionedStore(sg).publish()
    result = view.distance_many_result(args.source, args.targets)
    rows = [
        {"target": t,
         "distance": ("unreachable" if v == math.inf else round(v, 6))}
        for t, v in sorted(result.values.items())
    ]
    print(format_table(
        rows,
        title=f"distance_many({args.source}) @ epoch {result.epoch}",
    ))
    stats = result.stats
    print(
        f"  {len(result)} targets ({result.reachable_count} reachable) in "
        f"{1e3 * stats.elapsed:.3f} ms: {stats.activations} activations, "
        f"{stats.pruned_by_lower_bound} lb-pruned, "
        f"answered_by_index={stats.answered_by_index}"
    )
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.core.pairwise import QueryKind
    from repro.streaming.trace import interleave, write_trace
    from repro.streaming.workload import query_stream, sliding_window_stream

    graph = load_dataset(args.dataset)
    updates = list(sliding_window_stream(graph, args.updates, seed=args.seed))
    pairs = query_stream(graph, args.queries, skew=args.skew, seed=args.seed + 1)
    queries = [(QueryKind.DISTANCE, s, t) for s, t in pairs]
    rate = max(1, args.updates // max(args.queries, 1))
    events = interleave(updates, queries, updates_per_query=rate)
    count = write_trace(args.output, events)
    print(f"recorded {count} events ({args.updates} updates, "
          f"{args.queries} queries) for {args.dataset} to {args.output}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.streaming.trace import read_trace, replay_trace

    graph = load_dataset(args.dataset)
    sg = SGraph(
        graph=graph,
        config=SGraphConfig(num_hubs=args.hubs, hub_strategy=args.strategy,
                            queries=("distance", "hops", "capacity")),
    )
    sg.rebuild_indexes()
    report = replay_trace(sg, read_trace(args.trace))
    agg = report.query_stats
    print(f"replayed {report.updates_applied} updates, "
          f"{report.queries_answered} queries")
    if agg.total:
        print(f"  query mean {1e3 * agg.mean_elapsed:.3f} ms, "
              f"p99 {1e3 * agg.p(0.99):.3f} ms, "
              f"{agg.mean_activations:.1f} activations/query, "
              f"{100.0 * agg.answered_by_index / agg.total:.1f}% from index")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import random
    import time

    from repro.serving import leaked_segments, shm_available
    from repro.streaming.workload import query_stream

    if args.delta and args.transport != "tcp":
        raise ConfigError("--delta requires --transport tcp")
    if args.transport == "shm" and not shm_available():
        print("POSIX shared memory is unavailable on this platform",
              file=sys.stderr)
        return 1
    graph = load_dataset(args.dataset)
    sg = SGraph(
        graph=graph,
        config=SGraphConfig(num_hubs=args.hubs, hub_strategy=args.strategy,
                            queries=("distance",)),
    )
    pairs = list(query_stream(graph, args.queries, seed=7))
    verts = sorted(graph.vertices())
    rng = random.Random(11)
    options = {}
    if args.transport == "tcp":
        options = {"host": args.host, "port": args.port,
                   "cache_planes": args.cache_planes,
                   "retry": args.retry, "max_backoff": args.max_backoff}
    with sg.serve(workers=args.workers, transport=args.transport,
                  chunk=args.chunk, delta=args.delta, **options) as session:
        prefix = session.prefix
        print(f"serving {args.dataset} with {args.workers} worker "
              f"process(es) over {session.transport.describe()}")
        if args.transport == "tcp":
            print(f"  remote readers: repro attach "
                  f"{session.transport.address}")
        for round_no in range(args.rounds):
            start = time.perf_counter()
            answers = session.map_distance(pairs)
            elapsed = time.perf_counter() - start
            epochs = sorted({epoch for _, _, epoch in answers})
            print(f"  round {round_no}: {len(answers)} queries in "
                  f"{1e3 * elapsed:.1f} ms "
                  f"({len(answers) / elapsed:.0f} q/s) @ epochs {epochs}")
            for _ in range(args.updates):
                u, v = rng.choice(verts), rng.choice(verts)
                if u != v:
                    sg.add_edge(u, v, rng.uniform(0.5, 2.0))
            view = session.publish()
            print(f"  ingested {args.updates} updates, "
                  f"published epoch {view.epoch}")
        if args.transport == "tcp":
            row = session.stats_row()
            sent, full = row["bytes_sent"], row["bytes_full"]
            saved = f", {100.0 * (1 - sent / full):.1f}% saved" if full else ""
            print(f"  transfer: {row['delta_fetches']} delta / "
                  f"{row['full_fetches']} full fetches, "
                  f"{sent} of {full} bytes{saved} "
                  f"(cache {row.get('cached', 0)}/{row.get('cache_planes', 0)})")
    leaked = leaked_segments(prefix)
    print(f"closed: {len(leaked)} leaked shm segment(s)")
    return 1 if leaked else 0


def _cmd_attach(args: argparse.Namespace) -> int:
    import random
    import time

    from repro.serving.net import NetReader

    if args.cache_planes < 1:
        raise ConfigError("--cache-planes must be >= 1")
    if not args.max_backoff > 0:
        raise ConfigError("--max-backoff must be > 0")
    try:
        with NetReader(args.address, cache_planes=args.cache_planes,
                       delta=args.delta, retry=args.retry,
                       max_backoff=args.max_backoff,
                       degrade=args.stale_ok) as reader:
            epoch = reader.refresh()
            if epoch is None:
                print(f"attached to {args.address}: nothing published yet",
                      file=sys.stderr)
                return 1
            print(f"attached to {args.address}, serving epoch {epoch}")
            verts = reader.vertices()
            rng = random.Random(13)
            for round_no in range(args.rounds):
                start = time.perf_counter()
                hits = 0
                for _ in range(args.queries):
                    s, t = rng.choice(verts), rng.choice(verts)
                    _value, stats, epoch = reader.distance(s, t)
                    hits += stats.answered_by_index
                elapsed = time.perf_counter() - start
                marker = " [stale]" if reader.stale else ""
                print(f"  round {round_no}: {args.queries} queries in "
                      f"{1e3 * elapsed:.1f} ms "
                      f"({args.queries / elapsed:.0f} q/s) "
                      f"@ epoch {epoch}{marker}, "
                      f"{hits} from index")
                time.sleep(args.pause)
            if args.delta:
                transfer = reader.stats_row()
                print(f"  transfer: {transfer['delta_fetches']} delta / "
                      f"{transfer['full_fetches']} full fetches, "
                      f"{transfer['bytes_received']} of "
                      f"{transfer['bytes_full']} bytes")
    except (ConfigError, QueryError) as exc:
        print(f"attach {args.address}: server went away ({exc})",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SGraph reproduction: pairwise queries over evolving graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset proxies").set_defaults(
        fn=_cmd_datasets
    )

    profile = sub.add_parser("profile", help="profile one dataset proxy")
    profile.add_argument("dataset", choices=dataset_names())
    profile.set_defaults(fn=_cmd_profile)

    query = sub.add_parser("query", help="run one pairwise query")
    query.add_argument("dataset", choices=dataset_names())
    query.add_argument("source", type=int)
    query.add_argument("target", type=int)
    query.add_argument("--kind", default="distance",
                       choices=["distance", "hops", "reachability",
                                "bottleneck"])
    query.add_argument("--hubs", type=int, default=16)
    query.add_argument("--strategy", default=DEFAULT_STRATEGY,
                       choices=sorted(STRATEGIES))
    query.add_argument("--path", action="store_true",
                       help="also print the witness path (distance only)")
    query.add_argument("--repeat", type=int, default=1,
                       help="run the query N times and report cold vs "
                            "warm-workspace (steady-state) latency")
    query.add_argument("--backend", default="auto",
                       choices=["auto", "dense", "dict"],
                       help="serving plane for distance/hops queries")
    query.set_defaults(fn=_cmd_query)

    many = sub.add_parser(
        "many", help="run one batched one-to-many query from a published view"
    )
    many.add_argument("dataset", choices=dataset_names())
    many.add_argument("source", type=int)
    many.add_argument("targets", type=int, nargs="+")
    many.add_argument("--hubs", type=int, default=16)
    many.add_argument("--strategy", default=DEFAULT_STRATEGY,
                      choices=sorted(STRATEGIES))
    many.add_argument("--backend", default="auto",
                      choices=["auto", "dense", "dict"],
                      help="serving plane for the published view")
    many.set_defaults(fn=_cmd_many)

    record = sub.add_parser("record", help="record a workload trace")
    record.add_argument("dataset", choices=dataset_names())
    record.add_argument("output", help="trace file to write")
    record.add_argument("--updates", type=int, default=1000)
    record.add_argument("--queries", type=int, default=50)
    record.add_argument("--skew", type=float, default=1.0)
    record.add_argument("--seed", type=int, default=0)
    record.set_defaults(fn=_cmd_record)

    replay = sub.add_parser("replay", help="replay a recorded trace")
    replay.add_argument("dataset", choices=dataset_names())
    replay.add_argument("trace", help="trace file to replay")
    replay.add_argument("--hubs", type=int, default=16)
    replay.add_argument("--strategy", default=DEFAULT_STRATEGY,
                        choices=sorted(STRATEGIES))
    replay.set_defaults(fn=_cmd_replay)

    serve = sub.add_parser(
        "serve", help="serve a dataset from a multiprocess worker pool"
    )
    serve.add_argument("dataset", choices=dataset_names())
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--hubs", type=int, default=16)
    serve.add_argument("--strategy", default=DEFAULT_STRATEGY,
                       choices=sorted(STRATEGIES))
    serve.add_argument("--queries", type=int, default=64,
                       help="pairwise queries fanned out per round")
    serve.add_argument("--rounds", type=int, default=3,
                       help="query/ingest/publish rounds to run")
    serve.add_argument("--updates", type=int, default=20,
                       help="edge updates ingested between rounds")
    serve.add_argument("--transport", default="shm", choices=["shm", "tcp"],
                       help="plane transport: shm segments or a TCP "
                            "plane server remote readers can attach to")
    serve.add_argument("--chunk", type=int, default=None,
                       help="queries bundled per pool message")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --transport tcp")
    serve.add_argument("--cache-planes", type=int, default=4,
                       help="tcp only: published planes the server keeps "
                            "as delta bases (and readers keep cached)")
    serve.add_argument("--delta", action="store_true",
                       help="tcp only: ship deltas (the dirty 1 KiB ranges "
                            "found by codec.diff_payloads) to readers that "
                            "hold a cached base plane")
    serve.add_argument("--retry", type=int, default=4,
                       help="tcp only: reconnect attempts per reader op "
                            "before giving up")
    serve.add_argument("--max-backoff", type=float, default=2.0,
                       help="tcp only: reconnect backoff ceiling in "
                            "seconds (exponential, jittered)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port for --transport tcp (0 = ephemeral)")
    serve.set_defaults(fn=_cmd_serve)

    attach = sub.add_parser(
        "attach", help="attach a standalone reader to a TCP plane server"
    )
    attach.add_argument("address", help="writer address, host:port "
                                        "(printed by repro serve "
                                        "--transport tcp)")
    attach.add_argument("--queries", type=int, default=64,
                        help="random pairwise queries per round")
    attach.add_argument("--rounds", type=int, default=3,
                        help="query rounds to run before detaching")
    attach.add_argument("--pause", type=float, default=0.0,
                        help="seconds to sleep between rounds")
    attach.add_argument("--delta", action="store_true",
                        help="fetch deltas (the dirty 1 KiB ranges found "
                             "by codec.diff_payloads) against the cached "
                             "base plane instead of full payloads")
    attach.add_argument("--retry", type=int, default=4,
                        help="reconnect attempts per op before giving up")
    attach.add_argument("--max-backoff", type=float, default=2.0,
                        help="reconnect backoff ceiling in seconds "
                             "(exponential, jittered)")
    attach.add_argument("--stale-ok", action="store_true",
                        help="keep answering from the last-acquired plane "
                             "(marked [stale]) when the server is "
                             "unreachable, instead of exiting")
    attach.add_argument("--cache-planes", type=int, default=4,
                        help="decoded planes kept in the local LRU cache")
    attach.set_defaults(fn=_cmd_attach)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; bad input ends in one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
