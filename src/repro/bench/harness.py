"""Runners that execute a query workload against an engine and aggregate."""

from __future__ import annotations

import time
from typing import Callable, Sequence, Tuple

from repro.core.stats import QueryStats, StatsAggregate


def run_query_workload(
    query_fn: Callable[[int, int], Tuple[float, QueryStats]],
    pairs: Sequence[Tuple[int, int]],
) -> StatsAggregate:
    """Run ``query_fn`` over every pair, timing each call.

    ``query_fn`` follows the engine convention of returning
    ``(value, QueryStats)``; wrap facade methods with a small lambda that
    unpacks :class:`~repro.core.pairwise.QueryResult`.
    """
    aggregate = StatsAggregate()
    for source, target in pairs:
        start = time.perf_counter()
        _value, stats = query_fn(source, target)
        stats.elapsed = time.perf_counter() - start
        aggregate.add(stats)
    return aggregate
