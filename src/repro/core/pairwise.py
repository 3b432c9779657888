"""Pairwise query and result types.

A pairwise query asks about a single (source, target) pair — the class of
query the paper observes is "enough for many real-world scenarios" while
avoiding the exhaustive, whole-graph nature of analytic queries.  The
supported query kinds map onto the two cost algebras plus derived forms:

* ``distance`` — weighted shortest-path cost (ShortestDistance algebra);
* ``hops`` — unweighted shortest-path length (ShortestDistance over a
  unit-weight view of the graph);
* ``reachability`` — existence of a path (distance search with first-path
  short-circuit);
* ``bottleneck`` — widest-path capacity (BottleneckCapacity algebra).

:class:`PairwiseVerbs` is the query surface over those kinds, written once
for the live facade and for every published view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.stats import QueryStats


class QueryKind(Enum):
    DISTANCE = "distance"
    HOPS = "hops"
    REACHABILITY = "reachability"
    BOTTLENECK = "bottleneck"
    RELIABILITY = "reliability"

    @classmethod
    def parse(cls, value: "str | QueryKind") -> "QueryKind":
        if isinstance(value, cls):
            return value
        for kind in cls:
            if kind.value == value:
                return kind
        raise ValueError(
            f"unknown query kind {value!r}; expected one of {[k.value for k in cls]}"
        )


@dataclass
class QueryResult:
    """Answer + execution counters for one pairwise query."""

    kind: QueryKind
    source: int
    target: int
    #: the raw cost value (math.inf / -math.inf encode unreachable; for
    #: reachability queries this is 1.0 / 0.0)
    value: float
    stats: QueryStats
    #: epoch of the graph state this answer reflects
    epoch: Optional[int] = None
    #: an optimal witness path (vertex list), when the query asked for one
    path: Optional[List[int]] = None

    @property
    def reachable(self) -> bool:
        """Whether a source→target path exists, for any query kind."""
        if self.kind is QueryKind.REACHABILITY:
            return bool(self.value)
        if self.kind is QueryKind.BOTTLENECK:
            return self.value != -math.inf
        if self.kind is QueryKind.RELIABILITY:
            return self.value != 0.0
        return self.value != math.inf

    @property
    def distance(self) -> float:
        """Alias for :attr:`value` on distance/hop queries."""
        if self.kind not in (QueryKind.DISTANCE, QueryKind.HOPS):
            raise AttributeError(f"{self.kind.value} query has no distance")
        return self.value

    @property
    def hops(self) -> int:
        if self.kind is not QueryKind.HOPS:
            raise AttributeError(f"{self.kind.value} query has no hop count")
        if self.value == math.inf:
            raise ValueError("target unreachable; no hop count")
        return int(self.value)

    @property
    def capacity(self) -> float:
        if self.kind is not QueryKind.BOTTLENECK:
            raise AttributeError(f"{self.kind.value} query has no capacity")
        return self.value

    @property
    def probability(self) -> float:
        if self.kind is not QueryKind.RELIABILITY:
            raise AttributeError(f"{self.kind.value} query has no probability")
        return self.value

    def __repr__(self) -> str:
        return (
            f"QueryResult({self.kind.value}, {self.source}->{self.target}, "
            f"value={self.value}, act={self.stats.activations})"
        )


@dataclass
class ManyQueryResult:
    """Answer + combined execution counters for one one-to-many query.

    The batched sibling of :class:`QueryResult`: one source, a value per
    target, and a single :class:`QueryStats` record of the batch's work —
    the per-target searches' counters summed, or, for a wide batch on an
    exact dense plane, the one frontier pass's (see
    :meth:`PairwiseEngine.one_to_many`) — so batched queries are as
    observable as pairwise ones.
    """

    kind: QueryKind
    source: int
    #: best cost per target (``math.inf`` encodes unreachable)
    values: Dict[int, float] = field(default_factory=dict)
    stats: QueryStats = field(default_factory=QueryStats)
    #: epoch of the graph state this answer reflects
    epoch: Optional[int] = None

    def __getitem__(self, target: int) -> float:
        return self.values[target]

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, target: int) -> bool:
        return target in self.values

    @property
    def reachable_count(self) -> int:
        """How many targets have a finite answer."""
        return sum(1 for v in self.values.values() if v != math.inf)

    def __repr__(self) -> str:
        return (
            f"ManyQueryResult({self.kind.value}, {self.source}->"
            f"{len(self.values)} targets, act={self.stats.activations})"
        )


class PairwiseVerbs:
    """The query verbs over one graph state, each written once.

    :class:`repro.SGraph` (the live graph) and
    :class:`repro.streaming.versioning.FrozenView` (one published epoch)
    answer every verb the same way: look up the engine serving the family,
    time one engine call, and wrap its answer with the epoch.  A subclass
    supplies

    * ``_engine(family)`` — the :class:`~repro.core.engine.PairwiseEngine`
      serving a configured family, :class:`~repro.errors.ConfigError` for
      any other;
    * ``_families`` — its configured families, in configuration order;
    * ``epoch`` — the epoch its answers reflect.
    """

    _families: Tuple[str, ...] = ()

    def _engine(self, family: str):
        raise NotImplementedError

    # -- best cost ---------------------------------------------------------

    def distance(
        self, source: int, target: int, tolerance: float = 0.0
    ) -> QueryResult:
        """Weighted shortest-path cost from source to target.

        ``tolerance`` requests a bounded-error approximation: the result is a
        real path cost at most ``(1 + tolerance)`` times the optimum, letting
        many more queries resolve directly from the index bounds.
        """
        return self._cost(QueryKind.DISTANCE, "distance", source, target,
                          tolerance)

    def hop_distance(self, source: int, target: int) -> QueryResult:
        """Unweighted shortest-path length (hop count)."""
        return self._cost(QueryKind.HOPS, "hops", source, target)

    def bottleneck(self, source: int, target: int) -> QueryResult:
        """Widest-path capacity from source to target."""
        return self._cost(QueryKind.BOTTLENECK, "capacity", source, target)

    def reliability(self, source: int, target: int) -> QueryResult:
        """Most-reliable-path probability (edge weights are probabilities)."""
        return self._cost(QueryKind.RELIABILITY, "reliability", source, target)

    def _cost(self, kind: QueryKind, family: str, source: int, target: int,
              tolerance: float = 0.0) -> QueryResult:
        engine = self._engine(family)
        start = perf_counter()
        value, stats = engine.best_cost(source, target, tolerance=tolerance)
        stats.elapsed = perf_counter() - start
        return QueryResult(kind, source, target, value, stats, self.epoch)

    # -- paths ---------------------------------------------------------------

    def shortest_path(self, source: int, target: int) -> QueryResult:
        """Weighted shortest path: cost plus an explicit vertex list.

        The result's :attr:`QueryResult.path` is None when the target is
        unreachable.
        """
        return self._path(QueryKind.DISTANCE, "distance", source, target)

    def widest_path(self, source: int, target: int) -> QueryResult:
        """Bottleneck-optimal path: capacity plus an explicit vertex list."""
        return self._path(QueryKind.BOTTLENECK, "capacity", source, target)

    def _path(self, kind: QueryKind, family: str, source: int,
              target: int) -> QueryResult:
        engine = self._engine(family)
        start = perf_counter()
        value, path, stats = engine.best_path(source, target)
        stats.elapsed = perf_counter() - start
        return QueryResult(kind, source, target, value, stats, self.epoch,
                           path)

    # -- yes/no ----------------------------------------------------------------

    def reachable(self, source: int, target: int) -> QueryResult:
        """Whether any source→target path exists.

        Served by the first configured family (the first name in
        ``SGraphConfig.queries``), whichever algebra it uses.
        """
        engine = self._engine(self._families[0])
        start = perf_counter()
        exists, stats = engine.feasible(source, target)
        stats.elapsed = perf_counter() - start
        return QueryResult(QueryKind.REACHABILITY, source, target,
                           1.0 if exists else 0.0, stats, self.epoch)

    def within_distance(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether the weighted distance source→target is ≤ ``budget``.

        Usually answered from the index bounds alone (see
        :meth:`PairwiseEngine.within_budget`); the result value is 1.0/0.0.
        """
        return self._budget("distance", source, target, budget)

    def capacity_at_least(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether some path of capacity ≥ ``budget`` exists."""
        return self._budget("capacity", source, target, budget)

    def reliability_at_least(
        self, source: int, target: int, budget: float
    ) -> QueryResult:
        """Whether some path of delivery probability ≥ ``budget`` exists."""
        return self._budget("reliability", source, target, budget)

    def _budget(self, family: str, source: int, target: int,
                budget: float) -> QueryResult:
        engine = self._engine(family)
        start = perf_counter()
        ok, stats = engine.within_budget(source, target, budget)
        stats.elapsed = perf_counter() - start
        return QueryResult(QueryKind.REACHABILITY, source, target,
                           1.0 if ok else 0.0, stats, self.epoch)

    # -- one source, many answers ------------------------------------------------

    def distance_many(
        self, source: int, targets: Iterable[int]
    ) -> Dict[int, float]:
        """Shortest distances from ``source`` to every target.

        ``distance_many(s, T)[t]`` is the float :meth:`distance` returns
        for ``(s, t)``.  Each distinct target runs the pairwise search
        once, except that a batch of at least ``WIDE_BATCH`` (8) distinct
        targets on a dense plane whose sums are exact is one frontier pass
        from ``s`` (see :meth:`PairwiseEngine.one_to_many`).  Use
        :meth:`distance_many_result` when the combined search counters are
        wanted alongside the values.
        """
        return self.distance_many_result(source, targets).values

    def distance_many_result(
        self, source: int, targets: Iterable[int]
    ) -> ManyQueryResult:
        """Like :meth:`distance_many`, surfacing the combined counters.

        The ``stats`` record sums the per-target searches' counters, or
        holds the frontier pass's for a wide batch (expansions as
        ``activations``, arcs as ``relaxations``, label improvements as
        ``pushes``, vertices over the cap as ``pruned_by_upper_bound``),
        so batched queries are observable exactly like pairwise ones.
        """
        engine = self._engine("distance")
        start = perf_counter()
        values, stats = engine.one_to_many(source, list(targets))
        stats.elapsed = perf_counter() - start
        return ManyQueryResult(QueryKind.DISTANCE, source, values, stats,
                               self.epoch)

    def nearest(self, source: int, k: int) -> List[Tuple[int, float]]:
        """The ``k`` closest vertices to ``source`` by weighted distance.

        Returns ``(vertex, distance)`` pairs sorted by distance (excluding
        the source itself); fewer than ``k`` when the component is small.
        A plain truncated Dijkstra — neighborhood queries don't benefit
        from pairwise bounds, but they round out the query surface.
        """
        return self._expand(source, k, None)

    def within(self, source: int, radius: float) -> List[Tuple[int, float]]:
        """All vertices within weighted distance ``radius`` of ``source``."""
        return self._expand(source, None, radius)

    def _expand(self, source: int, max_results: Optional[int],
                radius: Optional[float]) -> List[Tuple[int, float]]:
        """Truncated Dijkstra behind :meth:`nearest` / :meth:`within`.

        Runs on the engine serving ``distance``: over a dense plane it walks
        the epoch's CSR, otherwise the dict adjacency — same distances
        either way, though equidistant vertices may order differently
        between the two planes (heap tie-breaking).
        """
        return self._engine("distance").expand(source, max_results, radius)
