"""SGraph's core contribution: hub index, bounds, and the pruned engine."""

from repro.core.bounds import QueryBounds
from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.hub_index import HubIndex
from repro.core.hub_selection import STRATEGIES, select_hubs
from repro.core.pairwise import QueryKind, QueryResult
from repro.core.pruning import PruningPolicy
from repro.core.semiring import (
    BOTTLENECK_CAPACITY,
    RELIABILITY_PRODUCT,
    SHORTEST_DISTANCE,
    BottleneckCapacity,
    PathSemiring,
    ReliabilityProduct,
    ShortestDistance,
)
from repro.core.stats import QueryStats, StatsAggregate

__all__ = [
    "QueryBounds",
    "SGraphConfig",
    "PairwiseEngine",
    "HubIndex",
    "STRATEGIES",
    "select_hubs",
    "QueryKind",
    "QueryResult",
    "PruningPolicy",
    "PathSemiring",
    "ShortestDistance",
    "BottleneckCapacity",
    "ReliabilityProduct",
    "SHORTEST_DISTANCE",
    "BOTTLENECK_CAPACITY",
    "RELIABILITY_PRODUCT",
    "QueryStats",
    "StatsAggregate",
]
