"""Engine configuration object for the facade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.hub_selection import DEFAULT_STRATEGY, STRATEGIES
from repro.core.pruning import PruningPolicy
from repro.core.semiring import (
    BOTTLENECK_CAPACITY,
    RELIABILITY_PRODUCT,
    SHORTEST_DISTANCE,
    PathSemiring,
)
from repro.errors import ConfigError


@dataclass(frozen=True)
class Family:
    """How one query family is indexed and served."""

    #: the cost algebra of the family's index and engine
    semiring: PathSemiring
    #: the hop metric: index and search run over the unit-weight view
    unit_weights: bool = False
    #: min-plus, so a :class:`~repro.core.hub_index.DensePlane` can serve it
    dense: bool = False


#: Every query family, by the name ``SGraphConfig.queries`` uses.
FAMILIES: Dict[str, Family] = {
    "distance": Family(SHORTEST_DISTANCE, dense=True),
    "hops": Family(SHORTEST_DISTANCE, unit_weights=True, dense=True),
    "capacity": Family(BOTTLENECK_CAPACITY),
    "reliability": Family(RELIABILITY_PRODUCT),
}


@dataclass(frozen=True)
class SGraphConfig:
    """Tunable knobs of an :class:`repro.SGraph` instance.

    Attributes
    ----------
    num_hubs:
        Hub count k; more hubs mean tighter bounds but a larger index and
        higher per-update maintenance cost (E7 sweeps this).
    hub_strategy:
        One of the four :data:`repro.core.hub_selection.STRATEGIES`:
        ``"auto"``, ``"degree"``, ``"random"``, ``"far-apart"``.  The
        default, ``"auto"``, spreads hubs farthest-point when the top-degree
        vertex's hop eccentricity exceeds ``4 · log2|V|`` (grids, road
        networks) and takes them by degree otherwise (power-law and
        small-world graphs); the other three force one placement.
    policy:
        Pruning policy; the default is the paper's full technique.
    queries:
        Which query families to index: any subset of ``("distance", "hops",
        "capacity", "reliability")``.  Each family costs one index; the
        reliability family additionally requires every edge weight to be a
        probability in (0, 1].
    seed:
        Seed for randomized hub strategies.
    backend:
        Which serving plane answers pairwise queries for the distance/hops
        families.  ``"dict"`` traverses the live dict-of-dict adjacency and
        probes dict hub tables everywhere (the differential-testing
        reference).  ``"dense"`` additionally serves the live facade from
        flat arrays over dense vertex ids (CSR adjacency + numpy hub
        tables), rebuilt lazily per epoch at the first query after a
        mutation.  ``"auto"`` (the default) serves published
        :class:`~repro.streaming.versioning.FrozenView` versions dense —
        where the plane is derived delta-proportionally across publishes —
        and crosses the *live* facade over to the dense plane only when the
        workload is query-heavy: at least ``AUTO_DENSE_QUERY_RATIO`` queries
        per update interval (EMA) or that many queries in a row since the
        last mutation (see :meth:`repro.SGraph.serving_backend`).  Under
        heavy churn auto therefore skips the per-epoch dense rebuild
        entirely.
    """

    num_hubs: int = 16
    hub_strategy: str = DEFAULT_STRATEGY
    policy: PruningPolicy = PruningPolicy.UPPER_AND_LOWER
    queries: Tuple[str, ...] = ("distance",)
    seed: int = 0
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.num_hubs < 1:
            raise ConfigError("num_hubs must be >= 1")
        if self.hub_strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown hub strategy {self.hub_strategy!r}; "
                f"known: {', '.join(STRATEGIES)}"
            )
        object.__setattr__(self, "policy", PruningPolicy.parse(self.policy))
        bad = set(self.queries) - set(FAMILIES)
        if bad:
            raise ConfigError(f"unknown query families: {sorted(bad)}")
        if not self.queries:
            raise ConfigError("at least one query family must be indexed")
        if self.backend not in ("auto", "dense", "dict"):
            raise ConfigError(
                f"unknown backend {self.backend!r}; "
                "known: auto, dense, dict"
            )
