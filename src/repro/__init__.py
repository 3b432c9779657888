"""repro — reproduction of *Achieving Sub-second Pairwise Query over
Evolving Graphs* (SGraph, ASPLOS 2023).

Public API highlights:

* :class:`SGraph` — the facade: an evolving graph with incrementally
  maintained hub indexes answering pairwise distance / hop / reachability /
  bottleneck queries through lower-bound-pruned bidirectional search.
* :class:`SGraphConfig` — hub count, hub selection strategy, pruning policy,
  indexed query families.
* :mod:`repro.graph` — the evolving-graph substrate (storage, snapshots,
  generators, dataset proxies).
* :mod:`repro.streaming` — update streams, incremental index maintenance,
  published-epoch views, workload traces.
* :mod:`repro.baselines` — the comparison systems (plain/bidirectional
  Dijkstra and full SSSP, the label-correcting propagation model).
"""

from repro.core.config import SGraphConfig
from repro.core.pairwise import (
    ManyQueryResult,
    PairwiseQuery,
    QueryKind,
    QueryResult,
)
from repro.core.pruning import PruningPolicy
from repro.core.stats import QueryStats
from repro.errors import ReproError
from repro.graph.dynamic_graph import DynamicGraph
from repro.persist import load_sgraph, save_sgraph
from repro.sgraph import SGraph
from repro.streaming.update import EdgeUpdate, UpdateKind
from repro.streaming.versioning import FrozenView, VersionedStore

__version__ = "1.0.0"

__all__ = [
    "SGraph",
    "SGraphConfig",
    "PruningPolicy",
    "PairwiseQuery",
    "QueryKind",
    "QueryResult",
    "ManyQueryResult",
    "QueryStats",
    "DynamicGraph",
    "EdgeUpdate",
    "UpdateKind",
    "ReproError",
    "save_sgraph",
    "load_sgraph",
    "VersionedStore",
    "FrozenView",
    "__version__",
]
