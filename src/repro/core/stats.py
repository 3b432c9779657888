"""Per-query execution counters.

The paper's central evaluation metric is not wall-clock time but *vertex
activations* — how much of the graph a query touches.  Every engine in this
library (SGraph and all baselines) fills in a :class:`QueryStats` so the
activation-fraction experiment (E2) compares engines on identical terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class QueryStats:
    """Counters accumulated while answering one pairwise query."""

    #: vertices settled (popped and expanded) across both search directions
    activations: int = 0
    #: label improvements (each is one heap push: a new key or a decrease)
    pushes: int = 0
    #: edge relaxations attempted
    relaxations: int = 0
    #: vertices discarded because ``g(v) + lower_bound(v) >= best`` (SGraph)
    pruned_by_lower_bound: int = 0
    #: vertices discarded because ``g(v) >= best`` (upper-bound-only systems)
    pruned_by_upper_bound: int = 0
    #: queries answered purely from the hub index without any traversal
    answered_by_index: bool = False
    #: wall-clock seconds for the query (filled by the harness)
    elapsed: float = 0.0
    #: searches that reused an already-allocated workspace (dense plane only)
    workspace_hits: int = 0
    #: workspace sparse-resets performed on behalf of this query
    workspace_resets: int = 0
    #: distinct ids whose label was written, restored by those sparse resets
    touched_reset: int = 0

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (harness use)."""
        self.activations += other.activations
        self.pushes += other.pushes
        self.relaxations += other.relaxations
        self.pruned_by_lower_bound += other.pruned_by_lower_bound
        self.pruned_by_upper_bound += other.pruned_by_upper_bound
        self.elapsed += other.elapsed
        self.workspace_hits += other.workspace_hits
        self.workspace_resets += other.workspace_resets
        self.touched_reset += other.touched_reset

    def activation_fraction(self, num_vertices: int) -> float:
        """Fraction of the graph this query activated."""
        if num_vertices <= 0:
            return 0.0
        return self.activations / num_vertices

    def as_row(self) -> Dict[str, object]:
        return {
            "act": self.activations,
            "push": self.pushes,
            "relax": self.relaxations,
            "lb_pruned": self.pruned_by_lower_bound,
            "ub_pruned": self.pruned_by_upper_bound,
            "from_index": self.answered_by_index,
            "ws_hits": self.workspace_hits,
            "ws_resets": self.workspace_resets,
            "ws_touched": self.touched_reset,
        }


@dataclass
class StatsAggregate:
    """Mean/percentile rollup over many queries (a trace replay's report)."""

    activations: List[int] = field(default_factory=list)
    elapsed: List[float] = field(default_factory=list)
    answered_by_index: int = 0
    total: int = 0

    def add(self, stats: QueryStats) -> None:
        self.activations.append(stats.activations)
        self.elapsed.append(stats.elapsed)
        if stats.answered_by_index:
            self.answered_by_index += 1
        self.total += 1

    @staticmethod
    def _percentile(values: List[float], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return float(ordered[idx])

    @property
    def mean_activations(self) -> float:
        return sum(self.activations) / len(self.activations) if self.activations else 0.0

    @property
    def mean_elapsed(self) -> float:
        return sum(self.elapsed) / len(self.elapsed) if self.elapsed else 0.0

    def p(self, q: float) -> float:
        """Latency percentile, q in [0, 1]."""
        return self._percentile(self.elapsed, q)

    def mean_activation_fraction(self, num_vertices: int) -> float:
        if num_vertices <= 0:
            return 0.0
        return self.mean_activations / num_vertices
