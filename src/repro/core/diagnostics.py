"""Index diagnostics: how tight are the bounds an index produces?

Bound tightness is *the* determinant of SGraph's pruning power, so the
library ships the measurement tools: :func:`bound_gap_profile` samples
query pairs and reports the lower/upper bound gap distribution.  The E11
ablation bench is built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.bounds import QueryBounds
from repro.core.hub_index import HubIndex
from repro.core.semiring import ShortestDistance
from repro.errors import ConfigError


@dataclass
class BoundGap:
    """Bounds for one sampled pair (distance algebra)."""

    source: int
    target: int
    lower: float
    upper: float

    @property
    def ratio(self) -> float:
        """upper/lower gap ratio; 1.0 means the pair closes from the index."""
        if self.lower == math.inf:  # proof of unreachability: exact
            return 1.0
        if self.upper == math.inf:
            return math.inf
        if self.lower <= 0:
            return math.inf
        return self.upper / self.lower

    @property
    def is_exact(self) -> bool:
        return self.ratio == 1.0


@dataclass
class BoundGapReport:
    """Aggregate over a pair sample."""

    gaps: List[BoundGap] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.gaps)

    @property
    def exact_fraction(self) -> float:
        if not self.gaps:
            return 0.0
        return sum(1 for g in self.gaps if g.is_exact) / len(self.gaps)

    def closable_fraction(self, tolerance: float) -> float:
        """Fraction of pairs answerable from the index at the tolerance."""
        if not self.gaps:
            return 0.0
        limit = 1.0 + tolerance
        return sum(1 for g in self.gaps if g.ratio <= limit) / len(self.gaps)

    def ratio_percentile(self, q: float) -> float:
        if not self.gaps:
            return 0.0
        ratios = sorted(g.ratio for g in self.gaps)
        idx = min(len(ratios) - 1, int(round(q * (len(ratios) - 1))))
        return ratios[idx]

    def as_row(self) -> dict:
        return {
            "pairs": self.total,
            "exact%": round(100 * self.exact_fraction, 1),
            "close@10%": round(100 * self.closable_fraction(0.10), 1),
            "close@2x": round(100 * self.closable_fraction(1.0), 1),
            "gap_p50": round(self.ratio_percentile(0.5), 2),
            "gap_p90": round(self.ratio_percentile(0.9), 2),
        }


def bound_gap_profile(
    index: HubIndex,
    pairs: Sequence[Tuple[int, int]],
) -> BoundGapReport:
    """Measure bound gaps for the given pairs."""
    if not isinstance(index.semiring, ShortestDistance):
        raise ConfigError("bound diagnostics are defined for the distance algebra")
    report = BoundGapReport()
    for source, target in pairs:
        bounds = QueryBounds(index, source, target)
        report.gaps.append(
            BoundGap(
                source=source,
                target=target,
                lower=bounds.lower_bound(),
                upper=bounds.upper_bound,
            )
        )
    return report

