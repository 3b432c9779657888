"""Per-query bound evaluation from the hub index.

A :class:`QueryBounds` is built once per pairwise query (s, t).  It snapshots
the hub cost tables into flat per-hub rows so that the two hot operations —

* :meth:`QueryBounds.residual_forward` — optimistic bound on ``cost(v, t)``
  for a vertex the forward search is about to expand, and
* :meth:`QueryBounds.residual_backward` — optimistic bound on ``cost(s, v)``
  for the backward search —

are tight loops of dictionary lookups, no attribute traffic.

Semantics recap (see :mod:`repro.core.semiring`): an "optimistic bound" B on
a cost means the true cost can be *no better* than B.  For shortest distance
that is a classical lower bound; for bottleneck capacity it is an upper
bound.  ``residual == semiring.unreachable`` is a proof that no path exists.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import math

from repro.core.hub_index import DenseHubTables, HubIndex
from repro.core.semiring import PathSemiring, ShortestDistance

#: How many hubs the bound-ordered search puts in its potential ``p``: per
#: query, the ones whose lower bound on ``d(s, t)`` is largest (ALT's
#: "active landmarks").  More hubs tighten ``p``; each costs two row reads
#: per touched vertex.  Time relative to the unordered dense search for the
#: ledger's 210 ``engine-read`` single pairs (64² grid, 16 ``auto`` hubs,
#: cost queries, min–max of five alternating rounds on a 2-vCPU host):
#:
#: ====  =================
#: hubs  time vs unordered
#: ====  =================
#: 16    0.74–0.81
#: 8     0.51–0.56
#: 4     **0.42–0.47**
#: 3     0.45–0.51
#: 2     0.52–0.58
#: ====  =================
POTENTIAL_HUBS = 4


def potential_hubs(fwd_s, bwd_s, fwd_t, bwd_t) -> List[int]:
    """Positions of the :data:`POTENTIAL_HUBS` hubs bounding ``d(s, t)`` best.

    The four arguments are the per-hub columns ``d(h,s)``, ``d(s,h)``,
    ``d(h,t)``, ``d(t,h)`` in hub order; each hub's bound is the larger of
    its two triangle inequalities.  Ties go to the earlier hub, so both
    planes pick the same hubs from the same columns.  O(k log k), k small.
    """
    inf = math.inf
    scores = []
    for hs, sh, ht, th in zip(fwd_s, bwd_s, fwd_t, bwd_t):
        best = 0.0
        if hs != inf:
            best = max(best, ht - hs)
        if th != inf:
            best = max(best, sh - th)
        scores.append(best)
    order = sorted(range(len(scores)), key=lambda j: -scores[j])
    return order[:POTENTIAL_HUBS]


class QueryBounds:
    """Bound evaluators specialized to one (source, target) pair."""

    __slots__ = ("_semiring", "_rows", "_is_distance", "upper_bound",
                 "source", "target")

    def __init__(self, index: HubIndex, source: int, target: int) -> None:
        sr: PathSemiring = index.semiring
        self._semiring = sr
        self._is_distance = isinstance(sr, ShortestDistance)
        unreachable = sr.unreachable
        rows: List[Tuple[dict, float, dict, float]] = []
        upper = unreachable
        for h in index.hubs:
            fwd_tree = index.forward_tree(h)
            bwd_tree = index.backward_tree(h)
            fwd_tree.ensure_fresh()
            bwd_tree.ensure_fresh()
            fwd = fwd_tree.raw_cost_table()  # cost(h → ·)
            bwd = bwd_tree.raw_cost_table()  # cost(· → h)
            fwd_t = fwd.get(target, unreachable)
            bwd_t = bwd.get(target, unreachable)
            rows.append((fwd, fwd_t, bwd, bwd_t))
            to_hub = bwd.get(source, unreachable)
            if to_hub != unreachable and fwd_t != unreachable:
                witness = sr.concat(to_hub, fwd_t)
                if sr.is_better(witness, upper):
                    upper = witness
        self._rows = rows
        self.source = source
        self.target = target
        #: best witness-path cost s → h → t; the incumbent seed
        self.upper_bound = upper

    # -- bound evaluation -------------------------------------------------------

    def residual_forward(self, vertex: int) -> float:
        """Optimistic bound on ``cost(vertex, target)``."""
        sr = self._semiring
        unreachable = sr.unreachable
        best = sr.source_value  # the trivial, information-free bound
        for fwd, fwd_t, bwd, bwd_t in self._rows:
            r = sr.residual_from_hub(fwd.get(vertex, unreachable), fwd_t)
            best = sr.tighter_residual(best, r)
            if best == unreachable:
                return best
            r = sr.residual_to_hub(bwd.get(vertex, unreachable), bwd_t)
            best = sr.tighter_residual(best, r)
            if best == unreachable:
                return best
        return best

    def residual_backward(self, vertex: int) -> float:
        """Optimistic bound on ``cost(source, vertex)``."""
        sr = self._semiring
        unreachable = sr.unreachable
        best = sr.source_value
        source = self.source
        for fwd, _fwd_t, bwd, _bwd_t in self._rows:
            # Same inequalities with (source, vertex) in the (v, t) roles.
            r = sr.residual_from_hub(fwd.get(source, unreachable),
                                     fwd.get(vertex, unreachable))
            best = sr.tighter_residual(best, r)
            if best == unreachable:
                return best
            r = sr.residual_to_hub(bwd.get(source, unreachable),
                                   bwd.get(vertex, unreachable))
            best = sr.tighter_residual(best, r)
            if best == unreachable:
                return best
        return best

    # -- pruning tests (the per-activation hot path) -----------------------------

    def prunable_forward(
        self, vertex: int, cost: float, incumbent: float, strict: bool = False
    ) -> bool:
        """True when a forward-search vertex with settled ``cost`` provably
        cannot improve on ``incumbent``.

        Equivalent to ``not is_better(concat(cost, residual_forward(v)),
        incumbent)`` but short-circuits on the first hub whose bound already
        decides the test — the difference between O(k) and O(1) hub probes
        for the overwhelmingly common pruned vertex.

        With ``strict=True`` the test only prunes vertices that are provably
        *worse* than the incumbent (ties survive).  Path-mode searches need
        this so that at least one optimal path remains discoverable.
        """
        if self._is_distance:
            return self._prunable_distance(vertex, incumbent - cost,
                                           forward=True, strict=strict)
        sr = self._semiring
        optimistic = sr.concat(cost, self.residual_forward(vertex))
        if strict:
            return sr.is_better(incumbent, optimistic)
        return not sr.is_better(optimistic, incumbent)

    def prunable_backward(
        self, vertex: int, cost: float, incumbent: float, strict: bool = False
    ) -> bool:
        """Backward-search twin of :meth:`prunable_forward`."""
        if self._is_distance:
            return self._prunable_distance(vertex, incumbent - cost,
                                           forward=False, strict=strict)
        sr = self._semiring
        optimistic = sr.concat(cost, self.residual_backward(vertex))
        if strict:
            return sr.is_better(incumbent, optimistic)
        return not sr.is_better(optimistic, incumbent)

    def _prunable_distance(
        self, vertex: int, need: float, forward: bool, strict: bool = False
    ) -> bool:
        """Distance fast path: prune iff some hub's bound reaches ``need``.

        ``need = incumbent - g(v)``: the remaining distance must be strictly
        below it (non-strict mode) or strictly above it (strict mode, ties
        survive) for the vertex to matter.  ``need`` may be ``inf`` (no
        incumbent yet) or ``nan`` (incumbent and cost both infinite — treat
        as: prune only on a proof of unreachability).
        """
        if strict:
            if need < 0:
                return True
        elif need <= 0:
            return True
        if math.isnan(need):
            need = math.inf
        inf = math.inf
        if forward:
            source = None
        else:
            source = self.source
        for fwd, fwd_t, bwd, bwd_t in self._rows:
            if forward:
                hv = fwd.get(vertex, inf)   # d(h, v)
                ht = fwd_t                  # d(h, t)
                vh = bwd.get(vertex, inf)   # d(v, h)
                th = bwd_t                  # d(t, h)
            else:
                # Bound on d(source, v): roles (source, v) as (v, t).
                hv = fwd.get(source, inf)
                ht = fwd.get(vertex, inf)
                vh = bwd.get(source, inf)
                th = bwd.get(vertex, inf)
            # residual_from_hub: d(v,t) >= d(h,t) - d(h,v); unreachability
            # proof when h reaches v but not t.
            if hv != inf and (
                ht == inf or (ht - hv > need if strict else ht - hv >= need)
            ):
                return True
            # residual_to_hub: d(v,t) >= d(v,h) - d(t,h); unreachability
            # proof when t reaches h but v does not.
            if th != inf and (
                vh == inf or (vh - th > need if strict else vh - th >= need)
            ):
                return True
        return False

    def lower_bound(self) -> float:
        """Optimistic bound on the whole query ``cost(source, target)``.

        When this equals :attr:`upper_bound`, the query is answered purely
        from the index — the mechanism behind SGraph's near-zero activation
        counts.
        """
        return self.residual_forward(self.source)

    def potential_rows(self) -> list:
        """The bound-ordered search's hubs (see :func:`potential_hubs`), as
        ``(d(h,·), d(·,h), d(h,t), d(t,h), d(h,s), d(s,h))`` tuples whose
        two tables are the raw cost dicts.  Distance algebra only."""
        inf = math.inf
        s = self.source
        rows = self._rows
        fwd_s = [fwd.get(s, inf) for fwd, _ft, _bwd, _bt in rows]
        bwd_s = [bwd.get(s, inf) for _fwd, _ft, bwd, _bt in rows]
        fwd_t = [ft for _fwd, ft, _bwd, _bt in rows]
        bwd_t = [bt for _fwd, _ft, _bwd, bt in rows]
        return [
            (rows[j][0], rows[j][2], fwd_t[j], bwd_t[j], fwd_s[j], bwd_s[j])
            for j in potential_hubs(fwd_s, bwd_s, fwd_t, bwd_t)
        ]


class DenseQueryBounds:
    """Vectorized whole-query bounds over :class:`DenseHubTables`.

    The dense-plane twin of :class:`QueryBounds`, operating entirely in
    *dense-id* space and specialized to the min-plus algebra.  The two
    per-query scalars (``UB``, ``LB``) are a handful of numpy ops over the
    stacked ``(k, |V|)`` tables.  The per-vertex prune test is not here:
    ``PairwiseEngine._search_dense`` inlines it as short-circuit probes of
    the hub rows, so a query's bound work is O(touched), never O(|V|).

    Both values are bit-identical to :class:`QueryBounds` over the same
    frozen tables: the arithmetic is the same IEEE float64 chain of
    subtractions and max/min, merely reordered across hubs — and max/min
    over a fixed value set is order-independent.
    """

    __slots__ = ("_tables", "source", "target", "upper_bound", "_lower")

    def __init__(self, tables: DenseHubTables, source: int, target: int) -> None:
        self._tables = tables
        self.source = source
        self.target = target
        #: best witness-path cost s → h → t; the incumbent seed
        self.upper_bound = tables.upper_bound(source, target)
        self._lower: Optional[float] = None

    def lower_bound(self) -> float:
        """Optimistic bound on the whole query ``d(source, target)``."""
        if self._lower is None:
            self._lower = self._tables.residual_pair(self.source, self.target)
        return self._lower

    def potential_rows(self) -> list:
        """Dense twin of :meth:`QueryBounds.potential_rows`: the same hubs
        from the same columns, with memoryview rows in place of dicts."""
        tables = self._tables
        fwd_s, bwd_s = tables.columns_for(self.source)
        fwd_t, bwd_t = tables.columns_for(self.target)
        fwd_views, bwd_views = tables.fwd_views, tables.bwd_views
        return [
            (fwd_views[j], bwd_views[j], fwd_t[j], bwd_t[j], fwd_s[j],
             bwd_s[j])
            for j in potential_hubs(fwd_s, bwd_s, fwd_t, bwd_t)
        ]

