"""The hub index: per-hub best-path cost tables, maintained incrementally.

This is SGraph's data structure.  For each of ``k`` hub vertices the index
keeps the best-path cost from the hub to every vertex (and, on directed
graphs, from every vertex to the hub).  Those two tables per hub are exactly
what the triangle inequality needs to produce

* an **upper bound** on any query ``cost(s, t)`` — the witness path
  ``s → h → t``; and
* a per-vertex **lower bound** on the remaining cost ``cost(v, t)`` — the
  novel pruning signal the paper introduces.

Tables are :class:`~repro.streaming.incremental_sssp.IncrementalBestPath`
maintainers over the *live* graph, so the index follows edge churn at a cost
proportional to the affected region instead of a full rebuild.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.hub_selection import (
    DEFAULT_STRATEGY,
    is_large_diameter,
    place_hubs,
)
from repro.core.semiring import SHORTEST_DISTANCE, PathSemiring
from repro.errors import ConfigError, IndexStateError
from repro.graph.deltas import changed_keys, derive_touched
from repro.streaming.incremental_sssp import IncrementalBestPath

#: per-hub frozen cost tables, keyed by hub vertex
FrozenTables = Dict[int, Mapping]


class HubIndex:
    """Triangle-inequality bound index over ``k`` hubs.

    Construct with :meth:`build` (which also selects hubs) or directly with an
    explicit hub list.  The index holds a reference to the live graph;
    callers must route every graph mutation through
    :meth:`notify_edge_inserted` / :meth:`notify_edge_deleted` *after*
    mutating the graph (the :class:`repro.SGraph` facade does this).

    :attr:`large_diameter` is the graph's
    :func:`~repro.core.hub_selection.is_large_diameter` verdict, taken once
    when the hubs are placed (``large_diameter=None`` runs its BFS) and
    handed on to every frozen copy: it decides whether the min-plus search
    orders its queues by the hub lower bound.
    """

    def __init__(
        self,
        graph,
        hubs: Sequence[int],
        semiring: PathSemiring = SHORTEST_DISTANCE,
        large_diameter: Optional[bool] = None,
    ) -> None:
        if not hubs:
            raise ConfigError("hub index needs at least one hub")
        seen = set()
        for h in hubs:
            if h in seen:
                raise ConfigError(f"duplicate hub {h}")
            seen.add(h)
            if not graph.has_vertex(h):
                raise IndexStateError(f"hub {h} not in graph")
        self._graph = graph
        self._hubs = list(hubs)
        self._semiring = semiring
        if large_diameter is None:
            large_diameter = is_large_diameter(graph)
        self.large_diameter = large_diameter
        self._forward: Dict[int, IncrementalBestPath] = {}
        self._backward: Dict[int, IncrementalBestPath] = {}
        for h in self._hubs:
            fwd = IncrementalBestPath(graph, h, semiring, direction="forward")
            self._forward[h] = fwd
            if graph.directed:
                self._backward[h] = IncrementalBestPath(
                    graph, h, semiring, direction="backward"
                )
            else:
                self._backward[h] = fwd
        #: vertices settled by the most recent notify call (maintenance metric)
        self.settled_last_update = 0
        # Baseline for delta-derived freezes: the tables handed out by the
        # previous freeze() call (immutable; shared with published views).
        self._frozen_fwd: FrozenTables = {}
        self._frozen_bwd: FrozenTables = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph,
        num_hubs: int = 16,
        strategy: str = DEFAULT_STRATEGY,
        seed: int = 0,
        semiring: PathSemiring = SHORTEST_DISTANCE,
    ) -> "HubIndex":
        """Select hubs with the named strategy and build the index."""
        hubs, large = place_hubs(graph, num_hubs, strategy=strategy, seed=seed)
        return cls(graph, hubs, semiring=semiring, large_diameter=large)

    @classmethod
    def from_tables(
        cls,
        graph,
        hubs: Sequence[int],
        semiring: PathSemiring,
        forward_tables: Dict[int, Mapping],
        backward_tables: Optional[Dict[int, Mapping]] = None,
        copy: bool = True,
        large_diameter: Optional[bool] = None,
    ) -> "HubIndex":
        """Reconstruct an index from persisted cost tables (no rebuild).

        ``backward_tables`` is required for directed graphs and ignored for
        undirected ones (where backward aliases forward).  ``copy=False``
        adopts the mappings by reference — the frozen-publish path, where
        tables are structurally shared across versions and the index is
        never notified of updates.  ``large_diameter`` passes the source
        index's verdict on (None recomputes it with one BFS).
        """
        index = cls.__new__(cls)
        index._graph = graph
        index._hubs = list(hubs)
        index._semiring = semiring
        if large_diameter is None:
            large_diameter = is_large_diameter(graph)
        index.large_diameter = large_diameter
        index._forward = {}
        index._backward = {}
        index.settled_last_update = 0
        index._frozen_fwd = {}
        index._frozen_bwd = {}
        for h in index._hubs:
            fwd = IncrementalBestPath.from_cost_table(
                graph, h, semiring, "forward", forward_tables[h], copy=copy
            )
            index._forward[h] = fwd
            if graph.directed:
                if backward_tables is None:
                    raise IndexStateError(
                        "directed index restore needs backward tables"
                    )
                index._backward[h] = IncrementalBestPath.from_cost_table(
                    graph, h, semiring, "backward", backward_tables[h],
                    copy=copy,
                )
            else:
                index._backward[h] = fwd
        return index

    # -- introspection --------------------------------------------------------------

    @property
    def graph(self):
        return self._graph

    @property
    def hubs(self) -> List[int]:
        return list(self._hubs)

    @property
    def num_hubs(self) -> int:
        return len(self._hubs)

    @property
    def semiring(self) -> PathSemiring:
        return self._semiring

    def __repr__(self) -> str:
        return (
            f"HubIndex(k={self.num_hubs}, semiring={self._semiring.name}, "
            f"entries={self.size_entries()}, "
            f"large_diameter={self.large_diameter})"
        )

    def cost_from_hub(self, hub: int, vertex: int) -> float:
        """Best cost ``hub → vertex`` (unreachable value if no path)."""
        return self._tree(self._forward, hub).cost(vertex)

    def cost_to_hub(self, hub: int, vertex: int) -> float:
        """Best cost ``vertex → hub``."""
        return self._tree(self._backward, hub).cost(vertex)

    def _tree(
        self, table: Dict[int, IncrementalBestPath], hub: int
    ) -> IncrementalBestPath:
        try:
            return table[hub]
        except KeyError:
            raise IndexStateError(f"{hub} is not a hub of this index") from None

    def forward_tree(self, hub: int) -> IncrementalBestPath:
        return self._tree(self._forward, hub)

    def backward_tree(self, hub: int) -> IncrementalBestPath:
        return self._tree(self._backward, hub)

    # -- maintenance --------------------------------------------------------------

    def notify_edge_inserted(self, src: int, dst: int, weight: float) -> None:
        """Repair all hub trees after edge ``src → dst`` was added to the graph."""
        settled = 0
        for h in self._hubs:
            fwd = self._forward[h]
            fwd.on_edge_inserted(src, dst, weight)
            settled += fwd.settled_last_op
            bwd = self._backward[h]
            if bwd is not fwd:
                bwd.on_edge_inserted(src, dst, weight)
                settled += bwd.settled_last_op
        self.settled_last_update = settled

    def notify_edge_deleted(self, src: int, dst: int, old_weight: float) -> None:
        """Repair all hub trees after edge ``src → dst`` was removed."""
        settled = 0
        for h in self._hubs:
            fwd = self._forward[h]
            fwd.on_edge_deleted(src, dst, old_weight)
            settled += fwd.settled_last_op
            bwd = self._backward[h]
            if bwd is not fwd:
                bwd.on_edge_deleted(src, dst, old_weight)
                settled += bwd.settled_last_op
        self.settled_last_update = settled

    def refresh(self) -> None:
        """Force any lazily-deferred rebuilds to run now."""
        for h in self._hubs:
            self._forward[h].ensure_fresh()
            bwd = self._backward[h]
            if bwd is not self._forward[h]:
                bwd.ensure_fresh()

    # -- freezing (the publish path) ---------------------------------------------

    def freeze(self) -> Tuple[FrozenTables, FrozenTables]:
        """Immutable per-hub cost tables for publishing a version.

        Drains each maintainer's touched vertices and derives the new
        frozen table from the previous freeze's table at those vertices,
        dropping every one whose cost equals the previous table's, so the
        cost is O(vertices touched since the last freeze) — a tree with no
        net change hands back the *same* mapping object.  Only the first
        freeze (or one after a wholesale rebuild) pays a full table copy.

        Returns ``(forward, backward)``; ``backward`` is empty for
        undirected graphs, where the two directions alias.
        """
        fwd: FrozenTables = {}
        bwd: FrozenTables = {}
        for h in self._hubs:
            fwd[h] = self._freeze_tree(self._forward[h],
                                       self._frozen_fwd.get(h))
            bwd_tree = self._backward[h]
            if bwd_tree is not self._forward[h]:
                bwd[h] = self._freeze_tree(bwd_tree, self._frozen_bwd.get(h))
        self._frozen_fwd = fwd
        self._frozen_bwd = bwd
        return fwd, bwd

    @staticmethod
    def _freeze_tree(
        tree: IncrementalBestPath, prev: Optional[Mapping]
    ) -> Mapping:
        full, touched = tree.drain_touched()
        if full or prev is None:
            return dict(tree.raw_cost_table())
        return derive_touched(prev, tree.raw_cost_table(), touched,
                              drop_equal=True)

    # -- accounting -------------------------------------------------------------------

    def size_entries(self) -> int:
        """Total stored (hub, vertex) cost entries."""
        total = 0
        for h in self._hubs:
            total += self._forward[h].num_reachable
            bwd = self._backward[h]
            if bwd is not self._forward[h]:
                total += bwd.num_reachable
        return total


# -- the dense serving plane -------------------------------------------------


def _derive_matrix(
    hubs: List[int],
    tables: Dict[int, Mapping],
    ids: List[int],
    dense: Dict[int, int],
    prev: Optional[np.ndarray],
    prev_refs: Dict[int, Mapping],
) -> np.ndarray:
    """One direction's ``(k, |V|)`` cost matrix (row per hub, inf = absent).

    With ``prev`` (the previous epoch's matrix over the same id space and
    hub list) each row is patched at the vertices
    :func:`~repro.graph.deltas.changed_keys` names against the mapping the
    row was built from, and only a row with no such mapping is rebuilt;
    when no row changed at all, ``prev`` itself is returned and the epochs
    share one matrix.
    """
    plan = [
        (pos, tables[h],
         None if prev is None or h not in prev_refs
         else changed_keys(prev_refs[h], tables[h], ids))
        for pos, h in enumerate(hubs)
    ]
    if prev is not None and not any(keys is None or keys for _, _, keys in plan):
        return prev
    out = (prev.copy() if prev is not None
           else np.empty((len(hubs), len(ids)), dtype=np.float64))
    inf = math.inf
    dget = dense.get
    for pos, mapping, keys in plan:
        row = out[pos]
        if keys is None:
            row.fill(inf)
            for v, c in mapping.items():
                i = dget(v)
                if i is not None:
                    row[i] = c
            continue
        get = mapping.get
        for v in keys:
            i = dget(v)
            if i is not None:
                row[i] = get(v, inf)
    return out


class DenseHubTables:
    """Frozen hub cost tables as numpy matrices over dense vertex ids.

    One C-contiguous float64 ``(k, |V|)`` matrix per direction (``inf``
    marks unreachable): ``F[j, v]`` = cost hub_j → v, ``B[j, v]`` = cost
    v → hub_j, with ``B is F`` on undirected tables.  :meth:`derive` shares
    the previous epoch's matrix when no hub table changed and otherwise
    copies it once and patches only the vertices whose cost changed
    (:func:`~repro.graph.deltas.changed_keys`), mirroring the O(Δ)
    dict-table publish.  Bound evaluation is a handful of vectorized ops on
    the matrices; the search loop's per-vertex probes index
    :attr:`fwd_views` / :attr:`bwd_views`, one memoryview per hub row made
    with the tables, so no per-epoch Python copy of a row ever exists.
    ``fwd_rows`` / ``bwd_rows`` are the same rows as numpy views.
    ``large_diameter`` carries the :class:`HubIndex` verdict the rows were
    frozen from: whether the search orders its queues by the hub bound.

    Only meaningful for the min-plus (shortest distance / hops) algebra —
    the residual formulas baked into the bound methods assume it.
    """

    __slots__ = (
        "hubs",
        "F",
        "B",
        "fwd_rows",
        "bwd_rows",
        "fwd_views",
        "bwd_views",
        "directed",
        "large_diameter",
        "_ids",
        "_fwd_refs",
        "_bwd_refs",
    )

    def __init__(
        self,
        hubs: List[int],
        F: np.ndarray,
        B: np.ndarray,
        directed: bool,
        ids: List[int],
        fwd_refs: Dict[int, Mapping],
        bwd_refs: Dict[int, Mapping],
        large_diameter: bool = False,
    ) -> None:
        self.hubs = hubs
        self.F = F
        self.B = B
        self.fwd_rows = [F[j] for j in range(F.shape[0])]
        self.fwd_views = tuple(map(memoryview, self.fwd_rows))
        if B is F:
            self.bwd_rows = self.fwd_rows
            self.bwd_views = self.fwd_views
        else:
            self.bwd_rows = [B[j] for j in range(B.shape[0])]
            self.bwd_views = tuple(map(memoryview, self.bwd_rows))
        self.directed = directed
        self.large_diameter = large_diameter
        self._ids = ids
        # The frozen mappings each row was materialized from — the baseline
        # the next epoch's derive() diffs against.
        self._fwd_refs = fwd_refs
        self._bwd_refs = bwd_refs

    @classmethod
    def derive(
        cls,
        csr,
        hubs: Sequence[int],
        fwd_tables: Dict[int, Mapping],
        bwd_tables: Dict[int, Mapping],
        prev: Optional["DenseHubTables"] = None,
        large_diameter: bool = False,
    ) -> "DenseHubTables":
        """Dense matrices for one freeze, derived from ``prev``'s if possible.

        ``fwd_tables``/``bwd_tables`` are :meth:`HubIndex.freeze` output
        (``bwd_tables`` empty for undirected graphs, where backward aliases
        forward).  ``prev`` must cover the identical id space (checked by
        object identity on the CSR's ``ids`` list) and hub list to be
        usable; otherwise every row is built fresh in O(|V|).
        """
        hubs = list(hubs)
        ids, dense = csr.ids, csr.dense_map
        directed = csr.directed
        if directed and not bwd_tables:
            raise IndexStateError("directed dense tables need backward tables")
        if (prev is not None and prev._ids is ids and prev.hubs == hubs
                and prev.directed == directed):
            prev_F, prev_B = prev.F, prev.B
            prev_fwd, prev_bwd = prev._fwd_refs, prev._bwd_refs
        else:
            prev_F = prev_B = None
            prev_fwd = prev_bwd = {}
        F = _derive_matrix(hubs, fwd_tables, ids, dense, prev_F, prev_fwd)
        B = F
        if directed:
            B = _derive_matrix(hubs, bwd_tables, ids, dense, prev_B, prev_bwd)
        return cls(
            hubs=hubs,
            F=F,
            B=B,
            directed=directed,
            ids=ids,
            fwd_refs=dict(fwd_tables),
            bwd_refs=dict(bwd_tables) if directed else {},
            large_diameter=large_diameter,
        )

    @classmethod
    def from_matrices(
        cls,
        hubs: Sequence[int],
        F: np.ndarray,
        B: np.ndarray,
        ids: List[int],
        directed: bool,
        large_diameter: bool = False,
    ) -> "DenseHubTables":
        """Adopt prebuilt C-contiguous ``(k, |V|)`` cost matrices by reference.

        The shared-memory attach path: rows and views read the mapped
        buffers, so construction is O(k) and nothing is copied.  Pass the
        same array for ``B`` and ``F`` on undirected tables (backward then
        aliases forward throughout).  Adopted tables carry no freeze
        mappings, so a later :meth:`derive` from them rebuilds every row.
        """
        return cls(
            hubs=list(hubs), F=F, B=B, directed=directed, ids=ids,
            fwd_refs={}, bwd_refs={}, large_diameter=large_diameter,
        )

    @property
    def num_hubs(self) -> int:
        return len(self.hubs)

    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"DenseHubTables(k={self.num_hubs}, |V|={self.num_vertices}, "
            f"directed={self.directed}, large_diameter={self.large_diameter})"
        )

    def columns_for(self, v: int) -> Tuple[list, list]:
        """The per-hub ``(forward, backward)`` cost columns at dense id ``v``.

        ``forward[j]`` = cost hub_j → v, ``backward[j]`` = cost v → hub_j —
        the two k-length scalar columns the dense pairwise search references
        for each query endpoint.  O(k), two strided reads of the matrices.
        """
        return self.F[:, v].tolist(), self.B[:, v].tolist()

    # -- vectorized bound math (min-plus algebra) ----------------------------

    def upper_bound(self, s: int, t: int) -> float:
        """``min over hubs of d(s,h) + d(h,t)`` — dense ids in, cost out."""
        F, B = self.F, self.B
        return float((B[:, s] + F[:, t]).min())

    def residual_pair(self, s: int, t: int) -> float:
        """Tightest per-hub lower bound on ``d(s, t)`` (dense ids)."""
        F, B = self.F, self.B
        return max(0.0, float(_per_hub_residual(
            F[:, s], F[:, t], B[:, s], B[:, t]).max()))

    def bounds_many(
        self, s: int, ts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`upper_bound` and :meth:`residual_pair` of ``(s, t)`` for
        every dense id ``t`` in ``ts``: two arrays, the same arithmetic
        (so the same floats) as the scalar methods."""
        F, B = self.F, self.B
        fs, bs = F[:, s, None], B[:, s, None]
        ft, bt = F[:, ts], B[:, ts]
        upper = (bs + ft).min(axis=0)
        lower = np.maximum(_per_hub_residual(fs, ft, bs, bt).max(axis=0), 0.0)
        return upper, lower


def _per_hub_residual(fs, ft, bs, bt) -> np.ndarray:
    """Each hub's lower bound on ``d(s, t)`` from the columns ``d(h,s)``,
    ``d(h,t)``, ``d(s,h)``, ``d(t,h)``; ``(k,)`` columns or ``(k, 1)``
    against ``(k, m)`` for ``m`` targets.  ``inf`` proves no path."""
    inf = math.inf
    with np.errstate(invalid="ignore"):
        from_hub = np.where(
            fs == inf, 0.0, np.where(ft == inf, inf, np.maximum(ft - fs, 0.0))
        )
        to_hub = np.where(
            bt == inf, 0.0, np.where(bs == inf, inf, np.maximum(bs - bt, 0.0))
        )
    return np.maximum(from_hub, to_hub)


#: weights :func:`sums_are_exact` reads per step, so its temporaries stay
#: a few tens of kilobytes whatever the plane's size
EXACT_CHUNK = 4096


def sums_are_exact(weights: np.ndarray, num_vertices: int) -> bool:
    """Whether float64 adds up any ``2·num_vertices`` of ``weights`` exactly.

    True when some ``P`` makes every weight an integer multiple of
    ``2^-P`` and ``2·|V|·max_w·2^P <= 2^53``.  Every weight is then an
    integer numerator over ``2^P``, and every sum of at most ``2|V|`` of
    them (a path label, or a witness ``d(s,h) + d(h,t)``) an integer below
    ``2^53`` over the same denominator, which float64 holds exactly: no
    addition rounds, so every evaluation order gives the same float.  ``P``
    is the smallest that fits, read off each weight's mantissa bits, and
    the test stops at the first :data:`EXACT_CHUNK` of weights that breaks
    the bound (a real-valued weight does at once).
    """
    p = 0
    largest = 0.0
    for start in range(0, weights.size, EXACT_CHUNK):
        w = weights[start:start + EXACT_CHUNK]
        w = w[w != 0.0]
        if not w.size:
            continue
        if not (w > 0.0).all() or not np.isfinite(w).all():
            return False
        mant, exp = np.frexp(w)                     # w = mant · 2^exp
        num = np.ldexp(mant, 53).astype(np.int64)   # w = num · 2^(exp − 53)
        low_exp = np.frexp((num & -num).astype(np.float64))[1] - 1
        # num's lowest set bit is 2^low_exp: w is a multiple of 2^-q for
        # q = 53 − exp − low_exp and of no finer power of two.
        p = max(p, int((53 - exp - low_exp).max()))
        largest = max(largest, float(w.max()))
        with np.errstate(over="ignore"):
            top = float(np.ldexp(largest, p))       # max_w · 2^P, exactly
        if not (math.isfinite(top) and 2 * num_vertices * int(top) <= 1 << 53):
            return False
    return True


class DensePlane:
    """One epoch's complete dense serving state: CSR adjacency + hub rows.

    Built lazily (the first query against a published view triggers it, not
    the publish itself) and derived from the previous epoch's plane where
    the id space and freeze chain allow — see :meth:`build`.
    """

    __slots__ = ("csr", "tables", "_exact")

    def __init__(self, csr, tables: DenseHubTables) -> None:
        self.csr = csr
        self.tables = tables
        self._exact: Optional[bool] = None

    @property
    def exact_sums(self) -> bool:
        """:func:`sums_are_exact` over this plane's weights and vertices.

        Tested at the first wide batch that asks and cached on the plane,
        so neither a publish nor a plane build ever pays for it.
        """
        if self._exact is None:
            csr = self.csr
            self._exact = sums_are_exact(csr.weights, csr.num_vertices)
        return self._exact

    @classmethod
    def build(
        cls,
        snapshot,
        hubs: Sequence[int],
        fwd_tables: Dict[int, Mapping],
        bwd_tables: Dict[int, Mapping],
        unit_weights: bool = False,
        prev: Optional["DensePlane"] = None,
        large_diameter: bool = False,
    ) -> "DensePlane":
        """Dense plane for one published freeze.

        ``unit_weights=True`` serves the hop metric: the CSR is the shared
        unit-weight variant of the snapshot's CSR (same id space, fresh
        weight arrays).  ``prev`` chains planes across epochs so both the
        CSR id mapping and the per-hub rows derive in O(Δ).
        ``large_diameter`` is the frozen index's verdict.
        """
        reuse = prev.csr if prev is not None else None
        csr = snapshot.to_csr(reuse=reuse)
        if unit_weights:
            csr = csr.with_unit_weights()
        prev_tables = prev.tables if prev is not None else None
        tables = DenseHubTables.derive(
            csr, hubs, fwd_tables, bwd_tables, prev=prev_tables,
            large_diameter=large_diameter,
        )
        return cls(csr, tables)

    def __repr__(self) -> str:
        return f"DensePlane({self.csr!r}, {self.tables!r})"
