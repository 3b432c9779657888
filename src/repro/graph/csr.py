"""Compressed-sparse-row materialization of a snapshot.

Searching ``dict``-of-``dict`` adjacency is noticeably slower than flat
numpy arrays.  :class:`CSRGraph` is a read-only array view of one
snapshot with a dense internal vertex numbering plus the id mapping needed to
translate back to caller-visible vertex ids.

The CSR is the *traversal substrate of the dense serving
plane*: the pruned bidirectional engine walks :attr:`CSRGraph.out_views` /
:attr:`CSRGraph.in_views` (memoryviews of the arrays, made with the CSR:
indexing one reads the element straight out of the numpy buffer as a
Python scalar, so no per-epoch copy ever exists — in a shm worker the views
read the mapped segment itself), and frozen hub tables are laid out over
the same dense numbering.  Vertices with no out- (or in-) arcs —
including fully isolated vertices — occupy an empty row, so every vertex of
the snapshot is addressable.

Construction has one entry point, :meth:`GraphSnapshot.to_csr`, and two
costs.  :meth:`CSRGraph.from_snapshot` builds every row in Python, O(V+E):
the first build of a graph, and the fallback.  Given another epoch's CSR
(``to_csr(reuse=prev)``) whose vertex set is the same, the new arrays are
*derived*: the rows that changed are found by diffing the two snapshots'
adjacency mappings by object identity (O(Δ) while both are layers over one
base, one O(V) C-speed scan across a compaction), only those rows are
rebuilt in Python (O(Δ·deg)), and everything else is spliced out of
``prev`` with a constant number of numpy ops (O(E) at memcpy speed).  The
result equals a from-scratch build array for array and shares ``prev``'s
``ids`` list *object*, which downstream consumers (dense hub tables) use as
an O(1) identity test for "same id space" — the hook that keeps dense-table
derivation delta-proportional.  The fallback triggers when there is no
``prev``, when a vertex was added or removed, or when ``prev`` was adopted
from raw arrays (:meth:`CSRGraph.from_arrays`) and so has no mappings to
diff against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, VertexNotFoundError
from repro.graph.deltas import changed_keys
from repro.graph.snapshot import Adjacency, GraphSnapshot

Triple = Tuple[np.ndarray, np.ndarray, np.ndarray]
Source = Tuple[Adjacency, Adjacency, np.ndarray, np.ndarray]


def _derive_triple(
    triple: Triple, prev: Adjacency, new: Adjacency,
    ids: List[int], dense: Dict[int, int],
) -> Optional[Triple]:
    """One direction's ``(indptr, indices, weights)`` for ``new``, given the
    arrays built from ``prev``; None when the vertex sets differ.

    The rows rebuilt are the vertices whose adjacency dict is a different
    object in ``new`` (:func:`~repro.graph.deltas.changed_keys`: snapshots
    never mutate a per-vertex dict and share it until the vertex is
    touched).  Only those are rebuilt in Python (same order as
    :meth:`CSRGraph.from_snapshot`: ascending dense neighbor); every other
    arc moves with one row-mask gather/scatter per array.
    """
    if len(new) != len(ids):
        return None
    changed = changed_keys(prev, new, ids)
    if not changed:
        return triple
    try:
        rows = sorted(map(dense.__getitem__, changed))
        adjacency = [new[ids[i]] for i in rows]
    except KeyError:  # a vertex was added and another removed
        return None
    fresh_idx: List[int] = []
    fresh_w: List[float] = []
    lens: List[int] = []
    for nbrs in adjacency:
        row = sorted(zip(map(dense.__getitem__, nbrs), nbrs.values()))
        lens.append(len(row))
        fresh_idx.extend([u for u, _w in row])
        fresh_w.extend([w for _u, w in row])
    indptr, indices, weights = triple
    old_deg = np.diff(indptr)
    deg = old_deg.copy()
    deg[rows] = lens
    new_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(deg, out=new_indptr[1:])
    keep = np.ones(len(ids), dtype=bool)
    keep[rows] = False
    src = np.repeat(keep, old_deg)
    dst = np.repeat(keep, deg)
    new_indices = np.empty(dst.shape[0], dtype=np.int64)
    new_weights = np.empty(dst.shape[0], dtype=np.float64)
    new_indices[dst] = indices[src]
    new_weights[dst] = weights[src]
    fresh = np.logical_not(dst)
    new_indices[fresh] = fresh_idx
    new_weights[fresh] = fresh_w
    return new_indptr, new_indices, new_weights


class CSRGraph:
    """Read-only CSR arrays for one graph snapshot.

    Attributes
    ----------
    indptr, indices, weights:
        Standard CSR arrays over the *dense* vertex numbering for forward
        (out-) traversal.
    rev_indptr, rev_indices, rev_weights:
        The same for backward traversal.  For undirected graphs these alias
        the forward arrays.
    out_views, in_views:
        ``(indptr, indices, weights)`` as memoryviews of the forward /
        backward arrays — the dense search loops' per-element access.
        ``in_views is out_views`` when the backward arrays alias the
        forward ones.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "rev_indptr",
        "rev_indices",
        "rev_weights",
        "out_views",
        "in_views",
        "_ids",
        "_dense",
        "directed",
        "epoch",
        "_unit",
        "_source",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
        rev_weights: np.ndarray,
        vertex_ids: Sequence[int],
        directed: bool,
        epoch: int,
        dense_map: Optional[Dict[int, int]] = None,
        source: Optional[Source] = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.rev_indptr = rev_indptr
        self.rev_indices = rev_indices
        self.rev_weights = rev_weights
        self.out_views = (
            memoryview(indptr), memoryview(indices), memoryview(weights)
        )
        self.in_views = (
            self.out_views if rev_indptr is indptr and rev_weights is weights
            else (memoryview(rev_indptr), memoryview(rev_indices),
                  memoryview(rev_weights))
        )
        # Adopt a list by reference so id-space identity survives (see
        # module docstring); other sequences are copied.
        self._ids = vertex_ids if isinstance(vertex_ids, list) else list(vertex_ids)
        self._dense: Dict[int, int] = (
            dense_map if dense_map is not None
            else {v: i for i, v in enumerate(self._ids)}
        )
        self.directed = directed
        self.epoch = epoch
        self._unit: Optional["CSRGraph"] = None
        # What the next epoch derives from: the snapshot's (out, in)
        # adjacency mappings — the mapping objects only, never the snapshot,
        # which memoizes this CSR — and the *weighted* weight arrays, which
        # a unit-weight variant no longer carries itself.  None for arrays
        # adopted without a snapshot behind them.
        self._source = source

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: GraphSnapshot) -> "CSRGraph":
        """Build every row from scratch: O(V+E) in Python.

        The first build, the fallback of :meth:`GraphSnapshot.to_csr` when
        the previous CSR cannot be derived from, and the oracle the derive
        path is tested against.
        """
        ids = sorted(snapshot.vertices())
        dense = {v: i for i, v in enumerate(ids)}
        n = len(ids)

        def build(items_of) -> Triple:
            indptr = np.zeros(n + 1, dtype=np.int64)
            rows: List[List[Tuple[int, float]]] = []
            total = 0
            for i, v in enumerate(ids):
                row = [(dense[u], w) for u, w in items_of(v)]
                row.sort()
                rows.append(row)
                total += len(row)
                indptr[i + 1] = total
            indices = np.empty(total, dtype=np.int64)
            weights = np.empty(total, dtype=np.float64)
            pos = 0
            for row in rows:
                for u, w in row:
                    indices[pos] = u
                    weights[pos] = w
                    pos += 1
            return indptr, indices, weights

        fwd = build(snapshot.out_items)
        rev = build(snapshot.in_items) if snapshot.directed else fwd
        return cls._of_snapshot(snapshot, fwd, rev, ids, dense)

    @classmethod
    def _of_snapshot(
        cls, snapshot: GraphSnapshot, fwd: Triple, rev: Triple,
        ids: List[int], dense: Dict[int, int],
    ) -> "CSRGraph":
        return cls(
            *fwd, *rev,
            vertex_ids=ids,
            directed=snapshot.directed,
            epoch=snapshot.epoch,
            dense_map=dense,
            source=(snapshot._out, snapshot._in, fwd[2], rev[2]),
        )

    def _derive(self, snapshot: GraphSnapshot) -> Optional["CSRGraph"]:
        """The CSR of ``snapshot``, spliced from this one; None if it can't be.

        Needs the mappings this CSR was built from and an unchanged vertex
        set.  The diff is symmetric, so ``snapshot`` may be older or newer
        than this CSR and any number of epochs away.  The result shares
        ``ids``/``dense_map`` with this CSR by reference and equals
        :meth:`from_snapshot` array for array.
        """
        if self._source is None or self.directed != snapshot.directed:
            return None
        prev_out, prev_in, weights, rev_weights = self._source
        ids, dense = self._ids, self._dense
        fwd = rev = _derive_triple(
            (self.indptr, self.indices, weights),
            prev_out, snapshot._out, ids, dense,
        )
        if fwd is not None and self.directed:
            rev = _derive_triple(
                (self.rev_indptr, self.rev_indices, rev_weights),
                prev_in, snapshot._in, ids, dense,
            )
        if fwd is None or rev is None:
            return None
        return self._of_snapshot(snapshot, fwd, rev, ids, dense)

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vertex_ids: Sequence[int],
        directed: bool,
        epoch: int,
        rev_indptr: Optional[np.ndarray] = None,
        rev_indices: Optional[np.ndarray] = None,
        rev_weights: Optional[np.ndarray] = None,
    ) -> "CSRGraph":
        """Adopt prebuilt CSR arrays by reference (no per-arc validation).

        The shared-memory attach path: arrays are zero-copy views into a
        mapped segment, so construction stays O(#buffers).  Undirected
        callers omit the ``rev_*`` triple (backward aliases forward);
        directed callers must supply all three.  ``vertex_ids`` (a list or
        an int array) must be strictly increasing: dense ids sort like
        vertex ids everywhere else, and the search loops break label ties
        by dense id, so an unsorted foreign plane would answer right but
        tie-break differently from the dict plane.
        """
        ids = np.asarray(vertex_ids)
        if not (ids[1:] > ids[:-1]).all():
            raise ConfigError("adopted CSR vertex ids must be strictly increasing")
        if isinstance(vertex_ids, np.ndarray):
            vertex_ids = ids.tolist()
        if directed:
            if rev_indptr is None or rev_indices is None or rev_weights is None:
                raise ConfigError(
                    "directed CSR adoption needs rev_indptr, rev_indices "
                    "and rev_weights"
                )
        else:
            rev_indptr, rev_indices, rev_weights = indptr, indices, weights
        return cls(
            indptr=indptr,
            indices=indices,
            weights=weights,
            rev_indptr=rev_indptr,
            rev_indices=rev_indices,
            rev_weights=rev_weights,
            vertex_ids=vertex_ids,
            directed=directed,
            epoch=epoch,
        )

    @property
    def nbytes(self) -> int:
        """Array payload bytes (forward plus any distinct backward arrays)."""
        total = self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes
        if self.rev_indptr is not self.indptr:
            total += (self.rev_indptr.nbytes + self.rev_indices.nbytes
                      + self.rev_weights.nbytes)
        return total

    def with_unit_weights(self) -> "CSRGraph":
        """A CSR over the same topology with every arc weight 1.0.

        Shares the structure arrays and the id space with this CSR (only the
        weight arrays are fresh), so the hop-metric serving plane costs O(E)
        floats, not a rebuild.  Memoized.  As ``to_csr(reuse=...)`` the
        variant stands in for this CSR: the next epoch derives from the
        weighted arrays, never from the all-ones copies.
        """
        if self._unit is None:
            ones = np.ones_like(self.weights)
            rev_ones = np.ones_like(self.rev_weights) if self.directed else ones
            self._unit = CSRGraph(
                self.indptr, self.indices, ones,
                self.rev_indptr, self.rev_indices, rev_ones,
                vertex_ids=self._ids, directed=self.directed,
                epoch=self.epoch, dense_map=self._dense, source=self._source,
            )
        return self._unit

    # -- identity ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (undirected edges count twice, minus loops)."""
        return int(self.indices.shape[0])

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CSRGraph({kind}, |V|={self.num_vertices}, arcs={self.num_arcs})"

    # -- id mapping ---------------------------------------------------------------

    @property
    def ids(self) -> List[int]:
        """The shared dense→vertex id list.  Treat as immutable.

        Exposed (rather than copied) so consumers can identity-compare id
        spaces across epochs; see :meth:`same_id_space`.
        """
        return self._ids

    @property
    def dense_map(self) -> Dict[int, int]:
        """The shared vertex→dense id dict.  Treat as immutable."""
        return self._dense

    def same_id_space(self, other: "CSRGraph") -> bool:
        """O(1): True when both CSRs share the identical id mapping object.

        Guaranteed after ``snapshot.to_csr(reuse=other)`` found the vertex
        set unchanged (and for :meth:`with_unit_weights` variants).
        A False result does not prove the id spaces differ — only that they
        are not known-shared and per-id translation must be used.
        """
        return self._ids is other._ids

    def has_vertex(self, vertex: int) -> bool:
        """True when ``vertex`` is in this CSR's id space — all an engine
        over a plane asks of its graph, so a reader passes the CSR itself."""
        return vertex in self._dense

    def dense_id(self, vertex: int) -> int:
        """Map a caller-visible vertex id to its dense CSR index."""
        try:
            return self._dense[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertex_id(self, dense: int) -> int:
        """Map a dense CSR index back to the caller-visible vertex id."""
        return self._ids[dense]
