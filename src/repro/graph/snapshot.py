"""The dict-of-dict read surface and the immutable graph snapshot.

:class:`DictGraph` is the one traversal protocol (``out_items`` /
``in_items``, degrees, edge lookups) over a ``{vertex: {neighbor: weight}}``
adjacency.  Both the live :class:`~repro.graph.dynamic_graph.DynamicGraph`
and the frozen :class:`GraphSnapshot` inherit it, so engines and indexes
are agnostic to which one they are given.

A :class:`GraphSnapshot` is the unit of isolation between the ingestion path
and the query path: a publish freezes one snapshot per epoch and
every query (and every hub-index build) runs against exactly one snapshot.
"""

from __future__ import annotations

from typing import ItemsView, Iterator, List, Mapping, Optional, Tuple

from repro.errors import EdgeNotFoundError, SnapshotError, VertexNotFoundError

Edge = Tuple[int, int, float]

Adjacency = Mapping[int, Mapping[int, float]]


class DictGraph:
    """Read-only traversal surface over ``_out`` / ``_in`` adjacency maps.

    A subclass sets ``_out``, ``_in`` (the same mapping as ``_out`` when
    undirected), ``_directed``, ``_num_edges`` and ``_epoch``.
    """

    __slots__ = ()

    # -- identity -----------------------------------------------------------

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def epoch(self) -> int:
        """Monotone version counter; the live graph advances it on every
        successful mutation, a snapshot keeps the one it was frozen at."""
        return self._epoch

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Edge count (each undirected edge counted once)."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._out)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._out

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"{type(self).__name__}({kind}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, epoch={self._epoch})"
        )

    # -- traversal protocol ---------------------------------------------------

    def vertices(self) -> Iterator[int]:
        return iter(self._out)

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._out

    def has_edge(self, src: int, dst: int) -> bool:
        return src in self._out and dst in self._out[src]

    def edge_weight(self, src: int, dst: int) -> float:
        if src not in self._out:
            raise VertexNotFoundError(src)
        try:
            return self._out[src][dst]
        except KeyError:
            raise EdgeNotFoundError(src, dst) from None

    def out_items(self, vertex: int) -> ItemsView[int, float]:
        """Items view of ``{neighbor: weight}`` for forward traversal."""
        try:
            return self._out[vertex].items()
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def in_items(self, vertex: int) -> ItemsView[int, float]:
        """Items view of ``{neighbor: weight}`` for backward traversal."""
        try:
            return self._in[vertex].items()
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def out_degree(self, vertex: int) -> int:
        try:
            return len(self._out[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def in_degree(self, vertex: int) -> int:
        try:
            return len(self._in[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: int) -> int:
        """Total degree: out+in for directed graphs, neighbor count otherwise."""
        if self._directed:
            return self.out_degree(vertex) + self.in_degree(vertex)
        return self.out_degree(vertex)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges; undirected edges appear once (src <= dst)."""
        if self._directed:
            for src, nbrs in self._out.items():
                for dst, weight in nbrs.items():
                    yield src, dst, weight
        else:
            for src, nbrs in self._out.items():
                for dst, weight in nbrs.items():
                    if src <= dst:
                        yield src, dst, weight

    def edge_list(self) -> List[Edge]:
        return list(self.edges())


class GraphSnapshot(DictGraph):
    """Frozen view of a graph at a specific epoch.

    Construct via :meth:`repro.graph.DynamicGraph.snapshot`; the constructor
    takes ownership of the mappings passed in, which must never be mutated
    afterwards.  The mappings may structurally share unchanged per-vertex
    adjacency with other snapshots (and, under the copy-on-write discipline,
    with the live graph) — sharing is invisible through this read-only
    surface.
    """

    __slots__ = ("_out", "_in", "_directed", "_num_edges", "_epoch", "_csr")

    def __init__(
        self,
        out: Adjacency,
        inn: Optional[Adjacency],
        directed: bool,
        num_edges: int,
        epoch: int,
    ) -> None:
        if directed and inn is None:
            raise SnapshotError("directed snapshot requires a reverse adjacency")
        self._out = out
        self._in = inn if directed else out
        self._directed = directed
        self._num_edges = num_edges
        self._epoch = epoch
        self._csr: Optional["CSRGraph"] = None

    def to_csr(self, reuse: Optional["CSRGraph"] = None) -> "CSRGraph":
        """The numpy CSR materialization of this snapshot (memoized).

        ``reuse`` optionally passes another epoch's CSR (older or newer, or
        its unit-weight variant) to derive from: when the vertex set is the
        same, only the rows whose adjacency changed are rebuilt in Python —
        O(Δ·deg) — and the rest is spliced with O(E) numpy copies; the
        result shares ``reuse``'s id mapping by reference and is
        array-for-array what a from-scratch build gives.  Without ``reuse``,
        after a vertex was added or removed, or when ``reuse`` was adopted
        from raw arrays, this is the O(V+E) Python build
        :meth:`repro.graph.csr.CSRGraph.from_snapshot`.  ``reuse`` only
        influences the first call — later calls return the memoized
        instance.
        """
        if self._csr is None:
            from repro.graph.csr import CSRGraph

            csr = reuse._derive(self) if reuse is not None else None
            self._csr = csr if csr is not None else CSRGraph.from_snapshot(self)
        return self._csr
