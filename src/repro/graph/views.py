"""Graph views: alternative weightings over the same adjacency.

:class:`UnitWeightView` presents every edge with weight 1.0 so that the
distance machinery (engine, hub index, incremental maintenance) answers
*hop-count* queries without duplicating the graph.  The view follows the
underlying graph live — mutations show through immediately.
"""

from __future__ import annotations

from typing import Iterator, Tuple


class UnitWeightView:
    """Read-only traversal-protocol adapter that reports all weights as 1.0.

    It carries only what the engine, the hub index and its maintainer ask
    of a graph: identity (``base``, ``directed``, ``num_vertices``), the
    vertex set (``vertices``, ``has_vertex``), unit-weight traversal
    (``out_items``, ``in_items``) and ``degree`` for hub selection.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph) -> None:
        self._graph = graph

    @property
    def base(self):
        """The underlying graph."""
        return self._graph

    @property
    def directed(self) -> bool:
        return self._graph.directed

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def __repr__(self) -> str:
        return f"UnitWeightView({self._graph!r})"

    def vertices(self) -> Iterator[int]:
        return self._graph.vertices()

    def has_vertex(self, vertex: int) -> bool:
        return self._graph.has_vertex(vertex)

    def out_items(self, vertex: int) -> Iterator[Tuple[int, float]]:
        for u, _w in self._graph.out_items(vertex):
            yield u, 1.0

    def in_items(self, vertex: int) -> Iterator[Tuple[int, float]]:
        for u, _w in self._graph.in_items(vertex):
            yield u, 1.0

    def degree(self, vertex: int) -> int:
        return self._graph.degree(vertex)
