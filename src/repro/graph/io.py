"""Edge-list serialization.

The wire format is the plain whitespace-separated edge list used by SNAP and
Graph500 tooling: one ``src dst [weight]`` triple per line, ``#`` comments
allowed.  This is how real datasets would be loaded if they were available;
the tests round-trip generated graphs through it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.errors import GraphError
from repro.graph.dynamic_graph import DynamicGraph


def write_edge_list(graph: DynamicGraph, path: Union[str, Path]) -> int:
    """Write ``graph`` as an edge list.  Returns the number of lines written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="ascii") as fh:
        fh.write(f"# directed={int(graph.directed)}\n")
        for src, dst, weight in graph.edges():
            fh.write(f"{src} {dst} {weight!r}\n")
            count += 1
        # Isolated vertices need explicit records or they vanish on re-read.
        for v in graph.vertices():
            if graph.degree(v) == 0:
                fh.write(f"v {v}\n")
                count += 1
    return count


def read_edge_list(
    path: Union[str, Path], directed: bool | None = None
) -> DynamicGraph:
    """Read an edge list written by :func:`write_edge_list` or SNAP tooling.

    ``directed`` overrides the header flag when given (SNAP files carry no
    header; they default to undirected unless told otherwise).
    """
    path = Path(path)
    graph: DynamicGraph | None = None
    header_directed = False
    with path.open("r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "directed=" in line:
                    header_directed = line.split("directed=")[1].strip() == "1"
                continue
            if graph is None:
                use_directed = header_directed if directed is None else directed
                graph = DynamicGraph(directed=use_directed)
            parts = line.split()
            kind = "vertex" if parts[0] == "v" else "edge"
            try:
                if kind == "vertex" and len(parts) == 2:
                    graph.add_vertex(int(parts[1]))
                elif kind == "edge" and len(parts) == 2:
                    graph.add_edge(int(parts[0]), int(parts[1]))
                elif kind == "edge" and len(parts) == 3:
                    graph.add_edge(int(parts[0]), int(parts[1]), float(parts[2]))
                else:
                    raise ValueError("wrong field count")
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: malformed {kind} record: {line!r}"
                ) from None
    if graph is None:
        use_directed = header_directed if directed is None else directed
        graph = DynamicGraph(directed=use_directed)
    return graph
