"""Evolving-graph substrate: storage, snapshots, CSR, generators, datasets."""

from repro.graph.csr import CSRGraph
from repro.graph.deltas import CostJournal, LayeredMapping, derive_mapping
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    grid_graph,
    power_law_graph,
    rmat_graph,
    small_world_graph,
)
from repro.graph.snapshot import GraphSnapshot

__all__ = [
    "DynamicGraph",
    "GraphSnapshot",
    "CSRGraph",
    "CostJournal",
    "LayeredMapping",
    "derive_mapping",
    "erdos_renyi_graph",
    "power_law_graph",
    "rmat_graph",
    "grid_graph",
    "small_world_graph",
]
