"""Baseline systems the evaluation compares SGraph against."""

from repro.baselines.dijkstra import (
    bfs_hops,
    bidirectional_dijkstra,
    dijkstra_distance,
    full_sssp,
)
from repro.baselines.propagation import PropagationEngine

__all__ = [
    "dijkstra_distance",
    "bidirectional_dijkstra",
    "bfs_hops",
    "full_sssp",
    "PropagationEngine",
]
