"""Streaming substrate: update batches, incremental maintenance, traces."""

from repro.streaming.incremental_sssp import IncrementalBestPath
from repro.streaming.update import EdgeUpdate, UpdateBatch, UpdateKind

__all__ = [
    "IncrementalBestPath",
    "EdgeUpdate",
    "UpdateBatch",
    "UpdateKind",
]
