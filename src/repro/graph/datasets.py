"""Dataset stand-ins for the paper's evaluation graphs.

The paper evaluates on public web/social graphs at 10^8–10^9 edge scale
(the usual suspects for this line of work: LiveJournal, Twitter, UK web
crawls, plus road networks for weighted pairwise queries).  Pure Python
cannot traverse graphs of that size in interactive time, and the raw files
are not available offline, so each paper graph is replaced by a *synthetic
proxy of the same topology class* at a scale the harness can sweep in
seconds.  The pruning-effectiveness shapes reported in EXPERIMENTS.md depend
on degree skew and diameter — which the proxies reproduce — not on raw size.

Each proxy is registered in :data:`DATASETS` with the topology class it
stands in for, and built deterministically from its recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    grid_graph,
    power_law_graph,
    rmat_graph,
    small_world_graph,
)


@dataclass(frozen=True)
class DatasetSpec:
    """A registered dataset proxy.

    Attributes
    ----------
    name:
        Short key used by the harness and benchmarks.
    stands_in_for:
        The class of paper-scale graph this proxy models.
    topology:
        Human-readable topology class.
    builder:
        Zero-argument callable producing the graph.
    weighted:
        Whether edge weights are non-uniform (weighted-distance queries
        are only interesting on these).
    """

    name: str
    stands_in_for: str
    topology: str
    builder: Callable[[], DynamicGraph]
    weighted: bool


def _social() -> DynamicGraph:
    return power_law_graph(
        num_vertices=4000, edges_per_vertex=5, seed=11, weight_range=(1.0, 4.0)
    )


def _web() -> DynamicGraph:
    return rmat_graph(scale=12, edge_factor=6, seed=12, weight_range=(1.0, 4.0))


def _road() -> DynamicGraph:
    return grid_graph(rows=64, cols=64, seed=13, weight_range=(1.0, 10.0),
                      diagonal_fraction=0.15)


def _collab() -> DynamicGraph:
    return small_world_graph(
        num_vertices=4000,
        nearest_neighbors=6,
        rewire_probability=0.08,
        seed=14,
        weight_range=(1.0, 4.0),
    )


def _uniform() -> DynamicGraph:
    return erdos_renyi_graph(
        num_vertices=3000, num_edges=15000, seed=15, weight_range=(1.0, 4.0)
    )


def _web_directed() -> DynamicGraph:
    return rmat_graph(scale=11, edge_factor=8, seed=16, directed=True,
                      weight_range=(1.0, 4.0))


def _sensor_reliability() -> DynamicGraph:
    # Edge weights are link success probabilities: a mesh with mostly good
    # links and a tail of flaky ones.
    return small_world_graph(
        num_vertices=2500,
        nearest_neighbors=6,
        rewire_probability=0.05,
        seed=17,
        weight_range=(0.55, 0.999),
    )


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="social-pl",
            stands_in_for="LiveJournal / Twitter-class social graph",
            topology="power-law (preferential attachment)",
            builder=_social,
            weighted=True,
        ),
        DatasetSpec(
            name="web-rmat",
            stands_in_for="UK web-crawl-class graph",
            topology="R-MAT (Graph500 skew)",
            builder=_web,
            weighted=True,
        ),
        DatasetSpec(
            name="road-grid",
            stands_in_for="USA-road-d-class road network",
            topology="lattice with random lengths",
            builder=_road,
            weighted=True,
        ),
        DatasetSpec(
            name="collab-sw",
            stands_in_for="DBLP/collaboration-class graph",
            topology="small-world (Watts-Strogatz)",
            builder=_collab,
            weighted=True,
        ),
        DatasetSpec(
            name="uniform-er",
            stands_in_for="control topology (no skew)",
            topology="Erdos-Renyi",
            builder=_uniform,
            weighted=True,
        ),
        DatasetSpec(
            name="web-dir",
            stands_in_for="directed web/follow-graph (Twitter arcs)",
            topology="directed R-MAT (Graph500 skew)",
            builder=_web_directed,
            weighted=True,
        ),
        DatasetSpec(
            name="sensor-rel",
            stands_in_for="probability-weighted sensor/overlay mesh",
            topology="small-world, weights in (0, 1]",
            builder=_sensor_reliability,
            weighted=True,
        ),
    ]
}


def dataset_names() -> List[str]:
    """Registered proxy names in registration order."""
    return list(DATASETS)


def load_dataset(name: str) -> DynamicGraph:
    """Build the named proxy graph deterministically."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown dataset {name!r}; known: {', '.join(DATASETS)}"
        ) from None
    return spec.builder()
