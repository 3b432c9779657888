"""nearest/within argument checks on every expansion path.

Both truncated-Dijkstra kernels (the dict-plane ``expand_from_graph`` and
the dense-plane ``expand_from_csr``) run one shared check first, so the
live facade, a published view and a facade with no distance family (its
plain dict traversal) reject the same arguments.  A NaN ``k`` or radius
fails a plain ``< 1`` / ``< 0`` comparison and never stops the search, so
it must be rejected rather than answered with the whole component.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import SGraphConfig
from repro.errors import QueryError
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

PATH = [(i, i + 1, 1.0) for i in range(20)]

# (backend, queries): the dict reference plane, the dense plane, and a
# facade whose expansion bypasses the engine (no distance family).
FACADES = {
    "dict": ("dict", ("distance",)),
    "dense": ("dense", ("distance",)),
    "no-distance": ("auto", ("hops",)),
}


def _targets(kind):
    backend, queries = FACADES[kind]
    sg = SGraph.from_edges(
        PATH,
        config=SGraphConfig(num_hubs=2, queries=queries, backend=backend),
    )
    targets = [sg]
    if "distance" in queries:
        targets.append(VersionedStore(sg).publish())
    return targets


@pytest.mark.parametrize("kind", sorted(FACADES))
def test_rejects_out_of_range_and_nan_arguments(kind):
    for target in _targets(kind):
        for k in (0, -3, math.nan):
            with pytest.raises(QueryError, match="k must be"):
                target.nearest(0, k)
        for radius in (-1.0, -math.inf, math.nan):
            with pytest.raises(QueryError, match="radius"):
                target.within(0, radius)


@pytest.mark.parametrize("kind", sorted(FACADES))
def test_accepts_the_boundary_arguments(kind):
    for target in _targets(kind):
        assert target.nearest(0, 1) == [(1, 1.0)]
        assert target.within(0, 0.0) == []
        assert target.within(0, 1.0) == [(1, 1.0)]
        assert len(target.within(0, math.inf)) == 20
