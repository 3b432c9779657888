"""NaN budgets and tolerances are rejected on every query path.

A NaN compares false against everything, so as a budget it passes the
"witness meets the budget" test and answers *yes*, and as a tolerance it
disables every prune and stop test, after which the dict and dense planes
no longer agree bit for bit.  ``within_budget`` rejects a NaN budget with
:class:`QueryError` (before the ``source == target`` early out) and both
search kernels reject a NaN tolerance with :class:`ConfigError`, like a
negative one.  Checked on the dict plane, the dense plane and a published
view of each.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import SGraphConfig
from repro.errors import ConfigError, QueryError
from repro.graph.generators import grid_graph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

FAR = (0, 399)


@pytest.fixture(scope="module", params=["dict", "dense"])
def targets(request):
    sg = SGraph(graph=grid_graph(20, 20, seed=1), config=SGraphConfig(
        num_hubs=4, queries=("distance", "capacity"), backend=request.param,
    ))
    return sg, VersionedStore(sg).publish()


def test_nan_budget_is_rejected(targets):
    for target in targets:
        for pair in (FAR, (5, 5)):
            with pytest.raises(QueryError, match="budget"):
                target.within_distance(*pair, math.nan)
            with pytest.raises(QueryError, match="budget"):
                target.capacity_at_least(*pair, math.nan)


def test_nan_and_negative_tolerances_are_rejected(targets):
    for target in targets:
        for tolerance in (math.nan, -0.5):
            with pytest.raises(ConfigError, match="tolerance"):
                target.distance(*FAR, tolerance=tolerance)


def test_boundary_budgets_and_tolerances_still_answer(targets):
    for target in targets:
        exact = target.distance(*FAR).value
        assert target.distance(*FAR, tolerance=0.0).value == exact
        assert target.distance(*FAR, tolerance=0.5).value <= 1.5 * exact
        assert target.within_distance(*FAR, exact).value == 1.0
        assert target.within_distance(*FAR, math.inf).value == 1.0
        assert target.within_distance(*FAR, -math.inf).value == 0.0
        assert target.capacity_at_least(*FAR, -math.inf).value == 1.0
        assert target.capacity_at_least(*FAR, math.inf).value == 0.0
