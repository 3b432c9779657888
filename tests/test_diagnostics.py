"""Bound-gap diagnostics tests."""

from __future__ import annotations

import math

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.diagnostics import BoundGap, bound_gap_profile
from repro.core.hub_index import HubIndex
from repro.core.semiring import BOTTLENECK_CAPACITY
from repro.errors import ConfigError
from repro.graph.generators import power_law_graph
from repro.graph.stats import sample_vertex_pairs


class TestBoundGap:
    def test_exact_pair(self):
        gap = BoundGap(0, 1, lower=3.0, upper=3.0)
        assert gap.ratio == 1.0
        assert gap.is_exact

    def test_unreachable_proof_is_exact(self):
        gap = BoundGap(0, 1, lower=math.inf, upper=math.inf)
        assert gap.is_exact

    def test_open_gap(self):
        gap = BoundGap(0, 1, lower=2.0, upper=5.0)
        assert gap.ratio == 2.5
        assert not gap.is_exact

    def test_no_upper_bound(self):
        gap = BoundGap(0, 1, lower=1.0, upper=math.inf)
        assert gap.ratio == math.inf

    def test_zero_lower_bound(self):
        gap = BoundGap(0, 1, lower=0.0, upper=4.0)
        assert gap.ratio == math.inf


class TestProfile:
    @pytest.fixture
    def setup(self):
        graph = power_law_graph(400, 4, seed=7, weight_range=(1.0, 4.0))
        index = HubIndex.build(graph, 8)
        pairs = sample_vertex_pairs(graph, 20, seed=8)
        return graph, index, pairs

    def test_report_shape(self, setup):
        _graph, index, pairs = setup
        report = bound_gap_profile(index, pairs)
        assert report.total == 20
        assert 0.0 <= report.exact_fraction <= 1.0
        assert report.closable_fraction(0.0) == report.exact_fraction
        assert report.closable_fraction(10.0) >= report.closable_fraction(0.1)
        row = report.as_row()
        assert row["pairs"] == 20
        assert row["gap_p90"] >= row["gap_p50"]

    def test_bounds_bracket_truth(self, setup):
        graph, index, pairs = setup
        for gap in bound_gap_profile(index, pairs).gaps:
            truth, _stats = dijkstra_distance(graph, gap.source, gap.target)
            assert gap.lower <= truth + 1e-9
            assert gap.upper >= truth - 1e-9

    def test_more_hubs_tighter(self):
        graph = power_law_graph(400, 4, seed=7, weight_range=(1.0, 4.0))
        pairs = sample_vertex_pairs(graph, 24, seed=9)
        small = bound_gap_profile(HubIndex.build(graph, 2), pairs)
        large = bound_gap_profile(HubIndex.build(graph, 32), pairs)
        assert large.ratio_percentile(0.5) <= small.ratio_percentile(0.5)

    def test_capacity_index_rejected(self):
        graph = power_law_graph(100, 3, seed=1)
        index = HubIndex.build(graph, 2, semiring=BOTTLENECK_CAPACITY)
        with pytest.raises(ConfigError):
            bound_gap_profile(index, [(0, 1)])
