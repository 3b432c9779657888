"""SGraphConfig validation and error-hierarchy tests."""

from __future__ import annotations

import pytest

from repro.core.config import SGraphConfig
from repro.core.pairwise import PairwiseQuery, QueryKind
from repro.core.pruning import PruningPolicy
from repro.errors import (
    ConfigError,
    EdgeNotFoundError,
    GraphError,
    IndexStateError,
    InvalidWeightError,
    QueryError,
    ReproError,
    SnapshotError,
    VertexNotFoundError,
    WorkloadError,
)
from repro.sgraph import SGraph


class TestConfig:
    def test_defaults(self):
        cfg = SGraphConfig()
        assert cfg.num_hubs == 16
        assert cfg.hub_strategy == "auto"
        assert cfg.policy is PruningPolicy.UPPER_AND_LOWER
        assert cfg.queries == ("distance",)

    def test_policy_string_coerced(self):
        cfg = SGraphConfig(policy="upper-only")
        assert cfg.policy is PruningPolicy.UPPER_ONLY

    def test_invalid_hub_count(self):
        with pytest.raises(ConfigError):
            SGraphConfig(num_hubs=0)

    def test_invalid_strategy(self):
        with pytest.raises(ConfigError):
            SGraphConfig(hub_strategy="magic")

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SGraphConfig(policy="sometimes")

    def test_invalid_query_family(self):
        with pytest.raises(ConfigError):
            SGraphConfig(queries=("distance", "pagerank"))

    def test_empty_queries(self):
        with pytest.raises(ConfigError):
            SGraphConfig(queries=())

    def test_frozen(self):
        cfg = SGraphConfig()
        with pytest.raises(AttributeError):
            cfg.num_hubs = 3  # type: ignore[misc]

    def test_positional_config_is_rejected(self):
        # The second positional slot is `directed`; a config there used to
        # run silently on default knobs (and from_edges built a directed
        # graph, the config being truthy).
        cfg = SGraphConfig(num_hubs=2)
        with pytest.raises(ConfigError, match="config="):
            SGraph(None, cfg)
        with pytest.raises(ConfigError, match="config="):
            SGraph.from_edges([(0, 1, 1.0)], cfg)
        assert SGraph.from_edges([(0, 1, 1.0)], config=cfg).config is cfg


class TestPruningPolicy:
    def test_parse_round_trip(self):
        for policy in PruningPolicy:
            assert PruningPolicy.parse(policy.value) is policy
            assert PruningPolicy.parse(policy) is policy

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            PruningPolicy.parse("wat")

    def test_flags(self):
        assert not PruningPolicy.NONE.uses_index
        assert PruningPolicy.UPPER_ONLY.uses_index
        assert not PruningPolicy.UPPER_ONLY.uses_lower_bounds
        assert PruningPolicy.UPPER_AND_LOWER.uses_lower_bounds


class TestQueryKinds:
    def test_parse(self):
        assert QueryKind.parse("distance") is QueryKind.DISTANCE
        assert QueryKind.parse(QueryKind.HOPS) is QueryKind.HOPS
        with pytest.raises(ValueError):
            QueryKind.parse("dijkstra")

    def test_pairwise_query_record(self):
        q = PairwiseQuery(QueryKind.DISTANCE, 1, 2)
        assert (q.source, q.target) == (1, 2)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            SnapshotError,
            IndexStateError,
            QueryError,
            ConfigError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_graph_error_subtypes(self):
        assert issubclass(VertexNotFoundError, GraphError)
        assert issubclass(EdgeNotFoundError, GraphError)
        assert issubclass(InvalidWeightError, GraphError)

    def test_payloads(self):
        assert VertexNotFoundError(7).vertex == 7
        err = EdgeNotFoundError(1, 2)
        assert (err.src, err.dst) == (1, 2)
        assert "1" in str(err) and "2" in str(err)
