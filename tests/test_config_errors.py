"""SGraphConfig validation and error-hierarchy tests."""

from __future__ import annotations

import pytest

from repro.core.config import SGraphConfig
from repro.core.pairwise import QueryKind
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

    @pytest.mark.parametrize("weight", [5.0, 1.5])
    def test_reliability_refuses_a_non_probability_weight_up_front(self, weight):
        # Checked before the graph is touched, not only when an index is
        # built: a later hub rebuild would otherwise fail with the hub
        # already gone, and the meantime answers read inf.
        sg = SGraph.from_edges(
            [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.9)],
            config=SGraphConfig(num_hubs=1, queries=("reliability",)),
        )
        before = sg.reliability(0, 3).value
        edges, epoch = sorted(sg.graph.edges()), sg.epoch
        with pytest.raises(ConfigError, match="reliability"):
            sg.add_edge(0, 3, weight)
        with pytest.raises(ConfigError, match="reliability"):
            sg.add_edge(0, 1, weight)  # a weight change, too
        assert sorted(sg.graph.edges()) == edges and sg.epoch == epoch
        assert sg.reliability(0, 3).value == before == 0.225
        sg.remove_vertex(1)
        assert sg.reliability(0, 3).value == 0.0


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


class TestReaderCacheBound:
    """A reader's plane cache must hold at least one plane, as the
    server's publish history must; a bound below one is rejected before
    any connection is made."""

    @pytest.mark.parametrize("cache_planes", [0, -3])
    def test_net_client_and_reader_reject_cache_below_one(self, cache_planes):
        from repro.serving.net import NetClient, NetReader

        # rejected before connecting: nothing listens on port 1
        with pytest.raises(ConfigError, match="cache_planes must be >= 1"):
            NetClient("127.0.0.1", 1, cache_planes=cache_planes)
        with pytest.raises(ConfigError, match="cache_planes must be >= 1"):
            NetReader("127.0.0.1:1", cache_planes=cache_planes)

    def test_attach_names_the_flag(self, capsys):
        from repro.cli import main

        assert main(["attach", "127.0.0.1:1", "--cache-planes", "0"]) != 0
        err = capsys.readouterr().err
        assert "--cache-planes" in err
        assert "server went away" not in err


class TestMaxBackoff:
    """A reconnect ceiling that is not > 0 (NaN included) is refused
    where it is set, before any connection: a reader built with one
    would crash at its first backoff."""

    @pytest.mark.parametrize("max_backoff", [0.0, -1.0, float("nan")])
    def test_net_client_and_reader_reject_it(self, max_backoff):
        from repro.serving.net import NetClient, NetReader

        # rejected before connecting: nothing listens on port 1
        with pytest.raises(ConfigError, match="max_backoff must be > 0"):
            NetClient("127.0.0.1", 1, max_backoff=max_backoff)
        with pytest.raises(ConfigError, match="max_backoff must be > 0"):
            NetReader("127.0.0.1:1", max_backoff=max_backoff)

    def test_attach_names_the_flag(self, capsys):
        from repro.cli import main

        assert main(["attach", "127.0.0.1:1", "--max-backoff", "0"]) == 2
        err = capsys.readouterr().err
        assert "--max-backoff" in err
        assert "server went away" not in err
