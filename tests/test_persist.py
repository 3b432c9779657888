"""Persistence round-trip tests."""

from __future__ import annotations

import json

import pytest

from repro.core.config import SGraphConfig
from repro.errors import ConfigError, GraphError
from repro.graph.generators import erdos_renyi_graph, power_law_graph
from repro.graph.stats import sample_vertex_pairs
from repro.persist import PersistError, load_sgraph, save_sgraph
from repro.sgraph import SGraph


@pytest.fixture
def built_sgraph():
    graph = power_law_graph(150, 3, seed=2, weight_range=(1.0, 4.0))
    sg = SGraph(
        graph=graph,
        config=SGraphConfig(num_hubs=4,
                            queries=("distance", "hops", "capacity")),
    )
    sg.rebuild_indexes()
    return sg


class TestRoundTrip:
    def test_answers_identical(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        restored = load_sgraph(tmp_path / "snap")
        pairs = sample_vertex_pairs(built_sgraph.graph, 12, seed=3)
        for s, t in pairs:
            assert restored.distance(s, t).value == pytest.approx(
                built_sgraph.distance(s, t).value
            )
            assert restored.hop_distance(s, t).value == built_sgraph.hop_distance(
                s, t
            ).value
            assert restored.bottleneck(s, t).value == pytest.approx(
                built_sgraph.bottleneck(s, t).value
            )

    def test_config_restored(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        restored = load_sgraph(tmp_path / "snap")
        assert restored.config == built_sgraph.config
        assert restored.index_for("distance").hubs == built_sgraph.index_for(
            "distance"
        ).hubs

    def test_verify_mode_passes_on_clean_save(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        restored = load_sgraph(tmp_path / "snap", verify=True)
        assert restored.num_edges == built_sgraph.num_edges

    def test_restored_instance_keeps_evolving(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        restored = load_sgraph(tmp_path / "snap")
        verts = sorted(restored.graph.vertices())
        restored.add_edge(verts[0], verts[-1], 1.0)
        assert restored.distance(verts[0], verts[-1]).value == 1.0
        restored.remove_edge(verts[0], verts[-1])
        from repro.baselines.dijkstra import dijkstra_distance

        ref, _stats = dijkstra_distance(restored.graph, verts[0], verts[-1])
        assert restored.distance(verts[0], verts[-1]).value == pytest.approx(ref)

    def test_directed_round_trip(self, tmp_path):
        graph = erdos_renyi_graph(60, 240, seed=4, directed=True,
                                  weight_range=(1.0, 4.0))
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=3))
        sg.rebuild_indexes()
        save_sgraph(sg, tmp_path / "snap")
        restored = load_sgraph(tmp_path / "snap", verify=True)
        assert restored.graph.directed
        verts = sorted(graph.vertices())
        for t in verts[1:10]:
            assert restored.distance(verts[0], t).value == pytest.approx(
                sg.distance(verts[0], t).value
            )


class TestFailureModes:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistError):
            load_sgraph(tmp_path / "nothing")

    def test_bad_format_version(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        meta = json.loads((tmp_path / "snap" / "meta.json").read_text())
        meta["format_version"] = 999
        (tmp_path / "snap" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(PersistError):
            load_sgraph(tmp_path / "snap")

    def test_removed_hub_strategy_rejected(self, built_sgraph, tmp_path):
        """A save naming a strategy outside ``STRATEGIES`` fails with the
        config's own error, which names the strategy."""
        save_sgraph(built_sgraph, tmp_path / "snap")
        meta = json.loads((tmp_path / "snap" / "meta.json").read_text())
        meta["config"]["hub_strategy"] = "path-cover"
        (tmp_path / "snap" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="path-cover"):
            load_sgraph(tmp_path / "snap")

    def test_missing_table_detected(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        tables = json.loads((tmp_path / "snap" / "tables.json").read_text())
        del tables["distance"]
        (tmp_path / "snap" / "tables.json").write_text(json.dumps(tables))
        with pytest.raises(PersistError):
            load_sgraph(tmp_path / "snap")

    def test_verify_catches_tampered_table(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        tables = json.loads((tmp_path / "snap" / "tables.json").read_text())
        hub, table = next(iter(tables["distance"]["forward"].items()))
        vertex = next(iter(table))
        table[vertex] = table[vertex] + 5.0
        (tmp_path / "snap" / "tables.json").write_text(json.dumps(tables))
        with pytest.raises(PersistError):
            load_sgraph(tmp_path / "snap", verify=True)
        # Unverified load still succeeds structurally (caveat documented).
        load_sgraph(tmp_path / "snap")

    def test_non_numeric_edge_field_names_its_line(self, built_sgraph, tmp_path):
        save_sgraph(built_sgraph, tmp_path / "snap")
        edges = tmp_path / "snap" / "graph.edges"
        lines = edges.read_text().splitlines()
        lines[2] = "0 1 abc"
        edges.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphError, match=r"graph\.edges:3: malformed edge"):
            load_sgraph(tmp_path / "snap")

    def test_non_integer_ids_rejected(self, tmp_path):
        sg = SGraph.from_edges([("a", "b", 1.0)],
                               config=SGraphConfig(num_hubs=1))
        sg.rebuild_indexes()
        with pytest.raises(PersistError):
            save_sgraph(sg, tmp_path / "snap")
