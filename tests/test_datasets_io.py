"""Dataset registry and edge-list I/O tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, GraphError
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.io import read_edge_list, write_edge_list


class TestDatasets:
    def test_registry_names(self):
        assert set(dataset_names()) == set(DATASETS)
        assert "social-pl" in dataset_names()

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_every_dataset_builds(self, name):
        g = load_dataset(name)
        assert g.num_vertices > 100
        assert g.num_edges > 100

    def test_deterministic(self):
        a = load_dataset("road-grid")
        b = load_dataset("road-grid")
        assert sorted(a.edge_list()) == sorted(b.edge_list())

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            load_dataset("nope")

    def test_specs_have_provenance(self):
        for spec in DATASETS.values():
            assert spec.stands_in_for
            assert spec.topology


class TestEdgeListIO:
    def test_round_trip_undirected(self, tmp_path, small_powerlaw):
        path = tmp_path / "g.txt"
        write_edge_list(small_powerlaw, path)
        back = read_edge_list(path)
        assert not back.directed
        assert sorted(back.edge_list()) == sorted(small_powerlaw.edge_list())

    def test_round_trip_directed(self, tmp_path, small_directed):
        path = tmp_path / "g.txt"
        write_edge_list(small_directed, path)
        back = read_edge_list(path)
        assert back.directed
        assert sorted(back.edge_list()) == sorted(small_directed.edge_list())

    def test_isolated_vertices_survive(self, tmp_path):
        g = DynamicGraph()
        g.add_edge(0, 1)
        g.add_vertex(7)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.has_vertex(7)
        assert back.num_vertices == 3

    def test_snap_style_no_header(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# comment\n1 2\n2 3\n")
        g = read_edge_list(path)
        assert not g.directed
        assert g.edge_weight(1, 2) == 1.0

    def test_directed_override(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("1 2\n")
        g = read_edge_list(path, directed=True)
        assert g.directed
        assert not g.has_edge(2, 1)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_malformed_vertex_record_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nv 1 2\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["1 x 3.0", "0 1 abc", "v seven", "1.5 2"])
    def test_non_numeric_field_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# directed=0\n0 1 1.0\n{line}\n")
        with pytest.raises(GraphError, match=rf"bad\.txt:3: malformed"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = read_edge_list(path)
        assert g.num_vertices == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n1 2\n\n  \n3 4 2.5\n")
        g = read_edge_list(path)
        assert g.num_edges == 2
        assert g.edge_weight(3, 4) == 2.5
