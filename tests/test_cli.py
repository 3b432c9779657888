"""CLI tests (invoked in-process through main())."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cli import build_parser, format_table, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "nope"])

    def test_serve_delta_flags(self):
        args = build_parser().parse_args([
            "serve", "uniform-er", "--transport", "tcp", "--delta",
            "--cache-planes", "8",
        ])
        assert args.delta is True
        assert args.cache_planes == 8
        defaults = build_parser().parse_args(["serve", "uniform-er"])
        assert defaults.delta is False
        assert defaults.cache_planes == 4

    def test_attach_delta_flag(self):
        args = build_parser().parse_args(["attach", "h:1", "--delta"])
        assert args.delta is True


class TestFormatTable:
    def test_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        lines = format_table(rows, title="T").splitlines()
        assert lines == ["T", "a   b ", "--  --", "1   xy", "22  z "]

    def test_ragged_rows(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert text.splitlines()[0] == "a  b"

    def test_empty(self):
        assert format_table([], title="X") == "X\n(no rows)"
        assert format_table([]) == "(no rows)"


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "social-pl" in out
        assert "|V|" in out

    def test_datasets_lists_every_proxy(self, capsys):
        """One row per registered proxy, each naming the graph it models."""
        from repro.graph.datasets import DATASETS

        assert main(["datasets"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(DATASETS) >= 5
        for name, spec in DATASETS.items():
            rows = [line for line in lines if line.split()[:1] == [name]]
            assert len(rows) == 1, name
            assert spec.stands_in_for in rows[0]

    def test_profile(self, capsys):
        assert main(["profile", "collab-sw"]) == 0
        out = capsys.readouterr().out
        assert "collab-sw" in out

    def test_query_distance_with_path(self, capsys):
        assert main([
            "query", "collab-sw", "0", "25", "--hubs", "4", "--path",
        ]) == 0
        out = capsys.readouterr().out
        assert "distance(0, 25)" in out
        assert "path:" in out

    def test_query_bottleneck(self, capsys):
        assert main([
            "query", "collab-sw", "0", "25", "--kind", "bottleneck",
            "--hubs", "4",
        ]) == 0
        assert "bottleneck(0, 25)" in capsys.readouterr().out

    @pytest.mark.parametrize("dataset, kind, order", [
        ("road-grid", "distance", "ordered by g+p"),
        ("road-grid", "bottleneck", "ordered by g,"),
        ("collab-sw", "distance", "ordered by g,"),
    ])
    def test_query_prints_search_order(self, capsys, dataset, kind, order):
        assert main(["query", dataset, "3", "40", "--kind", kind,
                     "--hubs", "4"]) == 0
        assert order in capsys.readouterr().out

    def test_experiment_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "e2"])
        assert exc.value.code == 2
        assert "invalid choice: 'experiment'" in capsys.readouterr().err

    def test_record_then_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "w.trace")
        assert main(["record", "collab-sw", trace,
                     "--updates", "40", "--queries", "6"]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["replay", "collab-sw", trace, "--hubs", "4"]) == 0
        out = capsys.readouterr().out
        assert "replayed 40 updates, 6 queries" in out
        assert "activations/query" in out

    def test_serve_delta_requires_tcp(self, capsys):
        assert main(["serve", "uniform-er", "--delta"]) == 2
        assert "--delta requires --transport tcp" in capsys.readouterr().err


class TestServeTcp:
    @pytest.mark.net
    def test_serve_tcp_delta_end_to_end(self, capsys):
        """``repro serve --transport tcp --delta`` over three rounds: exit
        0, at least one delta fetch after the bootstrap, no leaked
        segment."""
        from repro.serving.net import net_available

        if not net_available():
            pytest.skip("loopback TCP sockets unavailable")
        assert main(["serve", "uniform-er", "--transport", "tcp", "--delta",
                     "--rounds", "3", "--queries", "16",
                     "--updates", "5"]) == 0
        out = capsys.readouterr().out
        transfer = next(line for line in out.splitlines()
                        if "transfer:" in line)
        deltas = int(transfer.split("transfer:")[1].split()[0])
        assert deltas >= 1
        assert "closed: 0 leaked shm segment(s)" in out


class TestAttachRobustness:
    @pytest.mark.net
    def test_attach_exits_cleanly_when_server_dies(self, capsys):
        """Killing the server under an attached reader must produce a
        clear message and exit code 1, not a connection-reset traceback."""
        from repro.serving.net import net_available

        if not net_available():
            pytest.skip("loopback TCP sockets unavailable")
        from repro.core.config import SGraphConfig
        from repro.graph.datasets import load_dataset
        from repro.serving.pool import ServeSession
        from repro.sgraph import SGraph

        sg = SGraph(graph=load_dataset("uniform-er"),
                    config=SGraphConfig(num_hubs=4, queries=("distance",)))
        session = ServeSession(sg, workers=1, transport="tcp")
        address = session.transport.address
        killer = threading.Timer(0.4, session.close)
        killer.start()
        try:
            rc = main(["attach", address, "--rounds", "200",
                       "--queries", "4", "--pause", "0.05"])
        finally:
            killer.join()
            session.close()
        captured = capsys.readouterr()
        assert rc == 1
        assert "server went away" in captured.err
        assert "attached to" in captured.out
        # re-attaching after the teardown is also a clean nonzero exit —
        # either the connect is refused or the registry is already empty
        t0 = time.monotonic()
        assert main(["attach", address]) == 1
        assert time.monotonic() - t0 < 5.0
        err = capsys.readouterr().err
        assert "server went away" in err or "nothing published yet" in err
