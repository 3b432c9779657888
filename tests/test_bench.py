"""Bench harness tests: table rendering, workload bundles, runners, and a
smoke pass over every experiment at miniature sizes."""

from __future__ import annotations

from pathlib import Path

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    run_e2_activations,
    run_e7_hubs,
    run_e9_crossover,
    run_e10_memory,
    run_e13_directed,
)
from repro.bench.harness import run_query_workload
from repro.bench.report import format_table
from repro.bench.workloads import build_workload
from repro.core.engine import PairwiseEngine


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_ragged_rows(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "b" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="X")


class TestWorkloads:
    def test_build_workload(self):
        wl = build_workload("collab-sw", num_pairs=6, num_hubs=4)
        assert wl.name == "collab-sw"
        assert len(wl.pairs) == 6
        assert wl.index.num_hubs == 4
        assert wl.num_vertices == wl.graph.num_vertices

    def test_run_query_workload(self):
        wl = build_workload("collab-sw", num_pairs=5, num_hubs=4)
        engine = PairwiseEngine(wl.graph, index=wl.index)
        agg = run_query_workload(engine.best_cost, wl.pairs)
        assert agg.total == 5
        assert agg.mean_elapsed > 0
        assert 0 <= agg.p(0.5) <= agg.p(1.0)
        assert agg.mean_activation_fraction(wl.num_vertices) >= 0


class TestExperimentSmoke:
    """Tiny-parameter versions of selected experiments: they must run and
    produce the claimed qualitative shapes."""

    def test_e2_shape(self):
        rows = run_e2_activations(num_pairs=4)
        by_key = {(r["dataset"], r["engine"]): r for r in rows}
        for dataset in ("social-pl", "collab-sw"):
            none = by_key[(dataset, "propagate/none")]["act/query"]
            ub = by_key[(dataset, "propagate/upper-only")]["act/query"]
            lb = by_key[(dataset, "propagate/upper+lower")]["act/query"]
            sg = by_key[(dataset, "sgraph (ordered)")]["act/query"]
            assert ub < none
            assert lb < ub
            assert sg <= lb * 1.5  # ordered engine at least comparable

    def test_e7_more_hubs_tighter(self):
        rows = run_e7_hubs(hub_counts=(1, 16), num_pairs=6)
        social = [r for r in rows
                  if r["dataset"] == "social-pl" and r["strategy"] == "degree"]
        act = {r["k"]: r["act%"] for r in social}
        assert act[16] <= act[1]

    def test_e9_has_both_winners(self):
        rows = run_e9_crossover(source_counts=(1, 64), num_updates=60,
                                num_queries=40)
        winners = {r["winner"] for r in rows}
        assert "continuous" in winners  # tiny working set: maintenance wins

    def test_e10_monotone_in_k(self):
        rows = run_e10_memory(hub_counts=(2, 8), scales=(0.5,))
        entries = {r["k"]: r["entries"] for r in rows}
        assert entries[8] > entries[2]

    def test_e13_smoke(self):
        """Tiny-parameter execution of the directed extension experiment."""
        assert len(run_e13_directed(num_pairs=4)) == 3

    def test_capture_buffer_round_trip(self):
        from repro.bench.capture import drain_tables, record_table

        record_table([{"a": 1}], "T1")
        record_table([{"b": 2}], "T2")
        tables = drain_tables()
        assert len(tables) == 2
        assert "T1" in tables[0] and "T2" in tables[1]
        assert drain_tables() == []

    def test_all_experiments_registry(self):
        assert len(ALL_EXPERIMENTS) == 8  # E2, E3, E7, E9–E11, E13, E19
        assert all(title.split()[0].startswith("E")
                   for title in ALL_EXPERIMENTS)

    def test_every_experiment_has_exactly_one_bench_module(self):
        """``benchmarks/bench_eN_*.py`` and ``ALL_EXPERIMENTS`` name the
        same ids: retiring an experiment leaves no orphan bench module,
        and no registered experiment goes unrun by the benchmarks."""
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        bench_ids = sorted(path.name.split("_")[1]
                           for path in bench_dir.glob("bench_e*.py"))
        registered = sorted(title.split()[0].lower()
                            for title in ALL_EXPERIMENTS)
        assert bench_ids == registered

    def test_retired_experiments_are_unknown_to_the_cli(self, capsys):
        """E1, E4–E6, E8, E12, E14–E18 and E20–E25 are not registered: the
        CLI exits 2 and lists exactly the registered ids instead."""
        from repro.cli import main

        known = ", ".join(title.split()[0] for title in ALL_EXPERIMENTS)
        for key in ("e1", "e4", "e5", "e6", "e8", "e12", "e14", "e15",
                    "e16", "e17", "e18", "e20", "e21", "e22", "e23",
                    "e24", "e25"):
            assert main(["experiment", key]) == 2
            err = capsys.readouterr().err
            assert f"unknown experiment {key!r}" in err
            assert f"known: {known} or 'all'" in err
