"""Benchmark harness: workload builders, runners, and table printers."""

from repro.bench.harness import run_query_workload
from repro.bench.report import format_table, print_table
from repro.bench.workloads import QueryWorkload, build_workload

__all__ = [
    "run_query_workload",
    "format_table",
    "print_table",
    "QueryWorkload",
    "build_workload",
]
