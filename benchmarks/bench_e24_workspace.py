"""E24 — epoch-scoped search workspaces: O(touched) setup, not O(|V|).

Claim reproduced (shape): per-query state for the dense verbs (distance
labels, settled bytemaps, heaps) is owned by a :class:`SearchWorkspace`
reused across queries via sparse reset — each search resets only the
entries its heap journal proves it touched.  On a ≥100k-vertex plane an
index-pruned pairwise query touches a few dozen entries, so the O(|V|)
allocation the pre-workspace path paid per call dominates its latency;
reuse removes it.

Assertions, in decreasing universality:

* correctness is unconditional — every parity row (all three pruning
  policies, pairwise and batched, warm vs the fresh-state reference path)
  matches on values AND the six search counters; reuse can never trade
  correctness for latency;
* the headline claim — warm median latency for index-pruned pairwise
  queries is at least 2x below cold (observed: ~16x); the warm engine
  allocated its workspace exactly once for the whole run;
* the batched verb rides the same machinery — asserted at the same 2x
  bar (observed: ~6x);
* the unpruned row is reported but unasserted: when the search itself is
  O(thousands of pops), setup reuse legitimately fades toward 1x — that
  row documents where the optimization stops mattering.

``REPRO_E24_SIDE`` / ``REPRO_E24_QUERIES`` shrink the plane and workload
for smoke runs.
"""

from benchmarks.conftest import run_rows
from repro.bench.experiments import run_e24_workspace


def test_e24_workspace_table(benchmark):
    rows = run_rows(
        benchmark, run_e24_workspace,
        "E24 — epoch-scoped search workspaces",
    )
    pruned_rows = [r for r in rows if r["mode"] == "pairwise-pruned"]
    batched_rows = [r for r in rows if r["mode"] == "batched"]
    parity_rows = [r for r in rows if r["mode"] == "parity"]
    assert pruned_rows and batched_rows and len(parity_rows) == 3

    # Unconditional: bit-identity against the fresh-state reference under
    # every policy, and one workspace allocation per engine lifetime.
    for row in parity_rows:
        matched, total = map(int, row["parity"].split("/"))
        assert matched == total, (
            f"policy {row['policy']}: {row['parity']} parity"
        )
        assert row["workspace_allocs"] == 1, row
        assert row["workspace_hits"] >= row["queries"] - 1, row

    # Headline: index-pruned pairwise queries on a >=100k-vertex plane run
    # at least 2x faster warm than cold.
    for row in pruned_rows:
        assert row["vertices"] >= 100_000, row
        assert row["ratio"] >= 2.0, (
            f"warm {row['warm_ms']}ms vs cold {row['cold_ms']}ms "
            f"(ratio {row['ratio']}) — workspace reuse is not paying"
        )

    # Batched one-to-many rides the same workspace machinery.
    for row in batched_rows:
        assert row["ratio"] >= 2.0, row
