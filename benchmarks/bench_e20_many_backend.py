"""E20 — batched one-to-many: dict vs dense serving plane.

Claim reproduced (shape): the amortized one-to-many search (E14's
workload) gains a second axis of speedup when served from the dense
plane — one flat ``g`` array shared across the whole target set, and the
per-target lower-bound probes read hub-row memoryviews instead of hub
dicts.
The dense median must drop below the dict reference for every target set
of 16 or more on both stand-in topologies, at *identical* activation
counts (the dense path is a transliteration, not a different algorithm).
"""

from benchmarks.conftest import run_rows
from repro.bench.experiments import run_e20_many_backend


def test_e20_many_backend_table(benchmark):
    rows = run_rows(
        benchmark, run_e20_many_backend,
        "E20 — batched one-to-many: dict vs dense",
        target_counts=(4, 16, 64), repeats=3,
    )
    by_key = {(r["dataset"], r["targets"], r["backend"]): r for r in rows}
    for dataset in ("social-pl", "road-grid"):
        for count in (4, 16, 64):
            dense = by_key[(dataset, count, "dense")]
            dict_ = by_key[(dataset, count, "dict")]
            # Value parity and identical traversal work, every batch size.
            assert dense["match"] and dict_["match"]
            assert dense["act="] and dict_["act="]
            assert dense["activations"] == dict_["activations"]
            # Latency must strictly improve once the batch amortizes the
            # dense plane's fixed per-call costs.
            if count >= 16:
                assert dense["median_ms"] < dict_["median_ms"]
