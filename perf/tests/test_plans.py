"""The five plans: deterministic, complete, and sized for the percentile rule."""

from collections import Counter

import pytest

from perf import measure, run, workloads

NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def plans():
    return {name: w.plan(3) for name, w in workloads.WORKLOADS.items()}


def test_five_workloads_by_their_final_names():
    assert NAMES == ["engine-read", "ingest-publish", "live-mixed",
                     "serve-shm", "sync-tcp"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_plan_other_seed_other_plan(name, plans):
    again = workloads.WORKLOADS[name].plan(3)
    other = workloads.WORKLOADS[name].plan(4)
    assert again.digest == plans[name].digest and again.ops == plans[name].ops
    assert other.digest != plans[name].digest
    assert other.edges == plans[name].edges       # the dataset does not move


@pytest.mark.parametrize("name", NAMES)
def test_every_plan_feeds_every_end_to_end_metric(name, plans):
    kinds = Counter(op[0] for op in plans[name].ops)
    singles = sum(kinds[k] for k in workloads.SINGLE_KINDS)
    assert singles >= 200                         # query_p95_ms: >= 10 beyond
    assert kinds["update"] >= 40                  # update_p50_ms
    assert kinds["round"] >= 6                    # visible_lag_p50_ms, updates_per_s
    assert all(len(op[1]) > 0 for op in plans[name].ops if op[0] == "round")


@pytest.mark.parametrize("name", NAMES)
def test_plan_fits_its_mode(name, plans):
    mode = workloads.WORKLOADS[name].mode
    kinds = {op[0] for op in plans[name].ops}
    if mode.target != "live":
        assert "path" not in kinds                # views and sessions have no path verb
    if mode.target != "session":
        assert "map" not in kinds
    assert 4000 <= plans[name].num_vertices <= 4096


@pytest.mark.parametrize("name", NAMES)
def test_units_cover_the_op_list_and_rounds_stand_alone(name, plans):
    plan = plans[name]
    units = measure.cut_units(plan.costs_ms(), run.UNIT_MS)
    assert units[0][0] == 0 and units[-1][1] == len(plan.ops)
    assert all(a[1] == b[0] for a, b in zip(units, units[1:]))
    starts = {lo for lo, _hi in units}
    assert all(i in starts for i, op in enumerate(plan.ops) if op[0] == "round")


@pytest.mark.parametrize("name", NAMES)
def test_seeds_share_nineteen_ops_in_twenty_in_place(name):
    """A seed perturbs the fixed trace: most queries and window inserts sit
    where they sit in every run, a few are swapped for spares."""
    a = workloads.WORKLOADS[name].plan(1).ops
    b = workloads.WORKLOADS[name].plan(2).ops
    assert len(a) == len(b)
    assert [op[0] for op in a] == [op[0] for op in b]
    queries = [i for i, op in enumerate(a) if op[0] in workloads.SINGLE_KINDS]
    same = sum(1 for i in queries if a[i] == b[i]) / len(queries)
    assert 0.85 < same < 1.0


def test_sliding_streams_share_their_deletes_and_most_inserts():
    def stream(seed):
        ops = workloads.WORKLOADS["ingest-publish"].plan(seed).ops
        return [u for op in ops if op[0] in ("update", "round")
                for u in ([op[1]] if op[0] == "update" else op[1])]

    a, b = stream(1), stream(2)
    assert a != b
    assert [u for u in a if u[0] == "-"] == [u for u in b if u[0] == "-"]
    same = sum(1 for x, y in zip(a, b) if x == y) / len(a)
    assert 0.9 < same < 1.0


def test_live_mixed_crosses_the_auto_threshold_both_ways():
    """Churn phase: one query per update (below the 4:1 crossover).  Read
    phase: thirteen per update (above it)."""
    ops = workloads.WORKLOADS["live-mixed"].plan(1).ops
    runs, current = [], 0
    for op in ops:
        if op[0] in workloads.SINGLE_KINDS:
            current += 1
        elif op[0] == "update":
            runs.append(current)
            current = 0
    assert 1 in runs and 13 in runs


def test_canonical_answers_compare_by_value():
    class Result:
        def __init__(self, value, epoch, path=None):
            self.value, self.epoch, self.path = value, epoch, path

    assert workloads.canonical(("distance", 1, 2), Result(3.5, 9)) == (3.5, 9)
    assert workloads.canonical(("path", 1, 2), Result(3.5, 9, [1, 4, 2])) == (
        (3.5, (1, 4, 2)), 9)
    assert workloads.canonical(("distance", 1, 2), (3.5, object(), 9)) == (3.5, 9)
    assert workloads.canonical(("many", 1, (2, 3)), ({3: 1.0, 2: 2.0}, None, 9)) == (
        ((2, 2.0), (3, 1.0)), 9)
    assert workloads.canonical(("update", None), None) is None
    assert workloads.canonical(
        ("round", (), (1, 2)), ((3.5, None, 9), ((4.0, None, 8),))
    ) == ((3.5, 9), ((4.0, 8),))
