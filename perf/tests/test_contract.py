"""``BENCHMARK.json`` against the code it describes, and the contract's limits."""

import json
import os
import re

from perf import layers, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_keys_and_limits():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perf"]
    assert doc["command"] == ["python3", "-m", "perf.run"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_workloads_match_the_code():
    doc = contract()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_end_to_end_matches_the_code_and_setup_has_the_widest_bound():
    doc = contract()
    assert tuple(m["name"] for m in doc["end_to_end"]) == run.END_TO_END
    by_name = {m["name"]: m for m in doc["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert {n for n, m in by_name.items() if m["better"] == "higher"} == {
        "queries_per_s", "updates_per_s"}


def test_per_layer_matches_the_code():
    doc = contract()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(row) for row in layers.LAYER_METRICS]


def test_seven_time_metrics_have_raw_twins():
    layer_names = {row[0] for row in layers.LAYER_METRICS}
    for name in run.END_TO_END:
        if name != "peak_rss_mb":
            assert f"raw.{name}" in layer_names


def test_stop_children_ends_and_reaps_the_resource_tracker_and_workers():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    import pytest

    resource_tracker.ensure_running()
    tracker = resource_tracker._resource_tracker._pid
    worker = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,))
    worker.start()
    run.stop_children()
    for pid in (tracker, worker.pid):
        with pytest.raises(ProcessLookupError):  # gone, and no zombie either
            os.kill(pid, 0)
