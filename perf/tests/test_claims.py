"""Each workload's ``why`` against a trace of it.

A workload says which layers do its work; ``Workload.claims`` is the part of
that a trace can check.  One traced pass per workload is enough: shares of
self time barely move between passes.
"""

import pytest

from perf import layers, run, trace, workloads

NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    workload = workloads.WORKLOADS[request.param]
    one = run.Run(workload, seed=0)
    tracer = trace.Tracer(one.clock, workload.mode.query_layer)
    one.one_pass(tracer)
    assert not one.failures
    return workload, one, tracer


def test_every_workload_claims_something():
    for workload in workloads.WORKLOADS.values():
        assert workload.claims
        for claim in workload.claims:
            assert claim.of in layers.SHARES
            assert set(claim.layers) <= set(layers.LAYERS)
            assert 0.0 < claim.share < 1.0


def test_the_trace_bears_out_the_why(traced):
    workload, one, tracer = traced
    by_kind = {prefix: layers.kind_shares(tracer, one.plan, kinds)
               for prefix, kinds in layers.SHARES.items()}
    lines = layers.check_claims(workload, by_kind)
    assert len(lines) == len(workload.claims)
    assert not [line for line in lines if not line.endswith(" ok")], lines


def test_layer_self_times_cover_the_traced_pass(traced):
    _workload, _one, tracer = traced
    (duration,) = tracer.pass_durations().values()
    (by_layer,) = tracer.self_times().values()
    assert sum(by_layer.values()) == pytest.approx(duration, rel=0.10)


def test_worker_spans_come_home(traced):
    workload, _one, tracer = traced
    if workload.mode.transport is None:
        pytest.skip("no pool worker on this workload")
    acquire = {"shm": "shm.acquire", "tcp": "net.acquire"}[workload.mode.transport]
    adopted = tracer.named(acquire)
    assert adopted
    for span in adopted:
        parent = tracer.spans[span[trace.PARENT]]
        assert parent[trace.NAME] == "pool.gather"
