"""The estimators and the speed normalisation, driven by a fake clock."""

import math
import random
import statistics

import pytest

from perf import measure
from perf.kernel import REF_KERNEL_MS


# -- percentile / sample-count rule ---------------------------------------------


def test_median_needs_one_sample():
    assert measure.percentile([3.0], 0.5) == 3.0
    assert measure.percentile([1.0, 3.0], 0.5) == 2.0


def test_p95_needs_two_hundred_samples():
    values = [float(i) for i in range(199)]
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(values, 0.95)
    values.append(199.0)
    assert measure.percentile(values, 0.95) == pytest.approx(0.95 * 199)


def test_p99_needs_a_thousand_samples():
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([1.0] * 999, 0.99)
    assert measure.percentile([1.0] * 1000, 0.99) == 1.0


def test_low_tail_is_held_to_the_same_rule():
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([1.0] * 50, 0.05)


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        measure.percentile([1.0], 1.0)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([], 0.5)


def test_estimate_carries_sample_count():
    passes = measure.PassSet()
    for _ in range(3):
        passes.add(measure.PassSamples(raw=[0.001] * 250, factor=[1.0] * 250,
                                       answers=[], kernel_s=[0.005]))
    est = passes.latency(passes.op_ms(), range(250), 0.95)
    assert (est.n, est.unit) == (250, "ms")
    assert est.value == pytest.approx(1.0)


# -- per-op median across passes -----------------------------------------------


def test_host_burst_is_voted_out_program_stall_stays():
    base = [1.0, 1.0, 5.0, 1.0]          # op 2 is slow in every pass: the program
    passes = [list(base) for _ in range(7)]
    passes[3][1] = 40.0                  # a burst hits op 1 in one pass: the host
    passes[5][0] = 25.0
    assert measure.per_op_median(passes) == base


def test_per_op_median_rejects_ragged_passes():
    with pytest.raises(ValueError):
        measure.per_op_median([[1.0, 2.0], [1.0]])


def test_rate_sums_per_op_medians():
    passes = measure.PassSet()
    for burst_at in range(5):                    # every pass holds one burst
        raw = [0.01] * 10
        raw[burst_at] += 0.05
        passes.add(measure.PassSamples(raw=raw, factor=[1.0] * 10,
                                       answers=[], kernel_s=[0.005]))
    est = passes.rate(passes.op_ms(), range(10), {i: 2 for i in range(10)})
    assert est.value == pytest.approx(200.0)
    assert est.n == 20


def test_cut_units_covers_ops_in_order():
    costs = [1.0] * 95 + [60.0] + [1.0] * 10
    units = measure.cut_units(costs, 40.0)
    assert units[0] == (0, 40)
    assert [lo for lo, _hi in units[1:]] == [hi for _lo, hi in units[:-1]]
    assert units[-1][1] == len(costs)
    assert (95, 96) in units              # the big op is a unit of its own


def test_failed_op_is_counted_not_fatal():
    def execute(op):
        if op == 2:
            raise RuntimeError("boom")
        return op

    samples = measure.run_pass([1, 2, 3], [(0, 3)], execute,
                               clock=iter(range(100)).__next__,
                               time_kernel=lambda: 0.005)
    assert samples.answers[0] == 1 and samples.answers[2] == 3
    assert isinstance(samples.answers[1], measure.Failed)
    assert "boom" in samples.answers[1].error


# -- fake clock: drift and bursts ---------------------------------------------------


class FakeHost:
    """A machine whose speed drifts and which sometimes stalls.

    ``work(ms)`` advances the clock by ``ms`` of reference-speed work done at
    the current speed; a burst adds a stall to whatever is running.
    """

    def __init__(self, seed, level, swing, period_s, burst_rate, burst_ms):
        self.now = 0.0
        self.level = level
        self.swing = swing
        self.period = period_s
        self.rng = random.Random(seed)
        self.burst_rate = burst_rate      # expected bursts per second
        self.burst_ms = burst_ms

    def speed(self):
        return self.level * (1.0 + self.swing * math.sin(
            2.0 * math.pi * self.now / self.period))

    def work(self, ms):
        left = ms / 1000.0
        while left > 0:
            step = min(left, 0.001)
            spent = step / self.speed()
            if self.rng.random() < self.burst_rate * spent:
                spent += self.rng.uniform(*self.burst_ms) / 1000.0
            self.now += spent
            left -= step

    def clock(self):
        return self.now

    def time_kernel(self):
        start = self.now
        self.work(REF_KERNEL_MS)
        return self.now - start


def _measure_on(host, costs_ms, passes=7):
    units = measure.cut_units(costs_ms, 40.0)
    out = measure.PassSet()
    for _ in range(passes):
        host.work(300.0)                  # per-pass set-up, not measured here
        out.add(measure.run_pass(costs_ms, units, host.work, host.clock,
                                 host.time_kernel))
    return out


def test_normalisation_recovers_truth_under_drift_and_bursts():
    rng = random.Random(7)
    costs = [rng.lognormvariate(0.5, 0.8) for _ in range(400)]
    truth_p50 = statistics.median(costs)
    truth_p95 = measure.percentile(costs, 0.95)
    truth_rate = len(costs) / (sum(costs) / 1000.0)
    # today the box runs at 80 % of reference speed, swinging +-30 % around
    # that every few seconds, and stalls 10-40 ms about twice a second
    host = FakeHost(seed=1, level=0.8, swing=0.3, period_s=3.7,
                    burst_rate=2.0, burst_ms=(10.0, 40.0))
    passes = _measure_on(host, costs)
    ops = range(len(costs))
    work = {i: 1 for i in ops}

    def off(estimate, truth):
        return abs(estimate.value - truth) / truth

    norm, raw = passes.op_ms(), passes.op_ms(raw=True)
    assert off(passes.latency(norm, ops, 0.5), truth_p50) < 0.02
    assert off(passes.latency(norm, ops, 0.95), truth_p95) < 0.02
    assert off(passes.rate(norm, ops, work), truth_rate) < 0.02
    # the raw twins carry the host with them
    assert off(passes.latency(raw, ops, 0.5), truth_p50) > 0.02
    assert off(passes.rate(raw, ops, work), truth_rate) > 0.02


def test_two_hosts_agree_after_normalisation_not_before():
    rng = random.Random(11)
    costs = [rng.lognormvariate(0.0, 0.6) for _ in range(300)]
    fast = FakeHost(seed=2, level=1.3, swing=0.3, period_s=5.1,
                    burst_rate=1.0, burst_ms=(5.0, 30.0))
    slow = FakeHost(seed=3, level=0.7, swing=0.3, period_s=2.9,
                    burst_rate=3.0, burst_ms=(5.0, 30.0))
    a = _measure_on(fast, costs)
    b = _measure_on(slow, costs)
    ops = range(len(costs))
    norm = [p.latency(p.op_ms(), ops, 0.5).value for p in (a, b)]
    raw = [p.latency(p.op_ms(raw=True), ops, 0.5).value for p in (a, b)]
    assert abs(norm[0] - norm[1]) / norm[0] < 0.02
    assert abs(raw[0] - raw[1]) / raw[0] > 0.30
