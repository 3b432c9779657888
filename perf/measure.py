"""Timing method: kernel-bracketed units, identical passes, robust estimators.

Everything here is independent of the program under test, so it can be
driven by a fake clock (see ``perf/tests/test_measure.py``):

* :func:`run_pass` executes one pass of an op list cut into *units*; each
  unit is bracketed by speed-kernel runs and every op sample in it carries
  the unit's speed factor.
* :class:`PassSet` collects passes that replayed the *same* op list and turns
  them into numbers: per-op medians across passes (a host burst hits one op
  in one pass and is voted out; a stall the program causes recurs at the same
  op in every pass and stays), percentiles over those per-op medians, and
  rates as work over the sum of them.
* :func:`percentile` enforces the sample-count rule: a tail percentile is
  only reported with at least ten samples beyond it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from perf.kernel import REF_KERNEL_MS

#: a tail percentile needs this many samples beyond it (p95 ⇒ ≥ 200 ops)
MIN_TAIL_SAMPLES = 10

REF_KERNEL_S = REF_KERNEL_MS / 1000.0


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


class Failed:
    """Stands in for the answer of an op that raised: a failed operation."""

    def __init__(self, error: BaseException) -> None:
        self.error = f"{type(error).__name__}: {error}"

    def __repr__(self) -> str:
        return f"Failed({self.error})"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1), linear interpolation between ranks.

    Raises :class:`TooFewSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the requested rank on its
    short side (so p95 needs 200 samples, p99 needs 1000); the median only
    needs one sample.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    tail = min(q, 1.0 - q)
    if q != 0.5 and n * tail < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q * 100:g} needs {MIN_TAIL_SAMPLES / tail:.0f} samples, "
            f"got {n}"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_op_median(passes: Sequence[Sequence[float]]) -> List[float]:
    """Median of each op's samples across identical passes.

    ``passes[p][i]`` is op ``i``'s sample in pass ``p``; every pass must
    have replayed the same op list.
    """
    if not passes:
        return []
    width = len(passes[0])
    for row in passes:
        if len(row) != width:
            raise ValueError("passes replayed op lists of different length")
    median = statistics.median
    return [median([row[i] for row in passes]) for i in range(width)]


def speed_factor(kernel_before_s: float, kernel_after_s: float) -> float:
    """``REF_KERNEL_MS / mean(kernel before, kernel after)`` for one unit."""
    return REF_KERNEL_S / ((kernel_before_s + kernel_after_s) / 2.0)


@dataclass
class PassSamples:
    """What one pass measured: raw seconds, speed factors, answers."""

    raw: List[float]
    factor: List[float]
    answers: List[object]
    kernel_s: List[float]
    setup_raw_s: float = 0.0
    setup_factor: float = 1.0

    def normalised(self) -> List[float]:
        return [r * f for r, f in zip(self.raw, self.factor)]

    @property
    def setup_s(self) -> float:
        return self.setup_raw_s * self.setup_factor


def run_pass(
    ops: Sequence[object],
    units: Sequence[Tuple[int, int]],
    execute: Callable[[object], object],
    clock: Callable[[], float],
    time_kernel: Callable[[], float],
) -> PassSamples:
    """Replay ``ops`` once, unit by unit, bracketing each unit by the kernel.

    ``units`` are half-open ``(lo, hi)`` index ranges covering ``ops`` in
    order.  The kernel run closing one unit opens the next, so a pass of
    ``U`` units costs ``U + 1`` kernel runs.  An op that raises becomes a
    :class:`Failed` answer and the pass goes on: a failure must be counted,
    not abort the count.
    """
    count = len(ops)
    raw = [0.0] * count
    factor = [1.0] * count
    answers: List[object] = [None] * count
    kernel_s = [time_kernel()]
    for lo, hi in units:
        for i in range(lo, hi):
            op = ops[i]
            start = clock()
            try:
                answers[i] = execute(op)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                answers[i] = Failed(exc)
            raw[i] = clock() - start
        kernel_s.append(time_kernel())
        f = speed_factor(kernel_s[-2], kernel_s[-1])
        for i in range(lo, hi):
            factor[i] = f
    return PassSamples(raw=raw, factor=factor, answers=answers,
                       kernel_s=kernel_s)


def cut_units(costs_ms: Sequence[float], target_ms: float) -> List[Tuple[int, int]]:
    """Cut an op list into consecutive units of about ``target_ms`` each.

    ``costs_ms`` are the *nominal* per-op costs fixed by the workload (not
    measurements), so the cut depends only on the op list: the same seed
    gives the same units in every pass and every run.  An op that is a
    unit's worth on its own (a round) gets a unit to itself.
    """
    units: List[Tuple[int, int]] = []
    lo = 0
    acc = 0.0
    for i, cost in enumerate(costs_ms):
        if cost >= target_ms and i > lo:
            units.append((lo, i))
            lo = i
            acc = 0.0
        acc += cost
        if acc >= target_ms:
            units.append((lo, i + 1))
            lo = i + 1
            acc = 0.0
    if lo < len(costs_ms):
        units.append((lo, len(costs_ms)))
    return units


@dataclass
class Estimate:
    """One reported number with its unit and the samples behind it."""

    value: float
    unit: str
    n: int


@dataclass
class PassSet:
    """Passes over one op list, and the estimators defined on them."""

    passes: List[PassSamples] = field(default_factory=list)
    #: ``(raw seconds, speed factor)`` of set-ups made without a pass
    extra_setups: List[Tuple[float, float]] = field(default_factory=list)
    extra_kernel_s: List[float] = field(default_factory=list)

    def add(self, samples: PassSamples) -> None:
        self.passes.append(samples)

    def __len__(self) -> int:
        return len(self.passes)

    # -- per-op views -------------------------------------------------------

    def op_ms(self, raw: bool = False) -> List[float]:
        """Per-op median across passes, in ms (normalised unless ``raw``)."""
        rows = [p.raw if raw else p.normalised() for p in self.passes]
        return [s * 1000.0 for s in per_op_median(rows)]

    def latency(self, op_ms: Sequence[float], indices: Sequence[int],
                q: float) -> Estimate:
        """Percentile ``q`` over the chosen ops of ``op_ms`` (from
        :meth:`op_ms`, which is where raw or normalised is chosen)."""
        values = [op_ms[i] for i in indices]
        return Estimate(percentile(values, q), "ms", len(values))

    def rate(self, op_ms: Sequence[float], indices: Sequence[int],
             work: Dict[int, int]) -> Estimate:
        """``Σ work ÷ Σ per-op median time`` over the chosen ops of ``op_ms``.

        ``work[i]`` is how many items (pairs, updates) op ``i`` completes.
        Summing each pass's samples and taking the median pass would keep
        every burst that landed anywhere in that pass — on a host that stalls
        twice a second each pass holds a few, and the rate reads 5 % low;
        the per-op medians have already voted them out.
        """
        total = sum(work[i] for i in indices)
        spent_s = sum(op_ms[i] for i in indices) / 1000.0
        return Estimate(total / spent_s, "1/s", total)

    def setup(self, raw: bool = False) -> Estimate:
        """Median over every set-up made: one per pass, and the extra ones."""
        samples = ([(p.setup_raw_s, p.setup_factor) for p in self.passes]
                   + self.extra_setups)
        values = [r if raw else r * f for r, f in samples]
        return Estimate(statistics.median(values), "s", len(values))

    def total_s(self, raw: bool = False) -> float:
        """Median across passes of the summed op time."""
        return statistics.median(
            sum(p.raw if raw else p.normalised()) for p in self.passes
        )

    # -- the host, as the kernel saw it ---------------------------------------

    def kernel_samples(self) -> List[float]:
        return [k for p in self.passes for k in p.kernel_s] + self.extra_kernel_s
