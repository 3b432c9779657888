"""One benchmark run: ``python3 -m perf.run --workload NAME [--seed N] [--trace]``.

Prints every metric of the workload by name with its unit and sample count,
checks every answer, and ends with the one-line JSON result the benchmark
contract asks for.  Exits 0 only when every operation answered, matched the
oracle, and repeated bit-identically across passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

from perf import kernel, measure, oracle
from perf.idleguard import IdleGuards

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perf", "out")

#: passes a run makes at least, whatever ``--seconds`` says: the per-op
#: median needs a majority of undisturbed samples.  A run always ends on an
#: odd count, so that median is a sample, never a mean of two.  Twenty
#: seconds buy nine passes at reference speed and seven with the host a third
#: slower; five is what a host at half speed still gets.
MIN_PASSES = 5
MAX_PASSES = 15
#: a traced run makes this many untraced and as many traced passes, in turn,
#: and no more: the rest of its time goes to the probes
TRACED_PASSES = 3
#: Set-up is one call of a third to half a second, too long for its two
#: brackets to follow the host through it: a pass's sample of ``setup_s``
#: strays by 20 % where an op's strays by 5.  So a run sets up this many more
#: times than it has passes, at least, and goes on while its budget lasts.
#: (With four, a slow host's run had nine samples, and one such run in a
#: hundred read 15.3 % from its set's median.)
MIN_EXTRA_SETUPS = 8
MAX_EXTRA_SETUPS = 12
#: Set-up is one long unit with a single pair of brackets, so each bracket is
#: the median of this many kernel runs: one run hit by a burst moved setup_s
#: by 10 % when each bracket was a single run.
SETUP_KERNEL_RUNS = 3
#: nominal milliseconds of ops between two kernel runs
UNIT_MS = 40.0

END_TO_END = (
    "setup_s", "peak_rss_mb", "queries_per_s", "query_p50_ms",
    "query_p95_ms", "updates_per_s", "update_p50_ms", "visible_lag_p50_ms",
)


def _import_program() -> None:
    """Put the checkout's ``src/`` on the path; exit 2 when the program is
    not there (the benchmark alone cannot measure anything)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perf.run: cannot import the program under test from {src}: "
              f"{exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perf.run: 'repro' resolved to {repro.__file__}, not to the "
              f"checkout's {src}", file=sys.stderr)
        raise SystemExit(2)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """Passes of one workload and everything derived from them."""

    def __init__(self, workload, seed: int, clock=time.perf_counter) -> None:
        self.workload = workload
        self.plan = workload.plan(seed)
        self.units = measure.cut_units(self.plan.costs_ms(), UNIT_MS)
        self.clock = clock
        self.time_kernel = lambda: kernel.time_kernel(clock)
        self.untraced = measure.PassSet()
        self.traced = measure.PassSet()
        self.reference: Optional[List[object]] = None
        self.attempted = 0
        self.failures: List[str] = []
        #: ops that failed in any pass: they miss every latency and rate
        self.failed_ops: set = set()
        self.wall_s = 0.0
        self.oracle_s = 0.0
        #: peak RSS as it stood after pass ``MIN_PASSES``
        self.rss_mb: Optional[float] = None

    # -- one pass -----------------------------------------------------------

    def _set_up(self):
        """Build a pass's program state between two kernel brackets; returns
        it with the raw seconds, the speed factor and the kernel samples."""
        from perf import workloads

        before = [self.time_kernel() for _ in range(SETUP_KERNEL_RUNS)]
        start = self.clock()
        live = workloads.Live(self.plan, self.workload.mode)
        raw = self.clock() - start
        try:
            after = [self.time_kernel() for _ in range(SETUP_KERNEL_RUNS)]
        except BaseException:
            live.close()
            raise
        factor = measure.speed_factor(statistics.median(before),
                                      statistics.median(after))
        return live, raw, factor, before + after

    def one_pass(self, tracer=None) -> None:
        plan = self.plan
        gc.collect()
        recording = (tracer.recording() if tracer is not None
                     else contextlib.nullcontext())
        with recording:
            live, setup_raw, setup_factor, kernels = self._set_up()
            try:
                execute = live.execute
                if tracer is not None:
                    tracer.end_setup()
                    execute = tracer.wrap_execute(execute)
                samples = measure.run_pass(plan.exec_ops, self.units, execute,
                                           self.clock, self.time_kernel)
                if tracer is not None:
                    tracer.end_pass(live)
            finally:
                live.close()
        samples.setup_raw_s = setup_raw
        samples.setup_factor = setup_factor
        samples.kernel_s[:0] = kernels
        self._check(samples, live.first_answer)
        (self.untraced if tracer is None else self.traced).add(samples)
        if len(self.untraced) == MIN_PASSES and self.rss_mb is None:
            # every run gets this far, and the peak creeps up with each
            # further pass (127 -> 134 MB from five to nine on sync-tcp)
            self.rss_mb = peak_rss_mb()

    def extra_setup(self) -> None:
        """Set up once more, for ``setup_s`` alone: no ops are replayed."""
        gc.collect()
        live, raw, factor, kernels = self._set_up()
        live.close()
        self.attempted += 1
        if self._canonical_first(live.first_answer) != self.reference_first:
            self.failures.append("setup answer differs between set-ups")
        self.untraced.extra_setups.append((raw, factor))
        self.untraced.extra_kernel_s += kernels

    def _check(self, samples, first_answer) -> None:
        """Canonicalise the pass's answers; oracle on the first pass,
        bit-identity with it on the others."""
        from perf import workloads

        plan = self.plan
        canon: List[object] = []
        for i, (op, answer) in enumerate(zip(plan.ops, samples.answers)):
            if isinstance(answer, measure.Failed):
                self._fail(i, answer.error)
                canon.append(answer)
            else:
                canon.append(workloads.canonical(op, answer))
        self.attempted += len(plan.ops) + 1
        first_op = plan.first_single()
        first = self._canonical_first(first_answer)
        if self.reference is None:
            self.reference = canon
            self.reference_first = first
            mirror = oracle.Mirror(plan.num_vertices, plan.edges)
            err = oracle.check_distance(mirror, first_op[1], first_op[2],
                                        first[0])
            if err:
                self.failures.append(f"setup answer: {err}")
            reads_published = self.workload.mode.target != "live"
            t0 = self.clock()
            for i, err in oracle.replay(plan.num_vertices, plan.edges,
                                        plan.ops, canon, reads_published):
                self._fail(i, err)
            self.oracle_s = self.clock() - t0
        else:
            if first != self.reference_first:
                self.failures.append("setup answer differs between passes")
            for i, (a, b) in enumerate(zip(canon, self.reference)):
                if isinstance(a, measure.Failed):
                    continue
                if a != b:
                    self._fail(i, f"answer differs from the first pass "
                                  f"({a!r} vs {b!r})"[:300])
        samples.answers = []  # canonical forms are all that is kept

    def _canonical_first(self, answer: object) -> object:
        from perf import workloads

        first_op = self.plan.first_single()
        return workloads.canonical(("distance",) + tuple(first_op[1:3]), answer)

    def _fail(self, index: int, error: str) -> None:
        self.failed_ops.add(index)
        self.failures.append(f"op {index} {self.plan.ops[index][0]}: {error}")

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, passes, raw: bool = False) -> Dict[str, object]:
        """The eight user-visible numbers, from ``passes``."""
        from perf import workloads

        plan = self.plan
        op_ms = passes.op_ms(raw)

        def answered(*kinds: str) -> List[int]:
            return [i for i in plan.indices(*kinds)
                    if i not in self.failed_ops]

        singles = answered(*workloads.SINGLE_KINDS)
        queries = answered(*workloads.QUERY_KINDS)
        rounds = answered("round")
        updates = answered("update")
        pairs = {i: plan.pairs_answered(i) for i in queries}
        batch = {i: len(plan.ops[i][1]) for i in rounds}
        found: Dict[str, object] = {
            "setup_s": passes.setup(raw),
            "queries_per_s": passes.rate(op_ms, queries, pairs),
            "query_p50_ms": passes.latency(op_ms, singles, 0.5),
            "query_p95_ms": passes.latency(op_ms, singles, 0.95),
            "updates_per_s": passes.rate(op_ms, rounds, batch),
            "update_p50_ms": passes.latency(op_ms, updates, 0.5),
            "visible_lag_p50_ms": passes.latency(op_ms, rounds, 0.5),
        }
        if not raw:
            rss = self.rss_mb if self.rss_mb is not None else peak_rss_mb()
            found["peak_rss_mb"] = measure.Estimate(rss, "MB", 1)
            return {name: found[name] for name in END_TO_END}
        return found


def measure_for(run: Run, seconds: float, tracer=None) -> None:
    """Make passes until ``seconds`` are used: at least :data:`MIN_PASSES`,
    an odd number of them.

    A traced run instead alternates :data:`TRACED_PASSES` untraced and as
    many traced passes, so the tracing overhead is the difference of two
    sets that saw the same host.
    """
    start = run.clock()
    spent: List[float] = []
    while True:
        t0 = run.clock()
        run.one_pass(tracer if len(spent) % 2 == 1 else None)
        spent.append(run.clock() - t0)
        done = len(spent)
        if run.failures and done >= 2:
            break  # a broken program is not worth measuring further
        if tracer is not None:
            if done == 2 * TRACED_PASSES:
                break
            continue
        if done >= MAX_PASSES:
            break
        # two more passes keep the count odd; stop when they would not fit
        ahead = 2 * statistics.mean(spent)
        if (done >= MIN_PASSES and done % 2 == 1
                and run.clock() - start + 0.6 * ahead > seconds):
            break
    if tracer is None and not run.failures:
        extras, last = 0, 0.0
        while extras < MIN_EXTRA_SETUPS or (
                extras < MAX_EXTRA_SETUPS
                and run.clock() - start + last < seconds):
            t0 = run.clock()
            run.extra_setup()
            last = run.clock() - t0
            extras += 1
    run.wall_s = run.clock() - start


def format_line(name: str, est) -> str:
    return f"  {name:<34} {est.value:>14.4f} {est.unit:<6} n={est.n}"


def stop_children() -> None:
    """Leave no process behind: end and reap any pool worker still up, then
    the ``multiprocessing`` resource tracker.

    The tracker is a helper process the standard library starts with the
    first shared-memory segment (``serve-shm``, and the shm probes of every
    traced run).  Left alone it ends only once this process's end of its pipe
    closes, that is *after* this process, and nobody reaps it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # closes the pipe and waits for the tracker to exit; a no-op if none runs
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget; passes are added until it is used")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    _import_program()
    from perf import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perf.run: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(workload, args.seed)
    print(f"workload {workload.name} seed {args.seed} "
          f"inputs sha256 {run.plan.digest}")
    print(f"  {len(run.plan.ops)} ops per pass in {len(run.units)} units; "
          f"closed loop, one client")
    tracer = None
    if args.trace:
        from perf import layers, trace
        tracer = trace.Tracer(run.clock, workload.mode.query_layer)
    with IdleGuards() as guards:
        print(f"  {len(guards)} idle guard(s) up")
        measure_for(run, args.seconds, tracer)
        if tracer is None:
            reported = run.end_to_end(run.untraced)
        else:
            reported = layers.collect(run, tracer, OUT_DIR)
    if tracer is None:
        print(f"end-to-end ({len(run.untraced)} passes, ms at reference "
              f"speed):")
    else:
        # End-to-end numbers are an untraced run's business: the few
        # untraced passes here only feed the raw.* twins and the overhead.
        print(f"per-layer ({len(run.traced)} traced passes beside "
              f"{len(run.untraced)} untraced ones):")
    for name, est in reported.items():
        print(format_line(name, est))
    kernel_ms = [k * 1000.0 for k in run.untraced.kernel_samples()]
    print(f"host: kernel median {statistics.median(kernel_ms):.3f} ms "
          f"(min {min(kernel_ms):.3f}, max {max(kernel_ms):.3f}, "
          f"n={len(kernel_ms)}), oracle {run.oracle_s:.2f}s")
    failed = len(run.failures)
    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{failed} failed of {run.attempted} attempted; "
          f"{run.wall_s:.1f}s measuring")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": est.value, "unit": est.unit}
                    for name, est in reported.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
