"""Keep every vCPU out of idle while the benchmark measures.

On this box a vCPU that goes idle must be woken by the hypervisor before it
runs again, and under host load that wake-up takes milliseconds.  A
single-process workload never idles, so it never pays; a pool workload
ping-pongs between two processes and pays on every hop — the same inputs
measured 0.70, 1.04 and 1.41 ms ``query_p50_ms`` on ``serve-shm`` in three
consecutive runs as the host got busier, against 0.78, 0.77, 0.81 ms with the
guards up.  The speed kernel cannot correct for this: it runs on a vCPU that
is already awake.

A guard is one ``SCHED_IDLE`` busy loop pinned to each vCPU: it gets the
processor only when nothing else wants it, and loses it the moment the
program's writer or worker wakes.  It is the user-space equivalent of booting
with ``idle=poll`` for a benchmark.  Guards are not load: they issue no
requests.  They exit on their own if the benchmark dies.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import List

_SPIN = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(1000000):
        pass
"""


class IdleGuards:
    """Context manager: guards up on entry, killed and reaped on exit."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "IdleGuards":
        if not hasattr(os, "sched_getaffinity"):
            return self  # not Linux: nothing to guard against, nothing to pin
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-S", "-c", _SPIN, str(cpu)],
                    stdin=subprocess.DEVNULL,
                ))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        self._procs = []

    def __len__(self) -> int:
        return len(self._procs)
