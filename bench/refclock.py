"""Reference clock: a process sharing the benchmark's CPU, counting fixed work.

On a shared host the speed of a CPU drifts by a factor of 1.5 to 3
within minutes, because other tenants compete for the same physical
cores.  The reference process spins on a fixed unit of work (a dict
loop, small matrix products and a 1 MiB array update: interpreter,
compute and memory traffic, about a millisecond).  It is pinned to the
same single CPU as the benchmark process, so the scheduler splits that
CPU evenly between the two and both see the same speed.  The number of
units the reference completes while an operation runs then measures the
operation in units of fixed work, and the CPU's speed cancels out.
Measured on the 2-vCPU sandbox over 30 s windows, this cut the spread
of window medians from 13-19% (seconds) to 3-5% (units).  A reference
on the other CPU did not help: the two CPUs drift independently.

Run as a script, this file is the child: it prints "ready", spins until
SIGTERM, then writes the CLOCK_MONOTONIC time of every completed unit
to stdout as float64.  It exits on its own if its parent dies.  CLOCK_MONOTONIC is shared by all processes on
the machine, so the parent can count units between its own timestamps.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np

DICT_ITERS = 2000
MATMULS = 4
MATRIX = 96
STREAM = 1 << 17  # float64 elements per streamed array (1 MiB)
STOP_TIMEOUT_S = 60
# Median duration of one unit run alone on the 2-vCPU sandbox (10th to
# 90th percentile 0.74 to 0.93 ms); converts units to reference seconds.
UNIT_S = 0.0008


def _unit(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    d: dict[int, int] = {}
    for i in range(DICT_ITERS):
        d[i & 511] = d.get(i & 511, 0) + i
    for _ in range(MATMULS):
        a @ a
    np.multiply(x, 0.5, out=y)  # x stays in [0.5, 1]: no overflow or denormals
    np.add(y, 0.5, out=x)


def child_main() -> int:
    import time

    stop = False

    def on_term(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    rng = np.random.default_rng(0)
    a = rng.random((MATRIX, MATRIX))
    x, y = rng.random(STREAM), np.empty(STREAM)
    _unit(a, x, y)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    stamps = []
    clock = time.monotonic
    parent = os.getppid()
    while not stop:
        _unit(a, x, y)
        stamps.append(clock())
        if os.getppid() != parent:  # the benchmark died without stopping us
            return 1
    sys.stdout.buffer.write(np.asarray(stamps, dtype=np.float64).tobytes())
    sys.stdout.flush()
    return 0


class ReferenceClock:
    """Pins this process to one CPU and runs the child there.

    `units(t0, t1)` is available after the context exits, which also
    restores this process's CPU affinity.  Where the platform cannot pin
    (no os.sched_setaffinity), the child runs unpinned and the units
    cancel much less of the drift.
    """

    def __init__(self) -> None:
        self.stamps = np.empty(0)
        self._proc: subprocess.Popen | None = None
        self._saved_affinity: set[int] | None = None

    def __enter__(self) -> "ReferenceClock":
        if hasattr(os, "sched_setaffinity"):
            self._saved_affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._saved_affinity)})  # the child inherits it
        try:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
            ready = self._proc.stdout.readline()
            if ready != b"ready\n":
                raise RuntimeError(f"reference clock did not start (got {ready!r})")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if self._saved_affinity is not None:
            os.sched_setaffinity(0, self._saved_affinity)
            self._saved_affinity = None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"reference clock exited with {proc.returncode}")
        self.stamps = np.frombuffer(out, dtype=np.float64)

    def units(self, t0: float, t1: float) -> float:
        """Units done between two time.monotonic() readings, counting the
        units in progress at either end pro rata."""
        done = np.arange(1, self.stamps.size + 1)
        return float(np.interp(t1, self.stamps, done) - np.interp(t0, self.stamps, done))


if __name__ == "__main__":
    sys.exit(child_main())
