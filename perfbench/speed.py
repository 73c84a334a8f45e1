"""Machine-speed yardstick: rescales wall times to a fixed reference speed.

The shared machine this benchmark runs on changes speed by 20-40 % in
phases lasting seconds to minutes, and CPU time tracks wall time, so raw
times of two runs of the same code differ by more than the bounds a useful
benchmark needs.  A fixed pure-Python computation (the yardstick) slows
down with the machine.  The benchmark's parent process times it while the
measured child is frozen (SIGSTOP, all its threads) every
``SAMPLE_INTERVAL_S``, and in short windows before the child starts and
after it ends, so the yardstick runs only while no thread of the code under
test does.  The child's frozen intervals are taken out of its times.  A
time is rescaled by ``YARDSTICK_REF_S / mean(yardstick times)``: the result
is the time the work would take at the speed where the yardstick takes
``YARDSTICK_REF_S``.  Raw wall times stay in the run record.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import time

YARDSTICK_ITERATIONS = 20_000
YARDSTICK_REF_S = 4.0e-3       # about the yardstick's time on a 2-CPU x86_64 VM
SAMPLE_INTERVAL_S = 0.2        # running time between two freezes of the child
WINDOW_SAMPLES = 10            # samples right before the child starts and after it ends


def yardstick() -> float:
    """Time one fixed run of scalar complex arithmetic, like the stepper's inner loop."""
    t0 = time.perf_counter()
    z, acc = 0.5 + 0.1j, 0j
    for _ in range(YARDSTICK_ITERATIONS):
        z = z * (0.999 + 0.001j) + 1e-3
        acc += z * z
    return time.perf_counter() - t0


def window() -> list[float]:
    return [yardstick() for _ in range(WINDOW_SAMPLES)]


def rescale(seconds: float, samples: list[float]) -> float:
    return seconds * YARDSTICK_REF_S / statistics.fmean(samples)


def running_time(t0: float, t1: float, frozen: list[tuple[float, float]]) -> float:
    """Time in [t0, t1] (perf_counter, shared by all processes) a child was not frozen."""
    return t1 - t0 - sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in frozen)


def wait_sampling(proc: subprocess.Popen, until: float,
                  samples: list[float] | None) -> list[tuple[float, float]]:
    """Wait until ``proc`` exits.  With ``samples``, freeze it every
    SAMPLE_INTERVAL_S and append one yardstick time taken while it is frozen.

    Returns the (start, end) intervals the child was frozen.  Raises
    ``subprocess.TimeoutExpired`` if it still runs at ``until`` (perf_counter).
    """
    frozen = []
    while True:
        remaining = until - time.perf_counter()
        if remaining <= 0:
            raise subprocess.TimeoutExpired(proc.args, until)
        try:
            proc.wait(timeout=remaining if samples is None else min(remaining, SAMPLE_INTERVAL_S))
            return frozen
        except subprocess.TimeoutExpired:
            if samples is None:
                raise
        start = time.perf_counter()
        os.kill(proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):          # it exited before the stop took hold
            proc.returncode = os.waitstatus_to_exitcode(status)
            return frozen
        samples.append(yardstick())
        os.kill(proc.pid, signal.SIGCONT)
        frozen.append((start, time.perf_counter()))
