"""How fast the host runs Python right now, for scaling measured times.

On a shared virtual machine the same code runs up to half again as
slow for seconds or minutes at a time, as neighbours on the same
physical cores come and go; a ten-run block can start on a fast host
and end on a slow one.  :func:`loop_seconds` times one fixed
pure-Python loop on every CPU the benchmark may use.  The benchmark
calls it between measurement windows, while its load is paused and
the server idle, and scales each window's times by
``REFERENCE_S / loop time`` (rates by the inverse): a time then reads
what it would on a host where the loop takes ``REFERENCE_S``.  A
change to the program leaves the loop alone, so it moves the scaled
value as it moves the raw one.
"""

from __future__ import annotations

import os
import statistics
import time

__all__ = ["REFERENCE_S", "loop_seconds", "scale"]

#: Loop time the scaled metrics refer to: about the loop's median on
#: the 2-vCPU calibration host (a Xeon VM), so scaled values read close
#: to raw ones there.
REFERENCE_S = 75e-6
#: Seconds the loop is timed on each CPU per call.
PER_CPU_S = 0.005


def _loop() -> int:
    total = 0
    for i in range(1000):
        total += i * i
    return total


def _median_on(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    times = []
    end = time.perf_counter() + PER_CPU_S
    while time.perf_counter() < end:
        began = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def loop_seconds() -> float:
    """Mean over the allowed CPUs of the loop's median time (s).

    The calling thread is moved to each CPU in turn and then given
    back its whole affinity set.
    """
    cpus = os.sched_getaffinity(0)
    try:
        return statistics.fmean(_median_on(cpu) for cpu in sorted(cpus))
    finally:
        os.sched_setaffinity(0, cpus)


def scale(loop_s: float) -> float:
    """Factor that turns a time measured at ``loop_s`` into a time at
    ``REFERENCE_S`` (divide a rate by it)."""
    return REFERENCE_S / loop_s
