"""The host-speed yardstick: a fixed pure-Python kernel timed next to the jobs.

The benchmark runs on a few cores of a shared host whose speed moves between
levels about 1.6 times apart, every fraction of a second to every few
minutes. A job's wall time carries that swing whatever statistic is taken
over one run. So each untraced pass times this kernel between jobs and,
through an interval timer, every ``PERIOD_S`` during a job, and converts the
job's wall time into reference seconds: wall seconds times ``NOMINAL_S``
over the kernel's time measured around them. A change to gbsn moves the job
and not the kernel, so it moves the reference time by the same share as the
wall time.

The kernel does the kind of work gbsn's hot paths do: it fills a dict of
integer tuples by breadth-first search (the Britton and geodesic searches)
and multiplies 2x2 matrices of Fractions (holonomy and linear algebra). It
imports nothing from gbsn. It runs with the cyclic garbage collector off, so
that its time does not grow with the size of the job's heap.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

from .reference import AffineModel

# The kernel's time at the fastest level of the 2-vCPU x86 VM the benchmark
# was written on (Python 3.11.7); it only sets the scale of reference seconds.
NOMINAL_S = 0.002
# Interval between kernel samples inside a job.
PERIOD_S = 0.05

_M = ((Fraction(3, 7), Fraction(1, 2)), (Fraction(-2, 5), Fraction(5, 3)))


def kernel() -> None:
    AffineModel(2, 1, 8)
    x = _M
    for _ in range(12):
        x = tuple(
            tuple((x[i][0] * _M[0][j] + x[i][1] * _M[1][j]).limit_denominator(10**6) for j in range(2))
            for i in range(2)
        )


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_seconds(wall: float, before: float, after: float) -> float:
    """Wall seconds spent between two kernel samples, in reference seconds."""
    return wall * NOMINAL_S * 2 / (before + after)
