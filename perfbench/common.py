"""Names, environment pins and order statistics shared by the runner and the worker.

This module imports nothing beyond the standard library, so the runner can use
it without importing numpy.
"""

from __future__ import annotations

import math
import statistics

WORKLOADS = ("cyclic-verify", "isometry-default", "dense-verify", "induce-export")

# BLAS and OpenMP thread pools are pinned to one thread before numpy is
# imported; an unpinned first annulus_pipeline(64) once took 948 ms against
# 57 ms pinned.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Ops needed beyond a tail order statistic (the choosing-metrics rule).
TAIL_BEYOND = 10

# Time of the calibration kernel (calibrate.py) at the reference processor
# speed.  An op's time at reference speed is its wall time times
# NOMINAL_KERNEL_S over the kernel's time measured next to it.
NOMINAL_KERNEL_S = 0.020


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` values above it.

    Returns ``(value, percentile, op count)``.  The value is the order
    statistic with exactly ``TAIL_BEYOND`` values after it in sorted order.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} values for a tail, got {n}")
    ordered = sorted(values)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
