"""End-to-end metric arithmetic: calibration factors, op metrics and set-up times."""

from __future__ import annotations

import pytest

import run
import worker
from common import NOMINAL_KERNEL_S


def test_each_op_is_scaled_by_the_kernel_runs_around_it():
    kernel_s = [NOMINAL_KERNEL_S, 3 * NOMINAL_KERNEL_S, 2 * NOMINAL_KERNEL_S]
    assert worker.ref_factors(kernel_s) == pytest.approx([0.5, 0.4])


def _part(walls_ms, factor, setup_s, rss, failed=0):
    walls = [w * 1e6 for w in walls_ms]
    return {
        "walls_ns": walls,
        "ref_ns": [w * factor for w in walls],
        "failed": failed,
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "kernel_ms": 20.0 / factor,
    }


def test_op_metrics_come_from_the_measuring_worker_and_setup_from_all():
    # the measuring worker ran at reference speed; a set-up-only worker ran at half
    measure = _part([100.0 + i for i in range(21)], 1.0, setup_s=0.5, rss=42.0, failed=1)
    setup_only = {"setup_s": 0.9, "kernel_ms": 40.0, "attempted": 0, "failed": 0}
    metrics, details = run.end_to_end([measure, setup_only, dict(setup_only, setup_s=1.3)])
    assert metrics["ref_ms.p50"] == (110.0, "ms")
    assert metrics["ref_ms.tail"][0] == 110.0  # 10 of the 21 ops lie beyond it
    assert details["tail_percentile"] == pytest.approx(100 * 11 / 21)
    assert metrics["ref_ops_per_s"][0] == pytest.approx(20 / (sum(100 + i for i in range(21)) / 1e3))
    assert metrics["peak_rss_mib"] == (42.0, "MiB")
    # set-up times at reference speed: 0.9 s and 1.3 s at half speed are 0.45 s and 0.65 s
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert details["setup_samples_s"] == pytest.approx([0.5, 0.45, 0.65])
    assert details["setup_wall_samples_s"] == [0.5, 0.9, 1.3]
    assert details["fail_frac"] == pytest.approx(1 / 21)
    assert details["wall_ms.p50"] == 110.0
