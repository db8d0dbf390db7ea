#!/usr/bin/env python3
"""Run one hardycover benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cyclic-verify --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes, one after another, with the BLAS and
OpenMP thread pools pinned to one thread.  Each worker sets up: it imports
the package, builds the inputs and runs one warm-up op.  Without tracing, one
worker then times ops for ``--seconds`` and gives the op metrics, and
``SETUP_PROCESSES`` more workers only set up, so that ``setup_s`` is the
median of several set-ups.  Op and set-up times are reported at reference
processor speed (see ``calibrate.py``), because on a shared machine the
processor's speed drifts between minutes and between processes.  With
``--trace 1`` a single worker runs and the last line holds the per-layer
metrics of its traced run.  The line before it records provenance,
input sizes and details such as the tail percentile and ``fail_frac``.
The runner imports no numpy itself.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import NOMINAL_KERNEL_S, PINS, WORKLOADS, median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workers that only set up, besides the measuring one.
SETUP_PROCESSES = 5
# A timed run keeps going past its time until it has this many ops, so that
# the tail has ten ops beyond it and is never below the median.
MIN_TIMED_OPS = 21
MIN_TRACE_PHASE_OPS = 5
# Every run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(role: str, args, seconds: float, min_ops: int, deadline: float) -> dict:
    # a fixed hash seed keeps dict and set layouts the same from run to run
    env = dict(os.environ, **PINS, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--role", role, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--min-ops", str(min_ops), "--root", ROOT, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _times(ns: list[float], passed: int) -> tuple[float, float, float, float]:
    """Median, tail (with its percentile) and passing ops per second of op times."""
    ms = [t / 1e6 for t in ns]
    tail_ms, percentile, _ = tail(ms)
    return median(ms), tail_ms, percentile, passed / (sum(ns) / 1e9)


def end_to_end(parts: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics and details: op metrics from the measuring worker
    ``parts[0]``, set-up time over every worker."""
    measure = parts[0]
    walls, ref = measure["walls_ns"], measure["ref_ns"]
    passed = len(walls) - measure["failed"]
    ref_p50, ref_tail, percentile, ref_rate = _times(ref, passed)
    wall_p50, wall_tail, _, wall_rate = _times(walls, passed)
    # set-up time at reference speed, scaled by the process's median kernel time
    setups = [part["setup_s"] * NOMINAL_KERNEL_S * 1e3 / part["kernel_ms"] for part in parts]
    metrics = {
        "ref_ms.p50": (ref_p50, "ms"),
        "ref_ms.tail": (ref_tail, "ms"),
        "ref_ops_per_s": (ref_rate, "1/s"),
        "peak_rss_mib": (measure["peak_rss_mib"], "MiB"),
        "setup_s": (median(setups), "s"),
    }
    details = {
        "ops": len(walls),
        "tail_percentile": percentile,
        "fail_frac": measure["failed"] / len(walls),
        "wall_ms.p50": wall_p50,
        "wall_ms.tail": wall_tail,
        "ops_per_s": wall_rate,
        "kernel_ms": [part["kernel_ms"] for part in parts],
        "setup_samples_s": setups,
        "setup_wall_samples_s": [part["setup_s"] for part in parts],
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    if not os.path.isfile(os.path.join(ROOT, "src", "hardycover", "__init__.py")):
        print(f"no hardycover sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            parts = [_worker("trace", args, args.seconds, MIN_TRACE_PHASE_OPS, deadline)]
        else:
            parts = [_worker("measure", args, args.seconds, MIN_TIMED_OPS, deadline)]
            parts += [_worker("setup", args, 0.0, 0, deadline) for _ in range(SETUP_PROCESSES)]
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, details = parts[0]["metrics"], parts[0]["details"]
    else:
        metrics, details = end_to_end(parts)
    warm_ok = all(part["warm_ok"] for part in parts)
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "provenance": parts[0]["provenance"],
        "sizes": parts[0]["sizes"],
        "warm_up_passed": warm_ok,
        "first_problem": next((p["first_problem"] for p in parts if p["first_problem"]), None),
        "details": details,
    }))
    print(json.dumps({
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
