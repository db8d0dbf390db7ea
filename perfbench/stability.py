#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/stability.py --workloads cyclic-verify dense-verify --seeds 1-10

For every workload and metric it prints the median of the runs and the
interquartile distance as a share of that median, next to a third of the
metric's bound from ``BENCHMARK.json``, the target for a steady benchmark,
and last the largest spread as a share of its bound.  Each run measures for
the ``run_seconds`` of ``BENCHMARK.json``.  Runs are sequential, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import WORKLOADS, median, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            elapsed = time.monotonic() - started
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + json.dumps({k: round(v[-1], 4) for k, v in values.items()}), flush=True)
        for name, series in values.items():
            share = spread(series) if len(series) >= 2 else float("nan")
            worst = max(worst, share / bounds[name])
            print(
                f"{workload:18s} {name:14s} median {median(series):10.4f}  "
                f"spread {share:7.4f}  target < {bounds[name] / 3:.4f}",
                flush=True,
            )
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
