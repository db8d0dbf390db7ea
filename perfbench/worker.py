"""One workload in one fresh, single-threaded process.

The process checks its environment, imports the package from the checkout's
``src``, builds the workload's inputs from the seed, runs one untimed warm-up
op and then times ops in a closed loop with one client: the next op starts
when the previous one returns.  One op is what ``hardycover <mode> --format
json`` does, minus argparse and file I/O::

    cli.emit_report(cli.run_pipeline(cli.parse_config(text)), "json")

Every timed loop runs the calibration kernel (``calibrate.py``) before the
first op and after each one, to give each op's time at reference speed.
Roles: ``setup`` stops after the set-up and reports its time and the
kernel's; ``measure`` times ops with tracing off and reports every op's wall
time and reference time; ``trace`` times ops with tracing off for half of
``--seconds`` and then, with the tracer installed, for the other half.
The last line of standard output is one JSON object.  Run through
``perfbench/run.py``, which sets the environment this file demands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

import tracer as tracing
from common import NOMINAL_KERNEL_S, PINS, median


def _environment_problems() -> list[str]:
    problems = []
    if "numpy" in sys.modules:
        problems.append("numpy was imported before the thread pins were checked")
    for var, value in PINS.items():
        if os.environ.get(var) != value:
            problems.append(f"{var} is {os.environ.get(var)!r}, must be {value!r}")
    return problems


def _os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no thread count in /proc/self/status")


def _commit(root: str) -> str | None:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest(package_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str, np, package) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "pins": {var: os.environ.get(var) for var in PINS},
        "commit": _commit(root),
        "source_sha256": _source_digest(os.path.dirname(package.__file__)),
    }


class Loop:
    """Closed loop with one client over one workload; checks every report."""

    def __init__(self, cli, wl, check_report):
        self.cli = cli
        self.wl = wl
        self.check_report = check_report
        self.first_problem: str | None = None
        self.report_bytes = 0

    def op(self) -> tuple[int, bool]:
        """Run and check one op; returns its wall time in ns and whether it passed."""
        cli = self.cli
        start = time.perf_counter_ns()
        try:
            text = cli.emit_report(cli.run_pipeline(cli.parse_config(self.wl.config_text)), "json")
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            wall = time.perf_counter_ns() - start
            problems = [f"op raised {type(exc).__name__}: {exc}"]
        else:
            wall = time.perf_counter_ns() - start
            self.report_bytes = len(text.encode())
            problems = self.check_report(text, self.wl)
        if problems and self.first_problem is None:
            self.first_problem = problems[0]
        return wall, not problems

    def run(self, seconds: float, min_ops: int, kernel, tracer=None) -> tuple[list[int], int, list[float]]:
        """Time ops until ``seconds`` have passed and ``min_ops`` ran.

        Returns the wall times, the failure count and the calibration
        ``kernel``'s time before the first op and after each op.
        """
        walls, failed = [], 0
        kernel_s = [kernel.seconds()]
        deadline = time.monotonic() + seconds
        while len(walls) < min_ops or time.monotonic() < deadline:
            if tracer is not None:
                tracer.begin_op(len(walls))
            wall, ok = self.op()
            if tracer is not None:
                tracer.end_op(wall)
            walls.append(wall)
            failed += not ok
            kernel_s.append(kernel.seconds())
        return walls, failed, kernel_s


def ref_factors(kernel_s: list[float]) -> list[float]:
    """Per op, the factor that turns its wall time into time at reference speed.

    Each op is measured against the mean of the kernel runs just before and
    just after it.
    """
    return [NOMINAL_KERNEL_S / ((before + after) / 2) for before, after in zip(kernel_s, kernel_s[1:])]


# kernel runs that give a set-up-only worker its processor speed
SETUP_KERNEL_RUNS = 5

# trace.coverage is the share of this call's time spent in wrapped calls into
# the other layers; work in its own code or in unwrapped helpers lowers it.
COVERAGE_ROOT = "cli.run_pipeline"


def per_layer(ops: list[dict], factors: list[float], untraced_ref_ns: list[float]) -> dict:
    """Per-layer metrics from the traced ops: per-op medians of counts and of
    times at reference speed (``factors`` holds each traced op's factor)."""
    for op, factor in zip(ops, factors):
        op["factor"] = factor

    def per_op(fn) -> float:
        return median([fn(op) for op in ops])

    def ref_ms(ns, op) -> float:
        return ns * op["factor"] / 1e6

    def stat(op, name, field):
        return op["stats"].get(name, (0, 0, 0, 0))[field]

    def layer_sum(op, layer, field):
        return sum(v[field] for k, v in op["stats"].items() if k.split(".")[0] == layer)

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (per_op(lambda op: layer_sum(op, layer, 0)), "count")
        metrics[f"{layer}.self_ms"] = (per_op(lambda op: ref_ms(layer_sum(op, layer, 2), op)), "ms")
    for name in (
        "covering.schreier_transversal", "covering.schreier_rewrite",
        "induction.induce_representation", "induction.check_representation",
        "induction.verify_symmetry_conditions", "hardy.section_values",
        "hardy.pushforward_section", "hardy.indefinite_inner_product",
        "cli.parse_config", "cli.emit_report",
    ):
        metrics[f"{name}.self_ms"] = (per_op(lambda op: ref_ms(stat(op, name, 2), op)), "ms")
    pipeline = "cyclic.annulus_pipeline"
    metrics[f"{pipeline}.calls"] = (per_op(lambda op: stat(op, pipeline, 0)), "count")
    metrics[f"{pipeline}.total_ms"] = (per_op(lambda op: ref_ms(stat(op, pipeline, 1), op)), "ms")
    for counter in (
        "groups.words_built", "groups.letters_reduced", "covering.rewrite_letters",
        "hardy.section_values.terms", "hardy.boundary_points", "cli.report_bytes",
    ):
        metrics[counter] = (per_op(lambda op: op["counts"].get(counter, 0)), "count")
    metrics["induction.dense_mib"] = (
        per_op(lambda op: op["counts"].get("induction.dense_bytes", 0) / 2**20), "MiB"
    )
    traced_p50 = per_op(lambda op: op["wall_ns"] * op["factor"])
    metrics["trace.overhead_frac"] = (traced_p50 / median(untraced_ref_ns) - 1.0, "frac")
    metrics["trace.coverage"] = (per_op(lambda op: stat(op, COVERAGE_ROOT, 3) / stat(op, COVERAGE_ROOT, 1)), "frac")
    return metrics


def _write_trace(root: str, args, tracer) -> str:
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "span_fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
                "spans": tracer.spans,
                "ops": tracer.ops,
            },
            handle,
        )
    return os.path.relpath(path, root)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True, help="ops per timed loop at least")
    parser.add_argument("--root", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    args = parser.parse_args(argv)

    problems = _environment_problems()
    if problems:
        print("refusing to measure: " + "; ".join(problems), file=sys.stderr)
        return 3
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy as np

    import hardycover
    from hardycover import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(hardycover.__file__))) != os.path.abspath(src):
        print(f"refusing to measure: hardycover imported from {hardycover.__file__}", file=sys.stderr)
        return 3
    import calibrate
    import checks
    import workloads

    modules = tracing.default_modules()
    # the warm-up and the untraced timed loop below never run with wrappers
    if tracing.installed_wrappers(modules):
        raise RuntimeError("tracer wrappers installed before the untraced runs")
    wl = workloads.make(args.workload, args.seed)
    loop = Loop(cli, wl, checks.check_report)
    _, warm_ok = loop.op()
    setup_s = time.monotonic() - args.t0
    threads = _os_threads()
    if threads != 1:
        print(f"refusing to measure: {threads} OS threads after the warm-up, expected 1", file=sys.stderr)
        return 3
    # the calibration kernel is set up and warmed outside the set-up time
    kernel = calibrate.Kernel()
    kernel.seconds()
    sizes = {**wl.sizes, "report_bytes": loop.report_bytes}
    result = {"setup_s": setup_s, "warm_ok": warm_ok, "sizes": sizes, "first_problem": loop.first_problem}
    if args.role == "setup":
        result["kernel_ms"] = median([kernel.seconds() for _ in range(SETUP_KERNEL_RUNS)]) * 1e3
        result["attempted"] = result["failed"] = 0
        print(json.dumps(result))
        return 0

    seconds = args.seconds if args.role == "measure" else args.seconds / 2
    walls, failed, kernel_s = loop.run(seconds, args.min_ops, kernel)
    ref_ns = [wall * factor for wall, factor in zip(walls, ref_factors(kernel_s))]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance(args.root, np, hardycover)
    result["attempted"], result["failed"] = len(walls), failed
    if args.role == "measure":
        result["walls_ns"] = walls
        result["ref_ns"] = ref_ns
        result["kernel_ms"] = median(kernel_s) * 1e3
    else:
        tracer = tracing.Tracer(modules)
        with tracer:
            traced_walls, traced_failed, traced_kernel_s = loop.run(seconds, args.min_ops, kernel, tracer)
        if tracing.installed_wrappers(modules):
            raise RuntimeError("tracer wrappers still installed after the traced run")
        result["attempted"] += len(traced_walls)
        result["failed"] += traced_failed
        result["metrics"] = per_layer(tracer.ops, ref_factors(traced_kernel_s), ref_ns)
        result["details"] = {
            "untraced_ops": len(walls),
            "traced_ops": len(traced_walls),
            "spans": len(tracer.spans),
            "trace_file": _write_trace(args.root, args, tracer),
        }
    result["first_problem"] = loop.first_problem
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
