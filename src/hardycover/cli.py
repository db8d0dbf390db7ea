"""Configuration parsing, pipeline orchestration, and report emission.

Subcommands: ``group`` (emit a presentation), ``induce`` (run the induction
pipeline on an explicit covering), ``verify`` (symmetry suite on the cyclic
annulus family), ``isometry`` (numerical isometry check).  Reports are
deterministic given the config (``isometry``, the only mode that draws random
numbers, takes its ``seed`` from it): the JSON emission is byte-stable, with
wall-clock timing shown only in the text rendering.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import __version__
from .covering import covering_from_json, schreier_transversal
from .cyclic import annulus_pipeline
from .groups import double_group, presentation_to_json, surface_group
from .hardy import (
    SectionSpec,
    indefinite_inner_product,
    make_annulus_cover,
    random_section,
    sample_section,
    verify_isometry,
)
from .induction import (
    Check,
    CheckReport,
    SignatureData,
    SubgroupRep,
    check_representation,
    induce_representation,
    matrix_from_json,
    rep_to_json,
)

__all__ = ["RunConfig", "Report", "parse_config", "run_pipeline", "emit_report", "main"]

# Field validators.  JSON true/false load as bool, a subclass of int, so
# integer and number fields reject bools explicitly.
_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
_nonneg_int = lambda v: _int(v) and v >= 0
_pos_int = lambda v: _int(v) and v > 0
_positive = lambda v: _number(v) and v > 0
_flag = lambda v: isinstance(v, bool)
_object = lambda v: isinstance(v, dict)
_signs = lambda v: isinstance(v, list) and len(v) == 2 and all(_int(x) and x in (1, -1) for x in v)


@dataclass(frozen=True)
class RunConfig:
    mode: str
    params: dict[str, Any]

    def echo(self) -> dict:
        return {"mode": self.mode, **self.params}


def _non_finite(value: Any) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, list) and any(_non_finite(v) for v in value)


def _config_object(pairs: list[tuple[str, Any]]) -> dict:
    """JSON object hook: reject duplicate keys and NaN/Infinity, naming the field.

    Nested objects are checked by their own call, so only lists are searched.
    """
    seen: dict[str, Any] = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r} in configuration")
        if _non_finite(value):
            raise ValueError(f"field {key!r} holds a non-finite number")
        seen[key] = value
    return seen


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration, filling mode defaults.

    Every value is checked before any work starts, and an error names the field.
    """
    raw = json.loads(text, object_pairs_hook=_config_object)
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    mode = raw.pop("mode", None)
    if not isinstance(mode, str) or mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {list(_MODES)}")
    schema = _MODES[mode][1]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValueError(f"unknown field(s) for mode {mode!r}: {unknown}")
    params: dict[str, Any] = {}
    for name, (required, default, validator) in schema.items():
        if name in raw:
            value = raw[name]
        elif required:
            raise ValueError(f"missing required field {name!r} for mode {mode!r}")
        else:
            value = default
        if not validator(value):
            raise ValueError(f"invalid value for field {name!r}: {value!r}")
        params[name] = value
    # the covered annulus has inner radius rho1**n, which must be a normal float
    if mode == "isometry" and params["rho1"] ** params["n"] < sys.float_info.min:
        raise ValueError(
            f"invalid value for field 'rho1': {params['rho1']!r} ** n={params['n']} underflows"
        )
    return RunConfig(mode=mode, params=params)


@dataclass
class Report:
    """Outcome of one pipeline run: config echo, named checks, artifacts."""

    config: dict
    checks: list[Check] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    error: str | None = None
    timing_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def to_json_doc(self) -> dict:
        # timing is deliberately left out so the document is run-stable
        return {
            "config": self.config,
            "checks": [c.to_json() for c in self.checks],
            "extras": self.extras,
            "error": self.error,
            "passed": self.passed,
            "versions": {"hardycover": __version__, "numpy": np.__version__},
        }

    def to_text(self) -> str:
        lines = [f"mode: {self.config.get('mode')}   passed: {self.passed}"]
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.name}: residual {c.residual:.3e} (tolerance {c.tolerance:.1e})"
            )
        if self.error:
            lines.append(f"  error: {self.error}")
        for key, value in self.extras.items():
            if key == "convergence":
                lines.append("  convergence (samples -> max residual):")
                for n_samples, residual in value:
                    lines.append(f"    {n_samples:6d}  {residual:.3e}")
            elif key == "per_trial_residuals":
                worst = max(value) if value else 0.0
                lines.append(f"  {len(value)} trials, worst residual {worst:.3e}")
        lines.append(f"  elapsed: {self.timing_seconds:.3f} s")
        return "\n".join(lines)


def _prefixed(check_report: CheckReport, prefix: str) -> list[Check]:
    return [Check(prefix + c.name, c.residual, c.tolerance) for c in check_report.checks]


def _run_group(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    builder = double_group if p["double"] else surface_group
    report.extras["presentation"] = presentation_to_json(builder(p["s"], p["k"]))


def _run_induce(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    presentation = (double_group if p["double"] else surface_group)(p["s"], p["k"])
    cov = covering_from_json(presentation, p["covering"])
    trans = schreier_transversal(cov)
    chi1_doc = p["chi1"]
    images = {lbl: matrix_from_json(mat) for lbl, mat in chi1_doc["images"].items()}
    chi1 = SubgroupRep(covering=cov, transversal=trans, m=int(chi1_doc["m"]), images=images)

    # the chi1 checks are reported even when induce_representation refuses chi1
    report.checks += _prefixed(check_representation(chi1), "chi1:")
    chi2 = induce_representation(cov, trans, chi1)
    report.checks += _prefixed(check_representation(chi2), "chi2:")
    report.extras["induced"] = rep_to_json(chi2)
    report.extras["transversal"] = [str(w) for w in trans.reps]
    report.extras["schreier_generators"] = {
        g.label: str(w) for g, w in zip(trans.schreier_generators, trans.defining_words)
    }


def _signature_from_params(p: dict) -> SignatureData:
    m = p["m"]
    return SignatureData(J_list=tuple(sign * np.eye(m) for sign in p["signs"]))


def _run_verify(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    pipeline = annulus_pipeline(p["n"], float(p["alpha"]), _signature_from_params(p))
    report.checks += _prefixed(check_representation(pipeline.chi2), "chi2:")
    report.checks += pipeline.report.checks


def _run_isometry(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    cov = make_annulus_cover(float(p["rho1"]), p["n"])
    sig = _signature_from_params(p)
    alpha = float(p["alpha"])
    c = alpha / (2.0 * np.pi)
    tolerance = float(p["tolerance"])
    m, degree, samples = p["m"], p["degree"], p["samples"]

    # quadrature sanity: the constant section against the closed form on each annulus
    e0, e1 = p["signs"]
    constant_coeffs = np.zeros((1, m), dtype=complex)
    constant_coeffs[0, 0] = 1.0
    constant = SectionSpec(m=m, c=0.0, degree=0, coeffs=constant_coeffs)
    for tag, rho in (("S1", cov.rho1), ("S2", cov.rho2)):
        secs = tuple(sample_section(constant, comp, samples, rho) for comp in (0, 1))
        value = indefinite_inner_product(secs, secs, sig.J_list)
        expected = 2.0 * np.pi * (e0 + rho * e1)
        report.checks.append(Check(f"closed-form[{tag}]", abs(value - expected), 1e-10))

    rng = np.random.default_rng(p["seed"])
    pairs = [
        (random_section(rng, m, degree, c), random_section(rng, m, degree, c))
        for _ in range(p["trials"])
    ]
    residuals = [
        verify_isometry(cov, f, h, alpha, sig, samples) for f, h in pairs
    ]
    report.extras["per_trial_residuals"] = residuals
    report.checks.append(Check("isometry-residual[max]", max(residuals), tolerance))

    table = []
    n_samples = min(64, samples)
    while n_samples <= samples:
        worst = max(verify_isometry(cov, f, h, alpha, sig, n_samples) for f, h in pairs)
        table.append([n_samples, worst])
        n_samples *= 2
    report.extras["convergence"] = table
    # "decreasing within 2x noise": each doubling may exceed twice the previous
    # residual only below the acceptance tolerance, where values are converged noise
    monotone_violation = max(
        [0.0]
        + [
            table[i + 1][1] - max(2.0 * table[i][1], tolerance)
            for i in range(len(table) - 1)
        ]
    )
    report.checks.append(Check("convergence-monotone", monotone_violation, tolerance))
    report.checks.append(Check("convergence-final", table[-1][1], tolerance))


# mode -> (runner, field table); a field table maps name -> (required, default, validator)
_MODES: dict[str, tuple[Callable[[RunConfig, Report], None], dict]] = {
    "group": (
        _run_group,
        {
            "s": (True, None, _nonneg_int),
            "k": (True, None, _pos_int),
            "double": (False, False, _flag),
        },
    ),
    "induce": (
        _run_induce,
        {
            "s": (True, None, _nonneg_int),
            "k": (True, None, _pos_int),
            "double": (False, True, _flag),
            "covering": (True, None, _object),
            "chi1": (True, None, _object),
        },
    ),
    "verify": (
        _run_verify,
        {
            "n": (True, None, _pos_int),
            "alpha": (True, None, _number),
            "signs": (True, None, _signs),
            "m": (False, 1, _pos_int),
        },
    ),
    "isometry": (
        _run_isometry,
        {
            "rho1": (True, None, lambda v: _number(v) and 0 < v < 1),
            "n": (True, None, _pos_int),
            "alpha": (True, None, _number),
            "signs": (True, None, _signs),
            "m": (False, 1, _pos_int),
            "degree": (False, 8, _pos_int),
            "samples": (False, 1024, _pos_int),
            "trials": (False, 20, _pos_int),
            "tolerance": (False, 1e-9, _positive),
            "seed": (False, 0, _nonneg_int),
        },
    ),
}


def run_pipeline(cfg: RunConfig) -> Report:
    """Execute the configured mode; module errors become a failed report, not a crash."""
    report = Report(config=cfg.echo())
    start = time.perf_counter()
    try:
        _MODES[cfg.mode][0](cfg, report)
    except Exception as exc:  # noqa: BLE001 - contract: never crash
        report.error = f"{type(exc).__name__}: {exc}"
    report.timing_seconds = time.perf_counter() - start
    return report


def emit_report(report: Report, fmt: str = "text", path: str | None = None) -> str:
    """Render the report; JSON output is byte-stable for a fixed config."""
    if fmt == "json":
        rendered = json.dumps(report.to_json_doc(), sort_keys=True, indent=2) + "\n"
    elif fmt == "text":
        rendered = report.to_text() + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return rendered


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardycover",
        description="Surface-group coverings, induced representations, and the "
        "annulus Hardy-space isometry check.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="emit a surface or double presentation")
    group.add_argument("--genus", type=int, required=True)
    group.add_argument("--boundary", type=int, required=True)
    group.add_argument("--double", action="store_true")
    group.add_argument("--format", choices=("json", "text"), default="json")
    group.add_argument("--out", default=None)

    for name, extra in (
        ("induce", ()),
        ("verify", ()),
        ("isometry", ("samples", "degree", "seed")),
    ):
        cmd = sub.add_parser(name, help=f"run the {name} pipeline from a config file")
        cmd.add_argument("--config", required=True)
        for flag in extra:
            cmd.add_argument(f"--{flag}", type=int, default=None)
        cmd.add_argument("--format", choices=("json", "text"), default="text")
        cmd.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "group":
            raw = {"mode": "group", "s": args.genus, "k": args.boundary, "double": args.double}
        else:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle, object_pairs_hook=_config_object)
            for flag in ("samples", "degree", "seed"):
                value = getattr(args, flag, None)
                if value is not None:
                    raw[flag] = value
        cfg = parse_config(json.dumps(raw))
        report = run_pipeline(cfg)
        rendered = emit_report(report, fmt=args.format, path=args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
