"""Configuration parsing, pipeline orchestration, and report emission.

Subcommands: ``group`` (emit a presentation), ``induce`` (run the induction
pipeline on an explicit covering), ``verify`` (symmetry suite on the cyclic
annulus family), ``isometry`` (numerical isometry check).  Configs are
checked once, at parse, each refusal naming its field: values, sampling
(``isometry`` samples a power of two, at least ``2 degree + 2``) and size
budgets for every mode; the ``chi1`` images of ``induce`` are checked and
converted as one array.  Reports are deterministic given the config
(``isometry``, the only mode that draws random numbers, takes its ``seed``
from it): the JSON emission is byte-stable, with wall-clock timing shown
only in the text rendering.

The JSON report is the text of ``json.dumps(doc, sort_keys=True, indent=2)``,
written by ``_json`` with three bulk paths: images from their block-monomials
(``_dense_json``), arrays of numbers and dicts of same-shape arrays with one
``json.dumps`` of all their numbers (``_array_json``), and the check list from
one ``json.dumps`` of its residuals and tolerances (``_checks_json``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

import numpy as np

from . import __version__
from .covering import covering_from_json, schreier_transversal
from .cyclic import annulus_pipeline
from .groups import double_group, presentation_to_json, surface_group
from .hardy import make_annulus_cover, random_section, verify_isometry
from .induction import (
    BlockMonomial,
    Check,
    MatrixRep,
    SignatureData,
    check_representation,
    flatten_levels,
    induce_representation,
    matrices_from_json,
    rep_to_json,
)

__all__ = ["RunConfig", "Report", "parse_config", "run_pipeline", "emit_report", "main"]

# Field validators.  JSON true/false load as bool, a subclass of int, so
# integer and number fields reject bools explicitly.  A number must be a
# finite float: NaN, infinities and ints too large for a float are refused.
_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_number = lambda v: (_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max
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
    # induce: chi1.images as converted at parse, one (G, m, m) array in the config's label order
    chi1_images: np.ndarray | None = field(default=None, compare=False)

    def echo(self) -> dict:
        return {"mode": self.mode, **self.params}


def _config_object(pairs: list[tuple[str, Any]]) -> dict:
    """JSON object hook: reject duplicate keys.  NaN and Infinity are refused by the field validators."""
    seen: dict[str, Any] = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r} in configuration")
        seen[key] = value
    return seen


def _fields(raw: dict, schema: dict, where: str, prefix: str = "") -> dict:
    """Check ``raw`` against a field table and fill defaults; an error names ``prefix + field``."""
    unknown = sorted(prefix + name for name in set(raw) - set(schema))
    if unknown:
        raise ValueError(f"unknown field(s) for {where}: {unknown}")
    params: dict[str, Any] = {}
    for name, (required, default, validator) in schema.items():
        if name in raw:
            value = raw[name]
        elif required:
            raise ValueError(f"missing required field {prefix + name!r} for {where}")
        else:
            value = default
        if not validator(value):
            raise ValueError(f"invalid value for field {prefix + name!r}: {value!r}")
        params[name] = value
    return params


# isometry samples each Cauchy kernel at n * samples angles upstairs, and each of the
# (2 degree + 1) m Gram basis sections at n N, m values each (16 B per entry)
ISOMETRY_GRID_ENTRIES = 2**20


def _check_isometry(p: dict) -> None:
    rho1, n, degree, samples, m = p["rho1"], p["n"], p["degree"], p["samples"], p["m"]
    if n * samples * m > ISOMETRY_GRID_ENTRIES:
        raise ValueError(
            f"invalid values for fields 'n', 'samples' and 'm': n={n}, samples={samples}, m={m} "
            f"give {n * samples * m} entries per section upstairs, over the budget of "
            f"{ISOMETRY_GRID_ENTRIES}"
        )
    basis_entries = (2 * degree + 1) * m * n * (1 << (2 * degree + 1).bit_length()) * m
    if basis_entries > ISOMETRY_GRID_ENTRIES:
        raise ValueError(
            f"invalid values for fields 'degree', 'n' and 'm': degree={degree}, n={n}, m={m} give "
            f"{basis_entries} entries for the Gram basis upstairs, over the budget of {ISOMETRY_GRID_ENTRIES}"
        )
    # the convergence table's counts double up to samples
    if samples & (samples - 1):
        raise ValueError(f"invalid value for field 'samples': {samples} is not a power of two")
    if samples < 2 * degree + 2:
        raise ValueError(
            f"invalid values for fields 'samples' and 'degree': {samples} samples undersample a "
            f"degree-{degree} section (need at least {2 * degree + 2})"
        )
    # the covered annulus has inner radius rho1**n, which must be a normal float
    if rho1**n < sys.float_info.min:
        raise ValueError(f"invalid value for field 'rho1': {rho1!r} ** n={n} underflows")
    # The inner-circle pushforward samples have size about rho1**-e, with
    # e = degree + (n - 1)/2 - c, c = alpha/(2 pi).  Each is a sum of 2*degree + 1
    # terms with coefficients of standard Gaussian size (bounded here by 10),
    # and the pairing sums samples * m of their squares.  The least Gram scale,
    # 2 pi rho1**(2c + 2 degree + 1), over 2 pi n bounds the least product.
    c = p["alpha"] / (2.0 * math.pi)
    log_most = 2 * (math.log(10 * (2 * degree + 1)) - (degree + (n - 1) / 2 - c) * math.log(rho1))
    log_most += math.log(samples * m)
    log_least = (2 * c + 2 * degree + 1) * math.log(rho1) - math.log(n)
    if log_most > math.log(sys.float_info.max) or log_least < math.log(sys.float_info.min):
        raise ValueError(
            f"invalid value for field 'rho1': {rho1!r} with n={n}, degree={degree}, alpha={p['alpha']!r} "
            f"gives inner-circle pairing terms from 1e{log_least / math.log(10):.0f} to "
            f"1e{log_most / math.log(10):.0f}, so the pairing overflows or underflows"
        )


# verify builds about 1.5 KB per block entry (tracemalloc peak 91 MB at n = 2**16, m = 1)
VERIFY_BLOCK_ENTRIES = 2**16


def _check_verify(p: dict) -> None:
    n, m = p["n"], p["m"]
    if n * m * m > VERIFY_BLOCK_ENTRIES:
        raise ValueError(
            f"invalid values for fields 'n' and 'm': n={n}, m={m} give {n * m * m} block entries "
            f"per image, over the budget of {VERIFY_BLOCK_ENTRIES}"
        )


# a presentation of 2s + k generators, doubled, takes about 4.3 KB per generator to build and
# write (tracemalloc peak 32 MB at s = 4000, k = 1)
PRESENTATION_GENERATORS = 2**14


def _check_generators(p: dict) -> None:
    s, k = p["s"], p["k"]
    if 2 * s + k > PRESENTATION_GENERATORS:
        raise ValueError(
            f"invalid values for fields 's' and 'k': s={s}, k={k} give {2 * s + k} generators, "
            f"over the budget of {PRESENTATION_GENERATORS}"
        )


_COVERING_FIELDS = {"n": (True, None, _pos_int), "perms": (True, None, _object)}
_CHI1_FIELDS = {"m": (True, None, _pos_int), "images": (True, None, _object)}
# induce exports each image as a dense (n m)^2 matrix: 2**20 entries are ~70 MB of JSON
DENSE_EXPORT_ENTRIES = 2**20


def _check_induce(p: dict) -> np.ndarray:
    """Check the nested ``covering`` and ``chi1``, each bad value named by its path; return chi1's images."""
    _check_generators(p)
    covering = _fields(p["covering"], _COVERING_FIELDS, "'covering'", "covering.")
    chi1 = _fields(p["chi1"], _CHI1_FIELDS, "'chi1'", "chi1.")
    n, m, count = covering["n"], chi1["m"], len(covering["perms"])
    if count * (n * m) ** 2 > DENSE_EXPORT_ENTRIES:
        raise ValueError(
            f"invalid values for fields 'covering.n' and 'chi1.m': n={n}, m={m} gives a dense "
            f"export of {count} images with {count * (n * m) ** 2} entries, over the "
            f"budget of {DENSE_EXPORT_ENTRIES}"
        )
    for gen, images in covering["perms"].items():
        if not (isinstance(images, list) and all(_int(v) for v in images)):
            raise ValueError(
                f"invalid value for field 'covering.perms.{gen}': {images!r} is not a list of ints"
            )
    names = [f"chi1.images.{label}" for label in chi1["images"]]
    return matrices_from_json(list(chi1["images"].values()), (m, m), names, whole=True)


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
    _, schema, check = _MODES[mode]
    params = _fields(raw, schema, f"mode {mode!r}")
    return RunConfig(mode=mode, params=params, chi1_images=check(params))


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
        """The run-stable document (no timing); a ``BlockMonomial`` stands for its dense matrix."""
        return self._document([c.to_json() for c in self.checks])

    def _document(self, checks: list) -> dict:
        """``to_json_doc`` with ``checks`` standing for the list of ``Check.to_json`` forms."""
        return {
            "config": self.config,
            "checks": checks,
            "extras": self.extras,
            "error": self.error,
            "passed": self.passed,
            "versions": {"hardycover": __version__, "numpy": np.__version__},
        }

    def to_text(self) -> str:
        lines = [f"mode: {self.config.get('mode')}   passed: {self.passed}"]
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            line = f"  [{status}] {c.name}: residual {c.residual:.3e} (tolerance {c.tolerance:.1e})"
            if c.block:
                line += f" at block {c.block}"
            if not c.passed:
                line += f", {c.residual / c.tolerance:.3g} times its tolerance"
            lines.append(line)
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


def _run_group(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    builder = double_group if p["double"] else surface_group
    report.extras["presentation"] = presentation_to_json(builder(p["s"], p["k"]))


def _run_induce(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    presentation = (double_group if p["double"] else surface_group)(p["s"], p["k"])
    cov = covering_from_json(presentation, p["covering"])
    trans = schreier_transversal(cov)
    images = dict(zip(p["chi1"]["images"], cfg.chi1_images))
    chi1 = MatrixRep(presentation=trans, m=p["chi1"]["m"], images=images)

    # the chi1 checks are reported even when induce_representation refuses chi1
    report.checks += check_representation(chi1).prefixed("chi1:").checks
    chi2 = induce_representation(cov, trans, chi1)
    report.checks += check_representation(chi2).prefixed("chi2:").checks
    report.extras["induced"] = rep_to_json(chi2, cov, dense=False)
    report.extras["transversal"], generators = map(list, trans.word_strings)
    report.extras["schreier_generators"] = dict(zip(trans.alphabet, generators))


def _signature_from_params(p: dict) -> SignatureData:
    m = p["m"]
    return SignatureData(J_list=tuple(sign * np.eye(m) for sign in p["signs"]))


def _run_verify(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    pipeline = annulus_pipeline(p["n"], float(p["alpha"]), _signature_from_params(p))
    report.checks += check_representation(pipeline.chi2).prefixed("chi2:").checks
    report.checks += pipeline.report.checks


def _run_isometry(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    cov = make_annulus_cover(float(p["rho1"]), p["n"])
    alpha, tolerance, degree, samples = float(p["alpha"]), float(p["tolerance"]), p["degree"], p["samples"]
    rng = np.random.default_rng(p["seed"])
    c = alpha / (2.0 * np.pi)
    pairs = [
        (random_section(rng, p["m"], degree, c), random_section(rng, p["m"], degree, c))
        for _ in range(p["trials"])
    ]
    # doublings of 64 from the first that samples the degree up to the configured count
    counts = [1 << k for k in range(6, samples.bit_length()) if 1 << k >= 2 * degree + 2] or [samples]
    result = verify_isometry(cov, alpha, _signature_from_params(p), degree, pairs, counts, rng)
    report.checks += result.pipeline.report.checks
    for comp, (residual, block) in enumerate(result.gram):
        report.checks.append(Check(f"isometry-gram[{comp}]", residual, tolerance, block))
    residuals = result.trials.tolist()
    report.extras["per_trial_residuals"] = residuals
    report.checks.append(Check("isometry-residual[max]", max(residuals), tolerance))

    table = [[n_samples, residual] for n_samples, residual in zip(counts, result.convergence.tolist())]
    report.extras["convergence"] = table
    # each doubling must at least halve the kernels' error until it is below the tolerance
    monotone_violation = max(
        [0.0] + [table[i + 1][1] - max(table[i][1] / 2.0, tolerance) for i in range(len(table) - 1)]
    )
    report.checks.append(Check("convergence-monotone", monotone_violation, tolerance))
    report.checks.append(Check("convergence-final", table[-1][1], tolerance))


# mode -> (runner, field table, check of the filled fields, which returns the chi1 images of
# induce); a field table maps name -> (required, default, validator)
_MODES: dict[str, tuple[Callable[[RunConfig, Report], None], dict, Callable[[dict], Any]]] = {
    "group": (
        _run_group,
        {
            "s": (True, None, _nonneg_int),
            "k": (True, None, _pos_int),
            "double": (False, False, _flag),
        },
        _check_generators,
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
        _check_induce,
    ),
    "verify": (
        _run_verify,
        {
            "n": (True, None, _pos_int),
            "alpha": (True, None, _number),
            "signs": (True, None, _signs),
            "m": (False, 1, _pos_int),
        },
        _check_verify,
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
        _check_isometry,
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


def _dense_json(mat: BlockMonomial, indent: str, out: list[str]) -> None:
    """Append ``mat.dense()`` as ``_json`` writes its ``matrix_to_json`` lists.

    Off the blocks every entry is one constant ``+0.0, +0.0`` pair; one call
    of the C encoder converts the block entries.
    """
    n, m = mat.n, mat.m
    row, entry, part = (indent + "  " * depth for depth in (1, 2, 3))
    pair = lambda re, im: f"[\n{part}{re},\n{part}{im}\n{entry}]"
    zero, sep = pair("0.0", "0.0"), ",\n" + entry
    values = np.stack([mat.blocks.real, mat.blocks.imag], -1).ravel().tolist()
    parts = json.dumps(values)[1:-1].split(", ")
    entries = [pair(re, im) for re, im in zip(parts[::2], parts[1::2])]
    opener = "[\n" + row
    for k, column in enumerate(mat.perm.tolist()):
        before, after = (zero + sep) * (column * m), (sep + zero) * ((n - 1 - column) * m)
        for r in range(k * m * m, (k + 1) * m * m, m):
            out.append(f"{opener}[\n{entry}{before}{sep.join(entries[r:r + m])}{after}\n{row}]")
            opener = ",\n" + row
    out.append(f"\n{indent}]")


def _array_json(keys: list[str] | None, items: list, indent: str, out: list[str]) -> bool:
    """Append ``items``, or with ``keys`` the dict of them, if they are one array of ints and floats.

    The array must be rectangular and non-empty with every number at one
    depth (with ``keys``, at least one list deep in each value); else nothing
    is appended and the result is False.  One ``json.dumps`` spells every
    number, and the text between two numbers depends only on how many
    dimensions roll over there: those separators are made once per depth.
    """
    shape, first = [len(items)], items[0]
    while type(first) in (list, tuple) and first:
        shape.append(len(first))
        first = first[0]
    if type(first) not in (int, float) or keys and len(shape) < 2:  # most other content fails here
        return False
    numbers = flatten_levels(items, shape[1:])
    if numbers is None or not {*map(type, numbers)} <= {int, float}:
        return False
    depth = len(shape)  # the container at level 0, every number at level ``depth``
    at = [indent + "  " * level for level in range(depth + 1)]
    opening, closing = [f"[\n{a}" for a in at], [f"\n{a}]" for a in at]
    opens = lambda j: "".join(opening[depth - j + 1 :])  # j lists open, their items at ``depth``
    closes = lambda j: "".join(closing[depth - j : depth][::-1])  # j lists close after a number
    # before a number where the last j dimensions roll over: j lists close, a comma, j lists open
    block: list[str] = []  # the texts before the numbers of one item, all but the first
    for j, size in enumerate(reversed(shape[1:])):
        block += ([f"{closes(j)},\n{at[depth - j]}{opens(j)}"] + block) * (size - 1)
    opened, between = opens(depth - 1), f"{closes(depth - 1)},\n{at[1]}"
    if keys:
        heads = [f"{between}{encode_basestring_ascii(key)}: {opened}" for key in keys]
        heads[0] = f"{{\n{at[1]}{encode_basestring_ascii(keys[0])}: {opened}"
    else:
        heads = [f"[\n{at[1]}{opened}"] + [between + opened] * (len(items) - 1)
    text = [""] * (2 * len(numbers))  # the text before each number, then the number
    text[::2] = ([""] + block) * len(items)
    text[:: 2 * len(block) + 2] = heads
    text[1::2] = json.dumps(numbers)[1:-1].split(", ")
    out += text
    out.append(f"{closes(depth - 1)}\n{indent}{'}' if keys else ']'}")
    return True


def _checks_json(checks: list[Check], indent: str, out: list[str]) -> None:
    """Append the list of ``Check.to_json`` forms of ``checks``, without making them.

    One ``json.dumps`` spells every residual and tolerance, and each check
    fills one template.
    """
    item, field = indent + "  ", indent + "    "
    template = "{\n" + ",\n".join(f'{field}"{key}": %s' for key in ("name", "passed", "residual", "tolerance"))
    template += f"\n{item}}}"
    count = len(checks)
    numbers = json.dumps([c.residual for c in checks] + [c.tolerance for c in checks])[1:-1].split(", ")
    filled = (
        template % (encode_basestring_ascii(c.name), "true" if c.passed else "false", residual, tolerance)
        for c, residual, tolerance in zip(checks, numbers[:count], numbers[count:])
    )
    out.append(f"[\n{item}" + f",\n{item}".join(filled) + f"\n{indent}]")


class _CheckList(list):
    """A report's checks in the document that ``emit_report`` writes: ``_checks_json`` writes them."""


def _json(value: Any, indent: str, out: list[str]) -> None:
    """Append ``json.dumps(value, sort_keys=True, indent=2)`` of a string-keyed document.

    ``json`` also writes a str by ``encode_basestring_ascii`` and an int or a
    finite float as its ``repr``.  An array of numbers is written whole by
    ``_array_json``.
    """
    kind = type(value)
    if kind is str:
        return out.append(encode_basestring_ascii(value))
    if kind is int or kind is float and math.isfinite(value):
        return out.append(repr(value))
    if kind is bool:
        return out.append("true" if value else "false")
    if kind is BlockMonomial:
        return _dense_json(value, indent, out)
    if not (value and isinstance(value, (dict, list, tuple))):
        return out.append(json.dumps(value))
    if kind is _CheckList:
        return _checks_json(value, indent, out)
    inner = indent + "  "
    if isinstance(value, dict):
        keys = sorted(value)
        if _array_json(keys, [value[key] for key in keys], indent, out):
            return
        head, sep = "{\n" + inner, ",\n" + inner
        for key in keys:
            out.append(f"{head}{encode_basestring_ascii(key)}: ")
            _json(value[key], inner, out)
            head = sep
        return out.append(f"\n{indent}}}")
    # most lists of other content are told by their first item without a call
    if type(value[0]) in (int, float, list, tuple) and _array_json(None, value, indent, out):
        return
    head, sep = "[\n" + inner, ",\n" + inner
    for item in value:
        out.append(head)
        _json(item, inner, out)
        head = sep
    out.append(f"\n{indent}]")


def emit_report(report: Report, fmt: str = "text", path: str | None = None) -> str:
    """Render the report; JSON output is byte-stable for a fixed config.

    JSON images are written from the block-monomials, byte-identical to
    ``json.dumps(doc, sort_keys=True, indent=2)`` of their ``matrix_to_json`` lists.
    """
    if fmt == "json":
        chunks: list[str] = []
        _json(report._document(_CheckList(report.checks)), "", chunks)
        chunks.append("\n")
        rendered = "".join(chunks)
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
