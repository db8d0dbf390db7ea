"""Configuration parsing, pipeline orchestration, and report emission.

Subcommands: ``group`` (emit a presentation), ``induce`` (run the induction
pipeline on an explicit covering), ``verify`` (symmetry suite on the cyclic
annulus family), ``isometry`` (numerical isometry check), each reading a
config file of its mode.  A config is refused only at parse, each refusal
naming its field (a bad value, the rule its field takes): values, size budgets, and the rules of ``hardy`` and the
covering reader.  Parse builds what the run uses: ``isometry``'s annulus
cover, and ``induce``'s covering, transversal and ``chi1``, whose images are
converted as one array by ``matrices_from_json``, the JSON reader (which
records the parts given as ints), and stacked in label order.  Reports are
deterministic given the config (``isometry``, the only mode that draws
random numbers, takes its ``seed`` from it, draws every trial as one
coefficient array and leaves the convergence table's counts to
``verify_isometry``): the JSON emission is byte-stable, with wall-clock
timing shown only in the text rendering.
Each mode runs with numpy's overflow raising, so a finite config whose
products overflow gets an error report, not an ``Infinity`` residual.

A report's matrices come in tables of one type, ``_Images``: the labels ->
images mapping with the stack the images are written from.  The echoed
``chi1.images`` is one (the config as given, over the parse-time array), and
so are the ``images`` of the ``induced`` extra (``chi2``'s images, over rows
``1..G`` of its table).  A report holds its checks as one ``CheckReport``
table, which each mode appends to.

The JSON report is one line, ``json.dumps(doc, sort_keys=True)`` of
``Report.to_json_doc`` with each image as its dense ``nm x nm`` matrix of
``[re, im]`` float pairs and the check table as its rows ``{name, passed,
residual, tolerance}``, then a newline.  It is written by that one
``json.dumps``, whose ``default`` hook leaves a hole for each table, and each
table is written into its hole from its own arrays: the images by
``_images_json``, from one float table of the image stacks (induce's images
repeat chi1's entries, so it is less than half as long as the floats
written), and the check table by ``_checks_json``, from its columns, so no
``Check`` row is made.  ``python -m json.tool`` indents the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from numbers import Real
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .covering import covering_from_json, schreier_transversal
from .cyclic import annulus_pipeline
from .groups import double_group, presentation_to_json, surface_group
from .hardy import AnnulusCovering, _check_sample_count, make_annulus_cover, verify_isometry
from .induction import (
    Check,
    CheckReport,
    MatrixRep,
    SignatureData,
    check_representation,
    induce_representation,
)

__all__ = ["RunConfig", "Report", "parse_config", "run_pipeline", "emit_report", "main"]


def _rule(text: str, test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """A field validator: ``test``, carrying as ``rule`` the text a refusal by it ends with."""
    test.rule = text
    return test


# Field validators.  JSON true/false load as bool, a subclass of int, so
# integer and number fields reject bools explicitly.  A number must be a
# finite float: NaN, infinities and ints too large for a float are refused.
_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_number = _rule("a finite number", lambda v: (_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max)
_nonneg_int = _rule("an integer, 0 or more", lambda v: _int(v) and v >= 0)
_pos_int = _rule("an integer, 1 or more", lambda v: _int(v) and v > 0)
_positive = _rule("a finite number above 0", lambda v: _number(v) and v > 0)
_fraction = _rule("a number strictly between 0 and 1", lambda v: _number(v) and 0 < v < 1)
_flag = _rule("true or false", lambda v: isinstance(v, bool))
_object = _rule("an object", lambda v: isinstance(v, dict))
_signs = _rule(
    "two signs, each 1 or -1",
    lambda v: isinstance(v, list) and len(v) == 2 and all(_int(x) and x in (1, -1) for x in v),
)


class _Images(Mapping):
    """A report's matrices: the labels -> images mapping, read through, with the stack they are written from.

    ``perms`` ``(G, n)`` and ``blocks`` ``(G, n, m, m)`` hold the images in
    the mapping's order, each the ``nm x nm`` matrix whose block row ``k``
    holds ``blocks[g, k]`` in block column ``perms[g, k]``; ``ints`` holds
    each part given as an int, by its index in the blocks' float view.  Not a
    ``dict``, so that ``json.dumps`` hands it to its ``default`` hook.
    """

    __slots__ = ("images", "perms", "blocks", "ints")

    def __init__(self, images: dict, perms: np.ndarray, blocks: np.ndarray, ints: dict[int, int] | None = None):
        self.images, self.perms, self.blocks, self.ints = images, perms, blocks, ints or {}

    def __getitem__(self, label: str) -> Any:
        return self.images[label]

    def __iter__(self) -> Iterator[str]:
        return iter(self.images)

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class RunConfig:
    """A checked config: its mode and fields, and (private, ``_built``) what parse built for the run."""

    mode: str
    params: dict[str, Any]

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
    """Check ``raw`` against a field table and fill defaults; an error names ``prefix + field`` and its rule."""
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
            raise ValueError(f"invalid value for field {prefix + name!r}: {value!r} ({validator.rule})")
        params[name] = value
    return params


def _check_budget(entries: int, budget: int, noun: str, fields: dict[str, Any]) -> None:
    """Refuse the ``fields``, by name and value, if the ``entries`` ``noun`` they give are over the ``budget``."""
    if entries > budget:
        *names, last = map(repr, fields)
        values = ", ".join(f"{name}={value}" for name, value in fields.items())
        raise ValueError(
            f"invalid values for fields {', '.join(names)} and {last}: {values} give {entries} {noun}, "
            f"over the budget of {budget}"
        )


# isometry samples each Cauchy kernel at n * samples angles upstairs, and each of the
# (2 degree + 1) m Gram basis sections at n N, m values each, and draws 2 (2 degree + 1) m
# coefficients per trial (16 B per entry)
ISOMETRY_GRID_ENTRIES = 2**20


def _check_isometry(p: dict) -> AnnulusCovering:
    """The budgets, ``hardy``'s sampling and radius rules and the pairing's range; the annulus cover."""
    rho1, n, degree, samples, m, trials = p["rho1"], p["n"], p["degree"], p["samples"], p["m"], p["trials"]
    _check_budget(n * samples * m, ISOMETRY_GRID_ENTRIES, "entries per section upstairs",
                  {"n": n, "samples": samples, "m": m})
    _check_budget((2 * degree + 1) * m * n * (1 << (2 * degree + 1).bit_length()) * m, ISOMETRY_GRID_ENTRIES,
                  "entries for the Gram basis upstairs", {"degree": degree, "n": n, "m": m})
    _check_budget(trials * 2 * (2 * degree + 1) * m, ISOMETRY_GRID_ENTRIES, "coefficient entries to draw",
                  {"trials": trials, "degree": degree, "m": m})
    _check_sample_count(samples, degree)
    cov = make_annulus_cover(rho1, n)
    # The inner-circle pushforward samples have size about rho1**-e, with
    # e = degree + (n - 1)/2 - c, c = alpha/(2 pi).  Each is a sum of 2*degree + 1
    # terms with coefficients of standard Gaussian size (bounded here by 10),
    # and the pairing sums samples * m of their squares.  The least Gram scale,
    # 2 pi rho1**(2c + 2 degree + 1), over 2 pi n bounds the least product.
    c = p["alpha"] / (2.0 * math.pi)
    log_most = 2 * (math.log(10 * (2 * degree + 1)) - (degree + (n - 1) / 2 - c) * math.log(rho1))
    log_most += math.log(samples * m)
    log_least = (2 * c + 2 * degree + 1) * math.log(rho1) - math.log(n)
    # name only the side that fails: at a huge |alpha| both bounds print alike, and only one of them fails
    failing = []
    if log_least < math.log(sys.float_info.min):
        failing.append((f"as small as {_power_of_ten(log_least)}", "underflows"))
    if log_most > math.log(sys.float_info.max):
        failing.append((f"as large as {_power_of_ten(log_most)}", "overflows"))
    if failing:
        terms, fails = (" and ".join(side) for side in zip(*failing))
        raise ValueError(
            f"invalid values for fields 'rho1', 'n', 'degree' and 'alpha': rho1={rho1!r}, n={n}, "
            f"degree={degree}, alpha={p['alpha']!r} give inner-circle pairing terms {terms}, so the pairing {fails}"
        )
    return cov


def _power_of_ten(log: float) -> str:
    """``e^log`` as ``1e<exponent>``: ``1e-404``, or ``1e-7.06e+306`` where the exponent has over six digits."""
    exponent = log / math.log(10)
    return f"1e{exponent:.0f}" if abs(exponent) < 1e6 else f"1e{exponent:.3g}"


# verify builds about 1.5 KB per block entry (tracemalloc peak 91 MB at n = 2**16, m = 1)
VERIFY_BLOCK_ENTRIES = 2**16


def _check_verify(p: dict) -> None:
    n, m = p["n"], p["m"]
    _check_budget(n * m * m, VERIFY_BLOCK_ENTRIES, "block entries per image", {"n": n, "m": m})


# a presentation of 2s + k generators, doubled, takes about 4.3 KB per generator to build and
# write (tracemalloc peak 32 MB at s = 4000, k = 1)
PRESENTATION_GENERATORS = 2**14


def _check_generators(p: dict) -> None:
    s, k = p["s"], p["k"]
    _check_budget(2 * s + k, PRESENTATION_GENERATORS, "generators", {"s": s, "k": k})


_COVERING_FIELDS = {"n": (True, None, _pos_int), "perms": (True, None, _object)}
_CHI1_FIELDS = {"m": (True, None, _pos_int), "images": (True, None, _object)}
# induce exports each image as a dense (n m)^2 matrix: 2**20 entries are ~13 MB of JSON
DENSE_EXPORT_ENTRIES = 2**20


def _check_induce(p: dict) -> MatrixRep:
    """Check the nested ``covering`` and ``chi1``, each fault named by its path; chi1 on the covering's transversal."""
    _check_generators(p)
    covering = _fields(p["covering"], _COVERING_FIELDS, "'covering'", "covering.")
    chi1 = _fields(p["chi1"], _CHI1_FIELDS, "'chi1'", "chi1.")
    n, m, count = covering["n"], chi1["m"], len(covering["perms"])
    _check_budget(count * (n * m) ** 2, DENSE_EXPORT_ENTRIES, f"entries in a dense export of {count} images",
                  {"covering.n": n, "chi1.m": m})
    presentation = (double_group if p["double"] else surface_group)(p["s"], p["k"])
    trans = schreier_transversal(covering_from_json(presentation, covering, "covering."))
    names = [f"chi1.images.{label}" for label in chi1["images"]]
    array, ints = matrices_from_json(list(chi1["images"].values()), (m, m), names)
    # the echo: the images as given, each over one sheet
    p["chi1"]["images"] = _Images(chi1["images"], np.zeros((len(array), 1), np.intp), array[:, None], ints)
    row = {label: i for i, label in enumerate(chi1["images"])}
    missing = [label for label in trans.alphabet if label not in row]
    if missing or len(row) != len(trans.alphabet):  # every label has its image, so the rest are unknown
        known = set(trans.alphabet)
        unknown = [label for label in row if label not in known]
        raise ValueError(
            f"invalid value for field 'chi1.images': missing labels {missing}, unknown labels {unknown}; "
            f"the Schreier labels are {list(trans.alphabet)}"
        )
    order = [row[label] for label in trans.alphabet]
    return MatrixRep._stacked(trans, np.zeros((len(order), 1), np.intp), array[order, None])


_list_of = lambda value, size: type(value) in (list, tuple) and len(value) == size


def flatten_levels(items: Sequence, sizes: Sequence[int]) -> list | None:
    """The values ``len(sizes)`` levels below ``items``, in order, as one list.

    Each level is checked and flattened as a whole: its items must all be
    lists or tuples of the level's size, else the result is None.
    """
    for size in sizes:
        if not {*map(type, items)} <= {list, tuple} or {*map(len, items)} - {size}:
            return None
        items = [*chain.from_iterable(items)]
    return items


def matrices_from_json(
    mats: Sequence, shape: tuple[int, int], names: Sequence[str]
) -> tuple[np.ndarray, dict[int, int]]:
    """``mats``, each a ``shape`` list of rows of ``[re, im]`` pairs, as one ``(G, *shape)`` complex array.

    One array step checks and converts them all: each part an int or float (not a bool), finite as a
    float, read through a float view that keeps signs of zero.  Only if it refuses are the matrices
    scanned, to name the first one refused, ``names[g]``, or for a pair not finite its entry ``names[g][i][j]``.
    Also returned: each part given as an int, by its index in the array's float view.
    """
    rows, cols = shape
    parts = flatten_levels(mats, (rows, cols, 2))  # matrices, then rows, then entries
    types = set() if parts is None else {*map(type, parts)}
    if parts is not None and all(issubclass(t, Real) and not issubclass(t, bool) for t in types):
        with suppress(OverflowError):  # from an int too large for a float, named below
            values = np.array(parts, dtype=float)
            if np.isfinite(values).all():
                ints = {i: v for i, v in enumerate(parts) if isinstance(v, int)} if types - {float} else {}
                return values.view(complex).reshape(len(mats), rows, cols), ints
    for name, mat in zip(names, mats):
        matrix = f"invalid value for field '{name}': {mat!r} is not a list of [re, im] pairs of shape {rows}x{cols}"
        if not (_list_of(mat, rows) and all(_list_of(row, cols) for row in mat)):
            raise ValueError(matrix)
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if not (_list_of(x, 2) and all(isinstance(v, Real) and not isinstance(v, bool) for v in x)):
                    raise ValueError(matrix)
                with suppress(OverflowError):
                    if all(map(math.isfinite, x)):
                        continue
                raise ValueError(f"invalid value for field '{name}[{i}][{j}]': {x!r} is not finite as a float")
    raise AssertionError("matrices refused by the array step but not by the scan")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration, filling mode defaults.

    Every value is checked before any work starts, and an error names the field.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_config_object)
    except RecursionError:
        raise ValueError("configuration nested too deeply to read") from None
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    mode = raw.pop("mode", None)
    if not isinstance(mode, str) or mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {list(_MODES)}")
    _, schema, check = _MODES[mode]
    params = _fields(raw, schema, f"mode {mode!r}")
    cfg = RunConfig(mode=mode, params=params)
    object.__setattr__(cfg, "_built", check(params))
    return cfg


# the table a report starts from, shared: a table is read-only, and appending makes a new one
_NO_CHECKS = CheckReport.rows([])


@dataclass
class Report:
    """Outcome of one pipeline run: config echo, the table of named checks each mode appends to, artifacts."""

    config: dict
    table: CheckReport = _NO_CHECKS
    extras: dict = field(default_factory=dict)
    error: str | None = None
    timing_seconds: float = 0.0

    @property
    def checks(self) -> tuple[Check, ...]:
        return self.table.checks

    @property
    def passed(self) -> bool:
        return self.error is None and self.table.passed

    def to_json_doc(self) -> dict:
        """The run-stable document (no timing) that the JSON report writes.

        A table of images stands for its dict of dense matrices, and the
        check table for its rows, each the dict ``{name, passed, residual,
        tolerance}``.
        """
        return {
            "config": self.config,
            "checks": self.table,
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
            if not c.passed and c.tolerance > 0:  # no multiple of a tolerance that is not positive
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
    chi1 = cfg._built
    trans, cov = chi1.presentation, chi1.presentation.covering
    try:
        chi2 = induce_representation(cov, trans, chi1)
    finally:
        # chi1's checks, read off chi2's fold, are reported also when induce_representation refuses
        report.table += check_representation(chi1).prefixed("chi1:")
    report.table += check_representation(chi2).prefixed("chi2:")
    perms, blocks = (array[1 : len(chi2.images) + 1] for array in chi2._table)  # the images, in alphabet order
    report.extras["induced"] = {"images": _Images(chi2.images, perms, blocks), "m": chi1.m, "n": cov.n}
    report.extras["transversal"], generators = map(list, trans.word_strings)
    report.extras["schreier_generators"] = dict(zip(trans.alphabet, generators))


def _signature_from_params(p: dict) -> SignatureData:
    m = p["m"]
    return SignatureData(J_list=tuple(sign * np.eye(m) for sign in p["signs"]))


def _run_verify(cfg: RunConfig, report: Report) -> None:
    p = cfg.params
    pipeline = annulus_pipeline(p["n"], float(p["alpha"]), _signature_from_params(p))
    report.table += check_representation(pipeline.chi2).prefixed("chi2:") + pipeline.report


def _run_isometry(cfg: RunConfig, report: Report) -> None:
    p, cov = cfg.params, cfg._built
    alpha, tolerance, degree, samples = float(p["alpha"]), float(p["tolerance"]), p["degree"], p["samples"]
    rng = np.random.default_rng(p["seed"])
    # every trial at once; per section the real parts' draws, then the imaginary parts', f before h
    draws = rng.standard_normal((p["trials"], 2, 2, 2 * degree + 1, p["m"]))
    coeffs = draws[:, :, 0] + 1j * draws[:, :, 1]
    result = verify_isometry(cov, alpha, _signature_from_params(p), coeffs, samples, rng)
    report.table += result.pipeline.report
    rows = [(f"isometry-gram[{comp}]", gap, tolerance, block) for comp, (gap, block) in enumerate(result.gram)]
    residuals = result.trials.tolist()
    report.extras["per_trial_residuals"] = residuals
    rows.append(("isometry-residual[max]", max(residuals), tolerance, None))

    table = [[n_samples, residual] for n_samples, residual in zip(result.counts, result.convergence.tolist())]
    report.extras["convergence"] = table
    # each doubling must at least halve the kernels' error until it is below the tolerance
    monotone_violation = max(
        [0.0] + [table[i + 1][1] - max(table[i][1] / 2.0, tolerance) for i in range(len(table) - 1)]
    )
    rows.append(("convergence-monotone", monotone_violation, tolerance, None))
    rows.append(("convergence-final", table[-1][1], tolerance, None))
    report.table += CheckReport.rows(rows)


# mode -> (runner, field table, check of the filled fields, which returns what the run uses); a field
# table maps name -> (required, default, validator)
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
            "rho1": (True, None, _fraction),
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
        with np.errstate(over="raise"):  # an overflow is an error, never an inf in the report
            _MODES[cfg.mode][0](cfg, report)
    except Exception as exc:  # noqa: BLE001 - contract: never crash
        report.error = f"{type(exc).__name__}: {exc}"
    report.timing_seconds = time.perf_counter() - start
    return report


def _images_json(images: _Images, spelled: np.ndarray, out: list[str]) -> None:
    """Append ``json.dumps(dict(images), sort_keys=True)``, each image as its dense matrix's rows of ``[re, im]`` pairs.

    Written from the stack, in sorted-label order, block row by block row:
    each row is its block's ``m`` pairs, ``spelled`` in the blocks' order,
    between the runs of the constant ``[0.0, 0.0]`` off the block, made once
    per table.  A part given as an int is written as given, over its
    spelling in this table's slice of the float table.
    """
    g, n, m, _ = images.blocks.shape
    if not g:
        return out.append("{}")
    for index, value in images.ints.items():
        spelled[index] = repr(value)
    labels = list(images)
    order = sorted(range(g), key=labels.__getitem__)
    # by block column: what comes before a row, ", " first unless it is its image's first, and after it
    runs = [("[0.0, 0.0], " * (c * m), ", [0.0, 0.0]" * ((n - 1 - c) * m)) for c in range(n)]
    before = np.array([[f"{sep}[{left}[" for left, _ in runs] for sep in ("", ", ")], dtype=object)
    after = np.array([f"]{right}]" for _, right in runs], dtype=object)
    columns = np.repeat(images.perms[order], m, axis=1)
    # per image: its label, then per row the run before, each part and the separator after it, the last
    # one the run after
    pieces = np.empty((g, 1 + n * m * (4 * m + 1)), dtype=object)
    pieces[:, 0] = [f"{'], ' if i else '{'}{encode_basestring_ascii(labels[k])}: [" for i, k in enumerate(order)]
    rows = pieces[:, 1:].reshape(g, n * m, 4 * m + 1)
    rows[..., 0], rows[..., -1] = before[np.minimum(np.arange(n * m), 1), columns], after[columns]
    rows[..., 1::2], rows[..., 2:-1:4], rows[..., 4:-1:4] = spelled.reshape(g, n * m, 2 * m)[order], ", ", "], ["
    out += pieces.ravel().tolist()
    out.append("]}")


def _checks_json(table: CheckReport, out: list[str]) -> None:
    """Append the table's rows as ``{name, passed, residual, tolerance}`` dicts, keys sorted.

    Written from the columns: each name through ``encode_basestring_ascii``,
    and the residuals, then the tolerances, spelled by one ``json.dumps``.
    """
    count = len(table.names)
    if not count:
        return out.append("[]")
    passed = (table.residuals < table.tolerances).tolist()
    spelled = json.dumps(table.residuals.tolist() + table.tolerances.tolist())[1:-1].split(", ")
    residuals, tolerances = spelled[:count], spelled[count:]
    out.append("[")
    out += [
        f'{sep}{{"name": {encode_basestring_ascii(name)}, "passed": {"true" if ok else "false"}, '
        f'"residual": {r}, "tolerance": {t}}}'
        for sep, name, ok, r, t in zip([""] + [", "] * (count - 1), table.names, passed, residuals, tolerances)
    ]
    out.append("]")


def _spellings(tables: Iterable[_Images]) -> dict[int, np.ndarray]:
    """The floats of each table of images, by ``id``, as ``json.dumps`` spells them: the one float table of a report.

    The floats of all tables are spelled by one ``json.dumps`` of the
    distinct ones, told apart by their bits, so that ``0.0`` and ``-0.0``
    differ and NaN and the infinities are kept.
    """
    tables = {id(table): table for table in tables}
    arrays = [table.blocks.view(float).reshape(-1) for table in tables.values()]
    distinct, slot = np.unique(np.concatenate([np.zeros(0), *arrays]).view(np.int64), return_inverse=True)
    spelled = np.array(json.dumps(distinct.view(float).tolist())[1:-1].split(", "), dtype=object)[slot]
    ends = accumulate(map(len, arrays))
    return {key: spelled[end - len(array) : end] for key, array, end in zip(tables, arrays, ends)}


def _holes(doc: dict) -> tuple[list[str], list]:
    """``json.dumps(doc, sort_keys=True)`` cut at the holes its ``default`` hook leaves, and the tables held.

    ``default`` holds each table of images and check table, in document
    order, and leaves a string token in its place; any other type is
    refused with json's own ``TypeError``.  The token is made of NULs, one
    more each time its quoted text occurs in the text more often than there
    are holes, so no text of the document is taken for a hole.
    """
    token = "\0"
    while True:
        held = []

        def hold(value: Any) -> str:
            if type(value) not in (_Images, CheckReport):
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            held.append(value)
            return token

        parts = json.dumps(doc, sort_keys=True, default=hold).split(encode_basestring_ascii(token))
        if len(parts) == len(held) + 1:
            return parts, held
        token += "\0"


def emit_report(report: Report, fmt: str = "text", path: str | None = None) -> str:
    """Render the report; JSON output is byte-stable for a fixed config.

    The JSON report is one line, ``json.dumps(report.to_json_doc(),
    sort_keys=True)`` with each image as its dense matrix and the check
    table as its rows, then a newline.  It is that one ``json.dumps``, with
    each table written into the hole its ``default`` hook left: a table of
    images by ``_images_json``, from the float table of the report's image
    tables (made only if it has one), the check table by ``_checks_json``.
    """
    if fmt == "json":
        parts, held = _holes(report.to_json_doc())
        images = [value for value in held if type(value) is _Images]
        spelled = _spellings(images) if images else {}
        pieces = [parts[0]]
        for value, part in zip(held, parts[1:]):
            if type(value) is _Images:
                _images_json(value, spelled[id(value)], pieces)
            else:
                _checks_json(value, pieces)
            pieces.append(part)
        pieces.append("\n")
        rendered = "".join(pieces)
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
    for name, fmt in (("group", "json"), ("induce", "text"), ("verify", "text"), ("isometry", "text")):
        cmd = sub.add_parser(name, help=f"run the {name} mode of a config file")
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--format", choices=("json", "text"), default=fmt)
        cmd.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
        if cfg.mode != args.command:
            raise ValueError(f"the config's mode {cfg.mode!r} is not the subcommand {args.command!r}")
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
