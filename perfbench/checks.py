"""Output checks that decide whether a benchmark op passed.

An op passes when its JSON report parses, has no ``error``, reports
``passed``, every listed check passed, and carries at least as many checks
as the report did when the benchmark was defined.  Residuals are not judged
again here: the program's own tolerances decide each check.

``induce-export`` reports also get an independent character check in plain
numpy.  The config's ``chi1`` is the restriction of a representation ``rho``
of the whole surface group, so the induced representation is ``rho`` tensored
with the permutation representation of the sheets, and for every word ``w``

    tr chi2(w) = tr rho(w) * #{sheets fixed by w}.

``chi2`` is read back from the emitted JSON.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import SURFACE_ALPHABET, Workload

# |tr chi2(w) - tr rho(w) * fixed(w)| allowed for words of at most ~20
# letters in unitary matrices of size nm <= 128: rounding is near 1e-13.
CHARACTER_TOLERANCE = 1e-8
RANDOM_WORDS = 3
RANDOM_WORD_LENGTH = 6
SUBGROUP_WORDS = 3


def check_report(text: str, wl: Workload) -> list[str]:
    """Problems found in one emitted report; an empty list means the op passed."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if doc.get("error") is not None:
        problems.append(f"report error: {doc['error']}")
    if doc.get("passed") is not True:
        problems.append("report does not pass")
    checks = doc.get("checks", [])
    failing = [c.get("name") for c in checks if c.get("passed") is not True]
    if failing:
        problems.append(f"failing checks: {failing[:5]}")
    if len(checks) < wl.min_checks:
        problems.append(f"{len(checks)} checks, expected at least {wl.min_checks}")
    if doc.get("config", {}).get("mode") != wl.mode:
        problems.append(f"config echo is not mode {wl.mode!r}")
    if wl.cover is not None and not problems:
        problems += check_characters(doc, wl)
    return problems


def character_words(wl: Workload) -> list[tuple[tuple[int, int], ...]]:
    """Words for the character check: each generator, random words, subgroup words.

    Subgroup words fix sheet 1, so their traces are never trivially zero.
    """
    rng = np.random.default_rng([wl.seed, 5])
    words = [((g, 1),) for g in range(len(SURFACE_ALPHABET))]
    for _ in range(RANDOM_WORDS):
        gens = rng.integers(0, len(SURFACE_ALPHABET), RANDOM_WORD_LENGTH)
        exps = rng.choice((-1, 1), RANDOM_WORD_LENGTH)
        words.append(tuple((int(g), int(e)) for g, e in zip(gens, exps)))
    picks = rng.choice(len(wl.cover.subgroup_words), SUBGROUP_WORDS, replace=False)
    words += [wl.cover.subgroup_words[int(i)] for i in picks]
    return words


def _matrix(data, dim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (dim, dim, 2):
        raise ValueError(f"image has shape {arr.shape[:2]}, expected {(dim, dim)}")
    return arr[..., 0] + 1j * arr[..., 1]


def _product(images, letters, dim: int) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    for gen, exp in letters:
        out = out @ (images[gen] if exp > 0 else images[gen].conj().T)
    return out


def _fixed_sheets(perms, letters) -> int:
    inverse = [[0] * len(row) for row in perms]
    for g, row in enumerate(perms):
        for i, j in enumerate(row):
            inverse[g][j - 1] = i + 1
    count = 0
    for start in range(1, len(perms[0]) + 1):
        sheet = start
        for gen, exp in letters:
            sheet = (perms[gen] if exp > 0 else inverse[gen])[sheet - 1]
        count += sheet == start
    return count


def check_characters(doc: dict, wl: Workload) -> list[str]:
    """Compare traces of the exported chi2 with ``tr rho(w) * fixed(w)``."""
    cover = wl.cover
    n, m = len(cover.perms[0]), cover.rho[0].shape[0]
    try:
        induced = doc["extras"]["induced"]
        if (induced["n"], induced["m"]) != (n, m):
            return [f"induced (n, m) = {(induced['n'], induced['m'])}, expected {(n, m)}"]
        images = [_matrix(induced["images"][lbl], n * m) for lbl in SURFACE_ALPHABET]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"induced representation unreadable: {exc!r}"]
    problems = []
    for word in character_words(wl):
        got = np.trace(_product(images, word, n * m))
        want = np.trace(_product(cover.rho, word, m)) * _fixed_sheets(cover.perms, word)
        if not abs(got - want) <= CHARACTER_TOLERANCE:
            problems.append(f"character of {word}: tr chi2 = {got:.6g}, expected {want:.6g}")
    return problems
