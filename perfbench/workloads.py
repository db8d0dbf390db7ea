"""Seeded inputs for the four benchmark workloads.

Each workload is one JSON config text, the input of ``hardycover <mode>
--config``.  The program sees only that text; everything else here (the
covering permutations and the free-group representation behind
``induce-export``) stays with the benchmark so its output checks can use it.
These generators use numpy only, never the package under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from common import WORKLOADS

# Checks each report carried when the benchmark was defined; a report with
# fewer checks fails the output check.
MIN_CHECKS = {
    "cyclic-verify": 18,
    "isometry-default": 5,
    "dense-verify": 18,
    "induce-export": 262,
}

# induce-export: the bordered surface of genus 1 with 2 boundary circles.
INDUCE_SHEETS = 64
INDUCE_RANK = 2
SURFACE_ALPHABET = ("A0", "A1", "A'1", "B'1")
# relator A'1 B'1 A'1^-1 B'1^-1 A1 A0, as (generator index, exponent) letters
SURFACE_RELATOR = ((2, 1), (3, 1), (2, -1), (3, -1), (1, 1), (0, 1))


@dataclass(frozen=True, eq=False)
class CoverData:
    """Ground truth behind the induce-export config.

    ``perms[g][i-1]`` is the sheet reached from sheet i along generator g;
    ``rho[g]`` is the image of generator g under a unitary representation of
    the whole surface group, whose restriction to the covering subgroup is
    the config's ``chi1``.
    """

    perms: tuple[tuple[int, ...], ...]
    rho: tuple[np.ndarray, ...]
    subgroup_words: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True, eq=False)
class Workload:
    name: str
    seed: int
    config_text: str
    mode: str
    min_checks: int
    sizes: dict
    cover: CoverData | None = None


def _random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _apply(perms, sheet: int, letters) -> int:
    """Right action of a word on a sheet: letters act in order."""
    for gen, exp in letters:
        row = perms[gen]
        sheet = row[sheet - 1] if exp > 0 else row.index(sheet) + 1
    return sheet


def _transitive(perms, n: int) -> bool:
    reached, frontier = {1}, [1]
    while frontier:
        i = frontier.pop()
        for row in perms:
            for j in (row[i - 1], row.index(i) + 1):
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
    return len(reached) == n


def _random_cover(rng: np.random.Generator, n: int) -> tuple[tuple[int, ...], ...]:
    """Transitive n-sheeted cover: A1, A'1, B'1 random, A0 solved from the relator."""
    while True:
        perms = [None] + [tuple(int(v) + 1 for v in rng.permutation(n)) for _ in range(3)]
        # the relator must fix every sheet, so A0 undoes the other five letters
        a0 = [0] * n
        for i in range(1, n + 1):
            a0[_apply(perms, i, SURFACE_RELATOR[:-1]) - 1] = i
        perms[0] = tuple(a0)
        if _transitive(perms, n):
            return tuple(perms)


def _word_matrix(rho, letters, m: int) -> np.ndarray:
    out = np.eye(m, dtype=complex)
    for gen, exp in letters:
        out = out @ (rho[gen] if exp > 0 else rho[gen].conj().T)
    return out


def _matrix_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _induce_export(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    n, m = INDUCE_SHEETS, INDUCE_RANK
    perms = _random_cover(rng, n)
    rho = [None] + [_random_unitary(rng, m) for _ in range(3)]
    rho[0] = _word_matrix(rho, SURFACE_RELATOR[:-1], m).conj().T

    # breadth-first Schreier transversal in sheet order with generators in
    # presentation order: the labelling the induce mode documents (X@i)
    reps: list[tuple | None] = [None] * n
    reps[0] = ()
    tree = set()
    queue, head = [1], 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for gi in range(len(SURFACE_ALPHABET)):
            j = perms[gi][i - 1]
            if reps[j - 1] is None:
                reps[j - 1] = reps[i - 1] + ((gi, 1),)
                tree.add((i, gi))
                queue.append(j)
    images, words = {}, []
    for i in range(1, n + 1):
        for gi, label in enumerate(SURFACE_ALPHABET):
            if (i, gi) in tree:
                continue
            j = perms[gi][i - 1]
            word = reps[i - 1] + ((gi, 1),) + tuple((g, -e) for g, e in reversed(reps[j - 1]))
            images[f"{label}@{i}"] = _matrix_json(_word_matrix(rho, word, m))
            words.append(word)

    config = {
        "mode": "induce",
        "s": 1,
        "k": 2,
        "double": False,
        "covering": {"n": n, "perms": {lbl: list(p) for lbl, p in zip(SURFACE_ALPHABET, perms)}},
        "chi1": {"m": m, "images": images},
    }
    cover = CoverData(perms=perms, rho=tuple(rho), subgroup_words=tuple(words))
    sizes = {"n": n, "m": m, "nm": n * m, "schreier_generators": len(images)}
    return _workload("induce-export", seed, config, sizes, cover)


def _workload(name: str, seed: int, config: dict, sizes: dict, cover=None) -> Workload:
    text = json.dumps(config, sort_keys=True)
    return Workload(
        name=name,
        seed=seed,
        config_text=text,
        mode=config["mode"],
        min_checks=MIN_CHECKS[name],
        sizes={**sizes, "config_bytes": len(text.encode())},
        cover=cover,
    )


def _verify(name: str, seed: int, n: int, m: int) -> Workload:
    # verify mode draws no random numbers; the seed picks the boundary phase
    rng = np.random.default_rng([seed, 1 if name == "cyclic-verify" else 3])
    alpha = round(float(rng.uniform(0.1, 3.0)), 6)
    config = {"mode": "verify", "n": n, "m": m, "alpha": alpha, "signs": [1, -1]}
    return _workload(name, seed, config, {"n": n, "m": m, "nm": n * m})


def make(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` for ``seed``; equal seeds give equal inputs."""
    if name == "cyclic-verify":
        return _verify(name, seed, n=128, m=1)
    if name == "dense-verify":
        return _verify(name, seed, n=32, m=8)
    if name == "isometry-default":
        # the README's default isometry config, traffic as documented
        config = {
            "mode": "isometry", "rho1": 0.6, "n": 3, "alpha": 0.7, "signs": [1, -1],
            "degree": 8, "samples": 1024, "trials": 20, "seed": seed,
        }
        sizes = {"n": 3, "m": 1, "nm": 3, "degree": 8, "samples": 1024, "trials": 20}
        return _workload(name, seed, config, sizes)
    if name == "induce-export":
        return _induce_export(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {list(WORKLOADS)}")
