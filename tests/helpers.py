"""Shared randomized fixtures for the test suite (all explicitly seeded)."""

from __future__ import annotations

import numpy as np

from hardycover import Word, apply_involution, build_covering, coset_of, sigma


def haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commuting_unitaries(rng: np.random.Generator, m: int, count: int = 2) -> list[np.ndarray]:
    """Independent Haar-like unitaries sharing one random eigenbasis."""
    basis = haar_unitary(rng, m)
    out = []
    for _ in range(count):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
        out.append(basis @ np.diag(phases) @ basis.conj().T)
    return out


def random_signature_matrix(rng: np.random.Generator, m: int, basis: np.ndarray | None = None) -> np.ndarray:
    """Selfadjoint unitary with random +-1 spectrum (never all equal for m >= 2)."""
    if basis is None:
        basis = haar_unitary(rng, m)
    signs = rng.choice((1.0, -1.0), size=m)
    if m >= 2 and np.all(signs == signs[0]):
        signs[0] = -signs[0]
    return basis @ np.diag(signs.astype(complex)) @ basis.conj().T


def random_word(rng: np.random.Generator, alphabet: tuple[str, ...], length: int) -> Word:
    letters = tuple(
        (int(rng.integers(len(alphabet))), int(rng.choice((1, -1))))
        for _ in range(length)
    )
    return Word(letters, tuple(alphabet))


def reference_factorize(cov, trans, k: int, g: Word) -> tuple[Word, int]:
    """``g_k g = h g_j`` from the tree words: ``h = reps[k] g reps[j]^-1``, ``j = k.g``."""
    j = coset_of(cov, trans.reps[k - 1] * g)
    return trans.reps[k - 1] * g * trans.reps[j - 1].inverse(), j


def reference_nu_decompose(cov, trans, k: int) -> tuple[Word, int]:
    """``tau(g_k) = h_k g_nu`` from the tree words: ``h_k = tau(reps[k]) reps[nu]^-1``."""
    mirrored = apply_involution(cov.presentation, trans.reps[k - 1])
    nu = coset_of(cov, mirrored)
    return mirrored * trans.reps[nu - 1].inverse(), nu


def is_transitive(perms, n: int) -> bool:
    reached, frontier = {1}, [1]
    while frontier:
        i = frontier.pop()
        for row in perms:
            for j in (row[i - 1], row.index(i) + 1):
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
    return len(reached) == n


def subgroup_orbit_cover(trans, other):
    """Covering of ``trans`` on the orbit of sheet 1 of ``other`` under the subgroup.

    The subgroup acts on the sheets of ``other``, a covering of the same base
    group, through the defining words; the orbit of sheet 1 is transitive.
    """
    actions = [sigma(other, w) for w in trans.defining_words]
    orbit = [1]
    for i in orbit:
        for row in actions:
            for j in (row[i - 1], row.index(i) + 1):
                if j not in orbit:
                    orbit.append(j)
    number = {sheet: a for a, sheet in enumerate(orbit, start=1)}
    return build_covering(
        trans, {lbl: [number[row[i - 1]] for i in orbit] for lbl, row in zip(trans.alphabet, actions)}
    )
