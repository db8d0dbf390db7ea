"""Shared randomized fixtures for the test suite (all explicitly seeded)."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, strategies as st

from hardycover import (
    Word,
    apply_involution,
    boundary_loop,
    build_covering,
    coset_of,
    double_group,
    mirror_monodromy,
    schreier_transversal,
    sigma,
    surface_group,
)
from hardycover.induction import matrix_to_json


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


def reference_walk(cov, trans, start, w):
    """``w`` walked from one sheet, letter by letter through ``edge_to_generator``, as a ``Word``."""
    letters, sheet = [], start
    for gen, exp in w.letters:
        if exp > 0:
            sg, sheet = trans.edge_to_generator[sheet, gen], cov.perms[gen][sheet - 1]
        else:
            sheet = cov.perms[gen].index(sheet) + 1
            sg = trans.edge_to_generator[sheet, gen]
        if sg is not None:
            letters.append((sg, exp))
    return Word(tuple(letters), trans.alphabet), sheet


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


surfaces = st.sampled_from([(0, 2), (0, 3), (1, 1), (1, 2)]).map(lambda sk: surface_group(*sk))


@st.composite
def bordered_coverings(draw, p):
    """Random transitive covering of a bordered surface group with at most 8 sheets.

    The group is free on every generator but A0, so those permutations are
    drawn at random and A0, the relator's last letter, undoes the rest of it.
    """
    n = draw(st.integers(1, 8))
    perms = close_relator(p, {lbl: draw(st.permutations(range(1, n + 1))) for lbl in p.alphabet[1:]}, n)
    assume(is_transitive(list(perms.values()), n))
    return build_covering(p, perms)


# the double of the genus-1 surface with 2 boundary circles
GENUS_THREE = double_group(1, 2)


@st.composite
def genus_three_coverings(draw):
    """Random transitive covering of ``GENUS_THREE`` with at most 8 sheets.

    The relator is ``[A''1, B''1] [A'1, B'1] [A1, B1]``.  The handles get
    swapped images (``A''1, B''1, A'1, B'1`` act by ``x, y, y, x``), so the
    first two commutators cancel, and ``B1`` acts by a power of ``A1``.
    """
    n = draw(st.integers(1, 8))
    x, y, z = (draw(st.permutations(range(1, n + 1))) for _ in range(3))
    b = list(range(1, n + 1))
    for _ in range(draw(st.integers(0, 3))):
        b = [z[i - 1] for i in b]
    perms = {"A1": z, "B1": b, "A'1": y, "B'1": x, "A''1": x, "B''1": y}
    assume(is_transitive(list(perms.values()), n))
    return build_covering(GENUS_THREE, perms)


def close_relator(p, perms: dict, n: int) -> dict:
    """``perms`` on ``n`` sheets with ``A0``, the relator's last letter, acting so that the relator acts trivially."""
    a0 = [0] * n
    for i in range(1, n + 1):
        j = i
        for gen, exp in p.relator.letters[:-1]:
            row = perms[p.alphabet[gen]]
            j = row[j - 1] if exp > 0 else row.index(j) + 1
        a0[j - 1] = i
    return {**perms, "A0": a0}


def random_induce_config(seed: int, n: int = 64, m: int = 2) -> dict:
    """``induce`` config of a random transitive ``n``-sheet cover of the genus-1 surface with 2 boundary circles.

    ``chi1`` is the restriction of a random unitary representation ``rho`` of
    the surface group to the covering subgroup, so every check passes.
    """
    rng = np.random.default_rng(seed)
    p = surface_group(1, 2)
    while True:
        perms = {lbl: (rng.permutation(n) + 1).tolist() for lbl in p.alphabet[1:]}
        perms = close_relator(p, perms, n)
        if is_transitive(list(perms.values()), n):
            break
    rho = {lbl: haar_unitary(rng, m) for lbl in p.alphabet[1:]}
    rho["A0"] = dense_product(rho, p.alphabet, Word(p.relator.letters[:-1], p.alphabet), m).conj().T
    trans = schreier_transversal(build_covering(p, perms))
    images = {
        lbl: matrix_to_json(dense_product(rho, p.alphabet, w, m))
        for lbl, w in zip(trans.alphabet, trans.defining_words)
    }
    return {
        "mode": "induce",
        "s": 1,
        "k": 2,
        "double": False,
        "covering": {"n": n, "perms": perms},
        "chi1": {"m": m, "images": images},
    }


# Dense references: the nm x nm matrices the block-monomial code must agree with.


def dense_product(images: dict, alphabet, w: Word, dim: int) -> np.ndarray:
    """The image of ``w`` as a product of dense matrices, letter by letter."""
    out = np.eye(dim, dtype=complex)
    for gen, exp in w.letters:
        mat = images[alphabet[gen]]
        out = out @ (mat if exp > 0 else mat.conj().T)
    return out


def dense_induced_images(cov, trans, chi1) -> dict[str, np.ndarray]:
    """Dense induced images: block ``(k, k.x)`` is ``chi1(x@k)``, or ``I`` on a tree edge."""
    n, m = cov.n, chi1.m
    images = {}
    for gi, label in enumerate(cov.presentation.alphabet):
        big = np.zeros((n * m, n * m), dtype=complex)
        for k in range(1, n + 1):
            j = cov.perms[gi][k - 1]
            sg = trans.edge_to_generator[(k, gi)]
            block = np.eye(m) if sg is None else chi1.images[trans.alphabet[sg]].dense()
            big[(k - 1) * m : k * m, (j - 1) * m : j * m] = block
        images[label] = big
    return images


def dense_symmetry_residuals(images: dict, G2: np.ndarray, J2_list, p) -> dict[str, float]:
    """Every residual of ``verify_symmetry_conditions``, computed on dense matrices."""
    dim = G2.shape[0]
    maxabs = lambda a: float(np.max(np.abs(a)))
    chi = lambda w: dense_product(images, p.alphabet, w, dim)
    out = {"pairing-selfadjoint": maxabs(G2 - G2.conj().T)}
    for label in p.alphabet:
        mirrored = chi(apply_involution(p, p.gen(label)))
        out[f"pairing-symmetry[{label}]"] = maxabs(mirrored.conj().T @ G2 @ images[label] - G2)
    for comp, J2 in enumerate(J2_list):
        loop = chi(boundary_loop(p, comp))
        out[f"signature-selfadjoint[{comp}]"] = maxabs(J2 - J2.conj().T)
        out[f"signature-involution[{comp}]"] = maxabs(J2 @ J2 - np.eye(dim))
        out[f"boundary-compatibility[{comp}]"] = maxabs(loop.conj().T @ J2 @ loop - J2)
    for comp in range(p.k):
        T_base = mirror_monodromy(p, comp)
        for label in p.alphabet:
            R = p.gen(label)
            T_moved = apply_involution(p, R) * T_base * R.inverse()
            lhs = chi(T_moved) @ chi(R)
            rhs = chi(apply_involution(p, R)) @ chi(T_base)
            out[f"monodromy-transport[{comp},{label}]"] = maxabs(lhs - rhs)
    return out
