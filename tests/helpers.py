"""Shared randomized fixtures for the test suite (all explicitly seeded)."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import math
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import assume, strategies as st

from hardycover import (
    MatrixRep,
    Word,
    apply_involution,
    boundary_loop,
    build_covering,
    check_representation,
    coset_of,
    double_group,
    induce_representation,
    mirror_monodromy,
    schreier_transversal,
    sigma,
    surface_group,
)
from hardycover import BlockMonomial, cli, hardy, induction


def count_calls(monkeypatch, owner, name: str) -> list[list]:
    """Patch ``owner.name`` to record each call and forward it; returns the record, one ``[args, result]`` per call.

    ``owner`` is a module or a class; a method's ``args`` start with the
    instance.  A call is recorded before it runs, so one that raises stays
    with result None.  A count guard reads ``len`` of the record.
    """
    original, calls = getattr(owner, name), []

    def counted(*args):
        call = [args, None]
        calls.append(call)
        call[1] = original(*args)
        return call[1]

    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_same_text(text: str, expected: str) -> None:
    """Fail unless ``text == expected``, comparing lengths and sha256 digests rather than the strings.

    Reports of about a megabyte make a string diff run for minutes; a
    mismatch names the first differing offset with about 80 characters of
    each side from a little before it.
    """
    digest = lambda s: hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest()
    if len(text) == len(expected) and digest(text) == digest(expected):
        return
    at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
    start = max(at - 20, 0)
    raise AssertionError(
        f"texts of {len(text)} and {len(expected)} characters first differ at offset {at}: "
        f"{text[start : start + 80]!r} != {expected[start : start + 80]!r}"
    )


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
    """``w`` walked from one sheet, letter by letter through the edge array, as a ``Word``."""
    letters, sheet = [], start
    for gen, exp in w.letters:
        if exp > 0:
            sg, sheet = int(trans.edges[gen, sheet - 1]), cov.perms[gen][sheet - 1]
        else:
            sheet = cov.perms[gen].index(sheet) + 1
            sg = int(trans.edges[gen, sheet - 1])
        if sg >= 0:  # -1 on a tree edge
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


def matrix_to_json(mat: np.ndarray) -> list:
    """A dense matrix as rows of ``[re, im]`` float pairs: the text the JSON report writes for an image."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


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
            sg = trans.edges[gi, k - 1]
            block = np.eye(m) if sg < 0 else chi1.images[trans.alphabet[sg]].dense()
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


# Comparison and extension references: the general formulas, one block-monomial at a time.


def identity(n: int, m: int) -> BlockMonomial:
    """The identity of ``n`` sheets of rank ``m``."""
    return BlockMonomial(np.arange(n), np.broadcast_to(np.eye(m, dtype=complex), (n, m, m)))


def evaluate(rep, w: Word) -> BlockMonomial:
    """The image of ``w`` under ``rep``: the one-word case of ``MatrixRep.evaluate_many``."""
    perms, blocks = rep.evaluate_many([w])
    return BlockMonomial(perms[0], blocks[0])


def compare(a: BlockMonomial, b: BlockMonomial) -> tuple[float, tuple[int, int]]:
    """Max-abs entry of ``a - b`` and the block ``(row, column)`` it sits in, from 1: the one-entry case of
    the checks' stacked ``_compare`` and ``_checks``.  Where the permutations disagree on a row both blocks
    are residual."""
    if a.blocks.shape != b.blocks.shape:
        raise ValueError(f"block shapes {a.blocks.shape} and {b.blocks.shape} differ")
    compared = induction._compare([((a.perm[None], a.blocks[None]), (b.perm, b.blocks))])
    (check,) = induction._checks(["c"], compared).checks
    return check.residual, check.block


def assert_chi1_rows_read_off_chi2(cov, trans, chi1) -> None:
    """``chi1``'s check table as ``induce_representation`` reads it off ``chi2``'s fold equals, bit for bit,
    the fold of ``chi1``'s own table: names, residuals (NaN and inf included), tolerances and blocks.

    So does the report ``chi1`` keeps: the table read off where it passes, and
    ``chi1``'s own fold, made after the refusal, where it fails.  ``chi1`` must
    have no report yet; the reading is made whether or not the induction refuses.
    """
    g = len(trans.alphabet)
    assert "_check_report" not in vars(chi1)
    twin = MatrixRep._stacked(trans, chi1._table[0][1 : g + 1], chi1._table[1][1 : g + 1])
    checks, tables = induction._checks, []

    def recording(*args):
        tables.append(checks(*args))
        return tables[-1]

    with np.errstate(all="ignore"):  # entries near the largest float overflow to inf and NaN in both folds
        own = check_representation(twin)  # a fold of chi1's table
        with mock.patch.object(induction, "_checks", recording), contextlib.suppress(ValueError):
            induce_representation(cov, trans, chi1)
    read, kept = tables[1], vars(chi1)["_check_report"]  # tables[0] is chi2's
    assert kept is (read if read.passed else tables[2])
    for table in (read, kept):
        assert table.names == own.names and table is not own
        assert table.residuals.tobytes() == own.residuals.tobytes()
        assert table.tolerances.tobytes() == own.tolerances.tobytes()
        assert np.array_equal(table.blocks, own.blocks)


def reference_compare(perm, blocks, other_perm, other_blocks) -> tuple[float, tuple[int, int]]:
    """``compare`` by its general formula, whatever the sheet maps agree on.

    Where the maps disagree on a row both blocks are residual; the block
    ``(row, column)`` counts from 1.
    """
    same = np.asarray(perm) == other_perm
    mine = np.abs(blocks - np.where(same[:, None, None], other_blocks, 0)).max(axis=(1, 2), initial=0.0)
    theirs = np.where(same, 0.0, np.abs(other_blocks).max(axis=(1, 2), initial=0.0))
    k = int(np.maximum(mine, theirs).argmax())
    column = perm[k] if mine[k] >= theirs[k] else other_perm[k]
    return float(max(mine[k], theirs[k])), (k + 1, int(column) + 1)


def reference_extension_images(chi_S, sig, p) -> dict:
    """The double's images of ``extend_to_double``, each built on its own through ``BlockMonomial`` products."""
    G, J = BlockMonomial.of(sig.G), [BlockMonomial.of(J_i) for J_i in sig.J_list]
    images = {}
    for j in range(1, p.k):
        images[f"A{j}"], images[f"B{j}"] = chi_S.images[f"A{j}"], G @ J[j]
    for i in range(1, p.s + 1):
        images[f"A'{i}"], images[f"B'{i}"] = chi_S.images[f"A'{i}"], chi_S.images[f"B'{i}"]
    for i in range(1, p.s + 1):
        images[f"A''{i}"] = G @ chi_S.images[f"B'{i}"] @ G
        images[f"B''{i}"] = G @ chi_S.images[f"A'{i}"] @ G
    return images


# Isometry oracle: the isometry path sampled one section and one count at a time.


def random_coeffs(rng: np.random.Generator, m: int, degree: int) -> np.ndarray:
    """A section's ``(2 degree + 1, m)`` standard complex Gaussian coefficients: the real parts' draws, then the
    imaginary parts', the stream order of the CLI's draw."""
    shape = (2 * degree + 1, m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def section_values(coeffs: np.ndarray, c: float, radius: float, angles: np.ndarray) -> np.ndarray:
    """Values of ``z^c sum_d a_d z^d`` at ``radius * e^{i angle}``, the multiplier continued in the angle.

    Row ``j`` of ``coeffs``, of shape ``(2 degree + 1, m)``, is the
    coefficient of ``z^(j - degree)``.  Angles are taken literally (not
    reduced mod 2 pi), which is what realizes branch-by-continuity.  This
    direct sum serves arbitrary angles; the library samples uniform grids by
    the inverse FFT of ``hardy._uniform_values``.
    """
    angles = np.asarray(angles, dtype=float)
    degrees = np.arange(len(coeffs)) - len(coeffs) // 2
    basis = np.exp(1j * np.outer(angles, degrees)) * radius ** degrees.astype(float)
    values = basis @ coeffs
    multiplier = np.exp(c * (np.log(radius) + 1j * angles))
    return multiplier[:, None] * values


def per_count_convergence(cov, alpha, sig, J2_diagonal, counts, rng) -> np.ndarray:
    """``verify_isometry``'s convergence table with the Cauchy kernels sampled afresh at every count.

    ``rng`` is in the state ``verify_isometry`` draws the kernels from: the
    poles' angles, then the unit vectors.
    """
    c, n, m = alpha / (2.0 * np.pi), cov.n, sig.m
    q, grid = 2.0 ** (-53.0 / (n * max(counts))), n * math.gcd(*counts)
    poles = np.exp(2j * np.pi * rng.integers(grid, size=2) / grid) * np.array([1.0 / q, cov.rho1 * q])
    vectors = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    convergence = np.zeros(len(counts))
    for comp, (J, J2) in enumerate(zip(sig.J_list, J2_diagonal)):
        r1, r2 = (1.0, 1.0) if comp == 0 else (cov.rho1, cov.rho2)
        closed = hardy._cauchy_pairing(poles, r1, c)
        scale = np.sqrt(closed.diagonal().real)
        for i, n_samples in enumerate(counts):
            pushed = hardy._pushforward(cov, comp, n_samples, c, partial(hardy._cauchy_values, poles, {}))
            pairings = hardy._pointwise(pushed[..., None] * vectors[:, None, None, :], J2)
            gap = pairings.sum(axis=-1) * (2.0 * np.pi * r2 / n_samples)
            gap -= closed * (vectors.conj() @ J @ vectors.T)
            convergence[i] = max(convergence[i], (np.abs(gap) / np.outer(scale, scale)).max())
    return convergence


def pair_coeffs(pairs, degree: int, m: int) -> np.ndarray:
    """``verify_isometry``'s coefficient array of pairs of ``(2 d + 1, m)`` coefficient arrays, each zero-padded
    to ``degree``."""
    coeffs = np.zeros((len(pairs), 2, 2 * degree + 1, m), dtype=complex)
    for t, pair in enumerate(pairs):
        for side, section in enumerate(pair):
            d = len(section) // 2
            coeffs[t, side, degree - d : degree + d + 1] = section
    return coeffs


def reference_isometry_report(config: dict) -> str:
    """``emit_report(run_pipeline(config), "json")`` of an isometry config along the per-section, per-count path.

    The CLI's ``verify_isometry`` is replaced by one that ignores the
    coefficients and generator it is given and draws from a fresh generator
    of the config's seed: each section's coefficients by ``random_coeffs``,
    f then h per trial, and the kernels after them, sampled at every count on
    its own.
    The Gram checks and the trials' gaps are the library's, read on those
    sections' stacked coefficients.  An isometry change meant to leave
    reports alone must give this report byte for byte.
    """
    cfg = cli.parse_config(json.dumps(config))
    seed = cfg.params["seed"]

    def reference(cov, alpha, sig, coeffs, samples, rng):
        rng, degree = np.random.default_rng(seed), coeffs.shape[2] // 2
        pairs = [(random_coeffs(rng, sig.m, degree), random_coeffs(rng, sig.m, degree)) for _ in coeffs]
        kernels = copy.deepcopy(rng)
        result = hardy.verify_isometry(cov, alpha, sig, pair_coeffs(pairs, degree, sig.m), samples, rng)
        convergence = per_count_convergence(cov, alpha, sig, result.pipeline.J2_diagonal, result.counts, kernels)
        return dataclasses.replace(result, convergence=convergence)

    with mock.patch.object(cli, "verify_isometry", reference):
        return cli.emit_report(cli.run_pipeline(cfg), "json")
