"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
on success.  Tolerances are pinned here and nowhere else:

  1. presentation forms exact, < 0.1 s
  2. induced representations: residuals < 1e-12, sheet action law exact, < 1 s
  3. symmetry suite: pairing/signature conditions < 1e-12, route equality exact
  4. induction in stages: trace gap < 1e-10 over 100 random words
  5. numerical isometry: relative Gram and trial residuals < 1e-13, closed form to 1e-10, < 5 s
  6. convergence through 64...1024 samples: the error at least halves per doubling, < 1e-9 at 1024
  7. degenerate disk/sphere pipelines at machine zero, identity cover at rounding level (< 1e-14)
"""

import time

import numpy as np

from hardycover import (
    BlockMonomial,
    SignatureData,
    annulus_pipeline,
    build_covering,
    compose_coverings,
    double_group,
    extend_to_double,
    identity_covering,
    induce_representation,
    make_annulus_cover,
    pairing_signature_matrices,
    schreier_rewrite,
    schreier_transversal,
    sigma,
    surface_group,
    verify_isometry,
    build_G2,
    build_J2_diagonal,
    verify_symmetry_conditions,
    MatrixRep,
)
from hardycover import hardy
from hardycover.covering import expand_schreier_word

from helpers import commuting_unitaries, evaluate, haar_unitary, pair_coeffs, random_coeffs, random_word

TORUS = double_group(0, 2)


def report_line(number: int, name: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.3f}s)")


def torus_cover(n):
    cycle = tuple(range(2, n + 1)) + (1,)
    return build_covering(TORUS, {"A1": cycle, "B1": tuple(range(1, n + 1))})


def expected_surface_labels(s, k):
    labels = [f"A{j}" for j in range(k)]
    for i in range(1, s + 1):
        labels += [f"A'{i}", f"B'{i}"]
    return labels


def expected_double_labels(s, k):
    labels = []
    for j in range(1, k):
        labels += [f"A{j}", f"B{j}"]
    for i in range(1, s + 1):
        labels += [f"A'{i}", f"B'{i}"]
    for i in range(1, s + 1):
        labels += [f"A''{i}", f"B''{i}"]
    return labels


def expected_surface_relator(s, k):
    pairs = []
    for i in range(1, s + 1):
        pairs += [(f"A'{i}", 1), (f"B'{i}", 1), (f"A'{i}", -1), (f"B'{i}", -1)]
    pairs += [(f"A{j}", 1) for j in range(k - 1, -1, -1)]
    return pairs


def expected_double_relator(s, k):
    pairs = []
    for i in range(s, 0, -1):
        pairs += [(f"A''{i}", 1), (f"B''{i}", 1), (f"A''{i}", -1), (f"B''{i}", -1)]
    for i in range(1, s + 1):
        pairs += [(f"A'{i}", 1), (f"B'{i}", 1), (f"A'{i}", -1), (f"B'{i}", -1)]
    pairs += [(f"A{j}", 1) for j in range(k - 1, 0, -1)]
    for j in range(1, k):
        pairs += [(f"B{j}", 1), (f"A{j}", -1), (f"B{j}", -1)]
    return pairs


def test_criterion_1_presentations():
    start = time.perf_counter()
    ok = True
    for s in range(3):
        for k in range(1, 4):
            surf = surface_group(s, k)
            ok &= list(surf.alphabet) == expected_surface_labels(s, k)
            ok &= len(surf.alphabet) == 2 * s + k
            ok &= [
                (surf.alphabet[g], e) for g, e in surf.relator.letters
            ] == expected_surface_relator(s, k)

            dbl = double_group(s, k)
            ok &= list(dbl.alphabet) == expected_double_labels(s, k)
            ok &= len(dbl.alphabet) == 4 * s + 2 * (k - 1)
            ok &= [
                (dbl.alphabet[g], e) for g, e in dbl.relator.letters
            ] == expected_double_relator(s, k)
            ok &= dbl.genus == 2 * s + k - 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 0.1
    report_line(1, "presentation-suite", ok, elapsed)
    assert ok


def block_monomiality_residual(chi2, cov):
    """Exact max over entries outside the sheet-permutation block pattern."""
    n = cov.n
    m = chi2.m // n
    worst = 0.0
    for label in cov.presentation.alphabet:
        perm = sigma(cov, cov.presentation.gen(label))
        mat = chi2.images[label].dense()
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                if j == perm[k - 1]:
                    continue
                block = mat[(k - 1) * m : k * m, (j - 1) * m : j * m]
                worst = max(worst, float(np.max(np.abs(block))))
    return worst


def test_criterion_2_induced_representations():
    start = time.perf_counter()
    ok = True
    eye_cache = {}
    for n in (1, 2, 3, 5):
        cov = torus_cover(n)
        trans = schreier_transversal(cov)
        for m in (1, 2):
            rng = np.random.default_rng(1000 * n + m)
            for _ in range(20):
                t_img, u_img = commuting_unitaries(rng, m, 2)
                images = {
                    label: (t_img if label.startswith("A1@") else u_img)
                    for label in trans.alphabet
                }
                chi1 = MatrixRep(presentation=trans, m=m, images=images)
                chi2 = induce_representation(cov, trans, chi1)
                dim = n * m
                eye = eye_cache.setdefault(dim, np.eye(dim))
                ok &= float(np.max(np.abs(evaluate(chi2, TORUS.relator).dense() - eye))) < 1e-12
                for label in ("A1", "B1"):
                    u = chi2.images[label].dense()
                    ok &= float(np.max(np.abs(u @ u.conj().T - eye))) < 1e-12
                ok &= block_monomiality_residual(chi2, cov) < 1e-12

    cov5 = torus_cover(5)
    rng = np.random.default_rng(2024)
    for _ in range(500):
        w1 = random_word(rng, TORUS.alphabet, int(rng.integers(0, 12)))
        w2 = random_word(rng, TORUS.alphabet, int(rng.integers(0, 12)))
        s1, s2 = sigma(cov5, w1), sigma(cov5, w2)
        ok &= sigma(cov5, w2 * w1) == tuple(s1[s2[k - 1] - 1] for k in range(1, 6))

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report_line(2, "induced-representation-suite", ok, elapsed)
    assert ok


def test_criterion_3_symmetry_suite():
    start = time.perf_counter()
    ok = True
    # scalar torus fixtures: every sign pattern, closed forms exact
    for e0, e1 in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        sig = SignatureData(J_list=(e0 * np.eye(1), e1 * np.eye(1)))
        pipe = annulus_pipeline(3, 0.7, sig)
        residuals = {c.name: c.residual for c in pipe.report.checks}
        ok &= residuals["pairing-selfadjoint"] < 1e-12
        ok &= residuals["pairing-symmetry[A1]"] < 1e-12
        ok &= residuals["pairing-symmetry[B1]"] < 1e-12
        for comp in (0, 1):
            for gen in ("A1", "B1"):
                ok &= residuals[f"monodromy-transport[{comp},{gen}]"] < 1e-12
        ok &= np.array_equal(pipe.J2_diagonal[0].dense(), e0 * np.eye(3, dtype=complex))
        ok &= np.array_equal(pipe.J2_diagonal[1].dense(), e1 * np.eye(3, dtype=complex))
        ok &= np.array_equal(pipe.J2_diagonal[0].dense(), pipe.J2_pairing[0].dense())
        ok &= np.array_equal(pipe.J2_diagonal[1].dense(), pipe.J2_pairing[1].dense())

    # matrix-valued fixture through the same pipeline
    rng = np.random.default_rng(33)
    basis = haar_unitary(rng, 2)
    diag = lambda e: basis @ np.diag(np.asarray(e, complex)) @ basis.conj().T
    sig = SignatureData(J_list=(diag([1, -1]), diag([-1, 1])))
    pipe = annulus_pipeline(3, 1.1, sig)
    ok &= pipe.report.passed
    ok &= max(c.residual for c in pipe.report.checks) < 1e-12

    elapsed = time.perf_counter() - start
    report_line(3, "symmetry-suite", ok, elapsed)
    assert ok


def tower_trace_gap(inner_perms, m, seed, n_words=100):
    """Max trace gap between one-step and two-step induction up a torus tower."""
    rng = np.random.default_rng(seed)
    outer = torus_cover(2)
    t_outer = schreier_transversal(outer)
    inner = build_covering(t_outer, inner_perms)
    t_inner = schreier_transversal(inner)

    a, b = commuting_unitaries(rng, m, 2)
    psi = {"A1": a, "B1": b}

    def psi_eval(word):
        out = np.eye(m, dtype=complex)
        for gen, exp in word.letters:
            factor = psi[TORUS.alphabet[gen]]
            out = out @ (factor if exp > 0 else factor.conj().T)
        return out

    chiK = MatrixRep(
        presentation=t_inner,
        m=m,
        images={
            label: psi_eval(expand_schreier_word(t_outer, w))
            for label, w in zip(t_inner.alphabet, t_inner.defining_words)
        },
    )
    chiH = induce_representation(inner, t_inner, chiK)
    two_step = induce_representation(
        outer,
        t_outer,
        MatrixRep(presentation=t_outer, m=m * inner.n, images=chiH.images),
    )

    comp = compose_coverings(outer, t_outer, inner)
    t_comp = schreier_transversal(comp)
    one_step = induce_representation(
        comp,
        t_comp,
        MatrixRep(
            presentation=t_comp,
            m=m,
            images={
                label: evaluate(chiK, schreier_rewrite(inner, t_inner, schreier_rewrite(outer, t_outer, w)))
                for label, w in zip(t_comp.alphabet, t_comp.defining_words)
            },
        ),
    )

    worst = 0.0
    for _ in range(n_words):
        w = random_word(rng, TORUS.alphabet, int(rng.integers(0, 30)))
        gap = abs(np.trace(evaluate(one_step, w).dense()) - np.trace(evaluate(two_step, w).dense()))
        worst = max(worst, float(gap))
    return worst


def test_criterion_4_induction_in_stages():
    start = time.perf_counter()
    towers = {
        (2, 2): {"B1@1": (2, 1), "A1@2": (1, 2), "B1@2": (2, 1)},
        (2, 3): {"B1@1": (2, 3, 1), "A1@2": (1, 2, 3), "B1@2": (2, 3, 1)},
    }
    ok = True
    for (n1, n2), inner_perms in towers.items():
        for m in (1, 2):
            gap = tower_trace_gap(inner_perms, m, seed=10 * n1 + n2 + m)
            ok &= gap < 1e-10
    elapsed = time.perf_counter() - start
    report_line(4, "induction-in-stages", ok, elapsed)
    assert ok


ISO_RHO, ISO_N, ISO_ALPHA = 0.6, 3, 0.7
ISO_SIG = SignatureData(J_list=(np.eye(1), -np.eye(1)))


def test_criterion_5_numerical_isometry():
    start = time.perf_counter()
    cov = make_annulus_cover(ISO_RHO, ISO_N)
    rng = np.random.default_rng(0)
    ok = True

    pairs = [(random_coeffs(rng, 1, 8), random_coeffs(rng, 1, 8)) for _ in range(20)]
    result = verify_isometry(cov, ISO_ALPHA, ISO_SIG, pair_coeffs(pairs, 8, 1), 2048, rng)
    ok &= max(residual for residual, _ in result.gram) < 1e-13
    ok &= result.trials.max() < 1e-13

    # the constant section 1 on A(rho), sampled and paired by the kernels: <1, 1> = 2 pi (1 - rho)
    for rho in (cov.rho1, cov.rho2):
        value = 0.0
        for r, J in zip((1.0, rho), ISO_SIG.J_list):
            samples = hardy._uniform_values(np.ones((1, 1)), r, 2048, 0.0).T[None, :, None, :]
            value += hardy._gram(samples, BlockMonomial.of(J))[0, 0] * (2.0 * np.pi * r / 2048)
        ok &= abs(value - 2.0 * np.pi * (1.0 - rho)) < 1e-10

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line(5, "numerical-isometry", ok, elapsed)
    assert ok


def test_criterion_6_convergence():
    start = time.perf_counter()
    cov = make_annulus_cover(ISO_RHO, ISO_N)
    rng = np.random.default_rng(1)
    pairs = [(random_coeffs(rng, 1, 8), random_coeffs(rng, 1, 8)) for _ in range(20)]
    tolerance = 1e-9
    # the Cauchy kernels, which no grid integrates exactly, at 64 ... 1024 samples
    result = verify_isometry(cov, ISO_ALPHA, ISO_SIG, pair_coeffs(pairs, 8, 1), 1024, rng)
    residuals = result.convergence
    ok = result.counts == (64, 128, 256, 512, 1024)
    ok &= all(
        nxt <= max(prev / 2.0, tolerance) for prev, nxt in zip(residuals, residuals[1:])
    )
    ok &= residuals[-1] < tolerance
    elapsed = time.perf_counter() - start
    report_line(6, "convergence", ok, elapsed)
    print(f"    residuals at N=64...1024: {['%.3e' % r for r in residuals]}")
    assert ok


def test_criterion_7_degenerate_cases():
    start = time.perf_counter()
    ok = True

    # disk and its sphere double, identity covering, exact integer data throughout
    disk = surface_group(0, 1)
    sphere = double_group(0, 1)
    ok &= len(sphere.alphabet) == 0 and sphere.genus == 0
    J0 = np.diag([1.0, -1.0]).astype(complex)
    chi_S = MatrixRep(presentation=disk, m=2, images={"A0": np.eye(2)})
    sig = SignatureData(J_list=(J0,))
    chi_X = extend_to_double(chi_S, sig, sphere)
    cov = identity_covering(sphere)
    trans = schreier_transversal(cov)
    chi1 = MatrixRep(presentation=trans, m=2, images={})
    chi2 = induce_representation(cov, trans, chi1)
    G2 = build_G2(cov, trans, chi1, J0)
    ok &= np.array_equal(G2.dense(), J0)
    J2 = build_J2_diagonal(cov, sig)
    ok &= np.array_equal(J2[0].dense(), pairing_signature_matrices(chi2, G2, sphere)[0].dense())
    symmetry = verify_symmetry_conditions(chi2, G2, J2, sphere)
    ok &= symmetry.passed
    ok &= max(c.residual for c in symmetry.checks) == 0.0

    # identity covering of the annulus family, symbolic and numeric
    pipe = annulus_pipeline(1, ISO_ALPHA, ISO_SIG)
    ok &= pipe.report.passed
    ok &= max(c.residual for c in pipe.report.checks) < 1e-14
    cov1 = make_annulus_cover(ISO_RHO, 1)
    rng = np.random.default_rng(2)
    pairs = [(random_coeffs(rng, 1, 8), random_coeffs(rng, 1, 8)) for _ in range(5)]
    # the base side is closed form and the covered side sampled, so they agree to rounding
    identity = verify_isometry(cov1, ISO_ALPHA, ISO_SIG, pair_coeffs(pairs, 8, 1), 1024, rng)
    ok &= max(residual for residual, _ in identity.gram) < 1e-14
    ok &= bool(np.all(identity.trials < 1e-14))

    elapsed = time.perf_counter() - start
    report_line(7, "degenerate-cases", ok, elapsed)
    assert ok
