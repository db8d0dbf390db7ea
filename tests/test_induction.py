"""Matrix representations: extension to the double, induction, pairing transport."""

import json

import numpy as np
import pytest
import scipy.linalg

from hardycover import (
    ExtensionError,
    MatrixRep,
    SignatureData,
    SubgroupRep,
    build_covering,
    build_G2,
    build_J2_diagonal,
    check_representation,
    compose_coverings,
    double_group,
    extend_to_double,
    identity_covering,
    induce_representation,
    nu_decompose,
    pairing_signature_matrices,
    schreier_rewrite,
    schreier_transversal,
    subgroup_presentation,
    surface_group,
    verify_symmetry_conditions,
)
from hardycover.covering import expand_schreier_word
from hardycover.induction import rep_from_json, rep_to_json, unitarity_residual

from helpers import commuting_unitaries, haar_unitary, random_word

TORUS = double_group(0, 2)


def torus_cover(n):
    cycle = tuple(range(2, n + 1)) + (1,)
    return build_covering(TORUS, {"A1": cycle, "B1": tuple(range(1, n + 1))})


def commuting_torus_rep(rng, m):
    a, b = commuting_unitaries(rng, m, 2)
    return MatrixRep(presentation=TORUS, m=m, images={"A1": a, "B1": b})


def cyclic_subgroup_rep(cov, trans, t_image, u_image):
    """Valid subgroup data on a cyclic cover: all crossing loops equal, core commuting."""
    images = {}
    for g in trans.schreier_generators:
        images[g.label] = t_image if g.label.startswith("A1@") else u_image
    return SubgroupRep(covering=cov, transversal=trans, m=np.asarray(t_image).shape[0], images=images)


class TestEvaluate:
    def test_empty_word(self):
        rng = np.random.default_rng(0)
        rep = commuting_torus_rep(rng, 2)
        assert np.array_equal(rep.evaluate(TORUS.identity()), np.eye(2))

    def test_conjugation(self):
        rng = np.random.default_rng(1)
        u, v = haar_unitary(rng, 3), haar_unitary(rng, 3)
        rep = MatrixRep(presentation=TORUS, m=3, images={"A1": u, "B1": v})
        w = TORUS.word([("A1", 1), ("B1", 1), ("A1", -1)])
        assert np.allclose(rep.evaluate(w), u @ v @ u.conj().T, atol=1e-14)

    def test_relator_of_commuting_rep(self):
        rng = np.random.default_rng(2)
        rep = commuting_torus_rep(rng, 2)
        assert np.max(np.abs(rep.evaluate(TORUS.relator) - np.eye(2))) < 1e-12

    def test_unknown_generators(self):
        rng = np.random.default_rng(3)
        rep = commuting_torus_rep(rng, 2)
        with pytest.raises(ValueError):
            rep.evaluate(surface_group(0, 2).gen("A0"))


class TestCheckRepresentation:
    def test_commuting_passes(self):
        report = check_representation(commuting_torus_rep(np.random.default_rng(4), 2))
        assert report.passed

    def test_non_commuting_fails_on_relator(self):
        rng = np.random.default_rng(5)
        rep = MatrixRep(
            presentation=TORUS,
            m=2,
            images={"A1": haar_unitary(rng, 2), "B1": haar_unitary(rng, 2)},
        )
        report = check_representation(rep)
        assert not report.passed
        assert [c.name for c in report.failing()] == ["relator[0]"]

    def test_unequal_crossing_images_fail(self):
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        images = {
            "A1@3": np.eye(1),
            "B1@1": np.array([[1.0 + 0j]]),
            "B1@2": np.array([[np.exp(0.3j)]]),
            "B1@3": np.array([[1.0 + 0j]]),
        }
        chi1 = SubgroupRep(covering=cov, transversal=trans, m=1, images=images)
        report = check_representation(chi1)
        assert not report.passed
        assert any(c.name.startswith("relator") for c in report.failing())

    def test_report_computed_once_and_images_read_only(self):
        rep = commuting_torus_rep(np.random.default_rng(7), 2)
        assert check_representation(rep) is check_representation(rep)
        with pytest.raises(ValueError, match="read-only"):
            rep.images["A1"][0, 0] = 2.0

    def test_report_serializes(self):
        report = check_representation(commuting_torus_rep(np.random.default_rng(6), 1))
        doc = report.to_json()
        assert doc["passed"] is True
        assert all({"name", "residual", "tolerance", "passed"} <= set(c) for c in doc["checks"])


def scalar_annulus_rep(alpha):
    p = surface_group(0, 2)
    return MatrixRep(
        presentation=p,
        m=1,
        images={"A0": np.array([[np.exp(1j * alpha)]]), "A1": np.array([[np.exp(-1j * alpha)]])},
    )


class TestExtendToDouble:
    @pytest.mark.parametrize("e0", [1.0, -1.0])
    @pytest.mark.parametrize("e1", [1.0, -1.0])
    def test_scalar_crossing_image(self, e0, e1):
        sig = SignatureData(J_list=(e0 * np.eye(1), e1 * np.eye(1)))
        chi_X = extend_to_double(scalar_annulus_rep(0.7), sig, TORUS)
        assert chi_X.images["B1"][0, 0] == pytest.approx(e0 * e1)

    def test_positive_definite_crossing_is_identity(self):
        rng = np.random.default_rng(7)
        m = 3
        a = haar_unitary(rng, m)
        chi_S = MatrixRep(
            presentation=surface_group(0, 2), m=m, images={"A0": a, "A1": a.conj().T}
        )
        sig = SignatureData(J_list=(np.eye(m), np.eye(m)))
        chi_X = extend_to_double(chi_S, sig, TORUS)
        assert np.allclose(chi_X.images["B1"], np.eye(m), atol=1e-14)

    def test_restriction_returns_original(self):
        rng = np.random.default_rng(8)
        m = 2
        a = haar_unitary(rng, m)
        diag = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m)))
        chi_S = MatrixRep(
            presentation=surface_group(1, 2),
            m=m,
            images={
                "A0": np.eye(m),
                "A1": np.eye(m),
                "A'1": a @ diag @ a.conj().T,
                "B'1": a @ diag.conj() @ a.conj().T,
            },
        )
        sig = SignatureData(J_list=(np.eye(m), np.eye(m)))
        chi_X = extend_to_double(chi_S, sig, double_group(1, 2))
        for label in ("A1", "A'1", "B'1"):
            assert np.array_equal(chi_X.images[label], chi_S.images[label])

    def test_random_handle_data_verifies(self):
        # chi(A0) is forced by the relator; the signature must commute with it
        rng = np.random.default_rng(9)
        p = surface_group(1, 1)
        for _ in range(20):
            u, v = haar_unitary(rng, 2), haar_unitary(rng, 2)
            a0 = v @ u @ v.conj().T @ u.conj().T  # inverse of the handle commutator
            _, basis = scipy.linalg.schur(a0, output="complex")
            signs = np.diag(rng.choice((1.0, -1.0), size=2).astype(complex))
            sig = SignatureData(J_list=(basis @ signs @ basis.conj().T,))
            chi_S = MatrixRep(presentation=p, m=2, images={"A0": a0, "A'1": u, "B'1": v})
            chi_X = extend_to_double(chi_S, sig, double_group(1, 1))
            report = check_representation(chi_X)
            assert report.passed
            assert np.allclose(
                chi_X.images["A''1"], sig.G @ v @ sig.G, atol=1e-14
            )

    def test_incompatible_signature_rejected(self):
        rng = np.random.default_rng(10)
        a0 = haar_unitary(rng, 2)
        chi_S = MatrixRep(
            presentation=surface_group(0, 2), m=2, images={"A0": a0, "A1": a0.conj().T}
        )
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.eye(2)))
        with pytest.raises(ValueError, match="incompatible"):
            extend_to_double(chi_S, sig, TORUS)

    def test_inconsistent_surface_rep_fails_verification(self):
        # chi(A0) = I passes the compatibility precondition, but the handle
        # commutator does not commute with G, so the double's relator breaks
        rng = np.random.default_rng(11)
        p = surface_group(1, 1)
        chi_S = MatrixRep(
            presentation=p,
            m=2,
            images={"A0": np.eye(2), "A'1": haar_unitary(rng, 2), "B'1": haar_unitary(rng, 2)},
        )
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]),))
        with pytest.raises(ExtensionError, match="extension inconsistent") as err:
            extend_to_double(chi_S, sig, double_group(1, 1))
        assert not err.value.report.passed


class TestInduceRepresentation:
    def test_cyclic_closed_form(self):
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        t_phase, u_phase = np.exp(0.4j), np.exp(1.1j)
        chi1 = cyclic_subgroup_rep(cov, trans, np.array([[t_phase]]), np.array([[u_phase]]))
        chi2 = induce_representation(cov, trans, chi1)
        expected_a = np.array(
            [[0, 1, 0], [0, 0, 1], [t_phase, 0, 0]], dtype=complex
        )
        assert np.allclose(chi2.images["A1"], expected_a, atol=1e-14)
        assert np.allclose(chi2.images["B1"], u_phase * np.eye(3), atol=1e-14)

    def test_identity_cover_reproduces_subgroup_rep(self):
        rng = np.random.default_rng(12)
        cov = identity_covering(TORUS)
        trans = schreier_transversal(cov)
        a, b = commuting_unitaries(rng, 2, 2)
        chi1 = SubgroupRep(
            covering=cov, transversal=trans, m=2, images={"A1@1": a, "B1@1": b}
        )
        chi2 = induce_representation(cov, trans, chi1)
        assert np.array_equal(chi2.images["A1"], a)
        assert np.array_equal(chi2.images["B1"], b)

    def test_refuses_inconsistent_subgroup_rep(self):
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        images = {
            "A1@3": np.eye(1),
            "B1@1": np.array([[1.0 + 0j]]),
            "B1@2": np.array([[-1.0 + 0j]]),
            "B1@3": np.array([[1.0 + 0j]]),
        }
        chi1 = SubgroupRep(covering=cov, transversal=trans, m=1, images=images)
        with pytest.raises(ValueError, match=r"rewritten relator B1@2 B1@1\^-1"):
            induce_representation(cov, trans, chi1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("m", [1, 2])
    def test_random_data_produces_unitary_rep(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        cov = torus_cover(n)
        trans = schreier_transversal(cov)
        t_img, u_img = commuting_unitaries(rng, m, 2)
        chi1 = cyclic_subgroup_rep(cov, trans, t_img, u_img)
        chi2 = induce_representation(cov, trans, chi1)
        assert check_representation(chi2).passed
        for label in ("A1", "B1"):
            assert unitarity_residual(chi2.images[label]) < 1e-12

    def test_block_monomial_structure(self):
        rng = np.random.default_rng(14)
        cov = torus_cover(5)
        trans = schreier_transversal(cov)
        t_img, u_img = commuting_unitaries(rng, 2, 2)
        chi2 = induce_representation(cov, trans, cyclic_subgroup_rep(cov, trans, t_img, u_img))
        from hardycover import sigma

        m, n = chi2.m, chi2.n
        for label in ("A1", "B1"):
            structure = chi2.block_structure(label)
            perm = sigma(cov, TORUS.gen(label))
            assert structure == tuple((k, perm[k - 1]) for k in range(1, 6))
            # the nonzero blocks of the dense image are exactly the reported ones
            mat = chi2.images[label]
            nonzero = tuple(
                (k + 1, j + 1)
                for k in range(n)
                for j in range(n)
                if np.any(mat[k * m : (k + 1) * m, j * m : (j + 1) * m])
            )
            assert structure == nonzero
            # rows and columns each hit exactly once
            assert sorted(k for k, _ in structure) == list(range(1, 6))
            assert sorted(j for _, j in structure) == list(range(1, 6))

    def test_homomorphism_property(self):
        rng = np.random.default_rng(15)
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        t_img, u_img = commuting_unitaries(rng, 2, 2)
        chi2 = induce_representation(cov, trans, cyclic_subgroup_rep(cov, trans, t_img, u_img))
        for _ in range(500):
            w1 = random_word(rng, TORUS.alphabet, int(rng.integers(0, 10)))
            w2 = random_word(rng, TORUS.alphabet, int(rng.integers(0, 10)))
            lhs = chi2.evaluate(w1 * w2)
            rhs = chi2.evaluate(w1) @ chi2.evaluate(w2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def annulus_boundary_chi1(cov, trans, alpha, sig):
    """Subgroup data of the cyclic cover coming from annulus boundary data."""
    from hardycover.cyclic import annulus_double_rep, boundary_subgroup_rep

    return boundary_subgroup_rep(cov, trans, annulus_double_rep(sig.m, alpha, sig))


class TestPairingTransport:
    def test_scalar_pairing_matrix(self):
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        chi1 = annulus_boundary_chi1(cov, trans, 0.7, sig)
        G2 = build_G2(cov, trans, chi1, sig.G)
        assert np.array_equal(G2, np.eye(3, dtype=complex))

    def test_identity_cover_pairing(self):
        cov = identity_covering(TORUS)
        trans = schreier_transversal(cov)
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
        chi1 = annulus_boundary_chi1(cov, trans, 0.3, sig)
        G2 = build_G2(cov, trans, chi1, sig.G)
        assert np.array_equal(G2, sig.G)

    def test_pairing_block_columns_follow_nu(self):
        # crossing-cycle cover: nontrivial subgroup parts h_k exercise the blocks
        cov = build_covering(TORUS, {"A1": (1, 2), "B1": (2, 1)})
        trans = schreier_transversal(cov)
        rng = np.random.default_rng(16)
        basis = haar_unitary(rng, 2)
        diag = lambda entries: basis @ np.diag(np.asarray(entries, dtype=complex)) @ basis.conj().T
        sig = SignatureData(J_list=(diag([1, -1]), diag([-1, 1])))
        psi = {
            "A1": diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))),
            "B1": sig.G @ sig.J_list[1],
        }
        images = {}
        for g, w in zip(trans.schreier_generators, trans.defining_words):
            mat = np.eye(2, dtype=complex)
            for gen, exp in w.letters:
                factor = psi[TORUS.alphabet[gen]]
                mat = mat @ (factor if exp > 0 else factor.conj().T)
            images[g.label] = mat
        chi1 = SubgroupRep(covering=cov, transversal=trans, m=2, images=images)
        assert check_representation(chi1).passed

        G2 = build_G2(cov, trans, chi1, sig.G)
        m = 2
        for k in range(1, cov.n + 1):
            h_k, nu_k = nu_decompose(cov, trans, k)
            block = G2[(k - 1) * m : k * m, (nu_k - 1) * m : nu_k * m]
            assert np.allclose(block, sig.G @ chi1.evaluate(h_k), atol=1e-13)
        # transported pairing stays selfadjoint and intertwines the induction
        chi2 = induce_representation(cov, trans, chi1)
        report = verify_symmetry_conditions(
            chi2, G2, build_J2_diagonal(cov, trans, [[J] * cov.n for J in sig.J_list]), TORUS
        )
        assert report.passed
        assert max(c.residual for c in report.checks) < 1e-12

    def test_signature_routes_agree_exactly_on_torus(self):
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        for e0, e1 in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
            sig = SignatureData(J_list=(e0 * np.eye(1), e1 * np.eye(1)))
            chi1 = annulus_boundary_chi1(cov, trans, 0.7, sig)
            chi2 = induce_representation(cov, trans, chi1)
            G2 = build_G2(cov, trans, chi1, sig.G)
            diagonal = build_J2_diagonal(cov, trans, [[J] * 3 for J in sig.J_list])
            pairing = pairing_signature_matrices(chi2, G2, TORUS)
            assert np.array_equal(diagonal[0], e0 * np.eye(3))
            assert np.array_equal(diagonal[1], e1 * np.eye(3))
            assert np.array_equal(diagonal[0], pairing[0])
            assert np.array_equal(diagonal[1], pairing[1])

    def test_diagonal_rejects_non_signature_values(self):
        cov = torus_cover(2)
        trans = schreier_transversal(cov)
        with pytest.raises(ValueError, match="not a signature matrix"):
            build_J2_diagonal(cov, trans, [[np.eye(1) * 2.0] * 2, [np.eye(1)] * 2])


class TestSymmetryReport:
    def fixture(self, e0=1.0, e1=-1.0, alpha=0.7, n=3):
        cov = torus_cover(n)
        trans = schreier_transversal(cov)
        sig = SignatureData(J_list=(e0 * np.eye(1), e1 * np.eye(1)))
        chi1 = annulus_boundary_chi1(cov, trans, alpha, sig)
        chi2 = induce_representation(cov, trans, chi1)
        G2 = build_G2(cov, trans, chi1, sig.G)
        J2 = build_J2_diagonal(cov, trans, [[J] * n for J in sig.J_list])
        return chi2, G2, J2

    def test_fixture_is_exact(self):
        chi2, G2, J2 = self.fixture()
        report = verify_symmetry_conditions(chi2, G2, J2, TORUS)
        assert report.passed
        assert max(c.residual for c in report.checks) < 1e-13

    def test_perturbation_detected(self):
        chi2, G2, J2 = self.fixture()
        G2 = G2.copy()
        G2[0, 0] += 1e-3
        report = verify_symmetry_conditions(chi2, G2, J2, TORUS)
        assert not report.passed
        residuals = {c.name: c.residual for c in report.checks}
        assert 1e-4 < residuals["pairing-symmetry[A1]"] < 1e-2

    def test_identity_cover_reduces_to_base_conditions(self):
        chi2, G2, J2 = self.fixture(n=1)
        report = verify_symmetry_conditions(chi2, G2, J2, TORUS)
        assert report.passed


class TestSignatureData:
    def test_rejects_non_selfadjoint(self):
        with pytest.raises(ValueError, match="selfadjoint"):
            SignatureData(J_list=(np.array([[0.0, 1.0], [0.0, 0.0]]),))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            SignatureData(J_list=(np.diag([1.0, 0.5]),))

    def test_g_is_first(self):
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.eye(2)))
        assert np.array_equal(sig.G, np.diag([1.0, -1.0]))


def restricted_subgroup_rep(cov, trans, psi, m):
    """Restriction of a representation of the base group to the covering subgroup."""
    alphabet = cov.presentation.alphabet
    images = {}
    for g, w in zip(trans.schreier_generators, trans.defining_words):
        mat = np.eye(m, dtype=complex)
        for gen, exp in w.letters:
            factor = psi[alphabet[gen]]
            mat = mat @ (factor if exp > 0 else factor.conj().T)
        images[g.label] = mat
    return SubgroupRep(covering=cov, transversal=trans, m=m, images=images)


class TestInductionInStages:
    def test_two_by_two_tower_traces(self):
        rng = np.random.default_rng(17)
        outer = torus_cover(2)
        t_outer = schreier_transversal(outer)
        sub = subgroup_presentation(outer, t_outer)
        inner = build_covering(sub, {"B1@1": (2, 1), "A1@2": (1, 2), "B1@2": (2, 1)})
        t_inner = schreier_transversal(inner)

        m = 2
        a, b = commuting_unitaries(rng, m, 2)
        psi = {"A1": a, "B1": b}
        # chi on the smallest subgroup, via double expansion of its generators
        chiK_images = {}
        for g, w in zip(t_inner.schreier_generators, t_inner.defining_words):
            ambient = expand_schreier_word(t_outer, w)
            mat = np.eye(m, dtype=complex)
            for gen, exp in ambient.letters:
                factor = psi[TORUS.alphabet[gen]]
                mat = mat @ (factor if exp > 0 else factor.conj().T)
            chiK_images[g.label] = mat
        chiK = SubgroupRep(covering=inner, transversal=t_inner, m=m, images=chiK_images)

        chiH = induce_representation(inner, t_inner, chiK)
        chiH_sub = SubgroupRep(
            covering=outer, transversal=t_outer, m=m * inner.n, images=chiH.images
        )
        two_step = induce_representation(outer, t_outer, chiH_sub)

        comp = compose_coverings(outer, t_outer, inner)
        t_comp = schreier_transversal(comp)
        one_images = {
            g.label: chiK.evaluate(schreier_rewrite(outer, t_outer, w))
            for g, w in zip(t_comp.schreier_generators, t_comp.defining_words)
        }
        one_step = induce_representation(
            comp, t_comp, SubgroupRep(covering=comp, transversal=t_comp, m=m, images=one_images)
        )

        for _ in range(100):
            w = random_word(rng, TORUS.alphabet, int(rng.integers(0, 30)))
            diff = abs(np.trace(one_step.evaluate(w)) - np.trace(two_step.evaluate(w)))
            assert diff < 1e-10


class TestRepSerialization:
    def test_matrix_rep_round_trip(self):
        rng = np.random.default_rng(18)
        rep = commuting_torus_rep(rng, 2)
        doc = json.loads(json.dumps(rep_to_json(rep)))
        rebuilt = rep_from_json(TORUS, doc)
        for label in ("A1", "B1"):
            assert np.allclose(rebuilt.images[label], rep.images[label], atol=0)

    def test_induced_rep_exports_blocks(self):
        cov = torus_cover(2)
        trans = schreier_transversal(cov)
        chi1 = cyclic_subgroup_rep(cov, trans, np.eye(1), np.eye(1))
        chi2 = induce_representation(cov, trans, chi1)
        doc = rep_to_json(chi2)
        assert doc["n"] == 2
        assert doc["block_structure"]["A1"] == [[1, 2], [2, 1]]
        assert doc["block_structure"]["B1"] == [[1, 1], [2, 2]]
