"""Matrix representations: extension to the double, induction, pairing transport."""

import functools
import json
import operator
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hardycover import (
    BlockMonomial,
    CheckReport,
    ExtensionError,
    MatrixRep,
    SignatureData,
    Word,
    annulus_pipeline,
    boundary_subgroup_rep,
    build_covering,
    build_G2,
    build_J2_diagonal,
    check_representation,
    compose_coverings,
    cyclic_cover,
    double_group,
    extend_to_double,
    identity_covering,
    induce_representation,
    pairing_signature_matrices,
    schreier_rewrite,
    schreier_transversal,
    sigma,
    subgroup_relators,
    surface_group,
    verify_symmetry_conditions,
)
from hardycover.covering import expand_schreier_word
from hardycover.cyclic import annulus_double_rep
from hardycover import induction
from hardycover.induction import Check, rep_from_json, rep_to_json, unitarity_residual

from helpers import (
    GENUS_THREE,
    bordered_coverings,
    commuting_unitaries,
    dense_induced_images,
    dense_product,
    dense_symmetry_residuals,
    genus_three_coverings,
    haar_unitary,
    random_signature_matrix,
    random_word,
    reference_factorize,
    reference_nu_decompose,
    reference_walk,
    subgroup_orbit_cover,
    surfaces,
)

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
    for label in trans.alphabet:
        images[label] = t_image if label.startswith("A1@") else u_image
    return MatrixRep(presentation=trans, m=np.asarray(t_image).shape[0], images=images)


class TestEvaluate:
    def test_empty_word(self):
        rng = np.random.default_rng(0)
        rep = commuting_torus_rep(rng, 2)
        assert np.array_equal(rep.evaluate(TORUS.identity()).dense(), np.eye(2))

    def test_conjugation(self):
        rng = np.random.default_rng(1)
        u, v = haar_unitary(rng, 3), haar_unitary(rng, 3)
        rep = MatrixRep(presentation=TORUS, m=3, images={"A1": u, "B1": v})
        w = TORUS.word([("A1", 1), ("B1", 1), ("A1", -1)])
        assert np.allclose(rep.evaluate(w).dense(), u @ v @ u.conj().T, atol=1e-14)

    def test_relator_of_commuting_rep(self):
        rng = np.random.default_rng(2)
        rep = commuting_torus_rep(rng, 2)
        assert np.max(np.abs(rep.evaluate(TORUS.relator).dense() - np.eye(2))) < 1e-12

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
        chi1 = MatrixRep(presentation=trans, m=1, images=images)
        report = check_representation(chi1)
        assert not report.passed
        assert any(c.name.startswith("relator") for c in report.failing())

    def test_plain_images_stacked_with_no_wrapper(self, monkeypatch):
        calls = []
        original = BlockMonomial.__post_init__
        monkeypatch.setattr(BlockMonomial, "__post_init__", lambda self: calls.append(1) or original(self))
        u, v = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        images = {"A1": u, "B1": v, "X": np.eye(5)}  # a label off the alphabet is ignored
        rep = MatrixRep(presentation=TORUS, m=2, images=images)
        assert calls == []
        # nested lists are still read, each through BlockMonomial.of
        listed = MatrixRep(presentation=TORUS, m=2, images={"A1": u.tolist(), "B1": v.tolist()})
        assert len(calls) == 2 and np.array_equal(listed.images["B1"].dense(), v)
        assert np.array_equal(rep.images["A1"].dense(), u) and np.array_equal(rep.images["B1"].dense(), v)
        assert u.flags.writeable

    @pytest.mark.parametrize("b_image", [np.eye(3), np.eye(2)[0], np.eye(4)])
    def test_plain_images_that_do_not_fit_are_refused(self, b_image):
        # they are not stacked, but go one by one through BlockMonomial.of, which names the shapes
        with pytest.raises(ValueError, match="not one block shape|do not fit"):
            MatrixRep(presentation=TORUS, m=2, images={"A1": np.eye(2), "B1": b_image})

    def test_report_computed_once_and_images_read_only(self):
        rep = commuting_torus_rep(np.random.default_rng(7), 2)
        assert check_representation(rep) is check_representation(rep)
        with pytest.raises(ValueError, match="read-only"):
            rep.images["A1"].blocks[0, 0, 0] = 2.0

    def test_refuses_an_image_that_is_no_sheet_permutation(self):
        # block columns 1, 1: the image has no adjoint, so no check could run on it
        p, eye = surface_group(0, 2), BlockMonomial.identity
        images = {"A0": BlockMonomial([0, 0], np.ones((2, 1, 1))), "A1": eye(2, 1)}
        message = "image of A0 is not a sheet permutation: block columns [1] repeat"
        with pytest.raises(ValueError, match=re.escape(message)):
            MatrixRep(presentation=p, m=2, images=images)
        images = {"A0": eye(3, 1), "A1": BlockMonomial([2, 0, 2], np.ones((3, 1, 1)))}
        message = "image of A1 is not a sheet permutation: block columns [3] repeat"
        with pytest.raises(ValueError, match=re.escape(message)):
            MatrixRep(presentation=p, m=3, images=images)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_never_raises_on_a_constructed_rep(self, data):
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 2))
        p = data.draw(surfaces)
        images = {label: data.draw(block_monomials(n, m)) for label in p.alphabet}
        report = check_representation(MatrixRep(presentation=p, m=n * m, images=images))
        assert isinstance(report, CheckReport)
        names = [f"unitarity[{x}]" for x in p.alphabet] + ["relator[0]"]
        assert [c.name for c in report.checks] == names

    def test_prefixed_shares_the_arrays(self, monkeypatch):
        rng = np.random.default_rng(5)
        rep = MatrixRep(presentation=TORUS, m=2, images={"A1": haar_unitary(rng, 2), "B1": haar_unitary(rng, 2)})
        report = check_representation(rep)
        made = []
        original = Check.__post_init__
        monkeypatch.setattr(Check, "__post_init__", lambda self: made.append(1) or original(self))
        stacked = report.prefixed("chi1:")
        assert made == [] and stacked.passed is report.passed is False
        # the same checks as prefixing each Check of the report
        expected = CheckReport(report.checks).prefixed("chi1:").checks
        assert stacked.checks == expected
        assert [c.name for c in expected] == ["chi1:unitarity[A1]", "chi1:unitarity[B1]", "chi1:relator[0]"]
        assert stacked.worst().startswith("chi1:relator[0] at block (1, 1)")

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
        assert chi_X.images["B1"].dense()[0, 0] == pytest.approx(e0 * e1)

    def test_positive_definite_crossing_is_identity(self):
        rng = np.random.default_rng(7)
        m = 3
        a = haar_unitary(rng, m)
        chi_S = MatrixRep(
            presentation=surface_group(0, 2), m=m, images={"A0": a, "A1": a.conj().T}
        )
        sig = SignatureData(J_list=(np.eye(m), np.eye(m)))
        chi_X = extend_to_double(chi_S, sig, TORUS)
        assert np.allclose(chi_X.images["B1"].dense(), np.eye(m), atol=1e-14)

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
            assert np.array_equal(chi_X.images[label].dense(), chi_S.images[label].dense())

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
                chi_X.images["A''1"].dense(), sig.G @ v @ sig.G, atol=1e-14
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
        # the message names the worst check, its block and its residual against the tolerance
        assert re.search(r"relator\[0\] at block \(1, 1\): 1\.3e\+00 vs 1e-12$", str(err.value))
        assert str(err.value) == f"extension inconsistent: {err.value.report.worst()}"


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
        assert np.allclose(chi2.images["A1"].dense(), expected_a, atol=1e-14)
        assert np.allclose(chi2.images["B1"].dense(), u_phase * np.eye(3), atol=1e-14)

    def test_identity_cover_reproduces_subgroup_rep(self):
        rng = np.random.default_rng(12)
        cov = identity_covering(TORUS)
        trans = schreier_transversal(cov)
        a, b = commuting_unitaries(rng, 2, 2)
        chi1 = MatrixRep(presentation=trans, m=2, images={"A1@1": a, "B1@1": b})
        chi2 = induce_representation(cov, trans, chi1)
        assert np.array_equal(chi2.images["A1"].dense(), a)
        assert np.array_equal(chi2.images["B1"].dense(), b)

    def test_refuses_representation_of_another_transversal(self):
        cov = torus_cover(3)
        chi1 = cyclic_subgroup_rep(cov, schreier_transversal(cov), np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="different covering"):
            induce_representation(cov, schreier_transversal(cov), chi1)

    def test_refuses_inconsistent_subgroup_rep(self):
        cov = torus_cover(3)
        trans = schreier_transversal(cov)
        images = {
            "A1@3": np.eye(1),
            "B1@1": np.array([[1.0 + 0j]]),
            "B1@2": np.array([[-1.0 + 0j]]),
            "B1@3": np.array([[1.0 + 0j]]),
        }
        chi1 = MatrixRep(presentation=trans, m=1, images=images)
        with pytest.raises(ValueError, match=r"rewritten relator B1@2 B1@1\^-1"):
            induce_representation(cov, trans, chi1)

    def test_failed_verification_names_check_block_and_residual(self, monkeypatch):
        # a consistent chi1's report wrapped around one corrupted block: the
        # image of B1@3 is scaled off the unit circle, which the induced
        # representation's unitarity check sees in block (3, 3) of chi2(B1)
        cov = torus_cover(4)
        trans = schreier_transversal(cov)
        t_img, u_img = np.array([[np.exp(0.4j)]]), np.array([[np.exp(1.1j)]])
        good = cyclic_subgroup_rep(cov, trans, t_img, u_img)
        images = dict(good.images, **{"B1@3": (1 + 1e-6) * u_img})
        bad = MatrixRep(presentation=trans, m=1, images=images)
        assert not check_representation(bad).passed
        real = induction.check_representation
        monkeypatch.setattr(
            induction,
            "check_representation",
            lambda rep: check_representation(good) if rep is bad else real(rep),
        )
        with pytest.raises(
            ValueError, match=re.escape("unitarity[B1] at block (3, 3): 2.0e-06 vs 1e-12")
        ):
            induce_representation(cov, trans, bad)

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
        n = cov.n
        m = chi2.m // n
        doc = rep_to_json(chi2, cov)
        for label in ("A1", "B1"):
            structure = tuple(tuple(pair) for pair in doc["block_structure"][label])
            perm = sigma(cov, TORUS.gen(label))
            assert structure == tuple((k, perm[k - 1]) for k in range(1, 6))
            # the nonzero blocks of the dense image are exactly the reported ones
            mat = chi2.images[label].dense()
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
            lhs = chi2.evaluate(w1 * w2).dense()
            rhs = chi2.evaluate(w1).dense() @ chi2.evaluate(w2).dense()
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
        assert np.array_equal(G2.dense(), np.eye(3, dtype=complex))

    def test_identity_cover_pairing(self):
        cov = identity_covering(TORUS)
        trans = schreier_transversal(cov)
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
        chi1 = annulus_boundary_chi1(cov, trans, 0.3, sig)
        G2 = build_G2(cov, trans, chi1, sig.G)
        assert np.array_equal(G2.dense(), sig.G)

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
        chi1 = restricted_subgroup_rep(cov, trans, psi, 2)
        assert check_representation(chi1).passed

        G2 = build_G2(cov, trans, chi1, sig.G)
        m = 2
        for k in range(1, cov.n + 1):
            h_k, nu_k = reference_nu_decompose(cov, trans, k)
            block = G2.dense()[(k - 1) * m : k * m, (nu_k - 1) * m : nu_k * m]
            h_sub = schreier_rewrite(cov, trans, h_k)
            assert np.allclose(block, sig.G @ chi1.evaluate(h_sub).dense(), atol=1e-13)
        # transported pairing stays selfadjoint and intertwines the induction
        chi2 = induce_representation(cov, trans, chi1)
        report = verify_symmetry_conditions(chi2, G2, build_J2_diagonal(cov, sig), TORUS)
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
            diagonal = build_J2_diagonal(cov, sig)
            pairing = pairing_signature_matrices(chi2, G2, TORUS)
            assert np.array_equal(diagonal[0].dense(), e0 * np.eye(3))
            assert np.array_equal(diagonal[1].dense(), e1 * np.eye(3))
            assert np.array_equal(diagonal[0].dense(), pairing[0].dense())
            assert np.array_equal(diagonal[1].dense(), pairing[1].dense())

    def test_pairing_off_an_involution_invariant_subgroup_fails(self):
        # this cover's subgroup is not invariant under the involution: nu = (1, 2, 2, 2)
        identity, swap = (1, 2, 3, 4), (1, 2, 4, 3)
        perms = {"A1": (2, 3, 1, 4), "B1": (3, 1, 2, 4), "A'1": swap, "B'1": identity}
        cov = build_covering(GENUS_THREE, {**perms, "A''1": identity, "B''1": swap})
        trans = schreier_transversal(cov)
        rng = np.random.default_rng(19)
        chi1 = restricted_subgroup_rep(cov, trans, genus_three_rep(rng, 2), 2)
        assert check_representation(chi1).passed
        assert [reference_nu_decompose(cov, trans, k)[1] for k in range(1, 5)] == [1, 2, 2, 2]
        message = re.escape("not invariant under the involution: nu(nu(k)) != k on sheets [3, 4]")
        with pytest.raises(ValueError, match=message):
            build_G2(cov, trans, chi1, random_signature_matrix(rng, 2))

    def test_refuses_representation_of_another_transversal(self):
        # chi1 must represent this transversal: its signed codes index chi1's own table
        cov, sig = torus_cover(4), SignatureData(J_list=(np.eye(1), -np.eye(1)))
        trans = schreier_transversal(cov)
        for other_cov in (cov, torus_cover(2)):  # a twin transversal, then a smaller one
            chi1 = annulus_boundary_chi1(other_cov, schreier_transversal(other_cov), 0.7, sig)
            with pytest.raises(ValueError, match="different covering"):
                build_G2(cov, trans, chi1, sig.G)


class TestSymmetryReport:
    def fixture(self, e0=1.0, e1=-1.0, alpha=0.7, n=3):
        cov = torus_cover(n)
        trans = schreier_transversal(cov)
        sig = SignatureData(J_list=(e0 * np.eye(1), e1 * np.eye(1)))
        chi1 = annulus_boundary_chi1(cov, trans, alpha, sig)
        chi2 = induce_representation(cov, trans, chi1)
        G2 = build_G2(cov, trans, chi1, sig.G)
        J2 = build_J2_diagonal(cov, sig)
        return chi2, G2, J2

    def test_fixture_is_exact(self):
        chi2, G2, J2 = self.fixture()
        report = verify_symmetry_conditions(chi2, G2, J2, TORUS)
        assert report.passed
        assert max(c.residual for c in report.checks) < 1e-13

    def test_perturbation_detected(self):
        chi2, G2, J2 = self.fixture()
        blocks = G2.blocks.copy()
        blocks[0, 0, 0] += 1e-3  # entry (0, 0): G2 is diagonal here
        G2 = BlockMonomial(G2.perm, blocks)
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
        # a NaN or inf entry fails here, so it never reaches the unitarity check
        for J in ([[0.0, 1.0], [0.0, 0.0]], [[np.nan]], [[1.0, np.nan], [np.nan, -1.0]]):
            with pytest.raises(ValueError, match="J_0 is not selfadjoint"):
                SignatureData(J_list=(np.array(J), -np.eye(len(J))))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            SignatureData(J_list=(np.diag([1.0, 0.5]),))

    def test_keeps_read_only_copies(self):
        J0, J1 = np.eye(1), -np.eye(1)
        sig = SignatureData(J_list=(J0, J1))
        J0[0, 0] = 2.0
        assert np.array_equal(sig.G, np.eye(1))
        assert all(not J.flags.writeable for J in sig.J_list)
        assert J1.flags.writeable  # the caller's array is left as it was
        with pytest.raises(ValueError, match="read-only"):
            sig.J_list[1][0, 0] = 1.0

    @pytest.mark.parametrize("J", [1.0, np.array(1.0), np.array([]).reshape(0)])
    def test_rejects_a_value_that_is_no_matrix_by_its_shape(self, J):
        shape = np.shape(J)
        with pytest.raises(ValueError, match=re.escape(f"J_0 has shape {shape}")):
            SignatureData(J_list=(J,))
        with pytest.raises(ValueError, match=re.escape(f"J_1 has shape {shape}")):
            SignatureData(J_list=(np.eye(1), J))

    def test_g_is_first(self):
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.eye(2)))
        assert np.array_equal(sig.G, np.diag([1.0, -1.0]))


def restricted_subgroup_rep(cov, trans, psi, m):
    """Restriction of a representation of the base group to the covering subgroup."""
    alphabet = cov.presentation.alphabet
    images = {}
    for label, w in zip(trans.alphabet, trans.defining_words):
        mat = np.eye(m, dtype=complex)
        for gen, exp in w.letters:
            factor = psi[alphabet[gen]]
            mat = mat @ (factor if exp > 0 else factor.conj().T)
        images[label] = mat
    return MatrixRep(presentation=trans, m=m, images=images)


def genus_three_rep(rng, m):
    """Unitary representation of ``GENUS_THREE`` with the same handle pattern as the coverings."""
    x, y = haar_unitary(rng, m), haar_unitary(rng, m)
    a, b = commuting_unitaries(rng, m, 2)
    return {"A1": a, "B1": b, "A'1": y, "B'1": x, "A''1": x, "B''1": y}


def unpaired_sheets(cov, trans):
    """Sheets k with ``nu(nu(k)) != k``, ``nu`` read off the tree words; none iff the subgroup is invariant."""
    nu = [reference_nu_decompose(cov, trans, k)[1] for k in range(1, cov.n + 1)]
    return [k for k in range(1, cov.n + 1) if nu[nu[k - 1] - 1] != k]


def assert_pairing_refused(cov, trans, chi1, G1, unpaired):
    message = f"not invariant under the involution: nu(nu(k)) != k on sheets {unpaired}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_G2(cov, trans, chi1, G1)


def assert_walks_match_tree_words(cov, psi, G1, other):
    """Every walk-built product equals its definition through the transversal's tree words.

    The blocks of ``induce_representation`` and of ``build_G2`` (whose block
    columns give ``nu``), ``subgroup_relators`` and ``compose_coverings``
    (with the inner covering read off ``other``) must all match exactly.
    """
    p, n, m = cov.presentation, cov.n, G1.shape[0]
    trans = schreier_transversal(cov)
    chi1 = restricted_subgroup_rep(cov, trans, psi, m)
    block = lambda mat, k, j: mat[(k - 1) * m : k * m, (j - 1) * m : j * m]

    chi2 = induce_representation(cov, trans, chi1)
    for label in p.alphabet:
        expected = np.zeros((n * m, n * m), dtype=complex)
        for k in range(1, n + 1):
            h, j = reference_factorize(cov, trans, k, p.gen(label))
            block(expected, k, j)[...] = chi1.evaluate(schreier_rewrite(cov, trans, h)).dense()
        assert np.array_equal(chi2.images[label].dense(), expected)

    # the pairing exists only on a covering subgroup invariant under the involution
    unpaired = unpaired_sheets(cov, trans)
    if unpaired:
        assert_pairing_refused(cov, trans, chi1, G1, unpaired)
    else:
        expected = np.zeros((n * m, n * m), dtype=complex)
        for k in range(1, n + 1):
            h_k, nu_k = reference_nu_decompose(cov, trans, k)
            block(expected, k, nu_k)[...] = G1 @ chi1.evaluate(schreier_rewrite(cov, trans, h_k)).dense()
        assert np.array_equal(build_G2(cov, trans, chi1, G1).dense(), expected)

    conjugates = [rep * r * rep.inverse() for r in p.relators for rep in trans.reps]
    rewritten = tuple(schreier_rewrite(cov, trans, w) for w in conjugates)
    assert subgroup_relators(cov, trans) == rewritten

    inner = subgroup_orbit_cover(trans, other)
    perms = []
    for label in p.alphabet:
        images = []
        for i in range(1, n + 1):
            h, j = reference_factorize(cov, trans, i, p.gen(label))
            inner_action = sigma(inner, schreier_rewrite(cov, trans, h))
            images += [(j - 1) * inner.n + b for b in inner_action]
        perms.append(tuple(images))
    assert compose_coverings(cov, trans, inner).perms == tuple(perms)


class TestWalkAgainstTreeWords:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
    def test_cyclic_covers(self, n):
        rng = np.random.default_rng(n)
        a, b = commuting_unitaries(rng, 2, 2)
        crossing = build_covering(TORUS, {"A1": (1, 2), "B1": (2, 1)})
        assert_walks_match_tree_words(
            torus_cover(n), {"A1": a, "B1": b}, random_signature_matrix(rng, 2), crossing
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_covers_of_a_genus_three_double(self, data):
        cov, other = data.draw(genus_three_coverings()), data.draw(genus_three_coverings())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 2))
        psi, G1 = genus_three_rep(rng, m), random_signature_matrix(rng, m)
        assert_walks_match_tree_words(cov, psi, G1, other)


class TestInductionInStages:
    def test_two_by_two_tower_traces(self):
        rng = np.random.default_rng(17)
        outer = torus_cover(2)
        t_outer = schreier_transversal(outer)
        inner = build_covering(t_outer, {"B1@1": (2, 1), "A1@2": (1, 2), "B1@2": (2, 1)})
        t_inner = schreier_transversal(inner)

        m = 2
        a, b = commuting_unitaries(rng, m, 2)
        psi = {"A1": a, "B1": b}
        # chi on the smallest subgroup, via double expansion of its generators
        chiK_images = {}
        for label, w in zip(t_inner.alphabet, t_inner.defining_words):
            ambient = expand_schreier_word(t_outer, w)
            mat = np.eye(m, dtype=complex)
            for gen, exp in ambient.letters:
                factor = psi[TORUS.alphabet[gen]]
                mat = mat @ (factor if exp > 0 else factor.conj().T)
            chiK_images[label] = mat
        chiK = MatrixRep(presentation=t_inner, m=m, images=chiK_images)

        chiH = induce_representation(inner, t_inner, chiK)
        chiH_sub = MatrixRep(presentation=t_outer, m=m * inner.n, images=chiH.images)
        two_step = induce_representation(outer, t_outer, chiH_sub)

        comp = compose_coverings(outer, t_outer, inner)
        t_comp = schreier_transversal(comp)
        one_images = {
            label: chiK.evaluate(
                schreier_rewrite(inner, t_inner, schreier_rewrite(outer, t_outer, w))
            )
            for label, w in zip(t_comp.alphabet, t_comp.defining_words)
        }
        one_step = induce_representation(
            comp, t_comp, MatrixRep(presentation=t_comp, m=m, images=one_images)
        )

        for _ in range(100):
            w = random_word(rng, TORUS.alphabet, int(rng.integers(0, 30)))
            diff = abs(np.trace(one_step.evaluate(w).dense()) - np.trace(two_step.evaluate(w).dense()))
            assert diff < 1e-10


class TestRepSerialization:
    def test_matrix_rep_round_trip(self):
        rng = np.random.default_rng(18)
        rep = commuting_torus_rep(rng, 2)
        doc = json.loads(json.dumps(rep_to_json(rep)))
        rebuilt = rep_from_json(TORUS, doc)
        for label in ("A1", "B1"):
            assert np.allclose(rebuilt.images[label].dense(), rep.images[label].dense(), atol=0)

    def test_induced_rep_exports_blocks(self):
        cov = torus_cover(2)
        trans = schreier_transversal(cov)
        chi1 = cyclic_subgroup_rep(cov, trans, np.eye(1), np.eye(1))
        chi2 = induce_representation(cov, trans, chi1)
        doc = rep_to_json(chi2, cov)
        assert doc["m"] == 1 and doc["n"] == 2
        assert doc["block_structure"]["A1"] == [[1, 2], [2, 1]]
        assert doc["block_structure"]["B1"] == [[1, 1], [2, 2]]

    def test_block_form_needs_the_inducing_covering(self):
        cov = torus_cover(2)
        trans = schreier_transversal(cov)
        chi2 = induce_representation(cov, trans, cyclic_subgroup_rep(cov, trans, np.eye(1), np.eye(1)))
        with pytest.raises(ValueError, match="not induced along"):
            rep_to_json(chi2, torus_cover(3))

    @pytest.mark.parametrize("m", [1.9, 1.0, True, "1"])
    def test_reader_rejects_non_integer_rank(self, m):
        doc = rep_to_json(commuting_torus_rep(np.random.default_rng(19), 1))
        doc["m"] = m
        with pytest.raises(ValueError, match="field 'm'"):
            rep_from_json(TORUS, doc)

    @pytest.mark.parametrize(
        "entry", [[True, False], [1.0, True], ["1", 0.0], [1.0], [1.0, 0.0, 0.0], 1.0, None]
    )
    def test_reader_rejects_entries_that_are_not_number_pairs(self, entry):
        doc = {"m": 1, "images": {"A1": [[[1.0, 0.0]]], "B1": [[entry]]}}
        with pytest.raises(ValueError, match=re.escape("field 'images.B1[0][0]'")):
            rep_from_json(TORUS, doc)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_array_reading_matches_entry_by_entry(self, data):
        g, m = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3))
        part = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**80), 2**80)
        pair = st.lists(part, min_size=2, max_size=2) | st.tuples(part, part)
        square = lambda item: st.lists(item, min_size=m, max_size=m)
        mats = data.draw(st.lists(square(square(pair)), min_size=g, max_size=g))
        refused = None
        if g and data.draw(st.booleans()):
            refused = data.draw(st.integers(0, g - 1))
            bad = [float("nan"), float("-inf"), 10**400, True, "1", None, [1.0], [1.0, 0.0, 0.0], "row"]
            bad = data.draw(st.sampled_from(bad))
            if bad == "row":
                mats[refused] = mats[refused][1:]
            else:
                mats[refused][data.draw(st.integers(0, m - 1))][data.draw(st.integers(0, m - 1))] = bad
        names = [f"images.M{k}" for k in range(g)]
        if refused is None:
            out = induction.matrices_from_json(mats, (m, m), names)
            expected = np.array([[[complex(*x) for x in row] for row in mat] for mat in mats], dtype=complex)
            # bit for bit, so -0.0 and every int's rounding count
            assert out.shape == (g, m, m)
            assert np.array_equal(out.view(np.int64), expected.reshape(g, m, m).view(np.int64))
        else:
            for whole, tail in ((False, r"(\[\d\]\[\d\])?'"), (True, "'")):
                with pytest.raises(ValueError, match=re.escape(f"field '{names[refused]}") + tail):
                    induction.matrices_from_json(mats, (m, m), names, whole=whole)

    def test_reader_accepts_integer_parts(self):
        rep = rep_from_json(TORUS, {"m": 1, "images": {"A1": [[[0, 1]]], "B1": [[[-1, 0]]]}})
        assert rep.images["A1"].dense()[0, 0] == 1j and rep.images["B1"].dense()[0, 0] == -1


@st.composite
def block_monomials(draw, n, m, bijective=True):
    """A block-monomial over ``n`` sheets with random complex blocks; ``perm`` a
    permutation, or with ``bijective=False`` any map of the sheets."""
    if bijective:
        perm = draw(st.permutations(range(n)))
    else:
        perm = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    return BlockMonomial(perm, blocks)


def dense_maxabs(a):
    return float(np.max(np.abs(a)))


class TestBlockMonomial:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_algebra_matches_dense_reference(self, data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        a = data.draw(block_monomials(n, m, data.draw(st.booleans())))
        b = data.draw(block_monomials(n, m, data.draw(st.booleans())))
        A, B = a.dense(), b.dense()
        assert dense_maxabs((a @ b).dense() - A @ B) < 1e-13
        residual, (k, j) = a.compare(b)
        assert abs(residual - dense_maxabs(A - B)) < 1e-13
        block = (A - B)[(k - 1) * m : k * m, (j - 1) * m : j * m]
        assert abs(dense_maxabs(block) - residual) < 1e-13
        residual, (k, j) = a.compare_adjoint()
        assert abs(residual - dense_maxabs(A - A.conj().T)) < 1e-13
        block = (A - A.conj().T)[(k - 1) * m : k * m, (j - 1) * m : j * m]
        assert abs(dense_maxabs(block) - residual) < 1e-13
        if sorted(a.perm) == list(range(n)):
            assert np.array_equal(a.adjoint().dense(), A.conj().T)
        else:
            with pytest.raises(ValueError, match="sheet permutation"):
                a.adjoint()

    def test_one_sheet_and_identity(self):
        rng = np.random.default_rng(20)
        u = haar_unitary(rng, 3)
        assert np.array_equal(BlockMonomial.of(u).dense(), u)
        assert np.array_equal(BlockMonomial.identity(4, 2).dense(), np.eye(8))
        assert unitarity_residual(u) < 1e-14

    @pytest.mark.parametrize(
        "perm, shape", [((0, 2), (2, 1, 1)), ((0, -1), (2, 1, 1)), ((0, 1), (3, 1, 1)), ((0,), (1, 2, 3))]
    )
    def test_rejects_bad_columns_and_shapes(self, perm, shape):
        with pytest.raises(ValueError):
            BlockMonomial(perm, np.zeros(shape))

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        perm, blocks = np.arange(2), np.zeros((2, 1, 1), dtype=complex)
        mat = BlockMonomial(perm, blocks)
        assert perm.flags.writeable and blocks.flags.writeable
        blocks[0, 0, 0], perm[0] = 5.0, 1
        assert mat.blocks[0, 0, 0] == 0 and mat.perm[0] == 0
        assert not (mat.perm.flags.writeable or mat.blocks.flags.writeable)
        u = np.eye(2, dtype=complex)
        assert BlockMonomial.of(u).blocks[0] is not u and u.flags.writeable

    def test_off_pattern_block_is_a_residual(self):
        # chi2(A1) against a copy with one block moved to another column
        cov = torus_cover(5)
        trans = schreier_transversal(cov)
        t_img, u_img = commuting_unitaries(np.random.default_rng(21), 2, 2)
        a = induce_representation(cov, trans, cyclic_subgroup_rep(cov, trans, t_img, u_img)).images["A1"]
        moved = a.perm.copy()
        moved[2] = a.perm[0]
        b = BlockMonomial(moved, a.blocks)
        residual, block = a.compare(b)
        assert residual == dense_maxabs(a.dense() - b.dense())
        assert residual == dense_maxabs(a.blocks[2])
        assert block in ((3, a.perm[2] + 1), (3, a.perm[0] + 1))

    def test_moved_nu_entry_fails_the_symmetry_report(self):
        chi2, G2, J2 = TestSymmetryReport().fixture(n=4)
        assert verify_symmetry_conditions(chi2, G2, J2, TORUS).passed
        nu = G2.perm.copy()
        nu[1] = G2.perm[2]
        moved = BlockMonomial(nu, G2.blocks)
        report = verify_symmetry_conditions(chi2, moved, J2, TORUS)
        residuals = {c.name: c.residual for c in report.checks}
        assert residuals["pairing-selfadjoint"] == 1.0
        assert residuals["pairing-symmetry[A1]"] == 1.0
        images = {label: img.dense() for label, img in chi2.images.items()}
        reference = dense_symmetry_residuals(images, moved.dense(), [J.dense() for J in J2], TORUS)
        assert residuals == pytest.approx(reference, abs=1e-13)

    def test_no_dense_image_in_a_large_pipeline(self):
        # one dense 2048 x 2048 complex image would take 64 MiB
        tracemalloc.start()
        try:
            pipe = annulus_pipeline(2048, 0.7, SignatureData(J_list=(np.eye(1), -np.eye(1))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pipe.report.passed
        assert peak < 32 * 2**20


def random_surface_rep(rng, p, m):
    """Unitary representation of a bordered surface group: free on all but A0."""
    images = {label: haar_unitary(rng, m) for label in p.alphabet[1:]}
    rest = dense_product(images, p.alphabet, Word(p.relator.letters[:-1], p.alphabet), m)
    images["A0"] = rest.conj().T
    return images


class TestAgainstDenseReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_induced_words_on_random_coverings(self, data):
        p = data.draw(surfaces)
        cov = data.draw(bordered_coverings(p))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 2))
        trans = schreier_transversal(cov)
        chi1 = restricted_subgroup_rep(cov, trans, random_surface_rep(rng, p, m), m)
        chi2 = induce_representation(cov, trans, chi1)
        reference = dense_induced_images(cov, trans, chi1)
        for label in p.alphabet:
            assert np.array_equal(chi2.images[label].dense(), reference[label])
        for _ in range(10):
            w = random_word(rng, p.alphabet, int(rng.integers(0, 12)))
            expected = dense_product(reference, p.alphabet, w, cov.n * m)
            assert dense_maxabs(chi2.evaluate(w).dense() - expected) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_symmetry_residuals_on_random_double_coverings(self, data):
        # most draws are not symmetric, so most residuals are far from zero
        cov = data.draw(genus_three_coverings())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 2))
        trans = schreier_transversal(cov)
        chi1 = restricted_subgroup_rep(cov, trans, genus_three_rep(rng, m), m)
        chi2 = induce_representation(cov, trans, chi1)
        G1, unpaired = random_signature_matrix(rng, m), unpaired_sheets(cov, trans)
        if unpaired:  # no pairing off an involution-invariant covering subgroup
            assert_pairing_refused(cov, trans, chi1, G1, unpaired)
            return
        G2 = build_G2(cov, trans, chi1, G1)
        sheets = np.arange(cov.n)
        J2 = [
            BlockMonomial(sheets, np.stack([random_signature_matrix(rng, m) for _ in sheets]))
            for _ in range(GENUS_THREE.k)
        ]
        report = verify_symmetry_conditions(chi2, G2, J2, GENUS_THREE)
        images = {label: img.dense() for label, img in chi2.images.items()}
        reference = dense_symmetry_residuals(images, G2.dense(), [J.dense() for J in J2], GENUS_THREE)
        assert [c.name for c in report.checks] == list(reference)
        for check in report.checks:
            assert abs(check.residual - reference[check.name]) < 1e-13


def left_fold(rep, w):
    """The image of ``w``: a left fold of ``BlockMonomial`` products of images and adjoints."""
    images = [rep.images[rep.presentation.alphabet[gen]] for gen, _ in w.letters]
    factors = [u if exp > 0 else u.adjoint() for u, (_, exp) in zip(images, w.letters)]
    if not factors:
        return BlockMonomial.identity(*rep.images[rep.presentation.alphabet[0]].blocks.shape[:2])
    return functools.reduce(operator.matmul, factors)


def report_by_compare(rep, relators=None):
    """Each check of ``check_representation``, from its own product and ``compare``.

    ``relators`` are the presentation's, or the given words.
    """
    alphabet = rep.presentation.alphabet
    relators = rep.presentation.relators if relators is None else relators
    eye = BlockMonomial.identity(*rep.images[alphabet[0]].blocks.shape[:2])
    out = [(f"unitarity[{x}]", *(u @ u.adjoint()).compare(eye)) for x, u in rep.images.items()]
    return out + [(f"relator[{i}]", *left_fold(rep, r).compare(eye)) for i, r in enumerate(relators)]


class TestStackedEvaluation:
    """``evaluate_many`` and the check report, against one ``BlockMonomial`` product per letter."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_left_fold_on_random_coverings(self, data):
        p = data.draw(surfaces)
        cov = data.draw(bordered_coverings(p))
        m = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (cov.n, m, m)
        # the covering's sheet maps, or any permutations: then a relator's image can be off the
        # identity's sheet pattern, which its check must report in the right block
        perms = [np.array(row) - 1 for row in cov.perms]
        if data.draw(st.booleans()):
            perms = [rng.permutation(cov.n) for _ in perms]
        noise = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        images = {label: BlockMonomial(perm, noise()) for label, perm in zip(p.alphabet, perms)}
        rep = MatrixRep(presentation=p, m=cov.n * m, images=images)
        letter = st.tuples(st.integers(0, len(p.alphabet) - 1), st.sampled_from((1, -1)))
        batch = data.draw(st.lists(st.lists(letter, max_size=9), max_size=12))
        words = [Word(tuple(letters), p.alphabet) for letters in batch] + [p.identity(), p.relator]
        perms, blocks = rep.evaluate_many(words)
        assert perms.shape == (len(words), cov.n) and blocks.shape == (len(words), *shape)
        for w, perm, block in zip(words, perms, blocks):
            expected = left_fold(rep, w)
            assert np.array_equal(perm, expected.perm) and np.array_equal(block, expected.blocks)
            single = rep.evaluate(w)
            assert np.array_equal(single.perm, perm) and np.array_equal(single.blocks, block)
        # residuals and blocks bitwise equal to one compare per check
        checks = [(c.name, c.residual, c.block) for c in check_representation(rep).checks]
        assert checks == report_by_compare(rep)

    def test_refuses_words_over_another_alphabet(self):
        rep = commuting_torus_rep(np.random.default_rng(3), 2)
        with pytest.raises(ValueError, match="not over this representation"):
            rep.evaluate_many([TORUS.gen("A1"), surface_group(0, 2).gen("A0")])

    def test_images_are_views_into_one_table(self):
        rep = commuting_torus_rep(np.random.default_rng(8), 2)
        perms, blocks = rep._table
        assert list(rep.images) == list(TORUS.alphabet)
        for label in TORUS.alphabet:
            assert rep.images[label].blocks.base is blocks
            assert np.shares_memory(rep.images[label].perm, perms)
        assert blocks.shape == (5, 1, 2, 2) and not blocks.flags.writeable

    def test_perturbed_schreier_generator_fails_exactly_its_relators(self):
        # an induced 4-sheet representation of the torus, restricted to a 3-sheet cover's subgroup
        rng = np.random.default_rng(30)
        outer, inner = torus_cover(3), torus_cover(4)
        t_outer, t_inner = schreier_transversal(outer), schreier_transversal(inner)
        t_img, u_img = commuting_unitaries(rng, 2, 2)
        chiK = cyclic_subgroup_rep(inner, t_inner, t_img, u_img)
        chiH = induce_representation(inner, t_inner, chiK)
        restricted = {x: chiH.evaluate(w) for x, w in zip(t_outer.alphabet, t_outer.defining_words)}
        chi1 = MatrixRep(presentation=t_outer, m=8, images=restricted)
        assert check_representation(chi1).passed
        label, sheet = "B1@1", 2  # the perturbed block, sheets from 0
        which = t_outer.alphabet.index(label)
        relators = t_outer.relators
        containing = [i for i, r in enumerate(relators) if any(g == which for g, _ in r.letters)]
        assert 0 < len(containing) < len(relators)
        blocks = chi1.images[label].blocks.copy()
        blocks[sheet] *= np.exp(1e-9j)  # still unitary
        images = dict(chi1.images, **{label: BlockMonomial(chi1.images[label].perm, blocks)})
        report = check_representation(MatrixRep(presentation=t_outer, m=8, images=images))
        assert [c.name for c in report.failing()] == [f"relator[{i}]" for i in containing]
        for i, check in zip(containing, report.failing()):
            rows = rows_through(chi1, relators[i], which, sheet)
            assert 1e-10 < check.residual < 1e-8 and check.block in {(r + 1, r + 1) for r in rows}
        assert {c.block for c in report.failing()} == {(3, 3), (4, 4)}

    def test_non_unitary_block_fails_unitarity_at_its_sheet(self):
        cov = torus_cover(5)
        trans = schreier_transversal(cov)
        t_img, u_img = commuting_unitaries(np.random.default_rng(31), 2, 2)
        chi2 = induce_representation(cov, trans, cyclic_subgroup_rep(cov, trans, t_img, u_img))
        for k in range(5):
            blocks = chi2.images["A1"].blocks.copy()
            blocks[k] *= 1 + 1e-6
            images = dict(chi2.images, A1=BlockMonomial(chi2.images["A1"].perm, blocks))
            report = check_representation(MatrixRep(presentation=TORUS, m=10, images=images))
            failing = {c.name: c for c in report.failing()}
            assert "unitarity[A1]" in failing and "unitarity[B1]" not in failing
            assert failing["unitarity[A1]"].block == (k + 1, k + 1)

    def test_checks_make_no_block_products_and_one_evaluation(self, monkeypatch):
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        cov = cyclic_cover(256)
        trans = schreier_transversal(cov)
        chi1 = boundary_subgroup_rep(cov, trans, annulus_double_rep(1, 0.7, sig))
        chi2 = induce_representation(cov, trans, chi1)
        J2 = build_J2_diagonal(cov, sig)
        calls = {"products": 0, "folds": 0}

        def counting(name, method):
            def counted(*args):
                calls[name] += 1
                return method(*args)
            return counted

        # every stacked evaluation, evaluate_many's included, is one MatrixRep._fold
        matmul, fold = BlockMonomial.__matmul__, MatrixRep._fold
        monkeypatch.setattr(BlockMonomial, "__matmul__", counting("products", matmul))
        monkeypatch.setattr(MatrixRep, "_fold", counting("folds", fold))
        fresh = MatrixRep(presentation=trans, m=1, images=chi1.images)
        report = check_representation(fresh)
        assert report.passed and len(report.checks) == 2 * 256 + 1
        assert calls == {"products": 0, "folds": 1}
        G2 = build_G2(cov, trans, chi1, sig.G)
        assert calls == {"products": 0, "folds": 2}
        assert verify_symmetry_conditions(chi2, G2, J2, TORUS).passed
        assert calls["folds"] == 3


class TestRewritingAgainstWords:
    """Check reports folded from the relators' code rows, against the rewritten ``Word`` of each relator."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_check_reports_match_a_per_word_oracle(self, data):
        cov = data.draw(st.one_of(surfaces.flatmap(bordered_coverings), genus_three_coverings()))
        p, trans = cov.presentation, schreier_transversal(cov)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 2))
        psi = genus_three_rep(rng, m) if p is GENUS_THREE else random_surface_rep(rng, p, m)
        chi1 = restricted_subgroup_rep(cov, trans, psi, m)
        # noisy images: every residual far from zero, and no relator check passes
        noise = {x: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for x in trans.alphabet}
        noisy = MatrixRep(presentation=trans, m=m, images=noise)
        conjugates = [rep * r * rep.inverse() for r in p.relators for rep in trans.reps]
        oracle = [reference_walk(cov, trans, 1, w)[0] for w in conjugates]
        chi2 = induce_representation(cov, trans, chi1)
        for rep, relators in ((chi1, oracle), (noisy, oracle), (chi2, None)):
            checks = check_representation(rep).checks
            expected = report_by_compare(rep, relators)
            assert [c.name for c in checks] == [name for name, _, _ in expected]
            assert np.array_equal([c.residual for c in checks], [residual for _, residual, _ in expected])
            assert np.array_equal([c.block for c in checks], [block for _, _, block in expected])
        assert "relators" not in vars(trans)  # no Word of a rewritten relator was needed


def rows_through(rep, w, gen, sheet):
    """The block rows of ``rep(w)`` whose walk uses block ``sheet`` of the image of ``gen``."""
    rows = []
    for start in range(rep.identity.n):
        k = start
        for g, exp in w.letters:
            perm = rep.images[rep.presentation.alphabet[g]].perm
            if exp > 0:
                hit, k = k == sheet, int(perm[k])
            else:  # the adjoint's block k is the adjoint of the image's block perm^-1(k)
                k = int(np.flatnonzero(perm == k)[0])
                hit = k == sheet
            if g == gen and hit:
                rows.append(start)
                break
    return rows
