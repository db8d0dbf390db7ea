"""Matrix representations: extension to the double, induction, pairing transport."""

import ast
import functools
import inspect
import json
import operator
import pathlib
import re
import textwrap
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
from hardycover import cli, induction
from hardycover.induction import TOL_EXACT, Check

from helpers import (
    GENUS_THREE,
    assert_chi1_rows_read_off_chi2,
    bordered_coverings,
    commuting_unitaries,
    compare,
    count_calls,
    dense_induced_images,
    dense_product,
    dense_symmetry_residuals,
    evaluate,
    genus_three_coverings,
    haar_unitary,
    identity,
    random_signature_matrix,
    random_word,
    reference_compare,
    reference_extension_images,
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
        assert np.array_equal(evaluate(rep, TORUS.identity()).dense(), np.eye(2))

    def test_conjugation(self):
        rng = np.random.default_rng(1)
        u, v = haar_unitary(rng, 3), haar_unitary(rng, 3)
        rep = MatrixRep(presentation=TORUS, m=3, images={"A1": u, "B1": v})
        w = TORUS.word([("A1", 1), ("B1", 1), ("A1", -1)])
        assert np.allclose(evaluate(rep, w).dense(), u @ v @ u.conj().T, atol=1e-14)

    def test_relator_of_commuting_rep(self):
        rng = np.random.default_rng(2)
        rep = commuting_torus_rep(rng, 2)
        assert np.max(np.abs(evaluate(rep, TORUS.relator).dense() - np.eye(2))) < 1e-12

    def test_unknown_generators(self):
        rng = np.random.default_rng(3)
        rep = commuting_torus_rep(rng, 2)
        with pytest.raises(ValueError):
            evaluate(rep, surface_group(0, 2).gen("A0"))

    @pytest.mark.parametrize("extra", [["bogus"], ["Z@7", "A0"]])
    def test_images_of_unknown_generators_refused_by_name(self, extra):
        images = {"A1": np.eye(1), "B1": np.eye(1), **{label: np.eye(1) for label in extra}}
        with pytest.raises(ValueError) as err:
            MatrixRep(presentation=TORUS, m=1, images=images)
        assert str(err.value) == f"image supplied for unknown generator(s) {extra}"


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

    def test_plain_and_listed_images_read_through_block_monomial(self, monkeypatch):
        # one input path: every image, an array or nested lists, is read through BlockMonomial.of
        calls = []
        original = BlockMonomial.__post_init__
        monkeypatch.setattr(BlockMonomial, "__post_init__", lambda self: calls.append(1) or original(self))
        u, v = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = MatrixRep(presentation=TORUS, m=2, images={"A1": u, "B1": v})
        listed = MatrixRep(presentation=TORUS, m=2, images={"A1": u.tolist(), "B1": v.tolist()})
        assert len(calls) == 4 and np.array_equal(listed.images["B1"].dense(), v)
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
        p, eye = surface_group(0, 2), identity
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
        assert all(getattr(stacked, c) is getattr(report, c) for c in ("residuals", "tolerances", "blocks"))
        # the same checks as prefixing each Check of the report
        expected = tuple(Check("chi1:" + c.name, c.residual, c.tolerance, c.block) for c in report.checks)
        assert stacked.checks == expected
        assert [c.name for c in expected] == ["chi1:unitarity[A1]", "chi1:unitarity[B1]", "chi1:relator[0]"]
        assert stacked.worst().startswith("chi1:relator[0] at block (1, 1)")

    def test_report_serializes(self):
        from hardycover.cli import Report, emit_report

        report = check_representation(commuting_torus_rep(np.random.default_rng(6), 1))
        docs = json.loads(emit_report(Report(config={}, table=report), fmt="json"))["checks"]
        assert report.passed and all(doc["passed"] is True for doc in docs)
        assert [list(doc) for doc in docs] == [["name", "passed", "residual", "tolerance"]] * 3

    def test_only_checks_writes_the_exact_tolerance(self):
        # every symbolic check gets TOL_EXACT from _checks; anywhere else in the package it is only compared with
        package = pathlib.Path(induction.__file__).parent
        writers = set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                compares = [node for node in ast.walk(function) if isinstance(node, ast.Compare)]
                compared = {id(side) for node in compares for side in node.comparators}
                for node in ast.walk(function):
                    if isinstance(node, ast.Name) and node.id == "TOL_EXACT" and id(node) not in compared:
                        writers.add(f"{path.name}:{function.name}")
        assert writers == {"induction.py:_checks"}

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]], ids=["nan-last", "nan-first"])
    def test_worst_names_a_nan_residual_in_either_order(self, order):
        rows = [("a", 1.0, 1e-12, (1, 1)), ("b", float("nan"), 1e-12, (2, 2))]
        report = CheckReport.rows([rows[i] for i in order])
        assert report.worst() == "b at block (2, 2): nan vs 1e-12"
        assert [c.name for c in report.failing()] == [rows[i][0] for i in order]

    @pytest.mark.parametrize("rows", [[("a", 0.0, 1.0, None)], []], ids=["passing", "empty"])
    def test_worst_of_a_table_with_no_failing_row_says_so(self, rows):
        assert CheckReport.rows(rows).worst() == "no check failed"

    def test_table_columns_are_read_only_copies(self):
        residuals = np.array([0.0, 1.0])
        report = CheckReport(["a", "b"], residuals, [1e-12, 1e-12], [[1, 1], [2, 2]])
        residuals[1] = 0.0
        assert not report.passed and report.residuals.tolist() == [0.0, 1.0]
        for column in (report.residuals, report.tolerances, report.blocks):
            assert not column.flags.writeable
        with pytest.raises(ValueError, match="2 names for columns of"):
            CheckReport(["a", "b"], [0.0], [1e-12], [[1, 1]])


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

    def test_nan_boundary_image_refused(self):
        # a NaN in chi(A0) fails the compatibility precondition rather than passing it
        chi_S = MatrixRep(surface_group(0, 2), 1, {"A0": np.array([[np.nan]]), "A1": np.array([[1.0]])})
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        with pytest.raises(ValueError, match=re.escape("signature data incompatible with chi(A0): residual nan")):
            extend_to_double(chi_S, sig, TORUS)

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_stacked_table_matches_image_by_image(self, s, k, m):
        chi_S, sig = extendable_surface_rep(np.random.default_rng([s, k, m]), s, k, m)
        p = double_group(s, k)
        chi_X = extend_to_double(chi_S, sig, p)
        reference = MatrixRep(presentation=p, m=m, images=reference_extension_images(chi_S, sig, p))
        for ours, theirs in zip(chi_X._table, reference._table):
            assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("k, i", [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)])
    def test_incompatible_component_is_named(self, k, i):
        # chi(A_i) in another basis than J_i; the relator is checked only after compatibility
        chi_S, sig = extendable_surface_rep(np.random.default_rng([k, i]), 1, k, 2)
        images = dict(chi_S.images, **{f"A{i}": haar_unitary(np.random.default_rng(i), 2)})
        chi_S = MatrixRep(presentation=chi_S.presentation, m=2, images=images)
        with pytest.raises(ValueError, match=rf"signature data incompatible with chi\(A{i}\): residual"):
            extend_to_double(chi_S, sig, double_group(1, k))

    def test_several_sheets_refused(self):
        # a rank-2 chi_S over two sheets of 1 x 1 blocks is not read as one sheet of 2 x 2 blocks
        swap = BlockMonomial([1, 0], np.ones((2, 1, 1)))
        chi_S = MatrixRep(presentation=surface_group(0, 2), m=2, images={"A0": swap, "A1": swap.adjoint()})
        sig = SignatureData(J_list=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match=re.escape("block shapes (2, 1, 1) and (1, 2, 2) differ")):
            extend_to_double(chi_S, sig, TORUS)

    @pytest.mark.parametrize("fault", ["inconsistent-handles", "nan-handle", "transposed-mirror"])
    def test_failing_extension_raises_the_table_of_the_whole_comparison(self, monkeypatch, fault):
        # the table is made only on failure, and is then the one of every unitarity, relator and
        # pairing-symmetry row: here built image by image, and compared entry for entry
        rng = np.random.default_rng(11)
        p, d, m = surface_group(1, 1), double_group(1, 1), 2
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]),))
        handles = {"A'1": haar_unitary(rng, m), "B'1": haar_unitary(rng, m)}  # chi(A0) = I: compatible
        if fault == "nan-handle":
            handles["A'1"] = np.where(np.eye(m) > 0, np.nan, 0.0)
        elif fault == "transposed-mirror":  # consistent handles, and the mutant writes A''1 transposed
            handles = dict(zip(handles, commuting_unitaries(rng, m, 2)))
            stacked = MatrixRep._stacked

            def transposed(presentation, perms, blocks):
                if presentation is d:
                    blocks = blocks.copy()
                    blocks[d.alphabet.index("A''1")] = blocks[d.alphabet.index("A''1")].swapaxes(-1, -2)
                return stacked(presentation, perms, blocks)

            monkeypatch.setattr(MatrixRep, "_stacked", transposed)
        chi_S = MatrixRep(presentation=p, m=m, images={"A0": np.eye(m), **handles})
        with pytest.raises(ExtensionError) as err, np.errstate(invalid="ignore"):
            extend_to_double(chi_S, sig, d)
        monkeypatch.undo()
        images = reference_extension_images(chi_S, sig, d)
        if fault == "transposed-mirror":
            images["A''1"] = BlockMonomial.of(images["A''1"].blocks[0].T)
        G = BlockMonomial.of(sig.G)
        with np.errstate(invalid="ignore"):
            reference = MatrixRep(presentation=d, m=m, images=images)
            rows = [(c.name, c.residual, c.tolerance, c.block) for c in check_representation(reference).checks]
            for x, w in zip(d.alphabet, d.tau):
                moved = evaluate(reference, w).adjoint() @ G @ reference.images[x]
                rows.append((f"pairing-symmetry[{x}]", *compare(moved, G)))
        expected = CheckReport.rows([row if len(row) == 4 else (row[0], row[1], TOL_EXACT, row[2]) for row in rows])
        report = err.value.report
        assert report.names == expected.names and not report.passed
        for column in ("residuals", "tolerances", "blocks"):
            np.testing.assert_array_equal(getattr(report, column), getattr(expected, column))
        assert str(err.value) == f"extension inconsistent: {expected.worst()}"

    def test_passing_extension_makes_no_table(self, monkeypatch):
        checks = count_calls(monkeypatch, induction, "_checks")
        made = count_calls(monkeypatch, induction, "_trusted_table")
        for s, k, m in ((0, 2, 1), (1, 2, 2), (2, 3, 3)):
            chi_S, sig = extendable_surface_rep(np.random.default_rng([s, k, m]), s, k, m)
            chi_X = extend_to_double(chi_S, sig, double_group(s, k))
            assert checks == made == []
            assert check_representation(chi_X).passed  # a fold of its own, made on this read
            checks.clear()
            made.clear()

    def test_bordered_presentation_refused_as_the_double(self):
        sig = SignatureData(J_list=(np.eye(1), np.eye(1)))
        with pytest.raises(ValueError, match="p must present the double"):
            extend_to_double(scalar_annulus_rep(0.7), sig, surface_group(0, 2))


def extendable_surface_rep(rng, s, k, m):
    """A representation of ``surface_group(s, k)`` and signature data that extend to the double.

    Every image and every ``J_i`` is diagonal in one random basis, so all
    commute: the relator fixes ``chi(A0)``, and the double's relator and
    symmetry conditions hold.
    """
    p, basis = surface_group(s, k), haar_unitary(rng, m)
    images = {
        label: basis @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m))) @ basis.conj().T
        for label in p.alphabet[1:]
    }
    images["A0"] = dense_product(images, p.alphabet, Word(p.relator.letters[:-1], p.alphabet), m).conj().T
    sig = SignatureData(J_list=tuple(random_signature_matrix(rng, m, basis) for _ in range(k)))
    return MatrixRep(presentation=p, m=m, images=images), sig


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

    def test_failed_verification_names_check_block_and_residual(self):
        # a gather mutant that puts a hyperbolic rotation X on the tree edge of A1 at sheet 3: chi1's rows,
        # read off chi2's fold, never see a tree edge's unitarity, and its relator rows pass since X
        # preserves chi1(B1@k) = diag(1, -1) (X Y X^* = Y); so only chi2's unitarity[A1] fails, in block (3, 3)
        cov = torus_cover(4)
        trans = schreier_transversal(cov)
        chi1 = cyclic_subgroup_rep(cov, trans, np.eye(2), np.diag([1.0 + 0j, -1.0]))
        rotated = "np.array([[np.cosh(1e-6), np.sinh(1e-6)], [np.sinh(1e-6), np.cosh(1e-6)]])"
        on_edge = "((which == 0) & (np.arange(cov.n) == 2))[..., None, None, None]"
        gather = "blocks = sub_blocks[which]"
        induce = mutant(induction._induce, gather, f"blocks = np.where({on_edge}, {rotated}, sub_blocks[which])")
        message = "induced representation failed verification: unitarity[A1] at block (3, 3): 2.0e-06 vs 1e-12"
        with pytest.raises(ValueError, match=re.escape(message)):
            induce(cov, trans, chi1)
        assert check_representation(chi1).passed and induce_representation(cov, trans, chi1)

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
            image = chi2.images[label]
            assert compare(image @ image.adjoint(), identity(n, m))[0] < 1e-12

    def test_block_monomial_structure(self):
        rng = np.random.default_rng(14)
        cov = torus_cover(5)
        trans = schreier_transversal(cov)
        t_img, u_img = commuting_unitaries(rng, 2, 2)
        chi2 = induce_representation(cov, trans, cyclic_subgroup_rep(cov, trans, t_img, u_img))
        n = cov.n
        m = chi2.m // n
        for label in ("A1", "B1"):
            # block row k holds its block in column sigma_g(k), both from 1
            structure = tuple((k + 1, j + 1) for k, j in enumerate(chi2.images[label].perm.tolist()))
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
            lhs = evaluate(chi2, w1 * w2).dense()
            rhs = evaluate(chi2, w1).dense() @ evaluate(chi2, w2).dense()
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
            assert np.allclose(block, sig.G @ evaluate(chi1, h_sub).dense(), atol=1e-13)
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

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_pairing_route_reads_the_adjoints_of_the_table(self, k):
        # chi2(B_i)^* is entry 2G - x of chi2's table: bit for bit the adjoint of the image, over any sheets
        rng = np.random.default_rng([36, k])
        p, n, m = double_group(1, k), 3, 2
        unitaries = lambda: [haar_unitary(rng, m) for _ in range(n)]
        images = {label: BlockMonomial(rng.permutation(n), unitaries()) for label in p.alphabet}
        chi2 = MatrixRep(presentation=p, m=n * m, images=images)
        G2 = BlockMonomial(rng.permutation(n), [random_signature_matrix(rng, m) for _ in range(n)])
        routes = pairing_signature_matrices(chi2, G2, p)
        expected = [G2] + [images[f"B{i}"].adjoint() @ G2 for i in range(1, k)]
        assert len(routes) == k and routes[0] is G2
        for ours, theirs in zip(routes, expected):
            for a, b in ((ours.perm, theirs.perm), (ours.blocks, theirs.blocks)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_pairing_off_an_involution_invariant_subgroup_fails(self):
        # this cover's subgroup is not invariant under the involution: nu = (1, 2, 2, 2)
        fixed, swap = (1, 2, 3, 4), (1, 2, 4, 3)
        perms = {"A1": (2, 3, 1, 4), "B1": (3, 1, 2, 4), "A'1": swap, "B'1": fixed}
        cov = build_covering(GENUS_THREE, {**perms, "A''1": fixed, "B''1": swap})
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

    def test_refuses_signature_matrices_that_do_not_fit(self):
        # a short list would drop components' rows, a long one reach past the boundary loops
        chi2, G2, J2 = self.fixture()
        for wrong in (J2[:1], J2 + J2[:1]):
            with pytest.raises(ValueError, match=f"need 2 signature matrices, got {len(wrong)}"):
                verify_symmetry_conditions(chi2, G2, wrong, TORUS)
        wide = identity(3, 2)
        with pytest.raises(ValueError, match=re.escape("J2_list[1] has block shape (3, 2, 2), expected (3, 1, 1)")):
            verify_symmetry_conditions(chi2, G2, [J2[0], wide], TORUS)
        with pytest.raises(ValueError, match=re.escape("G2 has block shape (4, 1, 1), expected (3, 1, 1)")):
            verify_symmetry_conditions(chi2, identity(4, 1), J2, TORUS)

    def test_report_is_one_table(self, monkeypatch):
        # counted, not timed: every row comes from one stacked comparison, with no table to join
        chi2, G2, J2 = self.fixture(n=5)
        made = count_calls(monkeypatch, induction, "_trusted_table")
        joins = count_calls(monkeypatch, CheckReport, "__add__")
        report = verify_symmetry_conditions(chi2, G2, J2, TORUS)
        assert len(made) == 1 and made[0][1] is report and joins == []
        assert len(report.names) == 1 + 2 + 3 * 2 + 2 * 2


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

    @pytest.mark.parametrize(
        "J_list, message",
        [
            ((np.diag([1.0, 0.5]), np.array([[0.0, 1.0], [0.0, 0.0]])), "J_0 is not unitary"),
            ((-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(3)), "J_1 is not selfadjoint"),
            ((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(3)), "J_0 is not selfadjoint"),
            ((np.eye(2), np.eye(3), np.diag([1.0, 0.5])), "J_1 has shape (3, 3)"),
            ((-np.eye(2), np.eye(2), np.diag([1.0, 0.5])), "J_2 is not unitary"),
        ],
    )
    def test_names_the_first_refused_value(self, J_list, message):
        # the values are checked as one stack, but the first J that fails, in order, is named
        with pytest.raises(ValueError, match=re.escape(message)):
            SignatureData(J_list=J_list)

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
            block(expected, k, j)[...] = evaluate(chi1, schreier_rewrite(cov, trans, h)).dense()
        assert np.array_equal(chi2.images[label].dense(), expected)

    # the pairing exists only on a covering subgroup invariant under the involution
    unpaired = unpaired_sheets(cov, trans)
    if unpaired:
        assert_pairing_refused(cov, trans, chi1, G1, unpaired)
    else:
        expected = np.zeros((n * m, n * m), dtype=complex)
        for k in range(1, n + 1):
            h_k, nu_k = reference_nu_decompose(cov, trans, k)
            block(expected, k, nu_k)[...] = G1 @ evaluate(chi1, schreier_rewrite(cov, trans, h_k)).dense()
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


def two_by_two_tower(rng, m):
    """A 2-sheet cover of a 2-sheet cover of the torus, and chiK on the smallest subgroup: the restriction
    of commuting unitaries, through each generator's expansion into the base group."""
    outer = torus_cover(2)
    t_outer = schreier_transversal(outer)
    inner = build_covering(t_outer, {"B1@1": (2, 1), "A1@2": (1, 2), "B1@2": (2, 1)})
    t_inner = schreier_transversal(inner)
    a, b = commuting_unitaries(rng, m, 2)
    psi = {"A1": a, "B1": b}
    chiK_images = {}
    for label, w in zip(t_inner.alphabet, t_inner.defining_words):
        ambient = expand_schreier_word(t_outer, w)
        mat = np.eye(m, dtype=complex)
        for gen, exp in ambient.letters:
            factor = psi[TORUS.alphabet[gen]]
            mat = mat @ (factor if exp > 0 else factor.conj().T)
        chiK_images[label] = mat
    return outer, t_outer, inner, t_inner, MatrixRep(presentation=t_inner, m=m, images=chiK_images)


class TestInductionInStages:
    def test_two_by_two_tower_traces(self):
        rng = np.random.default_rng(17)
        m = 2
        outer, t_outer, inner, t_inner, chiK = two_by_two_tower(rng, m)

        chiH = induce_representation(inner, t_inner, chiK)
        chiH_sub = MatrixRep(presentation=t_outer, m=m * inner.n, images=chiH.images)
        two_step = induce_representation(outer, t_outer, chiH_sub)

        comp = compose_coverings(outer, t_outer, inner)
        t_comp = schreier_transversal(comp)
        one_images = {
            label: evaluate(chiK, schreier_rewrite(inner, t_inner, schreier_rewrite(outer, t_outer, w)))
            for label, w in zip(t_comp.alphabet, t_comp.defining_words)
        }
        one_step = induce_representation(
            comp, t_comp, MatrixRep(presentation=t_comp, m=m, images=one_images)
        )

        for _ in range(100):
            w = random_word(rng, TORUS.alphabet, int(rng.integers(0, 30)))
            diff = abs(np.trace(evaluate(one_step, w).dense()) - np.trace(evaluate(two_step, w).dense()))
            assert diff < 1e-10


# gather mutants of the induction: chi2 built from conjugate-transposed blocks, and from chi1's first
# Schreier generator's image on every tree edge in place of the identity
GATHER_MUTANTS = {
    "conjugate-transposed": ("blocks = sub_blocks[which]", "blocks = sub_blocks[which].conj().swapaxes(-1, -2)"),
    "tree-edge-not-identity": ("which = trans.edges + 1", "which = np.where(trans.edges < 0, 1, trans.edges + 1)"),
}


class TestChecksReadOffTheInducedFold:
    """chi1's check rows are regrouped from chi2's fold; they must be those of chi1's own fold, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_coverings(self, data):
        # the TestRandomCoverings draws, with chi1 the restriction of a surface representation or, so that
        # rows fail too, drawn at random per Schreier generator over n1 sheets: with n1 = 2 the sheet maps
        # of its relators' images disagree with the identity's, so the comparison's general case is read off
        p = data.draw(surfaces)
        cov = data.draw(bordered_coverings(p))
        trans = schreier_transversal(cov)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m, n1 = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        if n1 == 1 and data.draw(st.booleans()):
            rho = random_surface_rep(rng, p, m)
            images = {lbl: dense_product(rho, p.alphabet, w, m) for lbl, w in zip(trans.alphabet, trans.defining_words)}
        else:
            blocks = lambda: np.stack([haar_unitary(rng, m) for _ in range(n1)])
            images = {lbl: BlockMonomial(rng.permutation(n1), blocks()) for lbl in trans.alphabet}
        assert_chi1_rows_read_off_chi2(cov, trans, MatrixRep(presentation=trans, m=n1 * m, images=images))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128])
    @pytest.mark.parametrize("phase", [0.0, 1e-9], ids=["consistent", "perturbed"])
    def test_cyclic_covers(self, n, phase):
        cov = torus_cover(n)
        trans = schreier_transversal(cov)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        images = dict(annulus_boundary_chi1(cov, trans, 0.7, sig).images)
        images[trans.alphabet[-1]] = images[trans.alphabet[-1]].blocks[0] * np.exp(1j * phase) * (1 + phase)
        assert_chi1_rows_read_off_chi2(cov, trans, MatrixRep(presentation=trans, m=1, images=images))

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-6], ids=["consistent", "second-sub-sheet-scaled"])
    def test_induction_in_stages(self, scale):
        # chi1 over n1 = 2 sheets: each of its rows is the worst of its two sub-sheet blocks of chi2's rows
        rng = np.random.default_rng(17)
        outer, t_outer, inner, t_inner, chiK = two_by_two_tower(rng, 2)
        # the inner stage induces from a transversal, whose relators are one per outer sheet
        images = {label: haar_unitary(rng, 2) for label in t_inner.alphabet}
        assert_chi1_rows_read_off_chi2(inner, t_inner, MatrixRep(presentation=t_inner, m=2, images=images))
        images = dict(induce_representation(inner, t_inner, chiK).images)
        blocks = images["B1@1"].blocks.copy()
        blocks[1] *= scale
        images["B1@1"] = BlockMonomial(images["B1@1"].perm, blocks)
        chiH_sub = MatrixRep(presentation=t_outer, m=2 * inner.n, images=images)
        assert_chi1_rows_read_off_chi2(outer, t_outer, chiH_sub)
        # the scaled block is row 2 of unitarity[B1@1], found by the argmax over the sub-sheets
        failing = {c.name: c.block for c in check_representation(chiH_sub).failing()}
        assert failing == {} if scale == 1.0 else failing["unitarity[B1@1]"] == (2, 2)

    @pytest.mark.parametrize("kind", list(GATHER_MUTANTS))
    def test_gather_mutants_fail_chi2_rows(self, monkeypatch, kind):
        # chi2's rows are a fold of chi2's own table: a fault of the gather fails them; chi1's rows, read
        # off the same fold, fail too, but chi1's own fold passes, so the mutant fails verification and
        # chi1 keeps its own table
        from helpers import random_induce_config

        config = random_induce_config(seed=7, n=16)
        cov = build_covering(surface_group(1, 2), config["covering"]["perms"])
        trans = schreier_transversal(cov)
        images = {
            lbl: np.array([[complex(*x) for x in row] for row in mat]) for lbl, mat in config["chi1"]["images"].items()
        }
        chi1 = MatrixRep(presentation=trans, m=2, images=images)
        tables = count_calls(monkeypatch, induction, "_checks")
        assert induce_representation(cov, trans, chi1) and all(table.passed for _, table in tables)
        tables.clear()
        induce = mutant(induction._induce, *GATHER_MUTANTS[kind])
        chi1 = MatrixRep(presentation=trans, m=2, images=images)
        with pytest.raises(ValueError, match=r"^induced representation failed verification: relator\[0\] at block"):
            induce(cov, trans, chi1)
        (chi2_rows, read_off, own) = (table for _, table in tables)
        assert chi2_rows.names[:4] == ("unitarity[A0]", "unitarity[A1]", "unitarity[A'1]", "unitarity[B'1]")
        assert [c.name for c in chi2_rows.failing()] == ["relator[0]"]
        assert chi2_rows.worst().startswith("relator[0]") and chi2_rows.residuals[-1] > 1e-3
        assert not read_off.passed and read_off.names == own.names
        assert own.passed and check_representation(chi1) is own


class TestRepSerialization:
    def test_induced_rep_exports_blocks(self):
        # the induce report's extra: the block rank, the sheet count and chi2's images as block-monomials
        cov = torus_cover(2)
        trans = schreier_transversal(cov)
        config = {
            "mode": "induce", "s": 0, "k": 2,
            "covering": {"n": 2, "perms": dict(zip(TORUS.alphabet, map(list, cov.perms)))},
            "chi1": {"m": 1, "images": dict.fromkeys(trans.alphabet, [[[1.0, 0.0]]])},
        }
        report = cli.run_pipeline(cli.parse_config(json.dumps(config)))
        doc = report.extras["induced"]
        assert report.passed and sorted(doc) == ["images", "m", "n"]
        assert doc["m"] == 1 and doc["n"] == 2
        assert {label: image.perm.tolist() for label, image in doc["images"].items()} == {"A1": [1, 0], "B1": [0, 1]}
        assert all((image.blocks == 1).all() for image in doc["images"].values())

    @pytest.mark.parametrize(
        "entry", [[True, False], [1.0, True], ["1", 0.0], [1.0], [1.0, 0.0, 0.0], 1.0, None]
    )
    def test_reader_rejects_entries_that_are_not_number_pairs(self, entry):
        # the matrix holding the entry is named
        refusal = re.escape("field 'images.B1': [[") + r".* is not a list of \[re, im\] pairs of shape 1x1$"
        with pytest.raises(ValueError, match=refusal):
            cli.matrices_from_json([[[[1.0, 0.0]]], [[entry]]], (1, 1), ["images.A1", "images.B1"])

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
            out, ints = cli.matrices_from_json(mats, (m, m), names)
            expected = np.array([[[complex(*x) for x in row] for row in mat] for mat in mats], dtype=complex)
            # bit for bit, so -0.0 and every int's rounding count
            assert out.shape == (g, m, m)
            assert np.array_equal(out.view(np.int64), expected.reshape(g, m, m).view(np.int64))
            parts = [v for mat in mats for row in mat for x in row for v in x]
            assert ints == {i: v for i, v in enumerate(parts) if type(v) is int}
        else:
            with pytest.raises(ValueError, match=re.escape(f"field '{names[refused]}'")):
                cli.matrices_from_json(mats, (m, m), names)

    def test_reader_accepts_integer_parts(self):
        images, ints = cli.matrices_from_json([[[[0, 1]]], [[[-1, 0.0]]]], (1, 1), ["images.A1", "images.B1"])
        assert images.tolist() == [[[1j]], [[-1]]]
        # each int part by its index in the float view, so that the config can be echoed as given
        assert ints == {0: 0, 1: 1, 2: -1}


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
        residual, (k, j) = compare(a, b)
        assert abs(residual - dense_maxabs(A - B)) < 1e-13
        block = (A - B)[(k - 1) * m : k * m, (j - 1) * m : j * m]
        assert abs(dense_maxabs(block) - residual) < 1e-13
        # the one-entry stack against its adjoint on its own sheet pattern, also where perm is not a permutation
        stack = a.perm[None], a.blocks[None]
        compared = induction._compare([(stack, induction._adjoint_on_pattern(*stack))])
        (check,) = induction._checks(["c"], compared).checks
        residual, (k, j) = check.residual, check.block
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
        assert np.array_equal(identity(4, 2).dense(), np.eye(8))
        one = BlockMonomial.of(u)
        assert compare(one @ one.adjoint(), identity(1, 3))[0] < 1e-14

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
        residual, block = compare(a, b)
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


COMPARE_CASES = ["equal", "one-row", "everywhere"]


def mismatch(rng, perms, case):
    """``perms`` with the block column of one row, or of every row, moved to another sheet."""
    perms, n = perms.copy(), perms.shape[-1]
    if case == "one-row":
        row = np.unravel_index(rng.integers(perms.size), perms.shape)
        perms[row] = (perms[row] + rng.integers(1, n)) % n
    elif case == "everywhere":
        perms = (perms + rng.integers(1, n, size=perms.shape)) % n
    return perms


def noise(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def mutant(function, anchor, replacement):
    """``function`` of ``induction`` with ``anchor`` in its source replaced by ``replacement``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(anchor) == 1
    namespace = dict(vars(induction))
    exec(compile(source.replace(anchor, replacement), induction.__file__, "exec"), namespace)
    return namespace[function.__name__]


class TestCompareFastCase:
    """Where the sheet maps agree on every row the comparison takes a fast case; it must give the general formula."""

    @pytest.mark.parametrize("case", COMPARE_CASES)
    def test_compare_gives_the_general_formula(self, case):
        rng = np.random.default_rng(COMPARE_CASES.index(case))
        for _ in range(40):
            n, m = rng.integers(2, 7), rng.integers(1, 4)
            perm = rng.permutation(n)
            a = BlockMonomial(perm, noise(rng, n, m, m))
            b = BlockMonomial(mismatch(rng, perm, case), noise(rng, n, m, m))
            assert compare(a, b) == reference_compare(a.perm, a.blocks, b.perm, b.blocks)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one-other", "stacked-other"])
    @pytest.mark.parametrize("case", COMPARE_CASES)
    def test_checks_give_the_general_formula(self, case, stacked):
        rng = np.random.default_rng([COMPARE_CASES.index(case), stacked])
        for _ in range(20):
            w, n, m = rng.integers(1, 6), rng.integers(2, 7), rng.integers(1, 4)
            other_perms = np.stack([rng.permutation(n) for _ in range(w)]) if stacked else rng.permutation(n)
            perms = mismatch(rng, np.broadcast_to(other_perms, (w, n)), case)
            blocks, other_blocks = noise(rng, w, n, m, m), noise(rng, *(w,) * stacked, n, m, m)
            names = [f"c[{i}]" for i in range(w)]
            report = induction._checks(names, induction._compare([((perms, blocks), (other_perms, other_blocks))]))
            other = lambda i: (other_perms[i], other_blocks[i]) if stacked else (other_perms, other_blocks)
            expected = [reference_compare(perms[i], blocks[i], *other(i)) for i in range(w)]
            assert [(c.residual, c.block) for c in report.checks] == expected

    @pytest.mark.parametrize("case", ["one-row", "everywhere"])
    def test_a_fast_case_that_ignores_a_moved_block_fails(self, case):
        # equal blocks, one or every block in another column: the general formula reads the moved blocks
        stacked = mutant(induction._compare, "same.all()", "True")
        rng = np.random.default_rng(7)
        perm, blocks = rng.permutation(4), noise(rng, 4, 2, 2)
        a, b = BlockMonomial(perm, blocks), BlockMonomial(mismatch(rng, perm, case), blocks)
        expected = reference_compare(a.perm, a.blocks, b.perm, b.blocks)
        assert compare(a, b) == expected and expected[0] > 0
        pair = (a.perm[None], a.blocks[None]), (b.perm, b.blocks)
        report = induction._checks(["c"], induction._compare([pair]))
        assert [(c.residual, c.block) for c in report.checks] == [expected]
        residuals, _ = stacked([pair])
        assert residuals.max(axis=1).tolist() == [0.0]


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
            assert dense_maxabs(evaluate(chi2, w).dense() - expected) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 7), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_stacked_report_on_random_cyclic_covers(self, n, m, seed):
        # non-diagonal J, and G2 with one nu entry moved: rows in the report's order, each to the dense residual
        rng = np.random.default_rng(seed)
        sig = SignatureData(J_list=tuple(random_signature_matrix(rng, m) for _ in range(2)))
        pipe = annulus_pipeline(n, rng.uniform(0, 2 * np.pi), sig)
        assert pipe.report.passed
        images = {label: img.dense() for label, img in pipe.chi2.images.items()}
        J2 = [J.dense() for J in pipe.J2_diagonal]
        nu, k = pipe.G2.perm.copy(), rng.integers(n)
        nu[k] = (nu[k] + rng.integers(1, n)) % n if n > 1 else nu[k]
        p = pipe.covering.presentation
        for G2 in (pipe.G2, BlockMonomial(nu, pipe.G2.blocks)):
            report = verify_symmetry_conditions(pipe.chi2, G2, pipe.J2_diagonal, p)
            reference = dense_symmetry_residuals(images, G2.dense(), J2, p)
            assert report.names == tuple(reference)
            np.testing.assert_allclose(report.residuals, list(reference.values()), rtol=0, atol=1e-13)

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
        return identity(*rep.images[rep.presentation.alphabet[0]].blocks.shape[:2])
    return functools.reduce(operator.matmul, factors)


def report_by_compare(rep, relators=None):
    """Each check of ``check_representation``, from its own product and ``compare``.

    ``relators`` are the presentation's, or the given words.
    """
    alphabet = rep.presentation.alphabet
    relators = rep.presentation.relators if relators is None else relators
    eye = identity(*rep.images[alphabet[0]].blocks.shape[:2])
    out = [(f"unitarity[{x}]", *compare(u @ u.adjoint(), eye)) for x, u in rep.images.items()]
    return out + [(f"relator[{i}]", *compare(left_fold(rep, r), eye)) for i, r in enumerate(relators)]


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
            single = evaluate(rep, w)
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
        restricted = {x: evaluate(chiH, w) for x, w in zip(t_outer.alphabet, t_outer.defining_words)}
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
    for start in range(next(iter(rep.images.values())).n):
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
