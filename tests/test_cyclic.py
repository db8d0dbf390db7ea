"""End-to-end symbolic pipeline on the cyclic annulus-double family."""

import numpy as np
import pytest

from hardycover import (
    BlockMonomial,
    Check,
    CheckReport,
    MatrixRep,
    SignatureData,
    Word,
    annulus_pipeline,
    boundary_subgroup_rep,
    build_G2,
    build_J2_diagonal,
    check_representation,
    cyclic_cover,
    induce_representation,
    schreier_transversal,
    verify_symmetry_conditions,
)
from hardycover.cyclic import annulus_double_rep, annulus_surface_rep

from helpers import haar_unitary


def scalar_signs(e0, e1):
    return SignatureData(J_list=(e0 * np.eye(1), e1 * np.eye(1)))


class TestCyclicCover:
    def test_permutations(self):
        cov = cyclic_cover(4)
        assert cov.perms == ((2, 3, 4, 1), (1, 2, 3, 4))

    def test_degree_one(self):
        assert cyclic_cover(1).n == 1

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            cyclic_cover(0)

    @pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", None])
    def test_refuses_non_integer_sheet_counts(self, n):
        with pytest.raises(ValueError, match="is not an integer"):
            cyclic_cover(n)
        with pytest.raises(ValueError, match="is not an integer"):
            annulus_pipeline(n, 0.7, scalar_signs(1, -1))

    def test_accepts_numpy_integer_sheet_counts(self):
        cov = cyclic_cover(np.int64(4))
        assert cov.n == 4 and type(cov.n) is int
        assert cov.perms == cyclic_cover(4).perms
        assert annulus_pipeline(np.int32(3), 0.7, scalar_signs(1, -1)).report.passed


class TestBoundaryRep:
    def test_surface_rep_phases(self):
        rep = annulus_surface_rep(1, 0.7)
        assert rep.images["A0"].dense()[0, 0] == pytest.approx(np.exp(0.7j))
        assert rep.images["A1"].dense()[0, 0] == pytest.approx(np.exp(-0.7j))
        assert check_representation(rep).passed

    def test_double_rep_crossing(self):
        chi_X = annulus_double_rep(1, 0.7, scalar_signs(1, -1))
        assert chi_X.images["B1"].dense()[0, 0] == pytest.approx(-1.0)

    def test_schreier_images(self):
        cov = cyclic_cover(3)
        trans = schreier_transversal(cov)
        sig = scalar_signs(-1, -1)
        chi1 = boundary_subgroup_rep(cov, trans, annulus_double_rep(1, 0.4, sig))
        assert chi1.images["A1@3"].dense()[0, 0] == pytest.approx(np.exp(-0.4j))
        for label in ("B1@1", "B1@2", "B1@3"):
            assert chi1.images[label].dense()[0, 0] == pytest.approx(1.0)  # (-1) * (-1)
        assert check_representation(chi1).passed


    def test_refuses_a_representation_of_another_presentation(self):
        # images are read by generator position, so chi_X1 must be over (A1, B1)
        cov = cyclic_cover(3)
        with pytest.raises(ValueError, match="not the annulus double"):
            boundary_subgroup_rep(cov, schreier_transversal(cov), annulus_surface_rep(1, 0.4))

class TestTransport:
    def test_all_sheets_carry_base_values(self):
        cov = cyclic_cover(3)
        sig = SignatureData(J_list=(np.eye(2), np.diag([1.0, -1.0])))
        J2 = build_J2_diagonal(cov, sig)
        assert len(J2) == 2
        for comp, J in enumerate(J2):
            assert np.array_equal(J.perm, np.arange(3))
            assert np.array_equal(J.blocks, np.stack([sig.J_list[comp]] * 3))
            assert not J.blocks.flags.writeable
            assert J.blocks.flags.c_contiguous  # a copy, not a stride-0 view of the base value

    def test_inconsistent_transport_rejected(self):
        # a core image that moves J_1 fails the boundary check of the lifted component
        cov = cyclic_cover(2)
        trans = schreier_transversal(cov)
        rng = np.random.default_rng(3)
        sig = SignatureData(J_list=(np.eye(2), np.diag([1.0, -1.0])))
        core = haar_unitary(rng, 2)
        images = {"A1@2": core, "B1@1": np.eye(2), "B1@2": np.eye(2)}
        chi1 = MatrixRep(presentation=trans, m=2, images=images)
        assert check_representation(chi1).passed
        chi2 = induce_representation(cov, trans, chi1)
        G2 = build_G2(cov, trans, chi1, sig.G)
        report = verify_symmetry_conditions(chi2, G2, build_J2_diagonal(cov, sig), cov.presentation)
        failing = {c.name: c for c in report.failing()}
        assert "boundary-compatibility[1]" in failing
        assert "boundary-compatibility[0]" not in failing
        u, J1 = BlockMonomial.of(core), BlockMonomial.of(sig.J_list[1])
        moved = (u.adjoint() @ J1 @ u).compare(J1)[0]
        assert moved > 0.5
        assert failing["boundary-compatibility[1]"].residual == moved


class TestPipeline:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (1, 1), (-1, -1)])
    def test_scalar_family_passes(self, n, signs):
        pipe = annulus_pipeline(n, 0.7, scalar_signs(*signs))
        assert pipe.report.passed
        e0, e1 = signs
        assert np.array_equal(pipe.G2.dense(), e0 * np.eye(n, dtype=complex))
        assert np.array_equal(pipe.J2_diagonal[0].dense(), e0 * np.eye(n, dtype=complex))
        assert np.array_equal(pipe.J2_diagonal[1].dense(), e1 * np.eye(n, dtype=complex))
        assert np.array_equal(pipe.J2_diagonal[0].dense(), pipe.J2_pairing[0].dense())
        assert np.array_equal(pipe.J2_diagonal[1].dense(), pipe.J2_pairing[1].dense())

    def test_matrix_valued_family_passes(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            basis = haar_unitary(rng, 2)
            diag = lambda entries: basis @ np.diag(np.asarray(entries, complex)) @ basis.conj().T
            sig = SignatureData(
                J_list=(
                    diag(rng.choice((1.0, -1.0), 2)),
                    diag(rng.choice((1.0, -1.0), 2)),
                )
            )
            pipe = annulus_pipeline(3, float(rng.uniform(0, 2 * np.pi)), sig)
            assert pipe.report.passed
            for comp in (0, 1):
                for k in range(3):
                    block = pipe.J2_diagonal[comp].dense()[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
                    assert np.array_equal(block, sig.J_list[comp])

    def test_report_residuals_near_machine_zero(self):
        pipe = annulus_pipeline(3, 0.7, scalar_signs(1, -1))
        assert max(c.residual for c in pipe.report.checks) < 1e-13

    def test_word_letters_grow_linearly_in_the_sheet_count(self, monkeypatch):
        # rewriting and the pairing build no Word at all; the walks they make instead
        # are counted as letters walked times start sheets: quadratic growth would
        # give a ratio near 4
        from hardycover import covering, cyclic

        words, walked = [], []
        reduce_letters, walk = Word.__post_init__, covering._walk

        def counting(word):
            words.append(len(word.letters))
            reduce_letters(word)

        def counting_walk(steps, w, starts):
            walked.append(len(w.letters) * len(starts))
            return walk(steps, w, starts)

        def wordless(name, fn):
            def wrapped(*args):
                before = len(words)
                out = fn(*args)
                assert len(words) == before, f"{name} built a Word"
                return out
            return wrapped

        monkeypatch.setattr(Word, "__post_init__", counting)
        monkeypatch.setattr(covering, "_walk", counting_walk)
        monkeypatch.setattr(covering, "_rewrite_relators", wordless("rewriting", covering._rewrite_relators))
        monkeypatch.setattr(cyclic, "build_G2", wordless("build_G2", cyclic.build_G2))
        counts, built = {}, {}
        for n in (256, 512):
            words.clear()
            walked.clear()
            pipe = annulus_pipeline(n, 0.7, scalar_signs(1, -1))
            assert pipe.report.passed
            # the tree words are never built on this path
            assert "reps" not in vars(pipe.transversal)
            assert "defining_words" not in vars(pipe.transversal)
            assert "relators" not in vars(pipe.transversal)
            counts[n], built[n] = sum(walked), len(words)
        # from every sheet: the relator, by the cover's check and by the rewriting, and tau(A1)
        assert counts[256] == (4 + 4 + 3) * 256
        assert counts[512] <= 2.2 * counts[256]
        assert built[512] == built[256]  # the Words of the presentations and symmetry words only

    def test_chi1_checks_are_made_when_read(self, monkeypatch):
        made = []
        post_init = Check.__post_init__

        def counting(check):
            made.append(check.name)
            post_init(check)

        monkeypatch.setattr(Check, "__post_init__", counting)
        counts = {}
        for n in (2, 256):
            made.clear()
            pipe = annulus_pipeline(n, 0.7, scalar_signs(1, -1))
            assert pipe.report.passed
            counts[n] = len(made)
        # chi1 has n + 1 generators and n relators; none of its checks was made
        assert counts[256] == counts[2]
        assert not any("@" in name for name in made)  # chi1's generators are the X@i
        made.clear()
        checks = check_representation(pipe.chi1).checks
        assert len(made) == len(checks) == 2 * 256 + 1
        assert check_representation(pipe.chi1).checks is checks
        # a report kept as arrays is equal, and hashes equal, to the report of its checks
        assert check_representation(pipe.chi1) == CheckReport(checks) != CheckReport(checks[1:])
        assert hash(check_representation(pipe.chi1)) == hash(CheckReport(checks))

    def test_lazy_failures_name_the_checks_they_become(self):
        # a 1e-9 phase on one Schreier generator fails the two relators it appears in
        pipe = annulus_pipeline(8, 0.7, scalar_signs(1, -1))
        trans = pipe.transversal
        images = dict(pipe.chi1.images)
        images["B1@3"] = images["B1@3"].blocks[0] * np.exp(1e-9j)
        report = check_representation(MatrixRep(presentation=trans, m=1, images=images))
        failing, worst = report.failing(), report.worst()
        materialized = report.checks
        assert failing == tuple(c for c in materialized if not c.passed)
        assert [c.name for c in failing] == ["relator[1]", "relator[2]"]
        assert [str(trans.relators[i]) for i in (1, 2)] == ["B1@3 B1@2^-1", "B1@4 B1@3^-1"]
        assert [c.block for c in failing] == [(1, 1), (1, 1)]  # chi1 has one sheet
        top = max(materialized, key=lambda c: c.residual)
        assert worst == f"{top.name} at block {top.block}: {top.residual:.1e} vs {top.tolerance:g}"
        assert 1e-10 < top.residual < 1e-8
