"""End-to-end symbolic pipeline on the cyclic annulus-double family."""

import json
import re

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
    build_covering,
    build_G2,
    build_J2_diagonal,
    check_representation,
    cyclic_cover,
    double_group,
    induce_representation,
    schreier_transversal,
    verify_symmetry_conditions,
)
from hardycover.cyclic import annulus_double_rep, annulus_surface_rep

from helpers import compare, count_calls, haar_unitary, random_signature_matrix


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

    @pytest.mark.parametrize("n", [*range(1, 10), 128])
    def test_written_cover_is_the_validated_one(self, n):
        # the cover is written directly; build_covering, the validator of outside input, gives the same
        cov = cyclic_cover(n)
        built = build_covering(double_group(0, 2), {"A1": [*range(2, n + 1), 1], "B1": [*range(1, n + 1)]})
        assert cov.moves.dtype == built.moves.dtype and np.array_equal(cov.moves, built.moves)
        assert not cov.moves.flags.writeable
        assert cov.perms == built.perms
        assert cov._tree.dtype == built._tree.dtype and np.array_equal(cov._tree, built._tree)
        assert cov._tree.shape == (n - 1, 2) and not cov._tree.flags.writeable
        assert schreier_transversal(cov).alphabet == schreier_transversal(built).alphabet

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
        # images are read by generator position, so chi_X1 must be over (A1, B1), and so must the cover
        cov = cyclic_cover(3)
        with pytest.raises(ValueError, match="not the annulus double"):
            boundary_subgroup_rep(cov, schreier_transversal(cov), annulus_surface_rep(1, 0.4))
        # a cover of the genus-2 double: its B1@1 is a legitimate Schreier generator, not the fault
        fixed = [1, 2, 3]
        other = build_covering(double_group(0, 3), {"A1": [2, 3, 1], "B1": fixed, "A2": fixed, "B2": fixed})
        chi_X1 = annulus_double_rep(1, 0.4, scalar_signs(1, -1))
        message = "the cover is of ('A1', 'B1', 'A2', 'B2'), not the annulus double"
        with pytest.raises(ValueError, match=re.escape(message)):
            boundary_subgroup_rep(other, schreier_transversal(other), chi_X1)


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
        moved = compare(u.adjoint() @ J1 @ u, J1)[0]
        assert moved > 0.5
        assert failing["boundary-compatibility[1]"].residual == moved

    @pytest.mark.parametrize("n", [*range(1, 10), 128])
    def test_closed_form_tree_words_are_the_general_walk(self, n):
        # the pipeline writes nu and G2's tree words h_k; build_G2's walk of tau(A1) from every sheet is the oracle
        from hardycover import cyclic, induction

        cov = cyclic_cover(n)
        trans = schreier_transversal(cov)
        written, walked = cyclic._rolled_tree_words(trans), induction._tree_words(cov, trans)
        for a, b in zip(written, walked):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b)
        assert written[1].shape == ((n, 2) if n > 1 else (1, 0))  # h_1 is empty, h_k = B1@1 (B1@k)^-1

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128])
    def test_pipeline_G2_is_build_G2(self, n, m):
        # bit for bit, from Fortran-ordered random signature matrices, which SignatureData copies C-ordered
        rng = np.random.default_rng([34, n, m])
        sig = SignatureData(J_list=tuple(np.asfortranarray(random_signature_matrix(rng, m)) for _ in range(2)))
        pipe = annulus_pipeline(n, 0.7, sig)
        assert pipe.report.passed
        walked = build_G2(pipe.covering, pipe.transversal, pipe.chi1, sig.G)
        for a, b in ((pipe.G2.perm, walked.perm), (pipe.G2.blocks, walked.blocks)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_unreduced_tree_word_mutant_fails_the_report(self, monkeypatch):
        # h_k = B1@1 B1@k, the second letter not inverted: chi1 of it is (G J_1)^2, not I, when G and J_1
        # do not commute, as random indefinite signature matrices do not
        from hardycover import cyclic

        rng = np.random.default_rng(34)
        sig = SignatureData(J_list=(random_signature_matrix(rng, 2), random_signature_matrix(rng, 2)))
        assert annulus_pipeline(5, 0.7, sig).report.passed
        written = cyclic._rolled_tree_words
        monkeypatch.setattr(cyclic, "_rolled_tree_words", lambda trans: (written(trans)[0], abs(written(trans)[1])))
        failing = annulus_pipeline(5, 0.7, sig).report.failing()
        assert [c.name for c in failing] == [
            "pairing-symmetry[A1]", "signature-route-equality[0]", "signature-route-equality[1]"
        ]
        assert min(c.residual for c in failing) > 0.1


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

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 128])
    def test_trusted_values_pass_the_checks_they_skip(self, n, m):
        # G2 and the J2 are built unchecked from validated parts: each is what the checked constructor
        # makes of its arrays, C-ordered and read-only, also from Fortran-ordered signature matrices
        rng = np.random.default_rng(10 * n + m)
        basis = haar_unitary(rng, m)
        sig = SignatureData(J_list=tuple(np.asfortranarray(random_signature_matrix(rng, m, basis)) for _ in range(2)))
        pipe = annulus_pipeline(n, 0.7, sig)
        assert pipe.report.passed
        for value in (pipe.G2, *pipe.J2_diagonal):
            checked = BlockMonomial(value.perm, value.blocks)
            assert np.array_equal(checked.perm, value.perm) and np.array_equal(checked.blocks, value.blocks)
            assert value.perm.dtype == np.intp and value.blocks.flags.c_contiguous
            assert not value.perm.flags.writeable and not value.blocks.flags.writeable
        assert all(J.flags.c_contiguous for J in sig.J_list)

    def test_kept_torus_layout_is_read_only_and_that_of_a_fresh_torus(self):
        # every op reuses the layout kept on the family's torus: no reader may change it, and it must be
        # what a fresh double_group(0, 2) derives, bit for bit, with the same report
        from hardycover import cyclic, induction

        rng = np.random.default_rng(12)
        sig = SignatureData(J_list=tuple(random_signature_matrix(rng, 2) for _ in range(2)))
        pipe = annulus_pipeline(7, 0.7, sig)
        fresh = double_group(0, 2)
        pieces = [name for name, attr in vars(induction._Layout).items() if isinstance(attr, property)]
        warm, cold = (induction._Layout(p) for p in (cyclic._TORUS, fresh))
        for layout in (warm, cold):
            for name in pieces:
                getattr(layout, name)
        assert sorted(warm.kept) == sorted(cold.kept) == sorted(pieces)
        assert warm.kept is vars(cyclic._TORUS)["_layout"] and cold.kept is vars(fresh)["_layout"]
        assert type(cold.symmetry[0]) is tuple and all(type(w) is Word for w in cold.symmetry[0])

        def leaves(value):
            if isinstance(value, tuple):
                return [leaf for item in value for leaf in leaves(item)]
            return [value]

        for name in pieces:
            kept, made = leaves(warm.kept[name]), leaves(cold.kept[name])
            assert len(kept) == len(made)
            for a, b in zip(kept, made):
                if isinstance(a, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0
                    assert a.base is None or not a.base.flags.writeable
                else:
                    assert type(a) is type(b) and a == b, name
        report = verify_symmetry_conditions(pipe.chi2, pipe.G2, pipe.J2_diagonal, fresh)
        routes = len(sig.J_list)  # the pipeline's report ends with one route row per component
        assert report.names == pipe.report.names[:-routes]
        for column in ("residuals", "tolerances", "blocks"):
            assert np.array_equal(getattr(report, column), getattr(pipe.report, column)[:-routes])

    def test_report_residuals_near_machine_zero(self):
        pipe = annulus_pipeline(3, 0.7, scalar_signs(1, -1))
        assert max(c.residual for c in pipe.report.checks) < 1e-13

    @pytest.mark.xfail(
        strict=True,
        reason="inputs and products share one absolute TOL_EXACT: J_0 within 4e-13 of -1 is accepted, "
        "but two transported identities then miss by 1.6e-12",
    )
    def test_accepted_signature_data_passes_the_pipeline(self):
        sig = SignatureData(J_list=(np.array([[-1.0 - 4e-13]]), np.array([[-1.0]])))
        report = annulus_pipeline(2, 0.0, sig).report
        assert [c.name for c in report.failing()] == []

    def test_pairing_route_mutant_fails_only_signature_route_equality(self, monkeypatch):
        # J_{2,i} read off the pairing as G2 for every component, not chi2(B_i)^* G2
        from hardycover import cyclic

        monkeypatch.setattr(cyclic, "pairing_signature_matrices", lambda chi2, G2, p: [G2] * p.k)
        report = annulus_pipeline(3, 0.7, scalar_signs(1, -1)).report
        assert [(c.name, c.residual) for c in report.failing()] == [("signature-route-equality[1]", 2.0)]

    def test_report_is_one_table(self, monkeypatch):
        # counted, not timed: the symmetry and route rows are one table of one _checks call, with no join;
        # the pipeline makes one _checks call per report it reads: chi_X1's, chi2's and this one (chi1's is
        # read off chi2's fold only when read, and no report here reads it)
        from hardycover import induction

        made = count_calls(monkeypatch, induction, "_trusted_table")
        checks = count_calls(monkeypatch, induction, "_checks")
        joins = count_calls(monkeypatch, CheckReport, "__add__")
        report = annulus_pipeline(7, 0.7, scalar_signs(1, -1)).report
        assert joins == [] and len(checks) == len(made) == 3
        assert report is made[-1][1] is checks[-1][1]
        assert len(report.names) == 1 + 2 + 3 * 2 + 2 * 2 + 2
        assert report.names[-2:] == ("signature-route-equality[0]", "signature-route-equality[1]")

    def test_word_letters_grow_linearly_in_the_sheet_count(self, monkeypatch):
        # rewriting and the pairing build no Word at all; walks are counted as letters walked times start
        # sheets, and on this cover none is made: the letters walked per sheet stay flat, at 0
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
        monkeypatch.setattr(cyclic, "_rolled_tree_words", wordless("G2's tree words", cyclic._rolled_tree_words))
        monkeypatch.setattr(cyclic, "_transported", wordless("G2's fold", cyclic._transported))
        annulus_pipeline(3, 0.7, scalar_signs(1, -1))  # the warm-up: the torus keeps its layout from here on
        counts, built = {}, {}
        for n in (256, 512):
            words.clear()
            walked.clear()
            pipe = annulus_pipeline(n, 0.7, scalar_signs(1, -1))
            assert pipe.report.passed
            # the tree words are never built on this path, and chi1's relators are read off chi2's fold
            assert "reps" not in vars(pipe.transversal)
            assert "defining_words" not in vars(pipe.transversal)
            assert "relators" not in vars(pipe.transversal)
            assert "relator_rows" not in vars(pipe.transversal)
            counts[n], built[n] = sum(walked), len(words)
        # nothing is walked: the cover is written directly, so its relator is not walked, and G2's tree
        # words are written in closed form, so tau(A1) is not walked from every sheet
        assert counts[256] == counts[512] == 0
        # the torus's symmetry words and presentation are kept from the warm-up; the one Word left is the
        # annulus relator of the surface_group(0, 2) that annulus_surface_rep presents each call's chi_S over
        assert built[256] == built[512] == 1

    @pytest.mark.parametrize("n", [64, 128])
    def test_warm_op_makes_no_schreier_label_and_no_check_name(self, monkeypatch, n):
        # counted, not timed: no report of a verify op reads chi1's checks or the Schreier labels, so a warm op
        # makes neither: Transversal.alphabet stays unmade, and so does chi1's label index
        from hardycover import cli, cyclic, induction

        text = json.dumps({"mode": "verify", "n": n, "alpha": 0.7, "signs": [1, -1]})
        op = lambda: cli.emit_report(cli.run_pipeline(cli.parse_config(text)), "json")
        op()  # the warm-up
        transversals = count_calls(monkeypatch, cyclic, "schreier_transversal")
        pipelines = count_calls(monkeypatch, cli, "annulus_pipeline")
        names = count_calls(monkeypatch, induction, "_check_names")
        op()
        (_, trans), (_, pipe) = transversals[0], pipelines[0]
        assert len(transversals) == 1 and names == []
        assert "alphabet" not in vars(trans) and "_rows" not in vars(pipe.chi1.images)
        assert "_check_report" not in vars(pipe.chi1)
        assert len(check_representation(pipe.chi1).names) == 2 * n + 1  # made on this first read
        assert "alphabet" in vars(trans)

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
        # the rows read off the table are those of the table built row by row
        rows = [(c.name, c.residual, c.tolerance, c.block) for c in checks]
        assert CheckReport.rows(rows).checks == checks

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
