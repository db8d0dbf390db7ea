"""Covering actions, Schreier transversals, rewriting, and composition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardycover import (
    MatrixRep,
    Word,
    build_covering,
    build_G2,
    compose_coverings,
    coset_of,
    double_group,
    expand_schreier_word,
    identity_covering,
    schreier_rewrite,
    schreier_transversal,
    schreier_walk,
    sigma,
    subgroup_relators,
    surface_group,
)
from hardycover.covering import covering_from_json

from helpers import (
    bordered_coverings,
    genus_three_coverings,
    random_word,
    reference_walk,
    reference_factorize,
    reference_nu_decompose,
    subgroup_orbit_cover,
    surfaces,
)

TORUS = double_group(0, 2)


def torus_cover(n):
    cycle = tuple(range(2, n + 1)) + (1,)
    return build_covering(TORUS, {"A1": cycle, "B1": tuple(range(1, n + 1))})


@pytest.fixture(scope="module")
def cover3():
    return torus_cover(3)


@pytest.fixture(scope="module")
def trans3(cover3):
    return schreier_transversal(cover3)


class TestBuildCovering:
    def test_cyclic_three_sheets(self, cover3):
        assert cover3.n == 3
        assert cover3.perms == ((2, 3, 1), (1, 2, 3))

    def test_relator_violation(self):
        with pytest.raises(ValueError, match="not a covering"):
            build_covering(TORUS, {"A1": (2, 1, 3), "B1": (2, 3, 1)})

    def test_disconnected(self):
        with pytest.raises(ValueError, match="disconnected"):
            build_covering(TORUS, {"A1": (1, 2), "B1": (1, 2)})

    def test_identity_covering(self):
        cov = identity_covering(TORUS)
        assert cov.n == 1
        assert sigma(cov, TORUS.gen("A1")) == (1,)

    def test_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            build_covering(TORUS, {"A1": (1, 1), "B1": (1, 2)})

    def test_missing_generator(self):
        with pytest.raises(ValueError, match="no permutation"):
            build_covering(TORUS, {"A1": (2, 1)})

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError, match="different sheet counts"):
            build_covering(TORUS, {"A1": (2, 3, 1), "B1": (1, 2)})

    @pytest.mark.parametrize(
        "label,images",
        [("A1", (2.9, 1.2)), ("B1", (True, 2)), ("A1", (2.0, 1.0)), ("B1", ("1", "2"))],
    )
    def test_non_integer_images_rejected(self, label, images):
        perms = {"A1": (2, 1), "B1": (1, 2), label: images}
        with pytest.raises(ValueError, match=f"field 'perms.{label}'"):
            build_covering(TORUS, perms)

    @pytest.mark.parametrize(
        "perms, field, why",
        [
            ({"A1": None, "B1": (1, 2)}, "perms.A1", "None is not a list of sheets"),
            ({"A1": (2, 1), "B1": 2}, "perms.B1", "2 is not a list of sheets"),
            ([(2, 1), (1, 2)], "perms", "[(2, 1), (1, 2)] is not a mapping of generators to sheet images"),
            ({"A1": (2, 1)}, "perms", "no permutation supplied for generator(s) ['B1']"),
            ({"A1": (1, 1), "B1": (1, 2)}, "perms.A1", "images for generator A1 are not a bijection of 1..2"),
            ({"A1": (1, 2), "B1": (1, 2)}, "perms", "disconnected cover: sheets [2] unreachable"),
        ],
        ids=["none-row", "int-row", "not-a-mapping", "missing-generator", "non-bijective", "disconnected"],
    )
    def test_malformed_input_refused_by_field(self, perms, field, why):
        # a malformed row used to raise TypeError from len(); each refusal names its field, or the caller's
        for name in ("perms", "covering.perms"):
            named = field.replace("perms", name, 1)
            with pytest.raises(ValueError) as refused:
                build_covering(TORUS, perms, name)
            assert str(refused.value) == f"invalid value for field {named!r}: {why}"

    def test_numpy_integer_images_accepted(self):
        cov = build_covering(TORUS, {"A1": np.array([2, 1]), "B1": np.arange(1, 3)})
        assert cov.perms == ((2, 1), (1, 2))
        assert all(type(v) is int for row in cov.perms for v in row)


class TestTransversal:
    def test_cyclic_reps(self, cover3):
        t = schreier_transversal(cover3)
        assert t.tree_edges == ((1, 0), (2, 0))
        # tree words are built from the parent edges when first read
        assert "reps" not in vars(t) and "defining_words" not in vars(t)
        assert [str(w) for w in t.reps] == ["1", "A1", "A1 A1"]

    def test_schreier_generators(self, trans3):
        table = {label: str(w) for label, w in zip(trans3.alphabet, trans3.defining_words)}
        assert table == {
            "B1@1": "B1",
            "B1@2": "A1 B1 A1^-1",
            "A1@3": "A1 A1 A1",
            "B1@3": "A1 A1 B1 A1^-1 A1^-1",
        }

    def test_identity_cover_transversal(self):
        cov = identity_covering(TORUS)
        t = schreier_transversal(cov)
        assert [str(w) for w in t.reps] == ["1"]
        # every generator is a non-tree loop at the single sheet
        assert t.alphabet == ("A1@1", "B1@1")
        assert [str(w) for w in t.defining_words] == ["A1", "B1"]

    def test_genus_two_double_two_sheets(self):
        p = double_group(1, 1)
        perms = {lbl: (1, 2) for lbl in p.alphabet}
        perms["A'1"] = (2, 1)
        cov = build_covering(p, perms)
        t = schreier_transversal(cov)
        assert len(t.reps) == 2
        assert len(t.reps[1]) == 1

    def test_reps_hit_their_cosets(self, cover3, trans3):
        for i, rep in enumerate(trans3.reps, start=1):
            assert coset_of(cover3, rep) == i

    def test_schreier_words_lie_in_subgroup(self, cover3, trans3):
        for w in trans3.defining_words:
            assert coset_of(cover3, w) == 1


class TestCosetAction:
    def test_powers_of_cycle(self, cover3):
        assert coset_of(cover3, TORUS.gen("A1") ** 4) == 2

    def test_identity_word(self, cover3):
        assert coset_of(cover3, TORUS.identity()) == 1

    def test_stabilized_generator(self, cover3):
        assert coset_of(cover3, TORUS.gen("B1")) == 1

    def test_sigma_of_generator(self, cover3):
        assert sigma(cover3, TORUS.gen("A1")) == (2, 3, 1)
        assert sigma(cover3, TORUS.identity()) == (1, 2, 3)
        assert sigma(cover3, TORUS.word([("A1", 1), ("B1", 1)])) == (2, 3, 1)

    def test_sigma_anti_homomorphism(self, cover3):
        rng = np.random.default_rng(11)
        for _ in range(500):
            w1 = random_word(rng, TORUS.alphabet, int(rng.integers(0, 12)))
            w2 = random_word(rng, TORUS.alphabet, int(rng.integers(0, 12)))
            lhs = sigma(cover3, w2 * w1)
            s1, s2 = sigma(cover3, w1), sigma(cover3, w2)
            assert lhs == tuple(s1[s2[k - 1] - 1] for k in range(1, 4))


class TestFactorize:
    """The walk from sheet k against the tree-word split ``g_k g = h g_j``."""

    def test_wraparound(self, cover3, trans3):
        h, j = reference_factorize(cover3, trans3, 3, TORUS.gen("A1"))
        assert str(h) == "A1 A1 A1"
        assert j == 1
        walked, end = schreier_walk(cover3, trans3, 3, TORUS.gen("A1"))
        assert str(walked) == "A1@3" and end == 1

    def test_identity(self, cover3, trans3):
        h, j = reference_factorize(cover3, trans3, 1, TORUS.identity())
        assert len(h) == 0 and j == 1
        walked, end = schreier_walk(cover3, trans3, 2, TORUS.identity())
        assert len(walked) == 0 and end == 2

    def test_stabilized(self, cover3, trans3):
        h, j = reference_factorize(cover3, trans3, 1, TORUS.gen("B1"))
        assert str(h) == "B1" and j == 1

    def test_round_trip_identity(self, cover3, trans3):
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = random_word(rng, TORUS.alphabet, int(rng.integers(0, 15)))
            for k in range(1, 4):
                h, j = reference_factorize(cover3, trans3, k, g)
                assert trans3.reps[k - 1] * g == h * trans3.reps[j - 1]
                assert coset_of(cover3, h) == 1
                rewritten = schreier_rewrite(cover3, trans3, h)
                assert schreier_walk(cover3, trans3, k, g) == (rewritten, j)

    def test_sheet_out_of_range(self, cover3, trans3):
        with pytest.raises(ValueError, match="sheet"):
            schreier_walk(cover3, trans3, 4, TORUS.gen("A1"))


class TestNuDecompose:
    """The tree-word split ``tau(g_k) = h_k g_nu(k)`` that ``build_G2`` walks."""

    def test_basepoint_sheet(self, cover3, trans3):
        h, nu = reference_nu_decompose(cover3, trans3, 1)
        assert len(h) == 0 and nu == 1

    def test_sheet_two(self, cover3, trans3):
        h, nu = reference_nu_decompose(cover3, trans3, 2)
        assert nu == 2
        assert str(h) == "B1 A1 B1^-1 A1^-1"

    def test_sheet_three(self, cover3, trans3):
        h, nu = reference_nu_decompose(cover3, trans3, 3)
        assert nu == 3
        assert str(h) == "B1 A1 A1 B1^-1 A1^-1 A1^-1"

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_nu_is_permutation_and_h_in_subgroup(self, n):
        cov = torus_cover(n)
        t = schreier_transversal(cov)
        images = []
        for k in range(1, n + 1):
            h, nu = reference_nu_decompose(cov, t, k)
            images.append(nu)
            assert coset_of(cov, h) == 1
        assert sorted(images) == list(range(1, n + 1))

    def test_needs_involution(self):
        p = surface_group(0, 2)
        cov = identity_covering(p)
        t = schreier_transversal(cov)
        chi1 = MatrixRep(presentation=t, m=1, images={label: np.eye(1) for label in t.alphabet})
        with pytest.raises(ValueError, match="doubled"):
            build_G2(cov, t, chi1, np.eye(1))


class TestSchreierRewrite:
    def test_cycle_power(self, cover3, trans3):
        w = schreier_rewrite(cover3, trans3, TORUS.gen("A1") ** 3)
        assert str(w) == "A1@3"

    def test_empty(self, cover3, trans3):
        assert len(schreier_rewrite(cover3, trans3, TORUS.identity())) == 0

    def test_stabilized_generator(self, cover3, trans3):
        assert str(schreier_rewrite(cover3, trans3, TORUS.gen("B1"))) == "B1@1"

    def test_words_share_the_transversal_alphabet(self, cover3, trans3):
        rewritten = schreier_rewrite(cover3, trans3, TORUS.gen("A1") ** 3)
        assert rewritten.alphabet is trans3.alphabet
        assert expand_schreier_word(trans3, rewritten).alphabet is TORUS.alphabet

    def test_rejects_non_subgroup_elements(self, cover3, trans3):
        with pytest.raises(ValueError, match="not a subgroup element"):
            schreier_rewrite(cover3, trans3, TORUS.gen("A1"))

    def test_expand_round_trip(self, cover3, trans3):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = random_word(rng, TORUS.alphabet, int(rng.integers(0, 20)))
            j = coset_of(cover3, u)
            w = u * trans3.reps[j - 1].inverse()  # push into the subgroup
            rewritten = schreier_rewrite(cover3, trans3, w)
            assert expand_schreier_word(trans3, rewritten) == w


class TestSubgroupRelators:
    def test_transversal_presents_the_subgroup(self, cover3):
        t = schreier_transversal(cover3)
        assert t.alphabet is t.alphabet
        assert t.relators is t.relators
        assert t.relators == subgroup_relators(cover3, t)
        assert all(r.alphabet == t.alphabet for r in t.relators)

    def test_cyclic_three(self, cover3, trans3):
        rels = [str(r) for r in subgroup_relators(cover3, trans3)]
        assert rels == [
            "B1@2 B1@1^-1",
            "B1@3 B1@2^-1",
            "A1@3 B1@1 A1@3^-1 B1@3^-1",
        ]

    def test_identity_cover(self):
        cov = identity_covering(TORUS)
        t = schreier_transversal(cov)
        rels = subgroup_relators(cov, t)
        assert len(rels) == 1
        assert str(rels[0]) == "A1@1 B1@1 A1@1^-1 B1@1^-1"

    def test_genus_two_two_sheets(self):
        p = double_group(1, 1)
        perms = {lbl: (1, 2) for lbl in p.alphabet}
        perms["A'1"] = (2, 1)
        cov = build_covering(p, perms)
        t = schreier_transversal(cov)
        rels = subgroup_relators(cov, t)
        assert len(rels) == 2
        assert all(len(r) <= 4 * len(p.relator) for r in rels)


class TestComposition:
    def test_tower_two_by_three(self):
        outer = torus_cover(2)
        t = schreier_transversal(outer)
        inner = build_covering(t, {"B1@1": (2, 3, 1), "A1@2": (1, 2, 3), "B1@2": (2, 3, 1)})
        comp = compose_coverings(outer, t, inner)
        assert comp.n == 6
        assert comp.presentation is TORUS

    def test_rejects_foreign_inner_cover(self):
        outer = torus_cover(2)
        t = schreier_transversal(outer)
        inner = identity_covering(TORUS)
        with pytest.raises(ValueError, match="Schreier generators"):
            compose_coverings(outer, t, inner)


def covering_doc(cov):
    """The ``covering`` object of an ``induce`` config that describes ``cov``."""
    return {"n": cov.n, "perms": {lbl: list(row) for lbl, row in zip(cov.presentation.alphabet, cov.perms)}}


class TestCoveringSerialization:
    def test_round_trip(self, cover3):
        doc = json.loads(json.dumps(covering_doc(cover3)))
        rebuilt = covering_from_json(TORUS, doc)
        assert rebuilt.n == 3 and rebuilt.perms == cover3.perms

    def test_sheet_count_mismatch(self, cover3):
        doc = covering_doc(cover3)
        doc["n"] = 4
        with pytest.raises(ValueError, match="sheet count"):
            covering_from_json(TORUS, doc)

    @pytest.mark.parametrize(
        "field,value",
        [("n", True), ("n", 3.0), ("n", "3"), ("perms.A1", 2.7), ("perms.B1", True)],
    )
    def test_reader_rejects_non_integers(self, cover3, field, value):
        doc = covering_doc(cover3)
        if field == "n":
            doc["n"] = value
        else:
            doc["perms"][field[6:]][1] = value
        with pytest.raises(ValueError, match=f"field '{field}'"):
            covering_from_json(TORUS, doc)

    @pytest.mark.parametrize("missing", ["n", "perms"])
    def test_reader_refuses_a_missing_field(self, cover3, missing):
        # used to raise KeyError
        doc = covering_doc(cover3)
        del doc[missing]
        with pytest.raises(ValueError, match=f"^missing required field '{missing}'$"):
            covering_from_json(TORUS, doc)
        with pytest.raises(ValueError, match=f"^missing required field 'covering.{missing}'$"):
            covering_from_json(TORUS, doc, "covering.")

    def test_covering_of_a_transversal_round_trip(self):
        outer = torus_cover(2)
        t = schreier_transversal(outer)
        inner = build_covering(t, {"B1@1": (2, 1), "A1@2": (1, 2), "B1@2": (2, 1)})
        doc = {"n": 2, "perms": {"B1@1": [2, 1], "A1@2": [1, 2], "B1@2": [2, 1]}}
        assert covering_from_json(t, doc).perms == inner.perms


class TestRandomCoverings:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_rewrite_round_trips(self, data):
        p = data.draw(surfaces)
        cov = data.draw(bordered_coverings(p))
        t = schreier_transversal(cov)
        letters = data.draw(
            st.lists(st.tuples(st.integers(0, len(p.alphabet) - 1), st.sampled_from((1, -1))), max_size=30)
        )
        u = Word(tuple(letters), p.alphabet)
        w = u * t.reps[coset_of(cov, u) - 1].inverse()  # push into the subgroup
        assert expand_schreier_word(t, schreier_rewrite(cov, t, w)) == w
        # the subgroup relators are the rewritten conjugates of the base relator
        for rep, relator in zip(t.reps, t.relators):
            assert expand_schreier_word(t, relator) == rep * p.relator * rep.inverse()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_expansion_is_the_product_of_defining_words(self, data):
        p = data.draw(surfaces)
        t = schreier_transversal(data.draw(bordered_coverings(p)))
        letters = data.draw(
            st.lists(st.tuples(st.integers(0, len(t.alphabet) - 1), st.sampled_from((1, -1))), max_size=30)
        )
        h = Word(tuple(letters), t.alphabet)
        product = p.identity()
        for gen, exp in h.letters:
            piece = t.defining_words[gen]
            product = product * (piece if exp > 0 else piece.inverse())
        assert expand_schreier_word(t, h) == product

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_composition_with_a_random_inner_covering(self, data):
        p = data.draw(surfaces)
        outer = data.draw(bordered_coverings(p))
        t = schreier_transversal(outer)
        inner = subgroup_orbit_cover(t, data.draw(bordered_coverings(p)))
        comp = compose_coverings(outer, t, inner)
        assert comp.presentation is p
        assert comp.n == outer.n * inner.n
        # composite sheet (i, a) lies over outer sheet i
        for row, outer_row in zip(comp.perms, outer.perms):
            for x, y in enumerate(row, start=1):
                assert (y - 1) // inner.n + 1 == outer_row[(x - 1) // inner.n]


def codes_of(words, width):
    """Words as zero-padded rows of signed codes ``+-(x + 1)``."""
    rows = np.zeros((len(words), width), dtype=np.intp)
    for row, w in zip(rows, words):
        row[: len(w)] = [(gen + 1) * exp for gen, exp in w.letters]
    return rows


covered_surfaces = st.one_of(surfaces.flatmap(bordered_coverings), genus_three_coverings())


class TestSheetWalk:
    """The walk from every sheet at once against a walk from each sheet on its own."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rows_match_a_per_sheet_walk(self, data):
        cov = data.draw(covered_surfaces)
        p, t = cov.presentation, schreier_transversal(cov)
        letter = st.tuples(st.integers(0, len(p.alphabet) - 1), st.sampled_from((1, -1)))
        u, v = (Word(tuple(data.draw(st.lists(letter, max_size=12))), p.alphabet) for _ in "uv")
        # u v u^-1 crosses u's edges and crosses them back; the empty word is drawn too
        for w in (u, u * v * u.inverse(), p.identity(), p.relator):
            rows, lengths, ends = t.walk_sheets(w)
            reference = [reference_walk(cov, t, k, w) for k in range(1, cov.n + 1)]
            assert np.array_equal(rows, codes_of([h for h, _ in reference], rows.shape[1]))
            assert lengths.tolist() == [len(h) for h, _ in reference]
            assert (ends + 1).tolist() == [end for _, end in reference] == list(sigma(cov, w))
            for k in range(1, cov.n + 1):
                assert schreier_walk(cov, t, k, w) == reference[k - 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relator_rows_match_the_rewritten_conjugates(self, data):
        cov = data.draw(covered_surfaces)
        t = schreier_transversal(cov)
        conjugates = [rep * r * rep.inverse() for r in cov.presentation.relators for rep in t.reps]
        walks = [reference_walk(cov, t, 1, w) for w in conjugates]
        assert all(end == 1 for _, end in walks)
        oracle = [h for h, _ in walks]
        assert np.array_equal(t.relator_rows, codes_of(oracle, t.relator_rows.shape[1]))
        assert subgroup_relators(cov, t) == tuple(oracle) == t.relators

    @settings(max_examples=80, deadline=None)
    @given(cov=covered_surfaces)
    def test_word_strings_are_the_words_written(self, cov):
        t = schreier_transversal(cov)
        assert t.word_strings == (tuple(map(str, t.reps)), tuple(map(str, t.defining_words)))

    def test_word_strings_build_no_word(self, monkeypatch, cover3):
        t = schreier_transversal(cover3)
        calls = []
        original = Word.__post_init__
        monkeypatch.setattr(Word, "__post_init__", lambda self: calls.append(1) or original(self))
        strings = t.word_strings
        assert calls == [] and "defining_words" not in vars(t) and "reps" not in vars(t)
        assert strings == (("1", "A1", "A1 A1"), ("B1", "A1 B1 A1^-1", "A1 A1 A1", "A1 A1 B1 A1^-1 A1^-1"))

    def test_edge_array_marks_tree_edges(self, trans3):
        # edges[gi, i-1]: the Schreier generator of edge (sheet i, generator gi), -1 on a tree edge
        assert not trans3.edges.flags.writeable
        assert trans3.edges.tolist() == [[-1, -1, 2], [0, 1, 3]]
        assert trans3.alphabet == ("B1@1", "B1@2", "A1@3", "B1@3")
