"""Covering actions, Schreier transversals, rewriting, and composition."""

import json

import numpy as np
import pytest

from hardycover import (
    build_covering,
    compose_coverings,
    coset_of,
    double_group,
    expand_schreier_word,
    factorize,
    identity_covering,
    nu_decompose,
    schreier_rewrite,
    schreier_transversal,
    sigma,
    subgroup_presentation,
    subgroup_relators,
)
from hardycover.covering import covering_from_json, covering_to_json

from helpers import random_word

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


class TestTransversal:
    def test_cyclic_reps(self, cover3, trans3):
        assert [str(w) for w in trans3.reps] == ["1", "A1", "A1 A1"]

    def test_schreier_generators(self, trans3):
        table = {g.label: str(w) for g, w in zip(trans3.schreier_generators, trans3.defining_words)}
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
    def test_wraparound(self, cover3, trans3):
        h, j = factorize(cover3, trans3, 3, TORUS.gen("A1"))
        assert str(h) == "A1 A1 A1"
        assert j == 1

    def test_identity(self, cover3, trans3):
        h, j = factorize(cover3, trans3, 1, TORUS.identity())
        assert len(h) == 0 and j == 1

    def test_stabilized(self, cover3, trans3):
        h, j = factorize(cover3, trans3, 1, TORUS.gen("B1"))
        assert str(h) == "B1" and j == 1

    def test_round_trip_identity(self, cover3, trans3):
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = random_word(rng, TORUS.alphabet, int(rng.integers(0, 15)))
            for k in range(1, 4):
                h, j = factorize(cover3, trans3, k, g)
                assert trans3.reps[k - 1] * g == h * trans3.reps[j - 1]
                assert coset_of(cover3, h) == 1

    def test_sheet_out_of_range(self, cover3, trans3):
        with pytest.raises(ValueError, match="sheet"):
            factorize(cover3, trans3, 4, TORUS.gen("A1"))


class TestNuDecompose:
    def test_basepoint_sheet(self, cover3, trans3):
        h, nu = nu_decompose(cover3, trans3, 1)
        assert len(h) == 0 and nu == 1

    def test_sheet_two(self, cover3, trans3):
        h, nu = nu_decompose(cover3, trans3, 2)
        assert nu == 2
        assert str(h) == "B1 A1 B1^-1 A1^-1"

    def test_sheet_three(self, cover3, trans3):
        h, nu = nu_decompose(cover3, trans3, 3)
        assert nu == 3
        assert str(h) == "B1 A1 A1 B1^-1 A1^-1 A1^-1"

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_nu_is_permutation_and_h_in_subgroup(self, n):
        cov = torus_cover(n)
        t = schreier_transversal(cov)
        images = []
        for k in range(1, n + 1):
            h, nu = nu_decompose(cov, t, k)
            images.append(nu)
            assert coset_of(cov, h) == 1
        assert sorted(images) == list(range(1, n + 1))

    def test_needs_involution(self):
        from hardycover import surface_group

        p = surface_group(0, 2)
        cov = identity_covering(p)
        t = schreier_transversal(cov)
        with pytest.raises(ValueError, match="doubled"):
            nu_decompose(cov, t, 1)


class TestSchreierRewrite:
    def test_cycle_power(self, cover3, trans3):
        w = schreier_rewrite(cover3, trans3, TORUS.gen("A1") ** 3)
        assert str(w) == "A1@3"

    def test_empty(self, cover3, trans3):
        assert len(schreier_rewrite(cover3, trans3, TORUS.identity())) == 0

    def test_stabilized_generator(self, cover3, trans3):
        assert str(schreier_rewrite(cover3, trans3, TORUS.gen("B1"))) == "B1@1"

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
        sub = subgroup_presentation(outer, t)
        inner = build_covering(
            sub, {"B1@1": (2, 3, 1), "A1@2": (1, 2, 3), "B1@2": (2, 3, 1)}
        )
        comp = compose_coverings(outer, t, inner)
        assert comp.n == 6
        assert comp.presentation is TORUS

    def test_rejects_foreign_inner_cover(self):
        outer = torus_cover(2)
        t = schreier_transversal(outer)
        inner = identity_covering(TORUS)
        with pytest.raises(ValueError, match="Schreier generators"):
            compose_coverings(outer, t, inner)


class TestCoveringSerialization:
    def test_round_trip(self, cover3):
        doc = json.loads(json.dumps(covering_to_json(cover3)))
        rebuilt = covering_from_json(TORUS, doc)
        assert rebuilt.n == 3 and rebuilt.perms == cover3.perms

    def test_sheet_count_mismatch(self, cover3):
        doc = covering_to_json(cover3)
        doc["n"] = 4
        with pytest.raises(ValueError, match="sheet count"):
            covering_from_json(TORUS, doc)
