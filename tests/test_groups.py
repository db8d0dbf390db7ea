"""Word algebra and the explicit surface/double presentations."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardycover import (
    InvalidSurfaceError,
    Word,
    apply_involution,
    boundary_loop,
    double_group,
    mirror_monodromy,
    surface_group,
)
from hardycover.groups import presentation_from_json, presentation_to_json, word_from_json, word_to_json

from helpers import random_word


def lbls(p, w):
    return [(p.alphabet[g], e) for g, e in w.letters]


class TestSurfaceGroup:
    def test_annulus(self):
        p = surface_group(0, 2)
        assert p.alphabet == ("A0", "A1")
        assert lbls(p, p.relator) == [("A1", 1), ("A0", 1)]

    def test_one_handle_one_boundary(self):
        p = surface_group(1, 1)
        assert p.alphabet == ("A0", "A'1", "B'1")
        assert lbls(p, p.relator) == [
            ("A'1", 1), ("B'1", 1), ("A'1", -1), ("B'1", -1), ("A0", 1),
        ]

    def test_disk(self):
        p = surface_group(0, 1)
        assert p.alphabet == ("A0",)
        assert lbls(p, p.relator) == [("A0", 1)]

    @pytest.mark.parametrize("s,k", [(0, 0), (-1, 1), (2, 0)])
    def test_invalid_parameters(self, s, k):
        with pytest.raises(InvalidSurfaceError):
            surface_group(s, k)
        with pytest.raises(InvalidSurfaceError):
            double_group(s, k)

    @pytest.mark.parametrize("s", range(4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_generator_count(self, s, k):
        assert len(surface_group(s, k).generators) == 2 * s + k


class TestDoubleGroup:
    def test_torus(self):
        p = double_group(0, 2)
        assert p.alphabet == ("A1", "B1")
        assert lbls(p, p.relator) == [("A1", 1), ("B1", 1), ("A1", -1), ("B1", -1)]
        assert p.genus == 1

    def test_sphere(self):
        p = double_group(0, 1)
        assert p.alphabet == ()
        assert len(p.relator) == 0
        assert p.genus == 0

    def test_genus_two(self):
        p = double_group(1, 1)
        assert p.alphabet == ("A'1", "B'1", "A''1", "B''1")
        assert lbls(p, p.relator) == [
            ("A''1", 1), ("B''1", 1), ("A''1", -1), ("B''1", -1),
            ("A'1", 1), ("B'1", 1), ("A'1", -1), ("B'1", -1),
        ]
        assert p.genus == 2

    @pytest.mark.parametrize("s", range(4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_genus_and_relator_length(self, s, k):
        p = double_group(s, k)
        assert p.genus == 2 * s + k - 1
        assert len(p.generators) == 4 * s + 2 * (k - 1)
        assert len(p.relator) == 8 * s + 4 * (k - 1)


class TestWordOps:
    def test_free_cancellation(self):
        p = double_group(0, 2)
        a = p.gen("A1")
        assert len(a * a.inverse()) == 0
        assert a * p.gen("B1") * p.gen("B1", -1) == a

    def test_invert_reverses(self):
        p = double_group(0, 2)
        w = p.gen("A1") * p.gen("B1")
        assert lbls(p, w.inverse()) == [("B1", -1), ("A1", -1)]

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError, match="mismatch"):
            surface_group(0, 2).gen("A1") * double_group(0, 2).gen("A1")

    def test_power(self):
        p = double_group(0, 2)
        assert lbls(p, p.gen("A1") ** 3) == [("A1", 1)] * 3
        assert lbls(p, p.gen("A1") ** -2) == [("A1", -1)] * 2

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            Word(((5, 1),), ("A1", "B1"))
        with pytest.raises(ValueError):
            Word(((0, 2),), ("A1", "B1"))


letters_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=40
).map(tuple)

ALPHABET = ("A1", "B1", "A'1", "B'1")


@given(letters_strategy)
def test_reduction_idempotent(letters):
    once = Word(letters, ALPHABET)
    again = Word(once.letters, ALPHABET)
    assert once == again


@given(letters_strategy, letters_strategy, letters_strategy)
def test_multiplication_associative(l1, l2, l3):
    w1, w2, w3 = (Word(ls, ALPHABET) for ls in (l1, l2, l3))
    assert (w1 * w2) * w3 == w1 * (w2 * w3)


@given(letters_strategy)
def test_inverse_is_involution(letters):
    w = Word(letters, ALPHABET)
    assert w.inverse().inverse() == w
    assert len(w * w.inverse()) == 0


class TestInvolution:
    def test_generator_images(self):
        p = double_group(1, 2)
        assert lbls(p, apply_involution(p, p.gen("B1"))) == [("B1", -1)]
        assert lbls(p, apply_involution(p, p.gen("A1"))) == [
            ("B1", 1), ("A1", 1), ("B1", -1),
        ]
        assert lbls(p, apply_involution(p, p.gen("A'1"))) == [("B''1", 1)]
        assert lbls(p, apply_involution(p, p.gen("B'1"))) == [("A''1", 1)]
        assert lbls(p, apply_involution(p, p.gen("A''1"))) == [("B'1", 1)]
        assert lbls(p, apply_involution(p, p.gen("B''1"))) == [("A'1", 1)]

    @pytest.mark.parametrize("s,k", [(0, 2), (1, 1), (1, 2), (2, 3)])
    def test_involutive_on_generators(self, s, k):
        p = double_group(s, k)
        for g in p.generators:
            w = p.gen(g.label)
            assert apply_involution(p, apply_involution(p, w)) == w

    def test_involutive_on_random_words(self):
        p = double_group(1, 2)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            w = random_word(rng, p.alphabet, int(rng.integers(0, 25)))
            assert apply_involution(p, apply_involution(p, w)) == w

    def test_respects_inversion(self):
        p = double_group(1, 2)
        rng = np.random.default_rng(8)
        for _ in range(200):
            w = random_word(rng, p.alphabet, 15)
            assert apply_involution(p, w.inverse()) == apply_involution(p, w).inverse()

    def test_wrong_alphabet(self):
        with pytest.raises(ValueError):
            apply_involution(double_group(0, 2), surface_group(0, 2).gen("A0"))


class TestBoundaryWords:
    def test_boundary_loops_on_surface(self):
        p = surface_group(1, 2)
        assert boundary_loop(p, 0) == p.gen("A0")
        assert boundary_loop(p, 1) == p.gen("A1")

    def test_boundary_loop_component_zero_on_double(self):
        p = double_group(1, 2)
        expected = p.word(
            [("A'1", 1), ("B'1", 1), ("A'1", -1), ("B'1", -1), ("A1", 1)]
        ).inverse()
        assert boundary_loop(p, 0) == expected
        assert boundary_loop(p, 1) == p.gen("A1")

    def test_mirror_monodromy(self):
        p = double_group(0, 3)
        assert len(mirror_monodromy(p, 0)) == 0
        assert mirror_monodromy(p, 2) == p.gen("B2")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_loop(double_group(0, 2), 2)


class TestSerialization:
    @pytest.mark.parametrize("s,k", [(0, 1), (0, 2), (1, 1), (2, 3)])
    def test_round_trip(self, s, k):
        for build in (surface_group, double_group):
            p = build(s, k)
            doc = json.loads(json.dumps(presentation_to_json(p)))
            assert presentation_from_json(doc) == p

    def test_tau_serialized(self):
        doc = presentation_to_json(double_group(0, 2))
        assert doc["tau"]["B1"] == [["B1", -1]]
        assert doc["genus"] == 1

    def test_word_round_trip(self):
        p = double_group(1, 2)
        w = p.word([("A1", 1), ("B'1", -2), ("A''1", 1)])
        assert word_from_json(word_to_json(w), p.alphabet) == w

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            word_from_json([["C9", 1]], ("A1", "B1"))

    @pytest.mark.parametrize(
        "field,value",
        [("s", False), ("s", 1.0), ("k", True), ("k", 2.5), ("k", "2")],
    )
    def test_presentation_reader_rejects_non_integers(self, field, value):
        doc = presentation_to_json(surface_group(1, 2))
        doc[field] = value
        with pytest.raises(ValueError, match=f"field '{field}'"):
            presentation_from_json(doc)

    @pytest.mark.parametrize("exponent", [True, False, 1.5, 1.0, "1"])
    def test_word_reader_rejects_non_integer_exponents(self, exponent):
        with pytest.raises(ValueError, match="exponent of letter 1"):
            word_from_json([["A1", 1], ["B1", exponent]], ("A1", "B1"))
