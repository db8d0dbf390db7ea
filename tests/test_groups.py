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

    @pytest.mark.parametrize(
        "s,k", [(0, 0), (-1, 1), (2, 0), (True, 2), (0, True), (1.0, 2), (0, "2")]
    )
    def test_invalid_parameters(self, s, k):
        with pytest.raises(InvalidSurfaceError):
            surface_group(s, k)
        with pytest.raises(InvalidSurfaceError):
            double_group(s, k)

    @pytest.mark.parametrize("s,k,field", [(True, 2, "s"), (0, True, "k"), (1.0, 2, "s")])
    def test_non_integer_parameters_named(self, s, k, field):
        for build in (surface_group, double_group):
            with pytest.raises(InvalidSurfaceError, match=f"field '{field}'"):
                build(s, k)

    def test_numpy_integer_parameters_accepted(self):
        p = surface_group(np.int64(1), np.int64(2))
        assert p == surface_group(1, 2)
        assert type(p.s) is int and type(p.k) is int
        assert double_group(np.int64(1), 2) == double_group(1, 2)

    @pytest.mark.parametrize("s", range(4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_generator_count(self, s, k):
        assert len(surface_group(s, k).alphabet) == 2 * s + k


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
        assert len(p.alphabet) == 4 * s + 2 * (k - 1)
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

    def test_equal_alphabets_in_distinct_tuples_multiply(self):
        p = double_group(0, 2)
        copy = tuple(list(p.alphabet))
        assert copy == p.alphabet and copy is not p.alphabet
        w = Word(((1, 1),), copy)
        assert (p.gen("A1") * w).letters == ((0, 1), (1, 1))
        assert (w * p.gen("A1")).letters == ((1, 1), (0, 1))
        with pytest.raises(ValueError, match="mismatch"):
            w * Word(((0, 1),), ("A1", "C1"))

    def test_power(self):
        p = double_group(0, 2)
        assert lbls(p, p.gen("A1") ** 3) == [("A1", 1)] * 3
        assert lbls(p, p.gen("A1") ** -2) == [("A1", -1)] * 2

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            Word(((5, 1),), ("A1", "B1"))
        with pytest.raises(ValueError):
            Word(((0, 2),), ("A1", "B1"))

    @pytest.mark.parametrize(
        "letters",
        [((0, True), (1, 1.0)), ((0, 1.0),), ((False, 1),), ((0.0, 1),), ((0, "1"),)],
    )
    def test_bool_and_non_integer_letters_rejected(self, letters):
        with pytest.raises(ValueError, match="is not an integer"):
            Word(letters, ("A1", "B1"))

    def test_numpy_integer_letters_become_ints(self):
        w = Word(((np.int64(1), np.int32(-1)), (0, 1)), ("A1", "B1"))
        assert w.letters == ((1, -1), (0, 1))
        assert all(type(x) is int for letter in w.letters for x in letter)
        assert json.dumps(word_to_json(w)) == '[["B1", -1], ["A1", 1]]'

    def test_words_share_the_presentation_alphabet(self):
        p = double_group(1, 2)
        assert p.gen("A1").alphabet is p.alphabet
        assert p.gen("B'1", -3).alphabet is p.alphabet
        assert p.word([("A1", 2), ("B1", -1)]).alphabet is p.alphabet
        assert apply_involution(p, p.gen("A1")).alphabet is p.alphabet
        assert p.relator.alphabet is p.alphabet
        q = surface_group(1, 2)
        assert q.identity().alphabet is q.alphabet


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


def _repeated(w, k):
    """``w ** k`` the slow way, one multiplication per factor."""
    out = Word((), w.alphabet)
    for _ in range(abs(k)):
        out = out * (w if k >= 0 else w.inverse())
    return out


@given(letters_strategy, letters_strategy, st.integers(-4, 4))
def test_power_is_the_repeated_product(u_letters, c_letters, k):
    u, c = Word(u_letters, ALPHABET), Word(c_letters, ALPHABET)
    # the copies of u c u^-1 cancel at every seam
    for w in (c, u * c * u.inverse()):
        assert w ** k == _repeated(w, k)


DOUBLE = double_group(1, 2)
pairs_strategy = st.lists(st.tuples(st.sampled_from(DOUBLE.alphabet), st.integers(-3, 3)), max_size=12)


@given(pairs_strategy)
def test_word_is_the_product_of_generator_powers(pairs):
    product = DOUBLE.identity()
    for label, exponent in pairs:
        product = product * _repeated(DOUBLE.gen(label), exponent)
    assert DOUBLE.word(pairs) == product


@given(pairs_strategy)
def test_involution_is_the_product_of_tau_images(pairs):
    w = DOUBLE.word(pairs)
    product = DOUBLE.identity()
    for gen, exp in w.letters:
        product = product * (DOUBLE.tau[gen] if exp > 0 else DOUBLE.tau[gen].inverse())
    assert apply_involution(DOUBLE, w) == product


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
        for label in p.alphabet:
            w = p.gen(label)
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
