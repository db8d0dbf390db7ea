"""Free words and explicit presentations of surface groups and their doubles.

A compact bordered surface with genus ``s`` and ``k`` boundary circles has a
fundamental group generated by boundary loops ``A0..A{k-1}`` and handle pairs
``A'i, B'i`` subject to a single relation.  Its Schottky double is a closed
surface of genus ``2s + k - 1`` whose fundamental group carries the mirror
involution ``tau`` acting on generators.  This module is the exact, purely
combinatorial kernel: words are tuples of signed generator indices, always
kept freely reduced, and every operation is a pure function.  Each
presentation stores its ``alphabet`` (the generator labels) once, and every
word over it shares that tuple.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "InvalidSurfaceError",
    "Word",
    "GroupPresentation",
    "DoubledPresentation",
    "surface_group",
    "double_group",
    "apply_involution",
    "boundary_loop",
    "mirror_monodromy",
    "presentation_to_json",
    "word_to_json",
]


class InvalidSurfaceError(ValueError):
    """Parameters (s, k) do not describe a bordered surface."""


Letter = tuple[int, int]


def _as_int(value, name: str) -> int:
    """``value`` as an int; bools and non-integers are refused, numpy integers accepted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"invalid value for field {name!r}: {value!r} is not an integer")


@dataclass(frozen=True)
class Word:
    """Freely reduced word over a fixed generator alphabet.

    ``letters`` is a sequence of ``(generator index, +1 or -1)`` pairs; the
    empty sequence is the identity.  Construction checks and reduces the
    input in one pass, so no unreduced word ever exists.
    """

    letters: tuple[Letter, ...]
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        size = len(self.alphabet)
        out: list[Letter] = []
        for gen, exp in self.letters:
            if type(gen) is not int or type(exp) is not int:
                gen, exp = _as_int(gen, "generator index"), _as_int(exp, "letter exponent")
            if not 0 <= gen < size:
                raise ValueError(f"generator index {gen} outside alphabet")
            if exp != 1 and exp != -1:
                raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
            if out and out[-1][0] == gen and out[-1][1] == -exp:
                out.pop()
            else:
                out.append((gen, exp))
        object.__setattr__(self, "letters", tuple(out))

    def __mul__(self, other: "Word") -> "Word":
        # words over one presentation share its alphabet tuple
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("words over mismatched generator sets")
        return Word(self.letters + other.letters, self.alphabet)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)), self.alphabet)

    def __pow__(self, exponent: int) -> "Word":
        base = self if exponent >= 0 else self.inverse()
        return Word(base.letters * abs(exponent), self.alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            self.alphabet[g] + ("" if e > 0 else "^-1") for g, e in self.letters
        )

    def __repr__(self) -> str:
        return f"Word({self})"


def _check_surface_params(s: int, k: int) -> tuple[int, int]:
    try:
        s, k = _as_int(s, "s"), _as_int(k, "k")
    except ValueError as exc:
        raise InvalidSurfaceError(str(exc)) from None
    if s < 0 or k < 1:
        raise InvalidSurfaceError(
            f"no bordered surface with genus {s} and {k} boundary components"
        )
    return s, k


class _PresentationMixin:
    """Word construction helpers shared by both presentation kinds."""

    alphabet: tuple[str, ...]

    @property
    def relators(self) -> tuple[Word, ...]:
        return (self.relator,)  # type: ignore[attr-defined]

    def identity(self) -> Word:
        return Word((), self.alphabet)

    def gen(self, label: str, exponent: int = 1) -> Word:
        try:
            index = self.alphabet.index(label)
        except ValueError:
            raise ValueError(f"unknown generator {label!r}") from None
        return Word(((index, 1),), self.alphabet) ** exponent

    def word(self, pairs: Iterable[tuple[str, int]]) -> Word:
        """Build a word from (label, exponent) pairs; exponents may be any integer."""
        letters = tuple(x for label, e in pairs for x in self.gen(label, e).letters)
        return Word(letters, self.alphabet)


@dataclass(frozen=True)
class GroupPresentation(_PresentationMixin):
    """Fundamental group of a bordered surface: genus ``s``, ``k`` boundary circles."""

    s: int
    k: int
    alphabet: tuple[str, ...]
    relator: Word


@dataclass(frozen=True)
class DoubledPresentation(_PresentationMixin):
    """Fundamental group of the Schottky double, with the mirror involution.

    ``tau`` maps each generator (by index) to its image word under the
    anti-holomorphic involution; ``genus`` is the genus of the double.
    """

    s: int
    k: int
    alphabet: tuple[str, ...]
    relator: Word
    tau: tuple[Word, ...]
    genus: int


def _commutator(a: int, b: int) -> list[Letter]:
    return [(a, 1), (b, 1), (a, -1), (b, -1)]


def surface_group(s: int, k: int) -> GroupPresentation:
    """Presentation of the fundamental group of a genus-``s`` surface with ``k`` boundary circles.

    Generators are the boundary loops ``A0..A{k-1}`` followed by the handle
    pairs ``A'1, B'1, ..., A's, B's``; the single relator is the product of
    handle commutators followed by ``A{k-1} ... A1 A0``.
    """
    s, k = _check_surface_params(s, k)
    labels = [f"A{j}" for j in range(k)]
    for i in range(1, s + 1):
        labels += [f"A'{i}", f"B'{i}"]
    alphabet = tuple(labels)
    index = {lbl: i for i, lbl in enumerate(alphabet)}

    letters: list[Letter] = []
    for i in range(1, s + 1):
        letters += _commutator(index[f"A'{i}"], index[f"B'{i}"])
    for j in range(k - 1, -1, -1):
        letters.append((index[f"A{j}"], 1))
    relator = Word(tuple(letters), alphabet)
    return GroupPresentation(s=s, k=k, alphabet=alphabet, relator=relator)


def double_group(s: int, k: int) -> DoubledPresentation:
    """Presentation of the fundamental group of the Schottky double.

    Generators: ``A1, B1, ..., A{k-1}, B{k-1}`` (one pair per boundary circle
    past the first), then ``A'i, B'i`` and their mirror images ``A''i, B''i``.
    The involution acts by ``B_j -> B_j^-1``, ``A_j -> B_j A_j B_j^-1`` and
    swaps primed handles with double-primed ones.
    """
    s, k = _check_surface_params(s, k)
    labels: list[str] = []
    for j in range(1, k):
        labels += [f"A{j}", f"B{j}"]
    for i in range(1, s + 1):
        labels += [f"A'{i}", f"B'{i}"]
    for i in range(1, s + 1):
        labels += [f"A''{i}", f"B''{i}"]
    alphabet = tuple(labels)
    index = {lbl: i for i, lbl in enumerate(alphabet)}

    letters: list[Letter] = []
    for i in range(s, 0, -1):
        letters += _commutator(index[f"A''{i}"], index[f"B''{i}"])
    for i in range(1, s + 1):
        letters += _commutator(index[f"A'{i}"], index[f"B'{i}"])
    for j in range(k - 1, 0, -1):
        letters.append((index[f"A{j}"], 1))
    for j in range(1, k):
        letters += [(index[f"B{j}"], 1), (index[f"A{j}"], -1), (index[f"B{j}"], -1)]
    relator = Word(tuple(letters), alphabet)

    tau_words: list[Word] = []
    for gi, lbl in enumerate(alphabet):
        if lbl.startswith("A''"):
            image = [(index["B'" + lbl[3:]], 1)]
        elif lbl.startswith("B''"):
            image = [(index["A'" + lbl[3:]], 1)]
        elif lbl.startswith("A'"):
            image = [(index["B''" + lbl[2:]], 1)]
        elif lbl.startswith("B'"):
            image = [(index["A''" + lbl[2:]], 1)]
        elif lbl.startswith("B"):
            image = [(gi, -1)]
        else:  # A_j
            b = index["B" + lbl[1:]]
            image = [(b, 1), (gi, 1), (b, -1)]
        tau_words.append(Word(tuple(image), alphabet))

    return DoubledPresentation(
        s=s,
        k=k,
        alphabet=alphabet,
        relator=relator,
        tau=tuple(tau_words),
        genus=2 * s + k - 1,
    )


def apply_involution(p: DoubledPresentation, w: Word) -> Word:
    """Image of ``w`` under the mirror involution, freely reduced.

    Substitutes each letter by its ``tau`` image (inverted for inverse
    letters), so the map respects inversion and squares to the identity.
    """
    if w.alphabet != p.alphabet:
        raise ValueError("word not over this presentation's generators")
    return _substitute(w, p.tau, p.alphabet)


def _substitute(w: Word, images: Sequence[Word], alphabet: tuple[str, ...]) -> Word:
    """``w`` with each letter replaced by its image word, inverted for an inverse letter."""
    pieces = (images[g] if e > 0 else images[g].inverse() for g, e in w.letters)
    return Word(tuple(x for piece in pieces for x in piece.letters), alphabet)


def boundary_loop(p: DoubledPresentation | GroupPresentation, component: int) -> Word:
    """The loop around boundary circle ``component`` as a word in ``p``'s generators.

    On the bordered surface every ``A_i`` is a generator.  On the double,
    ``A0`` is eliminated by the surface relation, so component 0 is expressed
    through the remaining generators.
    """
    if not 0 <= component < p.k:
        raise ValueError(f"no boundary component {component} (k = {p.k})")
    if isinstance(p, GroupPresentation) or component > 0:
        return p.gen(f"A{component}")
    pairs: list[tuple[str, int]] = []
    for i in range(1, p.s + 1):
        pairs += [(f"A'{i}", 1), (f"B'{i}", 1), (f"A'{i}", -1), (f"B'{i}", -1)]
    for j in range(p.k - 1, 0, -1):
        pairs.append((f"A{j}", 1))
    return p.word(pairs).inverse()


def mirror_monodromy(p: DoubledPresentation, component: int) -> Word:
    """Deck element carrying a boundary lift on the chosen sheet to its mirror image.

    Identity over component 0; the crossing loop ``B_i`` over component
    ``i >= 1``.
    """
    if not 0 <= component < p.k:
        raise ValueError(f"no boundary component {component} (k = {p.k})")
    if component == 0:
        return p.identity()
    return p.gen(f"B{component}")


def word_to_json(w: Word) -> list[list]:
    return [[w.alphabet[g], e] for g, e in w.letters]


def presentation_to_json(p: GroupPresentation | DoubledPresentation) -> dict:
    doc = {
        "s": p.s,
        "k": p.k,
        "generators": list(p.alphabet),
        "relator": word_to_json(p.relator),
    }
    if isinstance(p, DoubledPresentation):
        doc["tau"] = {lbl: word_to_json(t) for lbl, t in zip(p.alphabet, p.tau)}
        doc["genus"] = p.genus
    return doc
