"""Finite unramified coverings as permutation actions, with Schreier machinery.

An n-sheeted unramified covering is encoded by one permutation of the sheets
``{1..n}`` per generator of the base group; the action must be transitive and
kill every relator.  Sheets are numbered from 1 throughout, sheet 1 being the
basepoint sheet.  Cosets are right cosets ``H g_i``, sheets carry the right
action ``i . w``, and the sheet permutation of a word therefore composes as an
anti-homomorphism: ``sigma(w2 * w1) = sigma(w1) o sigma(w2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .groups import (
    DoubledPresentation,
    Generator,
    GroupPresentation,
    Word,
    apply_involution,
)

__all__ = [
    "CoveringAction",
    "Transversal",
    "SubgroupPresentation",
    "build_covering",
    "identity_covering",
    "coset_of",
    "sigma",
    "factorize",
    "schreier_transversal",
    "nu_decompose",
    "schreier_rewrite",
    "expand_schreier_word",
    "subgroup_relators",
    "subgroup_presentation",
    "compose_coverings",
    "covering_to_json",
    "covering_from_json",
]


@dataclass(frozen=True)
class SubgroupPresentation:
    """The covering subgroup on its Schreier generators.

    Each Schreier generator ``X@i`` comes from the non-tree edge (sheet i,
    base generator X); ``defining_words`` expresses it in the base group and
    ``relators`` are the rewritten conjugates of the base relators.
    """

    generators: tuple[Generator, ...]
    relators: tuple[Word, ...]
    defining_words: tuple[Word, ...]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)

    def identity(self) -> Word:
        return Word((), self.alphabet)


@dataclass(frozen=True, eq=False)
class CoveringAction:
    """Transitive sheet action of a presented group, one permutation per generator.

    ``perms[g][i-1]`` is the image of sheet i under generator ``g`` (1-based
    values); ``inverse_perms`` caches the inverses.
    """

    presentation: GroupPresentation | DoubledPresentation | SubgroupPresentation
    n: int
    perms: tuple[tuple[int, ...], ...]
    inverse_perms: tuple[tuple[int, ...], ...]


def _invert_perm(images: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[j - 1] = i + 1
    return tuple(out)


def build_covering(
    presentation: GroupPresentation | DoubledPresentation | SubgroupPresentation,
    perms: Mapping[str, Sequence[int]],
) -> CoveringAction:
    """Validate and assemble a covering action from per-generator permutations."""
    alphabet = presentation.alphabet
    missing = [lbl for lbl in alphabet if lbl not in perms]
    if missing:
        raise ValueError(f"no permutation supplied for generator(s) {missing}")
    unknown = [lbl for lbl in perms if lbl not in alphabet]
    if unknown:
        raise ValueError(f"permutation supplied for unknown generator(s) {unknown}")

    sizes = {len(perms[lbl]) for lbl in alphabet}
    if len(alphabet) == 0:
        n = 1
        table: tuple[tuple[int, ...], ...] = ()
    else:
        if len(sizes) != 1:
            raise ValueError(f"permutations act on different sheet counts {sorted(sizes)}")
        n = sizes.pop()
        if n < 1:
            raise ValueError("sheet count must be at least 1")
        rows = []
        for lbl in alphabet:
            row = tuple(int(v) for v in perms[lbl])
            if sorted(row) != list(range(1, n + 1)):
                raise ValueError(f"images for generator {lbl} are not a bijection of 1..{n}")
            rows.append(row)
        table = tuple(rows)

    cov = CoveringAction(
        presentation=presentation,
        n=n,
        perms=table,
        inverse_perms=tuple(_invert_perm(row) for row in table),
    )

    reached = {1}
    frontier = [1]
    while frontier:
        i = frontier.pop()
        for gi in range(len(table)):
            for j in (cov.perms[gi][i - 1], cov.inverse_perms[gi][i - 1]):
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
    if len(reached) != n:
        raise ValueError(f"disconnected cover: sheets {sorted(set(range(1, n + 1)) - reached)} unreachable")

    for relator in presentation.relators:
        image = sigma(cov, relator)
        if image != tuple(range(1, n + 1)):
            raise ValueError(f"not a covering of this surface: relator {relator} acts as {image}")
    return cov


def identity_covering(
    presentation: GroupPresentation | DoubledPresentation | SubgroupPresentation,
) -> CoveringAction:
    return build_covering(presentation, {lbl: (1,) for lbl in presentation.alphabet})


def _apply(cov: CoveringAction, sheet: int, w: Word) -> int:
    for gen, exp in w.letters:
        row = cov.perms[gen] if exp > 0 else cov.inverse_perms[gen]
        sheet = row[sheet - 1]
    return sheet


def _check_word(cov: CoveringAction, w: Word) -> None:
    if w.alphabet != cov.presentation.alphabet:
        raise ValueError("word not over this covering's generators")


def coset_of(cov: CoveringAction, w: Word) -> int:
    """Sheet reached from the basepoint sheet 1 under the right action of ``w``."""
    _check_word(cov, w)
    return _apply(cov, 1, w)


def sigma(cov: CoveringAction, w: Word) -> tuple[int, ...]:
    """Sheet permutation of ``w``: entry ``i-1`` is the sheet ``i . w``."""
    _check_word(cov, w)
    return tuple(_apply(cov, i, w) for i in range(1, cov.n + 1))


@dataclass(frozen=True, eq=False)
class Transversal:
    """Schreier transversal of the covering subgroup.

    ``reps[i-1]`` is the spanning-tree word from sheet 1 to sheet i (so
    ``reps[0]`` is the identity); ``schreier_generators`` are one generator
    per non-tree edge, labelled ``X@i`` for the edge (sheet i, generator X),
    with ``defining_words`` the corresponding base-group words
    ``g_i x g_{i.x}^-1``.
    """

    covering: CoveringAction
    reps: tuple[Word, ...]
    schreier_generators: tuple[Generator, ...]
    defining_words: tuple[Word, ...]
    edge_to_generator: Mapping[tuple[int, int], int | None]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.schreier_generators)


def schreier_transversal(cov: CoveringAction) -> Transversal:
    """Breadth-first Schreier transversal in sheet order, generators in presentation order.

    Tree words use positive generator letters only, which for permutation
    actions always span the sheets.
    """
    alphabet = cov.presentation.alphabet
    reps: list[Word | None] = [None] * cov.n
    reps[0] = Word((), alphabet)
    tree_edges: set[tuple[int, int]] = set()
    queue = [1]
    seen = {1}
    while queue:
        i = queue.pop(0)
        for gi in range(len(alphabet)):
            j = cov.perms[gi][i - 1]
            if j not in seen:
                seen.add(j)
                tree_edges.add((i, gi))
                reps[j - 1] = reps[i - 1] * Word(((gi, 1),), alphabet)
                queue.append(j)
    assert all(r is not None for r in reps), "covering validated transitive"

    gens: list[Generator] = []
    words: list[Word] = []
    edge_map: dict[tuple[int, int], int | None] = {}
    for i in range(1, cov.n + 1):
        for gi, label in enumerate(alphabet):
            if (i, gi) in tree_edges:
                edge_map[(i, gi)] = None
                continue
            j = cov.perms[gi][i - 1]
            word = reps[i - 1] * Word(((gi, 1),), alphabet) * reps[j - 1].inverse()
            edge_map[(i, gi)] = len(gens)
            gens.append(Generator(f"{label}@{i}", len(gens)))
            words.append(word)

    return Transversal(
        covering=cov,
        reps=tuple(reps),
        schreier_generators=tuple(gens),
        defining_words=tuple(words),
        edge_to_generator=edge_map,
    )


def _check_pair(cov: CoveringAction, trans: Transversal) -> None:
    if trans.covering is not cov:
        raise ValueError("transversal was built from a different covering")


def factorize(cov: CoveringAction, trans: Transversal, k: int, g: Word) -> tuple[Word, int]:
    """Split ``g_k g`` as ``h g_j`` with ``h`` in the subgroup and ``j = sigma_g(k)``."""
    _check_pair(cov, trans)
    _check_word(cov, g)
    if not 1 <= k <= cov.n:
        raise ValueError(f"sheet {k} outside 1..{cov.n}")
    j = _apply(cov, k, g)
    h = trans.reps[k - 1] * g * trans.reps[j - 1].inverse()
    return h, j


def nu_decompose(cov: CoveringAction, trans: Transversal, k: int) -> tuple[Word, int]:
    """Split the involution image of ``g_k`` as ``h_k g_{nu(k)}``."""
    _check_pair(cov, trans)
    if not isinstance(cov.presentation, DoubledPresentation):
        raise ValueError("involution decomposition needs a doubled presentation")
    if not 1 <= k <= cov.n:
        raise ValueError(f"sheet {k} outside 1..{cov.n}")
    mirrored = apply_involution(cov.presentation, trans.reps[k - 1])
    nu_k = _apply(cov, 1, mirrored)
    h = mirrored * trans.reps[nu_k - 1].inverse()
    return h, nu_k


def schreier_rewrite(cov: CoveringAction, trans: Transversal, w: Word) -> Word:
    """Rewrite a subgroup element into the Schreier generators.

    Scans ``w`` letter by letter tracking the current sheet and emits the
    Schreier generator (or its inverse) of every non-tree edge traversed.
    """
    _check_pair(cov, trans)
    _check_word(cov, w)
    if _apply(cov, 1, w) != 1:
        raise ValueError(f"not a subgroup element: {w} lands on sheet {_apply(cov, 1, w)}")
    out: list[tuple[int, int]] = []
    sheet = 1
    for gen, exp in w.letters:
        if exp > 0:
            sg = trans.edge_to_generator[(sheet, gen)]
            if sg is not None:
                out.append((sg, 1))
            sheet = cov.perms[gen][sheet - 1]
        else:
            sheet = cov.inverse_perms[gen][sheet - 1]
            sg = trans.edge_to_generator[(sheet, gen)]
            if sg is not None:
                out.append((sg, -1))
    return Word(tuple(out), trans.alphabet)


def expand_schreier_word(trans: Transversal, w: Word) -> Word:
    """Substitute each Schreier generator by its defining base-group word."""
    if w.alphabet != trans.alphabet:
        raise ValueError("word not over this transversal's Schreier generators")
    result = Word((), trans.covering.presentation.alphabet)
    for gen, exp in w.letters:
        piece = trans.defining_words[gen]
        result = result * (piece if exp > 0 else piece.inverse())
    return result


def subgroup_relators(cov: CoveringAction, trans: Transversal) -> tuple[Word, ...]:
    """Rewritten conjugates ``g_i R g_i^-1`` of every base relator, one per sheet."""
    _check_pair(cov, trans)
    out = []
    for relator in cov.presentation.relators:
        for i in range(1, cov.n + 1):
            conj = trans.reps[i - 1] * relator * trans.reps[i - 1].inverse()
            out.append(schreier_rewrite(cov, trans, conj))
    return tuple(out)


def subgroup_presentation(cov: CoveringAction, trans: Transversal) -> SubgroupPresentation:
    return SubgroupPresentation(
        generators=trans.schreier_generators,
        relators=subgroup_relators(cov, trans),
        defining_words=trans.defining_words,
    )


def compose_coverings(
    cov: CoveringAction, trans: Transversal, inner: CoveringAction
) -> CoveringAction:
    """Covering tower composed into a single action of the base group.

    ``inner`` must act for the subgroup presentation derived from ``(cov,
    trans)``.  Composite sheet ``(i, a)`` is numbered ``(i-1)*inner.n + a``;
    a base generator moves ``i`` by the outer action and ``a`` by the inner
    action of the rewritten subgroup part.
    """
    _check_pair(cov, trans)
    if inner.presentation.alphabet != trans.alphabet:
        raise ValueError("inner covering does not act on the Schreier generators of the outer one")
    alphabet = cov.presentation.alphabet
    perms: dict[str, list[int]] = {}
    for gi, label in enumerate(alphabet):
        images = []
        letter = Word(((gi, 1),), alphabet)
        for i in range(1, cov.n + 1):
            h, j = factorize(cov, trans, i, letter)
            h_sub = schreier_rewrite(cov, trans, h)
            for a in range(1, inner.n + 1):
                b = _apply(inner, a, h_sub)
                images.append((j - 1) * inner.n + b)
        perms[label] = images
    return build_covering(cov.presentation, perms)


def covering_to_json(cov: CoveringAction) -> dict:
    return {
        "n": cov.n,
        "perms": {
            g.label: list(cov.perms[g.index]) for g in cov.presentation.generators
        },
    }


def covering_from_json(
    presentation: GroupPresentation | DoubledPresentation | SubgroupPresentation,
    doc: Mapping,
) -> CoveringAction:
    cov = build_covering(presentation, doc["perms"])
    if cov.n != int(doc["n"]):
        raise ValueError(f"declared sheet count {doc['n']} does not match permutations on {cov.n}")
    return cov
