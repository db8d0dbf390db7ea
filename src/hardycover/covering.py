"""Finite unramified coverings as permutation actions, with Schreier machinery.

An n-sheeted unramified covering is encoded by one permutation of the sheets
``{1..n}`` per generator of the base group; the action must be transitive and
kill every relator.  Sheets are numbered from 1 throughout, sheet 1 being the
basepoint sheet.  Cosets are right cosets ``H g_i``, sheets carry the right
action ``i . w``, and the sheet permutation of a word therefore composes as an
anti-homomorphism: ``sigma(w2 * w1) = sigma(w1) o sigma(w2)``.

The Schreier transversal is also the presentation of the covering subgroup
(Reidemeister-Schreier): its ``alphabet`` holds the Schreier generators'
labels ``X@i`` and its relators are the rewritten conjugates of the base
relators.  A covering can act for it, which is how covering towers are built.

Rewriting is one walk over the sheet graph: by definition ``g_k x g_{k.x}^-1``
is the Schreier generator ``x@k``, or the identity on a tree edge, so ``w``
walked from sheet k emits the rewrite of ``g_k w g_j^-1``, j being where the
walk ends.  No tree word ``g_k`` is built unless it is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .groups import (
    DoubledPresentation,
    GroupPresentation,
    Letter,
    Word,
    _as_int,
    _substitute,
)

__all__ = [
    "CoveringAction",
    "Transversal",
    "build_covering",
    "identity_covering",
    "coset_of",
    "sigma",
    "schreier_transversal",
    "schreier_walk",
    "schreier_rewrite",
    "expand_schreier_word",
    "subgroup_relators",
    "compose_coverings",
    "covering_to_json",
    "covering_from_json",
]


@dataclass(frozen=True, eq=False)
class CoveringAction:
    """Transitive sheet action of a presented group, one permutation per generator.

    ``perms[g][i-1]`` is the image of sheet i under generator ``g`` (1-based
    values); ``inverse_perms`` caches the inverses.
    """

    presentation: GroupPresentation | DoubledPresentation | Transversal
    n: int
    perms: tuple[tuple[int, ...], ...]
    inverse_perms: tuple[tuple[int, ...], ...]


def _invert_perm(images: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[j - 1] = i + 1
    return tuple(out)


def build_covering(
    presentation: GroupPresentation | DoubledPresentation | Transversal,
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
            row = tuple(_as_int(v, f"perms.{lbl}") for v in perms[lbl])
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
    presentation: GroupPresentation | DoubledPresentation | Transversal,
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
    """Schreier transversal of the covering subgroup, and the subgroup's presentation.

    ``tree_edges`` holds one parent edge ``(i, gi)`` per sheet past sheet 1,
    in breadth-first discovery order.  ``alphabet`` has one Schreier generator
    per non-tree edge, labelled ``X@i`` for the edge (sheet i, generator X);
    ``edge_to_generator`` maps each edge to its index, or to ``None`` on a
    tree edge.  The tree words ``reps`` and ``defining_words`` are built on
    first use.  As a presentation it has ``alphabet`` and ``relators``, so
    coverings and representations can be built on it.
    """

    covering: CoveringAction
    tree_edges: tuple[tuple[int, int], ...]
    alphabet: tuple[str, ...]
    edge_to_generator: Mapping[tuple[int, int], int | None]

    @cached_property
    def reps(self) -> tuple[Word, ...]:
        """``reps[i-1]``, the tree word ``g_i`` from sheet 1 to sheet i."""
        cov = self.covering
        letters: list[tuple[Letter, ...]] = [()] * cov.n
        for i, gi in self.tree_edges:
            letters[cov.perms[gi][i - 1] - 1] = letters[i - 1] + ((gi, 1),)
        return tuple(Word(w, cov.presentation.alphabet) for w in letters)

    @cached_property
    def defining_words(self) -> tuple[Word, ...]:
        """Base-group word ``g_i x g_{i.x}^-1`` of every Schreier generator ``x@i``."""
        cov, reps = self.covering, self.reps
        words = []
        for (i, gi), sg in self.edge_to_generator.items():
            if sg is not None:
                back = reps[cov.perms[gi][i - 1] - 1].inverse()
                words.append(Word(reps[i - 1].letters + ((gi, 1),) + back.letters, back.alphabet))
        return tuple(words)

    @cached_property
    def relators(self) -> tuple[Word, ...]:
        """The covering subgroup's relators, rewritten on first use."""
        return subgroup_relators(self.covering, self)


def schreier_transversal(cov: CoveringAction) -> Transversal:
    """Breadth-first Schreier transversal in sheet order, generators in presentation order.

    Tree edges follow positive generator letters only, which for permutation
    actions always span the sheets.  No word is built here.
    """
    alphabet = cov.presentation.alphabet
    tree: list[tuple[int, int]] = []
    queue = deque([1])
    seen = {1}
    while queue:
        i = queue.popleft()
        for gi in range(len(alphabet)):
            j = cov.perms[gi][i - 1]
            if j not in seen:
                seen.add(j)
                tree.append((i, gi))
                queue.append(j)
    assert len(seen) == cov.n, "covering validated transitive"

    tree_edges = set(tree)
    labels: list[str] = []
    edge_map: dict[tuple[int, int], int | None] = {}
    for i in range(1, cov.n + 1):
        for gi, label in enumerate(alphabet):
            if (i, gi) in tree_edges:
                edge_map[(i, gi)] = None
            else:
                edge_map[(i, gi)] = len(labels)
                labels.append(f"{label}@{i}")

    return Transversal(
        covering=cov,
        tree_edges=tuple(tree),
        alphabet=tuple(labels),
        edge_to_generator=edge_map,
    )


def _check_pair(cov: CoveringAction, trans: Transversal) -> None:
    if trans.covering is not cov:
        raise ValueError("transversal was built from a different covering")


def schreier_walk(
    cov: CoveringAction, trans: Transversal, start: int, w: Word
) -> tuple[Word, int]:
    """Walk ``w`` from sheet ``start``: the rewrite of ``g_start w g_end^-1``, and ``end``.

    Each non-tree edge traversed emits its Schreier generator (inverted when
    crossed backwards); tree edges emit nothing.
    """
    _check_pair(cov, trans)
    _check_word(cov, w)
    if not 1 <= start <= cov.n:
        raise ValueError(f"sheet {start} outside 1..{cov.n}")
    out: list[Letter] = []
    sheet = start
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
    return Word(tuple(out), trans.alphabet), sheet


def schreier_rewrite(cov: CoveringAction, trans: Transversal, w: Word) -> Word:
    """Rewrite a subgroup element into the Schreier generators: ``w`` walked from sheet 1."""
    rewritten, end = schreier_walk(cov, trans, 1, w)
    if end != 1:
        raise ValueError(f"not a subgroup element: {w} lands on sheet {end}")
    return rewritten


def expand_schreier_word(trans: Transversal, w: Word) -> Word:
    """Substitute each Schreier generator by its defining base-group word."""
    if w.alphabet != trans.alphabet:
        raise ValueError("word not over this transversal's Schreier generators")
    return _substitute(w, trans.defining_words, trans.covering.presentation.alphabet)


def subgroup_relators(cov: CoveringAction, trans: Transversal) -> tuple[Word, ...]:
    """Rewritten conjugates ``g_i R g_i^-1`` of every base relator: ``R`` walked from sheet i."""
    _check_pair(cov, trans)
    return tuple(
        schreier_walk(cov, trans, i, relator)[0]
        for relator in cov.presentation.relators
        for i in range(1, cov.n + 1)
    )


def compose_coverings(
    cov: CoveringAction, trans: Transversal, inner: CoveringAction
) -> CoveringAction:
    """Covering tower composed into a single action of the base group.

    ``inner`` must act on the Schreier generators of ``trans``, typically as
    a covering of ``trans`` itself.  Composite sheet ``(i, a)`` is numbered
    ``(i-1)*inner.n + a``; a base generator ``x`` moves ``i`` by the outer
    action and ``a`` by the inner action of ``x@i``, or not at all on a tree
    edge.
    """
    _check_pair(cov, trans)
    if inner.presentation.alphabet != trans.alphabet:
        raise ValueError("inner covering does not act on the Schreier generators of the outer one")
    unmoved = tuple(range(1, inner.n + 1))
    perms: dict[str, list[int]] = {}
    for gi, label in enumerate(cov.presentation.alphabet):
        images = []
        for i in range(1, cov.n + 1):
            offset = (cov.perms[gi][i - 1] - 1) * inner.n
            sg = trans.edge_to_generator[(i, gi)]
            images += [offset + b for b in (unmoved if sg is None else inner.perms[sg])]
        perms[label] = images
    return build_covering(cov.presentation, perms)


def covering_to_json(cov: CoveringAction) -> dict:
    return {
        "n": cov.n,
        "perms": {lbl: list(row) for lbl, row in zip(cov.presentation.alphabet, cov.perms)},
    }


def covering_from_json(
    presentation: GroupPresentation | DoubledPresentation | Transversal,
    doc: Mapping,
) -> CoveringAction:
    n = _as_int(doc["n"], "n")
    cov = build_covering(presentation, doc["perms"])
    if cov.n != n:
        raise ValueError(f"declared sheet count {doc['n']} does not match permutations on {cov.n}")
    return cov
