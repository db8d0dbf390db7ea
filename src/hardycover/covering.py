"""Finite unramified coverings as permutation actions, with Schreier machinery.

An n-sheeted unramified covering is encoded by one permutation of the sheets
``{1..n}`` per generator of the base group; the action must be transitive and
kill every relator.  Sheets are numbered from 1 throughout, sheet 1 being the
basepoint sheet; the arrays of a covering and a transversal count them
from 0.  Cosets are right cosets ``H g_i``, sheets carry the right action
``i . w``, and the sheet permutation of a word therefore composes as an
anti-homomorphism: ``sigma(w2 * w1) = sigma(w1) o sigma(w2)``.

The Schreier transversal is also the presentation of the covering subgroup
(Reidemeister-Schreier): its ``alphabet`` holds the Schreier generators'
labels ``X@i`` and its relators are the rewritten conjugates of the base
relators.  A covering can act for it, which is how covering towers are built.

Rewriting is one walk over the sheet graph: by definition ``g_k x g_{k.x}^-1``
is the Schreier generator ``x@k``, or the identity on a tree edge, so ``w``
walked from sheet k emits the rewrite of ``g_k w g_j^-1``, j being where the
walk ends.  One kernel walks a word from many sheets at once, one gather
per letter, into rows of signed codes ``+-(s+1)`` for Schreier generator
``s``; no tree word ``g_k``, nor the ``Word`` of a rewrite, is built unless
it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .groups import (
    DoubledPresentation,
    GroupPresentation,
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
    "covering_from_json",
]


@dataclass(frozen=True, eq=False)
class CoveringAction:
    """Transitive sheet action of a presented group, one permutation per generator.

    ``moves`` is the read-only ``(2G, n)`` table, counted from 0, of where
    each letter moves each sheet: ``forward``, the generators, then their
    inverses.  ``perms[g][i-1]``, 1-based, is made on first read.
    """

    presentation: GroupPresentation | DoubledPresentation | Transversal
    n: int
    moves: np.ndarray

    forward = property(lambda self: self.moves[: len(self.moves) // 2])

    @cached_property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, (self.forward + 1).tolist()))

    @cached_property
    def _tree(self) -> np.ndarray:
        """Breadth-first parent edges ``(i, gi)`` from sheet 1, along positive letters only, as a read-only array."""
        rows, seen, queue, tree = self.forward.tolist(), [True] + [False] * (self.n - 1), [0], []
        for i in queue:
            for gi, row in enumerate(rows):
                if not seen[row[i]]:
                    seen[row[i]] = True
                    tree.append((i + 1, gi))
                    queue.append(row[i])
        tree = np.array(tree, dtype=np.intp).reshape(-1, 2)
        tree.setflags(write=False)
        return tree


def build_covering(
    presentation: GroupPresentation | DoubledPresentation | Transversal,
    perms: Mapping[str, Sequence[int]],
    field: str = "perms",
) -> CoveringAction:
    """Validate and assemble a covering action from per-generator permutations; refusals name ``field[.X]``."""
    alphabet = presentation.alphabet
    refuse = lambda name, why: ValueError(f"invalid value for field {name!r}: {why}")
    if not isinstance(perms, Mapping):
        raise refuse(field, f"{perms!r} is not a mapping of generators to sheet images")
    missing = [lbl for lbl in alphabet if lbl not in perms]
    if missing:
        raise refuse(field, f"no permutation supplied for generator(s) {missing}")
    unknown = [lbl for lbl in perms if lbl not in alphabet]
    if unknown:
        raise refuse(field, f"permutation supplied for unknown generator(s) {unknown}")
    for lbl in alphabet:
        if not isinstance(perms[lbl], (Sequence, np.ndarray)):
            raise refuse(f"{field}.{lbl}", f"{perms[lbl]!r} is not a list of sheets")

    sizes = {len(perms[lbl]) for lbl in alphabet}
    if len(sizes) > 1:
        raise refuse(field, f"permutations act on different sheet counts {sorted(sizes)}")
    n = sizes.pop() if sizes else 1
    if n < 1:
        raise refuse(field, "sheet count must be at least 1")
    rows = [[v if type(v) is int else _as_int(v, f"{field}.{lbl}") for v in perms[lbl]] for lbl in alphabet]
    for lbl, row in zip(alphabet, rows):
        if sorted(row) != list(range(1, n + 1)):
            raise refuse(f"{field}.{lbl}", f"images for generator {lbl} are not a bijection of 1..{n}")
    g = len(rows)
    moves = np.zeros((2 * g, n), dtype=np.intp)
    moves[:g] = np.array(rows, dtype=np.intp).reshape(-1, n) - 1
    moves[np.arange(g, 2 * g)[:, None], moves[:g]] = np.arange(n)  # the inverses
    moves.setflags(write=False)
    cov = CoveringAction(presentation=presentation, n=n, moves=moves)

    if len(cov._tree) != n - 1:
        reached = {1} | {cov.perms[gi][i - 1] for i, gi in cov._tree.tolist()}
        unreachable = [k for k in range(1, n + 1) if k not in reached]
        raise refuse(field, f"disconnected cover: sheets {unreachable} unreachable")

    every = np.arange(n)
    for relator in presentation.relators:
        ends = _walk(cov.moves, relator, every)[2]
        if (ends != every).any():
            image = tuple((ends + 1).tolist())
            raise refuse(field, f"not a covering of this surface: relator {relator} acts as {image}")
    return cov


def identity_covering(
    presentation: GroupPresentation | DoubledPresentation | Transversal,
) -> CoveringAction:
    return build_covering(presentation, {lbl: (1,) for lbl in presentation.alphabet})


def _rolled_covering(
    presentation: GroupPresentation | DoubledPresentation | Transversal, n: int
) -> CoveringAction:
    """The n-sheeted cover on which the first generator rolls the sheets and every other fixes them.

    Written directly, as ``build_covering`` returns it: the action is
    transitive, its breadth-first tree is the path along the first
    generator, and a relator acts as the roll by its exponent sum in that
    generator.  The caller vouches that every sum is 0, since the checks of
    outside input are not run.
    """
    g = len(presentation.alphabet)
    shift = np.zeros((2 * g, 1), dtype=np.intp)
    shift[0], shift[g] = 1, -1  # the first generator, and its inverse
    moves = (np.arange(n, dtype=np.intp) + shift) % n
    moves.setflags(write=False)
    cov = CoveringAction(presentation=presentation, n=n, moves=moves)
    tree = np.zeros((n - 1, 2), dtype=np.intp)  # the cached breadth-first tree: (i, 0) for i in 1..n-1
    tree[:, 0] = np.arange(1, n)
    tree.setflags(write=False)
    vars(cov)["_tree"] = tree
    return cov


def _walk(steps: np.ndarray, w: Word, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``w`` walked from each of ``starts`` at once: code rows, zero past their lengths; end sheets.

    ``steps[c, k]`` is where letter ``c`` (generator ``c``, or ``c - G``
    inverted) moves sheet ``k``, for a transversal with the code it emits
    there (0 on a tree edge).  A reduced word emits a reduced row, each its
    ``Word``'s letters: a code next to its inverse would need a closed walk
    of tree edges between them, which backtracks.
    """
    g, sheets, r = len(steps) // 2, starts, np.arange(len(starts))
    rows = np.zeros((len(starts), len(w.letters)), dtype=np.intp)
    lengths = np.zeros(len(starts), dtype=np.intp)
    for gen, exp in w.letters:
        sheets = steps[gen if exp > 0 else gen + g, sheets]
        if sheets.ndim == 2:  # a transversal's step: the sheet and the code
            sheets, code = sheets[:, 0], sheets[:, 1]
            rows[r, lengths] = code  # a tree edge's 0 is overwritten by the next code
            lengths += code != 0
    return rows[:, : lengths.max(initial=0)], lengths, sheets


def _word(row: np.ndarray, alphabet: tuple[str, ...]) -> Word:
    """The ``Word`` of a zero-padded row of signed codes."""
    return Word(tuple((abs(c) - 1, 1 if c > 0 else -1) for c in row.tolist() if c), alphabet)


def _check_word(cov: CoveringAction, w: Word) -> None:
    if w.alphabet != cov.presentation.alphabet:
        raise ValueError("word not over this covering's generators")


def coset_of(cov: CoveringAction, w: Word) -> int:
    """Sheet reached from the basepoint sheet 1 under the right action of ``w``."""
    _check_word(cov, w)
    return int(_walk(cov.moves, w, np.zeros(1, dtype=np.intp))[2][0]) + 1


def sigma(cov: CoveringAction, w: Word) -> tuple[int, ...]:
    """Sheet permutation of ``w``: entry ``i-1`` is the sheet ``i . w``."""
    _check_word(cov, w)
    return tuple((_walk(cov.moves, w, np.arange(cov.n))[2] + 1).tolist())


@dataclass(frozen=True, eq=False)
class Transversal:
    """Schreier transversal of the covering subgroup, and the subgroup's presentation.

    There is one Schreier generator per non-tree edge, numbered in sheet
    order; the read-only ``(G, n)`` array ``edges[gi, i-1]`` holds its
    index, or -1 on a tree edge.  Induction, rewriting and folds run on the
    indices alone, so ``alphabet``, which labels them ``X@i`` for the edge
    (sheet i, generator X), is made from ``edges`` on first read; so is
    ``tree_edges``, one parent edge ``(i, gi)`` per sheet past sheet 1 in
    breadth-first discovery order, from the covering's tree.  As a
    presentation it has ``alphabet`` and ``relators``, so coverings and
    representations can be built on it.  The relators are rewritten once,
    into ``relator_rows``; their ``Word`` form, the tree words ``reps`` and
    the ``defining_words`` are built on first read, and ``word_strings``
    writes the latter two with no ``Word`` built.
    """

    covering: CoveringAction
    edges: np.ndarray

    @cached_property
    def tree_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.covering._tree.tolist()))

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """The Schreier generators' labels ``X@i``, in the order of their indices in ``edges``."""
        labels = self.covering.presentation.alphabet
        sheets, gens = np.nonzero(self.edges.T >= 0)
        return tuple(f"{labels[gi]}@{i + 1}" for i, gi in zip(sheets.tolist(), gens.tolist()))

    @cached_property
    def reps(self) -> tuple[Word, ...]:
        """``reps[i-1]``, the tree word ``g_i`` from sheet 1 to sheet i."""
        cov = self.covering
        letters: list[tuple[tuple[int, int], ...]] = [()] * cov.n
        for i, gi in self.tree_edges:
            letters[cov.forward[gi, i - 1]] = letters[i - 1] + ((gi, 1),)
        return tuple(Word(w, cov.presentation.alphabet) for w in letters)

    @cached_property
    def defining_words(self) -> tuple[Word, ...]:
        """Base-group word ``g_i x g_{i.x}^-1`` of every Schreier generator ``x@i``."""
        forward, reps = self.covering.forward.tolist(), self.reps
        words = []
        for i, gi in zip(*(index.tolist() for index in np.nonzero(self.edges.T >= 0))):
            back = reps[forward[gi][i]].inverse()
            words.append(Word(reps[i].letters + ((gi, 1),) + back.letters, back.alphabet))
        return tuple(words)

    @cached_property
    def word_strings(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """``str`` of every word of ``reps`` and of ``defining_words``, joined from tree-word strings.

        ``g_i x g_{i.x}^-1`` needs no free reduction: tree words hold only positive
        letters, and off the tree ``x`` is not the last letter of ``g_{i.x}``.
        """
        forward, labels = self.covering.forward.tolist(), self.covering.presentation.alphabet
        words, inverses = [""] * self.covering.n, [""] * self.covering.n
        for i, gi in self.tree_edges:
            j, x = forward[gi][i - 1], labels[gi]
            words[j], inverses[j] = f"{words[i - 1]} {x}".lstrip(), f"{x}^-1 {inverses[i - 1]}".rstrip()
        edges = zip(*(index.tolist() for index in np.nonzero(self.edges.T >= 0)))
        joined = (" ".join(filter(None, (words[i], labels[gi], inverses[forward[gi][i]]))) for i, gi in edges)
        return tuple(word or "1" for word in words), tuple(joined)

    @cached_property
    def relator_rows(self) -> np.ndarray:
        """The covering subgroup's relators as zero-padded rows of signed codes, rewritten on first use."""
        return _rewrite_relators(self)

    @cached_property
    def relators(self) -> tuple[Word, ...]:
        """The covering subgroup's relators as words, built from ``relator_rows`` on first use."""
        return subgroup_relators(self.covering, self)

    @cached_property
    def _steps(self) -> np.ndarray:
        """The covering's walk table, each step emitting the signed code of the edge it crosses."""
        cov, codes = self.covering, self.edges + 1  # edge (k, g) crossed forwards, from k
        steps = np.zeros((*cov.moves.shape, 2), dtype=np.intp)
        steps[..., 0], steps[: len(codes), :, 1] = cov.moves, codes
        steps[len(codes) :, :, 1][np.arange(len(codes))[:, None], cov.forward] = -codes  # backwards
        return steps

    def walk_sheets(self, w: Word) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``w`` walked from every sheet: row k rewrites ``g_{k+1} w g_j^-1``; lengths; sheets j, from 0."""
        return _walk(self._steps, w, np.arange(self.covering.n))


def schreier_transversal(cov: CoveringAction) -> Transversal:
    """Breadth-first Schreier transversal in sheet order, generators in presentation order.

    Tree edges follow positive generator letters only, which for permutation
    actions always span the sheets; they are the search ``build_covering``
    ran to find the cover connected.  The free edges are numbered through
    one mask over the tree; no word, and no label, is built here.
    """
    tree, g = cov._tree, len(cov.presentation.alphabet)
    free = np.ones((cov.n, g), dtype=bool)  # sheet-major, the order of the indices
    free[tree[:, 0] - 1, tree[:, 1]] = False
    edges = np.full((g, cov.n), -1, dtype=np.intp)
    edges.T[free] = np.arange(cov.n * g - len(tree))
    edges.setflags(write=False)
    return Transversal(covering=cov, edges=edges)


def _check_pair(cov: CoveringAction, trans: Transversal) -> None:
    if trans.covering is not cov:
        raise ValueError("transversal was built from a different covering")


def schreier_walk(
    cov: CoveringAction, trans: Transversal, start: int, w: Word
) -> tuple[Word, int]:
    """Walk ``w`` from sheet ``start``: the rewrite of ``g_start w g_end^-1``, and ``end``.

    Each non-tree edge traversed emits its Schreier generator (inverted when
    crossed backwards); tree edges emit nothing.  The one-sheet case of the
    walk from every sheet.
    """
    _check_pair(cov, trans)
    _check_word(cov, w)
    if not 1 <= start <= cov.n:
        raise ValueError(f"sheet {start} outside 1..{cov.n}")
    rows, _, ends = _walk(trans._steps, w, np.array([start - 1]))
    return _word(rows[0], trans.alphabet), int(ends[0]) + 1


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


def _rewrite_relators(trans: Transversal) -> np.ndarray:
    """Every base relator walked from every sheet, relator-major, as one zero-padded array."""
    walks = [trans.walk_sheets(relator)[0] for relator in trans.covering.presentation.relators]
    width = max(walk.shape[1] for walk in walks)
    pad = lambda walk: np.pad(walk, ((0, 0), (0, width - walk.shape[1]))) if walk.shape[1] < width else walk
    rows = np.concatenate([pad(walk) for walk in walks])
    rows.setflags(write=False)
    return rows


def subgroup_relators(cov: CoveringAction, trans: Transversal) -> tuple[Word, ...]:
    """Rewritten conjugates ``g_i R g_i^-1`` of every base relator: ``R`` walked from sheet i."""
    _check_pair(cov, trans)
    return tuple(_word(row, trans.alphabet) for row in trans.relator_rows)


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
    inner_moves = np.concatenate([np.arange(inner.n)[None], inner.forward])  # row 0: unmoved
    images = cov.forward[:, :, None] * inner.n + inner_moves[trans.edges + 1] + 1
    perms = {label: row.reshape(-1).tolist() for label, row in zip(cov.presentation.alphabet, images)}
    return build_covering(cov.presentation, perms)


def covering_from_json(
    presentation: GroupPresentation | DoubledPresentation | Transversal,
    doc: Mapping,
    prefix: str = "",
) -> CoveringAction:
    """The covering of a ``{"n", "perms"}`` document; each refusal names its field, after ``prefix``."""
    for name in ("n", "perms"):
        if name not in doc:
            raise ValueError(f"missing required field {prefix + name!r}")
    n = _as_int(doc["n"], prefix + "n")
    cov = build_covering(presentation, doc["perms"], prefix + "perms")
    if cov.n != n:
        message = f"declared sheet count {doc['n']} does not match permutations on {cov.n}"
        raise ValueError(f"invalid value for field {prefix + 'n'!r}: {message}")
    return cov
