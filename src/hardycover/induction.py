"""Unitary matrix representations, extension to the double, and induction.

``MatrixRep`` is the one representation type: one matrix per generator of a
presentation.  The presentation may be a surface group, its double, or a
Schreier transversal, which presents the covering subgroup; so the boundary
representation ``chi_X1``, the subgroup representation ``chi1`` and the
induced ``chi2`` (of rank ``n m``) are all ``MatrixRep``.

Every matrix is a ``BlockMonomial``: a sheet permutation plus one ``m x m``
block per sheet; an ordinary matrix is the case ``n = 1``.  By the block
formulas below, a product costs one batched ``m x m`` product per sheet, and
no ``nm x nm`` array is formed except by ``dense``.  A
representation stacks its images and their adjoints in one table, and
evaluates a batch of words together: each letter position costs one gather
and one batched product for every word still running, so its checks take
as many array operations as the longest relator has letters, not one
product per letter of every relator.

The three constructions here are the block formulas of the covering theory:

* extension of a boundary-compatible representation from the bordered surface
  to its double, with ``chi(B_j) = G J_j`` and mirrored handles conjugated by
  the pairing matrix ``G``;
* the induced representation of the full group from a representation of the
  covering subgroup: block ``(k, k.x)`` of the image of a generator ``x`` is
  ``chi1(x@k)``, or ``I`` on a tree edge of the transversal;
* the transported pairing matrix ``G2`` with block ``(k, nu(k))`` equal to
  ``G1 chi1(h_k)``: along a tree edge ``i -x-> j``, ``h_j`` is ``h_i`` times
  ``tau(x)`` walked from sheet ``nu(i)``, and ``nu(j)`` is where that walk
  ends; and the per-component block-diagonal signature matrices ``J_2``,
  each base value of ``J_1`` repeated on every sheet.

All identities asserted by these constructions are re-verified numerically at
build time rather than trusted, blockwise: a block off the sheet pattern still
counts, and a check records the block where its largest residual sits.  A
report is one ``CheckReport`` table, made by one ``_checks`` call from the
per-block residuals and columns that ``_compare`` makes of a list of stacked
comparisons: each row's largest residual and its block are its columns, and
``_checks`` fills in the tolerance.  A ``Check`` is one of its rows, made
only when read.

A construction folds a representation's check rows once, with the words it
reads: ``extend_to_double`` the double's mirrored generators, and in the
cyclic pipeline ``induce_representation`` the symmetry report's words.
``chi1``'s checks are regrouped from ``chi2``'s fold, not folded, and only
when first read if ``chi2``'s pass (see ``induce_representation``).  A value
built here from validated parts is made trusted, not validated again, and a
table already held is read, not rebuilt: ``MatrixRep._of_table`` takes
gathered rows of another table (the cyclic ``chi1``'s, of ``chi_X1``'s),
and ``pairing_signature_matrices`` reads ``chi2(B_i)^*`` from ``chi2``'s.
``extend_to_double`` makes its check table only for the ``ExtensionError``
of a failing extension.

What a presentation alone determines is built once per presentation object
and kept on it, as its layout (``_Layout``): the check rows' code rows and
names, ``tau``'s code rows, the symmetry words and their code rows, the
sort plans of the folds made over it, and the symmetry report's names and
row order.  Nothing that depends on a representation, a cover or a sheet
count is kept, so a presentation made for one op makes these once, and the
cyclic family's one torus makes them once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import zip_longest
from typing import Mapping, Sequence

import numpy as np

from .covering import CoveringAction, Transversal
from .groups import (
    DoubledPresentation,
    GroupPresentation,
    Word,
    boundary_loop,
    mirror_monodromy,
)

__all__ = [
    "TOL_EXACT",
    "BlockMonomial",
    "Check",
    "CheckReport",
    "MatrixRep",
    "SignatureData",
    "ExtensionError",
    "check_representation",
    "extend_to_double",
    "induce_representation",
    "build_G2",
    "build_J2_diagonal",
    "pairing_signature_matrices",
    "verify_symmetry_conditions",
]

# Identities that hold by construction are checked to 1e-12.
TOL_EXACT = 1e-12


@dataclass(frozen=True, eq=False)
class BlockMonomial:
    """An ``nm x nm`` matrix whose block row ``k`` holds ``blocks[k]`` in block column ``perm[k]``.

    Sheets count from 0 and both arrays are read-only copies.  ``perm`` is a
    permutation for the images of a ``MatrixRep`` (which refuses any other)
    and ``J2``, and for ``G2`` when the covering subgroup is invariant under
    the involution; ``adjoint`` needs one.
    """

    perm: np.ndarray
    blocks: np.ndarray

    def __post_init__(self) -> None:
        perm, blocks = np.array(self.perm, dtype=np.intp), np.array(self.blocks, dtype=complex, order="C")
        n = len(perm)
        if perm.ndim != 1 or blocks.ndim != 3 or blocks.shape[:2] != (n, blocks.shape[2]):
            raise ValueError(f"blocks of shape {blocks.shape} do not fit {perm.shape} sheets")
        if n and not 0 <= perm.min() <= perm.max() < n:
            raise ValueError(f"block columns {perm.tolist()} outside the {n} sheets")
        _freeze(self, perm, blocks)

    @classmethod
    def of(cls, matrix: "BlockMonomial | np.ndarray") -> "BlockMonomial":
        """``matrix`` itself if block-monomial, else a square matrix as the one-sheet case."""
        if isinstance(matrix, cls):
            return matrix
        return cls(np.zeros(1, dtype=np.intp), np.asarray(matrix, dtype=complex)[None])

    n = property(lambda self: self.blocks.shape[0])
    m = property(lambda self: self.blocks.shape[1])

    def __matmul__(self, other: "BlockMonomial") -> "BlockMonomial":
        """Row k is ``blocks[k] @ other.blocks[perm[k]]``, in column ``other.perm[perm[k]]``."""
        if self.blocks.shape != other.blocks.shape:
            raise ValueError(f"block shapes {self.blocks.shape} and {other.blocks.shape} differ")
        return _trusted(other.perm[self.perm], self.blocks @ other.blocks[self.perm])

    def adjoint(self) -> "BlockMonomial":
        inverse = np.full(self.n, -1)
        inverse[self.perm] = np.arange(self.n)
        if inverse.min() < 0:
            raise ValueError("the adjoint is block-monomial only for a sheet permutation")
        return _trusted(inverse, self.blocks[inverse].conj().swapaxes(1, 2))

    def dense(self) -> np.ndarray:
        """The ``nm x nm`` matrix, the dense reference that block results are checked against."""
        n, m = self.n, self.m
        out = np.zeros((n, m, n, m), dtype=complex)
        out[np.arange(n), :, self.perm, :] = self.blocks
        return out.reshape(n * m, n * m)


def _freeze(out: BlockMonomial, perm: np.ndarray, blocks: np.ndarray) -> BlockMonomial:
    perm.setflags(write=False)
    blocks.setflags(write=False)
    object.__setattr__(out, "perm", perm)
    object.__setattr__(out, "blocks", blocks)
    return out


def _trusted(perm: np.ndarray, blocks: np.ndarray) -> BlockMonomial:
    """The result of an operation on valid block-monomials, which needs no check."""
    return _freeze(object.__new__(BlockMonomial), perm, blocks)


@dataclass(frozen=True)
class Check:
    """One row of a ``CheckReport``: a named residual and the tolerance it must stay below, as floats.

    ``block`` is the block ``(row, column)`` of the largest residual where
    there is one: a sheet block, or for the isometry Gram checks the Laurent
    degrees ``(d', d)``.  It is kept out of the JSON form.
    """

    name: str
    residual: float
    tolerance: float
    block: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


# the block of a row that has none; a sheet block counts from 1, but Gram degrees can be 0 or negative
_NO_BLOCK = np.iinfo(np.intp).min


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Named residuals and the tolerances they must stay below, as one column table.

    ``names`` holds one name per row; ``residuals`` and ``tolerances`` are
    float arrays and ``blocks`` a ``(k, 2)`` int array, all read-only (the
    constructor copies what it is given).  A row passes when its residual is below its tolerance, so a NaN
    residual fails.  ``checks``, ``failing`` and ``worst`` make ``Check`` rows
    on demand; ``passed``, ``prefixed`` and ``+`` read and join the columns.
    """

    names: tuple[str, ...]
    residuals: np.ndarray
    tolerances: np.ndarray
    blocks: np.ndarray

    def __post_init__(self) -> None:
        residuals, tolerances = np.array(self.residuals, dtype=float), np.array(self.tolerances, dtype=float)
        blocks = np.array(self.blocks, dtype=np.intp).reshape(-1, 2)
        if not len(self.names) == len(residuals) == len(tolerances) == len(blocks):
            lengths = [len(column) for column in (residuals, tolerances, blocks)]
            raise ValueError(f"{len(self.names)} names for columns of {lengths} rows")
        _fill_table(self, tuple(self.names), residuals, tolerances, blocks)

    @classmethod
    def rows(cls, rows: Sequence[tuple[str, float, float, tuple[int, int] | None]]) -> "CheckReport":
        """The table of ``(name, residual, tolerance, block)`` rows, ``block`` None where there is none."""
        names, residuals, tolerances, blocks = zip(*rows) if rows else ((),) * 4
        blocks = np.array([(_NO_BLOCK, _NO_BLOCK) if b is None else b for b in blocks], dtype=np.intp).reshape(-1, 2)
        return _trusted_table(names, np.array(residuals, dtype=float), np.array(tolerances, dtype=float), blocks)

    @property
    def passed(self) -> bool:
        return bool((self.residuals < self.tolerances).all())  # NaN fails

    @property
    def checks(self) -> tuple[Check, ...]:
        return self._rows(np.arange(len(self.names)))

    def failing(self) -> tuple[Check, ...]:
        return self._rows(self._failing())

    def worst(self) -> str:
        """The worst failing check, a NaN first: its name, block, residual and tolerance; or that none failed."""
        failing = self._failing()
        if not len(failing):
            return "no check failed"
        (c,) = self._rows(failing[[self.residuals[failing].argmax()]])
        return f"{c.name} at block {c.block}: {c.residual:.1e} vs {c.tolerance:g}"

    def prefixed(self, prefix: str) -> "CheckReport":
        """The same checks, each name after ``prefix``: the columns are shared."""
        names = tuple(prefix + name for name in self.names)
        return _trusted_table(names, self.residuals, self.tolerances, self.blocks)

    def __add__(self, other: "CheckReport") -> "CheckReport":
        """The rows of ``self``, then those of ``other``, one concatenation per column; an empty table adds none."""
        if not (self.names and other.names):
            return other if other.names else self
        pairs = zip((self.residuals, self.tolerances, self.blocks), (other.residuals, other.tolerances, other.blocks))
        return _trusted_table(self.names + other.names, *map(np.concatenate, pairs))

    def _failing(self) -> np.ndarray:
        return np.flatnonzero(~(self.residuals < self.tolerances))  # NaN fails

    def _rows(self, indices: np.ndarray) -> tuple[Check, ...]:
        residuals, tolerances, blocks = (a[indices].tolist() for a in (self.residuals, self.tolerances, self.blocks))
        names = [self.names[i] for i in indices.tolist()]
        return tuple(
            Check(name, residual, tolerance, None if block[0] == _NO_BLOCK else tuple(block))
            for name, residual, tolerance, block in zip(names, residuals, tolerances, blocks)
        )


def _fill_table(out: CheckReport, names: tuple[str, ...], residuals, tolerances, blocks) -> CheckReport:
    residuals.setflags(write=False)
    tolerances.setflags(write=False)
    blocks.setflags(write=False)
    vars(out).update(names=names, residuals=residuals, tolerances=tolerances, blocks=blocks)
    return out


def _trusted_table(names: tuple[str, ...], residuals, tolerances, blocks) -> CheckReport:
    """A table made by an operation on valid tables or from a comparison's arrays, which needs no check."""
    return _fill_table(object.__new__(CheckReport), names, residuals, tolerances, blocks)


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Representation of a presented group by one matrix per generator.

    The presentation is a surface group, its double, or a Schreier
    transversal (the covering subgroup on its Schreier generators).  Images
    are given by generator label, one for each label of the alphabet and no
    other, as ``m x m`` arrays or as block-monomials of total rank ``m``,
    all of one block shape; each must permute the sheets.  They are stored
    in one read-only table of ``2G + 1`` entries, sheet maps ``(2G + 1, n)``
    and blocks ``(2G + 1, n, m, m)``: the identity, the images in alphabet
    order, then their adjoints in reverse order, so that entry ``x + 1``
    holds generator ``x`` and entry ``-(x + 1)`` its adjoint.  ``images``
    maps each generator to a view into that table.
    """

    presentation: GroupPresentation | DoubledPresentation | Transversal
    m: int
    images: Mapping[str, BlockMonomial]

    def __post_init__(self) -> None:
        alphabet = self.presentation.alphabet
        missing = [lbl for lbl in alphabet if lbl not in self.images]
        if missing:
            raise ValueError(f"no image supplied for generator(s) {missing}")
        if len(self.images) != len(alphabet):  # every generator has its image, so the rest are unknown
            unknown = [lbl for lbl in self.images if lbl not in alphabet]
            raise ValueError(f"image supplied for unknown generator(s) {unknown}")
        images = [BlockMonomial.of(self.images[lbl]) for lbl in alphabet]
        n, m, _ = images[0].blocks.shape if images else (1, self.m, 0)
        if n * m != self.m or any(img.blocks.shape != (n, m, m) for img in images):
            shapes = {lbl: img.blocks.shape for lbl, img in zip(alphabet, images)}
            raise ValueError(f"image blocks {shapes} are not one block shape of rank {self.m}")
        perms = np.array([img.perm for img in images], dtype=np.intp).reshape(-1, n)
        blocks = np.array([img.blocks for img in images], dtype=complex).reshape(-1, n, m, m)
        vars(self).update(vars(MatrixRep._stacked(self.presentation, perms, blocks)))

    @classmethod
    def _stacked(cls, presentation, perms: np.ndarray, blocks: np.ndarray) -> "MatrixRep":
        """The representation of the images stacked in alphabet order, ``(G, n)`` maps and blocks."""
        g, n, m, _ = blocks.shape
        inverse, adjoints = _adjoint(perms, blocks)
        if inverse.min(initial=0) < 0:  # a sheet no block column reaches
            bad = (inverse < 0).any(axis=1).argmax()
            repeated = np.flatnonzero(np.bincount(perms[bad], minlength=n) > 1) + 1
            raise ValueError(
                f"image of {presentation.alphabet[bad]} is not a sheet permutation: "
                f"block columns {repeated.tolist()} repeat"
            )
        table = (np.concatenate([np.arange(n)[None], perms, inverse[::-1]]),
                 np.empty((2 * g + 1, n, m, m), dtype=complex))
        table[1][0], table[1][1 : g + 1], table[1][g + 1 :] = np.eye(m), blocks, adjoints[::-1]
        return cls._of_table(presentation, table)

    @classmethod
    def _of_table(cls, presentation, table: tuple[np.ndarray, np.ndarray]) -> "MatrixRep":
        """The representation of ``table``, fresh arrays laid out as ``_stacked`` lays them; made read-only."""
        for array in table:
            array.setflags(write=False)
        rep = object.__new__(cls)
        _, n, m, _ = table[1].shape
        vars(rep).update(presentation=presentation, m=n * m, _table=table, images=_TableImages(presentation, table))
        return rep

    def evaluate_many(self, words: Sequence[Word]) -> tuple[np.ndarray, np.ndarray]:
        """The images of ``words``: sheet maps ``(W, n)`` and blocks ``(W, n, m, m)``.

        Each image is the product of its letters' images and adjoints, taken
        left to right as one ``BlockMonomial`` product per letter would take
        it; all words share one pass over the letter positions of the longest.
        """
        return self._fold(_plan(self._rows(words)))

    def _rows(self, words: Sequence[Word]) -> np.ndarray:
        """Each word as a row of signed codes, zero past its end: ``+-(x+1)`` for generator ``x``."""
        alphabet = self.presentation.alphabet
        if any(w.alphabet is not alphabet and w.alphabet != alphabet for w in words):
            raise ValueError("word not over this representation's generators")
        return _word_rows(words)

    def _fold(self, plan: tuple[np.ndarray, tuple[int, ...], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The left fold of each row of signed codes that ``_plan`` planned; an empty row gives the identity.

        A letter's signed code is its entry in the table.  Each letter
        position costs one ``_product`` over the rows still running there,
        a prefix of the sorted stack, however many rows there are.  No row is
        padded with identity factors: each image is the product of its own
        letters, in their order.
        """
        codes, running, back = plan
        perms, blocks = self._table[0][codes[0]], self._table[1][codes[0]]
        for position, a in zip(codes[1:], running):
            perms[:a], blocks[:a] = _product(perms[:a], blocks[:a], position[:a], self._table)
        return perms[back], blocks[back]

    def _checked(self, plan) -> tuple[tuple[str, ...], tuple, tuple[np.ndarray, np.ndarray]]:
        """One fold of ``plan``, a plan of the presentation's layout: the checks' names and comparison, the rest folded.

        The layout's check rows are ``chi(x) chi(x)^*``, an image then its
        adjoint, for each generator, then the relators; the plan folds them,
        then the rows it adds.  The comparison pairs their stack with the
        identity.
        """
        names = _Layout(self.presentation).checks[1]
        perms, blocks = self._fold(plan)
        count = len(names)
        check = (perms[:count], blocks[:count]), (self._table[0][0], self._table[1][0])
        return names, check, (perms[count:], blocks[count:])

    @cached_property
    def _check_report(self) -> CheckReport:
        """The check table, folded; or regrouped from the fold of a passing induction that left it to be read."""
        regroup = vars(self).pop("_regroup", None)
        if regroup is not None:
            return regroup()
        names, check, _ = self._checked(_Layout(self.presentation).check_plan)
        return _checks(names, _compare([check]))


def _check_names(alphabet: Sequence[str], relators: int) -> list[str]:
    """The names of a representation's check rows: ``unitarity`` per generator, then ``relator`` per relator."""
    return [f"unitarity[{label}]" for label in alphabet] + [f"relator[{i}]" for i in range(relators)]


class _TableImages(Mapping):
    """A representation's images by generator label: views into its table, made on first use.

    The index of the labels is made on first use too, so a representation
    that is only folded never reads its presentation's labels.
    """

    def __init__(self, presentation, table: tuple[np.ndarray, np.ndarray]):
        self._presentation, self._table, self._made = presentation, table, {}

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self._presentation.alphabet, start=1)}

    def __getitem__(self, label: str) -> BlockMonomial:
        if label not in self._made:
            i = self._rows[label]
            self._made[label] = _trusted(self._table[0][i], self._table[1][i])
        return self._made[label]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._table[0]) // 2  # the identity, then each image and its adjoint


def _product(perms: np.ndarray, blocks: np.ndarray, rows, table) -> tuple[np.ndarray, np.ndarray]:
    """``BlockMonomial.__matmul__`` over a stack: entry ``w`` times entry ``rows[w]`` of ``table``.

    A stack is a pair of sheet maps ``(W, n)`` and blocks ``(W, n, m, m)``,
    as is ``table``.  One flat gather of the table's blocks at the sheet maps
    and one batched product.
    """
    n, m = table[0].shape[1], table[1].shape[-1]
    flat = np.asarray(rows)[:, None] * n + perms
    return table[0].reshape(-1)[flat], blocks @ table[1].reshape(-1, m, m)[flat]


def _code_rows(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Rows of signed codes as one array, zero past each row's end."""
    codes = np.array(list(zip_longest(*rows, fillvalue=0)), dtype=np.intp).T
    return codes if codes.ndim == 2 else np.zeros((len(rows), 0), dtype=np.intp)


def _word_rows(words: Sequence[Word]) -> np.ndarray:
    """Each word as a row of signed codes, zero past its end: ``+-(x+1)`` for generator ``x``."""
    return _code_rows([[gen + 1 if exp > 0 else -gen - 1 for gen, exp in w.letters] for w in words])


def _plan(rows: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """How ``MatrixRep._fold`` runs ``rows`` of signed codes: sorted codes, running counts and the way back.

    Rows run sorted by length, longest first, so the rows still running at a
    letter position are a prefix of the stack.  The plan holds the sorted
    rows position-major (one position of zeros, the identity's entry, if no
    row has a letter), the count of rows longer than each position past the
    first, and the index that puts the results back in the given order.  It
    reads no representation, so one plan serves every fold of those rows;
    its arrays are read-only.
    """
    lengths = np.count_nonzero(rows, axis=1)
    order = np.argsort(-lengths, kind="stable")
    ordered = rows[order] if rows.shape[1] else np.zeros((len(rows), 1), dtype=np.intp)
    running = tuple(np.searchsorted(-lengths[order], -np.arange(1, ordered.shape[1])).tolist())
    back = np.argsort(order)
    return _read_only(ordered).T, running, _read_only(back)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only, copied first if it views another array, which could still be written."""
    if array.base is not None:
        array = array.copy()
    array.setflags(write=False)
    return array


def _piece(make):
    """A layout piece: ``make(p)``, made on first read and kept in ``p``'s ``_layout`` dict."""
    name = make.__name__

    def read(layout: "_Layout"):
        kept = layout.kept
        if name not in kept:
            kept[name] = make(layout.p)
        return kept[name]

    return property(read, doc=make.__doc__)


class _Layout:
    """Presentation ``p``'s layout: what the checks and folds over ``p`` read of ``p`` alone, for any representation.

    The pieces live in ``p``'s ``_layout`` dict, each made on first read, so
    every representation of ``p``, in every op, reads the same ones, and a
    presentation made fresh for one op (a parsed ``induce`` config) makes
    only the pieces that op reads.  The dict holds no reference back to
    ``p``; this view of it is made per use.  Words are kept as tuples and
    arrays read-only, so no reader can change what later readers get.  The
    sort plans of the cyclic pipeline's two folds over the torus, of
    ``chi_X1``'s checks with ``tau`` and of ``chi2``'s with the symmetry
    words, are among the pieces.
    """

    __slots__ = ("p", "kept")

    def __init__(self, p):
        self.p, self.kept = p, vars(p).setdefault("_layout", {})

    @_piece
    def checks(p) -> tuple[np.ndarray, tuple[str, ...]]:
        """The check rows as code rows, ``x x^-1`` per generator then the relators, and their names.

        A transversal's relators are the code rows it rewrote them into, with no Word between.
        """
        g = len(p.alphabet)
        relators = p.relator_rows if isinstance(p, Transversal) else _word_rows(p.relators)
        rows = np.zeros((g + len(relators), max(relators.shape[1], 2)), dtype=np.intp)
        rows[:g, :2], rows[g:, : relators.shape[1]] = np.arange(1, g + 1)[:, None] * [1, -1], relators
        return _read_only(rows), tuple(_check_names(p.alphabet, len(relators)))

    @_piece
    def check_plan(p):
        """The plan of a fold of the check rows alone."""
        return _plan(_Layout(p).checks[0])

    @_piece
    def tau(p) -> tuple[np.ndarray, tuple[str, ...]]:
        """The mirrored generators ``tau(x)`` as code rows, and the names of their pairing-symmetry rows."""
        return _read_only(_word_rows(p.tau)), tuple(f"pairing-symmetry[{label}]" for label in p.alphabet)

    @_piece
    def tau_plan(p):
        """The plan of ``extend_to_double``'s fold: the check rows, then ``tau(x)``."""
        return _plan(_joined(_Layout(p).checks[0], _Layout(p).tau[0]))

    @_piece
    def symmetry(p) -> tuple[tuple[Word, ...], np.ndarray]:
        """``_symmetry_words(p)``, and their code rows."""
        words = _symmetry_words(p)
        return words, _read_only(_word_rows(words))

    @_piece
    def symmetry_plan(p):
        """The plan of the cyclic pipeline's fold of ``chi2``: the check rows, then the symmetry words."""
        return _plan(_joined(_Layout(p).checks[0], _Layout(p).symmetry[1]))

    @_piece
    def symmetry_report(p) -> tuple[tuple[str, ...], np.ndarray]:
        """``_symmetry_report``'s row names and the order it reads its comparisons' rows in, route rows last.

        The comparisons' rows are G2's then each J2's selfadjointness (``0``,
        ``1 + comp``), the pairing symmetry (from ``1 + k``), ``J2 J2`` (from
        ``1 + k + g``), the boundary compatibility (from ``1 + 2k + g``), the
        transport (from ``1 + 3k + g``) and the signature routes (from
        ``1 + 3k + g + kg``).  The report gives G2's selfadjointness, the
        pairing symmetry, the three signature rows per component, the
        transport, then the routes.
        """
        g, k, comps = len(p.alphabet), p.k, np.arange(p.k)
        per_comp = (comps[:, None] + [1, 1 + k + g, 1 + 2 * k + g]).ravel()
        routes = 1 + 3 * k + g + k * g + comps
        order = np.concatenate([[0], 1 + k + np.arange(g), per_comp, 1 + 3 * k + g + np.arange(k * g), routes])
        signatures = "signature-selfadjoint", "signature-involution", "boundary-compatibility"
        names = ("pairing-selfadjoint", *_Layout(p).tau[1])
        names += tuple(f"{check}[{comp}]" for comp in range(k) for check in signatures)
        names += tuple(f"monodromy-transport[{comp},{label}]" for comp in range(k) for label in p.alphabet)
        names += tuple(f"signature-route-equality[{comp}]" for comp in range(k))
        return names, _read_only(order)


def _joined(rows: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Two stacks of code rows as one, zero past each row's end."""
    out = np.zeros((len(rows) + len(extra), max(rows.shape[1], extra.shape[1])), dtype=np.intp)
    out[: len(rows), : rows.shape[1]], out[len(rows) :, : extra.shape[1]] = rows, extra
    return out


def _adjoint(perms: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``BlockMonomial.adjoint`` over a stack of sheet maps; -1 marks a sheet no map reaches."""
    rows, inverse = np.arange(len(perms))[:, None], np.full(perms.shape, -1)
    inverse[rows, perms] = np.arange(perms.shape[1])
    return inverse, blocks[rows, inverse].conj().swapaxes(2, 3)


def _compare(comparisons) -> tuple[np.ndarray, np.ndarray]:
    """Each ``(lhs, rhs)`` pair of stacks in turn, ``rhs`` one entry or a stack, block row by block row.

    Returns, per entry of every ``lhs`` and per block row, the max-abs entry
    of ``lhs - rhs`` and its block column from 0: two ``(W, n)`` arrays, the
    pairs' rows joined.  Where the sheet maps disagree on a row both blocks
    are residual, and the column is that of the larger.  Where they agree
    on every row of a pair, as on every passing check, the residual is the
    block difference and its column the shared one.
    """
    residuals, columns = [], []
    for (perms, blocks), (other_perms, other_blocks) in comparisons:
        same = perms == other_perms
        if same.all():
            residuals.append(np.abs(blocks - other_blocks).max(axis=(2, 3), initial=0.0))
            columns.append(perms)
            continue
        mine = np.abs(blocks - np.where(same[..., None, None], other_blocks, 0))
        mine = mine.max(axis=(2, 3), initial=0.0)
        theirs = np.where(same, 0.0, np.abs(other_blocks).max(axis=(-2, -1), initial=0.0))
        residuals.append(np.maximum(mine, theirs))
        columns.append(np.where(mine >= theirs, perms, other_perms))  # where they agree, theirs is 0
    if len(residuals) == 1:
        return residuals[0], columns[0]
    return np.concatenate(residuals), np.concatenate(columns)


def _adjoint_on_pattern(perms: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per stack entry ``X``, a stack to compare it with in place of ``X^*``, also where ``perms`` is not a permutation.

    Block ``(k, p[k])`` of ``X - X^*`` is ``blocks[k] - blocks[p[k]]^*`` if ``p[p[k]] = k``, else
    ``blocks[k]``; the only other nonzero blocks are the adjoints of the latter.
    """
    w = np.arange(len(perms))[:, None]
    paired = perms[w, perms] == np.arange(perms.shape[1])
    return perms, np.where(paired[..., None, None], blocks[w, perms].conj().swapaxes(2, 3), 0)


def _checks(names: Sequence[str], compared: tuple[np.ndarray, np.ndarray], order=None) -> CheckReport:
    """A ``TOL_EXACT`` check per row of ``compared``, the per-block residuals and columns that ``_compare`` makes.

    A row's check reads its largest residual, the first NaN if any, and the
    block ``(row, column)`` where it sits; the 1-D index ``order`` picks and
    orders the rows.  This is where every symbolic check gets its tolerance.
    """
    residuals, columns = compared
    rows = np.arange(len(residuals)) if order is None else order
    k = residuals.argmax(axis=1)[rows]
    tolerances, blocks = np.empty(len(rows)), np.empty((len(rows), 2), dtype=np.intp)
    tolerances.fill(TOL_EXACT)
    blocks[:, 0], blocks[:, 1] = k + 1, columns[rows, k] + 1
    return _trusted_table(tuple(names), residuals[rows, k], tolerances, blocks)


def _pairing_symmetry(rep: MatrixRep, perms, blocks, G: BlockMonomial) -> tuple[np.ndarray, np.ndarray]:
    """The stack of ``chi(tau x)^* G chi(x)`` per generator ``x``, from the ``chi(tau x)``; ``G`` is its right side."""
    gens = np.arange(len(perms))
    lhs = _product(*_adjoint(perms, blocks), gens * 0, (G.perm[None], G.blocks[None]))
    return _product(*lhs, gens + 1, rep._table)


def _stack(mats: Sequence[BlockMonomial]) -> tuple[np.ndarray, np.ndarray]:
    """Block-monomials of one block shape as one stack: sheet maps ``(W, n)`` and blocks ``(W, n, m, m)``."""
    return np.array([a.perm for a in mats]), np.array([a.blocks for a in mats])


def check_representation(rep: MatrixRep) -> CheckReport:
    """Unitarity residual per generator plus the relator residual(s); never raises.

    For a representation of a transversal the relators are the rewritten
    conjugates of the base relators, which certify that the images are well
    defined.  ``chi(x) chi(x)^*`` of every generator and the image of every
    relator come from one stacked fold of the table, and each check reads
    its residual and block from the stacked comparison with the identity.
    The report is made once per representation and kept on it; the images
    are read-only, so it cannot go stale.  ``induce_representation`` keeps
    the reports of both of its representations from its one fold of
    ``chi2``: ``chi2``'s own, and ``chi1``'s regrouped from it, so neither
    is folded again here.  Where that induction passed, ``chi1``'s table is
    regrouped here, on the first read, from the arrays the induction kept.
    """
    return rep._check_report


@dataclass(frozen=True, eq=False)
class SignatureData:
    """Signature matrices J_0..J_{k-1}, one per boundary component; G is J_0.

    Each J_i must be selfadjoint and unitary (so J_i^2 = I); this is enforced
    at construction, the one check of these values.  ``J_list`` holds
    read-only copies, so a validated value cannot change afterwards.
    """

    J_list: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(np.array(J, dtype=complex, order="C") for J in self.J_list)
        if not mats:
            raise ValueError("at least one signature matrix required")
        if mats[0].ndim != 2:
            raise ValueError(f"J_0 has shape {mats[0].shape}, expected a square matrix")
        m = mats[0].shape[0]
        # J_0 .. J_{fit-1} are m x m: one selfadjoint and one unitary comparison over their stack
        fit = next((i for i, J in enumerate(mats) if J.shape != (m, m)), len(mats))
        if fit:
            stack = np.stack(mats[:fit])
            adjoint = stack.conj().swapaxes(1, 2)
            gaps = np.abs((stack - adjoint, stack @ adjoint - np.eye(m)))
            failed = ~(gaps.max(axis=(2, 3), initial=0.0) < TOL_EXACT)  # (2, fit); NaN fails
            if failed.any():
                i = int(failed.any(axis=0).argmax())
                raise ValueError(f"J_{i} is not {'selfadjoint' if failed[0, i] else 'unitary'}")
        if fit < len(mats):
            raise ValueError(f"J_{fit} has shape {mats[fit].shape}, expected {(m, m)}")
        for J in mats:
            J.setflags(write=False)
        object.__setattr__(self, "J_list", mats)

    @property
    def m(self) -> int:
        return self.J_list[0].shape[0]

    @property
    def G(self) -> np.ndarray:
        return self.J_list[0]


class ExtensionError(ValueError):
    """Extension to the double failed verification; carries the residual report."""

    def __init__(self, message: str, report: CheckReport):
        super().__init__(message)
        self.report = report


def extend_to_double(
    chi_S: MatrixRep, sig: SignatureData, p: DoubledPresentation
) -> MatrixRep:
    """Extend a boundary-compatible representation of the surface group to the double.

    Requires ``chi(A_i)^* J_i chi(A_i) = J_i`` for every boundary component.
    The extension copies ``A_j`` and the handle generators, sets
    ``chi(B_j) = G J_j`` and mirrors handles by ``chi(A''_i) = G chi(B'_i) G``,
    ``chi(B''_i) = G chi(A'_i) G``; the relator image and the symmetry
    condition ``chi(T^tau)^* G chi(T) = G`` are then verified.  The
    unitarity, relator and pairing-symmetry rows come from one fold of the
    result's check rows and mirrored generators ``tau(x)``, compared in one
    stack; their table, one ``_checks`` call, is made only for the
    ``ExtensionError`` of a failing extension.  The result does not keep
    them, so ``check_representation`` would fold it again.
    """
    surf = chi_S.presentation
    if not isinstance(surf, GroupPresentation):
        raise ValueError("chi_S must represent a bordered-surface group")
    blocks = chi_S._table[1][1 : len(surf.alphabet) + 1]
    if blocks.shape[1] != 1:
        raise ValueError(f"block shapes {blocks.shape[1:]} and {(1, chi_S.m, chi_S.m)} differ")
    return _extended(surf, blocks[:, 0], sig, p)


def _extended(surf: GroupPresentation, blocks: np.ndarray, sig: SignatureData, p: DoubledPresentation) -> MatrixRep:
    """``extend_to_double`` of the one-sheet images ``blocks``, ``(G, m, m)`` in ``surf``'s alphabet order."""
    if not isinstance(p, DoubledPresentation):
        raise ValueError("p must present the double")
    if (surf.s, surf.k) != (p.s, p.k):
        raise ValueError(f"presentation mismatch: chi_S is ({surf.s},{surf.k}), double is ({p.s},{p.k})")
    k, m = surf.k, blocks.shape[-1]
    if sig.m != m:
        raise ValueError(f"signature rank {sig.m} does not match representation rank {m}")
    if len(sig.J_list) != k:
        raise ValueError(f"need {k} signature matrices, got {len(sig.J_list)}")
    # chi_S's images in alphabet order, A0..A{k-1} then the handles A'1, B'1, ...
    G, J, a, handles = sig.G, np.stack(sig.J_list), blocks[:k], blocks[k:]
    residuals = np.abs(a.conj().swapaxes(1, 2) @ J @ a - J).max(axis=(1, 2), initial=0.0)
    failed = ~(residuals < TOL_EXACT)  # NaN fails
    if failed.any():
        i = int(failed.argmax())
        raise ValueError(f"signature data incompatible with chi(A{i}): residual {residuals[i]:.3e}")

    # A_j and B_j = G J_j for j >= 1, the handles, then A''_i = G chi(B'_i) G and B''_i = G chi(A'_i) G
    mirrored = G @ handles.reshape(-1, 2, m, m)[:, ::-1].reshape(-1, m, m) @ G
    images = np.concatenate([np.stack([a[1:], G @ J[1:]], axis=1).reshape(-1, m, m), handles, mirrored])
    chi_X = MatrixRep._stacked(p, np.zeros((len(images), 1), dtype=np.intp), images[:, None])
    # the checks and the mirrored generators, the words tau(x), in one fold: one comparison of all three kinds
    layout = _Layout(p)
    names, check, mirrored = chi_X._checked(layout.tau_plan)
    G = _trusted(np.zeros(1, dtype=np.intp), G[None])
    compared = _compare([check, (_pairing_symmetry(chi_X, *mirrored, G), (G.perm, G.blocks))])
    if not (compared[0] < TOL_EXACT).all():  # as the table's verdict: NaN fails
        report = _checks(names + layout.tau[1], compared)
        raise ExtensionError(f"extension inconsistent: {report.worst()}", report)
    return chi_X


def induce_representation(
    cov: CoveringAction, trans: Transversal, chi1: MatrixRep
) -> MatrixRep:
    """Induce a representation of the full group from the covering subgroup.

    ``chi1`` represents ``trans``.  Block row k of the image of a generator
    ``x`` has its only nonzero block in column ``k.x``: ``chi1(x@k)``, the
    Schreier generator of the edge, or ``I`` on a tree edge.  The result has
    rank ``n m``; images of ``chi1`` over ``n1`` sheets give images over ``n
    n1`` sheets, ``(k, a)`` numbered ``(k - 1) n1 + a``.

    Both check reports come from one fold of the result's check rows, and
    are kept for ``check_representation``.  ``chi2``'s is that fold's own.
    ``chi1``'s is regrouped from it (Reidemeister-Schreier): block row
    ``(k, a)`` of ``chi2(x) chi2(x)^*`` is row ``a`` of ``chi1(x@k)
    chi1(x@k)^*``, and of ``chi2``'s relator ``i`` is row ``a`` of ``chi1``'s
    relator ``i n + k``, that relator rewritten from sheet ``k``; the other
    factors are the identity blocks of tree edges, and ``X I = I X = X``
    exactly for finite ``X``.  So ``chi1``'s rows equal its own fold bit for
    bit, and a fault of the gather still fails ``chi2``'s rows.  While
    ``chi2``'s rows pass, so does every row of ``chi1``'s, a block row of
    one of them: the induction keeps the compared arrays, and ``chi1``'s
    table is regrouped from them when first read, with no fold of ``chi1``.
    Where ``chi2``'s rows fail the table is regrouped at once; where its rows
    fail too, ``chi1``'s own table is folded and kept as its report: if it
    passes, the fault is the induction's.  Refuses inconsistent subgroup
    data, naming each failing ``chi1`` row, and names the worst check, block
    and residual of a result that fails verification.
    """
    return _induce(cov, trans, chi1)[0]


def _induce(
    cov: CoveringAction, trans: Transversal, chi1: MatrixRep, symmetric: bool = False
) -> tuple[MatrixRep, tuple[np.ndarray, np.ndarray]]:
    """``induce_representation``, and if ``symmetric`` the images of the symmetry words under the result.

    Those words are folded with its checks, by the plan the base presentation's layout keeps.
    """
    if chi1.presentation is not trans or trans.covering is not cov:
        raise ValueError("subgroup representation belongs to a different covering")
    # chi1's table entry per edge: its Schreier generator's image, or the identity (0) on tree edges
    sub_perms, sub_blocks = chi1._table
    _, n1, m1, _ = sub_blocks.shape
    which = trans.edges + 1
    perms = (cov.forward[:, :, None] * n1 + sub_perms[which]).reshape(-1, cov.n * n1)
    blocks = sub_blocks[which].reshape(-1, cov.n * n1, m1, m1)
    induced = MatrixRep._stacked(cov.presentation, perms, blocks)

    layout = _Layout(cov.presentation)
    names, check, images = induced._checked(layout.symmetry_plan if symmetric else layout.check_plan)
    compared = _compare([check])
    verification = vars(induced)["_check_report"] = _checks(names, compared)
    regroup = partial(_regrouped, cov, trans, n1, compared)
    if verification.passed:  # so every row of chi1's passes: its table is regrouped when read
        if "_check_report" not in vars(chi1):
            vars(chi1)["_regroup"] = regroup
        return induced, images
    consistency = regroup()
    own = vars(chi1).setdefault("_check_report", consistency)
    if own is consistency and not own.passed:
        # a fault of the gather fails these rows too: chi1's own fold tells it from inconsistent chi1
        del vars(chi1)["_check_report"]
        own = chi1._check_report
    if not own.passed:
        failures = []
        for c in own.failing():
            what = c.name
            if what.startswith("relator["):
                what = f"rewritten relator {trans.relators[int(what[8:-1])]}"
            failures.append(f"{what} has residual {c.residual:.3e}")
        raise ValueError("subgroup representation inconsistent: " + "; ".join(failures))
    raise ValueError(f"induced representation failed verification: {verification.worst()}")


def _regrouped(cov: CoveringAction, trans: Transversal, n1: int, compared) -> CheckReport:
    """``chi1``'s check table regrouped from ``compared``, the compared check rows of the induced ``chi2``.

    ``unitarity[x@k]`` is block row k of ``unitarity[x]`` and ``relator[i n + k]``
    block row k of ``relator[i]``, each over ``chi1``'s ``n1`` sub-sheets.
    """
    n, relators = cov.n, len(cov.presentation.relators)
    sheets, gens = np.nonzero(trans.edges.T >= 0)  # each Schreier generator's sheet and base letter
    rows = np.concatenate([gens, len(cov.presentation.alphabet) + np.repeat(np.arange(relators), n)])
    sheets = np.concatenate([sheets, np.tile(np.arange(n), relators)])
    residuals, columns = (a.reshape(len(a), n, n1)[rows, sheets] for a in compared)
    return _checks(_check_names(trans.alphabet, relators * n), (residuals, columns % n1))


def build_G2(
    cov: CoveringAction, trans: Transversal, chi1: MatrixRep, G1: np.ndarray
) -> BlockMonomial:
    """Transported pairing matrix: block ``(k, nu(k))`` is ``G1 chi1(h_k)``.

    ``tau(g_k) = h_k g_{nu(k)}``.  From ``h_1 = 1``, ``nu(1) = 1``, a tree edge
    ``i -x-> j`` gives ``h_j = h_i w``, ``w`` being ``tau(x)`` walked from sheet
    ``nu(i)``, and ``nu(j)`` is where that walk ends.  The product is taken
    on words, each ``tau(x)`` walked from every sheet once and joined to
    ``h_i`` as ``Word`` joins, so rounding does not build up along the tree;
    ``chi1`` then folds the ``h_k`` once.  Constant unitary selfadjoint
    ``G1`` only (the unitary flat regime).  ``nu`` is an involution exactly
    when the covering subgroup is invariant under the involution; otherwise
    the pairing has no meaning, and it is refused, naming the sheets where
    ``nu(nu(k)) != k``.  An involution is a permutation, so the result is
    not checked again.  This walk serves every cover; the cyclic pipeline
    writes its cover's ``nu`` and ``h_k`` in closed form and makes only the
    fold, which this walk is the oracle of.
    """
    if chi1.presentation is not trans or trans.covering is not cov:
        raise ValueError("subgroup representation belongs to a different covering")
    if not isinstance(cov.presentation, DoubledPresentation):
        raise ValueError("involution decomposition needs a doubled presentation")
    G1 = np.asarray(G1, dtype=complex)
    if G1.shape != (chi1.m, chi1.m):
        raise ValueError(f"G1 has shape {G1.shape}, expected {(chi1.m, chi1.m)}")
    nu, rows = _tree_words(cov, trans)
    unpaired = np.flatnonzero(nu[nu] != np.arange(cov.n)) + 1
    if len(unpaired):
        message = "covering subgroup is not invariant under the involution: nu(nu(k)) != k on sheets"
        raise ValueError(f"{message} {unpaired.tolist()}")
    return _transported(chi1, G1, nu, _plan(rows))


def _tree_words(cov: CoveringAction, trans: Transversal) -> tuple[np.ndarray, np.ndarray]:
    """``build_G2``'s walk: ``nu``, and the words ``h_k`` as rows of signed codes, zero past each row's end."""
    p = cov.presentation
    # per generator on the tree: tau(x) walked from every sheet, each row trimmed to its length, the end sheets
    walks = {}
    for gi in {gi for _, gi in trans.tree_edges}:
        rows, lengths, ends = trans.walk_sheets(p.tau[gi])
        walks[gi] = [tuple(row[:k]) for row, k in zip(rows.tolist(), lengths.tolist())], ends.tolist()
    forward, h, nu = cov.forward.tolist(), [()] * cov.n, [0] * cov.n
    for i, gi in trans.tree_edges:
        (words, ends), k = walks[gi], nu[i - 1]
        head, w = h[i - 1], words[k]
        if head and w and head[-1] == -w[0]:  # the junction cancels
            c = 1
            while c < min(len(head), len(w)) and head[-1 - c] == -w[c]:
                c += 1
            head, w = head[: len(head) - c], w[c:]
        j = forward[gi][i - 1]
        h[j], nu[j] = head + w, ends[k]
    return np.array(nu, dtype=np.intp), _code_rows(h)


def _transported(chi1: MatrixRep, G1: np.ndarray, nu: np.ndarray, plan) -> BlockMonomial:
    """``build_G2``'s fold: block ``(k, nu[k])`` is ``G1 chi1(h_k)``, ``h_k`` row k of the rows planned; made trusted.

    ``chi1`` folds the rows once, by ``plan``, what ``_plan`` makes of them.
    The caller vouches that ``nu`` is a permutation and ``G1`` a
    ``chi1.m``-square complex array.
    """
    h_blocks = chi1._fold(plan)[1]
    return _trusted(nu, G1 @ h_blocks.reshape(-1, *h_blocks.shape[2:]))


def build_J2_diagonal(cov: CoveringAction, sig: SignatureData) -> list[BlockMonomial]:
    """Per-component block-diagonal signature matrices ``J_2`` of the covered surface.

    ``J_2`` is the direct image of ``J_1``: every lift of a boundary component
    carries that component's base value, so each ``J_2`` is the base value
    repeated on all ``n`` sheets, one contiguous block array.  The values were
    checked by ``SignatureData``, so the result is not checked again; whether
    the lifts' stabilizers preserve them is the symmetry report's
    ``boundary-compatibility`` check.
    """
    n, m = cov.n, sig.m
    return [_trusted(np.arange(n), np.broadcast_to(J, (n, m, m)).copy()) for J in sig.J_list]


def pairing_signature_matrices(
    chi2: MatrixRep, G2: BlockMonomial, p: DoubledPresentation
) -> list[BlockMonomial]:
    """Signature matrices read off the pairing: ``J_{2,0} = G2``, ``J_{2,i} = chi2(B_i)^* G2``.

    ``chi2(B_i)^*`` is read from ``chi2``'s table, entry ``2G - x`` for ``B_i`` generator ``x``.
    """
    perms, blocks = chi2._table
    adjoints = [-1 - chi2.presentation.alphabet.index(f"B{i}") for i in range(1, p.k)]
    return [G2] + [_trusted(perms[x], blocks[x]) @ G2 for x in adjoints]


def verify_symmetry_conditions(
    chi2: MatrixRep,
    G2: BlockMonomial,
    J2_list: Sequence[BlockMonomial],
    p: DoubledPresentation,
) -> CheckReport:
    """Residual report for all symmetry conditions of the transported data.

    Checks that G2 is selfadjoint and intertwines ``chi2`` with its mirror,
    that each per-component J is a signature matrix invariant under the
    boundary loop, and that the mirror-monodromy transport identity holds in
    the image.  Every check runs blockwise, each kind as one stacked
    comparison, and the report is one ``_checks`` of them all.  Refuses
    other than one ``J2`` per boundary component, each of ``chi2``'s block
    shape.  The words whose images it reads, their code rows and the
    report's names and row order are built once per presentation and kept
    on ``p`` (its layout); only their fold is made here.  The cyclic
    pipeline folds them with ``chi2``'s checks instead.
    """
    if p.alphabet != chi2.presentation.alphabet:
        raise ValueError("word not over this representation's generators")
    return _symmetry_report(chi2, G2, J2_list, p, chi2._fold(_plan(_Layout(p).symmetry[1])))


def _symmetry_words(p: DoubledPresentation) -> tuple[Word, ...]:
    """The words whose images the symmetry report reads, in its order.

    The mirrored generators ``tau(R)``, then per component the boundary
    loop, then the mirror monodromy ``T``, then ``tau(R) T R^-1`` for each
    ``T`` and generator ``R``.
    """
    loops = [boundary_loop(p, comp) for comp in range(p.k)]
    T_base = [mirror_monodromy(p, comp) for comp in range(p.k)]
    moved = [tau_R * T * p.gen(label, -1) for T in T_base for label, tau_R in zip(p.alphabet, p.tau)]
    return (*p.tau, *loops, *T_base, *moved)


def _symmetry_report(
    chi2: MatrixRep,
    G2: BlockMonomial,
    J2_list: Sequence[BlockMonomial],
    p: DoubledPresentation,
    images: tuple[np.ndarray, np.ndarray],
    J2_pairing: Sequence[BlockMonomial] = (),
) -> CheckReport:
    """``verify_symmetry_conditions`` from ``images``, ``chi2``'s images of ``_symmetry_words(p)``.

    Given the signature matrices read off the pairing, ``J2_pairing``, the
    rows ``signature-route-equality[comp]`` comparing them with ``J2_list``
    follow, from the same ``_checks`` call.
    """
    if len(J2_list) != p.k:
        raise ValueError(f"need {p.k} signature matrices, got {len(J2_list)}")
    shape = chi2._table[1].shape[1:]
    for name, mat in [("G2", G2), *((f"J2_list[{i}]", J2) for i, J2 in enumerate(J2_list))]:
        if mat.blocks.shape != shape:
            raise ValueError(f"{name} has block shape {mat.blocks.shape}, expected {shape}")
    perms, blocks = images
    g, k, comps = len(p.alphabet), p.k, np.arange(p.k)
    # G2 then every J2, one stack for their selfadjointness; J2 J2 and loop^* J2 loop per component
    paired = _stack([G2, *J2_list])
    J2, loop = (paired[0][1:], paired[1][1:]), (perms[g : g + k], blocks[g : g + k])
    compatibility = _product(*_product(*_adjoint(*loop), comps, J2), comps, loop)
    # chi(T_moved) chi(R) against chi(tau R) chi(T), for each component's T and generator R
    T_comps, gen_index = np.divmod(np.arange(k * g), g)
    T = perms[g + k : g + 2 * k], blocks[g + k : g + 2 * k]
    lhs = _product(perms[g + 2 * k :], blocks[g + 2 * k :], gen_index + 1, chi2._table)
    rhs = _product(perms[gen_index], blocks[gen_index], T_comps, T)
    comparisons = [
        (paired, _adjoint_on_pattern(*paired)),  # rows 0 (G2) and 1 + comp
        (_pairing_symmetry(chi2, perms[:g], blocks[:g], G2), (G2.perm, G2.blocks)),  # from 1 + k
        (_product(*J2, comps, J2), (chi2._table[0][0], chi2._table[1][0])),  # from 1 + k + g
        (compatibility, J2),  # from 1 + 2k + g
        (lhs, rhs),  # from 1 + 3k + g
    ]
    names, order = _Layout(p).symmetry_report  # the route rows come last
    if J2_pairing:
        comparisons.append((J2, _stack(J2_pairing)))  # from 1 + 3k + g + kg
    else:
        names, order = names[:-k], order[:-k]
    return _checks(names, _compare(comparisons), order)
