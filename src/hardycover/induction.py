"""Unitary matrix representations, extension to the double, and induction.

``MatrixRep`` is the one representation type: one matrix per generator of a
presentation.  The presentation may be a surface group, its double, or a
Schreier transversal, which presents the covering subgroup; so the boundary
representation ``chi_X1``, the subgroup representation ``chi1`` and the
induced ``chi2`` (of rank ``n m``) are all ``MatrixRep``.

Every matrix is a ``BlockMonomial``: a sheet permutation plus one ``m x m``
block per sheet; an ordinary matrix is the case ``n = 1``.  By the block
formulas below, a product costs one batched ``m x m`` product per sheet, and
no ``nm x nm`` array is formed except by ``dense``, for export.  A
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
counts, and a check records the block where its largest residual sits.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, zip_longest
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .covering import CoveringAction, Transversal
from .groups import (
    DoubledPresentation,
    GroupPresentation,
    Word,
    _as_int,
    apply_involution,
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
    "rep_to_json",
    "rep_from_json",
    "matrix_to_json",
    "matrices_from_json",
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

    @classmethod
    def identity(cls, n: int, m: int) -> "BlockMonomial":
        return cls(np.arange(n), np.broadcast_to(np.eye(m, dtype=complex), (n, m, m)))

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

    def compare(self, other: "BlockMonomial") -> tuple[float, tuple[int, int]]:
        """Max-abs entry of ``self - other`` and the block ``(row, column)`` it sits in, from 1.

        Where the permutations disagree on a row both blocks are residual.
        """
        if self.blocks.shape != other.blocks.shape:
            raise ValueError(f"block shapes {self.blocks.shape} and {other.blocks.shape} differ")
        same = self.perm == other.perm
        mine = self.blocks - np.where(same[:, None, None], other.blocks, 0)
        mine = np.abs(mine).max(axis=(1, 2), initial=0.0)
        theirs = np.where(same, 0.0, np.abs(other.blocks).max(axis=(1, 2), initial=0.0))
        k = int(np.maximum(mine, theirs).argmax())
        column = self.perm[k] if mine[k] >= theirs[k] else other.perm[k]
        return float(max(mine[k], theirs[k])), (k + 1, int(column) + 1)

    def compare_adjoint(self) -> tuple[float, tuple[int, int]]:
        """``compare(self.adjoint())``, also where ``perm`` is not a permutation.

        Block ``(k, perm[k])`` of ``self - self^*`` is ``blocks[k] -
        blocks[perm[k]]^*`` if ``perm[perm[k]] = k``, else ``blocks[k]``; the
        only other nonzero blocks are the adjoints of the latter.
        """
        p = self.perm
        paired = (p[p] == np.arange(self.n))[:, None, None]
        return self.compare(_trusted(p, np.where(paired, self.blocks[p].conj().swapaxes(1, 2), 0)))

    def dense(self) -> np.ndarray:
        """The ``nm x nm`` matrix, for export."""
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


def unitarity_residual(u: BlockMonomial | np.ndarray) -> float:
    u = BlockMonomial.of(u)
    return (u @ u.adjoint()).compare(BlockMonomial.identity(u.n, u.m))[0]


@dataclass(frozen=True)
class Check:
    """A named residual and the tolerance it must stay below, both stored as floats.

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

    @classmethod
    def exact(cls, name: str, comparison: tuple[float, tuple[int, int]]) -> "Check":
        """A ``TOL_EXACT`` check of a ``BlockMonomial.compare`` result."""
        residual, block = comparison
        return cls(name, residual, TOL_EXACT, block)

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[Check, ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckReport) and self.checks == other.checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def worst(self) -> str:
        """The failing check of largest residual: its name, block, residual and tolerance."""
        c = max(self.failing(), key=lambda c: c.residual)
        return f"{c.name} at block {c.block}: {c.residual:.1e} vs {c.tolerance:g}"

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}

    def prefixed(self, prefix: str) -> "CheckReport":
        """The same checks, each name after ``prefix``."""
        return CheckReport(tuple(Check(prefix + c.name, c.residual, c.tolerance, c.block) for c in self.checks))


class _StackedReport(CheckReport):
    """The report of one stacked comparison, at ``TOL_EXACT``: names, residuals and blocks as arrays.

    ``passed`` reads the residuals; ``checks`` makes the ``Check`` objects on
    first read, and through it ``failing`` and ``worst``.
    """

    def __init__(self, names: list[str], residuals, rows, columns):
        object.__setattr__(self, "_arrays", (names, residuals, rows, columns))

    @cached_property
    def checks(self) -> tuple[Check, ...]:
        names, *arrays = self._arrays
        found = zip(names, *(a.tolist() for a in arrays))
        return tuple(Check(name, residual, TOL_EXACT, (row, col)) for name, residual, row, col in found)

    @property
    def passed(self) -> bool:
        return bool(self._arrays[1].max(initial=0.0) < TOL_EXACT)  # NaN fails

    def prefixed(self, prefix: str) -> CheckReport:
        """The same checks, each name after ``prefix``: the arrays are shared, no ``Check`` is made."""
        names, *arrays = self._arrays
        return _StackedReport([prefix + name for name in names], *arrays)


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Representation of a presented group by one matrix per generator.

    The presentation is a surface group, its double, or a Schreier
    transversal (the covering subgroup on its Schreier generators).  Images
    are given as ``m x m`` arrays or as block-monomials of total rank ``m``,
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
        images, m = [self.images[lbl] for lbl in alphabet], self.m
        if all(type(img) is np.ndarray and img.shape == (m, m) for img in images):
            # plain m x m arrays: stacked in one array as one-sheet blocks, with no wrapper per image
            perms, blocks = np.zeros((len(images), 1), np.intp), np.array(images, complex).reshape(-1, 1, m, m)
        else:
            images = [BlockMonomial.of(img) for img in images]
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
        (g, n, m, _), alphabet = blocks.shape, presentation.alphabet
        inverse, adjoints = _adjoint(perms, blocks)
        if inverse.min(initial=0) < 0:  # a sheet no block column reaches
            bad = (inverse < 0).any(axis=1).argmax()
            repeated = np.flatnonzero(np.bincount(perms[bad], minlength=n) > 1) + 1
            raise ValueError(
                f"image of {alphabet[bad]} is not a sheet permutation: "
                f"block columns {repeated.tolist()} repeat"
            )
        table = (np.concatenate([np.arange(n)[None], perms, inverse[::-1]]),
                 np.empty((2 * g + 1, n, m, m), dtype=complex))
        table[1][0], table[1][1 : g + 1], table[1][g + 1 :] = np.eye(m), blocks, adjoints[::-1]
        for array in table:
            array.setflags(write=False)
        rep = object.__new__(cls)
        images = _TableImages(alphabet, table)
        vars(rep).update(presentation=presentation, m=n * m, _table=table, images=images)
        return rep

    @cached_property
    def identity(self) -> BlockMonomial:
        return _trusted(self._table[0][0], self._table[1][0])

    def evaluate(self, w: Word) -> BlockMonomial:
        """The image of ``w``: the one-word case of ``evaluate_many``."""
        perms, blocks = self.evaluate_many([w])
        return _trusted(perms[0], blocks[0])

    def evaluate_many(self, words: Sequence[Word]) -> tuple[np.ndarray, np.ndarray]:
        """The images of ``words``: sheet maps ``(W, n)`` and blocks ``(W, n, m, m)``.

        Each image is the product of its letters' images and adjoints, taken
        left to right as one ``BlockMonomial`` product per letter would take
        it; all words share one pass over the letter positions of the longest.
        """
        return self._fold(self._rows(words))

    def _rows(self, words: Sequence[Word]) -> np.ndarray:
        """Each word as a row of signed codes, zero past its end: ``+-(x+1)`` for generator ``x``."""
        alphabet = self.presentation.alphabet
        if any(w.alphabet is not alphabet and w.alphabet != alphabet for w in words):
            raise ValueError("word not over this representation's generators")
        return _code_rows([[gen + 1 if exp > 0 else -gen - 1 for gen, exp in w.letters] for w in words])

    def _fold(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The left fold of each row of signed codes, zero past its end; an empty row gives the identity.

        A letter's signed code is its entry in the table.  Rows run sorted by
        length, longest first, so the rows still running at a letter position
        are a prefix of the stack, and each position costs one ``_product``
        however many rows there are.  No row is padded with identity factors:
        each image is the product of its own letters, in their order.
        """
        order = np.argsort(-np.count_nonzero(rows, axis=1), kind="stable")
        # position-major; an ended row reads 0 past the running prefix, an empty one the identity
        codes = rows[order].T if rows.shape[1] else np.zeros((1, len(rows)), dtype=np.intp)
        perms, blocks = self._table[0][codes[0]], self._table[1][codes[0]]
        for position in codes[1:]:
            a = np.count_nonzero(position)
            perms[:a], blocks[:a] = _product(perms[:a], blocks[:a], position[:a], self._table)
        back = np.argsort(order)  # to the given order
        return perms[back], blocks[back]

    @cached_property
    def _check_report(self) -> CheckReport:
        p, g = self.presentation, len(self.presentation.alphabet)
        # chi(x) chi(x)^*, an image then its adjoint, for each generator, and the relators: one fold;
        # a transversal's relators are the code rows it rewrote them into, with no Word between
        relators = p.relator_rows if isinstance(p, Transversal) else self._rows(p.relators)
        rows = np.zeros((g + len(relators), max(relators.shape[1], 2)), dtype=np.intp)
        rows[:g, :2], rows[g:, : relators.shape[1]] = np.arange(1, g + 1)[:, None] * [1, -1], relators
        names = [f"unitarity[{label}]" for label in p.alphabet]
        names += [f"relator[{i}]" for i in range(len(relators))]
        return _checks(names, *self._fold(rows), self._table[0][0], self._table[1][0])


class _TableImages(Mapping):
    """A representation's images by generator label: views into its table, made on first use."""

    def __init__(self, alphabet: Sequence[str], table: tuple[np.ndarray, np.ndarray]):
        self._rows = {label: i for i, label in enumerate(alphabet, start=1)}
        self._table, self._made = table, {}

    def __getitem__(self, label: str) -> BlockMonomial:
        if label not in self._made:
            i = self._rows[label]
            self._made[label] = _trusted(self._table[0][i], self._table[1][i])
        return self._made[label]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


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


def _adjoint(perms: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``BlockMonomial.adjoint`` over a stack of sheet maps; -1 marks a sheet no map reaches."""
    rows, inverse = np.arange(len(perms))[:, None], np.full(perms.shape, -1)
    inverse[rows, perms] = np.arange(perms.shape[1])
    return inverse, blocks[rows, inverse].conj().swapaxes(2, 3)


def _checks(names: Sequence[str], perms, blocks, other_perms, other_blocks) -> CheckReport:
    """A ``TOL_EXACT`` check per stack entry, of its ``BlockMonomial.compare`` with ``other``.

    ``other`` is one block-monomial or a stack of them.  The report keeps the
    checks as arrays until they are read.
    """
    same = perms == other_perms
    mine = np.abs(blocks - np.where(same[..., None, None], other_blocks, 0))
    mine = mine.max(axis=(2, 3), initial=0.0)
    theirs = np.where(same, 0.0, np.abs(other_blocks).max(axis=(-2, -1), initial=0.0))
    worst, w = np.maximum(mine, theirs), np.arange(len(perms))
    k = worst.argmax(axis=1)
    other_column = np.where(same, perms, other_perms)[w, k]
    column = np.where(mine[w, k] >= theirs[w, k], perms[w, k], other_column)
    return _StackedReport(names, worst[w, k], k + 1, column + 1)


def _pairing_symmetry(rep: MatrixRep, perms, blocks, G: BlockMonomial) -> CheckReport:
    """``pairing-symmetry[x]``, ``chi(tau x)^* G chi(x)`` against ``G``, from the ``chi(tau x)``."""
    gens = np.arange(len(perms))
    lhs = _product(*_adjoint(perms, blocks), gens * 0, (G.perm[None], G.blocks[None]))
    lhs = _product(*lhs, gens + 1, rep._table)
    names = [f"pairing-symmetry[{label}]" for label in rep.presentation.alphabet]
    return _checks(names, *lhs, G.perm, G.blocks)


def check_representation(rep: MatrixRep) -> CheckReport:
    """Unitarity residual per generator plus the relator residual(s); never raises.

    For a representation of a transversal the relators are the rewritten
    conjugates of the base relators, which certify that the images are well
    defined.  ``chi(x) chi(x)^*`` of every generator and the image of every
    relator come from one stacked fold of the table, and each check reads
    its residual and block from the stacked comparison with the identity.
    The report is computed once per representation and kept on it; the
    images are read-only, so it cannot go stale.
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
        mats = tuple(np.array(J, dtype=complex) for J in self.J_list)
        if not mats:
            raise ValueError("at least one signature matrix required")
        if mats[0].ndim != 2:
            raise ValueError(f"J_0 has shape {mats[0].shape}, expected a square matrix")
        m = mats[0].shape[0]
        for i, J in enumerate(mats):
            if J.shape != (m, m):
                raise ValueError(f"J_{i} has shape {J.shape}, expected {(m, m)}")
            if not BlockMonomial.of(J).compare_adjoint()[0] < TOL_EXACT:  # NaN fails
                raise ValueError(f"J_{i} is not selfadjoint")
            if not unitarity_residual(J) < TOL_EXACT:
                raise ValueError(f"J_{i} is not unitary")
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
    condition ``chi(T^tau)^* G chi(T) = G`` are then verified.
    """
    surf = chi_S.presentation
    if not isinstance(surf, GroupPresentation):
        raise ValueError("chi_S must represent a bordered-surface group")
    if (surf.s, surf.k) != (p.s, p.k):
        raise ValueError(f"presentation mismatch: chi_S is ({surf.s},{surf.k}), double is ({p.s},{p.k})")
    if sig.m != chi_S.m:
        raise ValueError(f"signature rank {sig.m} does not match representation rank {chi_S.m}")
    if len(sig.J_list) != surf.k:
        raise ValueError(f"need {surf.k} signature matrices, got {len(sig.J_list)}")
    J = [BlockMonomial.of(J_i) for J_i in sig.J_list]
    for i in range(surf.k):
        a = chi_S.images[f"A{i}"]
        res = (a.adjoint() @ J[i] @ a).compare(J[i])[0]
        if res >= TOL_EXACT:
            raise ValueError(
                f"signature data incompatible with chi(A{i}): residual {res:.3e}"
            )

    G = J[0]
    images: dict[str, BlockMonomial] = {}
    for j in range(1, surf.k):
        images[f"A{j}"] = chi_S.images[f"A{j}"]
        images[f"B{j}"] = G @ J[j]
    for i in range(1, surf.s + 1):
        images[f"A'{i}"] = chi_S.images[f"A'{i}"]
        images[f"B'{i}"] = chi_S.images[f"B'{i}"]
        images[f"A''{i}"] = G @ chi_S.images[f"B'{i}"] @ G
        images[f"B''{i}"] = G @ chi_S.images[f"A'{i}"] @ G
    chi_X = MatrixRep(presentation=p, m=chi_S.m, images=images)

    mirrored = chi_X.evaluate_many([apply_involution(p, p.gen(label)) for label in p.alphabet])
    reports = check_representation(chi_X), _pairing_symmetry(chi_X, *mirrored, G)
    if not all(report.passed for report in reports):
        report = CheckReport(reports[0].checks + reports[1].checks)
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
    n1`` sheets, ``(k, a)`` numbered ``(k - 1) n1 + a``.  Refuses inconsistent
    subgroup data, and names the worst check, block and residual of a result
    that fails verification.
    """
    if chi1.presentation is not trans or trans.covering is not cov:
        raise ValueError("subgroup representation belongs to a different covering")
    consistency = check_representation(chi1)
    if not consistency.passed:
        failures = []
        for check in consistency.failing():
            what = check.name
            if what.startswith("relator["):
                what = f"rewritten relator {trans.relators[int(what[8:-1])]}"
            failures.append(f"{what} has residual {check.residual:.3e}")
        raise ValueError("subgroup representation inconsistent: " + "; ".join(failures))

    # chi1's table entry per edge: its Schreier generator's image, or the identity (0) on tree edges
    sub_perms, sub_blocks = chi1._table
    _, n1, m1, _ = sub_blocks.shape
    which = trans.edges + 1
    perms = (cov.forward[:, :, None] * n1 + sub_perms[which]).reshape(-1, cov.n * n1)
    blocks = sub_blocks[which].reshape(-1, cov.n * n1, m1, m1)
    induced = MatrixRep._stacked(cov.presentation, perms, blocks)

    verification = check_representation(induced)
    if not verification.passed:
        raise ValueError(f"induced representation failed verification: {verification.worst()}")
    return induced


def build_G2(
    cov: CoveringAction, trans: Transversal, chi1: MatrixRep, G1: np.ndarray
) -> BlockMonomial:
    """Transported pairing matrix: block ``(k, nu(k))`` is ``G1 chi1(h_k)``.

    ``tau(g_k) = h_k g_{nu(k)}``.  From ``h_1 = 1``, ``nu(1) = 1``, a tree edge
    ``i -x-> j`` gives ``h_j = h_i w``, ``w`` being ``tau(x)`` walked from sheet
    ``nu(i)``, and ``nu(j)`` is where that walk ends.  The product is taken
    on words, each ``tau(x)`` walked from every sheet once and joined to
    ``h_i`` as ``Word`` joins, so rounding does not build up along the tree.
    Constant unitary selfadjoint ``G1`` only (the unitary flat regime).
    ``nu`` is an involution exactly when the covering subgroup is invariant
    under the involution; otherwise the pairing has no meaning, and it is
    refused, naming the sheets where ``nu(nu(k)) != k``.
    """
    if chi1.presentation is not trans or trans.covering is not cov:
        raise ValueError("subgroup representation belongs to a different covering")
    p = cov.presentation
    if not isinstance(p, DoubledPresentation):
        raise ValueError("involution decomposition needs a doubled presentation")
    G1 = np.asarray(G1, dtype=complex)
    if G1.shape != (chi1.m, chi1.m):
        raise ValueError(f"G1 has shape {G1.shape}, expected {(chi1.m, chi1.m)}")
    # per generator on the tree: the code rows of tau(x) from every sheet, their lengths, the end sheets
    on_tree = {gi for _, gi in trans.tree_edges}
    walks = {gi: [a.tolist() for a in trans.walk_sheets(p.tau[gi])] for gi in on_tree}
    forward, h, nu = cov.forward.tolist(), [[]] * cov.n, [0] * cov.n
    for i, gi in trans.tree_edges:
        (rows, lengths, ends), k, c = walks[gi], nu[i - 1], 0
        head, w = h[i - 1], rows[k][: lengths[k]]
        while c < min(len(head), len(w)) and head[-1 - c] == -w[c]:
            c += 1
        j = forward[gi][i - 1]
        h[j], nu[j] = head[: len(head) - c] + w[c:], ends[k]
    unpaired = [k + 1 for k in range(cov.n) if nu[nu[k]] != k]
    if unpaired:
        message = "covering subgroup is not invariant under the involution: nu(nu(k)) != k on sheets"
        raise ValueError(f"{message} {unpaired}")
    h_blocks = chi1._fold(_code_rows(h))[1]
    return BlockMonomial(nu, G1 @ h_blocks.reshape(-1, *h_blocks.shape[2:]))


def build_J2_diagonal(cov: CoveringAction, sig: SignatureData) -> list[BlockMonomial]:
    """Per-component block-diagonal signature matrices ``J_2`` of the covered surface.

    ``J_2`` is the direct image of ``J_1``: every lift of a boundary component
    carries that component's base value, so each ``J_2`` is the base value
    repeated on all ``n`` sheets, one contiguous block array.  The values were
    checked by ``SignatureData``; whether the lifts' stabilizers preserve them
    is the symmetry report's ``boundary-compatibility`` check.
    """
    n, m = cov.n, sig.m
    return [BlockMonomial(np.arange(n), np.broadcast_to(J, (n, m, m))) for J in sig.J_list]


def pairing_signature_matrices(
    chi2: MatrixRep, G2: BlockMonomial, p: DoubledPresentation
) -> list[BlockMonomial]:
    """Signature matrices read off the pairing: ``J_{2,0} = G2``, ``J_{2,i} = chi2(B_i)^* G2``."""
    return [G2] + [chi2.images[f"B{i}"].adjoint() @ G2 for i in range(1, p.k)]


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
    the image.  Every check runs blockwise.
    """
    # one call evaluates every word: mirrored generators, boundary loops, mirror monodromies, moved
    gens = [p.gen(label) for label in p.alphabet]
    mirrored = [apply_involution(p, R) for R in gens]
    loops = [boundary_loop(p, comp) for comp in range(len(J2_list))]
    T_base = [mirror_monodromy(p, comp) for comp in range(p.k)]
    moved = [tau_R * T * R.inverse() for T in T_base for R, tau_R in zip(gens, mirrored)]
    perms, blocks = chi2.evaluate_many(mirrored + loops + T_base + moved)
    g, k = len(gens), len(loops)

    checks = [Check.exact("pairing-selfadjoint", G2.compare_adjoint())]
    checks += _pairing_symmetry(chi2, perms[:g], blocks[:g], G2).checks
    for comp, (J2, loop) in enumerate(zip(J2_list, map(_trusted, perms[g:], blocks[g:]))):
        checks.append(Check.exact(f"signature-selfadjoint[{comp}]", J2.compare_adjoint()))
        involution = (J2 @ J2).compare(chi2.identity)
        checks.append(Check.exact(f"signature-involution[{comp}]", involution))
        boundary = (loop.adjoint() @ J2 @ loop).compare(J2)
        checks.append(Check.exact(f"boundary-compatibility[{comp}]", boundary))
    # chi(T_moved) chi(R) against chi(tau R) chi(T), for each component's T and generator R
    comps, gen_index = np.divmod(np.arange(p.k * g), g)
    T = perms[g + k : g + k + p.k], blocks[g + k : g + k + p.k]
    lhs = _product(perms[g + k + p.k :], blocks[g + k + p.k :], gen_index + 1, chi2._table)
    rhs = _product(perms[gen_index], blocks[gen_index], comps, T)
    names = [f"monodromy-transport[{comp},{label}]" for comp in range(p.k) for label in p.alphabet]
    return CheckReport(checks + list(_checks(names, *lhs, *rhs).checks))


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


_list_of = lambda value, size: type(value) in (list, tuple) and len(value) == size


def flatten_levels(items: Sequence, sizes: Sequence[int]) -> list | None:
    """The values ``len(sizes)`` levels below ``items``, in order, as one list.

    Each level is checked and flattened as a whole: its items must all be
    lists or tuples of the level's size, else the result is None.
    """
    for size in sizes:
        if not {*map(type, items)} <= {list, tuple} or {*map(len, items)} - {size}:
            return None
        items = [*chain.from_iterable(items)]
    return items


def matrices_from_json(
    mats: Sequence, shape: tuple[int, int], names: Sequence[str], whole: bool = False
) -> np.ndarray:
    """``mats``, each a ``shape`` list of rows of ``[re, im]`` pairs, as one ``(G, *shape)`` complex array.

    One array step checks and converts them all: each part an int or float (not a bool), finite as a
    float, read through a float view that keeps signs of zero.  Only if it refuses are the matrices
    scanned, to name the first entry refused, ``names[g][i][j]``, or with ``whole`` the matrix ``names[g]``.
    """
    rows, cols = shape
    parts = flatten_levels(mats, (rows, cols, 2))  # matrices, then rows, then entries
    if parts is not None and all(issubclass(t, Real) and not issubclass(t, bool) for t in {*map(type, parts)}):
        with suppress(OverflowError):  # from an int too large for a float, named below
            values = np.array(parts, dtype=float)
            if np.isfinite(values).all():
                return values.view(complex).reshape(len(mats), rows, cols)
    for name, mat in zip(names, mats):
        matrix = f"invalid value for field '{name}': {mat!r} is not an {rows}x{cols} list of [re, im] pairs"
        if not (_list_of(mat, rows) and all(_list_of(row, cols) for row in mat)):
            raise ValueError(matrix)
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                entry = f"invalid value for field '{name}[{i}][{j}]': {x!r} "
                if not (_list_of(x, 2) and all(isinstance(v, Real) and not isinstance(v, bool) for v in x)):
                    raise ValueError(matrix if whole else entry + "is not an [re, im] pair")
                with suppress(OverflowError):
                    if all(map(math.isfinite, x)):
                        continue
                raise ValueError(entry + "is not finite as a float")
    raise AssertionError("matrices refused by the array step but not by the scan")


def rep_to_json(rep: MatrixRep, covering: CoveringAction | None = None, dense: bool = True) -> dict:
    """JSON form of ``rep``; given the covering it was induced along, the block form.

    Images are written as dense matrices (with ``dense=False``, left as
    block-monomials).  The block form has the block rank ``m``, the sheet
    count ``n`` and, per generator, ``block_structure``: the pairs ``[k,
    sigma_g(k)]``, k = 1..n, of the nonzero blocks, read from the covering's
    sheet permutations.
    """
    images = {lbl: matrix_to_json(mat.dense()) if dense else mat for lbl, mat in rep.images.items()}
    if covering is None:
        return {"m": rep.m, "images": images}
    if rep.presentation is not covering.presentation or rep.m % covering.n:
        raise ValueError("representation was not induced along this covering")
    return {
        "m": rep.m // covering.n,
        "images": images,
        "n": covering.n,
        "block_structure": {
            lbl: [[k, j] for k, j in enumerate(perm, start=1)]
            for lbl, perm in zip(covering.presentation.alphabet, covering.perms)
        },
    }


def rep_from_json(
    presentation: GroupPresentation | DoubledPresentation, doc: Mapping
) -> MatrixRep:
    m, labels = _as_int(doc["m"], "m"), list(doc["images"])
    images = matrices_from_json(list(doc["images"].values()), (m, m), [f"images.{lbl}" for lbl in labels])
    return MatrixRep(presentation=presentation, m=m, images=dict(zip(labels, images)))
