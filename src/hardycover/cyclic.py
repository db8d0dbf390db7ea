"""Cyclic covers of the annulus double: the fully explicit worked family.

The double of an annulus is a torus whose fundamental group is generated by
the core class ``A1`` and the mirror-crossing class ``B1``.  The degree-n
power map between annuli extends to the doubles as the cyclic cover in which
``A1`` rotates the sheets and ``B1`` fixes them.  Every object of the general
theory has a closed form here, which is what makes this the calibration
family: boundary data ``(alpha, J_0, J_1)`` on the small annulus determines
the subgroup representation on the Schreier generators (the core class of the
covering torus is the n-th power of the base core class, so it carries
``e^{-i alpha}``; the crossing class carries ``G J_1``), and the transported
signature matrices come out block-diagonal with the base values repeated on
every sheet.  ``chi2``, ``G2`` and both routes' ``J2`` are stored as
block-monomials over the ``n`` sheets, so no ``nm x nm`` array is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import CoveringAction, Transversal, _rolled_covering, schreier_transversal
from .groups import DoubledPresentation, _as_int, double_group, surface_group
from .induction import (
    BlockMonomial,
    CheckReport,
    MatrixRep,
    SignatureData,
    _extended,
    _induce,
    _symmetry_report,
    _transported,
    build_J2_diagonal,
    extend_to_double,
    pairing_signature_matrices,
)

__all__ = [
    "cyclic_cover",
    "annulus_surface_rep",
    "annulus_double_rep",
    "boundary_subgroup_rep",
    "CyclicPipeline",
    "annulus_pipeline",
]

# The family's one base surface, the double of the annulus: a torus.  Every cover, extension and check of
# the family is over this one object, so what is derived from the presentation alone (its layout in
# ``induction``) is made once per process and kept on it.
_TORUS = double_group(0, 2)


def cyclic_cover(n: int) -> CoveringAction:
    """Degree-n cyclic cover of the annulus double: A1 an n-cycle, B1 the identity.

    Written directly, as ``build_covering`` would return it for those two
    permutations: the torus relator has exponent sum 0 in A1, so the cover
    kills it, and ``build_covering``'s checks of outside input are not run.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"sheet count must be at least 1, got {n}")
    return _rolled_covering(_TORUS, n)


def _boundary_images(m: int, alpha: float) -> np.ndarray:
    """The annulus's boundary images ``e^{i alpha} I`` (A0) and ``e^{-i alpha} I`` (A1), ``(2, m, m)``.

    A non-finite ``alpha`` is refused, by name, before any work.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"invalid value for field 'alpha': {alpha!r} is not finite")
    phase = np.exp(1j * alpha)
    return np.array([phase * np.eye(m), np.conj(phase) * np.eye(m)])


def annulus_surface_rep(m: int, alpha: float) -> MatrixRep:
    """Scalar-multiplier representation of the annulus group: the outer loop acts by e^{i alpha}."""
    blocks = _boundary_images(m, alpha)[:, None]  # A0, A1: one sheet each
    return MatrixRep._stacked(surface_group(0, 2), np.zeros((2, 1), np.intp), blocks)


def annulus_double_rep(m: int, alpha: float, sig: SignatureData) -> MatrixRep:
    """The annulus representation extended to the torus double with the given signature data."""
    return extend_to_double(annulus_surface_rep(m, alpha), sig, _TORUS)


def boundary_subgroup_rep(
    cov: CoveringAction, trans: Transversal, chi_X1: MatrixRep
) -> MatrixRep:
    """Subgroup representation on the Schreier generators of the cyclic cover.

    The Schreier generator ``A1@n`` is the core class of the covering torus
    and receives ``chi_X1(A1)``; every ``B1@i`` is the crossing class and
    receives ``chi_X1(B1)``: the row of its base letter in ``chi_X1``'s table.
    The whole table is gathered from ``chi_X1``'s, adjoints included: the
    identity, each Schreier generator's base image, then their adjoints in
    reverse order.  Conjugation is exact, so it is the table ``_stacked``
    would compute from those images, bit for bit.
    """
    if cov.presentation.alphabet != ("A1", "B1"):
        raise ValueError(f"the cover is of {cov.presentation.alphabet}, not the annulus double")
    stray = trans.edges[0, :-1]  # A1 leaves the tree at sheet n only
    if stray.max(initial=-1) >= 0:
        label = trans.alphabet[stray[stray >= 0].min()]
        raise ValueError(f"unexpected Schreier generator {label!r} for a cyclic cover")
    if chi_X1.presentation.alphabet != ("A1", "B1"):
        raise ValueError(f"chi_X1 represents {chi_X1.presentation.alphabet}, not the annulus double")
    base = np.nonzero(trans.edges.T >= 0)[1]  # each Schreier generator's base letter
    rows = np.concatenate([[0], base + 1, -1 - base[::-1]])
    return MatrixRep._of_table(trans, tuple(array[rows] for array in chi_X1._table))


def _rolled_tree_words(trans: Transversal) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``build_G2``'s walk on the cyclic cover, written directly: ``nu``, the ``h_k`` as code rows, and their plan.

    The tree is the path along ``A1``, and ``tau(A1) = B1 A1 B1^-1`` walked
    from sheet k is ``B1@k (B1@(k+1))^-1``; so ``nu`` is the identity,
    ``h_1`` is empty and ``h_k = B1@1 (B1@k)^-1`` for k = 2..n, the walk's
    joins reduced.  Every ``B1`` edge is free, so ``B1@k``'s code is
    ``edges[1, k-1] + 1``.  The plan is what ``_plan`` makes of the rows:
    rows 2..n have both letters and run first, and ``h_1`` runs last.
    """
    n, codes = trans.covering.n, trans.edges[1] + 1
    ordered = np.zeros((2, n), dtype=np.intp)  # the plan's codes, position-major
    ordered[0, :-1], ordered[1, :-1] = codes[0], -codes[1:]
    rows = np.zeros((n, 2), dtype=np.intp)
    rows[1:] = ordered[:, :-1].T
    back = np.arange(-1, n - 1) % n
    if n == 1:  # no row has a letter: one position, the identity's entry
        return np.arange(n), rows[:, :0], (ordered[:1], (), back)
    return np.arange(n), rows, (ordered, (n - 1,), back)


@dataclass(frozen=True, eq=False)
class CyclicPipeline:
    """Everything the cyclic-cover pipeline produces, plus its verification report."""

    covering: CoveringAction
    transversal: Transversal
    chi_X1: MatrixRep
    chi1: MatrixRep
    chi2: MatrixRep
    G2: BlockMonomial
    J2_diagonal: list[BlockMonomial]
    J2_pairing: list[BlockMonomial]
    report: CheckReport


def annulus_pipeline(n: int, alpha: float, sig: SignatureData) -> CyclicPipeline:
    """Run the whole symbolic pipeline for the degree-n annulus cover.

    Extends the boundary data to the torus double, induces up the cyclic
    cover, transports the pairing and signature matrices, and verifies every
    symmetry condition including agreement of the two signature routes.  A
    non-finite ``alpha`` is refused, by name, before any work.
    Each representation is folded once: ``chi_X1`` over its checks and its
    mirrored generators, ``chi2`` over its checks and the symmetry report's
    words, and ``chi1`` over ``G2``'s tree words.  Nothing a table already
    holds is computed again: ``chi_X1`` is extended from the boundary images
    ``e^{+-i alpha} I`` with no ``chi_S`` representation made, ``chi1``'s
    table is gathered from ``chi_X1``'s, adjoints included, and the route
    ``chi2(B1)^*`` is read from ``chi2``'s table.  ``chi_X1``'s check table
    is made only if it fails; ``chi1``'s checks are read off ``chi2``'s fold
    when first read, and the Schreier labels are made when first read too;
    no report here reads either.  The cover and ``G2``'s tree words ``h_k``
    are written directly, in closed form, with the sort plan of their fold
    (``build_G2``'s general walk and ``_plan`` are their oracles), and each
    derived block-monomial is built trusted from validated parts, so nothing
    made here is validated a second time and no step loops over the sheets
    in Python.  The report is one table, the symmetry and route rows of one
    ``_checks`` call.

    Every call is over the same torus, ``_TORUS``, and keeps on it what
    depends on the presentation alone: the check and ``tau`` code rows, the
    symmetry words and their rows, both torus folds' sort plans, and the
    report's names and row order.  The first call in a process builds them;
    later calls build no ``Word`` of the torus (the annulus presentation
    that the extension is checked against, one relator, is made per call).
    The cover, the transversal and ``G2``'s tree words depend on ``n`` and
    are made per call, as arrays.
    """
    boundary = _boundary_images(sig.m, alpha)
    cov = cyclic_cover(n)
    p = cov.presentation
    assert isinstance(p, DoubledPresentation)
    trans = schreier_transversal(cov)
    chi_X1 = _extended(surface_group(0, 2), boundary, sig, p)
    chi1 = boundary_subgroup_rep(cov, trans, chi_X1)
    chi2, images = _induce(cov, trans, chi1, symmetric=True)
    nu, _, plan = _rolled_tree_words(trans)
    G2 = _transported(chi1, sig.G, nu, plan)
    J2_diag = build_J2_diagonal(cov, sig)
    J2_pair = pairing_signature_matrices(chi2, G2, p)
    report = _symmetry_report(chi2, G2, J2_diag, p, images, J2_pair)
    return CyclicPipeline(
        covering=cov, transversal=trans, chi_X1=chi_X1, chi1=chi1, chi2=chi2,
        G2=G2, J2_diagonal=J2_diag, J2_pairing=J2_pair, report=report,
    )
