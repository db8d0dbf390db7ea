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

from dataclasses import dataclass

import numpy as np

from .covering import CoveringAction, Transversal, _rolled_covering, schreier_transversal
from .groups import DoubledPresentation, _as_int, double_group, surface_group
from .induction import (
    BlockMonomial,
    CheckReport,
    MatrixRep,
    SignatureData,
    _induce,
    _symmetry_report,
    _symmetry_words,
    build_G2,
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


def cyclic_cover(n: int) -> CoveringAction:
    """Degree-n cyclic cover of the annulus double: A1 an n-cycle, B1 the identity.

    Written directly, as ``build_covering`` would return it for those two
    permutations: the torus relator has exponent sum 0 in A1, so the cover
    kills it, and ``build_covering``'s checks of outside input are not run.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"sheet count must be at least 1, got {n}")
    return _rolled_covering(double_group(0, 2), n)


def annulus_surface_rep(m: int, alpha: float) -> MatrixRep:
    """Scalar-multiplier representation of the annulus group: the outer loop acts by e^{i alpha}."""
    phase = np.exp(1j * alpha)
    blocks = np.array([phase * np.eye(m), np.conj(phase) * np.eye(m)])[:, None]  # A0, A1: one sheet each
    return MatrixRep._stacked(surface_group(0, 2), np.zeros((2, 1), np.intp), blocks)


def annulus_double_rep(m: int, alpha: float, sig: SignatureData) -> MatrixRep:
    """The annulus representation extended to the torus double with the given signature data."""
    return extend_to_double(annulus_surface_rep(m, alpha), sig, double_group(0, 2))


def boundary_subgroup_rep(
    cov: CoveringAction, trans: Transversal, chi_X1: MatrixRep
) -> MatrixRep:
    """Subgroup representation on the Schreier generators of the cyclic cover.

    The Schreier generator ``A1@n`` is the core class of the covering torus
    and receives ``chi_X1(A1)``; every ``B1@i`` is the crossing class and
    receives ``chi_X1(B1)``: the row of its base letter in ``chi_X1``'s table.
    """
    stray = trans.edges[0, :-1]  # A1 leaves the tree at sheet n only
    if cov.presentation.alphabet != ("A1", "B1") or stray.max(initial=-1) >= 0:
        label = trans.alphabet[stray[stray >= 0].min(initial=0)]
        raise ValueError(f"unexpected Schreier generator {label!r} for a cyclic cover")
    if chi_X1.presentation.alphabet != ("A1", "B1"):
        raise ValueError(f"chi_X1 represents {chi_X1.presentation.alphabet}, not the annulus double")
    base = np.nonzero(trans.edges.T >= 0)[1]  # each Schreier generator's base letter
    perms, blocks = chi_X1._table
    return MatrixRep._stacked(trans, perms[base + 1], blocks[base + 1])


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
    symmetry condition including agreement of the two signature routes.
    Each representation is folded once: ``chi_X1`` over its checks and its
    mirrored generators, ``chi2`` over its checks and the symmetry report's
    words (``chi1``'s checks are read off that fold), and ``chi1`` over
    ``G2``'s tree words.  The cover is written directly and each derived
    block-monomial is built trusted from validated parts, so nothing made
    here is validated a second time.  The report is one table, the symmetry
    and route rows of one ``_checks`` call.
    """
    cov = cyclic_cover(n)
    p = cov.presentation
    assert isinstance(p, DoubledPresentation)
    trans = schreier_transversal(cov)
    chi_X1 = extend_to_double(annulus_surface_rep(sig.m, alpha), sig, p)
    chi1 = boundary_subgroup_rep(cov, trans, chi_X1)
    chi2, images = _induce(cov, trans, chi1, _symmetry_words(p))
    G2 = build_G2(cov, trans, chi1, sig.G)
    J2_diag = build_J2_diagonal(cov, sig)
    J2_pair = pairing_signature_matrices(chi2, G2, p)
    report = _symmetry_report(chi2, G2, J2_diag, p, images, J2_pair)
    return CyclicPipeline(
        covering=cov, transversal=trans, chi_X1=chi_X1, chi1=chi1, chi2=chi2,
        G2=G2, J2_diagonal=J2_diag, J2_pairing=J2_pair, report=report,
    )
