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
every sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import (
    CoveringAction,
    Transversal,
    build_covering,
    schreier_transversal,
)
from .groups import DoubledPresentation, double_group, surface_group
from .induction import (
    TOL_EXACT,
    Check,
    CheckReport,
    InducedRep,
    MatrixRep,
    SignatureData,
    SubgroupRep,
    build_G2,
    build_J2_diagonal,
    extend_to_double,
    induce_representation,
    pairing_signature_matrices,
    verify_symmetry_conditions,
)

__all__ = [
    "cyclic_cover",
    "annulus_surface_rep",
    "annulus_double_rep",
    "boundary_subgroup_rep",
    "transport_boundary_values",
    "CyclicPipeline",
    "annulus_pipeline",
]


def cyclic_cover(n: int) -> CoveringAction:
    """Degree-n cyclic cover of the annulus double: A1 an n-cycle, B1 the identity."""
    if n < 1:
        raise ValueError(f"sheet count must be at least 1, got {n}")
    p = double_group(0, 2)
    cycle = tuple(range(2, n + 1)) + (1,)
    return build_covering(p, {"A1": cycle, "B1": tuple(range(1, n + 1))})


def annulus_surface_rep(m: int, alpha: float) -> MatrixRep:
    """Scalar-multiplier representation of the annulus group: the outer loop acts by e^{i alpha}."""
    p = surface_group(0, 2)
    phase = np.exp(1j * alpha)
    return MatrixRep(
        presentation=p,
        m=m,
        images={"A0": phase * np.eye(m), "A1": np.conj(phase) * np.eye(m)},
    )


def annulus_double_rep(m: int, alpha: float, sig: SignatureData) -> MatrixRep:
    """The annulus representation extended to the torus double with the given signature data."""
    return extend_to_double(annulus_surface_rep(m, alpha), sig, double_group(0, 2))


def boundary_subgroup_rep(
    cov: CoveringAction, trans: Transversal, chi_X1: MatrixRep
) -> SubgroupRep:
    """Subgroup representation on the Schreier generators of the cyclic cover.

    The Schreier generator ``A1@n`` is the core class of the covering torus
    and receives ``chi_X1(A1)``; every ``B1@i`` is the crossing class and
    receives ``chi_X1(B1)``.
    """
    n = cov.n
    images: dict[str, np.ndarray] = {}
    for g in trans.schreier_generators:
        if g.label == f"A1@{n}":
            images[g.label] = chi_X1.images["A1"]
        elif g.label.startswith("B1@"):
            images[g.label] = chi_X1.images["B1"]
        else:
            raise ValueError(f"unexpected Schreier generator {g.label!r} for a cyclic cover")
    return SubgroupRep(covering=cov, transversal=trans, m=chi_X1.m, images=images)


def transport_boundary_values(
    cov: CoveringAction, trans: Transversal, chi1: SubgroupRep, sig: SignatureData
) -> list[list[np.ndarray]]:
    """Signature values at every sheet lift over each boundary component.

    For the cyclic family all lifts over a component sit on the same
    preimage circle, whose lift component is stabilized by the covering
    torus's core class; transporting the base value around that stabilizer
    must return it unchanged, otherwise no consistent assignment exists.
    """
    n = cov.n
    core = chi1.images[f"A1@{n}"]
    out: list[list[np.ndarray]] = []
    for comp, J in enumerate(sig.J_list):
        transported = core @ J @ core.conj().T
        residual = float(np.max(np.abs(transported - J)))
        if residual >= TOL_EXACT:
            raise ValueError(
                f"transport inconsistency on component {comp}: the stabilizer moves the "
                f"signature value by {residual:.3e}"
            )
        out.append([J.copy() for _ in range(n)])
    return out


@dataclass(frozen=True, eq=False)
class CyclicPipeline:
    """Everything the cyclic-cover pipeline produces, plus its verification report."""

    presentation: DoubledPresentation
    covering: CoveringAction
    transversal: Transversal
    chi_X1: MatrixRep
    chi1: SubgroupRep
    chi2: InducedRep
    G2: np.ndarray
    J2_diagonal: list[np.ndarray]
    J2_pairing: list[np.ndarray]
    report: CheckReport


def annulus_pipeline(n: int, alpha: float, sig: SignatureData) -> CyclicPipeline:
    """Run the whole symbolic pipeline for the degree-n annulus cover.

    Extends the boundary data to the torus double, induces up the cyclic
    cover, transports the pairing and signature matrices, and verifies every
    symmetry condition including agreement of the two signature routes.
    """
    cov = cyclic_cover(n)
    p = cov.presentation
    assert isinstance(p, DoubledPresentation)
    trans = schreier_transversal(cov)
    chi_X1 = annulus_double_rep(sig.m, alpha, sig)
    chi1 = boundary_subgroup_rep(cov, trans, chi_X1)
    chi2 = induce_representation(cov, trans, chi1)
    G2 = build_G2(cov, trans, chi1, sig.G)
    assignment = transport_boundary_values(cov, trans, chi1, sig)
    J2_diag = build_J2_diagonal(cov, trans, assignment)
    J2_pair = pairing_signature_matrices(chi2, G2, p)

    checks = list(verify_symmetry_conditions(chi2, G2, J2_diag, p).checks)
    for comp, (a, b) in enumerate(zip(J2_diag, J2_pair)):
        checks.append(
            Check(f"signature-route-equality[{comp}]", np.max(np.abs(a - b)), TOL_EXACT)
        )
    return CyclicPipeline(
        presentation=p,
        covering=cov,
        transversal=trans,
        chi_X1=chi_X1,
        chi1=chi1,
        chi2=chi2,
        G2=G2,
        J2_diagonal=J2_diag,
        J2_pairing=J2_pair,
        report=CheckReport(tuple(checks)),
    )
