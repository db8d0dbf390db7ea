"""Unitary matrix representations, extension to the double, and induction.

``MatrixRep`` is the one representation type: one matrix per generator of a
presentation.  The presentation may be a surface group, its double, or a
Schreier transversal, which presents the covering subgroup; so the boundary
representation ``chi_X1``, the subgroup representation ``chi1`` and the
induced ``chi2`` (of rank ``n m``) are all ``MatrixRep``.

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
  ends; and the per-component block-diagonal signature matrices.

All identities asserted by these constructions are re-verified numerically at
build time rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .covering import CoveringAction, Transversal, schreier_walk
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
    "matrix_from_json",
]

# Identities that hold by construction are checked to 1e-12.
TOL_EXACT = 1e-12


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def unitarity_residual(u: np.ndarray) -> float:
    return _maxabs(u @ u.conj().T - np.eye(u.shape[0]))


@dataclass(frozen=True)
class Check:
    """A named residual and the tolerance it must stay below, both stored as floats."""

    name: str
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def _as_matrices(images: Mapping[str, np.ndarray], m: int) -> dict[str, np.ndarray]:
    """Complex images, set read-only so that a representation's kept check report stays valid."""
    out = {}
    for label, mat in images.items():
        arr = np.asarray(mat, dtype=complex)
        if arr.shape != (m, m):
            raise ValueError(f"image of {label!r} has shape {arr.shape}, expected {(m, m)}")
        arr.setflags(write=False)
        out[label] = arr
    return out


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Representation of a presented group by one matrix per generator.

    The presentation is a surface group, its double, or a Schreier
    transversal (the covering subgroup on its Schreier generators).
    """

    presentation: GroupPresentation | DoubledPresentation | Transversal
    m: int
    images: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", _as_matrices(self.images, self.m))
        missing = [lbl for lbl in self.presentation.alphabet if lbl not in self.images]
        if missing:
            raise ValueError(f"no image supplied for generator(s) {missing}")

    def evaluate(self, w: Word) -> np.ndarray:
        if w.alphabet != self.presentation.alphabet:
            raise ValueError("word not over this representation's generators")
        return _product(self.images, self.presentation.alphabet, w, self.m)

    @cached_property
    def _check_report(self) -> CheckReport:
        checks = [
            Check(f"unitarity[{label}]", unitarity_residual(self.images[label]), TOL_EXACT)
            for label in self.presentation.alphabet
        ]
        eye = np.eye(self.m)
        for idx, relator in enumerate(self.presentation.relators):
            residual = _maxabs(self.evaluate(relator) - eye)
            checks.append(Check(f"relator[{idx}]", residual, TOL_EXACT))
        return CheckReport(tuple(checks))


def _product(
    images: Mapping[str, np.ndarray], alphabet: Sequence[str], w: Word, m: int
) -> np.ndarray:
    result = np.eye(m, dtype=complex)
    for gen, exp in w.letters:
        mat = images[alphabet[gen]]
        result = result @ (mat if exp > 0 else mat.conj().T)
    return result


def check_representation(rep: MatrixRep) -> CheckReport:
    """Unitarity residual per generator plus the relator residual(s); never raises.

    For a representation of a transversal the relators are the rewritten
    conjugates of the base relators, which certify that the images are well
    defined.
    The report is computed once per representation and kept on it; the
    images are read-only, so it cannot go stale.
    """
    return rep._check_report


@dataclass(frozen=True, eq=False)
class SignatureData:
    """Signature matrices J_0..J_{k-1}, one per boundary component; G is J_0.

    Each J_i must be selfadjoint and unitary (so J_i^2 = I); this is enforced
    at construction.
    """

    J_list: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(np.asarray(J, dtype=complex) for J in self.J_list)
        if not mats:
            raise ValueError("at least one signature matrix required")
        m = mats[0].shape[0]
        for i, J in enumerate(mats):
            if J.shape != (m, m):
                raise ValueError(f"J_{i} has shape {J.shape}, expected {(m, m)}")
            if _maxabs(J - J.conj().T) >= TOL_EXACT:
                raise ValueError(f"J_{i} is not selfadjoint")
            if unitarity_residual(J) >= TOL_EXACT:
                raise ValueError(f"J_{i} is not unitary")
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
    for i in range(surf.k):
        a = chi_S.images[f"A{i}"]
        res = _maxabs(a.conj().T @ sig.J_list[i] @ a - sig.J_list[i])
        if res >= TOL_EXACT:
            raise ValueError(
                f"signature data incompatible with chi(A{i}): residual {res:.3e}"
            )

    G = sig.G
    images: dict[str, np.ndarray] = {}
    for j in range(1, surf.k):
        images[f"A{j}"] = chi_S.images[f"A{j}"]
        images[f"B{j}"] = G @ sig.J_list[j]
    for i in range(1, surf.s + 1):
        images[f"A'{i}"] = chi_S.images[f"A'{i}"]
        images[f"B'{i}"] = chi_S.images[f"B'{i}"]
        images[f"A''{i}"] = G @ chi_S.images[f"B'{i}"] @ G
        images[f"B''{i}"] = G @ chi_S.images[f"A'{i}"] @ G
    chi_X = MatrixRep(presentation=p, m=chi_S.m, images=images)

    checks = list(check_representation(chi_X).checks)
    for label in p.alphabet:
        mirrored = chi_X.evaluate(apply_involution(p, p.gen(label)))
        res = _maxabs(mirrored.conj().T @ G @ chi_X.images[label] - G)
        checks.append(Check(f"pairing-symmetry[{label}]", res, TOL_EXACT))
    report = CheckReport(tuple(checks))
    if not report.passed:
        names = ", ".join(c.name for c in report.failing())
        raise ExtensionError(f"extension inconsistent: {names}", report)
    return chi_X


def induce_representation(
    cov: CoveringAction, trans: Transversal, chi1: MatrixRep
) -> MatrixRep:
    """Induce a representation of the full group from the covering subgroup.

    ``chi1`` represents ``trans``.  Block row k of the image of a generator
    ``x`` has its only nonzero block in column ``k.x``: ``chi1(x@k)``, the
    Schreier generator of the edge, or ``I`` on a tree edge.  The result has
    rank ``n m``.  Refuses inconsistent subgroup data.
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

    n, m = cov.n, chi1.m
    eye = np.eye(m, dtype=complex)
    images: dict[str, np.ndarray] = {}
    for gi, label in enumerate(cov.presentation.alphabet):
        big = np.zeros((n * m, n * m), dtype=complex)
        for k in range(1, n + 1):
            j = cov.perms[gi][k - 1]
            sg = trans.edge_to_generator[(k, gi)]
            block = eye if sg is None else chi1.images[trans.alphabet[sg]]
            big[(k - 1) * m : k * m, (j - 1) * m : j * m] = block
        images[label] = big
    induced = MatrixRep(presentation=cov.presentation, m=n * m, images=images)

    verification = check_representation(induced)
    if not verification.passed:
        worst = max(verification.failing(), key=lambda c: c.residual)
        raise ValueError(f"induced representation failed verification: {worst.name}")
    return induced


def build_G2(
    cov: CoveringAction, trans: Transversal, chi1: MatrixRep, G1: np.ndarray
) -> np.ndarray:
    """Transported pairing matrix: block ``(k, nu(k))`` is ``G1 chi1(h_k)``.

    ``tau(g_k) = h_k g_{nu(k)}``.  From ``h_1 = 1``, ``nu(1) = 1``, a tree edge
    ``i -x-> j`` gives ``h_j = h_i w``, ``w`` being ``tau(x)`` walked from sheet
    ``nu(i)``, and ``nu(j)`` is where that walk ends.  The product is taken
    on words, so rounding does not build up along the tree.  Constant unitary
    selfadjoint ``G1`` only (the unitary flat regime).
    """
    if trans.covering is not cov:
        raise ValueError("transversal was built from a different covering")
    p = cov.presentation
    if not isinstance(p, DoubledPresentation):
        raise ValueError("involution decomposition needs a doubled presentation")
    G1 = np.asarray(G1, dtype=complex)
    if G1.shape != (chi1.m, chi1.m):
        raise ValueError(f"G1 has shape {G1.shape}, expected {(chi1.m, chi1.m)}")
    n, m = cov.n, chi1.m
    h = [Word((), trans.alphabet)] * n
    nu = [1] * n
    for i, gi in trans.tree_edges:
        j = cov.perms[gi][i - 1]
        w, nu[j - 1] = schreier_walk(cov, trans, nu[i - 1], p.tau[gi])
        h[j - 1] = Word(h[i - 1].letters + w.letters, trans.alphabet)
    G2 = np.zeros((n * m, n * m), dtype=complex)
    for k in range(1, n + 1):
        G2[(k - 1) * m : k * m, (nu[k - 1] - 1) * m : nu[k - 1] * m] = G1 @ chi1.evaluate(h[k - 1])
    return G2


def build_J2_diagonal(
    cov: CoveringAction, J1_assignment: Sequence[Sequence[np.ndarray]]
) -> list[np.ndarray]:
    """Per-component block-diagonal signature matrices of the covered surface.

    ``J1_assignment[component][k-1]`` is the signature value at the lift by
    ``g_k`` over that component (the transported base value).
    """
    n = cov.n
    out = []
    for comp, values in enumerate(J1_assignment):
        if len(values) != n:
            raise ValueError(f"component {comp}: need one value per sheet ({n}), got {len(values)}")
        mats = [np.asarray(v, dtype=complex) for v in values]
        m = mats[0].shape[0]
        J2 = np.zeros((n * m, n * m), dtype=complex)
        for k, J in enumerate(mats):
            if _maxabs(J - J.conj().T) >= TOL_EXACT or unitarity_residual(J) >= TOL_EXACT:
                raise ValueError(f"component {comp}, sheet {k + 1}: not a signature matrix")
            J2[k * m : (k + 1) * m, k * m : (k + 1) * m] = J
        out.append(J2)
    return out


def pairing_signature_matrices(
    chi2: MatrixRep, G2: np.ndarray, p: DoubledPresentation
) -> list[np.ndarray]:
    """Signature matrices read off the pairing: ``J_{2,0} = G2``, ``J_{2,i} = chi2(B_i)^* G2``."""
    out = [G2.copy()]
    for i in range(1, p.k):
        out.append(chi2.images[f"B{i}"].conj().T @ G2)
    return out


def verify_symmetry_conditions(
    chi2: MatrixRep,
    G2: np.ndarray,
    J2_list: Sequence[np.ndarray],
    p: DoubledPresentation,
) -> CheckReport:
    """Residual report for all symmetry conditions of the transported data.

    Checks that G2 is selfadjoint and intertwines ``chi2`` with its mirror,
    that each per-component J is a signature matrix invariant under the
    boundary loop, and that the mirror-monodromy transport identity holds in
    the image.
    """
    checks: list[Check] = []
    dim = chi2.m
    checks.append(Check("pairing-selfadjoint", _maxabs(G2 - G2.conj().T), TOL_EXACT))
    for label in p.alphabet:
        mirrored = chi2.evaluate(apply_involution(p, p.gen(label)))
        res = _maxabs(mirrored.conj().T @ G2 @ chi2.images[label] - G2)
        checks.append(Check(f"pairing-symmetry[{label}]", res, TOL_EXACT))
    for comp, J2 in enumerate(J2_list):
        checks.append(
            Check(f"signature-selfadjoint[{comp}]", _maxabs(J2 - J2.conj().T), TOL_EXACT)
        )
        checks.append(
            Check(f"signature-involution[{comp}]", _maxabs(J2 @ J2 - np.eye(dim)), TOL_EXACT)
        )
        loop = chi2.evaluate(boundary_loop(p, comp))
        checks.append(
            Check(
                f"boundary-compatibility[{comp}]",
                _maxabs(loop.conj().T @ J2 @ loop - J2),
                TOL_EXACT,
            )
        )
    for comp in range(p.k):
        T_base = mirror_monodromy(p, comp)
        for label in p.alphabet:
            R = p.gen(label)
            T_moved = apply_involution(p, R) * T_base * R.inverse()
            lhs = chi2.evaluate(T_moved) @ chi2.evaluate(R)
            rhs = chi2.evaluate(apply_involution(p, R)) @ chi2.evaluate(T_base)
            checks.append(
                Check(
                    f"monodromy-transport[{comp},{label}]",
                    _maxabs(lhs - rhs),
                    TOL_EXACT,
                )
            )
    return CheckReport(tuple(checks))


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(data: Sequence, name: str = "matrix") -> np.ndarray:
    """A complex matrix from rows of ``[re, im]`` pairs; any other entry is refused by its path."""
    real = lambda v: isinstance(v, Real) and not isinstance(v, bool)

    def entry(x, i: int, j: int) -> complex:
        if isinstance(x, (list, tuple)) and len(x) == 2 and all(map(real, x)):
            return complex(*x)
        raise ValueError(f"invalid value for field '{name}[{i}][{j}]': {x!r} is not an [re, im] pair")

    rows = enumerate(data)
    return np.array([[entry(x, i, j) for j, x in enumerate(row)] for i, row in rows], dtype=complex)


def rep_to_json(rep: MatrixRep, covering: CoveringAction | None = None) -> dict:
    """JSON form of ``rep``; given the covering it was induced along, the block form.

    The block form has the block rank ``m``, the sheet count ``n`` and, per
    generator, ``block_structure``: the pairs ``[k, sigma_g(k)]``, k = 1..n,
    of the nonzero blocks, read from the covering's sheet permutations.
    """
    images = {lbl: matrix_to_json(mat) for lbl, mat in rep.images.items()}
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
    images = {lbl: matrix_from_json(mat, f"images.{lbl}") for lbl, mat in doc["images"].items()}
    return MatrixRep(presentation=presentation, m=_as_int(doc["m"], "m"), images=images)
