"""Unitary matrix representations, extension to the double, and induction.

The three constructions here are the block formulas of the covering theory:

* extension of a boundary-compatible representation from the bordered surface
  to its double, with ``chi(B_j) = G J_j`` and mirrored handles conjugated by
  the pairing matrix ``G``;
* the induced representation of the full group from a representation of the
  covering subgroup, with block ``(k, sigma_g(k))`` equal to the subgroup
  value of ``g_k g g_{sigma_g(k)}^-1``;
* the transported pairing matrix ``G2`` with block ``(k, nu(k))`` equal to
  ``G1 chi1(h_k)``, and the per-component block-diagonal signature matrices.

All identities asserted by these constructions are re-verified numerically at
build time rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .covering import (
    CoveringAction,
    Transversal,
    factorize,
    nu_decompose,
    schreier_rewrite,
    subgroup_relators,
)
from .groups import (
    DoubledPresentation,
    GroupPresentation,
    Word,
    apply_involution,
    boundary_loop,
    mirror_monodromy,
)

__all__ = [
    "TOL_EXACT",
    "Check",
    "CheckReport",
    "MatrixRep",
    "SubgroupRep",
    "InducedRep",
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


def _residual_report(rep, alphabet: Sequence[str], relators: Sequence[Word], dim: int) -> CheckReport:
    checks = [
        Check(f"unitarity[{label}]", unitarity_residual(rep.images[label]), TOL_EXACT)
        for label in alphabet
    ]
    eye = np.eye(dim)
    for idx, relator in enumerate(relators):
        checks.append(Check(f"relator[{idx}]", _maxabs(rep.evaluate(relator) - eye), TOL_EXACT))
    return CheckReport(tuple(checks))


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Representation of a presented group by one matrix per generator."""

    presentation: GroupPresentation | DoubledPresentation
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
        p = self.presentation
        return _residual_report(self, p.alphabet, p.relators, self.m)


@dataclass(frozen=True, eq=False)
class SubgroupRep:
    """Representation of the covering subgroup on its Schreier generators.

    Evaluates directly on words over the Schreier alphabet, and on ambient
    words by rewriting them first (they must lie in the subgroup).
    """

    covering: CoveringAction
    transversal: Transversal
    m: int
    images: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", _as_matrices(self.images, self.m))
        missing = [lbl for lbl in self.transversal.alphabet if lbl not in self.images]
        if missing:
            raise ValueError(f"no image supplied for Schreier generator(s) {missing}")

    def evaluate(self, w: Word) -> np.ndarray:
        if w.alphabet == self.transversal.alphabet:
            return _product(self.images, self.transversal.alphabet, w, self.m)
        rewritten = schreier_rewrite(self.covering, self.transversal, w)
        return _product(self.images, self.transversal.alphabet, rewritten, self.m)

    @cached_property
    def _relators(self) -> tuple[Word, ...]:
        return subgroup_relators(self.covering, self.transversal)

    @cached_property
    def _check_report(self) -> CheckReport:
        return _residual_report(self, self.transversal.alphabet, self._relators, self.m)


@dataclass(frozen=True, eq=False)
class InducedRep:
    """Block-monomial representation induced from a covering subgroup."""

    covering: CoveringAction
    m: int
    images: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return self.covering.n

    @property
    def dimension(self) -> int:
        return self.n * self.m

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", _as_matrices(self.images, self.dimension))

    def evaluate(self, w: Word) -> np.ndarray:
        if w.alphabet != self.covering.presentation.alphabet:
            raise ValueError("word not over this representation's generators")
        return _product(self.images, self.covering.presentation.alphabet, w, self.dimension)

    @cached_property
    def _check_report(self) -> CheckReport:
        p = self.covering.presentation
        return _residual_report(self, p.alphabet, p.relators, self.dimension)

    def block_structure(self, label: str) -> tuple[tuple[int, int], ...]:
        """Positions ``(k, sigma_g(k))``, k = 1..n, of the nonzero blocks of a generator image."""
        perm = self.covering.perms[self.covering.presentation.alphabet.index(label)]
        return tuple(enumerate(perm, start=1))


def _product(
    images: Mapping[str, np.ndarray], alphabet: Sequence[str], w: Word, m: int
) -> np.ndarray:
    result = np.eye(m, dtype=complex)
    for gen, exp in w.letters:
        mat = images[alphabet[gen]]
        result = result @ (mat if exp > 0 else mat.conj().T)
    return result


def check_representation(rep: MatrixRep | SubgroupRep | InducedRep) -> CheckReport:
    """Unitarity residual per generator plus the relator residual(s); never raises.

    For a subgroup representation the relators are the rewritten conjugates
    of the base relators, which certify that the images are well defined.
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
    for g in p.generators:
        mirrored = chi_X.evaluate(apply_involution(p, p.gen(g.label)))
        res = _maxabs(mirrored.conj().T @ G @ chi_X.images[g.label] - G)
        checks.append(Check(f"pairing-symmetry[{g.label}]", res, TOL_EXACT))
    report = CheckReport(tuple(checks))
    if not report.passed:
        names = ", ".join(c.name for c in report.failing())
        raise ExtensionError(f"extension inconsistent: {names}", report)
    return chi_X


def induce_representation(
    cov: CoveringAction, trans: Transversal, chi1: SubgroupRep
) -> InducedRep:
    """Induce a representation of the full group from the covering subgroup.

    Block row k of the image of a generator ``g`` has its only nonzero block
    in column ``sigma_g(k)``, equal to the subgroup value of
    ``g_k g g_{sigma_g(k)}^-1``.  Refuses inconsistent subgroup data.
    """
    if chi1.covering is not cov or chi1.transversal is not trans:
        raise ValueError("subgroup representation belongs to a different covering")
    consistency = check_representation(chi1)
    if not consistency.passed:
        failures = []
        for check in consistency.failing():
            what = check.name
            if what.startswith("relator["):
                what = f"rewritten relator {chi1._relators[int(what[8:-1])]}"
            failures.append(f"{what} has residual {check.residual:.3e}")
        raise ValueError("subgroup representation inconsistent: " + "; ".join(failures))

    n, m = cov.n, chi1.m
    alphabet = cov.presentation.alphabet
    images: dict[str, np.ndarray] = {}
    for gi, label in enumerate(alphabet):
        letter = Word(((gi, 1),), alphabet)
        big = np.zeros((n * m, n * m), dtype=complex)
        for k in range(1, n + 1):
            h, j = factorize(cov, trans, k, letter)
            big[(k - 1) * m : k * m, (j - 1) * m : j * m] = chi1.evaluate(h)
        images[label] = big
    induced = InducedRep(covering=cov, m=m, images=images)

    verification = check_representation(induced)
    if not verification.passed:
        worst = max(verification.failing(), key=lambda c: c.residual)
        raise ValueError(f"induced representation failed verification: {worst.name}")
    return induced


def build_G2(
    cov: CoveringAction, trans: Transversal, chi1: SubgroupRep, G1: np.ndarray
) -> np.ndarray:
    """Transported pairing matrix: block ``(k, nu(k))`` is ``G1 chi1(h_k)``.

    Constant unitary selfadjoint ``G1`` only (the unitary flat regime).
    """
    G1 = np.asarray(G1, dtype=complex)
    if G1.shape != (chi1.m, chi1.m):
        raise ValueError(f"G1 has shape {G1.shape}, expected {(chi1.m, chi1.m)}")
    n, m = cov.n, chi1.m
    G2 = np.zeros((n * m, n * m), dtype=complex)
    for k in range(1, n + 1):
        h_k, nu_k = nu_decompose(cov, trans, k)
        G2[(k - 1) * m : k * m, (nu_k - 1) * m : nu_k * m] = G1 @ chi1.evaluate(h_k)
    return G2


def build_J2_diagonal(
    cov: CoveringAction,
    trans: Transversal,
    J1_assignment: Sequence[Sequence[np.ndarray]],
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
    chi2: InducedRep, G2: np.ndarray, p: DoubledPresentation
) -> list[np.ndarray]:
    """Signature matrices read off the pairing: ``J_{2,0} = G2``, ``J_{2,i} = chi2(B_i)^* G2``."""
    out = [G2.copy()]
    for i in range(1, p.k):
        out.append(chi2.images[f"B{i}"].conj().T @ G2)
    return out


def verify_symmetry_conditions(
    chi2: InducedRep,
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
    dim = chi2.dimension
    checks.append(Check("pairing-selfadjoint", _maxabs(G2 - G2.conj().T), TOL_EXACT))
    for g in p.generators:
        mirrored = chi2.evaluate(apply_involution(p, p.gen(g.label)))
        res = _maxabs(mirrored.conj().T @ G2 @ chi2.images[g.label] - G2)
        checks.append(Check(f"pairing-symmetry[{g.label}]", res, TOL_EXACT))
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
        for g in p.generators:
            R = p.gen(g.label)
            T_moved = apply_involution(p, R) * T_base * R.inverse()
            lhs = chi2.evaluate(T_moved) @ chi2.evaluate(R)
            rhs = chi2.evaluate(apply_involution(p, R)) @ chi2.evaluate(T_base)
            checks.append(
                Check(
                    f"monodromy-transport[{comp},{g.label}]",
                    _maxabs(lhs - rhs),
                    TOL_EXACT,
                )
            )
    return CheckReport(tuple(checks))


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(data: Sequence) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def rep_to_json(rep: MatrixRep | SubgroupRep | InducedRep) -> dict:
    doc: dict = {"m": rep.m, "images": {lbl: matrix_to_json(mat) for lbl, mat in rep.images.items()}}
    if isinstance(rep, InducedRep):
        doc["n"] = rep.n
        doc["block_structure"] = {
            lbl: [list(pair) for pair in rep.block_structure(lbl)] for lbl in rep.images
        }
    return doc


def rep_from_json(
    presentation: GroupPresentation | DoubledPresentation, doc: Mapping
) -> MatrixRep:
    images = {lbl: matrix_from_json(mat) for lbl, mat in doc["images"].items()}
    return MatrixRep(presentation=presentation, m=int(doc["m"]), images=images)
