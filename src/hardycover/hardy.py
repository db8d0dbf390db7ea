"""Boundary sampling, pushforward, and indefinite inner products on annuli.

Conventions, fixed once for the whole module:

* the annulus with inner radius ``rho`` is ``{rho < |z| < 1}``; boundary
  component 0 is the outer circle ``|z| = 1``, component 1 is ``|z| = rho``;
* sections are truncated Laurent series with a real multiplier exponent,
  ``z^c sum_d a_d z^d`` times the half-differential frame, so the value picks
  up ``e^{2 pi i c}`` when continued once around the core;
* every fractional power (``z^c``, ``w^{1/n}``, the square root of the
  covering derivative) is evaluated by continuity in the angle from the base
  angle 0, so the only branch jump sits across ``theta = 2 pi``.  Inner
  products pair identical branch factors, which makes them branch invariant;
* boundary integrals are uniform trapezoid sums in the angle, with the
  ``|dz| = r d theta`` density included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .induction import SignatureData
from .cyclic import annulus_pipeline

__all__ = [
    "AnnulusCovering",
    "SectionSpec",
    "BoundarySection",
    "make_annulus_cover",
    "random_section",
    "section_values",
    "sample_section",
    "pushforward_section",
    "indefinite_inner_product",
    "hardy_bound_check",
    "verify_isometry",
]


@dataclass(frozen=True)
class AnnulusCovering:
    """The degree-n power map from the annulus of inner radius ``rho1`` onto A(rho1^n).

    The map is n-to-1 with nonvanishing derivative, sends boundary circles to
    boundary circles, and commutes with the mirror inversion of each annulus.
    """

    rho1: float
    n: int
    rho2: float


def make_annulus_cover(rho1: float, n: int) -> AnnulusCovering:
    if not 0.0 < rho1 < 1.0:
        raise ValueError(f"inner radius must lie in (0, 1), got {rho1}")
    if n < 1:
        raise ValueError(f"sheet count must be at least 1, got {n}")
    return AnnulusCovering(rho1=float(rho1), n=int(n), rho2=float(rho1) ** n)


@dataclass(frozen=True, eq=False)
class SectionSpec:
    """Truncated Laurent section ``z^c (sum_{|d| <= degree} a_d z^d)`` with values in C^m.

    ``coeffs`` has shape ``(2*degree + 1, m)``; row ``j`` is the coefficient
    of ``z^(j - degree)``.
    """

    m: int
    c: float
    degree: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (2 * self.degree + 1, self.m):
            raise ValueError(
                f"coefficients have shape {arr.shape}, expected {(2 * self.degree + 1, self.m)}"
            )
        object.__setattr__(self, "coeffs", arr)


def random_section(rng: np.random.Generator, m: int, degree: int, c: float) -> SectionSpec:
    """Section with independent standard complex Gaussian coefficients."""
    shape = (2 * degree + 1, m)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SectionSpec(m=m, c=float(c), degree=degree, coeffs=coeffs)


@dataclass(frozen=True, eq=False)
class BoundarySection:
    """Sampled boundary values on one circle, at ``theta_j = 2 pi j / N``.

    ``samples`` has one row per angle; ``branch_sign`` records the global
    sign choice of the covering square root (trivially +1 before pushing
    forward).
    """

    component: int
    radius: float
    samples: np.ndarray
    multiplier: float
    branch_sign: int = 1

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _check_sample_count(n_samples: int, degree: int) -> None:
    if n_samples < 2 * degree + 2:
        raise ValueError(
            f"{n_samples} samples undersample a degree-{degree} section "
            f"(need at least {2 * degree + 2})"
        )
    if n_samples & (n_samples - 1):
        raise ValueError(f"sample count must be a power of two, got {n_samples}")


def section_values(spec: SectionSpec, radius: float, angles: np.ndarray) -> np.ndarray:
    """Section values at ``radius * e^{i angle}``, the multiplier continued in the angle.

    Angles are taken literally (not reduced mod 2 pi), which is what realizes
    branch-by-continuity.
    """
    angles = np.asarray(angles, dtype=float)
    degrees = np.arange(-spec.degree, spec.degree + 1)
    basis = np.exp(1j * np.outer(angles, degrees)) * radius ** degrees.astype(float)
    values = basis @ spec.coeffs
    multiplier = np.exp(spec.c * (np.log(radius) + 1j * angles))
    return multiplier[:, None] * values


def _component_radius(component: int, rho: float) -> float:
    if component == 0:
        return 1.0
    if component == 1:
        return float(rho)
    raise ValueError(f"annulus has boundary components 0 and 1, got {component}")


def sample_section(
    spec: SectionSpec, component: int, n_samples: int, rho: float
) -> BoundarySection:
    """Boundary samples of a section on one circle of the annulus A(rho)."""
    _check_sample_count(n_samples, spec.degree)
    radius = _component_radius(component, rho)
    angles = 2.0 * np.pi * np.arange(n_samples) / n_samples
    return BoundarySection(
        component=component,
        radius=radius,
        samples=section_values(spec, radius, angles),
        multiplier=spec.c,
    )


def pushforward_section(
    cov: AnnulusCovering,
    spec: SectionSpec,
    component: int,
    n_samples: int,
    branch_sign: int = 1,
) -> BoundarySection:
    """Pushforward of a section along the power map, sampled on a circle downstairs.

    At a boundary point ``w`` of the target annulus the value is the vector of
    blocks ``f(z_k) / sqrt(F'(z_k))`` over the n preimages ``z_k``, with both
    the root of ``z_k`` and the root of the derivative ``F' = n z^{n-1}``
    continued in the angle.  The blocks are stacked in preimage order, giving
    a section with values in C^{n m}.
    """
    if branch_sign not in (-1, 1):
        raise ValueError("branch sign must be +1 or -1")
    _check_sample_count(n_samples, spec.degree)
    r2 = _component_radius(component, cov.rho2)
    r1 = _component_radius(component, cov.rho1)
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    blocks = []
    for k in range(cov.n):
        phi = (theta + 2.0 * np.pi * k) / cov.n
        upstairs = section_values(spec, r1, phi)
        root_deriv = branch_sign * np.sqrt(cov.n) * np.exp(
            0.5 * (cov.n - 1) * (np.log(r1) + 1j * phi)
        )
        blocks.append(upstairs / root_deriv[:, None])
    return BoundarySection(
        component=component,
        radius=r2,
        samples=np.concatenate(blocks, axis=1),
        multiplier=spec.c,
        branch_sign=branch_sign,
    )


def indefinite_inner_product(
    f_sections: tuple[BoundarySection, ...],
    g_sections: tuple[BoundarySection, ...],
    J_list: tuple[np.ndarray, ...] | list[np.ndarray],
) -> complex:
    """Sum over boundary components of the weighted boundary pairing of f against g.

    Each component contributes the trapezoid sum of ``g(theta)^* J f(theta)``
    times the ``|dz| = r d theta`` density.  The first argument varies in the
    sesquilinear form's linear slot.
    """
    if not (len(f_sections) == len(g_sections) == len(J_list)):
        raise ValueError("need one section pair and one weight per boundary component")
    total = 0.0 + 0.0j
    for f, g, J in zip(f_sections, g_sections, J_list):
        J = np.asarray(J, dtype=complex)
        if f.n_samples != g.n_samples:
            raise ValueError("sections sampled at different resolutions")
        if f.component != g.component or f.radius != g.radius:
            raise ValueError("sections sampled on different circles")
        if J.shape != (f.dim, f.dim) or g.dim != f.dim:
            raise ValueError(
                f"dimension mismatch: sections in C^{f.dim}/C^{g.dim}, weight {J.shape}"
            )
        integrand = np.einsum("nd,de,ne->n", g.samples.conj(), J, f.samples)
        total += integrand.sum() * (2.0 * np.pi * f.radius / f.n_samples)
    return complex(total)


def hardy_bound_check(
    spec: SectionSpec,
    rho: float,
    r_values: tuple[float, ...] | None = None,
    n_samples: int = 256,
) -> float:
    """Sup over approximating curve pairs of the boundary-norm integral.

    For each ``r`` the curves are ``|z| = r`` and ``|z| = rho / r``, which
    approach the two boundary circles together as ``r`` tends to 1.  Truncated
    Laurent sections always give a finite sup; the value is diagnostic.
    """
    if r_values is None:
        r_values = tuple(1.0 - (1.0 - rho) * 0.5 ** j for j in range(1, 9))
    _check_sample_count(n_samples, spec.degree)
    angles = 2.0 * np.pi * np.arange(n_samples) / n_samples
    sup = 0.0
    for r in r_values:
        if not rho < r < 1.0:
            raise ValueError(f"approximating radius {r} outside ({rho}, 1)")
        total = 0.0
        for radius in (r, rho / r):
            vals = section_values(spec, radius, angles)
            norms = np.sum(np.abs(vals) ** 2, axis=1)
            total += norms.sum() * (2.0 * np.pi * radius / n_samples)
        sup = max(sup, total)
    return sup


def verify_isometry(
    cov: AnnulusCovering,
    spec_f: SectionSpec,
    spec_h: SectionSpec,
    alpha: float,
    sig: SignatureData,
    n_samples: int,
) -> float:
    """Absolute gap between the covered-side and base-side indefinite inner products.

    The base side integrates over the two circles of A(rho1) with the given
    signature matrices; the covered side integrates the pushforwards over the
    two circles of A(rho1^n) with the transported block-diagonal signature
    matrices produced by the induction pipeline.
    """
    if spec_f.m != spec_h.m or spec_f.m != sig.m:
        raise ValueError(
            f"rank mismatch: sections of rank {spec_f.m}/{spec_h.m}, signature rank {sig.m}"
        )
    c = alpha / (2.0 * np.pi)
    for name, spec in (("f", spec_f), ("h", spec_h)):
        if abs(spec.c - c) >= 1e-12:
            raise ValueError(
                f"section {name} has multiplier exponent {spec.c}, "
                f"incompatible with boundary phase {alpha}"
            )

    pipeline = annulus_pipeline(cov.n, alpha, sig)
    if not pipeline.report.passed:
        failing = ", ".join(ch.name for ch in pipeline.report.failing())
        raise ValueError(f"incompatible signature data: {failing}")

    f1 = tuple(sample_section(spec_f, comp, n_samples, cov.rho1) for comp in (0, 1))
    h1 = tuple(sample_section(spec_h, comp, n_samples, cov.rho1) for comp in (0, 1))
    base = indefinite_inner_product(f1, h1, sig.J_list)

    f2 = tuple(pushforward_section(cov, spec_f, comp, n_samples) for comp in (0, 1))
    h2 = tuple(pushforward_section(cov, spec_h, comp, n_samples) for comp in (0, 1))
    covered = indefinite_inner_product(f2, h2, pipeline.J2_diagonal)

    return abs(covered - base)
