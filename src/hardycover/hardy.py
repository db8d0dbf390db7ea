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
  ``|dz| = r d theta`` density included;
* on a uniform grid ``theta_j = 2 pi j / N`` the Laurent part is an inverse
  FFT of length ``N``: ``a_d r^d`` sits at index ``d mod N`` and the result is
  multiplied by ``N``.  ``N >= 2 degree + 1`` keeps the indices distinct.  The
  branch factors ``z^c`` and ``1 / sqrt(F')`` are evaluated by continuity in
  the literal angle ``theta_j``, as everywhere else.

One sampler serves every uniform grid, with one FFT call for the columns of
one section or of a whole chunk of isometry trials; one formula gives the
pairing integrand ``g^* J f`` to ``indefinite_inner_product`` and
``verify_isometry`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import _as_int
from .induction import BlockMonomial, SignatureData
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
    "verify_isometry",
]

# entries of one sampled grid in verify_isometry (16 bytes each): bounds a chunk of trials
GRID_ENTRIES = 2**15


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
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"sheet count must be at least 1, got {n}")
    return AnnulusCovering(rho1=float(rho1), n=n, rho2=float(rho1) ** n)


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
    branch-by-continuity.  This direct sum serves arbitrary angles; the
    samplers on uniform grids use the inverse FFT of ``_uniform_values``.
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


def _uniform_values(
    coeffs: np.ndarray, radius: float, n_points: int, exponent: float
) -> np.ndarray:
    """Laurent parts times ``z^exponent`` at the angles ``2 pi j / n_points``, one row per column.

    Entry ``j`` of a ``coeffs`` row of width ``2 degree + 1`` is the
    coefficient of ``z^(j - degree)``.  One inverse FFT transforms every row,
    then the grid's branch multiplier is applied in place.  With ``exponent =
    spec.c`` a row is ``section_values`` on the same angles up to rounding,
    provided ``n_points >= 2 * degree + 1``.
    """
    degrees = np.arange(coeffs.shape[1]) - coeffs.shape[1] // 2
    spectrum = np.zeros((coeffs.shape[0], n_points), dtype=complex)
    spectrum[:, degrees % n_points] = coeffs * radius ** degrees.astype(float)
    values = np.fft.ifft(spectrum, axis=-1, out=spectrum)
    values *= n_points
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    # multiplier first: numpy rounds a complex product by its operand order
    return np.multiply(np.exp(exponent * (np.log(radius) + 1j * angles)), values, out=values)


def sample_section(
    spec: SectionSpec, component: int, n_samples: int, rho: float
) -> BoundarySection:
    """Boundary samples of a section on one circle of the annulus A(rho)."""
    _check_sample_count(n_samples, spec.degree)
    radius = _component_radius(component, rho)
    return BoundarySection(
        component=component,
        radius=radius,
        samples=_uniform_values(spec.coeffs.T, radius, n_samples, spec.c).T,
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

    The preimage of ``theta_j = 2 pi j / N`` on sheet ``k`` has angle
    ``2 pi (j + k N) / (n N)``, so all n blocks come from one uniform grid of
    ``n N`` angles upstairs.  There ``z^c / sqrt(F')`` is evaluated as
    ``z^(c - (n-1)/2) / sqrt(n)``, continued in the angle like each factor.
    """
    if branch_sign not in (-1, 1):
        raise ValueError("branch sign must be +1 or -1")
    _check_sample_count(n_samples, spec.degree)
    r2 = _component_radius(component, cov.rho2)
    r1 = _component_radius(component, cov.rho1)
    exponent = spec.c - 0.5 * (cov.n - 1)
    upstairs = _uniform_values(spec.coeffs.T, r1, cov.n * n_samples, exponent)
    upstairs /= branch_sign * np.sqrt(cov.n)
    # column k N + j of row d is entry d of block k at theta_j: (m, n, N) -> (N, n m)
    blocks = upstairs.reshape(spec.m, cov.n, n_samples).transpose(2, 1, 0)
    return BoundarySection(
        component=component,
        radius=r2,
        samples=blocks.reshape(n_samples, cov.n * spec.m),
        branch_sign=branch_sign,
    )


def indefinite_inner_product(
    f_sections: tuple[BoundarySection, ...],
    g_sections: tuple[BoundarySection, ...],
    J_list: Sequence[BlockMonomial | np.ndarray],
) -> complex:
    """Sum over boundary components of the weighted boundary pairing of f against g.

    Each component contributes the trapezoid sum of ``g(theta)^* J f(theta)``
    times the ``|dz| = r d theta`` density.  The first argument varies in the
    sesquilinear form's linear slot.  A weight over ``n`` sheets acts on the
    samples as ``(N, n, m)`` blocks; a square array is the one-sheet case.
    """
    if not (len(f_sections) == len(g_sections) == len(J_list)):
        raise ValueError("need one section pair and one weight per boundary component")
    total = 0.0 + 0.0j
    for f, g, J in zip(f_sections, g_sections, J_list):
        J = BlockMonomial.of(J)
        if f.n_samples != g.n_samples:
            raise ValueError("sections sampled at different resolutions")
        if f.component != g.component or f.radius != g.radius:
            raise ValueError("sections sampled on different circles")
        if J.n * J.m != f.dim or g.dim != f.dim:
            raise ValueError(
                f"dimension mismatch: sections in C^{f.dim}/C^{g.dim}, weight of rank {J.n * J.m}"
            )
        shape = (f.n_samples, J.n, J.m)
        integrand = _integrand(f.samples.reshape(shape), g.samples.reshape(shape).conj(), J)
        total += integrand.sum() * (2.0 * np.pi * f.radius / f.n_samples)
    return complex(total)


def _integrand(f: np.ndarray, g_conj: np.ndarray, J: BlockMonomial) -> np.ndarray:
    """``g^* J f`` per sample of ``(..., n, m)`` blocks, given ``f`` and the conjugate of ``g``.

    Block k of ``J f`` is ``blocks[k] f[perm[k]]``.  Callers that own ``g``
    conjugate it in place, and a sheet-diagonal weight gathers nothing, so a
    sampled grid is not copied.
    """
    if (J.perm != np.arange(J.n)).any():
        f = f[..., J.perm, :]
    return np.einsum("...kd,kde,...ke->...", g_conj, J.blocks, f)


def verify_isometry(
    cov: AnnulusCovering,
    pairs: Sequence[tuple[SectionSpec, SectionSpec]],
    alpha: float,
    sig: SignatureData,
    sample_counts: Sequence[int],
) -> np.ndarray:
    """Absolute gaps between the covered-side and base-side indefinite inner products.

    Entry ``[i, t]`` is the gap for pair ``t = (f, h)`` sampled at
    ``sample_counts[i]``.  The base side integrates over the two circles of
    A(rho1) with the given signature matrices; the covered side integrates
    the pushforwards over the two circles of A(rho1^n) with the transported
    block-diagonal signature matrices produced by the induction pipeline,
    which is built once for all pairs.

    Trials are sampled in chunks at the largest count ``N_max``, degrees
    zero-padded to the chunk's largest: per circle, one inverse FFT samples
    every f and h of a chunk on A(rho1), and one on the ``n N_max`` preimage
    angles upstairs.  A chunk keeps each grid within ``GRID_ENTRIES`` entries
    (or is one trial), so memory does not grow with the trial count.  The
    integrand is formed once per grid; a smaller count ``N`` sums every
    ``N_max / N``-th sample, whose angles are exactly those of an N-point
    grid.  Sections are sampled with exponent ``alpha / (2 pi)``.
    """
    if not sample_counts:
        raise ValueError("need at least one sample count")
    c = alpha / (2.0 * np.pi)
    for t, (spec_f, spec_h) in enumerate(pairs):
        if spec_f.m != spec_h.m or spec_f.m != sig.m:
            raise ValueError(
                f"rank mismatch in pair {t}: sections of rank {spec_f.m}/{spec_h.m}, "
                f"signature rank {sig.m}"
            )
        for name, spec in (("f", spec_f), ("h", spec_h)):
            if abs(spec.c - c) >= 1e-12:
                raise ValueError(
                    f"section {name} of pair {t} has multiplier exponent {spec.c}, "
                    f"incompatible with boundary phase {alpha}"
                )
            for n_samples in sample_counts:
                _check_sample_count(n_samples, spec.degree)

    pipeline = annulus_pipeline(cov.n, alpha, sig)
    if not pipeline.report.passed:
        raise ValueError(f"incompatible signature data: {pipeline.report.worst()}")

    n_max, m = max(sample_counts), sig.m
    sides = (  # weights, sheets, exponent and pairing radii of the base, then covered side
        ([BlockMonomial.of(J) for J in sig.J_list], 1, c, (1.0, cov.rho1)),
        (pipeline.J2_diagonal, cov.n, c - 0.5 * (cov.n - 1), (1.0, cov.rho2)),
    )
    chunk = max(1, GRID_ENTRIES // (2 * m * cov.n * n_max))
    residuals = np.empty((len(sample_counts), len(pairs)))
    for start in range(0, len(pairs), chunk):
        batch = pairs[start : start + chunk]
        degree = max(spec.degree for pair in batch for spec in pair)
        coeffs = np.zeros((2, len(batch), m, 2 * degree + 1), dtype=complex)
        for t, pair in enumerate(batch):
            for side, spec in enumerate(pair):
                coeffs[side, t, :, degree - spec.degree : degree + spec.degree + 1] = spec.coeffs.T
        coeffs = coeffs.reshape(-1, 2 * degree + 1)  # row (f or h, trial, d)
        totals = np.zeros((2, len(sample_counts), len(batch)), dtype=complex)
        for total, (weights, sheets, exponent, radii) in zip(totals, sides):
            for comp, r1 in enumerate((1.0, cov.rho1)):
                values = _uniform_values(coeffs, r1, sheets * n_max, exponent)
                values /= np.sqrt(sheets)  # the pushforward's 1 / sqrt(F') carries 1 / sqrt(n)
                # row (f or h, trial, d), column k N + j: entry d of sheet k at theta_j
                f, h = values.reshape(2, len(batch), m, sheets, n_max).transpose(0, 1, 4, 3, 2)
                integrand = _integrand(f, np.conjugate(h, out=h), weights[comp])
                del values, f, h  # one grid at a time
                for i, n_samples in enumerate(sample_counts):
                    weight = 2.0 * np.pi * radii[comp] / n_samples
                    total[i] += integrand[:, :: n_max // n_samples].sum(axis=1) * weight
        residuals[:, start : start + len(batch)] = np.abs(totals[1] - totals[0])
    return residuals
