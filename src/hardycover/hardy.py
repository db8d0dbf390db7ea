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

One sampler serves every uniform grid, one pushforward all sections, and one
pairing, ``_gram``, every sum ``g^* J f``.  ``verify_isometry`` checks the
isometry as an identity of Gram matrices on the Laurent basis, exact on a
small grid, and its convergence on Cauchy kernels, which are not band-limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .groups import _as_int
from .induction import BlockMonomial, SignatureData
from .cyclic import CyclicPipeline, annulus_pipeline

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
    "IsometryResult",
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


def _cauchy_values(poles: np.ndarray, radius: float, n_points: int, exponent: float) -> np.ndarray:
    """``z^exponent / (z - pole)`` at the angles ``2 pi j / n_points``, one row per pole, continued in the angle."""
    log_z = np.log(radius) + 1j * (2.0 * np.pi * np.arange(n_points) / n_points)
    return np.exp(exponent * log_z) / (np.exp(log_z) - poles[:, None])


def _pushforward(cov: AnnulusCovering, component: int, n_samples: int, exponent: float, sample) -> np.ndarray:
    """Blocks ``f(z_k) / sqrt(F'(z_k))`` over the n preimages of each ``theta_j``, as ``(rows, N, n)``.

    The preimage of ``theta_j = 2 pi j / N`` on sheet ``k`` has angle
    ``2 pi (j + k N) / (n N)``, so all n blocks come from one uniform grid of
    ``n N`` angles upstairs.  There ``z^c / sqrt(F')`` is ``z^(c - (n-1)/2) /
    sqrt(n)``: ``sample(radius, n_points, exponent)`` gives the rows' values
    times ``z^exponent`` on that grid, called with ``exponent - (n-1)/2``.
    """
    r1 = _component_radius(component, cov.rho1)
    upstairs = sample(r1, cov.n * n_samples, exponent - 0.5 * (cov.n - 1))
    upstairs /= np.sqrt(cov.n)
    # column k N + j of a row is its value on sheet k at theta_j
    return upstairs.reshape(-1, cov.n, n_samples).transpose(0, 2, 1)


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
    a section with values in C^{n m}.  One inverse FFT on the ``n N`` angles
    upstairs samples every block (see ``_pushforward``).
    """
    if branch_sign not in (-1, 1):
        raise ValueError("branch sign must be +1 or -1")
    _check_sample_count(n_samples, spec.degree)
    blocks = _pushforward(cov, component, n_samples, spec.c, partial(_uniform_values, spec.coeffs.T))
    blocks /= branch_sign
    return BoundarySection(
        component=component,
        radius=_component_radius(component, cov.rho2),
        samples=blocks.transpose(1, 2, 0).reshape(n_samples, cov.n * spec.m),  # (m, N, n) -> (N, n m)
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
        rows = np.stack([f.samples, g.samples]).reshape(2, f.n_samples, J.n, J.m)
        total += _gram(rows, J)[1, 0] * (2.0 * np.pi * f.radius / f.n_samples)
    return complex(total)


def _gram(rows: np.ndarray, J: BlockMonomial) -> np.ndarray:
    """``[g^* J f]`` over pairs of ``rows``, ``g`` the row and ``f`` the column, each ``(..., n, m)`` blocks summed.

    Block k of ``J f`` is ``blocks[k] f[perm[k]]``; a sheet-diagonal weight
    gathers nothing.  One matrix product sums every pair.
    """
    f = rows if (J.perm == np.arange(J.n)).all() else rows[..., J.perm, :]
    weighted = np.einsum("kde,...ke->...kd", J.blocks, f).reshape(len(rows), -1)
    return rows.reshape(len(rows), -1).conj() @ weighted.T


def _cauchy_pairing(poles: np.ndarray, radius: float, c: float) -> np.ndarray:
    """Entry ``(a, b)`` is ``[k_b, k_a]`` for the kernels ``k_p = z^c / (z - p)`` on the circle ``|z| = radius``.

    On the circle ``k_p`` is a geometric series in ``z / p`` for a pole beyond
    it and in ``p / z`` for a pole inside it, so the pairing is
    ``2 pi r^(2c+1) / (b conj(a) - r^2)`` for two poles beyond,
    ``2 pi r^(2c+1) / (r^2 - b conj(a))`` for two inside, and 0 otherwise.
    """
    side = np.where(np.abs(poles) > radius, 1.0, -1.0)
    sign = (side[:, None] + side[None, :]) / 2.0
    return sign * 2.0 * np.pi * radius ** (2.0 * c + 1.0) / (poles[None, :] * poles.conj()[:, None] - radius**2)


@dataclass(frozen=True, eq=False)
class IsometryResult:
    """What ``verify_isometry`` measured, each gap relative to the size of its pairing.

    ``gram``: per circle, the largest Gram gap and the degrees ``(d', d)`` of
    its entry.  ``trials``: each pair's gap.  ``convergence``: the largest
    Cauchy-kernel gap per sample count.  ``pipeline``: the source of ``J2``,
    with the report of its symmetry checks.
    """

    pipeline: CyclicPipeline
    gram: tuple[tuple[float, tuple[int, int]], ...]
    trials: np.ndarray
    convergence: np.ndarray


def verify_isometry(
    cov: AnnulusCovering,
    alpha: float,
    sig: SignatureData,
    degree: int,
    pairs: Sequence[tuple[SectionSpec, SectionSpec]],
    sample_counts: Sequence[int],
    rng: np.random.Generator,
) -> IsometryResult:
    """The pushforward's isometry on sections ``z^c (sum_{|d| <= degree} a_d z^d)``, ``c = alpha / (2 pi)``.

    The pairing is sesquilinear, so the theorem is the equality, per circle,
    of two Gram matrices on the basis ``z^(c+d) e_j``: the base side's is
    ``2 pi r^(2c+2d+1) J`` on the blocks ``d = d'``, 0 elsewhere; the covered
    side pushes the basis forward on ``n N`` angles, N the least power of two
    from ``2 degree + 2`` (where the trapezoid rule is exact), and pairs it
    with the pipeline's ``J2_diagonal``.  Gap entry ``(d', d)`` is divided by
    ``sqrt(s_d' s_d)``, ``s_d = 2 pi r^(2c+2d+1) |J|``, where ``|J| = 1``
    because ``SignatureData`` admits only unitary ``J``.  A pair with
    coefficients ``a`` (f) and ``b`` (h) has the gap ``|b^* dG a|`` over
    ``sqrt(a^* S a b^* S b)``, with ``dG`` and ``S = diag(s)`` summed over
    both circles.

    The convergence table pairs two Cauchy kernels ``z^c v / (z - p)``: one
    pole beyond ``|z| = 1``, one inside ``|z| = rho1``, each at the ratio
    ``q = 2^(-53 / (n N_max))`` to the nearer circle, so that the trapezoid
    error ``2 q^(n N)`` reaches rounding at the largest count.  ``rng`` draws
    the unit vectors ``v`` and the poles' angles, on rays of every grid so
    that the error has no phase.
    """
    c = alpha / (2.0 * np.pi)
    degree = _as_int(degree, "degree")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
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
            if spec.degree > degree:
                raise ValueError(f"section {name} of pair {t} has degree {spec.degree}, above {degree}")
    counts = [_as_int(n_samples, "sample count") for n_samples in sample_counts]
    if min(counts, default=1) < 1:
        raise ValueError(f"sample counts must be positive, got {counts}")

    pipeline = annulus_pipeline(cov.n, alpha, sig)
    n, m = cov.n, sig.m
    degrees, n_gram = np.arange(-degree, degree + 1), 1 << (2 * degree + 1).bit_length()
    diagonal = np.arange(len(degrees))
    basis = partial(_uniform_values, np.eye(2 * degree + 1))
    # the kernels' poles, at the ratio q to their circles and on a ray 2 pi j / (n gcd) of every grid
    q, grid = 2.0 ** (-53.0 / (n * max(counts, default=1))), n * math.gcd(*counts)
    poles = np.exp(2j * np.pi * rng.integers(grid, size=2) / grid) * np.array([1.0 / q, cov.rho1 * q])
    vectors = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    gram, total_gap, total_scale, convergence = [], 0.0, 0.0, np.zeros(len(counts))
    for comp, (J, J2) in enumerate(zip(sig.J_list, pipeline.J2_diagonal)):
        r1, r2 = _component_radius(comp, cov.rho1), _component_radius(comp, cov.rho2)
        # basis row (d, j) is z^(c+d) e_j: each pushed Laurent row times each e_j
        pushed = np.einsum("dNk,je->djNke", _pushforward(cov, comp, n_gram, c, basis), np.eye(m))
        weights = 2.0 * np.pi * r1 ** (2.0 * c + 2.0 * degrees + 1.0)
        gap = _gram(pushed.reshape(-1, n_gram, n, m), J2) * (2.0 * np.pi * r2 / n_gram)
        gap.reshape(-1, m, len(diagonal), m)[diagonal, :, diagonal] -= weights[:, None, None] * J
        scale = np.repeat(weights, m)
        relative = np.abs(gap) / np.outer(np.sqrt(scale), np.sqrt(scale))  # s_d s_d' may underflow
        row, col = np.unravel_index(relative.argmax(), relative.shape)
        gram.append((float(relative[row, col]), (int(degrees[row // m]), int(degrees[col // m]))))
        total_gap, total_scale = total_gap + gap, total_scale + scale

        closed = _cauchy_pairing(poles, r1, c)
        scale = np.sqrt(closed.diagonal().real)
        for i, n_samples in enumerate(counts):
            pushed = _pushforward(cov, comp, n_samples, c, partial(_cauchy_values, poles))
            gap = _gram(pushed[..., None] * vectors[:, None, None, :], J2) * (2.0 * np.pi * r2 / n_samples)
            gap -= closed * (vectors.conj() @ J @ vectors.T)
            convergence[i] = max(convergence[i], (np.abs(gap) / np.outer(scale, scale)).max())

    coeffs = np.zeros((2, len(pairs), 2 * degree + 1, m), dtype=complex)
    for t, pair in enumerate(pairs):
        for side, spec in enumerate(pair):
            coeffs[side, t, degree - spec.degree : degree + spec.degree + 1] = spec.coeffs
    a, b = coeffs.reshape(2, len(pairs), (2 * degree + 1) * m)
    gaps = np.abs(np.einsum("ti,ij,tj->t", b.conj(), total_gap, a))
    norms = np.sqrt(np.abs(a) ** 2 @ total_scale) * np.sqrt(np.abs(b) ** 2 @ total_scale)
    trials = np.divide(gaps, norms, out=np.zeros_like(gaps), where=norms > 0)
    return IsometryResult(pipeline=pipeline, gram=tuple(gram), trials=trials, convergence=convergence)
