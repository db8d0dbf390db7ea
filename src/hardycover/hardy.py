"""The pushforward's isometry of indefinite Hardy spaces along the power maps of annuli.

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

``verify_isometry`` is the one analytic path.  It checks the isometry as
an identity of Gram matrices on the Laurent basis, exact on a small grid,
and its convergence on Cauchy kernels, which are not band-limited.  Its
private kernels do the work: ``_uniform_values`` samples every Laurent
grid, ``_cauchy_values`` every kernel grid, and ``_pushforward`` pushes
either forward; ``_gram`` sums each pairing ``g^* J f`` over its whole grid
and ``_pointwise`` pairs at each angle, for sums over every ``s``-th angle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .groups import _as_int
from .induction import BlockMonomial, SignatureData
from .cyclic import CyclicPipeline, annulus_pipeline

__all__ = ["AnnulusCovering", "make_annulus_cover", "IsometryResult", "verify_isometry"]


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
    """The degree-``n`` power map onto ``A(rho1^n)``, refused unless ``rho1^n`` is a normal float."""
    if not 0.0 < rho1 < 1.0:
        raise ValueError(f"inner radius must lie in (0, 1), got {rho1}")
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"sheet count must be at least 1, got {n}")
    rho1 = float(rho1)
    if rho1**n < sys.float_info.min:
        raise ValueError(f"invalid value for field 'rho1': {rho1!r} ** n={n} underflows")
    return AnnulusCovering(rho1=rho1, n=n, rho2=rho1**n)


def _check_sample_count(n_samples: int, degree: int) -> int:
    """``n_samples`` as an int, refused unless it is a power of two that samples the degree."""
    n_samples = _as_int(n_samples, "samples")
    if n_samples & (n_samples - 1):
        raise ValueError(f"invalid value for field 'samples': {n_samples} is not a power of two")
    if n_samples < 2 * degree + 2:
        raise ValueError(
            f"invalid values for fields 'samples' and 'degree': {n_samples} samples undersample a "
            f"degree-{degree} section (need at least {2 * degree + 2})"
        )
    return n_samples


def _uniform_values(
    coeffs: np.ndarray, radius: float, n_points: int, exponent: float
) -> np.ndarray:
    """Laurent parts times ``z^exponent`` at the angles ``2 pi j / n_points``, one row per column.

    Entry ``j`` of a ``coeffs`` row of width ``2 degree + 1`` is the
    coefficient of ``z^(j - degree)``.  One inverse FFT transforms every row,
    then the grid's branch multiplier is applied in place.  A row is the
    term-by-term sum at the same angles up to rounding, provided ``n_points
    >= 2 * degree + 1``.
    """
    degrees = np.arange(coeffs.shape[1]) - coeffs.shape[1] // 2
    spectrum = np.zeros((coeffs.shape[0], n_points), dtype=complex)
    spectrum[:, degrees % n_points] = coeffs * radius ** degrees.astype(float)
    values = np.fft.ifft(spectrum, axis=-1, out=spectrum)
    values *= n_points
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    # multiplier first: numpy rounds a complex product by its operand order
    return np.multiply(np.exp(exponent * (np.log(radius) + 1j * angles)), values, out=values)


def _grid_exponentials(n_points: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """``e^{i theta_j}`` and ``e^{i exponent theta_j}`` on the angles ``theta_j = 2 pi j / n_points``."""
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    return np.exp(1j * angles), np.exp(1j * (exponent * angles))


def _cauchy_values(
    poles: np.ndarray, grids: dict, radius: float, n_points: int, exponent: float
) -> np.ndarray:
    """``z^exponent / (z - pole)`` at the angles ``2 pi j / n_points``, one row per pole, continued in the angle.

    On ``|z| = radius`` that is ``radius^exponent e^{i exponent theta} / (radius
    e^{i theta} - pole)``.  The grid's two exponentials are kept in ``grids``
    by ``(n_points, exponent)``, so circles sampled on one grid share them.
    """
    if (n_points, exponent) not in grids:
        grids[n_points, exponent] = _grid_exponentials(n_points, exponent)
    turn, branch = grids[n_points, exponent]
    return radius**exponent * branch / (radius * turn - poles[:, None])


def _pushforward(cov: AnnulusCovering, component: int, n_samples: int, exponent: float, sample) -> np.ndarray:
    """Blocks ``f(z_k) / sqrt(F'(z_k))`` over the n preimages of each ``theta_j``, as ``(rows, N, n)``.

    The preimage of ``theta_j = 2 pi j / N`` on sheet ``k`` has angle
    ``2 pi (j + k N) / (n N)``, so all n blocks come from one uniform grid of
    ``n N`` angles upstairs.  There ``z^c / sqrt(F')`` is ``z^(c - (n-1)/2) /
    sqrt(n)``: ``sample(radius, n_points, exponent)`` gives the rows' values
    times ``z^exponent`` on that grid, called with ``exponent - (n-1)/2``.
    For the count ``N / s``, block ``(j, k)`` is block ``(s j, k)`` of this grid.
    The root of ``F'`` is the one positive at angle 0; the other global sign
    would enter every pairing ``g^* J2 f`` squared, so no check could tell it.
    """
    r1 = (1.0, cov.rho1)[component]
    upstairs = sample(r1, cov.n * n_samples, exponent - 0.5 * (cov.n - 1))
    upstairs /= np.sqrt(cov.n)
    # column k N + j of a row is its value on sheet k at theta_j
    return upstairs.reshape(-1, cov.n, n_samples).transpose(0, 2, 1)


def _weigh(rows: np.ndarray, J: BlockMonomial) -> np.ndarray:
    """``J f`` for each ``f`` of ``rows``, ``(..., n, m)`` blocks: block k is ``blocks[k] f[perm[k]]``.

    A sheet-diagonal weight gathers nothing.
    """
    f = rows if (J.perm == np.arange(J.n)).all() else rows[..., J.perm, :]
    return np.einsum("kde,...ke->...kd", J.blocks, f)


def _gram(rows: np.ndarray, J: BlockMonomial) -> np.ndarray:
    """``[g^* J f]`` over pairs of ``rows``, ``g`` the row and ``f`` the column: one matrix product sums every pair."""
    return rows.reshape(len(rows), -1).conj() @ _weigh(rows, J).reshape(len(rows), -1).T


def _pointwise(rows: np.ndarray, J: BlockMonomial) -> np.ndarray:
    """``[g^* J f]`` over pairs of ``rows`` at each angle: ``(len, len, N)`` for ``(len, N, n, m)`` rows.

    ``g`` is the row and ``f`` the column, as in ``_gram``; the sum runs over
    the sheets and the rank only.
    """
    return np.einsum("ajkd,bjkd->abj", rows.conj(), _weigh(rows, J), order="C")


def _strided_sums(pairings: np.ndarray, step: int) -> np.ndarray:
    """Pointwise ``pairings`` summed over every ``step``-th angle, ``(len, len)``.

    The angle axis is last, so numpy sums it pairwise, strided or not: the
    sum rounds as that of pairings formed on the coarser grid alone.
    """
    return pairings[:, :, ::step].sum(axis=-1)


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
    Cauchy-kernel gap at each sample count of ``counts``.  ``pipeline``: the
    source of ``J2``, with the report of its symmetry checks.
    """

    pipeline: CyclicPipeline
    gram: tuple[tuple[float, tuple[int, int]], ...]
    trials: np.ndarray
    counts: tuple[int, ...]
    convergence: np.ndarray


def verify_isometry(
    cov: AnnulusCovering,
    alpha: float,
    sig: SignatureData,
    coeffs: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> IsometryResult:
    """The pushforward's isometry on sections ``z^c (sum_{|d| <= degree} a_d z^d)``, ``c = alpha / (2 pi)``.

    ``coeffs[t]`` holds pair ``t``'s ``f`` then ``h``, entry ``j`` the coefficient
    of ``z^(j - degree)``: its shape ``(trials, 2, 2 degree + 1, sig.m)`` gives
    the degree and the trial count.

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

    The convergence table pairs two Cauchy kernels ``z^c v / (z - p)`` at
    the doublings of 64 from the first ``>= 2 degree + 2`` up to ``samples``
    (``[samples]`` if there are none); ``samples`` is a power of two that
    samples the degree.  One pole lies beyond ``|z| = 1``, one inside
    ``|z| = rho1``, each at the ratio ``q = 2^(-53 / (n samples))`` to the
    nearer circle, so that the trapezoid error ``2 q^(n N)`` reaches rounding
    at ``N = samples``.  ``rng`` draws the unit vectors ``v`` and the poles'
    angles, on rays of every grid so that the error has no phase.  Both
    circles' kernels come from one pair of exponentials ``e^{i theta}``,
    ``e^{i e theta}`` on the ``n samples`` angles upstairs, ``e = c - (n-1)/2``,
    and are paired once per circle at each angle of ``samples``; count ``N``
    sums every ``samples / N``-th pairing, which for power-of-two strides
    rounds as sampling and pairing on ``N`` angles alone would.
    """
    c = alpha / (2.0 * np.pi)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 4 or coeffs.shape[1] != 2 or coeffs.shape[2] % 2 == 0 or coeffs.shape[3] != sig.m:
        raise ValueError(f"coefficients have shape {coeffs.shape}, expected (trials, 2, 2 degree + 1, {sig.m})")
    finite = np.isfinite(coeffs).all(axis=(2, 3))
    if not finite.all():
        t, side = np.argwhere(~finite)[0]
        raise ValueError(f"section {'fh'[side]} of pair {t} has non-finite coefficients")
    degree = coeffs.shape[2] // 2
    samples = _check_sample_count(samples, degree)
    counts = tuple(1 << k for k in range(6, samples.bit_length()) if 1 << k >= 2 * degree + 2) or (samples,)

    pipeline = annulus_pipeline(cov.n, alpha, sig)
    n, m = cov.n, sig.m
    degrees, n_gram = np.arange(-degree, degree + 1), 1 << (2 * degree + 1).bit_length()
    diagonal = np.arange(len(degrees))
    basis = partial(_uniform_values, np.eye(2 * degree + 1))
    # the kernels' poles, at the ratio q to their circles and on a ray 2 pi j / (n counts[0]) of every grid
    q, grid = 2.0 ** (-53.0 / (n * samples)), n * counts[0]
    poles = np.exp(2j * np.pi * rng.integers(grid, size=2) / grid) * np.array([1.0 / q, cov.rho1 * q])
    vectors = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    kernels = partial(_cauchy_values, poles, {})  # both circles' kernels from one pair of grid exponentials
    gram, total_gap, total_scale, sums, exact, norms = [], 0.0, 0.0, [], [], []
    for comp, (J, J2) in enumerate(zip(sig.J_list, pipeline.J2_diagonal)):
        r1, r2 = (1.0, cov.rho1)[comp], (1.0, cov.rho2)[comp]
        # basis row (d, j) is z^(c+d) e_j: each pushed Laurent row times each e_j
        pushed = _pushforward(cov, comp, n_gram, c, basis)[:, None, :, :, None] * np.eye(m)[:, None, None, :]
        weights = 2.0 * np.pi * r1 ** (2.0 * c + 2.0 * degrees + 1.0)
        gap = _gram(pushed.reshape(-1, n_gram, n, m), J2) * (2.0 * np.pi * r2 / n_gram)
        gap.reshape(-1, m, len(diagonal), m)[diagonal, :, diagonal] -= weights[:, None, None] * J
        scale = np.repeat(weights, m)
        relative = np.abs(gap) / np.outer(np.sqrt(scale), np.sqrt(scale))  # s_d s_d' may underflow
        row, col = np.unravel_index(relative.argmax(), relative.shape)
        gram.append((float(relative[row, col]), (int(degrees[row // m]), int(degrees[col // m]))))
        total_gap, total_scale = total_gap + gap, total_scale + scale

        closed = _cauchy_pairing(poles, r1, c)
        norms.append(np.sqrt(closed.diagonal().real))
        exact.append(closed * (vectors.conj() @ J @ vectors.T))
        # the kernels times their vectors on the finest grid, paired once at each angle
        fine = _pushforward(cov, comp, samples, c, kernels)[..., None] * vectors[:, None, None]
        pairings = _pointwise(fine, J2)
        sums.append([_strided_sums(pairings, samples // n_samples) for n_samples in counts])
    # every count of both circles in one pass: trapezoid weight, closed form, the kernels' norms, worst entry
    weights = 2.0 * np.pi * np.array([1.0, cov.rho2])[:, None] / np.array(counts)
    kernel_gaps, norms = np.array(sums) * weights[..., None, None] - np.array(exact)[:, None], np.array(norms)
    convergence = (np.abs(kernel_gaps) / (norms[:, None, :, None] * norms[:, None, None, :])).max(axis=(0, 2, 3))

    a, b = coeffs.reshape(len(coeffs), 2, len(degrees) * m).transpose(1, 0, 2)
    gaps = np.abs(np.einsum("ti,ij,tj->t", b.conj(), total_gap, a))
    norms = np.sqrt(np.abs(a) ** 2 @ total_scale) * np.sqrt(np.abs(b) ** 2 @ total_scale)
    trials = np.divide(gaps, norms, out=np.zeros_like(gaps), where=norms > 0)
    return IsometryResult(pipeline=pipeline, gram=tuple(gram), trials=trials, counts=counts, convergence=convergence)
