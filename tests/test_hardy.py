"""Boundary sampling, pushforward, quadrature, and the isometry residual.

The independent oracle used throughout: for truncated Laurent sections the
boundary pairing on a circle of radius r has the exact Fourier closed form

    2 pi r^(2c+1) sum_d r^(2d) b_d^* J a_d,

so every quadrature value can be checked against a formula that never touches
the sampling code.  Sections are their ``(2 degree + 1, m)`` coefficient
arrays; the tests sample, push forward and pair them through ``hardy``'s
kernels, the ones ``verify_isometry`` runs.
"""

import dataclasses
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardycover import (
    SignatureData,
    annulus_pipeline,
    make_annulus_cover,
    verify_isometry,
)
from hardycover import hardy
from hardycover.induction import BlockMonomial

from helpers import (
    count_calls,
    pair_coeffs,
    per_count_convergence,
    random_coeffs,
    random_signature_matrix,
    section_values,
)

TWO_PI = 2.0 * np.pi
CONSTANT = np.ones((1, 1), dtype=complex)  # the constant section 1, of degree 0 and rank 1


def sampled(coeffs, c, radius, n_samples):
    """``hardy._uniform_values`` of a section on one circle, as one-sheet ``(N, 1, m)`` samples."""
    return hardy._uniform_values(coeffs.T, radius, n_samples, c).T[:, None, :]


def pushed(cov, coeffs, c, component, n_samples):
    """``hardy._pushforward`` of a section on one circle downstairs, as ``(N, n, m)`` samples."""
    blocks = hardy._pushforward(cov, component, n_samples, c, partial(hardy._uniform_values, coeffs.T))
    return blocks.transpose(1, 2, 0)


def pairing(f, h, J_list, radii):
    """``<f, h>``: per circle, ``hardy._gram`` of the ``(N, n, m)`` samples times the trapezoid weight ``2 pi r / N``.

    ``f`` varies in the sesquilinear form's linear slot.
    """
    total = 0.0 + 0.0j
    for f_c, h_c, J, r in zip(f, h, J_list, radii):
        total += hardy._gram(np.stack([f_c, h_c]), BlockMonomial.of(J))[1, 0] * (TWO_PI * r / len(f_c))
    return complex(total)


def fourier_inner_product(coeffs_f, coeffs_h, c, rho, J_list):
    """Closed-form boundary pairing of truncated sections over both circles."""
    assert coeffs_f.shape == coeffs_h.shape
    degrees = np.arange(len(coeffs_f)) - len(coeffs_f) // 2
    total = 0.0 + 0.0j
    for comp, J in enumerate(J_list):
        r = 1.0 if comp == 0 else rho
        acc = 0.0 + 0.0j
        for row, d in enumerate(degrees):
            acc += (coeffs_h[row].conj() @ np.asarray(J) @ coeffs_f[row]) * r ** (2.0 * d)
        total += TWO_PI * r ** (2.0 * c + 1.0) * acc
    return complex(total)


def relative_gap(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


def direct_pushforward(cov, coeffs, c, component, n_samples, root_sign=1):
    """Pushforward samples summed term by term at each sheet's preimage angles, as ``(N, n, m)``."""
    r1 = 1.0 if component == 0 else cov.rho1
    theta = TWO_PI * np.arange(n_samples) / n_samples
    blocks = []
    for k in range(cov.n):
        phi = (theta + TWO_PI * k) / cov.n
        root_deriv = np.exp(0.5 * (cov.n - 1) * (np.log(r1) + 1j * phi))
        root_deriv *= root_sign * np.sqrt(cov.n)
        blocks.append(section_values(coeffs, c, r1, phi) / root_deriv[:, None])
    return np.stack(blocks, axis=1)


def laurent(degree, d):
    """The monomial ``z^d`` as a degree-``degree`` section of rank 1."""
    coeffs = np.zeros((2 * degree + 1, 1), dtype=complex)
    coeffs[degree + d, 0] = 1.0
    return coeffs


class TestAnnulusCover:
    def test_radii(self):
        cov = make_annulus_cover(0.8, 3)
        assert cov.rho2 == pytest.approx(0.512)

    def test_identity(self):
        cov = make_annulus_cover(0.9, 1)
        assert cov.n == 1 and cov.rho2 == pytest.approx(0.9)

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.3, -0.2])
    def test_invalid_radius(self, rho):
        with pytest.raises(ValueError):
            make_annulus_cover(rho, 2)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            make_annulus_cover(0.5, 0)

    def test_underflowing_inner_radius_refused(self):
        # rho1**n below the least normal float: 0.01**200 is 0.0, which the pairing then divides by
        with pytest.raises(ValueError, match=r"^invalid value for field 'rho1': 0.01 \*\* n=200 underflows$"):
            make_annulus_cover(0.01, 200)
        assert make_annulus_cover(0.01, 150).rho2 == 0.01**150 > 0.0

    @pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", None])
    def test_refuses_non_integer_degree(self, n):
        with pytest.raises(ValueError, match="is not an integer"):
            make_annulus_cover(0.6, n)

    def test_accepts_numpy_integer_degree(self):
        cov = make_annulus_cover(0.6, np.int64(3))
        assert cov.n == 3 and type(cov.n) is int
        assert cov.rho2 == make_annulus_cover(0.6, 3).rho2


def run_counts(samples, degree=0):
    """``verify_isometry`` on one pair of degree-``degree`` sections at the sample count ``samples``."""
    sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
    coeffs = np.zeros((1, 2, 2 * degree + 1, 1))
    return verify_isometry(make_annulus_cover(0.5, 2), 0.0, sig, coeffs, samples, np.random.default_rng(0))


class TestSampling:
    def test_constant_section(self):
        samples = hardy._uniform_values(CONSTANT.T, 1.0, 8, 0.0)
        assert np.allclose(samples, np.ones((1, 8)), atol=0)

    def test_linear_section_inner_circle(self):
        samples = hardy._uniform_values(laurent(1, 1).T, 0.5, 8, 0.0)
        theta = TWO_PI * np.arange(8) / 8
        assert np.allclose(samples[0], 0.5 * np.exp(1j * theta), atol=1e-15)

    def test_fractional_multiplier_branch(self):
        samples = hardy._uniform_values(CONSTANT.T, 1.0, 16, 0.25)
        theta = TWO_PI * np.arange(16) / 16
        assert np.allclose(samples[0], np.exp(0.25j * theta), atol=1e-14)

    # the sample-count refusals, made by verify_isometry before any work, in the config's wording

    def test_undersampling_rejected(self, monkeypatch):
        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        with pytest.raises(ValueError) as refused:
            run_counts(16, degree=8)
        assert str(refused.value) == (
            "invalid values for fields 'samples' and 'degree': 16 samples undersample a degree-8 section "
            "(need at least 18)"
        )

    def test_power_of_two_required(self, monkeypatch):
        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        with pytest.raises(ValueError) as refused:
            run_counts(12)
        assert str(refused.value) == "invalid value for field 'samples': 12 is not a power of two"

    def test_non_integer_count_refused(self, monkeypatch):
        # a float count used to raise numpy's TypeError from the power-of-two test
        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        for samples in (8.0, np.float64(8.0)):
            with pytest.raises(ValueError) as refused:
                run_counts(samples)
            assert str(refused.value) == f"invalid value for field 'samples': {samples!r} is not an integer"

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize(
        "degree, n_samples, m, c, rho",
        [
            (0, 2, 1, 0.0, 0.5),
            (1, 4, 2, 0.25, 0.3),
            (3, 8, 1, 0.7 / TWO_PI, 0.6),
            (7, 16, 3, -0.4, 0.8),
            (15, 32, 1, 0.1, 0.7),
            (8, 1024, 2, 1.3 / TWO_PI, 0.6),
        ],
    )
    def test_fft_samples_match_direct_sum(self, degree, n_samples, m, c, rho, component):
        coeffs = random_coeffs(np.random.default_rng(degree), m, degree)
        radius = 1.0 if component == 0 else rho
        samples = hardy._uniform_values(coeffs.T, radius, n_samples, c).T
        direct = section_values(coeffs, c, radius, TWO_PI * np.arange(n_samples) / n_samples)
        assert relative_gap(samples, direct) < 1e-13

    def test_monodromy_of_continued_values(self):
        coeffs, c = random_coeffs(np.random.default_rng(1), 2, 4), 0.35 / TWO_PI
        theta = TWO_PI * np.arange(32) / 32
        base = section_values(coeffs, c, 0.7, theta)
        shifted = section_values(coeffs, c, 0.7, theta + TWO_PI)
        assert np.max(np.abs(shifted - np.exp(0.35j) * base)) < 1e-12


class TestPushforward:
    def test_degree_one_is_identity(self):
        cov = make_annulus_cover(0.6, 1)
        coeffs = random_coeffs(np.random.default_rng(2), 2, 5)
        for component in (0, 1):
            for n_samples in (16, 64, 1024):
                direct = sampled(coeffs, 0.1, (1.0, 0.6)[component], n_samples)
                assert np.array_equal(pushed(cov, coeffs, 0.1, component, n_samples), direct)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize(
        "n, degree, n_samples, rho, c, root_sign",
        [
            (1, 3, 8, 0.6, 0.0, 1),
            (2, 1, 4, 0.5, 0.25, -1),
            (3, 7, 16, 0.6, 0.7 / TWO_PI, 1),
            (5, 8, 64, 0.8, -0.3, -1),
            (6, 4, 32, 0.9, 0.45, 1),
        ],
    )
    def test_one_fft_matches_per_sheet_sums(
        self, n, degree, n_samples, rho, c, root_sign, component
    ):
        # n * n_samples is not a power of two for n = 3, 5, 6; the pushforward divides by the root
        # of F' that is positive at angle 0, so the reference on the other root is its negative
        cov = make_annulus_cover(rho, n)
        coeffs = random_coeffs(np.random.default_rng(n), 2, degree)
        samples = pushed(cov, coeffs, c, component, n_samples)
        direct = root_sign * direct_pushforward(cov, coeffs, c, component, n_samples, root_sign)
        assert samples.shape == (n_samples, n, 2)
        assert relative_gap(samples, direct) < 1e-13

    def test_two_sheets_constant_section(self):
        # preimage angles (theta + 2 pi k)/2; the derivative root is sqrt(2 z_k)
        samples = pushed(make_annulus_cover(0.6, 2), CONSTANT, 0.0, 0, 16)
        theta = TWO_PI * np.arange(16) / 16
        for k in (0, 1):
            expected = np.exp(-0.25j * (theta + TWO_PI * k)) / np.sqrt(2.0)
            assert np.allclose(samples[:, k, 0], expected, atol=1e-14)

    def test_three_sheets_linear_section(self):
        # odd degree: the derivative root needs no branch and blocks are constant
        samples = pushed(make_annulus_cover(0.6, 3), laurent(1, 1), 0.0, 0, 16)
        assert np.allclose(samples, np.full((16, 3, 1), 1.0 / np.sqrt(3.0)), atol=1e-14)


class TestInnerProduct:
    def test_constant_indefinite(self):
        rho = 0.5
        secs = tuple(sampled(CONSTANT, 0.0, r, 64) for r in (1.0, rho))
        value = pairing(secs, secs, (np.eye(1), -np.eye(1)), (1.0, rho))
        assert value == pytest.approx(TWO_PI * (1 - rho), abs=1e-10)

    def test_constant_definite(self):
        rho = 0.5
        secs = tuple(sampled(CONSTANT, 0.0, r, 64) for r in (1.0, rho))
        value = pairing(secs, secs, (np.eye(1), np.eye(1)), (1.0, rho))
        assert value == pytest.approx(TWO_PI * (1 + rho), abs=1e-10)

    def test_fourier_orthogonality(self):
        rho = 0.5
        f = tuple(sampled(laurent(1, 1), 0.0, r, 64) for r in (1.0, rho))
        g = tuple(sampled(laurent(1, 0), 0.0, r, 64) for r in (1.0, rho))
        value = pairing(f, g, (np.eye(1), np.eye(1)), (1.0, rho))
        assert abs(value) < 1e-12

    def test_random_sections_match_fourier_oracle(self):
        rng = np.random.default_rng(5)
        rho = 0.6
        basis = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        J_list = (
            basis @ np.diag([1.0, -1.0 + 0j]) @ basis.conj().T,
            basis @ np.diag([-1.0, -1.0 + 0j]) @ basis.conj().T,
        )
        for _ in range(10):
            c = float(rng.uniform(-0.5, 0.5))
            coeffs_f = random_coeffs(rng, 2, 6)
            coeffs_h = random_coeffs(rng, 2, 6)
            f = tuple(sampled(coeffs_f, c, r, 128) for r in (1.0, rho))
            h = tuple(sampled(coeffs_h, c, r, 128) for r in (1.0, rho))
            quad = pairing(f, h, J_list, (1.0, rho))
            oracle = fourier_inner_product(coeffs_f, coeffs_h, c, rho, J_list)
            assert abs(quad - oracle) < 1e-10 * (1.0 + abs(oracle))

    def test_positive_definite_case(self):
        rng = np.random.default_rng(6)
        rho = 0.6
        J_list = (np.eye(1), np.eye(1))
        for _ in range(10):
            coeffs = random_coeffs(rng, 1, 6)
            secs = tuple(sampled(coeffs, 0.2, r, 128) for r in (1.0, rho))
            value = pairing(secs, secs, J_list, (1.0, rho))
            assert abs(value.imag) < 1e-10
            assert value.real > 0.0
        z = tuple(sampled(np.zeros((1, 1), dtype=complex), 0.2, r, 64) for r in (1.0, rho))
        assert pairing(z, z, J_list, (1.0, rho)) == 0.0

    def test_sheet_permuting_weight_matches_dense(self):
        # block k of J f is blocks[k] f[perm[k]]: the same sum as with the dense nm x nm weight
        rng = np.random.default_rng(16)
        n, m, n_samples = 3, 2, 16
        blocks = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        J = BlockMonomial(np.array([2, 0, 1]), blocks)
        shape = (n_samples, n * m)
        f, g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        dense = np.einsum("Ni,ij,Nj->", g.conj(), J.dense(), f) * TWO_PI / n_samples
        value = pairing((f.reshape(n_samples, n, m),), (g.reshape(n_samples, n, m),), (J,), (1.0,))
        assert abs(value - dense) < 1e-12 * abs(dense)


class TestChangeOfVariables:
    def test_component_integrals_match_upstairs(self):
        # each circle downstairs contributes exactly its preimage circle's integral
        rng = np.random.default_rng(14)
        cov = make_annulus_cover(0.6, 3)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        J2 = annulus_pipeline(3, 0.0, sig).J2_diagonal
        coeffs_f = random_coeffs(rng, 1, 8)
        coeffs_h = random_coeffs(rng, 1, 8)
        for comp in (0, 1):
            r1, r2 = (1.0, cov.rho1)[comp], (1.0, cov.rho2)[comp]
            f1, h1 = (sampled(coeffs, 0.0, r1, 1024) for coeffs in (coeffs_f, coeffs_h))
            upstairs = pairing((f1,), (h1,), (sig.J_list[comp],), (r1,))
            f2, h2 = (pushed(cov, coeffs, 0.0, comp, 1024) for coeffs in (coeffs_f, coeffs_h))
            downstairs = pairing((f2,), (h2,), (J2[comp],), (r2,))
            assert abs(downstairs - upstairs) < 1e-9


class TestBranchIndependence:
    def test_products_invariant_under_global_flip(self):
        rng = np.random.default_rng(7)
        cov = make_annulus_cover(0.6, 2)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        J2 = annulus_pipeline(2, 0.0, sig).J2_diagonal
        coeffs_f = random_coeffs(rng, 1, 5)
        coeffs_h = random_coeffs(rng, 1, 5)
        f = tuple(pushed(cov, coeffs_f, 0.0, comp, 128) for comp in (0, 1))
        h = tuple(pushed(cov, coeffs_h, 0.0, comp, 128) for comp in (0, 1))
        # the other sign of the derivative's root negates every pushed sample
        flip = lambda sections: tuple(-s for s in sections)
        radii = (1.0, cov.rho2)
        values = [pairing(f, h, J2, radii), pairing(flip(f), flip(h), J2, radii)]
        assert abs(values[0] - values[1]) < 1e-12 * (1.0 + abs(values[0]))


def run_isometry(cov, pairs, alpha, sig, degree=8, samples=1024, seed=0):
    coeffs = pair_coeffs(pairs, degree, sig.m)
    return verify_isometry(cov, alpha, sig, coeffs, samples, np.random.default_rng(seed))


def gram_residual(result):
    return max(residual for residual, _ in result.gram)


class TestIsometry:
    SIG = SignatureData(J_list=(np.eye(1), -np.eye(1)))

    def test_identity_cover_residual_at_rounding_level(self):
        # the base side is closed form, the covered side sampled: they agree to rounding
        rng = np.random.default_rng(8)
        cov = make_annulus_cover(0.6, 1)
        alpha = 0.7
        pairs = [(random_coeffs(rng, 1, 8), random_coeffs(rng, 1, 8)) for _ in range(3)]
        # a numpy integer count is accepted
        result = run_isometry(cov, pairs, alpha, self.SIG, samples=np.int64(256))
        assert result.trials.shape == (3,) and result.convergence.shape == (3,)
        assert result.counts == (64, 128, 256)
        assert gram_residual(result) < 1e-14
        assert result.trials.max() < 1e-14

    def test_acceptance_fixture_residuals(self):
        rng = np.random.default_rng(9)
        cov = make_annulus_cover(0.6, 3)
        alpha = 0.7
        pairs = [(random_coeffs(rng, 1, 8), random_coeffs(rng, 1, 8)) for _ in range(5)]
        result = run_isometry(cov, pairs, alpha, self.SIG, samples=2048)
        assert result.pipeline.report.passed
        assert gram_residual(result) < 1e-13
        assert np.all(result.trials < 1e-13)
        assert result.convergence[-1] < 1e-13

    def test_constant_sections_positive_case(self):
        cov = make_annulus_cover(0.6, 3)
        sig = SignatureData(J_list=(np.eye(1), np.eye(1)))
        f1 = tuple(sampled(CONSTANT, 0.0, r, 512) for r in (1.0, cov.rho1))
        base = pairing(f1, f1, sig.J_list, (1.0, cov.rho1))
        f2 = tuple(pushed(cov, CONSTANT, 0.0, comp, 512) for comp in (0, 1))
        covered = pairing(f2, f2, annulus_pipeline(3, 0.0, sig).J2_diagonal, (1.0, cov.rho2))
        expected = TWO_PI * (1.0 + 0.6)
        assert base == pytest.approx(expected, abs=1e-9)
        assert covered == pytest.approx(expected, abs=1e-9)
        assert run_isometry(cov, [(CONSTANT, CONSTANT)], 0.0, sig, degree=0, samples=512).trials[0] < 1e-14

    def test_rank_mismatch_rejected(self, monkeypatch):
        # rank-2 sections against a rank-1 signature: the last axis is the rank
        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        with pytest.raises(ValueError, match=r"shape \(1, 2, 9, 2\), expected \(trials, 2, 2 degree \+ 1, 1\)"):
            verify_isometry(make_annulus_cover(0.6, 2), 0.0, self.SIG, np.ones((1, 2, 9, 2)), 256, None)

    def test_matrix_rank_fixture(self):
        rng = np.random.default_rng(12)
        cov = make_annulus_cover(0.6, 2)
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
        alpha = 1.3
        pair = (random_coeffs(rng, 2, 6), random_coeffs(rng, 2, 6))
        result = run_isometry(cov, [pair], alpha, sig, degree=6, samples=1024)
        assert gram_residual(result) < 1e-13 and result.trials[0] < 1e-13
        assert result.convergence[-1] < 1e-13

    def test_convergence_through_doublings(self):
        # the Cauchy kernels' relative error at least halves per doubling until it is below
        # the tolerance, and at the largest count it is at rounding level
        cov = make_annulus_cover(0.6, 3)
        tolerance = 1e-9
        for samples in (64, 1024, 2**16):
            result = run_isometry(cov, [], 0.7, self.SIG, samples=samples, seed=13)
            assert result.counts == tuple(N for N in (1 << k for k in range(6, 17)) if N <= samples)
            table = result.convergence
            for prev, nxt in zip(table, table[1:]):
                assert nxt <= max(prev / 2.0, tolerance)
            assert table[-1] < 1e-12
            if samples >= 1024:
                # the error 2 q^P / (1 - q^P), q^P = 2^(-53 N / samples), from 0.22 at samples / 16
                q_power = 2.0 ** (-53 / 16)
                assert table[-5] == pytest.approx(2 * q_power / (1 - q_power), rel=1e-6)
                assert table[-2] > 1e-9

    def test_strided_levels_match_direct_sampling(self):
        rng = np.random.default_rng(15)
        cov = make_annulus_cover(0.6, 3)
        c = 0.7 / TWO_PI
        coeffs = random_coeffs(rng, 1, 8)
        n_max = 1024
        for comp in (0, 1):
            r1 = (1.0, cov.rho1)[comp]
            fine = sampled(coeffs, c, r1, n_max)
            fine_pushed = pushed(cov, coeffs, c, comp, n_max)
            for n_samples in (32, 64, 256):
                step = n_max // n_samples
                assert relative_gap(fine[::step], sampled(coeffs, c, r1, n_samples)) < 1e-12
                assert relative_gap(fine_pushed[::step], pushed(cov, coeffs, c, comp, n_samples)) < 1e-12

    def test_sample_counts_validated_before_work(self, monkeypatch):
        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        cov = make_annulus_cover(0.6, 3)
        coeffs = pair_coeffs([(CONSTANT, CONSTANT)], 8, 1)
        # the config's rules and wording: a power of two first, then at least 2 degree + 2
        for samples, message in (
            (96, "invalid value for field 'samples': 96 is not a power of two"),
            (16, "invalid values for fields 'samples' and 'degree': 16 samples undersample a degree-8 section "
                 "(need at least 18)"),
            (0, "invalid values for fields 'samples' and 'degree': 0 samples undersample a degree-8 section "
                "(need at least 18)"),
            # a float count used to raise numpy's TypeError from the power-of-two test
            (256.0, "invalid value for field 'samples': 256.0 is not an integer"),
            (True, "invalid value for field 'samples': True is not an integer"),
        ):
            with pytest.raises(ValueError) as refused:
                verify_isometry(cov, 0.0, self.SIG, coeffs, samples, np.random.default_rng(0))
            assert str(refused.value) == message

    def test_edge_inputs_refused_before_work(self, monkeypatch):
        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        cov = make_annulus_cover(0.6, 3)
        run = lambda coeffs: verify_isometry(cov, 0.0, self.SIG, coeffs, 64, np.random.default_rng(0))
        # not 4-D, a second axis other than (f, h), and an even width, which no degree has
        for shape in ((2, 5, 1), (1, 3, 5, 1), (1, 1, 5, 1), (1, 2, 4, 1), (1, 2, 0, 1)):
            with pytest.raises(ValueError, match=rf"coefficients have shape \({', '.join(map(str, shape))},?\)"):
                run(np.ones(shape))
        # non-finite coefficients used to give the trial gap 0.0
        section = random_coeffs(np.random.default_rng(0), 1, 2)
        for value in (np.nan, np.inf, -np.inf * 1j):
            coeffs = pair_coeffs([(section, section)] * 3, 2, 1)
            coeffs[2, 0, 3, 0] = value
            with pytest.raises(ValueError, match="section f of pair 2 has non-finite coefficients"):
                run(coeffs)
            coeffs[1, 1, 1, 0] = value
            with pytest.raises(ValueError, match="section h of pair 1 has non-finite coefficients"):
                run(coeffs)

    def test_one_run_builds_the_pipeline_once(self, monkeypatch):
        import json

        from hardycover import cli, cyclic, hardy

        calls = []
        original = cyclic.annulus_pipeline

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (cli, cyclic, hardy):
            monkeypatch.setattr(module, "annulus_pipeline", counting)
        config = {"mode": "isometry", "rho1": 0.6, "n": 3, "alpha": 0.7, "signs": [1, -1],
                  "samples": 256, "trials": 4}
        report = cli.run_pipeline(cli.parse_config(json.dumps(config)))
        assert report.passed
        assert [row[0] for row in report.extras["convergence"]] == [64, 128, 256]
        assert len(calls) == 1

    def test_empty_pair_list(self):
        result = run_isometry(make_annulus_cover(0.6, 3), [], 0.7, self.SIG, samples=256)
        assert result.trials.shape == (0,)
        assert gram_residual(result) < 1e-13

    def test_memory_bounded_on_the_readme_config(self):
        # n = 3, degree 8, counts 64 ... 1024, 20 trials: the Gram basis is 17 sections on 96
        # angles and each kernel grid 2 x 3072 entries, whatever the trial count
        rng = np.random.default_rng(0)
        pairs = [(random_coeffs(rng, 1, 8), random_coeffs(rng, 1, 8)) for _ in range(20)]
        cov = make_annulus_cover(0.6, 3)
        tracemalloc.start()
        try:
            run_isometry(cov, pairs, 0.7, self.SIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def per_sheet_pairings(rows, J):
    """``hardy._pointwise`` before its sum over the sheets: ``(len, len, N, n)``."""
    return np.einsum("ajkd,bjkd->abjk", rows.conj(), hardy._weigh(rows, J), order="C")


# mutants of verify_isometry's read of the count N from the pointwise pairings on the largest count's grid:
# the names of hardy they replace, and the replacements
MUTANT_READS = {
    # the first N angles of the grid instead of every (top / N)-th
    "prefix": {"_strided_sums": lambda pairings, step: pairings[:, :, : pairings.shape[2] // step].sum(axis=-1)},
    # the pairings kept per (angle, sheet) and the stride taken over the flattened (angle, sheet) axis, so it
    # also steps across sheets
    "sheet-axis-stride": {
        "_pointwise": per_sheet_pairings,
        "_strided_sums": lambda pairings, step: pairings.reshape(*pairings.shape[:2], -1)[..., ::step].sum(axis=-1),
    },
}


class TestKernelGrid:
    """Each count's kernel pairing sums every ``(top / N)``-th pointwise pairing of the largest count's grid.

    The oracle samples and pairs each count on its own grid; the tables agree
    bit for bit.
    """

    SIG = SignatureData(J_list=(np.eye(1), -np.eye(1)))
    TOP = 2048

    def tables(self, n, monkeypatch):
        """The convergence table of ``verify_isometry`` as patched, then the oracle's with the patches undone."""
        cov, alpha = make_annulus_cover(0.6, n), 0.7
        result = verify_isometry(cov, alpha, self.SIG, np.zeros((0, 2, 17, 1)), self.TOP, np.random.default_rng(n))
        monkeypatch.undo()
        assert result.counts == tuple(1 << k for k in range(6, self.TOP.bit_length()))
        J2 = annulus_pipeline(n, alpha, self.SIG).J2_diagonal
        direct = per_count_convergence(cov, alpha, self.SIG, J2, result.counts, np.random.default_rng(n))
        return result.convergence, direct

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_strided_equals_direct(self, monkeypatch, n):
        strided, direct = self.tables(n, monkeypatch)
        assert np.array_equal(strided, direct)

    @pytest.mark.parametrize("read", list(MUTANT_READS))
    @pytest.mark.parametrize("n", [3, 7])
    def test_mutant_read_fails(self, monkeypatch, read, n):
        # at n = 1 there is no sheet axis to step across, so both mutants are checked on several sheets
        for name, value in MUTANT_READS[read].items():
            monkeypatch.setattr(hardy, name, value)
        strided, direct = self.tables(n, monkeypatch)
        assert not np.array_equal(strided, direct)

    @pytest.mark.parametrize("samples", [64, 1024, 2048])
    @pytest.mark.parametrize("n", [1, 3])
    def test_one_pair_of_grid_exponentials_per_call(self, monkeypatch, samples, n):
        # both circles' kernels share the exponentials of the n samples upstairs angles, whatever the counts;
        # the kernels are pushed forward once per circle, at samples, and no count samples them again
        grids = count_calls(monkeypatch, hardy, "_grid_exponentials")
        pushes = count_calls(monkeypatch, hardy, "_pushforward")
        result = verify_isometry(
            make_annulus_cover(0.6, n), 0.7, self.SIG, np.zeros((2, 2, 17, 1)), samples, np.random.default_rng(0)
        )
        assert len(result.counts) == samples.bit_length() - 6
        assert [args for args, _ in grids] == [(n * samples, 0.7 / TWO_PI - 0.5 * (n - 1))]
        assert [args[2] for args, _ in pushes] == [32, samples] * 2  # the Gram basis, then the kernels


def dense_kernel_table(cov, alpha, sig, J2_diagonal, counts, rng) -> np.ndarray:
    """``verify_isometry``'s convergence table from kernels summed at each count's preimage angles, paired by ``_gram``.

    Shares neither the kernel sampler nor the pointwise pairing with the
    library.  ``rng`` is in the state ``verify_isometry`` draws the kernels
    from: the poles' angles, then the unit vectors.
    """
    c, n, m = alpha / TWO_PI, cov.n, sig.m
    q, grid = 2.0 ** (-53.0 / (n * max(counts))), n * counts[0]
    poles = np.exp(2j * np.pi * rng.integers(grid, size=2) / grid) * np.array([1.0 / q, cov.rho1 * q])
    vectors = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    table = np.zeros(len(counts))
    for comp, (J, J2) in enumerate(zip(sig.J_list, J2_diagonal)):
        r1, r2 = (1.0, 1.0) if comp == 0 else (cov.rho1, cov.rho2)
        closed = hardy._cauchy_pairing(poles, r1, c)
        norms = np.sqrt(closed.diagonal().real)
        for i, N in enumerate(counts):
            # sheet k's preimage of theta_j has angle (theta_j + 2 pi k) / n; z^c / (z - p) over sqrt(n z^(n-1))
            phi = (TWO_PI * np.arange(N)[:, None] / N + TWO_PI * np.arange(n)) / n
            log_z = np.log(r1) + 1j * phi
            values = np.exp((c - 0.5 * (n - 1)) * log_z) / np.sqrt(n) / (np.exp(log_z) - poles[:, None, None])
            gap = hardy._gram(values[..., None] * vectors[:, None, None], J2) * (TWO_PI * r2 / N)
            gap -= closed * (vectors.conj() @ J @ vectors.T)
            table[i] = max(table[i], (np.abs(gap) / np.outer(norms, norms)).max())
    return table


class TestKernelTable:
    """The convergence table against a pairing it does not share: dense ``_gram`` sums of kernels sampled per count."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5]),
        m=st.sampled_from([1, 2]),
        rho1=st.floats(0.3, 0.95),
        samples=st.sampled_from([64, 256, 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_matches_dense_pairing_per_count(self, n, m, rho1, samples, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-3.0, 3.0))
        # non-diagonal for m = 2: a random eigenbasis per circle
        sig = SignatureData(J_list=tuple(random_signature_matrix(rng, m) for _ in range(2)))
        cov = make_annulus_cover(rho1, n)
        result = verify_isometry(cov, alpha, sig, np.zeros((0, 2, 1, m)), samples, np.random.default_rng(seed))
        assert result.counts == tuple(1 << k for k in range(6, samples.bit_length()))
        J2 = result.pipeline.J2_diagonal
        dense = dense_kernel_table(cov, alpha, sig, J2, result.counts, np.random.default_rng(seed))
        assert np.abs(result.convergence - dense).max() < 1e-13


def per_pair_gaps(cov, pairs, c, sig, counts, J2):
    """The isometry gaps one pair and one sample count at a time, each section sampled and pushed on its own."""
    gaps = np.empty((len(counts), len(pairs)))
    for t, pair in enumerate(pairs):
        for i, n_samples in enumerate(counts):
            f1, h1 = (tuple(sampled(coeffs, c, r, n_samples) for r in (1.0, cov.rho1)) for coeffs in pair)
            f2, h2 = (tuple(pushed(cov, coeffs, c, comp, n_samples) for comp in (0, 1)) for coeffs in pair)
            base = pairing(f1, h1, sig.J_list, (1.0, cov.rho1))
            gaps[i, t] = abs(pairing(f2, h2, J2, (1.0, cov.rho2)) - base)
    return gaps


def positive_norm(coeffs, c, rho):
    """``|f|`` in the positive pairing ``J = I``, which bounds ``|<f, h>_J| <= |f| |h|`` for unitary ``J``."""
    eye = np.eye(coeffs.shape[1])
    return math.sqrt(fourier_inner_product(coeffs, coeffs, c, rho, (eye, eye)).real)


def off_isometry_weights(J2):
    """Covered-side weights that break the isometry: sheets shifted by one, inner circle negated."""
    return [BlockMonomial(np.roll(J.perm, 1), (1 - 2 * comp) * J.blocks) for comp, J in enumerate(J2)]


class TestBatchedIsometry:
    """Every trial's gap is read from one Gram gap; the per-pair, per-section path is the oracle.

    True gaps are rounding noise, so ``skew`` runs with covered-side weights
    that break the isometry: its gaps are of the pairings' size.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5]),
        m=st.sampled_from([1, 2]),
        degree=st.integers(0, 6),
        trials=st.integers(0, 4),
        skew=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_pair_reference(self, n, m, degree, trials, skew, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-3.0, 3.0))
        # non-diagonal for m = 2: a random eigenbasis per circle
        sig = SignatureData(J_list=tuple(random_signature_matrix(rng, m) for _ in range(2)))
        cov = make_annulus_cover(0.6, n)
        degrees = rng.integers(0, degree + 1, size=(trials, 2))
        pairs = [(random_coeffs(rng, m, df), random_coeffs(rng, m, dh)) for df, dh in degrees]
        compare_trial_gaps(cov, pairs, alpha, sig, degree, skew)

    def test_mixed_degrees_padded(self):
        # sections of degree below the checked one sit zero-padded in the degree-8 coefficient array
        rng = np.random.default_rng(20)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        degrees = [(2, 5), (8, 8), (0, 3), (7, 1)]
        pairs = [(random_coeffs(rng, 1, df), random_coeffs(rng, 1, dh)) for df, dh in degrees]
        cov = make_annulus_cover(0.6, 3)
        for skew in (False, True):
            compare_trial_gaps(cov, pairs, 0.7, sig, 8, skew)


def compare_trial_gaps(cov, pairs, alpha, sig, degree, skew):
    """Trial gaps against the per-pair gaps over the pairs' positive norms.

    With ``skew`` the covered side pairs with off-isometry weights, whose gaps
    are of the pairings' size; without it the gaps are rounding noise.
    """
    pipeline = annulus_pipeline(cov.n, alpha, sig)
    assert pipeline.report.passed
    if skew:
        pipeline = dataclasses.replace(pipeline, J2_diagonal=off_isometry_weights(pipeline.J2_diagonal))
    with mock.patch.object(hardy, "annulus_pipeline", lambda *args: pipeline):
        result = run_isometry(cov, pairs, alpha, sig, degree=degree, samples=32)
    assert result.trials.shape == (len(pairs),)
    if not pairs:
        return
    c = alpha / TWO_PI
    n_gram = 1 << (2 * degree + 1).bit_length()  # the Gram grid: every pair sums the same points
    norms = [positive_norm(f, c, cov.rho1) * positive_norm(h, c, cov.rho1) for f, h in pairs]
    reference = per_pair_gaps(cov, pairs, c, sig, [n_gram], pipeline.J2_diagonal)[0] / norms
    assert np.max(np.abs(result.trials - reference)) < 1e-12
    if skew:
        assert reference.max() > 1e-3
    else:
        assert reference.max() < 1e-12


class TestIsometryMutants:
    """Each pushforward mutant fails ``isometry-gram[1]`` by at least 1e6 times its tolerance.

    The mutants wrap ``hardy._pushforward``, which the Gram basis and the
    Cauchy kernels share.  A branch-sign flip is no mutant here: ``J2`` is
    sheet-diagonal, so the sign enters ``g^* J2 f`` squared.
    """

    CONFIG = {"mode": "isometry", "rho1": 0.6, "n": 3, "alpha": 0.7, "signs": [1, -1]}

    def checks(self, **overrides):
        import json

        from hardycover import cli

        report = cli.run_pipeline(cli.parse_config(json.dumps({**self.CONFIG, **overrides})))
        assert report.error is None
        return {c.name: c for c in report.checks}

    @pytest.mark.parametrize(
        "mutant",
        [
            # z^c / sqrt(F') sampled as z^c / sqrt(n): off by |z|^((n-1)/2) on the inner circle
            lambda original, cov, comp, N, exponent, sample: original(cov, comp, N, exponent + 0.5 * (cov.n - 1), sample),
            # 1 / sqrt(F') without its 1 / sqrt(n): every pairing n times too large
            lambda original, cov, comp, N, exponent, sample: original(cov, comp, N, exponent, sample) * np.sqrt(cov.n),
            # the preimages sampled on the downstairs circle |z| = rho1**n
            lambda original, cov, comp, N, exponent, sample: original(
                dataclasses.replace(cov, rho1=cov.rho2), comp, N, exponent, sample
            ),
            # one sheet dropped from the pushforward
            lambda original, cov, comp, N, exponent, sample: original(cov, comp, N, exponent, sample) * (
                np.arange(cov.n) < cov.n - 1
            ),
        ],
        ids=["no-derivative-exponent", "no-root-n", "downstairs-radius", "sheet-dropped"],
    )
    def test_pushforward_mutant_fails_the_inner_gram(self, monkeypatch, mutant):
        original = hardy._pushforward
        monkeypatch.setattr(hardy, "_pushforward", lambda *args: mutant(original, *args))
        checks = self.checks()
        gram = checks["isometry-gram[1]"]
        assert gram.residual >= 1e6 * gram.tolerance
        assert not checks["isometry-residual[max]"].passed

    def test_closed_form_mutant_fails_convergence_only(self, monkeypatch):
        # the kernels' closed form without r^(2c): off by rho1^(2c) = 0.89 on the inner circle
        original = hardy._cauchy_pairing
        monkeypatch.setattr(hardy, "_cauchy_pairing", lambda poles, radius, c: original(poles, radius, 0.0))
        checks = self.checks()
        assert not checks["convergence-final"].passed and not checks["convergence-monotone"].passed
        assert checks["isometry-gram[0]"].passed and checks["isometry-gram[1]"].passed
        assert checks["isometry-residual[max]"].passed

    def test_laurent_sampler_mutant_fails_the_gram_only(self, monkeypatch):
        # the Laurent basis sampled 1e-6 too large: the Gram and the trials see it, the kernels do not
        original = hardy._uniform_values
        monkeypatch.setattr(hardy, "_uniform_values", lambda *args: original(*args) * (1.0 + 1e-6))
        checks = self.checks()
        assert not checks["isometry-gram[0]"].passed and not checks["isometry-gram[1]"].passed
        assert not checks["isometry-residual[max]"].passed
        assert checks["convergence-final"].passed and checks["convergence-monotone"].passed
