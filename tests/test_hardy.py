"""Boundary sampling, pushforward, quadrature, and the isometry residual.

The independent oracle used throughout: for truncated Laurent sections the
boundary pairing on a circle of radius r has the exact Fourier closed form

    2 pi r^(2c+1) sum_d r^(2d) b_d^* J a_d,

so every quadrature value can be checked against a formula that never touches
the sampling code.
"""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardycover import (
    BoundarySection,
    SectionSpec,
    SignatureData,
    annulus_pipeline,
    indefinite_inner_product,
    make_annulus_cover,
    pushforward_section,
    random_section,
    sample_section,
    section_values,
    verify_isometry,
)
from hardycover import hardy
from hardycover.induction import BlockMonomial

from helpers import random_signature_matrix

TWO_PI = 2.0 * np.pi


def fourier_inner_product(spec_f, spec_h, rho, J_list):
    """Closed-form boundary pairing of truncated sections over both circles."""
    assert spec_f.degree == spec_h.degree and spec_f.c == spec_h.c
    degrees = np.arange(-spec_f.degree, spec_f.degree + 1)
    total = 0.0 + 0.0j
    for comp, J in enumerate(J_list):
        r = 1.0 if comp == 0 else rho
        acc = 0.0 + 0.0j
        for row, d in enumerate(degrees):
            acc += (spec_h.coeffs[row].conj() @ np.asarray(J) @ spec_f.coeffs[row]) * r ** (
                2.0 * d
            )
        total += TWO_PI * r ** (2.0 * spec_f.c + 1.0) * acc
    return complex(total)


def relative_gap(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


def direct_pushforward(cov, spec, component, n_samples, branch_sign=1):
    """Pushforward samples summed term by term at each sheet's preimage angles."""
    r1 = 1.0 if component == 0 else cov.rho1
    theta = TWO_PI * np.arange(n_samples) / n_samples
    blocks = []
    for k in range(cov.n):
        phi = (theta + TWO_PI * k) / cov.n
        root_deriv = np.exp(0.5 * (cov.n - 1) * (np.log(r1) + 1j * phi))
        root_deriv *= branch_sign * np.sqrt(cov.n)
        blocks.append(section_values(spec, r1, phi) / root_deriv[:, None])
    return np.concatenate(blocks, axis=1)


def constant_section(m=1, value=1.0):
    coeffs = np.zeros((1, m), dtype=complex)
    coeffs[0, 0] = value
    return SectionSpec(m=m, c=0.0, degree=0, coeffs=coeffs)


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

    @pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", None])
    def test_refuses_non_integer_degree(self, n):
        with pytest.raises(ValueError, match="is not an integer"):
            make_annulus_cover(0.6, n)

    def test_accepts_numpy_integer_degree(self):
        cov = make_annulus_cover(0.6, np.int64(3))
        assert cov.n == 3 and type(cov.n) is int
        assert cov.rho2 == make_annulus_cover(0.6, 3).rho2


class TestSampling:
    def test_constant_section(self):
        sec = sample_section(constant_section(), 0, 8, 0.5)
        assert np.allclose(sec.samples, np.ones((8, 1)), atol=0)
        assert sec.radius == 1.0

    def test_linear_section_inner_circle(self):
        coeffs = np.zeros((3, 1), dtype=complex)
        coeffs[2, 0] = 1.0  # coefficient of z^1
        spec = SectionSpec(m=1, c=0.0, degree=1, coeffs=coeffs)
        sec = sample_section(spec, 1, 8, 0.5)
        theta = TWO_PI * np.arange(8) / 8
        assert np.allclose(sec.samples[:, 0], 0.5 * np.exp(1j * theta), atol=1e-15)

    def test_fractional_multiplier_branch(self):
        spec = SectionSpec(m=1, c=0.25, degree=0, coeffs=np.ones((1, 1), dtype=complex))
        sec = sample_section(spec, 0, 16, 0.5)
        theta = TWO_PI * np.arange(16) / 16
        assert np.allclose(sec.samples[:, 0], np.exp(0.25j * theta), atol=1e-14)

    def test_undersampling_rejected(self):
        spec = random_section(np.random.default_rng(0), 1, 8, 0.0)
        with pytest.raises(ValueError, match="undersample"):
            sample_section(spec, 0, 16, 0.5)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            sample_section(constant_section(), 0, 12, 0.5)

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
        spec = random_section(np.random.default_rng(degree), m, degree, c)
        sec = sample_section(spec, component, n_samples, rho)
        radius = 1.0 if component == 0 else rho
        direct = section_values(spec, radius, TWO_PI * np.arange(n_samples) / n_samples)
        assert relative_gap(sec.samples, direct) < 1e-13

    def test_monodromy_of_continued_values(self):
        spec = random_section(np.random.default_rng(1), 2, 4, 0.35 / TWO_PI)
        theta = TWO_PI * np.arange(32) / 32
        base = section_values(spec, 0.7, theta)
        shifted = section_values(spec, 0.7, theta + TWO_PI)
        assert np.max(np.abs(shifted - np.exp(0.35j) * base)) < 1e-12


class TestPushforward:
    def test_degree_one_is_identity(self):
        cov = make_annulus_cover(0.6, 1)
        spec = random_section(np.random.default_rng(2), 2, 5, 0.1)
        for component in (0, 1):
            for n_samples in (16, 64, 1024):
                direct = sample_section(spec, component, n_samples, 0.6)
                pushed = pushforward_section(cov, spec, component, n_samples)
                assert np.array_equal(pushed.samples, direct.samples)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize(
        "n, degree, n_samples, rho, c, branch_sign",
        [
            (1, 3, 8, 0.6, 0.0, 1),
            (2, 1, 4, 0.5, 0.25, -1),
            (3, 7, 16, 0.6, 0.7 / TWO_PI, 1),
            (5, 8, 64, 0.8, -0.3, -1),
            (6, 4, 32, 0.9, 0.45, 1),
        ],
    )
    def test_one_fft_matches_per_sheet_sums(
        self, n, degree, n_samples, rho, c, branch_sign, component
    ):
        # n * n_samples is not a power of two for n = 3, 5, 6
        cov = make_annulus_cover(rho, n)
        spec = random_section(np.random.default_rng(n), 2, degree, c)
        pushed = pushforward_section(cov, spec, component, n_samples, branch_sign=branch_sign)
        direct = direct_pushforward(cov, spec, component, n_samples, branch_sign)
        assert pushed.samples.shape == (n_samples, 2 * n)
        assert relative_gap(pushed.samples, direct) < 1e-13

    def test_two_sheets_constant_section(self):
        # preimage angles (theta + 2 pi k)/2; the derivative root is sqrt(2 z_k)
        cov = make_annulus_cover(0.6, 2)
        pushed = pushforward_section(cov, constant_section(), 0, 16)
        theta = TWO_PI * np.arange(16) / 16
        for k in (0, 1):
            expected = np.exp(-0.25j * (theta + TWO_PI * k)) / np.sqrt(2.0)
            assert np.allclose(pushed.samples[:, k], expected, atol=1e-14)

    def test_three_sheets_linear_section(self):
        # odd degree: the derivative root needs no branch and blocks are constant
        cov = make_annulus_cover(0.6, 3)
        coeffs = np.zeros((3, 1), dtype=complex)
        coeffs[2, 0] = 1.0
        spec = SectionSpec(m=1, c=0.0, degree=1, coeffs=coeffs)
        pushed = pushforward_section(cov, spec, 0, 16)
        assert np.allclose(pushed.samples, np.full((16, 3), 1.0 / np.sqrt(3.0)), atol=1e-14)

    def test_branch_flag_recorded(self):
        cov = make_annulus_cover(0.6, 2)
        pushed = pushforward_section(cov, constant_section(), 0, 16, branch_sign=-1)
        assert pushed.branch_sign == -1
        with pytest.raises(ValueError, match="branch sign"):
            pushforward_section(cov, constant_section(), 0, 16, branch_sign=2)


class TestInnerProduct:
    def test_constant_indefinite(self):
        rho = 0.5
        secs = tuple(sample_section(constant_section(), c, 64, rho) for c in (0, 1))
        value = indefinite_inner_product(secs, secs, (np.eye(1), -np.eye(1)))
        assert value == pytest.approx(TWO_PI * (1 - rho), abs=1e-10)

    def test_constant_definite(self):
        rho = 0.5
        secs = tuple(sample_section(constant_section(), c, 64, rho) for c in (0, 1))
        value = indefinite_inner_product(secs, secs, (np.eye(1), np.eye(1)))
        assert value == pytest.approx(TWO_PI * (1 + rho), abs=1e-10)

    def test_fourier_orthogonality(self):
        rho = 0.5
        coeffs = np.zeros((3, 1), dtype=complex)
        coeffs[2, 0] = 1.0
        linear = SectionSpec(m=1, c=0.0, degree=1, coeffs=coeffs)
        wide = np.zeros((3, 1), dtype=complex)
        wide[1, 0] = 1.0
        const = SectionSpec(m=1, c=0.0, degree=1, coeffs=wide)
        f = tuple(sample_section(linear, c, 64, rho) for c in (0, 1))
        g = tuple(sample_section(const, c, 64, rho) for c in (0, 1))
        value = indefinite_inner_product(f, g, (np.eye(1), np.eye(1)))
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
            spec_f = random_section(rng, 2, 6, c)
            spec_h = random_section(rng, 2, 6, c)
            f = tuple(sample_section(spec_f, comp, 128, rho) for comp in (0, 1))
            h = tuple(sample_section(spec_h, comp, 128, rho) for comp in (0, 1))
            quad = indefinite_inner_product(f, h, J_list)
            oracle = fourier_inner_product(spec_f, spec_h, rho, J_list)
            assert abs(quad - oracle) < 1e-10 * (1.0 + abs(oracle))

    def test_positive_definite_case(self):
        rng = np.random.default_rng(6)
        rho = 0.6
        J_list = (np.eye(1), np.eye(1))
        for _ in range(10):
            spec = random_section(rng, 1, 6, 0.2)
            secs = tuple(sample_section(spec, comp, 128, rho) for comp in (0, 1))
            value = indefinite_inner_product(secs, secs, J_list)
            assert abs(value.imag) < 1e-10
            assert value.real > 0.0
        zero = SectionSpec(m=1, c=0.2, degree=0, coeffs=np.zeros((1, 1), dtype=complex))
        z = tuple(sample_section(zero, comp, 64, rho) for comp in (0, 1))
        assert indefinite_inner_product(z, z, J_list) == 0.0

    def test_sheet_permuting_weight_matches_dense(self):
        # block k of J f is blocks[k] f[perm[k]]: the same sum as with the dense nm x nm weight
        rng = np.random.default_rng(16)
        n, m, n_samples = 3, 2, 16
        blocks = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        J = BlockMonomial(np.array([2, 0, 1]), blocks)
        shape = (n_samples, n * m)
        f, g = (
            BoundarySection(0, 1.0, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2)
        )
        dense = np.einsum("Ni,ij,Nj->", g.samples.conj(), J.dense(), f.samples) * TWO_PI / n_samples
        assert abs(indefinite_inner_product((f,), (g,), (J,)) - dense) < 1e-12 * abs(dense)

    def test_dimension_mismatch(self):
        rho = 0.5
        secs = tuple(sample_section(constant_section(), c, 64, rho) for c in (0, 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            indefinite_inner_product(secs, secs, (np.eye(2), np.eye(2)))

    def test_resolution_mismatch(self):
        rho = 0.5
        f = (sample_section(constant_section(), 0, 64, rho),)
        g = (sample_section(constant_section(), 0, 32, rho),)
        with pytest.raises(ValueError, match="resolutions"):
            indefinite_inner_product(f, g, (np.eye(1),))


class TestChangeOfVariables:
    def test_component_integrals_match_upstairs(self):
        # each circle downstairs contributes exactly its preimage circle's integral
        rng = np.random.default_rng(14)
        cov = make_annulus_cover(0.6, 3)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        from hardycover import annulus_pipeline

        J2 = annulus_pipeline(3, 0.0, sig).J2_diagonal
        spec_f = random_section(rng, 1, 8, 0.0)
        spec_h = random_section(rng, 1, 8, 0.0)
        for comp in (0, 1):
            f1 = (sample_section(spec_f, comp, 1024, cov.rho1),)
            h1 = (sample_section(spec_h, comp, 1024, cov.rho1),)
            upstairs = indefinite_inner_product(f1, h1, (sig.J_list[comp],))
            f2 = (pushforward_section(cov, spec_f, comp, 1024),)
            h2 = (pushforward_section(cov, spec_h, comp, 1024),)
            downstairs = indefinite_inner_product(f2, h2, (J2[comp],))
            assert abs(downstairs - upstairs) < 1e-9


class TestBranchIndependence:
    def test_products_invariant_under_global_flip(self):
        rng = np.random.default_rng(7)
        cov = make_annulus_cover(0.6, 2)
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        from hardycover import annulus_pipeline

        J2 = annulus_pipeline(2, 0.0, sig).J2_diagonal
        spec_f = random_section(rng, 1, 5, 0.0)
        spec_h = random_section(rng, 1, 5, 0.0)
        values = []
        for sign in (1, -1):
            f = tuple(pushforward_section(cov, spec_f, comp, 128, branch_sign=sign) for comp in (0, 1))
            h = tuple(pushforward_section(cov, spec_h, comp, 128, branch_sign=sign) for comp in (0, 1))
            values.append(indefinite_inner_product(f, h, J2))
        assert abs(values[0] - values[1]) < 1e-12 * (1.0 + abs(values[0]))


def readme_counts(samples=1024):
    return [N for N in (64, 128, 256, 512, 1024, 2048) if N <= samples]


def run_isometry(cov, pairs, alpha, sig, degree=8, counts=(64, 128, 256, 512, 1024), seed=0):
    return verify_isometry(cov, alpha, sig, degree, pairs, list(counts), np.random.default_rng(seed))


def gram_residual(result):
    return max(residual for residual, _ in result.gram)


class TestIsometry:
    SIG = SignatureData(J_list=(np.eye(1), -np.eye(1)))

    def test_identity_cover_residual_at_rounding_level(self):
        # the base side is closed form, the covered side sampled: they agree to rounding
        rng = np.random.default_rng(8)
        cov = make_annulus_cover(0.6, 1)
        alpha = 0.7
        c = alpha / TWO_PI
        pairs = [(random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(3)]
        result = run_isometry(cov, pairs, alpha, self.SIG, counts=[64, 128, 256])
        assert result.trials.shape == (3,) and result.convergence.shape == (3,)
        assert gram_residual(result) < 1e-14
        assert result.trials.max() < 1e-14

    def test_acceptance_fixture_residuals(self):
        rng = np.random.default_rng(9)
        cov = make_annulus_cover(0.6, 3)
        alpha = 0.7
        c = alpha / TWO_PI
        pairs = [(random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(5)]
        result = run_isometry(cov, pairs, alpha, self.SIG, counts=[2048])
        assert result.pipeline.report.passed
        assert gram_residual(result) < 1e-13
        assert np.all(result.trials < 1e-13)
        assert result.convergence[0] < 1e-13

    def test_constant_sections_positive_case(self):
        from hardycover import annulus_pipeline

        cov = make_annulus_cover(0.6, 3)
        sig = SignatureData(J_list=(np.eye(1), np.eye(1)))
        const = constant_section()
        f1 = tuple(sample_section(const, comp, 512, cov.rho1) for comp in (0, 1))
        base = indefinite_inner_product(f1, f1, sig.J_list)
        f2 = tuple(pushforward_section(cov, const, comp, 512) for comp in (0, 1))
        covered = indefinite_inner_product(f2, f2, annulus_pipeline(3, 0.0, sig).J2_diagonal)
        expected = TWO_PI * (1.0 + 0.6)
        assert base == pytest.approx(expected, abs=1e-9)
        assert covered == pytest.approx(expected, abs=1e-9)
        assert run_isometry(cov, [(const, const)], 0.0, sig, degree=0, counts=[512]).trials[0] < 1e-14

    def test_multiplier_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        cov = make_annulus_cover(0.6, 2)
        with pytest.raises(ValueError, match="incompatible with boundary phase"):
            run_isometry(
                cov,
                [(random_section(rng, 1, 4, 0.0), random_section(rng, 1, 4, 0.0))],
                0.7,
                self.SIG,
                counts=[256],
            )

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        cov = make_annulus_cover(0.6, 2)
        with pytest.raises(ValueError, match="rank mismatch"):
            run_isometry(
                cov,
                [(random_section(rng, 2, 4, 0.0), random_section(rng, 2, 4, 0.0))],
                0.0,
                self.SIG,
                counts=[256],
            )

    def test_matrix_rank_fixture(self):
        rng = np.random.default_rng(12)
        cov = make_annulus_cover(0.6, 2)
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
        alpha = 1.3
        c = alpha / TWO_PI
        pair = (random_section(rng, 2, 6, c), random_section(rng, 2, 6, c))
        result = run_isometry(cov, [pair], alpha, sig, degree=6, counts=[1024])
        assert gram_residual(result) < 1e-13 and result.trials[0] < 1e-13
        assert result.convergence[0] < 1e-13

    def test_convergence_through_doublings(self):
        # the Cauchy kernels' relative error at least halves per doubling until it is below
        # the tolerance, and at the largest count it is at rounding level
        cov = make_annulus_cover(0.6, 3)
        tolerance = 1e-9
        for samples in (64, 1024, 2**16):
            counts = [N for N in (1 << k for k in range(6, 17)) if N <= samples]
            table = run_isometry(cov, [], 0.7, self.SIG, counts=counts, seed=13).convergence
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
        spec = random_section(rng, 1, 8, c)
        n_max = 1024
        for comp in (0, 1):
            fine = sample_section(spec, comp, n_max, cov.rho1).samples
            pushed = pushforward_section(cov, spec, comp, n_max).samples
            for n_samples in (32, 64, 256):
                step = n_max // n_samples
                direct = sample_section(spec, comp, n_samples, cov.rho1).samples
                assert relative_gap(fine[::step], direct) < 1e-12
                direct = pushforward_section(cov, spec, comp, n_samples).samples
                assert relative_gap(pushed[::step], direct) < 1e-12

    def test_sample_counts_validated_before_work(self, monkeypatch):
        from hardycover import hardy

        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        cov = make_annulus_cover(0.6, 3)
        pair = (constant_section(), constant_section())
        for degree, counts, match in (
            (0, [64, 0], "positive"),
            (0, [64, 2.5], "not an integer"),
            (-1, [64], "non-negative"),
            (True, [64], "not an integer"),
        ):
            with pytest.raises(ValueError, match=match):
                verify_isometry(cov, 0.0, self.SIG, degree, [pair], counts, np.random.default_rng(0))
        spec = random_section(np.random.default_rng(0), 1, 3, 0.0)
        with pytest.raises(ValueError, match="degree 3, above 2"):
            verify_isometry(cov, 0.0, self.SIG, 2, [(spec, spec)], [64], np.random.default_rng(0))

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
        result = run_isometry(make_annulus_cover(0.6, 3), [], 0.7, self.SIG, counts=[64, 128, 256])
        assert result.trials.shape == (0,)
        assert gram_residual(result) < 1e-13

    def test_memory_bounded_on_the_readme_config(self):
        # n = 3, degree 8, counts 64 ... 1024, 20 trials: the Gram basis is 17 sections on 96
        # angles and each kernel grid 2 x 3072 entries, whatever the trial count
        rng = np.random.default_rng(0)
        c = 0.7 / TWO_PI
        pairs = [(random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(20)]
        cov = make_annulus_cover(0.6, 3)
        tracemalloc.start()
        try:
            run_isometry(cov, pairs, 0.7, self.SIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def per_pair_gaps(cov, pairs, sig, counts, J2):
    """The isometry gaps one pair and one sample count at a time, from the public API."""
    gaps = np.empty((len(counts), len(pairs)))
    for t, (spec_f, spec_h) in enumerate(pairs):
        for i, n_samples in enumerate(counts):
            f1, h1 = (
                tuple(sample_section(spec, comp, n_samples, cov.rho1) for comp in (0, 1))
                for spec in (spec_f, spec_h)
            )
            f2, h2 = (
                tuple(pushforward_section(cov, spec, comp, n_samples) for comp in (0, 1))
                for spec in (spec_f, spec_h)
            )
            base = indefinite_inner_product(f1, h1, sig.J_list)
            gaps[i, t] = abs(indefinite_inner_product(f2, h2, J2) - base)
    return gaps


def positive_norm(spec, rho):
    """``|f|`` in the positive pairing ``J = I``, which bounds ``|<f, h>_J| <= |f| |h|`` for unitary ``J``."""
    return math.sqrt(fourier_inner_product(spec, spec, rho, (np.eye(spec.m), np.eye(spec.m))).real)


def off_isometry_weights(J2):
    """Covered-side weights that break the isometry: sheets shifted by one, inner circle negated."""
    return [BlockMonomial(np.roll(J.perm, 1), (1 - 2 * comp) * J.blocks) for comp, J in enumerate(J2)]


class TestBatchedIsometry:
    """Every trial's gap is read from one Gram gap; the per-pair public-API path is the oracle.

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
        c = alpha / TWO_PI
        # non-diagonal for m = 2: a random eigenbasis per circle
        sig = SignatureData(J_list=tuple(random_signature_matrix(rng, m) for _ in range(2)))
        cov = make_annulus_cover(0.6, n)
        degrees = rng.integers(0, degree + 1, size=(trials, 2))
        pairs = [(random_section(rng, m, df, c), random_section(rng, m, dh, c)) for df, dh in degrees]
        compare_trial_gaps(cov, pairs, alpha, sig, degree, skew)

    def test_mixed_degrees_padded(self):
        # sections of degree below the checked one sit zero-padded in the degree-8 Gram basis
        rng = np.random.default_rng(20)
        c = 0.7 / TWO_PI
        sig = SignatureData(J_list=(np.eye(1), -np.eye(1)))
        degrees = [(2, 5), (8, 8), (0, 3), (7, 1)]
        pairs = [(random_section(rng, 1, df, c), random_section(rng, 1, dh, c)) for df, dh in degrees]
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
        result = run_isometry(cov, pairs, alpha, sig, degree=degree, counts=[8])
    assert result.trials.shape == (len(pairs),)
    if not pairs:
        return
    n_gram = 1 << (2 * degree + 1).bit_length()  # the Gram grid: every pair sums the same points
    norms = [positive_norm(f, cov.rho1) * positive_norm(h, cov.rho1) for f, h in pairs]
    reference = per_pair_gaps(cov, pairs, sig, [n_gram], pipeline.J2_diagonal)[0] / norms
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
