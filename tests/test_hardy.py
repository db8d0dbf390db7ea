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


class TestIsometry:
    SIG = SignatureData(J_list=(np.eye(1), -np.eye(1)))

    def test_identity_cover_residual_is_zero(self):
        rng = np.random.default_rng(8)
        cov = make_annulus_cover(0.6, 1)
        alpha = 0.7
        c = alpha / TWO_PI
        pairs = [(random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(3)]
        residuals = verify_isometry(cov, pairs, alpha, self.SIG, [64, 128, 256])
        assert residuals.shape == (3, 3)
        assert np.all(residuals == 0.0)

    def test_acceptance_fixture_residuals(self):
        rng = np.random.default_rng(9)
        cov = make_annulus_cover(0.6, 3)
        alpha = 0.7
        c = alpha / TWO_PI
        pairs = [(random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(5)]
        residuals = verify_isometry(cov, pairs, alpha, self.SIG, [2048])
        assert residuals.shape == (1, 5)
        assert np.all(residuals < 1e-9)

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
        assert verify_isometry(cov, [(const, const)], 0.0, sig, [512])[0, 0] < 1e-9

    def test_multiplier_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        cov = make_annulus_cover(0.6, 2)
        with pytest.raises(ValueError, match="incompatible with boundary phase"):
            verify_isometry(
                cov,
                [(random_section(rng, 1, 4, 0.0), random_section(rng, 1, 4, 0.0))],
                0.7,
                self.SIG,
                [256],
            )

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        cov = make_annulus_cover(0.6, 2)
        with pytest.raises(ValueError, match="rank mismatch"):
            verify_isometry(
                cov,
                [(random_section(rng, 2, 4, 0.0), random_section(rng, 2, 4, 0.0))],
                0.0,
                self.SIG,
                [256],
            )

    def test_matrix_rank_fixture(self):
        rng = np.random.default_rng(12)
        cov = make_annulus_cover(0.6, 2)
        sig = SignatureData(J_list=(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
        alpha = 1.3
        c = alpha / TWO_PI
        pair = (random_section(rng, 2, 6, c), random_section(rng, 2, 6, c))
        assert verify_isometry(cov, [pair], alpha, sig, [1024])[0, 0] < 1e-9

    def test_convergence_through_doublings(self):
        rng = np.random.default_rng(13)
        cov = make_annulus_cover(0.6, 3)
        alpha = 0.7
        c = alpha / TWO_PI
        tolerance = 1e-9
        pairs = [
            (random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(20)
        ]
        worsts = verify_isometry(cov, pairs, alpha, self.SIG, [64, 128, 256, 512, 1024, 2048]).max(
            axis=1
        )
        for prev, nxt in zip(worsts, worsts[1:]):
            assert nxt <= max(2.0 * prev, tolerance)
        assert worsts[-1] < tolerance

    def test_strided_levels_match_direct_sampling(self):
        rng = np.random.default_rng(15)
        cov = make_annulus_cover(0.6, 3)
        alpha = 0.7
        c = alpha / TWO_PI
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

        pairs = [(random_section(rng, 1, 8, c), random_section(rng, 1, 8, c)) for _ in range(3)]
        counts = [32, 64, 256, 1024]
        table = verify_isometry(cov, pairs, alpha, self.SIG, counts)
        scale = max(abs(fourier_inner_product(f, h, cov.rho1, self.SIG.J_list)) for f, h in pairs)
        for row, n_samples in zip(table, counts):
            direct = verify_isometry(cov, pairs, alpha, self.SIG, [n_samples])[0]
            assert np.max(np.abs(row - direct)) < 1e-12 * scale

    def test_sample_counts_validated_before_work(self, monkeypatch):
        from hardycover import hardy

        monkeypatch.setattr(hardy, "annulus_pipeline", None)
        cov = make_annulus_cover(0.6, 3)
        pair = (constant_section(), constant_section())
        for counts, match in (
            ([], "at least one"),
            ([64, 96], "power of two"),
            ([1], "undersample"),
        ):
            with pytest.raises(ValueError, match=match):
                verify_isometry(cov, [pair], 0.0, self.SIG, counts)

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


def pairing_scale(pairs, rho):
    """Largest ``|f| |h|`` over the pairs in the positive pairing, which bounds ``|<f, h>_J|``."""
    norm = lambda spec: math.sqrt(
        fourier_inner_product(spec, spec, rho, (np.eye(spec.m), np.eye(spec.m))).real
    )
    return max(norm(f) * norm(h) for f, h in pairs)


def counted_ifft():
    """Patch of ``np.fft.ifft`` that still transforms; ``.call_count`` counts the calls."""
    return mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft)


def off_isometry_weights(J2):
    """Covered-side weights that break the isometry: sheets shifted by one, inner circle negated."""
    return [BlockMonomial(np.roll(J.perm, 1), (1 - 2 * comp) * J.blocks) for comp, J in enumerate(J2)]


class TestBatchedIsometry:
    """verify_isometry samples chunks of trials together; the per-pair path is the oracle.

    True gaps are rounding noise, far below the comparison's tolerance, so
    each case also runs with covered-side weights that break the isometry:
    its gaps are of the pairings' size and expose any sampling difference.
    """

    ALPHA = 0.7
    C = ALPHA / TWO_PI
    SIG = SignatureData(J_list=(np.eye(1), -np.eye(1)))

    def pairs(self, rng, degrees, m=1):
        return [
            (random_section(rng, m, df, self.C), random_section(rng, m, dh, self.C))
            for df, dh in degrees
        ]

    def compare(self, cov, pairs, counts, sig=SIG, chunks=None):
        """Batched against per-pair gaps, true and off-isometry; returns the true gaps."""
        pipeline = annulus_pipeline(cov.n, self.ALPHA, sig)
        assert pipeline.report.passed
        scale = pairing_scale(pairs, cov.rho1)
        for skew in (False, True):
            if skew:
                weights = off_isometry_weights(pipeline.J2_diagonal)
                pipeline = dataclasses.replace(pipeline, J2_diagonal=weights)
            built = mock.patch.object(hardy, "annulus_pipeline", lambda *args: pipeline)
            with built, counted_ifft() as ifft:
                batched = verify_isometry(cov, pairs, self.ALPHA, sig, counts)
            reference = per_pair_gaps(cov, pairs, sig, counts, pipeline.J2_diagonal)
            assert batched.shape == (len(counts), len(pairs))
            assert np.max(np.abs(batched - reference)) < 1e-12 * scale
            if chunks is not None:
                assert ifft.call_count == 4 * chunks
            if skew:
                assert reference.max() > 1e-3 * scale
            else:
                gaps = batched
        return gaps

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5]),
        m=st.sampled_from([1, 2]),
        counts=st.lists(st.sampled_from([16, 32, 64, 128]), min_size=1, max_size=4, unique=True),
        per_chunk=st.integers(1, 3),
        spare=st.integers(0, 1),
        extra=st.integers(-1, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_pair_reference(self, n, m, counts, per_chunk, spare, extra, seed):
        rng = np.random.default_rng(seed)
        # non-diagonal for m = 2: a random eigenbasis per circle
        sig = SignatureData(J_list=tuple(random_signature_matrix(rng, m) for _ in range(2)))
        cov = make_annulus_cover(0.6, n)
        # grids of per_chunk trials fit, with up to one trial's worth of room to spare
        one_trial = 2 * m * n * max(counts)
        entries = per_chunk * one_trial + spare * (one_trial - 1)
        trials = max(1, per_chunk * int(rng.integers(1, 3)) + extra)
        degree_cap = min(6, (min(counts) - 2) // 2)
        pairs = self.pairs(rng, rng.integers(0, degree_cap + 1, size=(trials, 2)), m)
        with mock.patch.object(hardy, "GRID_ENTRIES", entries):
            gaps = self.compare(cov, pairs, counts, sig, chunks=math.ceil(trials / per_chunk))
        if n == 1:
            assert np.all(gaps == 0.0)

    def test_mixed_degrees_padded(self):
        rng = np.random.default_rng(20)
        pairs = self.pairs(rng, [(2, 5), (8, 8), (0, 3), (7, 1)])
        self.compare(make_annulus_cover(0.6, 3), pairs, [32, 256], chunks=1)

    def test_empty_pair_list(self):
        cov = make_annulus_cover(0.6, 3)
        with counted_ifft() as ifft:
            gaps = verify_isometry(cov, [], self.ALPHA, self.SIG, [64, 128, 256])
        assert gaps.shape == (3, 0) and ifft.call_count == 0

    def test_trial_count_off_the_chunk_size(self):
        # n = 3, N_max = 1024, m = 1: five trials per 2**15-entry grid, so 7 trials take 2 chunks
        assert hardy.GRID_ENTRIES // (2 * 3 * 1024) == 5
        pairs = self.pairs(np.random.default_rng(21), [(8, 8)] * 7)
        self.compare(make_annulus_cover(0.6, 3), pairs, [64, 1024], chunks=2)

    def test_memory_bounded_on_the_readme_config(self):
        # n = 3, degree 8, counts 64 ... 1024, 20 trials: every grid stays within GRID_ENTRIES
        cov = make_annulus_cover(0.6, 3)
        pairs = self.pairs(np.random.default_rng(0), [(8, 8)] * 20)
        tracemalloc.start()
        try:
            verify_isometry(cov, pairs, self.ALPHA, self.SIG, [64, 128, 256, 512, 1024])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_refusal_names_worst_check_and_block(self):
        # selfadjoint and unitary to 1e-12, but the transported symmetry conditions miss it
        sig = SignatureData(J_list=(np.array([[-1.0 - 4e-13]]), -np.eye(1)))
        report = annulus_pipeline(2, 0.0, sig).report
        worst = max(report.failing(), key=lambda c: c.residual)
        pair = (constant_section(), constant_section())
        with pytest.raises(ValueError) as err:
            verify_isometry(make_annulus_cover(0.6, 2), [pair], 0.0, sig, [64])
        assert str(err.value) == (
            f"incompatible signature data: {worst.name} at block {worst.block}: "
            f"{worst.residual:.1e} vs 1e-12"
        )
        assert worst.block is not None and worst.residual > worst.tolerance
