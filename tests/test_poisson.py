import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import diskarea as da
from diskarea.poisson import circle_theta_derivative, circle_values

TWO_PI = 2.0 * math.pi


class TestPoissonKernel:
    def test_center_is_one(self):
        for t in (0.0, 1.0, math.pi, 5.0):
            assert da.poisson_kernel(0.0, t) == 1.0

    def test_direct_substitution(self):
        # (1 - 0.25) / (1 - 1 + 0.25) = 3, the value (1+r)/(1-r) at t = 0
        assert abs(da.poisson_kernel(0.5, 0.0) - 3.0) < 1e-15

    def test_positive(self):
        t = np.linspace(0, TWO_PI, 257)
        for r in (0.1, 0.5, 0.9, 0.99):
            assert np.all(da.poisson_kernel(r, t) > 0)

    def test_mean_is_one(self):
        t = np.arange(1024) * (TWO_PI / 1024)
        for r in (0.3, 0.9):
            assert abs(np.mean(da.poisson_kernel(r, t)) - 1.0) < 1e-10
        t = np.arange(da.sample_count(0.99)) * (TWO_PI / da.sample_count(0.99))
        assert abs(np.mean(da.poisson_kernel(0.99, t)) - 1.0) < 1e-10

    def test_rejects_radius_one(self):
        with pytest.raises(ValueError):
            da.poisson_kernel(1.0, 0.0)
        with pytest.raises(ValueError):
            da.poisson_kernel_deriv(1.0, 0.0)


class TestPoissonDerivative:
    def test_odd_zeros(self):
        for r in (0.2, 0.7, 0.95):
            assert da.poisson_kernel_deriv(r, 0.0) == 0.0
            assert abs(da.poisson_kernel_deriv(r, math.pi)) < 1e-15

    def test_central_difference_oracle(self):
        # independent oracle: symmetric difference of the kernel itself
        r, t, h = 0.7, 1.0, 1e-5
        fd = (da.poisson_kernel(r, t + h) - da.poisson_kernel(r, t - h)) / (2 * h)
        assert abs(fd - da.poisson_kernel_deriv(r, t)) < 1e-7

    def test_matches_semigroup_derivative_form(self):
        # the composed kernel at r^2 equals the stated closed form
        r, t = 0.6, 1.3
        composed = da.poisson_kernel_deriv(r * r, t)
        explicit = -2 * r**2 * (1 - r**4) * math.sin(t) / (1 - 2 * r**2 * math.cos(t) + r**4) ** 2
        assert abs(composed - explicit) < 1e-14


class TestSemigroup:
    def test_zero_inner_radius(self):
        assert da.semigroup_residual(0.0, 0.5, 1.0, 512) < 1e-12

    def test_zero_outer_radius(self):
        assert da.semigroup_residual(0.5, 0.0, 1.0, 512) < 1e-12

    def test_closed_form_oracle(self):
        assert da.semigroup_residual(0.6, 0.6, 1.0, 1024) < 1e-10

    def test_grid_of_radii_and_angles(self):
        ts = np.linspace(0, TWO_PI, 64, endpoint=False)
        for r in (0.3, 0.9):
            worst = max(da.semigroup_residual(r, r, t, 2048) for t in ts)
            assert worst < 1e-8


class TestFourierFromBoundary:
    def test_identity_coefficients(self):
        coeffs = da.fourier_from_boundary(da.make_identity(), order=16)
        assert abs(coeffs.coeff(1) - 1.0) < 1e-12
        others = [abs(coeffs.coeff(n)) for n in range(-16, 17) if n != 1]
        assert max(others) < 1e-12

    def test_rotation_coefficients(self):
        phi = 0.8
        coeffs = da.fourier_from_boundary(da.make_rotation(phi), order=8)
        assert abs(coeffs.coeff(1) - np.exp(1j * phi)) < 1e-12

    def test_mobius_against_geometric_series_oracle(self, mobius_half):
        # analytic expansion (z - a)/(1 - conj(a) z) = -a + (1-|a|^2) sum conj(a)^{n-1} z^n
        a = 0.5
        coeffs = da.fourier_from_boundary(mobius_half, order=64)
        expected = {0: -a, 1: 0.75, 2: 0.375, 3: 0.1875}
        for n, want in expected.items():
            assert abs(coeffs.coeff(n) - want) < 1e-8
        for n in range(4, 20):
            want = (1 - a * a) * a ** (n - 1)
            assert abs(coeffs.coeff(n) - want) < 1e-8
        assert max(abs(coeffs.coeff(-n)) for n in range(1, 20)) < 1e-10

    def test_parseval_bound(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=256)
        assert np.sum(np.abs(coeffs.coeffs) ** 2) <= 1.0 + 1e-9

    def test_deterministic_and_hashed(self, random_map):
        c1 = da.fourier_from_boundary(random_map, order=64)
        c2 = da.fourier_from_boundary(random_map, order=64)
        assert np.array_equal(c1.coeffs, c2.coeffs)
        assert c1.source_hash == c2.source_hash != ""

    def test_oversampling_guard(self, random_map):
        with pytest.raises(ValueError):
            da.fourier_from_boundary(random_map, order=64, n_samples=128)


class TestEvalHarmonic:
    def test_identity_is_linear(self):
        coeffs = da.fourier_from_boundary(da.make_identity(), order=8)
        for r, th in ((0.3, 0.0), (0.8, 2.1)):
            want = r * np.exp(1j * th)
            assert abs(da.eval_harmonic(coeffs, r, th) - want) < 1e-12

    def test_center_is_mean(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=64)
        assert abs(da.eval_harmonic(coeffs, 0.0, 0.7) - coeffs.coeff(0)) < 1e-15

    def test_against_direct_quadrature_oracle(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=256, n_samples=2048)
        spectral = da.eval_harmonic(coeffs, 0.5, 1.0)
        direct = da.eval_harmonic_direct(random_map, 0.5, 1.0, n_samples=2048)
        assert abs(spectral - direct) < 1e-8

    def test_order_512_against_direct_quadrature_oracle(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=512, n_samples=2048)
        thetas = np.array([0.0, 1.0, 4.0])
        spectral = da.eval_harmonic(coeffs, 0.5, thetas)
        for th, value in zip(thetas, spectral):
            assert abs(value - da.eval_harmonic_direct(random_map, 0.5, th, n_samples=2048)) < 1e-8

    def test_matches_horner_reference(self, mollified_map):
        # the two-pass Horner form the table evaluator replaced, kept as the reference
        coeffs = da.fourier_from_boundary(mollified_map, order=128)
        n = coeffs.order
        thetas = np.linspace(0, TWO_PI, 37)
        for r in (0.0, 0.3, 0.9):
            w = r * np.exp(1j * thetas)
            horner = polyval(w, coeffs.coeffs[n:]) + np.conj(w) * polyval(np.conj(w), coeffs.coeffs[:n][::-1])
            assert np.max(np.abs(da.eval_harmonic(coeffs, r, thetas) - horner)) < 1e-14

    def test_array_of_radii_gives_rows(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=64)
        radii = np.array([0.0, 0.4, 0.95])
        thetas = np.linspace(0, TWO_PI, 11)
        grid = da.eval_harmonic(coeffs, radii, thetas)
        assert grid.shape == (3, 11)
        for row, r in zip(grid, radii):
            assert np.max(np.abs(row - da.eval_harmonic(coeffs, r, thetas))) < 1e-15

    def test_rotation_scales(self):
        coeffs = da.fourier_from_boundary(da.make_rotation(math.pi / 2), order=8)
        z = 0.4 * np.exp(1j * 0.9)
        assert abs(da.eval_harmonic(coeffs, 0.4, 0.9) - 1j * z) < 1e-12

    def test_maximum_principle_on_grid(self):
        thetas = np.linspace(0, TWO_PI, 32, endpoint=False)
        for seed in range(5):
            m = da.make_random_homeomorphism(seed)
            coeffs = da.fourier_from_boundary(m, order=256)
            for r in (0.25, 0.6, 0.9):
                assert np.max(np.abs(da.eval_harmonic(coeffs, r, thetas))) < 1.0

    def test_truncation_stability(self, mollified_map):
        lo = da.fourier_from_boundary(mollified_map, order=256)
        hi = da.fourier_from_boundary(mollified_map, order=512)
        thetas = np.linspace(0, TWO_PI, 16)
        for r in (0.5, 0.9):
            d = np.abs(da.eval_harmonic(lo, r, thetas) - da.eval_harmonic(hi, r, thetas))
            assert np.max(d) < 1e-8

    def test_rejects_radius_one(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=16)
        with pytest.raises(ValueError):
            da.eval_harmonic(coeffs, 1.0, 0.0)
        for radii in ([0.5, 1.0], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                da.eval_harmonic(coeffs, np.array(radii), 0.0)


class TestThetaDerivative:
    def test_identity(self):
        coeffs = da.fourier_from_boundary(da.make_identity(), order=8)
        want = 1j * 0.6 * np.exp(1j * 1.1)
        assert abs(da.eval_theta_derivative(coeffs, 0.6, 1.1) - want) < 1e-12

    def test_center_vanishes(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=64)
        assert abs(da.eval_theta_derivative(coeffs, 0.0, 0.3)) < 1e-15

    def test_central_difference_oracle(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=256)
        r, th, h = 0.7, 0.9, 1e-5
        fd = (da.eval_harmonic(coeffs, r, th + h) - da.eval_harmonic(coeffs, r, th - h)) / (2 * h)
        assert abs(fd - da.eval_theta_derivative(coeffs, r, th)) < 1e-7


class TestWirtinger:
    def test_matches_horner_reference(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=128)
        n = coeffs.order
        k = np.arange(1, n + 1)
        thetas = np.linspace(0, TWO_PI, 37)
        for rho in (0.0, 0.5, 0.9):
            z = rho * np.exp(1j * thetas)
            dh, dg = da.wirtinger_on_circle(coeffs, rho, thetas)
            assert np.max(np.abs(dh - polyval(z, k * coeffs.coeffs[n + 1 :]))) < 1e-13
            assert np.max(np.abs(dg - polyval(z, k * np.conj(coeffs.coeffs[:n][::-1])))) < 1e-13

    def test_array_of_radii_rows_equal_scalar_calls(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=128)
        rhos = np.array([0.0, 0.25, 0.6, 0.97])
        thetas = np.linspace(0, TWO_PI, 50, endpoint=False)
        dh, dg = da.wirtinger_on_circle(coeffs, rhos, thetas)
        assert dh.shape == dg.shape == (4, 50)
        for i, rho in enumerate(rhos):
            sh, sg = da.wirtinger_on_circle(coeffs, rho, thetas)
            np.testing.assert_allclose(dh[i], sh, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(dg[i], sg, rtol=1e-14, atol=1e-15)


class TestCircleGridEvaluation:
    def test_matches_pointwise_eval(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=128)
        m = 512
        grid = circle_values(coeffs, 0.7, m)
        thetas = np.arange(m) * (TWO_PI / m)
        direct = da.eval_harmonic(coeffs, 0.7, thetas)
        assert np.max(np.abs(grid - direct)) < 1e-12
        gridd = circle_theta_derivative(coeffs, 0.7, m)
        directd = da.eval_theta_derivative(coeffs, 0.7, thetas)
        assert np.max(np.abs(gridd - directd)) < 1e-12


class TestStepEvaluator:
    def test_matches_fourier_path(self, step_two_jump):
        coeffs = da.fourier_from_boundary(step_two_jump, order=512, n_samples=8192)
        thetas = np.linspace(0, TWO_PI, 17)
        exact = da.eval_harmonic_step(step_two_jump, 0.6, thetas)
        spectral = da.eval_harmonic(coeffs, 0.6, thetas)
        assert np.max(np.abs(exact - spectral)) < 5e-3

    def test_total_measure(self, step_four_jump):
        # arc measures sum to one: extension of the constant-1 data would be 1
        r = 0.8
        thetas = np.linspace(0, TWO_PI, 9)
        vals = da.eval_harmonic_step(step_four_jump, r, thetas)
        assert np.all(np.abs(vals) < 1.0)

    def test_array_of_radii_rows_equal_scalar_calls(self, step_four_jump):
        radii = np.array([0.0, 0.3, 0.9])
        thetas = np.linspace(0, TWO_PI, 13)
        grid = da.eval_harmonic_step(step_four_jump, radii, thetas)
        assert grid.shape == (3, 13)
        for row, r in zip(grid, radii):
            assert np.array_equal(row, da.eval_harmonic_step(step_four_jump, r, thetas))

    def test_rejects_homeomorphism_input(self, random_map):
        with pytest.raises(ValueError):
            da.eval_harmonic_step(random_map, 0.5, 0.0)


class TestFourierCoeffsType:
    def test_json_round_trip(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=32)
        back = da.FourierCoeffs.from_json(coeffs.to_json())
        assert np.array_equal(back.coeffs, coeffs.coeffs)
        assert back.order == coeffs.order

    def test_json_triples_ascending(self, random_map):
        import json

        coeffs = da.fourier_from_boundary(random_map, order=8)
        triples = json.loads(coeffs.to_json())
        ns = [row[0] for row in triples]
        assert ns == sorted(ns)
        assert ns[0] == -8 and ns[-1] == 8

    def test_truncated(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=32)
        small = coeffs.truncated(8)
        assert small.order == 8
        for n in range(-8, 9):
            assert small.coeff(n) == coeffs.coeff(n)
