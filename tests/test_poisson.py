import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import diskarea as da
from diskarea import poisson, verify

import oracles

TWO_PI = 2.0 * math.pi


def horner(coeffs, r, thetas):
    """Independent reference: sum c_n r^|n| e^{i n theta} by Horner in w = r e^{i theta} and conj(w)."""
    n = coeffs.order
    w = r * np.exp(1j * np.asarray(thetas, dtype=float))
    return polyval(w, coeffs.coeffs[n:]) + np.conj(w) * polyval(np.conj(w), coeffs.coeffs[:n][::-1])


def eval_theta_derivative(coeffs, r, theta):
    """Oracle for the angular derivative sum (i n) c_n r^|n| e^{i n theta}, by Horner.

    With w = r e^{i theta}, the n > 0 terms are i w sum n c_n w^{n-1} and the
    n < 0 terms are -i conj(w) sum n c_{-n} conj(w)^{n-1}.
    """
    n = coeffs.order
    k = np.arange(1, n + 1)
    w = r * np.exp(1j * np.asarray(theta, dtype=float))
    ahead = w * polyval(w, k * coeffs.coeffs[n + 1 :])
    behind = np.conj(w) * polyval(np.conj(w), k * coeffs.coeffs[:n][::-1])
    return 1j * (ahead - behind)


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
        assert oracles.semigroup_residual(0.0, 0.5, 1.0, 512) < 1e-12

    def test_zero_outer_radius(self):
        assert oracles.semigroup_residual(0.5, 0.0, 1.0, 512) < 1e-12

    def test_closed_form_oracle(self):
        assert oracles.semigroup_residual(0.6, 0.6, 1.0, 1024) < 1e-10

    def test_grid_of_radii_and_angles(self):
        ts = np.linspace(0, TWO_PI, 64, endpoint=False)
        for r in (0.3, 0.9):
            worst = max(oracles.semigroup_residual(r, r, t, 2048) for t in ts)
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

    def test_deterministic(self, random_map):
        c1 = da.fourier_from_boundary(random_map, order=64)
        c2 = da.fourier_from_boundary(random_map, order=64)
        assert np.array_equal(c1.coeffs, c2.coeffs)

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
        direct = oracles.eval_harmonic_direct(random_map, 0.5, 1.0, n_samples=2048)
        assert abs(spectral - direct) < 1e-8

    def test_order_512_against_direct_quadrature_oracle(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=512, n_samples=2048)
        thetas = np.array([0.0, 1.0, 4.0])
        spectral = da.eval_harmonic(coeffs, 0.5, thetas)
        for th, value in zip(thetas, spectral):
            assert abs(value - oracles.eval_harmonic_direct(random_map, 0.5, th, n_samples=2048)) < 1e-8

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
        assert abs(eval_theta_derivative(coeffs, 0.6, 1.1) - want) < 1e-12

    def test_center_vanishes(self, random_map):
        coeffs = da.fourier_from_boundary(random_map, order=64)
        assert abs(eval_theta_derivative(coeffs, 0.0, 0.3)) < 1e-15

    def test_central_difference_oracle(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=256)
        r, th, h = 0.7, 0.9, 1e-5
        fd = (da.eval_harmonic(coeffs, r, th + h) - da.eval_harmonic(coeffs, r, th - h)) / (2 * h)
        assert abs(fd - eval_theta_derivative(coeffs, r, th)) < 1e-7


class TestGridEvaluation:
    """The uniform-grid path of the series evaluator against Horner at the grid's angles."""

    RADII = np.array([0.0, 0.3, 0.9, 0.97])

    def check_against_horner(self, coeffs, grid):
        values = da.eval_harmonic(coeffs, self.RADII, grid)
        assert values.shape == (self.RADII.size, grid.n_theta)
        for row, r in zip(values, self.RADII):
            assert np.max(np.abs(row - horner(coeffs, r, grid.angles))) < 1e-13

    def test_more_terms_than_angles(self, mollified_map):
        # 1025 terms fold into 64 bins
        self.check_against_horner(da.fourier_from_boundary(mollified_map, order=512), da.UniformGrid(64))

    def test_fewer_terms_than_angles(self, mollified_map):
        self.check_against_horner(da.fourier_from_boundary(mollified_map, order=64), da.UniformGrid(1024))

    def test_fold_starts_inside_a_row(self, mollified_map):
        # the lowest index -100 is 28 mod 64, so the first folded row is partial
        self.check_against_horner(da.fourier_from_boundary(mollified_map, order=100), da.UniformGrid(64))

    @pytest.mark.parametrize("order, n_theta", [(64, 512), (512, 64)])
    def test_half_step_shift(self, mollified_map, order, n_theta):
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        grid = da.UniformGrid(n_theta, math.pi / n_theta)
        assert np.allclose(grid.angles, (np.arange(n_theta) + 0.5) * (TWO_PI / n_theta), rtol=0, atol=1e-15)
        self.check_against_horner(coeffs, grid)

    @pytest.mark.parametrize("order, n_theta", [(64, 1024), (512, 64)])
    def test_stacked_series_and_radii(self, mollified_map, order, n_theta):
        # wirtinger_on_circle evaluates h' and g' as two stacked series on every radius at once
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        n = coeffs.order
        k = np.arange(1, n + 1)
        grid = da.UniformGrid(n_theta, 0.25)
        dh, dg = da.wirtinger_on_circle(coeffs, self.RADII, grid)
        assert dh.shape == dg.shape == (self.RADII.size, n_theta)
        for i, rho in enumerate(self.RADII):
            z = rho * np.exp(1j * grid.angles)
            assert np.max(np.abs(dh[i] - polyval(z, k * coeffs.coeffs[n + 1 :]))) < 1e-13
            assert np.max(np.abs(dg[i] - polyval(z, k * np.conj(coeffs.coeffs[:n][::-1])))) < 1e-13

    def fold_spied(self, monkeypatch):
        calls = []
        fold = poisson._fold

        def spy(powers, shifted, n0, n_bins):
            calls.append(n_bins)
            return fold(powers, shifted, n0, n_bins)

        monkeypatch.setattr(poisson, "_fold", spy)
        return calls

    # odd grids with no more radii than angles: the weights fold into bins that one inverse FFT sums;
    # order 1 fills the 3 angles from index -1, which wraps into bin 2
    @pytest.mark.parametrize("order, n_theta", [(1, 3), (6, 3), (2, 7), (9, 7)])
    def test_odd_grid_fold(self, mollified_map, monkeypatch, order, n_theta):
        full = da.fourier_from_boundary(mollified_map, order=16)
        coeffs = da.FourierCoeffs(full.coeffs[16 - order : 17 + order], order)
        grid = da.UniformGrid(n_theta, 0.4)
        radii = self.RADII[1:]
        calls = self.fold_spied(monkeypatch)
        values = da.eval_harmonic(coeffs, radii, grid)
        assert calls == [n_theta] and values.shape == (radii.size, n_theta)
        for row, r in zip(values, radii):
            assert np.max(np.abs(row - horner(coeffs, r, grid.angles))) < 1e-13

    @pytest.mark.parametrize("order, n_theta", [(2, 3), (8, 3), (4, 7), (12, 7)])
    def test_odd_grid_fold_stacked_series(self, mollified_map, monkeypatch, order, n_theta):
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        k = np.arange(1, order + 1)
        grid = da.UniformGrid(n_theta, -1.3)
        radii = self.RADII[1:]
        calls = self.fold_spied(monkeypatch)
        dh, dg = da.wirtinger_on_circle(coeffs, radii, grid)
        assert calls == [n_theta] and dh.shape == dg.shape == (radii.size, n_theta)
        for i, rho in enumerate(radii):
            z = rho * np.exp(1j * grid.angles)
            assert np.max(np.abs(dh[i] - polyval(z, k * coeffs.coeffs[order + 1 :]))) < 1e-13
            assert np.max(np.abs(dg[i] - polyval(z, k * np.conj(coeffs.coeffs[:order][::-1])))) < 1e-13

    def test_scalar_and_off_grid_angles(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=512)
        value = da.eval_harmonic(coeffs, 0.8, 0.123)
        assert isinstance(value, complex)
        assert abs(value - horner(coeffs, 0.8, 0.123)) < 1e-13
        thetas = np.random.default_rng(5).uniform(-10.0, 10.0, size=(3, 7))
        values = da.eval_harmonic(coeffs, self.RADII, thetas)
        assert values.shape == (self.RADII.size, 3, 7)
        for row, r in zip(values, self.RADII):
            assert np.max(np.abs(row - horner(coeffs, r, thetas))) < 1e-13

    def test_explicit_angles_build_no_radii_by_angles_by_terms_array(self, mollified_map):
        import tracemalloc

        coeffs = da.fourier_from_boundary(mollified_map, order=512)
        thetas = np.arange(64) * (TWO_PI / 64) + 0.001
        tracemalloc.start()
        try:
            da.eval_harmonic(coeffs, np.linspace(0.0, 0.96, 64), thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 64 radii x 64 angles x 1025 terms of complex128 would be 67 MB
        assert peak < 8e6

    def test_constant_series(self):
        coeffs = da.FourierCoeffs.from_dict({0: 0.5})
        assert np.array_equal(da.eval_harmonic(coeffs, self.RADII, da.UniformGrid(8)), np.full((4, 8), 0.5 + 0j))
        dh, dg = da.wirtinger_on_circle(coeffs, self.RADII, da.UniformGrid(8))
        assert dh.shape == dg.shape == (4, 8) and not np.any(dh) and not np.any(dg)

    def test_grid_builds_no_terms_by_angles_exponential(self, mollified_map, monkeypatch):
        coeffs = da.fourier_from_boundary(mollified_map, order=512)
        sizes = []
        exp = np.exp

        def recording_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        da.eval_harmonic(coeffs, self.RADII, da.UniformGrid(64))
        assert sizes and max(sizes) <= coeffs.coeffs.size

    # more radii than angles, and no more terms than angles: the radial powers are taken last
    MANY_RADII = np.linspace(0.0, 0.95, 40).reshape(5, 8)

    def fold_forbidden(self, monkeypatch):
        def no_fold(*args):
            raise AssertionError("the series evaluator folded the weights")

        monkeypatch.setattr(poisson, "_fold", no_fold)

    @pytest.mark.parametrize("order", [4, 7])
    def test_more_radii_than_angles(self, mollified_map, monkeypatch, order):
        # two-sided: 2 * order + 1 <= 16 terms on 16 angles, half-step shift, 2-D radii
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        grid = da.UniformGrid(16, math.pi / 16)
        self.fold_forbidden(monkeypatch)
        values = da.eval_harmonic(coeffs, self.MANY_RADII, grid)
        assert values.shape == self.MANY_RADII.shape + (16,)
        for idx in np.ndindex(self.MANY_RADII.shape):
            assert np.max(np.abs(values[idx] - horner(coeffs, self.MANY_RADII[idx], grid.angles))) < 1e-13

    @pytest.mark.parametrize("order", [8, 16])
    def test_more_radii_than_angles_stacked_series(self, mollified_map, monkeypatch, order):
        # h' and g' have order terms each; order 16 fills the 16 angles exactly
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        n = coeffs.order
        k = np.arange(1, n + 1)
        grid = da.UniformGrid(16, 0.25)
        self.fold_forbidden(monkeypatch)
        dh, dg = da.wirtinger_on_circle(coeffs, self.MANY_RADII, grid)
        assert dh.shape == dg.shape == self.MANY_RADII.shape + (16,)
        for idx in np.ndindex(self.MANY_RADII.shape):
            z = self.MANY_RADII[idx] * np.exp(1j * grid.angles)
            assert np.max(np.abs(dh[idx] - polyval(z, k * coeffs.coeffs[n + 1 :]))) < 1e-13
            assert np.max(np.abs(dg[idx] - polyval(z, k * np.conj(coeffs.coeffs[:n][::-1])))) < 1e-13

    def test_more_radii_than_angles_rows_equal_single_radius_calls(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=64)
        grid = da.UniformGrid(128, math.pi / 128)
        radii = np.linspace(0.0, 0.97, 200)
        dh, dg = da.wirtinger_on_circle(coeffs, radii, grid)
        values = da.eval_harmonic(coeffs, radii, grid)
        for i in range(0, radii.size, 13):
            # one radius is never more radii than angles: these calls fold
            sh, sg = da.wirtinger_on_circle(coeffs, radii[i], grid)
            np.testing.assert_allclose(dh[i], sh, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(dg[i], sg, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(values[i], da.eval_harmonic(coeffs, radii[i], grid), rtol=1e-14, atol=1e-14)

    def test_radii_up_to_angles_fold(self, mollified_map, monkeypatch):
        # the other order only pays when it builds the smaller complex operand
        coeffs = da.fourier_from_boundary(mollified_map, order=4)
        self.fold_forbidden(monkeypatch)
        with pytest.raises(AssertionError, match="folded"):
            da.eval_harmonic(coeffs, np.linspace(0.0, 0.9, 16), da.UniformGrid(16))
        with pytest.raises(AssertionError, match="folded"):
            da.eval_harmonic(coeffs, np.linspace(0.0, 0.9, 40), da.UniformGrid(8))

    def test_radial_powers_hold_no_subnormal(self):
        # order 512 on rings near the centre: rho^|n| and its products with the
        # small c_n of a Mobius map fall below the smallest normal double
        coeffs = da.fourier_from_boundary(da.make_mobius_boundary(0.3), order=512)
        ns = np.arange(-512, 513)
        rho = (np.arange(1024) + 0.5) * (0.5 / 1024)
        exact = rho[:, None] ** np.abs(ns)
        scale = np.max(np.abs(coeffs.coeffs))
        tiny = np.finfo(float).tiny
        normal = exact * np.abs(coeffs.coeffs) >= tiny
        assert np.any((exact > 0) & (exact < tiny)) and not np.all(normal)
        powers = poisson._radial_powers(rho, ns, coeffs.coeffs)
        assert not np.any((powers != 0) & (np.abs(powers) < tiny))
        assert np.array_equal(powers[normal], exact[normal])
        assert not np.any(powers[~normal])
        # stacked series keep a power that any one of them needs
        stacked = np.stack([coeffs.coeffs, np.full_like(coeffs.coeffs, scale)])
        assert np.array_equal(poisson._radial_powers(rho, ns, stacked), np.where(exact * scale >= tiny, exact, 0.0))

    @pytest.mark.parametrize("n_theta, shift", [(0, 0.0), (-4, 0.0), (2.5, 0.0), (8, math.nan), (8, math.inf)])
    def test_grid_rejects_what_it_cannot_evaluate(self, n_theta, shift):
        with pytest.raises(ValueError):
            da.UniformGrid(n_theta, shift)

    def test_grid_normalises_its_fields(self):
        grid = da.UniformGrid(np.int64(8), 1)
        assert type(grid.n_theta) is int and type(grid.shift) is float
        assert grid == da.UniformGrid(8, 1.0)


class TestFoldBits:
    """The in-place fold gives the bins of the reshape-sum fold bit for bit.

    Both form each term by the same product and sum each bin's terms in the
    same order, so any reordering of a sum shows here, as it would not
    against Horner to 1e-13.
    """

    def inputs(self, n_radii, n_terms, series=()):
        rng = np.random.default_rng(n_radii * 1000 + n_terms)
        powers = rng.random((n_radii, n_terms))
        shape = series + (1, n_terms)
        return powers, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("series, n0, n_terms, n_bins", [
        ((), -1, 3, 3),  # index -1 wraps into bin 2
        ((), -6, 13, 3),
        ((2,), 0, 8, 3),  # stacked series, as wirtinger_on_circle folds them
        ((), -2, 5, 7),
        ((), -9, 19, 7),
        ((2,), 0, 12, 7),
        ((), -100, 201, 64),  # -100 is 28 mod 64: the first row starts mid-row
        ((2, 3), -100, 201, 64),
        ((), 0, 7, 7),  # one row of bins, filled
        ((2,), 0, 5, 8),  # one row, partly filled
        ((), 3, 4, 8),  # one row that starts mid-row
    ])
    def test_matches_reshape_sum(self, series, n0, n_terms, n_bins):
        powers, shifted = self.inputs(5, n_terms, series)
        got = poisson._fold(powers, shifted, n0, n_bins)
        want = oracles.fold_reshape_sum(powers, shifted, n0, n_bins)
        assert got.shape == want.shape == series + (5, 1, n_bins)
        assert np.array_equal(got, want)

    def test_schwarz_shape(self, mollified_map):
        # 64 radii x 1025 terms into 64 bins: the fold of every Schwarz check
        coeffs = da.fourier_from_boundary(mollified_map, order=512)
        ns = coeffs.indices
        powers = poisson._radial_powers(verify._SCHWARZ_RADII, ns, coeffs.coeffs)
        shifted = coeffs.coeffs[None, :]
        got = poisson._fold(powers, shifted, -512, 64)
        assert got.shape == (64, 1, 64)
        assert np.array_equal(got, oracles.fold_reshape_sum(powers, shifted, -512, 64))

    def test_schwarz_shape_peak_memory(self, mollified_map):
        import tracemalloc

        coeffs = da.fourier_from_boundary(mollified_map, order=512)
        da.eval_harmonic(coeffs, verify._SCHWARZ_RADII, verify._SCHWARZ_GRID)
        tracemalloc.start()
        try:
            da.eval_harmonic(coeffs, verify._SCHWARZ_RADII, verify._SCHWARZ_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the padded bins (1.1 MB) and the powers (0.5 MB) take about 2.0 MB;
        # the terms as a further 64 x 1025 complex array would add 1.05 MB
        assert peak < 2.4e6


class TestPowerTable:
    @pytest.mark.parametrize("order", [16, 512])
    def test_given_table_gives_the_same_values(self, mollified_map, order):
        # the Schwarz check hands its grid's table to the series; a read-only
        # table shows that the gather never writes into it
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        radii, grid = verify._SCHWARZ_RADII, verify._SCHWARZ_GRID
        table = poisson._power_table(radii, order)
        table.setflags(write=False)
        want = poisson._series(coeffs.coeffs, -order, radii, grid)
        got = poisson._series(coeffs.coeffs, -order, radii, grid, table)
        assert got.tobytes() == want.tobytes()


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
