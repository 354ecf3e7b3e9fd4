import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diskarea as da
from diskarea import area, pair_sums, runner

import oracles

TWO_PI = 2.0 * math.pi


def all_methods(bmap, r, m=1024, order=256):
    coeffs = da.fourier_from_boundary(bmap, order=order)
    return {
        "green-spectral": da.area_green_spectral(coeffs, r),
        "green-quadrature": da.area_green_quadrature(bmap, r, m),
        "kernel-direct": da.area_kernel_direct(bmap, r, m),
        "kernel-fft": da.area_kernel_fft(bmap, r, m),
        "jacobian": da.area_jacobian_grid(bmap, r, 512, 256, order),
    }


class TestAreaKernel:
    def test_odd_exactly(self):
        alphas = np.linspace(0.05, TWO_PI - 0.05, 41)
        for r in (0.3, 0.9):
            assert np.all(da.area_kernel(r, -alphas) == -da.area_kernel(r, alphas))

    def test_zeros(self):
        for r in (0.2, 0.6, 0.95):
            assert da.area_kernel(r, 0.0) == 0.0
            assert abs(da.area_kernel(r, math.pi)) < 1e-14

    def test_defining_integral_oracle(self):
        # the convolution of the kernel with its derivative pins the closed
        # form, including the radius-squared convention
        rng = np.random.default_rng(1)
        for _ in range(8):
            r = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.uniform(0.0, TWO_PI))
            quad = oracles.area_kernel_defining_integral(r, alpha, 2048)
            assert abs(quad - da.area_kernel(r, alpha)) < 1e-9

    def test_equals_minus_poisson_derivative_at_r_squared(self):
        r, alpha = 0.6, 1.0
        assert abs(da.area_kernel(r, alpha) + da.poisson_kernel_deriv(r * r, alpha)) < 1e-14


class TestExactFamilies:
    def test_identity_quarter(self):
        assert abs(da.exact_family_area("identity", 0.5).value - math.pi * 0.25) < 1e-15

    def test_identity_small(self):
        assert abs(da.exact_family_area("identity", 0.3).value - 0.09 * math.pi) < 1e-15

    def test_mobius_zero_parameter(self):
        assert abs(da.exact_family_area("mobius", 0.7, 0.0).value - math.pi * 0.49) < 1e-15

    def test_mobius_radius_formula_confirmed_by_jacobian_oracle(self):
        # the image-disk radius r(1-|a|^2)/(1-|a|^2 r^2) is validated against
        # Jacobian integration of the analytic coefficients before use
        for a, r in ((0.5, 0.5), (0.3, 0.7)):
            grid = da.area_jacobian_grid(da.family_coeffs("mobius", a), r, 1024, 256)
            closed = da.exact_family_area("mobius", r, a).value
            assert abs(grid.value - closed) < 1e-6

    def test_shear_formula_value(self):
        # image area pi (r^2 - 2 |c|^2 r^4); at c = 0.3, r = 0.8 this is
        # pi * 0.566272
        got = da.exact_family_area("shear", 0.8, 0.3).value
        assert abs(got - math.pi * 0.566272) < 1e-15

    def test_shear_concavity_exceeds_chord(self):
        # value exceeds r^2 times the full-disk area for interior radii
        c = 0.3
        full = math.pi * (1.0 - 2.0 * c * c)
        for r in (0.3, 0.5, 0.8):
            assert da.exact_family_area("shear", r, c).value > r * r * full

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            da.exact_family_area("shear", 0.5, 0.6)
        with pytest.raises(ValueError):
            da.exact_family_area("mobius", 0.5, 1.2)
        with pytest.raises(ValueError):
            da.exact_family_area("identity", 1.0)
        builders = {
            "coeffs": da.family_coeffs,
            "area": lambda family, *param: da.exact_family_area(family, 0.5, *param),
            "boundary": lambda family, *param: area.build_family(family, "boundary", *param),
        }
        # every closed-form family's builders run its one parser: a non-finite
        # parameter, a missing one and an extra one all raise ValueError
        for family in ("identity", "rotation", "shear", "mobius"):
            for form, build in builders.items():
                for param in (math.nan, complex(0.1, math.nan), math.inf, -math.inf):
                    if family == "rotation" and isinstance(param, complex):
                        continue  # an angle is real; float() of a complex raises TypeError
                    with pytest.raises(ValueError):
                        build(family, param)
                if family == "identity":
                    with pytest.raises(ValueError, match="identity takes 0 parameter"):
                        build(family, 0.3)
                else:
                    with pytest.raises(ValueError, match=f"{family} takes 1 parameter"):
                        build(family)
        with pytest.raises(ValueError, match="omega must have unit modulus"):
            da.family_coeffs("rotation", math.nan)
        for family in ("random", "step", "bogus"):
            with pytest.raises(ValueError):
                da.family_coeffs(family, 0.1)

    # repr literals of the closed forms: each keeps its arithmetic to the last bit
    # (pi * radius ** 2 in place of pi * radius * radius moves both Mobius rows by 1 ulp)
    PINNED = {
        ("identity", None): (0.7853981633974483, 2.5446900494077327),
        ("rotation", 1.0): (0.7853981633974483, 2.5446900494077327),
        ("mobius", 0.3): (0.6806739559363708, 2.451684120007416),
        ("mobius", 0.2 - 0.1j): (0.7268802742803493, 2.4945496023995024),
        ("shear", 0.3): (0.7500552460445631, 2.173674240204085),
    }

    @pytest.mark.parametrize("family, param", sorted(PINNED, key=str))
    def test_closed_forms_bit_for_bit(self, family, param):
        got = tuple(da.exact_family_area(family, r, param).value for r in (0.5, 0.9))
        assert got == self.PINNED[family, param]


class TestGreenSpectral:
    def test_identity(self):
        coeffs = da.family_coeffs("identity")
        assert abs(da.area_green_spectral(coeffs, 0.5).value - math.pi * 0.25) < 1e-15

    def test_rotation_same_as_identity(self):
        coeffs = da.family_coeffs("rotation", 2.2)
        assert abs(da.area_green_spectral(coeffs, 0.5).value - math.pi * 0.25) < 1e-15

    def test_mobius_matches_confirmed_closed_form(self):
        coeffs = da.family_coeffs("mobius", 0.5)
        want = da.exact_family_area("mobius", 0.5, 0.5).value
        assert abs(da.area_green_spectral(coeffs, 0.5).value - want) < 1e-12
        assert abs(want - 0.16 * math.pi) < 1e-15

    def test_shear_two_sided_sum(self):
        coeffs = da.family_coeffs("shear", 0.3)
        for r in (0.4, 0.8):
            want = da.exact_family_area("shear", r, 0.3).value
            assert abs(da.area_green_spectral(coeffs, r).value - want) < 1e-14

    def test_shear_row_indicator_is_zero(self):
        # the order-2 series is exact; halving it used to drop c_{-2} and report 0.0353
        config = runner.SweepConfig(families=["shear:0.3"], radii=[0.5], methods=["green-spectral", "exact"])
        exact, spectral = runner.run_area(config)
        assert spectral["method"] == "green-spectral"
        assert spectral["value"] == exact["value"]
        assert spectral["error_indicator"] == 0.0

    def test_extracted_series_indicator_is_the_half_order_change(self, mollified_map):
        # no exact zeros: the half sum is the series truncated at half the order
        coeffs = da.fourier_from_boundary(mollified_map, order=16)
        est = da.area_green_spectral(coeffs, 0.9)
        half = slice(16 - 8, 16 + 8 + 1)  # indices -8..8 of the order-16 series
        want = abs(est.value - da.area.spectral_area_sum(coeffs.indices[half], coeffs.coeffs[half], 0.9))
        assert est.error_indicator == want > 0


class TestGreenQuadrature:
    def test_independent_of_fourier_extraction(self, mollified_map, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("green-quadrature must not extract coefficients")

        monkeypatch.setattr(area, "fourier_from_boundary", refuse)
        est = da.area_green_quadrature(mollified_map, 0.6, 1024)
        assert math.isfinite(est.value) and est.value > 0

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.97])
    @pytest.mark.parametrize("mollified", [False, True])
    def test_matches_green_spectral_at_quarter_order(self, r, mollified):
        bmap = da.make_random_homeomorphism(3, roughness=0.5)
        if mollified:
            bmap = da.mollify_map(bmap)
        quad = da.area_green_quadrature(bmap, r, 1024).value
        spectral = da.area_green_spectral(bmap, r, order=256).value
        assert abs(quad - spectral) < 1e-10

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_rejects_fewer_than_two_samples(self, m):
        with pytest.raises(ValueError, match="n_samples"):
            da.area_green_quadrature(da.make_identity(), 0.5, m)

    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_mobius_closed_form(self, r):
        a = 0.3 + 0.1j
        est = da.area_green_quadrature(da.make_mobius_boundary(a), r, 4096)
        exact = da.exact_family_area("mobius", r, a).value
        assert abs(est.value - exact) < 1e-8 * math.pi * r * r


class TestJacobianGrid:
    def test_identity_exact(self):
        est = da.area_jacobian_grid(da.family_coeffs("identity"), 0.7, 256, 64)
        assert abs(est.value - math.pi * 0.49) < 1e-12

    def test_shear_determinant_integral(self):
        # det Df = 1 - 4|c|^2 |z|^2 integrates to the closed form
        for r in (0.4, 0.8):
            est = da.area_jacobian_grid(da.family_coeffs("shear", 0.3), r, 2048, 128)
            want = da.exact_family_area("shear", r, 0.3).value
            assert abs(est.value - want) < 1e-7

    def test_step_map_rejected(self, step_two_jump):
        with pytest.raises(ValueError):
            da.area_jacobian_grid(step_two_jump, 0.5)

    def test_step_map_rejected_as_hypothesis_violation(self, step_two_jump):
        from diskarea import area, verify

        assert verify.HypothesisViolationError is area.HypothesisViolationError is da.HypothesisViolationError
        assert issubclass(da.HypothesisViolationError, ValueError)
        with pytest.raises(da.HypothesisViolationError):
            da.area_jacobian_grid(step_two_jump, 0.5)

    def test_all_rings_match_ring_by_ring_reference(self, mollified_map):
        # the per-ring loop the one-call evaluation replaced, kept as the reference
        coeffs = da.fourier_from_boundary(mollified_map, order=64)
        r, n_rho, n_theta = 0.9, 48, 32
        rho = (np.arange(n_rho) + 0.5) * (r / n_rho)
        thetas = (np.arange(n_theta) + 0.5) * (TWO_PI / n_theta)
        total = 0.0
        for p in rho:
            dh, dg = da.wirtinger_on_circle(coeffs, p, thetas)
            total += float(np.sum(np.abs(dh) ** 2 - np.abs(dg) ** 2)) * p
        want = total * (r / n_rho) * (TWO_PI / n_theta)
        got = da.area_jacobian_grid(coeffs, r, n_rho, n_theta).value
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n_rho, n_theta", [(1, 64), (16, 0), (16, -4)])
    def test_degenerate_grid_rejected(self, n_rho, n_theta):
        # the half grid would have no rings or no angles
        with pytest.raises(ValueError, match="n_rho >= 2 and n_theta >= 1"):
            da.area_jacobian_grid(da.family_coeffs("mobius", 0.3), 0.5, n_rho, n_theta)

    def test_smallest_grid(self):
        est = da.area_jacobian_grid(da.family_coeffs("mobius", 0.3), 0.5, 2, 1)
        assert est.resolution == 2 and math.isfinite(est.value) and math.isfinite(est.error_indicator)

    @staticmethod
    def traced_peak(coeffs, **grid):
        da.area_jacobian_grid(coeffs, 0.9, 8, 8)
        tracemalloc.start()
        try:
            da.area_jacobian_grid(coeffs, 0.9, **grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_default_grid_peak_memory(self):
        # the 512-angle grid that series of order 256 and more take: h' and g'
        # on 1024 x 512 points are 16 MiB of series output; the ring sums must
        # add no float array of that shape (4 MiB each)
        assert self.traced_peak(da.family_coeffs("mobius", 0.3), n_theta=512) <= 22 * 2**20

    def test_default_grid_builds_no_weights_array(self):
        # more rings than angles: the powers multiply a 64 x 2 x 512 weighted
        # table, and no 2 x 1024 x 64 complex array of weights is built
        assert self.traced_peak(da.family_coeffs("mobius", 0.3), n_theta=512) <= 20 * 2**20

    def test_derived_grid_peak_memory(self):
        # the order-64 series takes 128 angles: h' and g' on 1024 x 128 points
        # are 4 MiB of series output (about 5.1 MiB traced in all)
        assert self.traced_peak(da.family_coeffs("mobius", 0.3)) <= 6 * 2**20

    def test_random_matches_green(self, mollified_map):
        jac = da.area_jacobian_grid(mollified_map, 0.5, 512, 256)
        green = da.area_green_quadrature(mollified_map, 0.5, 1024)
        assert abs(jac.value - green.value) < 1e-5


# the series of the derived-grid tests: closed forms, and a mollified and a
# rough map extracted at several orders
DERIVED_GRID_SERIES = [("identity", None), ("shear", 0.3), ("mobius", 0.3 + 0.2j)] + [
    (fixture, order) for fixture in ("mollified_map", "random_map") for order in (8, 64, 100, 255)
]


def assert_grids_agree(coeffs, r, rel=1e-14):
    got = da.area_jacobian_grid(coeffs, r)
    want = da.area_jacobian_grid(coeffs, r, n_theta=512)
    # an area below the smallest normal double carries no relative precision
    assert abs(got.value - want.value) <= rel * abs(want.value) + np.finfo(float).tiny
    assert abs(got.error_indicator - want.error_indicator) <= 1e-13
    assert got.resolution == want.resolution


class TestJacobianAngles:
    """The angles the Jacobian grid derives from the series order when no n_theta is given."""

    @pytest.mark.parametrize("r", [0.3, 0.9, 0.97])
    @pytest.mark.parametrize("source, arg", DERIVED_GRID_SERIES)
    def test_derived_grid_matches_512_angles(self, request, source, arg, r):
        # det Df is exact in angle on both grids, so only rounding moves
        if source in area.FAMILIES:
            coeffs = da.family_coeffs(source, arg)
        else:
            coeffs = da.fourier_from_boundary(request.getfixturevalue(source), order=arg)
        assert_grids_agree(coeffs, r)

    @pytest.mark.parametrize("order", [256, 512])
    def test_high_orders_keep_512_angles_bit_for_bit(self, mollified_map, order):
        coeffs = da.fourier_from_boundary(mollified_map, order=order)
        for r in (0.5, 0.9):
            assert da.area_jacobian_grid(coeffs, r) == da.area_jacobian_grid(coeffs, r, n_theta=512)

    @pytest.mark.parametrize("order", [1, 5, 8, 64, 100, 255, 256, 300, 512])
    def test_grid_angles(self, mollified_map, monkeypatch, order):
        calls = []
        wirtinger = area.wirtinger_on_circle

        def spy(coeffs, rho, thetas):
            calls.append((rho.size, thetas.n_theta))
            return wirtinger(coeffs, rho, thetas)

        monkeypatch.setattr(area, "wirtinger_on_circle", spy)
        da.area_jacobian_grid(da.fourier_from_boundary(mollified_map, order=order), 0.9)
        (full_rho, full), (half_rho, half) = calls
        assert (full_rho, half_rho) == (1024, 512)
        assert full == min(512, max(16, 2 * order)) and half == max(8, full // 2)
        # up to order 256 the half grid too is exact in angle
        assert half >= min(order, 256)

    @settings(max_examples=25, deadline=None)
    @given(order=st.integers(1, 300), r=st.floats(0.0, 0.97, exclude_min=True))
    @example(order=1, r=0.97)
    @example(order=255, r=0.97)
    @example(order=300, r=1e-3)
    @example(order=7, r=1e-20)  # the 512-angle ring sums are 1.25e-14 off here
    @example(order=241, r=1e-6)  # the 482-angle ring sums are 1.0e-14 off here
    @example(order=18, r=7.058157129820129e-161)  # subnormal areas, 5e-324 apart
    def test_derived_grid_matches_512_angles_property(self, mollified_map, order, r):
        # both grids are exact in angle, so they differ only by the rounding
        # of their ring sums of up to 1024 squares, which reaches 1.3e-14 on
        # near-constant rings (against ring sums by math.fsum)
        assert_grids_agree(da.fourier_from_boundary(mollified_map, order=order), r, rel=1e-13)


class TestKernelMethods:
    def test_identity_direct(self):
        est = da.area_kernel_direct(da.make_identity(), 0.5, 512)
        assert abs(est.value - math.pi * 0.25) < 1e-6
        fine = da.area_kernel_direct(da.make_identity(), 0.5, 1024)
        assert abs(fine.value - math.pi * 0.25) < abs(est.value - math.pi * 0.25) + 1e-12

    def test_rotation_identical_to_identity(self):
        # the prefactor does not enter the pair kernel sum
        a = da.area_kernel_direct(da.make_rotation(1.3), 0.5, 512).value
        b = da.area_kernel_direct(da.make_identity(), 0.5, 512).value
        assert a == b

    def test_fft_equals_direct_reassociation(self, mollified_map):
        for m in (256, 1024):
            d = da.area_kernel_direct(mollified_map, 0.6, m).value
            f = da.area_kernel_fft(mollified_map, 0.6, m).value
            assert abs(d - f) <= 1e-10 * abs(f)

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.97])
    def test_fft_equals_direct_at_4096(self, mollified_map, r):
        d = da.area_kernel_direct(mollified_map, r, 4096).value
        f = da.area_kernel_fft(mollified_map, r, 4096).value
        assert abs(d - f) <= 1e-10 * abs(f)

    def test_direct_matches_green_quadrature(self):
        bmap = da.mollify_map(da.make_random_homeomorphism(7))
        d = da.area_kernel_direct(bmap, 0.6, 1024).value
        g = da.area_green_quadrature(bmap, 0.6, 1024).value
        assert abs(d - g) < 1e-6

    def test_shift_invariance(self, mollified_map):
        # rotating the sample grid by whole cells permutes the finite sum
        m = 512
        t = np.arange(m) * (TWO_PI / m)
        xi = da.eval_lift(mollified_map, t)
        kern = da.area_kernel(0.6, t)
        base = pair_sums.sin_pair_sum(kern, xi)
        for shift in (1, 17, 200):
            rolled = np.concatenate([xi[shift:], xi[:shift] + TWO_PI])
            moved = pair_sums.sin_pair_sum(kern, np.ascontiguousarray(rolled))
            assert abs(moved - base) < 1e-10 * max(1.0, abs(base))

    def test_constant_offset_invariance(self, mollified_map):
        # the pair sum sees only lift differences
        m = 512
        t = np.arange(m) * (TWO_PI / m)
        xi = da.eval_lift(mollified_map, t)
        kern = da.area_kernel(0.6, t)
        base = pair_sums.sin_pair_sum(kern, xi)
        moved = pair_sums.sin_pair_sum(kern, np.ascontiguousarray(xi + 0.77))
        assert abs(moved - base) < 1e-10 * max(1.0, abs(base))

    def test_step_map_two_jump_degenerate_image(self, step_two_jump):
        est = da.area_kernel_direct(step_two_jump, 0.5, 1024)
        assert est.value > -1e-10
        assert est.value < math.pi * 0.25


class TestKeptLagSums:
    """The kernel estimators take a map's lag sums once per sample count and route."""

    ROUTES = {"kernel-direct": "_direct_sine_lag_sums", "kernel-fft": "_sine_lag_sums"}

    @pytest.fixture
    def counted(self, monkeypatch):
        """Per route, the sample counts its lag sums were computed at; the cache starts empty."""
        calls = {}
        for method, name in self.ROUTES.items():
            real = getattr(pair_sums, name)
            sizes = calls[method] = []
            monkeypatch.setattr(pair_sums, name, lambda xi, real=real, sizes=sizes: sizes.append(len(xi)) or real(xi))
        area._lift_lag_sums.cache_clear()
        yield calls
        area._lift_lag_sums.cache_clear()

    # 5000 runs the direct lag sums over several lag blocks, with a shorter last one
    @pytest.mark.parametrize("m", [512, 5000])
    def test_once_per_sample_count_for_every_radius(self, counted, mollified_map, m):
        estimators = {"kernel-direct": da.area_kernel_direct, "kernel-fft": da.area_kernel_fft}
        radii = (0.5, 0.9)
        kept = {(method, r): est(mollified_map, r, m) for r in radii for method, est in estimators.items()}
        assert counted == {method: [m, m // 2] for method in estimators}
        for (method, r), got in kept.items():
            area._lift_lag_sums.cache_clear()
            fresh = estimators[method](mollified_map, r, m)
            assert (got.value, got.error_indicator) == (fresh.value, fresh.error_indicator)
        for method in estimators:
            assert area._lift_lag_sums(mollified_map, m, method).flags.writeable is False

    def test_kept_value_is_the_pair_sum_bit_for_bit(self, counted, mollified_map):
        # the first radius fills the cache, the second reads it
        for r in (0.9, 0.6):
            for method, pair_sum in (("kernel-direct", pair_sums.sin_pair_sum), ("kernel-fft", pair_sums.sin_pair_sum_fft)):
                est = da.estimate_area(mollified_map, r, method, resolution=2049)
                assert est.value == area._kernel_value(mollified_map, r, 2049, pair_sum)
        # the estimates take 2049 and 1024 once; each pair sum takes 2049 afresh
        assert counted == {method: [2049, 1024, 2049, 2049] for method in self.ROUTES}

    def test_maps_with_equal_knots_keep_their_own_entries(self, counted):
        a, b = da.make_random_homeomorphism(4), da.make_random_homeomorphism(4)
        assert da.area_kernel_direct(a, 0.5, 64).value == da.area_kernel_direct(b, 0.5, 64).value
        assert counted["kernel-direct"] == [64, 32, 64, 32]


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("seed", [3, 7])
    def test_mollified_corpus(self, seed):
        bmap = da.mollify_map(da.make_random_homeomorphism(seed, roughness=0.5))
        for r in (0.25, 0.5, 0.75, 0.9):
            ests = all_methods(bmap, r)
            vals = [e.value for e in ests.values()]
            spread = max(vals) - min(vals)
            allowance = max(1e-5, 10 * max(e.error_indicator for e in ests.values()))
            assert spread <= allowance, (r, spread, allowance)

    def test_monotone_in_radius(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=512)
        vals = [da.area_green_spectral(coeffs, r).value for r in np.linspace(0.05, 0.95, 19)]
        assert np.all(np.diff(vals) > -1e-8)

    def test_value_below_disk_area(self, mollified_map):
        est = da.estimate_area(mollified_map, 0.9)
        assert 0.0 <= est.value <= math.pi * (1 + 1e-9)


class TestEstimateMetadata:
    def test_error_indicator_tracks_resolution(self):
        bmap = da.make_random_homeomorphism(5)
        est = da.area_kernel_direct(bmap, 0.6, 512)
        assert est.error_indicator >= 0.0
        assert est.method == "kernel-direct"
        assert est.resolution == 512

    @pytest.mark.parametrize("method", [da.area_kernel_direct, da.area_kernel_fft])
    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_kernel_methods_reject_fewer_than_two_samples(self, method, m):
        with pytest.raises(ValueError, match="n_samples"):
            method(da.make_identity(), 0.5, m)

    @pytest.mark.parametrize("method", [da.area_kernel_direct, da.area_kernel_fft])
    def test_kernel_methods_accept_two_samples(self, method):
        est = method(da.make_identity(), 0.5, 2)
        assert est.resolution == 2 and math.isfinite(est.value)


def _registry_sources():
    from diskarea import runner

    bmap = da.mollify_map(da.make_random_homeomorphism(3))
    coeffs = da.fourier_from_boundary(bmap, order=16)
    family = lambda spec: runner.parse_family(spec)[0]
    both = {area.BOUNDARY, area.BOUNDARY_OR_COEFFS}
    # source -> the kinds of input (REGISTRY[...].takes) it provides
    return {
        "boundary-map": (bmap, both),
        "fourier-coeffs": (coeffs, {area.BOUNDARY_OR_COEFFS}),
        "random-family": (family("random:0"), both),
        "mobius-family": (family("mobius:0.3"), both | {area.CLOSED_FORM}),
        "shear-family": (family("shear:0.3"), {area.BOUNDARY_OR_COEFFS, area.CLOSED_FORM}),
    }


REGISTRY_SOURCES = _registry_sources()


class TestRegistry:
    @pytest.mark.parametrize("source_name", sorted(REGISTRY_SOURCES))
    @pytest.mark.parametrize("method", area.METHODS)
    def test_each_method_takes_what_its_entry_says(self, method, source_name):
        source, provides = REGISTRY_SOURCES[source_name]
        if area.REGISTRY[method].takes in provides:
            est = da.estimate_area(source, 0.5, method, order=16, resolution=64)
            assert isinstance(est, da.AreaEstimate) and est.method == method
            assert math.isfinite(est.value)
        else:
            with pytest.raises(da.HypothesisViolationError):
                da.estimate_area(source, 0.5, method, order=16, resolution=64)

    def test_methods_and_verify_reexport_come_from_the_table(self):
        assert da.METHODS == tuple(area.REGISTRY)
        assert da.verify.estimate_area is area.estimate_area
        with pytest.raises(ValueError, match="unknown area method"):
            da.estimate_area(da.make_identity(), 0.5, "fancy")

    def test_estimator_is_looked_up_when_called(self, monkeypatch):
        calls = []
        real = area.area_kernel_fft
        monkeypatch.setattr(area, "area_kernel_fft", lambda *args: calls.append(args) or real(*args))
        da.estimate_area(da.make_identity(), 0.5, "kernel-fft", resolution=64)
        assert len(calls) == 1

    def test_order_reaches_the_jacobian(self, mollified_map):
        low = da.estimate_area(mollified_map, 0.9, "jacobian", order=8)
        high = da.estimate_area(mollified_map, 0.9, "jacobian", order=64)
        assert low.value == da.area_jacobian_grid(mollified_map, 0.9, order=8).value
        assert high.value == da.area_jacobian_grid(mollified_map, 0.9, order=64).value
        assert low.value != high.value

    def test_resolution_reaches_the_quadratures(self, mollified_map):
        assert da.estimate_area(mollified_map, 0.6, "kernel-fft", resolution=256).resolution == 256
        default = da.estimate_area(mollified_map, 0.6, "kernel-fft")
        assert default.resolution == area.kernel_sample_count(0.6)
        assert da.estimate_area(mollified_map, 0.6, "green-quadrature").resolution == 1024

    def test_fourier_coeffs_are_accepted(self, mollified_map):
        coeffs = da.fourier_from_boundary(mollified_map, order=64)
        est = da.estimate_area(coeffs, 0.6)
        assert est.value == da.area_green_spectral(coeffs, 0.6).value
        assert est.value == da.estimate_area(mollified_map, 0.6, order=64).value
