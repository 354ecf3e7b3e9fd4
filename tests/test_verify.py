import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import diskarea as da
from diskarea import runner, verify

import oracles

TWO_PI = 2.0 * math.pi


class TestAreaContraction:
    def test_identity_is_equality_case(self):
        rec = da.check_area_contraction(da.make_identity(), 0.5, map_id="identity")
        assert rec.passed
        assert abs(rec.slack) < 1e-12
        assert rec.rhs == math.pi * 0.25

    def test_mobius_strict_contraction(self, mobius_half):
        rec = da.check_area_contraction(mobius_half, 0.5)
        assert rec.passed
        # confirmed image area 0.16 pi leaves slack 0.09 pi
        assert abs(rec.slack - 0.09 * math.pi) < 1e-5

    def test_step_map_violates_hypothesis(self, step_two_jump):
        with pytest.raises(da.HypothesisViolationError):
            da.check_area_contraction(step_two_jump, 0.5)

    def test_small_sweep_all_pass(self):
        for seed in range(10):
            bmap = da.mollify_map(da.make_random_homeomorphism(seed, roughness=0.5))
            for r in (0.25, 0.9):
                rec = da.check_area_contraction(bmap, r)
                assert rec.passed
                assert rec.slack > 0

    def test_accepts_coefficients(self):
        coeffs = da.family_coeffs("shear", 0.3)
        rec = da.check_area_contraction(coeffs, 0.5)
        est = da.area_green_spectral(coeffs, 0.5)
        assert rec.passed
        assert rec.method == "green-spectral"
        assert rec.lhs == est.value
        assert rec.error_indicator == est.error_indicator

    def test_tolerance_is_relative_to_the_disk(self, mobius_half):
        rec = da.check_area_contraction(mobius_half, 0.5)
        assert rec.tolerance == 1e-6 * (math.pi * 0.25)

    def test_verdict_invariants(self, mobius_half):
        rec = da.check_area_contraction(mobius_half, 0.5)
        assert rec.passed == (rec.slack >= -rec.tolerance)
        assert math.isfinite(rec.slack)


class TestEqualitySlack:
    def test_rotations_are_isometries(self):
        for phi in (0.0, 1.0, math.pi):
            assert abs(da.check_area_contraction(da.make_rotation(phi), 0.7).slack) < 1e-8

    def test_mobius_positive(self):
        assert da.check_area_contraction(da.make_mobius_boundary(0.3), 0.5).slack > 1e-3

    def test_random_positive(self):
        bmap = da.mollify_map(da.make_random_homeomorphism(11))
        assert da.check_area_contraction(bmap, 0.5).slack > 0

    def test_near_equality_implies_near_rotation(self):
        # numerical proxy for the rigidity statement: tiny slack only happens
        # for maps whose lift deviates little from the identity
        corpus = [da.make_rotation(0.4)] + [
            da.mollify_map(da.make_random_homeomorphism(s, roughness=0.5)) for s in range(8)
        ]
        for bmap in corpus:
            if abs(da.check_area_contraction(bmap, 0.5).slack) < 1e-8:
                assert oracles.lift_identity_deviation(bmap) < 1e-3


class TestSchwarzBound:
    def test_identity_strict_slack(self):
        rec = da.schwarz_bound_check(da.make_identity())
        assert rec.passed
        assert rec.lhs < -1e-3  # (4/pi) arctan x exceeds x strictly inside (0, 1)

    def test_centered_random_corpus(self):
        for seed in range(5):
            bmap = da.make_random_homeomorphism(seed, half_turn_symmetric=True)
            rec = da.schwarz_bound_check(bmap, map_id=f"centered:{seed}")
            assert rec.passed

    def test_two_jump_family_touches_bound(self, step_two_jump):
        rec = da.schwarz_bound_check(step_two_jump)
        assert rec.passed
        # the two-value family attains the majorant on its symmetry axis,
        # which is the real axis for the left/right split
        reach = abs(da.eval_harmonic_step(step_two_jump, 0.9, 0.0))
        bound = float(da.schwarz_bound(0.9))
        assert abs(bound - reach) < 1e-12

    def test_uncentered_map_rejected(self, random_map):
        with pytest.raises(da.HypothesisViolationError):
            da.schwarz_bound_check(random_map)

    def test_uncentered_step_map_rejected(self):
        # lift 0 on a quarter of the circle and pi/2 on the rest: f(0) = (1 + 3i) / 4
        with pytest.raises(da.HypothesisViolationError):
            da.schwarz_bound_check(da.make_step_map([0.0, math.pi / 2], [0.0, math.pi / 2]))

    def test_grid_radii_are_read_only(self):
        # the memoized table of the grid's radial powers is a function of them
        with pytest.raises(ValueError):
            verify._SCHWARZ_RADII[0] = 0.5


class TestBoundaryFlux:
    def test_identity_is_two_pi_at_every_order(self):
        # zero padding changes the order, not the rho = 1 sum
        for order in (1, 64, 256):
            rec = da.boundary_jacobian_integral(da.FourierCoeffs.from_dict({order: 0.0, 1: 1.0}))
            assert rec.lhs == TWO_PI and rec.error_indicator == 0.0
            assert rec.resolution == order

    def test_boundary_map_is_extracted_at_order_256(self):
        bmap = da.mollify_map(da.make_random_homeomorphism(5))
        from_map = da.boundary_jacobian_integral(bmap)
        assert from_map == da.boundary_jacobian_integral(da.fourier_from_boundary(bmap, order=256))
        assert from_map.resolution == 256

    def test_rotation_exact(self):
        for phi in (1.0, math.pi / 2):
            rec = da.boundary_jacobian_integral(da.family_coeffs("rotation", phi))
            assert rec.passed
            assert rec.lhs == TWO_PI

    @pytest.mark.parametrize("a", [0.2, 0.4, 0.6, 0.3 + 0.4j])
    def test_mobius_family_meets_lower_bound(self, a):
        # the boundary flux of the disk automorphism is 2 pi (1 + |a|^2) / (1 - |a|^2)
        rec = da.boundary_jacobian_integral(da.family_coeffs("mobius", a))
        assert rec.passed and not rec.inconclusive
        want = TWO_PI * (1 + abs(a) ** 2) / (1 - abs(a) ** 2)
        assert abs(rec.lhs - want) <= 1e-12 * want
        assert rec.resolution == 64 and rec.error_indicator == 0.0

    def test_shear_weights_negative_indices_negatively(self):
        # z + c conj(z)^2: 2 pi (1 - 4 |c|^2), where an unsigned sum would give 2 pi (1 + 4 |c|^2)
        rec = da.boundary_jacobian_integral(da.family_coeffs("shear", 0.3))
        assert abs(rec.lhs - TWO_PI * (1 - 4 * 0.09)) < 1e-12

    def test_mollified_random(self):
        bmap = da.mollify_map(da.make_random_homeomorphism(3))
        rec = da.boundary_jacobian_integral(bmap)
        assert rec.passed and not rec.inconclusive

    def test_indicator_falls_with_order_on_rough_map(self):
        # the unmollified lift has a slowly decaying series: the half-order change is
        # visible at order 256 and shrinks by the order 1024
        bmap = da.make_random_homeomorphism(0, roughness=0.5)
        low, high = (da.boundary_jacobian_integral(da.fourier_from_boundary(bmap, order=n)).error_indicator
                     for n in (256, 1024))
        assert 0.0 < high < low

    def test_step_map_rejected(self, step_two_jump):
        with pytest.raises(da.HypothesisViolationError):
            da.boundary_jacobian_integral(step_two_jump)


class TestConvexity:
    def test_identity_equality(self):
        rec = da.holomorphic_convexity_check([1.0], 0.5)
        assert rec.passed
        assert abs(rec.slack) < 1e-14

    def test_small_perturbation_algebra(self):
        # c = (1, 0.1): the comparison reduces to 0.02 r^4 <= 0.02 r^2
        rec = da.holomorphic_convexity_check([1.0, 0.1], 0.5)
        assert rec.passed
        want = math.pi * (0.02 * 0.25 - 0.02 * 0.0625)
        assert abs(rec.slack - want) < 1e-12

    def test_injectivity_gate(self):
        assert da.univalence_margin([1.0, 0.1]) > 0
        assert da.univalence_margin(da.family_coeffs("mobius", 0.4).coeffs[65:]) > 0
        # z^2 on the disk is 2-to-1: the certificate must not pass it, nor any series with c_1 = 0
        assert not da.univalence_margin([0.0, 1.0]) > 0
        assert not da.univalence_margin([0.0, 0.0, 0.3]) > 0

    def test_convexity_series_margins(self):
        margins = [da.univalence_margin(s) for s in runner.HOLOMORPHIC_SERIES.values()]
        assert np.allclose(margins, [1.000, 1.000, 0.798, 0.390], rtol=0, atol=1e-3)

    def test_non_univalent_series_has_negative_margin(self):
        # f' = 1 + 1.2 z vanishes at z = -1/1.2 inside the disk
        assert da.univalence_margin([1.0, 0.6]) < -0.2

    @pytest.mark.parametrize("series", [[], np.array([], dtype=complex)])
    def test_empty_series_is_a_value_error(self, series):
        with pytest.raises(ValueError, match="empty series"):
            da.univalence_margin(series)

    @pytest.mark.parametrize("series", [[], np.array([], dtype=complex)])
    def test_convexity_of_empty_series_is_a_value_error(self, series):
        with pytest.raises(ValueError, match="empty series"):
            da.holomorphic_convexity_check(series, 0.5)

    @pytest.mark.parametrize("series", [[1.0, 0.1], [1j, 0.2, -0.05j], [1.0, 0.6]])
    def test_margin_bounds_the_dense_minimum(self, series):
        # the certificate is a lower bound on min Re(e^{-i arg c_1} f') over the circle,
        # short of the sampled minimum by exactly pi L / m
        cs = np.asarray(series, dtype=complex)
        n = np.arange(1, cs.size + 1)
        z = np.exp(1j * np.arange(1 << 16) * (TWO_PI / (1 << 16)))
        dense = np.min(np.real(np.exp(-1j * np.angle(cs[0])) * polyval(z, n * cs)))
        margin = da.univalence_margin(series)
        slack = math.pi * float(np.sum(n * (n - 1) * np.abs(cs))) / 256
        assert margin <= dense
        assert dense - margin <= slack + 1e-12

    @pytest.mark.parametrize("family, param", [("shear", 0.3), ("mobius", 0.4)])
    @pytest.mark.parametrize("r", [0.25, 0.9])
    def test_left_side_is_the_green_spectral_area(self, family, param, r):
        coeffs = da.family_coeffs(family, param)
        assert da.holomorphic_convexity_check(coeffs, r).lhs == da.area_green_spectral(coeffs, r).value

    def test_shear_fails_as_designed(self):
        # the harmonic shear breaks the holomorphic comparison at every
        # interior radius; the harness asserts the failure itself
        coeffs = da.family_coeffs("shear", 0.3)
        rec = da.holomorphic_convexity_check(coeffs, 0.5)
        assert not rec.passed
        assert rec.lhs > rec.rhs
        c2, r2 = 0.09, 0.25
        want_gap = math.pi * 2 * c2 * r2 * (1 - r2)
        assert abs((rec.lhs - rec.rhs) - want_gap) < 1e-12


class TestVerdictPlumbing:
    def test_json_round_trip_fields(self):
        import json

        rec = da.check_area_contraction(da.make_identity(), 0.5, map_id="identity")
        doc = json.loads(oracles.record_json(rec))
        assert doc["check_name"] == "area-contraction"
        assert doc["passed"] is True
        assert list(doc) == [
            "check_name", "map_id", "r", "lhs", "rhs", "slack",
            "tolerance", "passed", "resolution", "inconclusive", "method", "error_indicator",
        ]

    def test_ge_direction(self):
        rec = da.verify.make_verdict("x", "", 0.5, 3.0, 2.0, 0.1, 1, direction="ge")
        assert rec.passed and rec.slack == 1.0
        rec = da.verify.make_verdict("x", "", 0.5, 1.0, 2.0, 0.1, 1, direction="ge")
        assert not rec.passed

    @pytest.mark.parametrize("lhs", [math.nan, math.inf, -math.inf])
    def test_non_finite_slack_is_inconclusive(self, lhs):
        for direction in ("le", "ge"):
            rec = da.verify.make_verdict("x", "", 0.5, lhs, 2.0, 0.1, 1, direction=direction)
            assert rec.inconclusive and not rec.passed
            assert not math.isfinite(rec.slack)

    def test_holds_is_anded_into_passed(self):
        rec = da.verify.make_verdict("x", "", 0.5, 3.0, 2.0, 0.1, 1, direction="ge", holds=False)
        assert not rec.passed and not rec.inconclusive
        rec = da.verify.make_verdict("x", "", 0.5, 1.0, 2.0, 0.1, 1, direction="ge", holds=True)
        assert not rec.passed

    def test_jacobian_contraction_honours_order(self):
        bmap = da.mollify_map(da.make_random_homeomorphism(3))
        for order in (8, 64):
            rec = da.check_area_contraction(bmap, 0.9, method="jacobian", order=order)
            assert rec.lhs == da.area_jacobian_grid(bmap, 0.9, order=order).value
            assert rec.method == "jacobian"
