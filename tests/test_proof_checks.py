import math
import tracemalloc

import numpy as np
import pytest

import diskarea as da
from diskarea import proof_checks as pc
from diskarea.verify import make_verdict

import oracles

TWO_PI = 2.0 * math.pi


class TestTangentGap:
    def test_tangency_point(self):
        for a in np.linspace(0, TWO_PI, 23):
            assert abs(da.tangent_gap(a, a)) < 1e-15

    def test_direct_values(self):
        assert abs(da.tangent_gap(0.0, math.pi) - math.pi) < 1e-15
        assert abs(da.tangent_gap(math.pi / 2, 3 * math.pi / 2) - 2.0) < 1e-15

    def test_beta_slope_finite_difference_oracle(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            a = float(rng.uniform(0, TWO_PI))
            b = float(rng.uniform(0, TWO_PI))
            fd = (da.tangent_gap(a, b + h) - da.tangent_gap(a, b - h)) / (2 * h)
            assert abs(fd - (math.cos(a) - math.cos(b))) < 1e-9

    def test_nonnegative_on_concavity_square(self):
        a = np.linspace(0, math.pi, 129)
        A, B = np.meshgrid(a, a, indexing="ij")
        assert float(np.min(da.tangent_gap(A, B))) >= -1e-14


class TestSignStructure:
    def test_record_passes(self):
        signs, strict = da.check_tangent_gap_signs(256)
        assert signs.check_name == "tangent-gap-signs" and signs.passed
        assert strict.check_name == "strict-interior-positivity" and strict.passed

    def test_negative_sample_exists_inside_triangles(self):
        # e.g. a = 3pi/4, b = 7pi/4 sits in the upper triangle with a
        # strictly negative weighted gap
        a, b = 3 * math.pi / 4, 7 * math.pi / 4
        assert b > TWO_PI - a
        for r in (0.3, 0.6, 0.9):
            assert da.area_kernel(r, a) * da.tangent_gap(a, b) < 0

    def test_central_symmetry_pointwise(self):
        # tolerance widens at r = 0.9 where the kernel derivative amplifies
        # the rounding of the mirrored argument (same conditioning as the
        # mirrored-pair identity)
        a = np.linspace(0, TWO_PI, 257)
        A, B = np.meshgrid(a, a, indexing="ij")
        for r, tol in ((0.3, 1e-12), (0.6, 1e-12), (0.9, 5e-12)):
            lhs = da.area_kernel(r, A) * da.tangent_gap(A, B)
            rhs = da.area_kernel(r, TWO_PI - A) * da.tangent_gap(TWO_PI - A, TWO_PI - B)
            assert float(np.max(np.abs(lhs - rhs))) < tol

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            da.check_tangent_gap_signs(32)


class TestMirrorPairIdentity:
    def test_residual_and_sign(self):
        for r in (0.3, 0.6, 0.7):
            resid, min_rhs = da.mirror_pair_residual(r, 256)
            assert resid < 1e-12
            assert min_rhs >= -1e-12

    def test_high_radius_conditioning_documented(self):
        # at r = 0.9 the kernel derivative amplifies the rounding of the
        # mirrored argument; the identity still holds to a few 1e-12
        resid, _ = da.mirror_pair_residual(0.9, 256)
        assert resid < 5e-12

    def test_midline_is_trivial(self):
        # at b = pi both sides coincide by construction
        r = 0.7
        a = np.linspace(0, TWO_PI, 129)
        lhs = da.area_kernel(r, a) * da.tangent_gap(a, math.pi) + da.area_kernel(
            r, TWO_PI - a
        ) * da.tangent_gap(TWO_PI - a, math.pi)
        rhs = 2 * da.area_kernel(r, a) * da.tangent_gap(a, math.pi)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12

    def test_record(self):
        rec = da.check_mirror_pair_identity(0.6)
        assert rec.passed


class TestIncrementProfiles:
    def test_identity_slice_is_diagonal(self):
        g = oracles.increment_profile(da.make_identity(), 1.234)
        assert np.max(np.abs(g.values - g.alphas)) < 1e-12

    def test_rotation_slice_is_diagonal(self):
        g = oracles.increment_profile(da.make_rotation(2.0), 0.3)
        assert np.max(np.abs(g.values - g.alphas)) < 1e-12

    def test_endpoints_pinned(self, random_map):
        for t in (0.0, 1.7, 5.0):
            g = oracles.increment_profile(random_map, t)
            assert g.values[0] == 0.0
            assert g.values[-1] == TWO_PI

    def test_range_inside_period(self, random_map, step_two_jump):
        for bmap in (random_map, step_two_jump):
            g = oracles.increment_profile(bmap, 0.9)
            assert np.all(g.values >= 0.0)
            assert np.all(g.values <= TWO_PI)

    def test_monotone_validation(self):
        with pytest.raises(ValueError):
            da.MonotoneProfile(np.array([0.0, 1.0, 0.5, 1.5, TWO_PI]))

    def test_even_cell_count_required(self):
        with pytest.raises(ValueError):
            da.MonotoneProfile(np.linspace(0, TWO_PI, 4))


class TestReflection:
    def test_identity_profile_fixed(self):
        g = da.MonotoneProfile(np.linspace(0, TWO_PI, 513))
        r = da.reflect_profile(g)
        assert np.max(np.abs(r.values - g.values)) < 1e-12

    def test_constant_zero_maps_to_constant_full(self):
        g = da.MonotoneProfile(np.zeros(513))
        r = da.reflect_profile(g)
        assert np.max(np.abs(r.values - TWO_PI)) < 1e-15

    def test_involution_pointwise(self):
        for seed in range(20):
            g = da.random_profile(seed)
            gg = da.reflect_profile(da.reflect_profile(g))
            assert np.max(np.abs(gg.values - g.values)) < 1e-14

    def test_gap_integral_invariant(self):
        # the reflection is integrated as it is; profile_gap_integral would reflect it back
        for seed in range(20):
            g = da.random_profile(seed)
            for r in (0.3, 0.6, 0.9):
                v1, _ = da.profile_gap_integral(g, r)
                assert abs(v1 - oracles.reflected_gap_integral(g, r)) < 1e-10


class TestCosIdentity:
    def test_identity_map_vanishes(self):
        assert da.cos_identity_residual(da.make_identity(), 0.6, 512) < 1e-12

    def test_inner_increment_mean_per_shift(self, random_map):
        # the periodic deviation has equal averages along every shifted grid
        for j in (1, 17, 400):
            alpha = TWO_PI * j / 1024
            assert oracles.increment_mean_residual(random_map, alpha, 1024) < 1e-10

    def test_inner_increment_mean_off_grid_smooth(self):
        bmap = da.mollify_map(da.make_random_homeomorphism(4))
        assert oracles.increment_mean_residual(bmap, 1.2345, 1024) < 1e-10

    def test_random_maps(self):
        for seed in (5, 6):
            bmap = da.make_random_homeomorphism(seed)
            assert da.cos_identity_residual(bmap, 0.6, 1024) < 1e-8

    def test_lift_without_its_period_shift_fails_both_rows(self, monkeypatch):
        # both proof rows read the lift's second period, so a lift that is not
        # periodic must fail them, as the proof suite builds them
        def unshifted(bmap, t):
            return np.interp(np.mod(t, TWO_PI), bmap.knots_t, bmap.knots_lift)

        monkeypatch.setattr(pc, "eval_lift", unshifted)
        bmap = da.make_random_homeomorphism(0, roughness=0.5)
        for r in (0.25, 0.9):
            cos, gap = pc.check_gap_double_integral(bmap, r, 512)
            assert cos.check_name == "cos-identity" and not cos.passed
            assert cos.lhs == pc.cos_identity_residual(bmap, r, 512)
            assert gap.check_name == "gap-double-integral" and not gap.passed


class TestGapDoubleIntegral:
    def test_identity_vanishes(self):
        _, rec = da.check_gap_double_integral(da.make_identity(), 0.5, 512)
        assert rec.passed
        assert abs(rec.slack) < 1e-10

    def test_random_nonnegative_and_bookkept(self):
        _, rec = da.check_gap_double_integral(da.make_random_homeomorphism(9), 0.5, 512)
        assert rec.passed
        assert rec.slack >= 0.0

    def test_mobius_accounts_for_area_deficit(self, mobius_half):
        # value / 4pi must equal pi r^2 minus the confirmed image area
        _, rec = da.check_gap_double_integral(mobius_half, 0.5, 512)
        assert rec.passed
        deficit = math.pi * 0.25 - 0.16 * math.pi
        assert abs(rec.slack / (4 * math.pi) - deficit) < 1e-5

    def test_step_map_rejected(self, step_two_jump):
        with pytest.raises(ValueError):
            da.check_gap_double_integral(step_two_jump, 0.5)

    def test_step_map_is_a_hypothesis_violation(self, step_two_jump):
        # the increment identities need a homeomorphism: the input breaks the
        # hypothesis, as in verify's checks, and the CLI exits 65
        for check in (da.check_gap_double_integral, da.cos_identity_residual):
            with pytest.raises(da.HypothesisViolationError):
                check(step_two_jump, 0.5)

    def test_cos_identity_record_holds_the_residual(self):
        bmap = da.make_random_homeomorphism(2, roughness=0.5)
        cos, gap = da.check_gap_double_integral(bmap, 0.75, 256, map_id="m")
        assert (cos.map_id, cos.r, cos.resolution) == (gap.map_id, gap.r, gap.resolution) == ("m", 0.75, 256)
        assert cos == make_verdict("cos-identity", "m", 0.75, da.cos_identity_residual(bmap, 0.75, 256),
                                   0.0, 1e-8, 256)
        assert cos.passed


class TestProfileGapIntegral:
    def test_identity_profile_zero_with_cutoff_pi(self):
        g = da.MonotoneProfile(np.linspace(0, TWO_PI, 513))
        value, cutoff = da.profile_gap_integral(g, 0.6)
        assert abs(value) < 1e-14
        assert cutoff == math.pi

    def test_zero_profile_positive_with_full_cutoff(self):
        g = da.MonotoneProfile(np.zeros(513))
        value, cutoff = da.profile_gap_integral(g, 0.6)
        assert value > 0.0
        assert cutoff == TWO_PI

    def test_reflects_when_midpoint_high(self):
        # a profile hugging 2*pi has midpoint above pi; the reflected form is
        # integrated and the value matches integrating the reflection directly
        g = da.MonotoneProfile(np.full(513, TWO_PI))
        v1, _ = da.profile_gap_integral(g, 0.6)
        v2, _ = da.profile_gap_integral(da.reflect_profile(g), 0.6)
        assert abs(v1 - v2) < 1e-14

    def test_sweep_five_hundred(self):
        worst = math.inf
        for seed in range(500):
            g = da.random_profile(seed)
            for r in (0.3, 0.6, 0.9):
                value, _ = da.profile_gap_integral(g, r)
                worst = min(worst, value)
        assert worst >= -1e-8

    def test_cutoff_grid_convention(self):
        # when no angle in [pi, 2*pi] keeps a + G(a) within a period the
        # cutoff collapses to pi
        vals = np.minimum(np.linspace(0, TWO_PI, 513) + 4.0, TWO_PI)
        g = da.MonotoneProfile(vals)
        assert g.values[g.n_cells // 2] > math.pi  # forces reflection inside the integral
        refl = da.reflect_profile(g)
        assert da.profile_gap_integral(refl, 0.5)[1] >= math.pi


class TestReductionChain:
    def test_identity_chain_all_zero(self):
        g = da.MonotoneProfile(np.linspace(0, TWO_PI, 513))
        rec = da.check_reduction_chain(g, 0.6)
        assert rec.passed
        assert abs(rec.slack) < 1e-12

    def test_clamped_diagonal(self):
        g = da.MonotoneProfile(np.minimum(np.linspace(0, TWO_PI, 513), math.pi))
        rec = da.check_reduction_chain(g, 0.6)
        assert rec.passed

    def test_two_hundred_random_profiles(self):
        for seed in range(200):
            g = da.random_profile(seed)
            for r in (0.3, 0.6, 0.9):
                rec = da.check_reduction_chain(g, r)
                assert rec.passed, (seed, r, rec.slack)

    def test_strict_interior_positivity_supports_equality_analysis(self):
        _, strict = da.check_tangent_gap_signs(256)
        assert strict.lhs > 1e-12


class TestChangeOfVariables:
    def test_double_sum_consistency(self):
        # the (s, t) pair sum and the (shift, t) gap sum describe the same
        # finite double integral; their bookkeeping ties out through the
        # identity-map area at matched resolution
        for seed in (3, 9):
            bmap = da.make_random_homeomorphism(seed)
            for r in (0.5, 0.75):
                m = 512
                _, rec = da.check_gap_double_integral(bmap, r, m)
                ident = da.area_kernel_direct(da.make_identity(), r, m).value
                mapped = da.area_kernel_direct(bmap, r, m).value
                assert abs((ident - mapped) - rec.slack / (4 * math.pi)) < 1e-10


def _reference_gap_integral(g, r):
    """The profile gap integral on 1-d arrays, reflecting through reflect_profile."""
    if g.values[g.n_cells // 2] > math.pi:
        g = da.reflect_profile(g)
    a = np.linspace(0.0, TWO_PI, g.values.size)
    return float(np.trapezoid(da.area_kernel(r, a) * da.tangent_gap(a, g.values), a))


def _reference_chain(g, r):
    """(q1, q2, q3, q4) of the reduction chain on 1-d arrays, each window sliced first."""
    if g.values[g.n_cells // 2] > math.pi:
        g = da.reflect_profile(g)
    a = np.linspace(0.0, TWO_PI, g.values.size)
    n = g.values.size - 1
    half = n // 2
    fits = np.nonzero(a[half:] + g.values[half:] <= TWO_PI)[0]
    i1 = half + int(fits.max()) if fits.size else half
    kern = da.area_kernel(r, a)
    w, up = slice(n - i1, i1 + 1), slice(half, i1 + 1)
    q1 = float(np.trapezoid(kern * da.tangent_gap(a, g.values), a))
    q2 = float(np.trapezoid(kern[w] * da.tangent_gap(a[w], g.values[w]), a[w]))
    q3 = float(np.trapezoid(kern[w] * da.tangent_gap(a[w], g.values[g.n_cells // 2]), a[w]))
    q4 = 2.0 * float(np.trapezoid(kern[up] * da.tangent_gap(a[up], math.pi), a[up]))
    return q1, q2, q3, q4


def _profile_family_loop(radii, n_profiles, n_chains):
    """The three profile records, one profile and one radius at a time."""
    worst_profile = min(
        da.profile_gap_integral(da.random_profile(seed), r)[0] for seed in range(n_profiles) for r in radii
    )
    worst_chain, worst_reflect = math.inf, 0.0
    for seed in range(n_chains):
        g = da.random_profile(seed)
        for r in radii:
            worst_chain = min(worst_chain, da.check_reduction_chain(g, r).slack)
            v1, _ = da.profile_gap_integral(g, r)
            worst_reflect = max(worst_reflect, abs(v1 - oracles.reflected_gap_integral(g, r)))
    return (
        make_verdict("profile-gap-integral", f"random-profiles:{n_profiles}", max(radii),
                     -worst_profile, 0.0, 1e-8, 512),
        make_verdict("reduction-chain", f"random-profiles:{n_chains}", max(radii), -worst_chain, 0.0, 1e-10, 512),
        make_verdict("reflection-invariance", f"random-profiles:{n_chains}", max(radii),
                     worst_reflect, 0.0, 1e-10, 512),
    )


EDGE_PROFILES = {
    "identity": np.linspace(0.0, TWO_PI, 513),
    "zero": np.zeros(513),
    "constant-2pi": np.full(513, TWO_PI),
    "midpoint-above-pi": np.minimum(np.linspace(0.0, TWO_PI, 513) + 4.0, TWO_PI),
    "clamped-diagonal": np.minimum(np.linspace(0.0, TWO_PI, 513), math.pi),
}


class TestProfileFamily:
    @pytest.mark.parametrize("radii", [(0.25, 0.5, 0.75, 0.9), (0.3, 0.6, 0.9)])
    @pytest.mark.parametrize("n_profiles,n_chains", [(130, 70), (64, 129), (1, 1)])
    def test_matches_single_profile_loop(self, radii, n_profiles, n_chains):
        got = pc.check_profile_family(radii, n_profiles=n_profiles, n_chains=n_chains)
        want = _profile_family_loop(radii, n_profiles, n_chains)
        assert [oracles.record_json(rec) for rec in got] == [oracles.record_json(rec) for rec in want]

    def test_proof_suite_defaults_match_single_profile_loop(self):
        radii = (0.25, 0.5, 0.75, 0.9)
        got = pc.check_profile_family(radii)
        want = _profile_family_loop(radii, 500, 200)
        assert [oracles.record_json(rec) for rec in got] == [oracles.record_json(rec) for rec in want]
        assert all(rec.passed for rec in got)

    def test_even_kernel_fails_reflection_invariance(self, monkeypatch):
        # with |K|, even, the reflection flips the sign of the gap integral
        monkeypatch.setattr(pc, "area_kernel", lambda r, a: np.abs(da.area_kernel(r, a)))
        records = {rec.check_name: rec for rec in pc.check_profile_family((0.3, 0.6, 0.9), 8, 8)}
        assert not records["reflection-invariance"].passed
        assert records["reflection-invariance"].lhs > 1e-3

    def test_block_size_does_not_change_records(self, monkeypatch):
        radii = (0.3, 0.9)
        want = [oracles.record_json(rec) for rec in pc.check_profile_family(radii, 40, 25)]
        for block in (1, 7, 40, 1000):
            monkeypatch.setattr(pc, "_PROFILE_BLOCK", block)
            assert [oracles.record_json(rec) for rec in pc.check_profile_family(radii, 40, 25)] == want

    def test_non_monotone_row_raises(self, monkeypatch):
        draw = pc._random_block

        def dented(seeds, n_cells, roughness):
            rows = draw(seeds, n_cells, roughness)
            seeds = list(seeds)
            if 70 in seeds:  # second block, past the chains
                vals = rows[seeds.index(70)]
                vals[300] = vals[299] - 1e-9
            return rows

        monkeypatch.setattr(pc, "_random_block", dented)
        with pytest.raises(ValueError, match="nondecreasing"):
            pc.check_profile_family((0.5,), n_profiles=80, n_chains=10)
        pc.check_profile_family((0.5,), n_profiles=70, n_chains=10)

    def test_rejects_empty_counts_and_bad_radii(self):
        for kwargs in ({"n_profiles": 0}, {"n_chains": 0}):
            with pytest.raises(ValueError):
                pc.check_profile_family((0.5,), **kwargs)
        for radii in ((), (0.0,), (1.0,)):
            with pytest.raises(ValueError):
                pc.check_profile_family(radii, 2, 2)


class TestBatchedProfileHelpers:
    def test_block_draw_is_each_seeds_own_lift(self):
        # each seed's stream fills its own row, and the block is lifted at once
        for seeds in (range(64), range(448, 500), [3]):
            block = pc._random_block(seeds, 512, 1.0)
            assert block.shape == (len(seeds), 513)
            for row, seed in zip(block, seeds):
                assert row.tobytes() == oracles.random_lift_one_row(seed, 512, 1.0).tobytes()

    def test_rows_agree_with_single_profile_calls(self):
        block = pc._checked_rows(list(EDGE_PROFILES.values()) + [pc._random_values(s, 512, 1.0) for s in range(4)])
        v = pc._canonical_rows(block)
        a = pc._grid(513)
        cutoffs = pc._cutoff_indices(v, a)
        gap = da.tangent_gap(a, v)
        frozen = da.tangent_gap(a, v[:, 256, None])
        for r in (0.3, 0.6, 0.9):
            kern = da.area_kernel(r, a)
            q1 = np.trapezoid(kern * gap, a, axis=-1)
            terms = pc._trapezoid_terms(kern * gap, a)
            assert np.array_equal(terms.sum(axis=-1), q1)  # the family's q1, bit for bit
            windows = pc._window_integrals(cutoffs, terms, pc._trapezoid_terms(kern * frozen, a),
                                           pc._trapezoid_terms(kern * da.tangent_gap(a, math.pi), a))
            for row, vals in enumerate(block):
                g = da.MonotoneProfile(vals)
                value, cutoff = da.profile_gap_integral(g, r)
                assert q1[row] == value == _reference_gap_integral(g, r)
                assert a[cutoffs[row]] == cutoff
                assert (value, *windows[row]) == _reference_chain(g, r)
                worst = pc._chain_worst(value, *windows[row])
                assert da.check_reduction_chain(g, r).slack == 0.0 - (-worst)

    def test_random_profiles_agree_with_one_dimensional_reference(self):
        for seed in range(40):
            g = da.random_profile(seed)
            for h in (g, da.reflect_profile(g)):
                for r in (0.25, 0.75, 0.9):
                    assert da.profile_gap_integral(h, r)[0] == _reference_gap_integral(h, r)
                    assert da.check_reduction_chain(h, r).lhs == -pc._chain_worst(*_reference_chain(h, r))

    def test_edge_cutoffs(self):
        a = pc._grid(513)
        raw = np.array([EDGE_PROFILES[k] for k in ("identity", "zero", "constant-2pi")])
        # identity: only alpha = pi fits; zero: every angle fits; the constant
        # 2*pi row (before reflection) has no fitting angle, so n/2
        assert pc._cutoff_indices(raw, a).tolist() == [256, 512, 256]
        # the constant 2*pi profile reflects to the zero profile
        v = pc._canonical_rows(raw)
        assert np.array_equal(v[2], np.zeros(513))
        assert pc._cutoff_indices(v, a).tolist() == [256, 512, 512]

    def test_non_monotone_row_raises(self):
        rows = np.array([EDGE_PROFILES["identity"], EDGE_PROFILES["identity"]])
        rows[1, 10] = rows[1, 9] - 1e-9
        with pytest.raises(ValueError, match="nondecreasing"):
            pc._checked_rows(rows)
        rows[1, 10] = rows[1, 9] - 1e-13  # within the 1e-12 allowance
        assert pc._checked_rows(rows).shape == rows.shape

    def test_clamp_is_applied_per_row(self):
        rows = np.array([np.linspace(-1.0, 7.0, 513), np.linspace(0.0, TWO_PI, 513)])
        out = pc._checked_rows(rows)
        assert out.min() == 0.0 and out.max() == TWO_PI
        assert np.array_equal(out[0], da.MonotoneProfile(rows[0]).values)


class TestSharedGrid:
    def test_alphas_shared_and_read_only(self):
        g, h = da.random_profile(1), da.MonotoneProfile(np.zeros(513))
        assert g.alphas is h.alphas
        assert not g.alphas.flags.writeable
        assert np.array_equal(g.alphas, np.linspace(0.0, TWO_PI, 513))
        assert da.MonotoneProfile(np.zeros(9)).alphas.size == 9

    def test_mirror_pair_residual_unchanged_by_kernel_reuse(self):
        for r, n in ((0.3, 256), (0.7, 128), (0.9, 64)):
            assert da.mirror_pair_residual(r, n) == oracles.mirror_pair_residual_meshgrid(r, n)


GRID_RADII = ((0.3, 0.6, 0.9), (0.25, 0.5, 0.75, 0.9), (0.1, 0.97), (0.9, 0.25))  # unsorted: labelled 0.9


class TestGridChecksFromRowsAndColumns:
    """The grid checks built from a column and a row of angles give the
    meshgrid forms' records exactly: each transcendental of a broadcast
    vector must equal the same function on the full grid, element by element."""

    @pytest.mark.parametrize("radii", GRID_RADII)
    @pytest.mark.parametrize("grid_n", [64, 128, 256, 512])
    def test_tangent_gap_signs_equal_meshgrid_form(self, grid_n, radii):
        got, _ = pc.check_tangent_gap_signs(grid_n, radii)
        want = oracles.check_tangent_gap_signs_meshgrid(grid_n, radii)
        assert got == want
        assert oracles.record_json(got) == oracles.record_json(want)

    @pytest.mark.parametrize("radii", GRID_RADII)
    @pytest.mark.parametrize("grid_n", [64, 65, 256])
    def test_strict_margin_equals_interior_oracle(self, grid_n, radii):
        # the margin read from the kernel column of the signs grid, odd grid_n
        # (no grid angle at pi) and unsorted radii included
        _, strict = pc.check_tangent_gap_signs(grid_n, radii)
        want = oracles.strict_interior_positivity(grid_n, radii)
        assert strict.lhs == want and repr(strict.lhs) == repr(want)
        assert strict == make_verdict("strict-interior-positivity", f"grid:{grid_n}", max(radii), want, 1e-12, 0.0,
                                      grid_n, direction="ge")

    @pytest.mark.parametrize("radii", GRID_RADII)
    @pytest.mark.parametrize("grid_n", [64, 128, 256, 512])
    def test_mirror_pair_residual_equals_meshgrid_form(self, grid_n, radii):
        for r in radii:
            got = pc.mirror_pair_residual(r, grid_n)
            want = oracles.mirror_pair_residual_meshgrid(r, grid_n)
            assert got == want
            assert repr(got) == repr(want)

    @staticmethod
    def _peak_mib(fn, *args):
        fn(*args)  # one-time allocations (caches, first-call setup) are not counted
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_tangent_gap_signs_working_set(self):
        # the meshgrid form peaks at about 4.5 MiB, the row/column form at about 2.5
        assert self._peak_mib(pc.check_tangent_gap_signs, 256, (0.25, 0.5, 0.75, 0.9)) < 3.5

    def test_mirror_pair_residual_working_set(self):
        # the meshgrid form peaks at about 4.5 MiB, the row/column form at about 1.6
        assert self._peak_mib(pc.mirror_pair_residual, 0.7, 256) < 2.5


class TestCompoundVerdicts:
    def test_non_finite_gap_sum_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(pc.pair_sums, "gap_pair_sums", lambda *args: (math.nan, math.nan))
        bmap = da.make_random_homeomorphism(0, roughness=0.5)
        for rec in pc.check_gap_double_integral(bmap, 0.5, 64):
            assert rec.inconclusive and not rec.passed

    def test_bookkeeping_failure_fails_with_nonnegative_slack(self, monkeypatch):
        # a gap sum that is positive but does not account for the area deficit
        monkeypatch.setattr(pc.pair_sums, "gap_pair_sums", lambda *args: (0.0, 1e3))
        bmap = da.make_random_homeomorphism(0, roughness=0.5)
        cos, gap = pc.check_gap_double_integral(bmap, 0.5, 64)
        assert cos.passed
        assert gap.slack > 0 and not gap.passed and not gap.inconclusive
