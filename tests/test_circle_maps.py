import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diskarea as da

import oracles

TWO_PI = 2.0 * math.pi


def knot_digest(bmap):
    """First 12 hex digits of the SHA-1 of the kind, then omega and the knots
    as raw little-endian float64 bytes; pins a map's exact knot bits."""
    h = hashlib.sha1(bmap.kind.encode() + b"\0")
    for part in ((bmap.omega.real, bmap.omega.imag), bmap.knots_t, bmap.knots_lift):
        h.update(np.asarray(part, dtype="<f8").tobytes())
    return h.hexdigest()[:12]


class TestEvalLift:
    def test_identity_point(self):
        m = da.make_identity()
        assert da.eval_lift(m, 1.3) == 1.3

    def test_identity_lift_periodicity_exact_value(self):
        m = da.make_identity()
        t = 1.3 + TWO_PI
        assert da.eval_lift(m, t) == t

    def test_rotation_prefactor(self):
        m = da.make_rotation(math.pi / 2)
        assert da.eval_lift(m, 0.0) == 0.0
        assert abs(m.omega - 1j) < 1e-15
        # boundary value at t=0 is e^{i pi/2} = i
        assert abs(da.boundary_values(m, 0.0) - 1j) < 1e-15

    def test_period_bookkeeping_is_lift_arithmetic(self, random_map):
        # whole periods are added back verbatim; the only deviation left is
        # the rounding of the caller's t + 2*pi itself, bounded by a few ulp
        t = np.linspace(0.0, TWO_PI, 64, endpoint=False) + 0.11
        for m in (da.make_identity(), random_map):
            up = da.eval_lift(m, t + TWO_PI) - da.eval_lift(m, t) - TWO_PI
            down = da.eval_lift(m, t - TWO_PI) - da.eval_lift(m, t) + TWO_PI
            assert np.max(np.abs(up)) < 1e-14
            assert np.max(np.abs(down)) < 1e-14

    def test_monotone_on_grid(self, random_map):
        t = np.linspace(0.0, TWO_PI, 1024)
        vals = da.eval_lift(random_map, t)
        assert np.all(np.diff(vals) >= -1e-12)


class TestConstructors:
    def test_rejects_non_monotone_knots(self):
        with pytest.raises(ValueError):
            da.BoundaryMap(
                knots_t=np.array([0.0, 2.0, 1.0, TWO_PI]),
                knots_lift=np.array([0.0, 1.0, 2.0, TWO_PI]),
            )

    def test_rejects_decreasing_lift(self):
        with pytest.raises(ValueError):
            da.BoundaryMap(
                knots_t=np.array([0.0, 1.0, 2.0, TWO_PI]),
                knots_lift=np.array([0.0, 2.0, 1.0, TWO_PI]),
            )

    def test_rejects_wrong_period_rise(self):
        with pytest.raises(ValueError):
            da.BoundaryMap(
                knots_t=np.array([0.0, TWO_PI]),
                knots_lift=np.array([0.0, TWO_PI + 1e-6]),
            )

    def test_rejects_non_unimodular_prefactor(self):
        with pytest.raises(ValueError):
            da.BoundaryMap(
                knots_t=np.array([0.0, TWO_PI]),
                knots_lift=np.array([0.0, TWO_PI]),
                omega=1.1,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_knots_and_prefactor(self, bad):
        t = np.array([0.0, 1.0, 2.0, TWO_PI])
        lift = np.array([0.0, 1.0, 2.0, TWO_PI])
        for kind in da.circle_maps.KINDS:
            for i in range(4):
                with pytest.raises(ValueError):
                    da.BoundaryMap(np.where(np.arange(4) == i, bad, t), lift, kind=kind)
                with pytest.raises(ValueError):
                    da.BoundaryMap(t, np.where(np.arange(4) == i, bad, lift), kind=kind)
            for omega in (complex(bad, 0.0), complex(0.0, bad), complex(bad, bad)):
                with pytest.raises(ValueError):
                    da.BoundaryMap(t, lift, omega=omega, kind=kind)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_generators_reject_non_finite_parameters(self, bad):
        for make in (lambda: da.make_rotation(bad), lambda: da.make_mobius_boundary(bad),
                     lambda: da.make_mobius_boundary(complex(0.1, bad)),
                     lambda: da.make_step_map([1.0, bad], [1.0, 2.0]),
                     lambda: da.make_step_map([1.0, 2.0], [1.0, bad]),
                     lambda: da.mollify_map(da.make_identity(), width=bad)):
            with pytest.raises(ValueError):
                make()

    def test_rejection_happens_at_construction_not_eval(self):
        # eval never validates; bad data cannot reach it through the API
        m = da.make_identity()
        assert da.eval_lift(m, -100.0) == -100.0

    def test_equality_and_hash_are_by_identity(self):
        # generated methods over the ndarray fields would raise on == and on hash
        a, b = da.make_random_homeomorphism(0), da.make_random_homeomorphism(0)
        assert np.array_equal(a.knots_t, b.knots_t) and np.array_equal(a.knots_lift, b.knots_lift)
        assert a != b and not a == b
        assert a == a and not a != a
        assert hash(a) == hash(a)
        assert {a: 1, b: 2} == {a: 1, b: 2} and len({a, b, a}) == 2


class TestMobius:
    def test_zero_parameter_is_identity(self):
        m = da.make_mobius_boundary(0.0)
        t = np.linspace(0, TWO_PI, 17)
        assert np.allclose(da.eval_lift(m, t), t, atol=1e-12)

    def test_real_axis_fixed_points(self, mobius_half):
        assert abs(da.eval_lift(mobius_half, 0.0)) < 1e-12
        assert abs(da.eval_lift(mobius_half, math.pi) - math.pi) < 1e-12

    def test_rejects_parameter_outside_disk(self):
        with pytest.raises(ValueError):
            da.make_mobius_boundary(1.0)
        with pytest.raises(ValueError):
            da.make_mobius_boundary(0.8 + 0.7j)

    def test_inverse_composition_is_identity(self):
        # phi_{-a} inverts phi_a; composed lifts return to the diagonal up to
        # the piecewise-linear interpolation error O(1/n_knots^2)
        a = 0.5
        fwd = da.make_mobius_boundary(a, n_knots=4096)
        inv = da.make_mobius_boundary(-a, n_knots=4096)
        t = np.linspace(0.0, TWO_PI, 257)
        roundtrip = da.eval_lift(inv, da.eval_lift(fwd, t))
        assert np.max(np.abs(roundtrip - t)) < 1e-5


class TestRandomHomeomorphism:
    def test_deterministic_in_seed(self):
        m1 = da.make_random_homeomorphism(11)
        m2 = da.make_random_homeomorphism(11)
        assert np.array_equal(m1.knots_t, m2.knots_t)
        assert np.array_equal(m1.knots_lift, m2.knots_lift)
        assert m1.omega == m2.omega

    def test_invariants_over_thousand_seeds(self):
        for seed in range(1000):
            m = da.make_random_homeomorphism(seed, n_knots=16, roughness=0.7)
            assert np.all(np.diff(m.knots_lift) > 0)
            assert abs(m.knots_lift[-1] - m.knots_lift[0] - TWO_PI) < 1e-12
            assert abs(abs(m.omega) - 1.0) < 1e-12

    def test_small_roughness_approaches_identity(self):
        m = da.make_random_homeomorphism(3, n_knots=64, roughness=0.01)
        t = np.linspace(0, TWO_PI, 129)
        assert np.max(np.abs(da.eval_lift(m, t) - t)) < 0.05

    def test_half_turn_symmetry_centers_the_extension(self):
        m = da.make_random_homeomorphism(5, half_turn_symmetric=True)
        coeffs = da.fourier_from_boundary(m, order=128)
        assert abs(coeffs.coeff(0)) < 1e-12

    def test_lift_is_the_proof_profile_draw(self):
        # one helper builds both lifts from the same draws, in the same order
        from diskarea import proof_checks

        for seed in range(4):
            lift = da.make_random_homeomorphism(seed, 256, 0.5).knots_lift
            assert proof_checks._random_values(seed, 256, 0.5).tobytes() == lift.tobytes()

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_lift_is_the_one_row_draw(self, symmetric):
        # the half-turn symmetric lift exponentiates its repeated draws, not a repeated half
        for seed, n_knots, roughness in ((0, 256, 0.5), (9, 6, 0.9), (31, 1000, 0.01)):
            lift = da.make_random_homeomorphism(seed, n_knots, roughness, half_turn_symmetric=symmetric).knots_lift
            want = oracles.random_lift_one_row(seed, n_knots, roughness, symmetric)
            assert lift.tobytes() == want.tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            da.make_random_homeomorphism(0, n_knots=2)
        with pytest.raises(ValueError):
            da.make_random_homeomorphism(0, roughness=1.5)


class TestStepMaps:
    def test_two_jump_lift_values(self, step_two_jump):
        # boundary +1 on the right half circle (lift 0 resp. 2*pi), -1 on the left
        assert da.eval_lift(step_two_jump, 0.1) == 0.0
        assert da.eval_lift(step_two_jump, math.pi) == math.pi
        assert da.eval_lift(step_two_jump, 3 * math.pi / 2) == TWO_PI
        assert abs(da.boundary_values(step_two_jump, 0.1) - 1.0) < 1e-15
        assert abs(da.boundary_values(step_two_jump, math.pi) + 1.0) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            da.make_step_map([1.0, 0.5], [0.0, 1.0])  # jumps not increasing
        with pytest.raises(ValueError):
            da.make_step_map([0.5, 1.0], [1.0, 0.5])  # values decreasing
        with pytest.raises(ValueError):
            da.make_step_map([0.5], [0.0, 1.0])  # length mismatch

    def test_four_jump_is_centered(self, step_four_jump):
        assert abs(da.eval_harmonic_step(step_four_jump, 0.0, 0.0)) < 1e-14

    def test_two_jump_extension_is_real(self, step_two_jump):
        thetas = np.linspace(0, TWO_PI, 37)
        vals = da.eval_harmonic_step(step_two_jump, 0.6, thetas)
        assert np.max(np.abs(vals.imag)) < 1e-14


class TestMollify:
    def test_preserves_kind_and_monotonicity(self, random_map):
        m = da.mollify_map(random_map, width=TWO_PI / 32)
        assert m.kind == da.HOMEOMORPHISM
        assert np.all(np.diff(m.knots_lift) > 0)

    def test_stays_close_to_original(self, random_map):
        # compare as circle maps: normalization may pick a different lift branch
        m = da.mollify_map(random_map, width=TWO_PI / 128)
        t = np.linspace(0, TWO_PI, 257)
        dev = da.eval_lift(m, t) - da.eval_lift(random_map, t)
        dev = np.mod(dev + math.pi, TWO_PI) - math.pi
        assert np.max(np.abs(dev)) < 0.2

    def test_restores_spectral_decay(self, random_map):
        m = da.mollify_map(random_map, width=TWO_PI / 64)
        coeffs = da.fourier_from_boundary(m, order=512)
        tail = np.abs(coeffs.coeffs[: 512 - 400])  # indices n < -400
        assert np.max(tail) < 1e-10


class TestConjugate:
    def test_involution(self, random_map):
        twice = da.conjugate_map(da.conjugate_map(random_map))
        t = np.linspace(0, TWO_PI, 129)
        assert np.max(np.abs(da.eval_lift(twice, t) - da.eval_lift(random_map, t))) < 1e-12
        assert abs(twice.omega - random_map.omega) < 1e-15

    def test_preserves_area(self, mollified_map):
        conj = da.conjugate_map(mollified_map)
        a1 = da.estimate_area(mollified_map, 0.6)
        a2 = da.estimate_area(conj, 0.6)
        assert abs(a1.value - a2.value) < 1e-9

    @pytest.mark.parametrize("jumps", [[0.0, 1e-300], [0.0, 5e-324], [5e-324, 1e-300, 1e-200, 1.0]])
    def test_knots_that_reflect_onto_each_other_stay_apart(self, jumps):
        # 2 pi - t rounds to 2 pi for every t here but 1.0: each such knot
        # lands one ulp below the knot after it
        conj = da.conjugate_map(da.make_step_map(jumps, range(len(jumps))))
        tail = conj.knots_t[-len(jumps):]
        assert tail[-1] == TWO_PI
        for a, b in zip(tail[:-1], tail[1:]):
            assert a == np.nextafter(b, 0.0)


@st.composite
def boundary_maps(draw):
    """A seeded random homeomorphism or a step map, conjugated or not."""
    if draw(st.booleans()):
        half_turn_symmetric = draw(st.booleans())
        n_knots = draw(st.integers(2, 256)) * 2 if half_turn_symmetric else draw(st.integers(4, 512))
        bmap = da.make_random_homeomorphism(
            draw(st.integers(0, 2**32 - 1)),
            n_knots=n_knots,
            roughness=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            half_turn_symmetric=half_turn_symmetric,
        )
    else:
        jumps = sorted(draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=12, unique=True)))
        fractions = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(jumps), max_size=len(jumps))))
        start = draw(st.floats(-TWO_PI, TWO_PI))
        span = draw(st.floats(0.0, TWO_PI))
        bmap = da.make_step_map(jumps, [start + span * f for f in fractions])
    return da.conjugate_map(bmap) if draw(st.booleans()) else bmap


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(boundary_maps())
    @example(da.make_step_map([0.0], [-5e-324]))
    @example(da.conjugate_map(da.make_step_map([0.0], [-5e-324])))
    @example(da.conjugate_map(da.make_step_map([0.0, 1e-300], [0.0, 1.0])))
    def test_round_trip_bit_exact_property(self, bmap):
        back = da.from_json(da.to_json(bmap))
        assert back.kind == bmap.kind
        assert knot_digest(back) == knot_digest(bmap)

    def test_round_trip_bit_exact(self, random_map, step_two_jump, mobius_half):
        for m in (random_map, step_two_jump, mobius_half, da.make_rotation(1.0)):
            text = da.to_json(m)
            back = da.from_json(text)
            assert np.array_equal(back.knots_t, m.knots_t)
            assert np.array_equal(back.knots_lift, m.knots_lift)
            assert back.omega == m.omega
            assert back.kind == m.kind

    @pytest.mark.parametrize("lift0", [-1e-17, -5e-324, -1.5e-323])
    @pytest.mark.parametrize("kind", [da.HOMEOMORPHISM, da.NONDECREASING_STEP])
    def test_lift_just_below_zero_normalizes_into_the_period(self, kind, lift0):
        # one shift by 2 pi would round -1e-17 onto 2 pi, and from_json would
        # then shift the map a second time; a subnormal has a floor of 0, so
        # a whole-period shift alone never moves it
        doc = {"kind": kind, "omega_re": 1.0, "omega_im": 0.0, "knots": [[0.0, lift0], [TWO_PI, lift0 + TWO_PI]]}
        maps = [
            da.BoundaryMap([0.0, TWO_PI], [lift0, lift0 + TWO_PI], kind=kind),
            da.from_json(json.dumps(doc)),
        ]
        if kind == da.NONDECREASING_STEP:
            maps.append(da.make_step_map([0.0], [lift0]))
        for bmap in maps:
            assert 0.0 <= bmap.knots_lift[0] < TWO_PI
            assert knot_digest(da.from_json(da.to_json(bmap))) == knot_digest(bmap)

    def test_schema_keys(self, random_map):
        doc = json.loads(da.to_json(random_map))
        assert set(doc) == {"kind", "omega_re", "omega_im", "knots"}
        assert all(len(pair) == 2 for pair in doc["knots"])

    def test_hashes_of_derived_maps_pinned(self):
        # the constructor alone normalises a lift; derived maps keep their bits
        moll = da.mollify_map(da.make_random_homeomorphism(0))
        assert knot_digest(moll) == "1fd04540af96"
        assert knot_digest(da.conjugate_map(moll)) == "57522fae04a5"
        assert knot_digest(da.make_mobius_boundary(0.5 + 0.3j)) == "e1b7d1ea2bca"

    def test_non_finite_json_raises_value_error(self, random_map):
        doc = json.loads(da.to_json(random_map))
        variants = []
        for key in ("omega_re", "omega_im"):
            variants.append({**doc, key: math.nan})
        for row in (0, 7, len(doc["knots"]) - 1):
            for col in (0, 1):
                knots = [list(pair) for pair in doc["knots"]]
                knots[row][col] = math.nan
                variants.append({**doc, "knots": knots})
        for variant in variants:
            text = json.dumps(variant)  # Python's json writes and reads NaN
            with pytest.raises(ValueError):
                da.from_json(text)

    @pytest.mark.parametrize("key", ["omega_re", "omega_im"])
    @pytest.mark.parametrize("value", ["1", None, [0], True, False, {"re": 1.0}])
    def test_non_number_omega_raises_value_error(self, random_map, key, value):
        # complex() would raise TypeError on these, or take a bool for 0 or 1
        doc = {**json.loads(da.to_json(random_map)), key: value}
        with pytest.raises(ValueError, match="must be numbers"):
            da.from_json(json.dumps(doc))

    def test_integer_omega_reads_as_a_number(self, random_map):
        doc = json.loads(da.to_json(random_map))
        assert da.from_json(json.dumps({**doc, "omega_re": 0, "omega_im": -1})).omega == -1j
        with pytest.raises(ValueError, match="unit modulus"):  # past the doubles: inf, not OverflowError
            da.from_json(json.dumps({**doc, "omega_re": 10**400}))

    @pytest.mark.parametrize("value", ["0", "6.283185307179586", True, False, {}, None])
    @pytest.mark.parametrize("col", [0, 1])
    def test_non_number_knot_raises_value_error(self, random_map, value, col):
        # np.asarray would read a numeric string or a bool as a number, and
        # float() raises TypeError on an object
        doc = json.loads(da.to_json(random_map))
        knots = [list(pair) for pair in doc["knots"]]
        knots[1][col] = value
        with pytest.raises(ValueError, match="number pairs"):
            da.from_json(json.dumps({**doc, "knots": knots}))

    def test_integer_knots_read_as_numbers(self):
        doc = {"kind": "homeomorphism", "omega_re": 1, "omega_im": 0, "knots": [[0, 0], [1, 2], [TWO_PI, TWO_PI]]}
        assert np.array_equal(da.from_json(json.dumps(doc)).knots_lift, [0.0, 2.0, TWO_PI])

    def test_malformed_json_raises_value_error(self):
        flat = json.dumps({"kind": "homeomorphism", "omega_re": 1.0, "omega_im": 0.0,
                           "knots": [0.0, TWO_PI]})
        for text in ("{}", flat):
            with pytest.raises(ValueError):
                da.from_json(text)
