"""Slow oracles that only the tests call.

Each one checks a statement the library relies on by a slow, direct route:
trapezoid quadrature of the kernel integrals, checked against their closed
forms, plain lift arithmetic for the increment identities, full meshgrids
for the proof suite's grid checks, the strict margin from the interior
angles alone, the series fold through a copied array of its terms, the
random lift drawn one row at a time, the gap integral of a reflected
profile, the dense area sum of the ``kernel-direct`` route on bare arrays,
and the circular convolution of that sum taken in one call over all lags.
None of them feeds a report row, so they live here and not in ``diskarea``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from diskarea import pair_sums
from diskarea.area import area_kernel
from diskarea.circle_maps import TWO_PI, BoundaryMap, boundary_values, eval_lift
from diskarea.poisson import _check_radius, poisson_kernel, poisson_kernel_deriv
from diskarea.proof_checks import MonotoneProfile, _grid, _triangle_masks, reflect_profile, tangent_gap
from diskarea.verify import VerdictRecord, make_verdict


def record_json(rec) -> str:
    """A record (verdict or area estimate) as one JSON object, fields in order."""
    return json.dumps(dataclasses.asdict(rec))


def eval_harmonic_direct(bmap: BoundaryMap, r: float, theta: float, n_samples: int = 2048) -> complex:
    """Slow-path harmonic extension by trapezoid quadrature of the kernel integral.

    Independent of the Fourier representation; used as the oracle for
    :func:`diskarea.eval_harmonic`.
    """
    r = _check_radius(r)
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    vals = boundary_values(bmap, t) * poisson_kernel(r, float(theta) - t)
    return complex(np.mean(vals))


def semigroup_residual(r: float, sigma: float, t: float, n_samples: int = 2048) -> float:
    """|quadrature of (1/2pi) int P_r(s) P_sigma(t - s) ds  -  P_{r*sigma}(t)|.

    The composition law makes this a quadrature-accuracy oracle: the exact
    value is zero for every admissible (r, sigma, t).
    """
    r = _check_radius(r)
    sigma = _check_radius(sigma)
    s = np.arange(n_samples) * (TWO_PI / n_samples)
    quad = float(np.mean(poisson_kernel(r, s) * poisson_kernel(sigma, t - s)))
    return abs(quad - poisson_kernel(r * sigma, float(t)))


def area_kernel_defining_integral(r: float, alpha: float, n_samples: int = 2048) -> float:
    """Quadrature of (1/2pi) int P_r(theta) P_r'(theta - alpha) dtheta.

    The defining convolution of the pair kernel, evaluated without the closed
    form; used as the oracle pinning the closed form's radius convention.
    """
    r = _check_radius(r)
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    return float(np.mean(poisson_kernel(r, t) * poisson_kernel_deriv(r, t - alpha)))


def increment_profile(bmap: BoundaryMap, t: float, n_cells: int = 512) -> MonotoneProfile:
    """Profile alpha -> lift(alpha + t) - lift(t) of a boundary correspondence.

    Degree one makes the range exactly [0, 2*pi]; the wrap sample is pinned to
    2*pi, which is its exact value by lift arithmetic.
    """
    if n_cells % 2:
        raise ValueError("n_cells must be even")
    alphas = _grid(n_cells + 1)
    base = eval_lift(bmap, float(t))
    vals = eval_lift(bmap, float(t) + alphas) - base
    vals[0] = 0.0
    vals[-1] = TWO_PI
    return MonotoneProfile(vals)


def increment_mean_residual(bmap: BoundaryMap, alpha: float, n_samples: int = 1024) -> float:
    """|mean over the grid of {zeta(alpha + t) - zeta(t)}| with zeta(t) = lift(t) - t."""
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    zeta = lambda x: eval_lift(bmap, x) - x
    return abs(float(np.mean(zeta(alpha + t) - zeta(t))))


def lift_identity_deviation(bmap: BoundaryMap, n_samples: int = 4096) -> float:
    """sup over the grid of |lift(t) - t - const|: the testable isometry proxy."""
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    dev = eval_lift(bmap, t) - t
    dev -= float(np.mean(dev))
    return float(np.max(np.abs(dev)))


def check_tangent_gap_signs_meshgrid(grid_n: int = 256, radii=(0.3, 0.6, 0.9), map_id: str = "") -> VerdictRecord:
    """Sign structure of the tangent gap and its kernel weighting on the square,
    from full meshgrids; the oracle for :func:`diskarea.check_tangent_gap_signs`.

    Checks, on a (grid_n+1)^2 grid over [0, 2*pi]^2:
      (a) gap >= -1e-14 on [0, pi]^2;
      (b) gap > 1e-14 off a one-cell diagonal band within [0, pi]^2;
      (c) d(gap)/d(beta) = cos(a) - cos(b) >= -1e-14 for 0<=a<=pi, a<=b<=2pi-a;
      (d) kernel(a) * gap >= -1e-12 outside the two open triangles, per radius,
          while at least one strictly negative sample exists inside them.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    A, B = np.meshgrid(a, a, indexing="ij")
    H = tangent_gap(A, B)
    half = a <= math.pi + 1e-15
    sq = np.ix_(half, half)
    worst = float(np.min(H[sq]))  # (a)
    ok = worst >= -1e-14

    band = np.abs(A - B) > TWO_PI / grid_n + 1e-12
    off_diag = H[sq][band[sq]]
    min_off = float(np.min(off_diag))  # (b)
    ok = ok and min_off > 1e-14

    region_c = (A <= math.pi) & (B >= A) & (B <= TWO_PI - A)
    slope = np.cos(A) - np.cos(B)
    min_slope = float(np.min(slope[region_c]))  # (c)
    ok = ok and min_slope >= -1e-14

    t1, t2 = _triangle_masks(A, B)
    outside = ~(t1 | t2)
    worst_outside = math.inf
    best_inside = math.inf
    for r in radii:
        KH = area_kernel(r, A) * H
        worst_outside = min(worst_outside, float(np.min(KH[outside])))
        best_inside = min(best_inside, float(np.min(KH[t1 | t2])))
    ok = ok and worst_outside >= -1e-12 and best_inside < 0.0  # (d)

    lhs = min(worst, min_off, min_slope, worst_outside)
    return make_verdict("tangent-gap-signs", map_id, max(radii), lhs, 0.0, 1e-12, grid_n,
                        direction="ge", holds=ok)


def strict_interior_positivity(grid_n: int = 256, radii=(0.3, 0.6, 0.9)) -> float:
    """min over radii and interior grid angles of K(a) * gap(a, pi), excluding
    the zeros at 0, pi, 2*pi, from the interior angles alone; the oracle for
    the ``strict-interior-positivity`` record of
    :func:`diskarea.check_tangent_gap_signs`."""
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    keep = (a > 1e-12) & (np.abs(a - math.pi) > 1e-12) & (a < TWO_PI - 1e-12)
    out = math.inf
    for r in radii:
        vals = area_kernel(r, a[keep]) * tangent_gap(a[keep], math.pi)
        out = min(out, float(np.min(vals)))
    return out


def mirror_pair_residual_meshgrid(r: float, grid_n: int = 256):
    """Pointwise residual and right-side minimum of the mirrored-pair identity.

    K(a) gap(a, b) + K(2pi - a) gap(2pi - a, b) collapses to
    2 K(a) gap(a, pi) for every b; returns (max |lhs - rhs|, min rhs).
    From full meshgrids; the oracle for :func:`diskarea.mirror_pair_residual`.
    """
    r = _check_radius(r, allow_zero=False)
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    A, B = np.meshgrid(a, a, indexing="ij")
    kern = area_kernel(r, A)
    lhs = kern * tangent_gap(A, B) + area_kernel(r, TWO_PI - A) * tangent_gap(TWO_PI - A, B)
    rhs = 2.0 * kern * tangent_gap(A, math.pi)
    return float(np.max(np.abs(lhs - rhs))), float(np.min(rhs))


def fold_reshape_sum(powers, shifted, n0, n_bins):
    """The bins of :func:`diskarea.poisson._fold` through a broadcast array of
    the terms, copied into a zero-padded buffer that is summed over its rows
    of bins; the in-place fold must give the same bits.  Two or more bins."""
    weights = powers[:, None, :] * shifted[..., None, :, :]
    n_terms = weights.shape[-1]
    lead = n0 % n_bins
    rows = -(-(lead + n_terms) // n_bins)
    padded = np.zeros(weights.shape[:-1] + (rows * n_bins,), dtype=complex)
    padded[..., lead : lead + n_terms] = weights
    return padded.reshape(weights.shape[:-1] + (rows, n_bins)).sum(axis=-2)


def random_lift_one_row(seed: int, n_cells: int, roughness: float, half_turn_symmetric: bool = False):
    """The random lift of one seed, drawn and summed as a single row:
    exp(roughness * N(0,1)) increments (the half-turn symmetric lift repeats
    the first half's), cumulated from 0 and scaled to rise by 2*pi.  The
    block-wise lift of the library must give the same bits."""
    rng = np.random.default_rng(seed)
    if half_turn_symmetric:
        half = np.exp(roughness * rng.standard_normal(n_cells // 2))
        inc = np.concatenate([half, half])
    else:
        inc = np.exp(roughness * rng.standard_normal(n_cells))
    lift = np.concatenate([[0.0], np.cumsum(inc)])
    lift *= TWO_PI / lift[-1]
    lift[-1] = TWO_PI
    return lift


def circular_convolve_whole(kernel_row, v):
    """The circular convolution of :func:`diskarea.pair_sums._circular_convolve`
    as one 'valid' ``np.convolve`` over all M lags: v[1:] followed by v reads v
    circularly from index 1.  The lag-blocked library form must give the same
    bits while M is at most one block."""
    return np.convolve(np.concatenate((v[1:], v)), kernel_row, "valid")


def dense_area_sum(kernel_row, xi) -> float:
    """sum over j,k of kernel_row[(j - k) mod M] * sin(xi[j] - xi[k]) by the
    ``kernel-direct`` route: the odd dot of the direct lag sums of ``xi``."""
    return pair_sums.odd_lag_dot(np.asarray(kernel_row, dtype=float), pair_sums.direct_sine_lag_sums(xi))


def reflected_gap_integral(g: MonotoneProfile, r: float) -> float:
    """Trapezoid integral of K(a) gap(a, R(a)) for R the reflection of g's
    canonical form c, taken as it is, not canonicalized again.

    It equals the gap integral of c, as the library takes it, because
    K(2 pi - a) = -K(a) and the gap changes sign under the reflection; with an
    even kernel the two would have opposite signs.
    """
    if g.values[g.n_cells // 2] > math.pi:
        g = reflect_profile(g)
    a = g.alphas
    mirrored = tangent_gap(a, reflect_profile(g).values[None])
    return float(np.trapezoid(area_kernel(r, a) * mirrored, a, axis=-1)[0])
