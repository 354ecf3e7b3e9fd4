"""Pointwise and integral identities behind the area-contraction argument.

The contraction inequality reduces to sign and comparison statements about
the tangent-line gap of the sine curve weighted by the antisymmetric pair
kernel, applied to monotone increment profiles of the boundary lift.  Every
statement in that reduction is checked here numerically at finite resolution,
so the argument's skeleton doubles as a property-test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pair_sums
from .area import area_kernel
from .circle_maps import HOMEOMORPHISM, TWO_PI, BoundaryMap, eval_lift
from .poisson import _check_radius
from .verify import VerdictRecord, make_verdict


@dataclass(frozen=True)
class MonotoneProfile:
    """Nondecreasing function [0, 2*pi] -> [0, 2*pi] sampled on a uniform grid.

    ``values[i]`` lives at alpha_i = 2*pi*i/n with even n, so the midpoint pi
    and the reflection alpha -> 2*pi - alpha stay on the grid.  Values are
    clamped into [0, 2*pi] on construction.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float).copy()
        if v.ndim != 1 or v.size < 3 or v.size % 2 == 0:
            raise ValueError("values must be a 1-d array of odd length (even cell count)")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("profile must be nondecreasing")
        np.clip(v, 0.0, TWO_PI, out=v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.values.size)

    def __call__(self, alpha):
        return np.interp(alpha, self.alphas, self.values)

    def at_midpoint(self) -> float:
        return float(self.values[self.n_cells // 2])


def reflect_profile(g: MonotoneProfile) -> MonotoneProfile:
    """alpha -> 2*pi - g(2*pi - alpha); an involution that fixes the key integral."""
    return MonotoneProfile(TWO_PI - g.values[::-1])


def increment_profile(bmap: BoundaryMap, t: float, n_cells: int = 512) -> MonotoneProfile:
    """Profile alpha -> lift(alpha + t) - lift(t) of a boundary correspondence.

    Degree one makes the range exactly [0, 2*pi]; the wrap sample is pinned to
    2*pi, which is its exact value by lift arithmetic.
    """
    if n_cells % 2:
        raise ValueError("n_cells must be even")
    alphas = np.linspace(0.0, TWO_PI, n_cells + 1)
    base = eval_lift(bmap, float(t))
    vals = eval_lift(bmap, float(t) + alphas) - base
    vals[0] = 0.0
    vals[-1] = TWO_PI
    return MonotoneProfile(vals)


def random_profile(seed: int, n_cells: int = 512, roughness: float = 1.0) -> MonotoneProfile:
    """Seeded nondecreasing profile from normalized positive increments."""
    if n_cells % 2:
        raise ValueError("n_cells must be even")
    rng = np.random.default_rng(seed)
    inc = np.exp(roughness * rng.standard_normal(n_cells))
    vals = np.concatenate([[0.0], np.cumsum(inc)])
    vals *= TWO_PI / vals[-1]
    vals[-1] = TWO_PI
    return MonotoneProfile(vals)


def tangent_gap(alpha, beta):
    """sin(a) + (b - a) cos(a) - sin(b): tangent line to the sine graph at a,
    minus the graph at b.  Nonnegative on [0, pi]^2 by concavity."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    out = np.sin(alpha) + (beta - alpha) * np.cos(alpha) - np.sin(beta)
    return out if out.ndim else float(out)


def _triangle_masks(A, B):
    """Open regions where the kernel-weighted gap may go negative."""
    t1 = (A > 0.0) & (A < math.pi) & (B > TWO_PI - A)
    t2 = (A > math.pi) & (A < TWO_PI) & (B < TWO_PI - A)
    return t1, t2


def check_tangent_gap_signs(grid_n: int = 256, radii=(0.3, 0.6, 0.9), map_id: str = "") -> VerdictRecord:
    """Sign structure of the tangent gap and its kernel weighting on the square.

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
    return VerdictRecord(
        check_name="tangent-gap-signs",
        map_id=map_id,
        r=float(radii[-1]),
        lhs=lhs,
        rhs=0.0,
        slack=lhs,
        tolerance=1e-12,
        passed=bool(ok),
        resolution=grid_n,
    )


def mirror_pair_residual(r: float, grid_n: int = 256):
    """Pointwise residual and right-side minimum of the mirrored-pair identity.

    K(a) gap(a, b) + K(2pi - a) gap(2pi - a, b) collapses to
    2 K(a) gap(a, pi) for every b; returns (max |lhs - rhs|, min rhs).
    """
    r = _check_radius(r, allow_zero=False)
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    A, B = np.meshgrid(a, a, indexing="ij")
    lhs = area_kernel(r, A) * tangent_gap(A, B) + area_kernel(r, TWO_PI - A) * tangent_gap(TWO_PI - A, B)
    rhs = 2.0 * area_kernel(r, A) * tangent_gap(A, math.pi)
    return float(np.max(np.abs(lhs - rhs))), float(np.min(rhs))


def check_mirror_pair_identity(r: float, grid_n: int = 256, map_id: str = "") -> VerdictRecord:
    """Mirrored-pair identity holds to 1e-12 and its right side stays >= -1e-12."""
    resid, min_rhs = mirror_pair_residual(r, grid_n)
    lhs = max(resid, -min_rhs)
    return make_verdict("mirror-pair-identity", map_id, r, lhs, 0.0, 1e-12, grid_n)


def _lift_two_periods(bmap: BoundaryMap, m: int):
    t = np.arange(m) * (TWO_PI / m)
    lift1 = eval_lift(bmap, t)
    lift2 = np.concatenate([lift1, lift1 + TWO_PI])
    return t, lift2


def cos_identity_residual(bmap: BoundaryMap, r: float, n_samples: int = 512) -> float:
    """|(1/2pi)^2 double sum of K(a) (increment - a) cos(a)| on matched grids.

    Vanishes identically because the periodic part of the lift has equal
    averages along every shifted copy of the grid; the discrete sum inherits
    this through exact reindexing, so the residual sits at rounding level.
    """
    r = _check_radius(r, allow_zero=False)
    if bmap.kind != HOMEOMORPHISM:
        raise ValueError("increment identities need a homeomorphism")
    m = int(n_samples)
    alphas, lift2 = _lift_two_periods(bmap, m)
    kern = area_kernel(r, alphas)
    cos_sum, _ = pair_sums.gap_pair_sums(kern, alphas, lift2)
    return abs(cos_sum) / (m * m)


def increment_mean_residual(bmap: BoundaryMap, alpha: float, n_samples: int = 1024) -> float:
    """|mean over the grid of {zeta(alpha + t) - zeta(t)}| with zeta(t) = lift(t) - t."""
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    zeta = lambda x: eval_lift(bmap, x) - x
    return abs(float(np.mean(zeta(alpha + t) - zeta(t))))


def check_gap_double_integral(
    bmap: BoundaryMap, r: float, n_samples: int = 512, tol: float = 1e-8, map_id: str = ""
) -> VerdictRecord:
    """Kernel-weighted tangent-gap double integral is nonnegative, and its value
    accounts exactly for the area deficit.

    The double sum of K(a) {sin a + (g - a) cos a - sin g} over matched grids
    must be >= -tol, and value / (4 pi) must reproduce pi r^2 minus the
    kernel-quadrature area at the same resolution.
    """
    r = _check_radius(r, allow_zero=False)
    if bmap.kind != HOMEOMORPHISM:
        raise ValueError("the gap double integral needs a homeomorphism")
    m = int(n_samples)
    alphas, lift2 = _lift_two_periods(bmap, m)
    kern = area_kernel(r, alphas)
    _, gap_sum = pair_sums.gap_pair_sums(kern, alphas, lift2)
    value = gap_sum * (TWO_PI / m) ** 2
    # the kernel-direct area at full resolution, from the dense pair sum on
    # purpose: the gap sum is built on the sine lag sums, and an area sharing
    # them could not catch an error in them
    area = (math.pi / (m * m)) * pair_sums.sin_pair_sum(kern, lift2[:m])
    bookkeeping = abs((math.pi * r * r - area) - value / (4.0 * math.pi))
    ok = value >= -tol and bookkeeping <= 1e-6
    return VerdictRecord(
        check_name="gap-double-integral",
        map_id=map_id,
        r=r,
        lhs=-value,
        rhs=0.0,
        slack=value,
        tolerance=tol,
        passed=bool(ok),
        resolution=m,
    )


def profile_gap_integral(g: MonotoneProfile, r: float) -> tuple[float, float]:
    """(integral of K(a) gap(a, G(a)) da, cutoff angle).

    The cutoff is the largest grid angle in [pi, 2*pi] where a + G(a) still
    fits inside one period (pi when none does); the integrand is nonnegative
    outside the mirrored interval around it.  If G(pi) > pi the reflected
    profile is integrated instead, which leaves the value unchanged.
    """
    r = _check_radius(r, allow_zero=False)
    if g.at_midpoint() > math.pi:
        g = reflect_profile(g)
    alphas = g.alphas
    vals = area_kernel(r, alphas) * tangent_gap(alphas, g.values)
    value = float(np.trapezoid(vals, alphas))
    return value, _cutoff_angle(g)


def _cutoff_index(g: MonotoneProfile) -> int:
    n = g.n_cells
    half = n // 2
    alphas = g.alphas
    mask = alphas[half:] + g.values[half:] <= TWO_PI
    if not np.any(mask):
        return half
    return half + int(np.max(np.nonzero(mask)[0]))


def _cutoff_angle(g: MonotoneProfile) -> float:
    return float(g.alphas[_cutoff_index(g)])


def check_reduction_chain(g: MonotoneProfile, r: float, tol: float = 1e-10, map_id: str = "") -> VerdictRecord:
    """The four-step comparison chain that bounds the profile gap integral below.

    full integral >= mirrored-window integral >= frozen-argument integral
    = doubled half-window integral >= 0, with the equality checked as an
    identity.  Requires G(pi) <= pi; reflect first otherwise.
    """
    r = _check_radius(r, allow_zero=False)
    if g.at_midpoint() > math.pi:
        g = reflect_profile(g)
    alphas = g.alphas
    n = g.n_cells
    half = n // 2
    i1 = _cutoff_index(g)
    i0 = n - i1
    kern = area_kernel(r, alphas)
    q1 = float(np.trapezoid(kern * tangent_gap(alphas, g.values), alphas))
    window = slice(i0, i1 + 1)
    q2 = float(np.trapezoid(kern[window] * tangent_gap(alphas[window], g.values[window]), alphas[window]))
    frozen = g.at_midpoint()
    q3 = float(np.trapezoid(kern[window] * tangent_gap(alphas[window], frozen), alphas[window]))
    upper = slice(half, i1 + 1)
    q4 = 2.0 * float(np.trapezoid(kern[upper] * tangent_gap(alphas[upper], math.pi), alphas[upper]))
    worst = min(q1 - q2, q2 - q3, -abs(q3 - q4), q4)
    return make_verdict("reduction-chain", map_id, r, -worst, 0.0, tol, n)


def strict_interior_positivity(grid_n: int = 256, radii=(0.3, 0.6, 0.9)) -> float:
    """min over radii and interior grid angles of K(a) * gap(a, pi), excluding
    the zeros at 0, pi, 2*pi; positive margin certifies the equality analysis."""
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    keep = (a > 1e-12) & (np.abs(a - math.pi) > 1e-12) & (a < TWO_PI - 1e-12)
    out = math.inf
    for r in radii:
        vals = area_kernel(r, a[keep]) * tangent_gap(a[keep], math.pi)
        out = min(out, float(np.min(vals)))
    return out
