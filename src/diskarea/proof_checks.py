"""Pointwise and integral identities behind the area-contraction argument.

The contraction inequality reduces to sign and comparison statements about
the tangent-line gap of the sine curve weighted by the antisymmetric pair
kernel, applied to monotone increment profiles of the boundary lift.  Every
statement in that reduction is checked here numerically at finite resolution,
so the argument's skeleton doubles as a property-test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pair_sums
from .area import area_kernel
from .circle_maps import HOMEOMORPHISM, TWO_PI, BoundaryMap, _random_lift, eval_lift
from .poisson import _check_radius
from .verify import VerdictRecord, make_verdict

_PROFILE_CELLS = 512  # cells of every profile the family check draws
_PROFILE_BLOCK = 64  # profile rows held at once by check_profile_family


@functools.lru_cache(maxsize=16)
def _grid(n_points: int) -> np.ndarray:
    """Uniform grid of n_points angles on [0, 2*pi]; built once per size, read-only."""
    a = np.linspace(0.0, TWO_PI, n_points)
    a.setflags(write=False)
    return a


def _checked_rows(values) -> np.ndarray:
    """Copy of profile samples (one profile per row of the last axis), checked
    nondecreasing to 1e-12 and clamped into [0, 2*pi]."""
    v = np.array(values, dtype=float, order="C")
    if np.any(np.diff(v, axis=-1) < -1e-12):
        raise ValueError("profile must be nondecreasing")
    np.clip(v, 0.0, TWO_PI, out=v)
    return v


@dataclass(frozen=True)
class MonotoneProfile:
    """Nondecreasing function [0, 2*pi] -> [0, 2*pi] sampled on a uniform grid.

    ``values[i]`` lives at alpha_i = 2*pi*i/n with even n, so the midpoint pi
    and the reflection alpha -> 2*pi - alpha stay on the grid.  Values are
    clamped into [0, 2*pi] on construction.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3 or v.size % 2 == 0:
            raise ValueError("values must be a 1-d array of odd length (even cell count)")
        v = _checked_rows(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def alphas(self) -> np.ndarray:
        """The sample angles; one shared read-only array per grid size."""
        return _grid(self.values.size)


def reflect_profile(g: MonotoneProfile) -> MonotoneProfile:
    """alpha -> 2*pi - g(2*pi - alpha); an involution that fixes the key integral."""
    return MonotoneProfile(TWO_PI - g.values[::-1])


def _reflected_rows(v: np.ndarray) -> np.ndarray:
    """:func:`reflect_profile` of every row of v."""
    return _checked_rows(TWO_PI - v[:, ::-1])


def _canonical_rows(v: np.ndarray) -> np.ndarray:
    """Rows of v (profiles on a common grid) with G(pi) > pi replaced by their
    reflection; the integrals of the reduction are taken on this form."""
    flip = v[:, (v.shape[1] - 1) // 2] > math.pi
    if not flip.any():
        return v
    v = v.copy()
    v[flip] = _reflected_rows(v[flip])
    return v


def random_profile(seed: int, n_cells: int = 512, roughness: float = 1.0) -> MonotoneProfile:
    """Seeded nondecreasing profile from normalized positive increments."""
    if n_cells % 2:
        raise ValueError("n_cells must be even")
    return MonotoneProfile(_random_values(seed, n_cells, roughness))


def _random_values(seed: int, n_cells: int, roughness: float) -> np.ndarray:
    return _random_block([seed], n_cells, roughness)[0]


def _random_block(seeds, n_cells: int, roughness: float) -> np.ndarray:
    """The samples of ``random_profile(seed)`` for each of ``seeds``, one row each.

    Each seed's stream draws its n_cells normals into its own row, and the
    rows are lifted together, so every row equals the single-profile draw bit
    for bit.
    """
    draws = np.empty((len(seeds), n_cells))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return _random_lift(draws, roughness)


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


def check_tangent_gap_signs(grid_n: int = 256, radii=(0.3, 0.6, 0.9)) -> VerdictRecord:
    """Sign structure of the tangent gap and its kernel weighting on the square.

    Checks, on a (grid_n+1)^2 grid over [0, 2*pi]^2:
      (a) gap >= -1e-14 on [0, pi]^2;
      (b) gap > 1e-14 off a one-cell diagonal band within [0, pi]^2;
      (c) d(gap)/d(beta) = cos(a) - cos(b) >= -1e-14 for 0<=a<=pi, a<=b<=2pi-a;
      (d) kernel(a) * gap >= -1e-12 outside the two open triangles, per radius,
          while at least one strictly negative sample exists inside them.

    The grid is built from its column of angles a[:, None] and its row
    a[None, :], so every sine, cosine and kernel value is taken once per grid
    angle and only arithmetic and masks run on the full square.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    A, B = a[:, None], a[None, :]
    H = tangent_gap(A, B)
    k = int(np.count_nonzero(a <= math.pi + 1e-15))  # the angles in [0, pi] lead the grid
    Hh = H[:k, :k]
    worst = float(np.min(Hh))  # (a)
    ok = worst >= -1e-14

    band = np.abs(A[:k] - B[:, :k]) > TWO_PI / grid_n + 1e-12
    min_off = float(np.min(Hh, where=band, initial=math.inf))  # (b)
    ok = ok and min_off > 1e-14

    region_c = (A <= math.pi) & (B >= A) & (B <= TWO_PI - A)
    slope = np.cos(A) - np.cos(B)
    min_slope = float(np.min(slope, where=region_c, initial=math.inf))  # (c)
    ok = ok and min_slope >= -1e-14

    t1, t2 = _triangle_masks(A, B)
    inside = t1 | t2
    outside = ~inside
    worst_outside = math.inf
    best_inside = math.inf
    for r in radii:
        KH = area_kernel(r, A) * H
        worst_outside = min(worst_outside, float(np.min(KH, where=outside, initial=math.inf)))
        best_inside = min(best_inside, float(np.min(KH, where=inside, initial=math.inf)))
    ok = ok and worst_outside >= -1e-12 and best_inside < 0.0  # (d)

    lhs = min(worst, min_off, min_slope, worst_outside)
    return make_verdict("tangent-gap-signs", "", radii[-1], lhs, 0.0, 1e-12, grid_n,
                        direction="ge", holds=ok)


def mirror_pair_residual(r: float, grid_n: int = 256):
    """Pointwise residual and right-side minimum of the mirrored-pair identity.

    K(a) gap(a, b) + K(2pi - a) gap(2pi - a, b) collapses to
    2 K(a) gap(a, pi) for every b; returns (max |lhs - rhs|, min rhs).  The
    grid is the column a[:, None] against the row a[None, :].
    """
    r = _check_radius(r, allow_zero=False)
    a = np.linspace(0.0, TWO_PI, grid_n + 1)
    A, B = a[:, None], a[None, :]
    kern = area_kernel(r, A)
    lhs = kern * tangent_gap(A, B) + area_kernel(r, TWO_PI - A) * tangent_gap(TWO_PI - A, B)
    rhs = 2.0 * kern * tangent_gap(A, math.pi)
    return float(np.max(np.abs(lhs - rhs))), float(np.min(rhs))


def check_mirror_pair_identity(r: float) -> VerdictRecord:
    """Mirrored-pair identity holds to 1e-12 and its right side stays >= -1e-12
    on the 257 x 257 grid."""
    resid, min_rhs = mirror_pair_residual(r, 256)
    lhs = max(resid, -min_rhs)
    return make_verdict("mirror-pair-identity", "", r, lhs, 0.0, 1e-12, 256)


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


def check_gap_double_integral(bmap: BoundaryMap, r: float, n_samples: int = 512, map_id: str = "") -> VerdictRecord:
    """Kernel-weighted tangent-gap double integral is nonnegative, and its value
    accounts exactly for the area deficit.

    The double sum of K(a) {sin a + (g - a) cos a - sin g} over matched grids
    must be >= -1e-8, and value / (4 pi) must reproduce pi r^2 minus the
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
    return make_verdict("gap-double-integral", map_id, r, -value, 0.0, 1e-8, m, holds=bookkeeping <= 1e-6)


def profile_gap_integral(g: MonotoneProfile, r: float) -> tuple[float, float]:
    """(integral of K(a) gap(a, G(a)) da, cutoff angle).

    The cutoff is the largest grid angle in [pi, 2*pi] where a + G(a) still
    fits inside one period (pi when none does); the integrand is nonnegative
    outside the mirrored interval around it.  If G(pi) > pi the reflected
    profile is integrated instead, which leaves the value unchanged.
    """
    r = _check_radius(r, allow_zero=False)
    alphas = g.alphas
    v = _canonical_rows(g.values[None])
    value = np.trapezoid(area_kernel(r, alphas) * tangent_gap(alphas, v), alphas, axis=-1)
    return float(value[0]), float(alphas[_cutoff_indices(v, alphas)[0]])


def _cutoff_indices(v: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Per row of v: the largest index i >= n/2 with alpha_i + G(alpha_i) <= 2*pi,
    or n/2 when there is none."""
    half = (alphas.size - 1) // 2
    fits = alphas[half:] + v[:, half:] <= TWO_PI
    last = fits.shape[1] - 1 - np.argmax(fits[:, ::-1], axis=1)
    return np.where(fits.any(axis=1), half + last, half)


def _trapezoid_terms(y: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The summands of ``np.trapezoid(y, alphas)`` along the last axis.

    The plain sum of the slice [i:j] of a row is the trapezoid integral of
    that row over samples i..j bit for bit: np.trapezoid forms the same terms
    and sums them the same way.  The terms are formed in one array, in place,
    by the same operations in the same order.
    """
    terms = np.add(y[..., 1:], y[..., :-1])
    terms *= np.diff(alphas)
    terms /= 2.0
    return terms


def _window_integrals(cutoffs, weighted, frozen, at_pi) -> list[tuple[float, float, float]]:
    """(q2, q3, q4) of the reduction chain, per row.

    For canonical rows with cutoff indices ``cutoffs`` at one radius, the
    arguments are :func:`_trapezoid_terms` of: ``weighted``, K(a) gap(a, G(a));
    ``frozen``, K(a) gap(a, G(pi)) per row; and ``at_pi``, K(a) gap(a, pi), one
    row for all.  Each window integral sums its own slice of the row's terms,
    never a masked or cumulative sum, so it equals the trapezoid integral of
    that window.  The windows of the rows that share a cutoff are summed
    together, one row sum each.
    """
    n = at_pi.shape[-1]
    half = n // 2
    q2, q3, q4 = np.empty((3, len(cutoffs)))
    for i1 in set(cutoffs.tolist()):  # np.unique would import numpy.ma, 13 ms, on its first call
        rows = np.flatnonzero(cutoffs == i1)
        q2[rows] = weighted[rows, n - i1 : i1].sum(axis=-1)
        q3[rows] = frozen[rows, n - i1 : i1].sum(axis=-1)
        q4[rows] = 2.0 * at_pi[half:i1].sum()
    return list(zip(q2.tolist(), q3.tolist(), q4.tolist()))


def _chain_worst(q1: float, q2: float, q3: float, q4: float) -> float:
    """The weakest link of q1 >= q2 >= q3 = q4 >= 0."""
    return min(q1 - q2, q2 - q3, -abs(q3 - q4), q4)


def check_reduction_chain(g: MonotoneProfile, r: float, map_id: str = "") -> VerdictRecord:
    """The four-step comparison chain that bounds the profile gap integral below, to 1e-10.

    full integral >= mirrored-window integral >= frozen-argument integral
    = doubled half-window integral >= 0, with the equality checked as an
    identity.  Requires G(pi) <= pi; reflect first otherwise.
    """
    r = _check_radius(r, allow_zero=False)
    alphas = g.alphas
    v = _canonical_rows(g.values[None])
    kern = area_kernel(r, alphas)
    weighted = _trapezoid_terms(kern * tangent_gap(alphas, v), alphas)
    q1 = float(weighted.sum(axis=-1)[0])
    frozen = _trapezoid_terms(kern * tangent_gap(alphas, v[:, g.n_cells // 2, None]), alphas)
    (windows,) = _window_integrals(_cutoff_indices(v, alphas), weighted, frozen,
                                   _trapezoid_terms(kern * tangent_gap(alphas, math.pi), alphas))
    worst = _chain_worst(q1, *windows)
    return make_verdict("reduction-chain", map_id, r, -worst, 0.0, 1e-10, g.n_cells)


def check_profile_family(radii, n_profiles: int = 500, n_chains: int = 200) -> tuple[VerdictRecord, ...]:
    """The profile checks of the proof suite over the seeded profiles
    ``random_profile(seed)``, seeds 0..n-1, at every radius.

    Returns three records, in this order:

    * ``profile-gap-integral``: the smallest :func:`profile_gap_integral`
      value over seeds ``0..n_profiles-1`` must be >= -1e-8;
    * ``reduction-chain``: the smallest :func:`check_reduction_chain` slack
      over seeds ``0..n_chains-1`` must be >= -1e-10;
    * ``reflection-invariance``: the largest change of the gap integral under
      :func:`reflect_profile` over the same seeds must be <= 1e-10.

    Each record has r = max(radii) and resolution 512.  The values equal those
    of the single-profile functions bit for bit.  The profiles are integrated
    in blocks of a fixed number of rows, which bounds the working set; each
    block is drawn into one array and lifted at once (:func:`_random_block`),
    and each profile's tangent gap is computed once.  The kernel and the
    K(a) gap(a, pi) terms are built once per radius, and the trapezoid terms
    of each block once per radius.
    """
    radii = tuple(_check_radius(r, allow_zero=False) for r in radii)
    if not radii or n_profiles < 1 or n_chains < 1:
        raise ValueError("need at least one radius, one profile and one chain")
    n = _PROFILE_CELLS
    alphas = _grid(n + 1)
    kerns = [area_kernel(r, alphas) for r in radii]
    pi_gap = tangent_gap(alphas, math.pi)
    pi_terms = [_trapezoid_terms(kern * pi_gap, alphas) for kern in kerns]
    n_seeds = max(n_profiles, n_chains)
    integrals, worsts, reflection = [], [], []  # seed-major, radius-minor
    for start in range(0, n_seeds, _PROFILE_BLOCK):
        raw = _checked_rows(_random_block(range(start, min(start + _PROFILE_BLOCK, n_seeds)), n, 1.0))
        v = _canonical_rows(raw)
        c = min(len(v), max(0, n_chains - start))  # leading rows that also carry a chain
        gap = tangent_gap(alphas, v)
        # a chain row reflected into v is its own mirror, with no drift: mirror the others
        kept = np.flatnonzero(raw[:c, n // 2] <= math.pi)
        mirrored = tangent_gap(alphas, _canonical_rows(_reflected_rows(raw[kept])))
        frozen = tangent_gap(alphas, v[:c, n // 2, None])
        cutoffs = _cutoff_indices(v[:c], alphas)
        q1 = np.empty((len(v), len(radii)))
        drift = np.zeros((c, len(radii)))
        worst = np.empty((c, len(radii)))
        for j, kern in enumerate(kerns):
            weighted = _trapezoid_terms(kern * gap, alphas)
            q1[:, j] = weighted.sum(axis=-1)
            drift[kept, j] = np.abs(q1[kept, j] - np.trapezoid(kern * mirrored, alphas, axis=-1))
            windows = _window_integrals(cutoffs, weighted, _trapezoid_terms(kern * frozen, alphas), pi_terms[j])
            worst[:, j] = [_chain_worst(q, *w) for q, w in zip(q1[:c, j].tolist(), windows)]
        integrals += q1.ravel().tolist()
        reflection += drift.ravel().tolist()
        worsts += worst.ravel().tolist()
    r = max(radii)
    return (
        make_verdict("profile-gap-integral", f"random-profiles:{n_profiles}", r,
                     -min(integrals[: n_profiles * len(radii)]), 0.0, 1e-8, n),
        # each chain's slack as its own record holds it, 0 - (-worst)
        make_verdict("reduction-chain", f"random-profiles:{n_chains}", r,
                     -min(0.0 - -w for w in worsts), 0.0, 1e-10, n),
        make_verdict("reflection-invariance", f"random-profiles:{n_chains}", r,
                     max([0.0] + reflection), 0.0, 1e-10, n),
    )


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
