"""Inequality-level verification: area contraction, boundary flux, Schwarz bound.

Each check produces a :class:`VerdictRecord` pairing the two sides of an
inequality with its slack and tolerance, built by :func:`make_verdict`.
Checks never raise on a numerical failure (a non-finite slack gives an
inconclusive record); they raise only when the input violates the
hypothesis of the statement being checked (a step map fed to a
bijectivity-only check, an uncentered map fed to the Schwarz bound).
``estimate_area`` is re-exported from :mod:`diskarea.area`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .area import GREEN_SPECTRAL, HypothesisViolationError, estimate_area
from .circle_maps import HOMEOMORPHISM, NONDECREASING_STEP, TWO_PI, BoundaryMap
from .poisson import (
    FourierCoeffs,
    _check_radius,
    eval_harmonic,
    eval_harmonic_step,
    fourier_from_boundary,
    wirtinger_on_circle,
)


@dataclass(frozen=True)
class VerdictRecord:
    """Outcome of one inequality or identity check."""

    check_name: str
    map_id: str
    r: float
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool
    resolution: int
    inconclusive: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def make_verdict(
    check_name, map_id, r, lhs, rhs, tolerance, resolution, inconclusive=False, direction="le", holds=True
) -> VerdictRecord:
    """Record for an inequality check; pass iff slack >= -tolerance and ``holds``.

    slack = rhs - lhs for a ``le`` check (lhs <= rhs), lhs - rhs for ``ge``.
    ``holds`` carries the further conditions of a compound check.  A
    non-finite slack makes the record inconclusive.  This is the only place
    a VerdictRecord is built.
    """
    slack = rhs - lhs if direction == "le" else lhs - rhs
    inconclusive = bool(inconclusive) or not math.isfinite(slack)
    return VerdictRecord(
        check_name=check_name,
        map_id=map_id,
        r=float(r),
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        tolerance=float(tolerance),
        passed=bool(slack >= -tolerance) and bool(holds) and not inconclusive,
        resolution=int(resolution),
        inconclusive=inconclusive,
    )


def check_area_contraction(
    bmap: BoundaryMap,
    r: float,
    method: str = GREEN_SPECTRAL,
    tol: float | None = None,
    map_id: str = "",
    order: int = 512,
) -> VerdictRecord:
    """Image area of the concentric disk must not exceed pi r^2 (bijective maps)."""
    r = _check_radius(r, allow_zero=False)
    if bmap.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("area contraction is asserted for homeomorphisms only")
    disk = math.pi * r * r
    if tol is None:
        tol = 1e-6 * disk
    est = estimate_area(bmap, r, method, order=order)
    return make_verdict("area-contraction", map_id, r, est.value, disk, tol, est.resolution)


def equality_slack(bmap: BoundaryMap, r: float, order: int = 512) -> float:
    """pi r^2 minus the best-available image-area estimate; ~0 exactly for rotations."""
    est = estimate_area(bmap, r, GREEN_SPECTRAL, order=order)
    return math.pi * r * r - est.value


def lift_identity_deviation(bmap: BoundaryMap, n_samples: int = 4096) -> float:
    """sup over the grid of |lift(t) - t - const|: the testable isometry proxy."""
    from .circle_maps import eval_lift

    t = np.arange(n_samples) * (TWO_PI / n_samples)
    dev = eval_lift(bmap, t) - t
    dev -= float(np.mean(dev))
    return float(np.max(np.abs(dev)))


def schwarz_bound(radii):
    """The harmonic Schwarz majorant (4/pi) arctan(r)."""
    return (4.0 / math.pi) * np.arctan(np.asarray(radii, dtype=float))


def schwarz_bound_check(
    bmap: BoundaryMap,
    center_shift: complex = 0j,
    radii=None,
    n_theta: int = 64,
    tol: float = 1e-8,
    map_id: str = "",
    order: int = 512,
    center_tol: float = 1e-10,
) -> VerdictRecord:
    """Max over a polar grid of |f| - (4/pi) arctan r must stay <= 0.

    The bound needs f(0) = 0, so the boundary data must already be centered;
    no recentering is applied (postcomposition with a disk automorphism does
    not preserve harmonicity).  ``center_shift`` asserts the expected center
    and must be ~0.
    """
    if abs(complex(center_shift)) > center_tol:
        raise HypothesisViolationError("only center_shift ~ 0 is admissible; see the bound's normalization")
    if radii is None:
        radii = np.linspace(0.015, 0.96, 64)
    radii = np.asarray(radii, dtype=float)
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    if bmap.kind == NONDECREASING_STEP:
        center = eval_harmonic_step(bmap, 0.0, 0.0)
        if abs(center - center_shift) > center_tol:
            raise HypothesisViolationError(f"map is not centered: |f(0)| = {abs(center):.3e}")
        vals = eval_harmonic_step(bmap, radii, thetas)
        resolution = bmap.n_knots
    else:
        coeffs = fourier_from_boundary(bmap, order=order)
        center = coeffs.coeff(0)
        if abs(center - center_shift) > center_tol:
            raise HypothesisViolationError(f"map is not centered: |f(0)| = {abs(center):.3e}")
        vals = eval_harmonic(coeffs, radii, thetas)
        resolution = order
    worst = float(np.max(np.max(np.abs(vals), axis=1) - schwarz_bound(radii)))
    return make_verdict("schwarz-bound", map_id, float(radii[-1]), worst, 0.0, tol, resolution)


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0, with last-step size."""
    xs = list(map(float, xs))
    tbl = list(map(float, ys))
    n = len(tbl)
    last_corr = 0.0
    prev_top = tbl[0]
    for level in range(1, n):
        for i in range(n - level):
            tbl[i] = tbl[i + 1] + (tbl[i + 1] - tbl[i]) * xs[i + level] / (xs[i] - xs[i + level])
        last_corr = abs(tbl[0] - prev_top)
        prev_top = tbl[0]
    return tbl[0], last_corr


def boundary_flux_integral(source, rho: float, n_theta: int = 1024, order: int = 256) -> float:
    """Angular integral of det Df around the circle of radius rho.

    Normalized per unit angle times 2*pi, i.e. the rho -> 1 limit equals the
    boundary line integral of |det Df|; for the identity it is 2*pi at every
    rho.
    """
    if isinstance(source, BoundaryMap):
        coeffs = fourier_from_boundary(source, order=order)
    else:
        coeffs = source
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    dh, dg = wirtinger_on_circle(coeffs, rho, thetas)
    det = np.abs(dh) ** 2 - np.abs(dg) ** 2
    return float(np.mean(np.abs(det))) * TWO_PI


def boundary_jacobian_integral(
    source,
    eps_list=(0.04, 0.02, 0.01),
    n_theta: int = 1024,
    order: int = 256,
    tol: float = 1e-3,
    map_id: str = "",
) -> VerdictRecord:
    """Extrapolated boundary integral of |det Df| must be at least 2*pi.

    Evaluates the flux on circles 1 - eps and extrapolates polynomially to
    the boundary; smooth (mollified or closed-form) data is assumed.  A
    blown-up extrapolation step marks the verdict inconclusive rather than
    failed.
    """
    if isinstance(source, BoundaryMap) and source.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("boundary flux check needs a homeomorphism")
    eps = sorted(set(float(e) for e in eps_list), reverse=True)
    if len(eps) < 2 or min(eps) <= 0 or max(eps) >= 1:
        raise ValueError("eps_list must hold at least two distinct values in (0, 1)")
    vals = [boundary_flux_integral(source, 1.0 - e, n_theta, order) for e in eps]
    limit, step = _neville_to_zero(eps, vals)
    spread = max(vals) - min(vals)
    inconclusive = not math.isfinite(limit) or step > max(1.0, 10.0 * spread)
    return make_verdict(
        "boundary-flux", map_id, 1.0, limit, TWO_PI, tol, n_theta, inconclusive, direction="ge"
    )


def holomorphic_convexity_check(series, r: float, tol: float = 1e-12, map_id: str = "") -> VerdictRecord:
    """For injective holomorphic series: area(r) <= r^2 * area(1).

    ``series`` lists c_1..c_N (or a FourierCoeffs, whose two-sided indices are
    then used, letting the harness exhibit the designed failure for harmonic
    data).  Injectivity is the caller's burden; see
    :func:`winding_injectivity_check`.
    """
    r = _check_radius(r, allow_zero=False)
    if isinstance(series, FourierCoeffs):
        ns = series.indices
        cs = series.coeffs
    else:
        cs = np.asarray(series, dtype=complex)
        ns = np.arange(1, cs.size + 1)
    weights = ns * np.abs(cs) ** 2
    lhs = math.pi * float(np.sum(weights * r ** (2 * np.abs(ns))))
    rhs = r * r * math.pi * float(np.sum(weights))
    return make_verdict("holomorphic-convexity", map_id, r, lhs, rhs, tol, int(np.max(np.abs(ns))))


def winding_injectivity_check(series, n_targets: int = 64, n_samples: int = 4096) -> bool:
    """Winding-number test of injectivity for a holomorphic polynomial on the disk.

    Samples targets inside the image of the circle |z| = 1 - 1e-3 and checks
    each is wound exactly once.  Sufficient at test scale, not a proof.
    """
    cs = np.concatenate([[0.0], np.asarray(series, dtype=complex)])
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    z = (1.0 - 1e-3) * np.exp(1j * t)
    w = np.polynomial.polynomial.polyval(z, cs)
    rng = np.random.default_rng(0)
    # targets: shrunk convex combinations of curve points, biased inward
    picks = w[rng.integers(0, n_samples, size=n_targets)] * rng.uniform(0.05, 0.7, size=n_targets)
    for target in picks:
        ang = np.unwrap(np.angle(w - target))
        winding = (ang[-1] - ang[0] + (ang[1] - ang[0])) / TWO_PI  # close the loop
        if abs(winding - 1.0) > 0.1:
            return False
    return True
