"""Inequality-level verification: area contraction, boundary flux, Schwarz bound.

Each check produces a :class:`VerdictRecord` pairing the two sides of an
inequality with its slack and tolerance, built by :func:`make_verdict`.
Checks never raise on a numerical failure (a non-finite slack gives an
inconclusive record); they raise only when the input violates the
hypothesis of the statement being checked (a step map fed to a
bijectivity-only check, an uncentered map fed to the Schwarz bound).
:data:`TOLERANCES` holds the default tolerance of each check that a sweep
may override.  ``estimate_area`` is re-exported from :mod:`diskarea.area`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .area import GREEN_SPECTRAL, HypothesisViolationError, _coeffs_for, estimate_area, spectral_area_sum
from .circle_maps import HOMEOMORPHISM, NONDECREASING_STEP, TWO_PI, BoundaryMap
from .poisson import (
    FourierCoeffs,
    UniformGrid,
    _check_radius,
    _series,
    eval_harmonic,
    eval_harmonic_step,
    fourier_from_boundary,
    wirtinger_on_circle,
)

# The fixed resolutions of the checks: the Schwarz bound's polar grid, and the
# circles 1 - eps, angles and extraction order of the flux.  The eps descend:
# the extrapolation takes them in this order, which fixes its rounding.
_SCHWARZ_RADII = np.linspace(0.015, 0.96, 64)
_SCHWARZ_GRID = UniformGrid(64)
_FLUX_EPS = (0.04, 0.02, 0.01)
_FLUX_N_THETA = 1024
_FLUX_ORDER = 256

# Default tolerance of each check whose tolerance a sweep may override.
TOLERANCES = {
    "area-contraction": 1e-6,  # relative to the disk area pi r^2
    "equality-rotation": 1e-8,
    "schwarz-bound": 1e-8,
    "boundary-flux": 1e-3,
}


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
    method: str = ""
    error_indicator: float = 0.0


def make_verdict(
    check_name, map_id, r, lhs, rhs, tolerance, resolution, inconclusive=False, direction="le", holds=True,
    method="", error_indicator=0.0,
) -> VerdictRecord:
    """Record for an inequality check; pass iff slack >= -tolerance and ``holds``.

    slack = rhs - lhs for a ``le`` check (lhs <= rhs), lhs - rhs for ``ge``.
    ``holds`` carries the further conditions of a compound check.  A
    non-finite slack makes the record inconclusive.  ``method`` and
    ``error_indicator`` name the area estimate behind lhs, if any.  This is
    the only place a VerdictRecord is built.
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
        method=method,
        error_indicator=float(error_indicator),
    )


def check_area_contraction(
    source: BoundaryMap | FourierCoeffs,
    r: float,
    method: str = GREEN_SPECTRAL,
    tol: float = TOLERANCES["area-contraction"],
    map_id: str = "",
    order: int = 512,
) -> VerdictRecord:
    """Image area of the concentric disk must not exceed pi r^2 (bijective maps).

    ``source`` is a boundary map, which must be a homeomorphism, or its
    Fourier coefficients.  ``tol`` is relative to pi r^2; the record holds
    the absolute tolerance ``tol * pi r^2``.
    """
    if isinstance(source, BoundaryMap) and source.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("area contraction is asserted for homeomorphisms only")
    est = estimate_area(source, r, method, order=order)  # every estimator checks r
    disk = math.pi * r * r
    return make_verdict("area-contraction", map_id, r, est.value, disk, tol * disk, est.resolution,
                        method=est.method, error_indicator=est.error_indicator)


def schwarz_bound(radii):
    """The harmonic Schwarz majorant (4/pi) arctan(r)."""
    return (4.0 / math.pi) * np.arctan(np.asarray(radii, dtype=float))


def schwarz_bound_check(
    bmap: BoundaryMap, tol: float = TOLERANCES["schwarz-bound"], map_id: str = "", order: int = 512
) -> VerdictRecord:
    """Max of |f| - (4/pi) arctan r over 64 radii in [0.015, 0.96] x 64 angles must stay <= 0.

    The bound needs f(0) = 0, so the boundary data must already be centered;
    no recentering is applied (postcomposition with a disk automorphism does
    not preserve harmonicity).  An uncentered map, |f(0)| > 1e-10, raises
    HypothesisViolationError.
    """
    if bmap.kind == NONDECREASING_STEP:
        center = eval_harmonic_step(bmap, 0.0, 0.0)
        vals = eval_harmonic_step(bmap, _SCHWARZ_RADII, _SCHWARZ_GRID.angles)
        resolution = bmap.n_knots
    else:
        coeffs = fourier_from_boundary(bmap, order=order)
        center = coeffs.coeff(0)
        vals = eval_harmonic(coeffs, _SCHWARZ_RADII, _SCHWARZ_GRID)
        resolution = order
    if abs(center) > 1e-10:
        raise HypothesisViolationError(f"map is not centered: |f(0)| = {abs(center):.3e}")
    worst = float(np.max(np.max(np.abs(vals), axis=1) - schwarz_bound(_SCHWARZ_RADII)))
    return make_verdict("schwarz-bound", map_id, float(_SCHWARZ_RADII[-1]), worst, 0.0, tol, resolution)


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


def boundary_flux_integral(source, rho):
    """Angular integral of det Df around the circle of radius rho.

    Normalized per unit angle times 2*pi, i.e. the rho -> 1 limit equals the
    boundary line integral of |det Df|; for the identity it is 2*pi at every
    rho.  An array of radii gives an array of integrals, from one series
    evaluation at 1024 angles; boundary maps are extracted at order 256.
    """
    dh, dg = wirtinger_on_circle(_coeffs_for(source, _FLUX_ORDER), rho, UniformGrid(_FLUX_N_THETA))
    det = np.abs(dh) ** 2 - np.abs(dg) ** 2
    flux = np.mean(np.abs(det), axis=-1) * TWO_PI
    return flux if flux.ndim else float(flux)


def boundary_jacobian_integral(source, tol: float = TOLERANCES["boundary-flux"], map_id: str = "") -> VerdictRecord:
    """Extrapolated boundary integral of |det Df| must be at least 2*pi.

    Evaluates the flux on the circles 1 - {0.04, 0.02, 0.01}, all in one call
    of :func:`boundary_flux_integral`, and extrapolates polynomially to
    the boundary; smooth (mollified or closed-form) data is assumed.  A
    blown-up extrapolation step marks the verdict inconclusive rather than
    failed.
    """
    if isinstance(source, BoundaryMap) and source.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("boundary flux check needs a homeomorphism")
    vals = boundary_flux_integral(source, 1.0 - np.array(_FLUX_EPS))
    limit, step = _neville_to_zero(_FLUX_EPS, vals)
    spread = max(vals) - min(vals)
    inconclusive = not math.isfinite(limit) or step > max(1.0, 10.0 * spread)
    return make_verdict(
        "boundary-flux", map_id, 1.0, limit, TWO_PI, tol, _FLUX_N_THETA, inconclusive, direction="ge"
    )


def holomorphic_convexity_check(series, r: float, map_id: str = "") -> VerdictRecord:
    """For injective holomorphic series: area(r) <= r^2 * area(1), to 1e-12.

    ``series`` lists c_1..c_N (or a FourierCoeffs, whose two-sided indices are
    then used, letting the harness exhibit the designed failure for harmonic
    data).  Injectivity is the caller's burden: a positive
    :func:`univalence_margin` proves it for a holomorphic series.
    """
    r = _check_radius(r, allow_zero=False)
    if isinstance(series, FourierCoeffs):
        ns = series.indices
        cs = series.coeffs
    else:
        cs = np.asarray(series, dtype=complex)
        ns = np.arange(1, cs.size + 1)
    lhs = spectral_area_sum(ns, cs, r)
    rhs = r * r * math.pi * float(np.sum(ns * np.abs(cs) ** 2))
    return make_verdict("holomorphic-convexity", map_id, r, lhs, rhs, 1e-12, int(np.max(np.abs(ns))))


def univalence_margin(series) -> float:
    """Certified lower bound on Re(e^{-i arg c_1} f'(z)) over the closed unit disk.

    ``series`` lists c_1..c_N of the polynomial f(z) = sum c_n z^n.  A
    positive margin proves f univalent on the disk (Noshiro 1934, Warschawski
    1935: Re(e^{i phi} f') > 0 on a convex domain).  Re(e^{i phi} f') is
    harmonic, so its minimum over the closed disk lies on the circle, and
    between the m = 256 uniform samples of f'(e^{i theta}) it falls
    at most pi L / m below the nearest one, where L = sum n (n - 1) |c_n|
    bounds |d/dtheta f'(e^{i theta})|.  The margin is the sample minimum
    minus pi L / m.  The theorem is only sufficient: a margin <= 0 leaves
    univalence undecided, as it always is for c_1 = 0 (then f'(0) = 0).
    """
    cs = np.asarray(series, dtype=complex)
    if cs.size == 0:
        raise ValueError("univalence margin of an empty series: c_1..c_N needs N >= 1")
    n = np.arange(1, cs.size + 1)
    m = 256
    fprime = _series(n * cs, 0, 1.0, UniformGrid(m))
    lipschitz = float(np.sum(n * (n - 1) * np.abs(cs)))
    return float(np.min(np.real(np.exp(-1j * np.angle(cs[0])) * fprime))) - math.pi * lipschitz / m
