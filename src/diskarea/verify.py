"""Inequality-level verification: area contraction, boundary flux, Schwarz bound.

The boundary flux is taken at the circle itself, as the coefficient sum
2 pi sum sgn(n) n^2 |c_n|^2, so no circle inside the disk is evaluated.
Each check produces a :class:`VerdictRecord` pairing the two sides of an
inequality with its slack and its fixed tolerance, built by :func:`make_verdict`;
a report row shows the tolerance in its ``tolerance`` column.
Checks never raise on a numerical failure (a non-finite slack gives an
inconclusive record); they raise only when the input violates the
hypothesis of the statement being checked (a step map fed to a
bijectivity-only check, an uncentered map fed to the Schwarz bound).
``estimate_area`` is re-exported from :mod:`diskarea.area`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .area import (GREEN_SPECTRAL, HypothesisViolationError, _coeffs_for, _full_and_half_sums, estimate_area,
                   spectral_area_sum)
from .circle_maps import HOMEOMORPHISM, NONDECREASING_STEP, TWO_PI, BoundaryMap
from .poisson import (
    FourierCoeffs,
    UniformGrid,
    _check_radius,
    _series,
    _sharing_powers,
    eval_harmonic,
    eval_harmonic_step,
    fourier_from_boundary,
)

# The fixed resolutions of the checks: the Schwarz bound's polar grid, and the
# order at which the flux check extracts the series of a boundary map.
_SCHWARZ_RADII = np.linspace(0.015, 0.96, 64)
_SCHWARZ_GRID = UniformGrid(64)
_FLUX_ORDER = 256


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
    check_name, map_id, r, lhs, rhs, tolerance, resolution, direction="le", holds=True, method="", error_indicator=0.0,
) -> VerdictRecord:
    """Record for an inequality check; pass iff slack >= -tolerance and ``holds``.

    slack = rhs - lhs for a ``le`` check (lhs <= rhs), lhs - rhs for ``ge``.
    ``holds`` carries the further conditions of a compound check.  A
    non-finite slack makes the record inconclusive.  ``method`` and
    ``error_indicator`` name the area estimate behind lhs, if any.  This is
    the only place a VerdictRecord is built.
    """
    slack = rhs - lhs if direction == "le" else lhs - rhs
    inconclusive = not math.isfinite(slack)
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
    map_id: str = "",
    order: int = 512,
) -> VerdictRecord:
    """Image area of the concentric disk must not exceed pi r^2 (bijective maps).

    ``source`` is a boundary map, which must be a homeomorphism, or its
    Fourier coefficients.  The tolerance is 1e-6 of the disk area pi r^2.
    """
    if isinstance(source, BoundaryMap) and source.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("area contraction is asserted for homeomorphisms only")
    est = estimate_area(source, r, method, order=order)  # every estimator checks r
    disk = math.pi * r * r
    return make_verdict("area-contraction", map_id, r, est.value, disk, 1e-6 * disk, est.resolution,
                        method=est.method, error_indicator=est.error_indicator)


def schwarz_bound(radii):
    """The harmonic Schwarz majorant (4/pi) arctan(r)."""
    return (4.0 / math.pi) * np.arctan(np.asarray(radii, dtype=float))


def _sharing_schwarz_powers(order: int):
    """A block within which the Schwarz checks of smooth maps at ``order``
    share one table of the polar grid's radial powers (see
    :func:`poisson._sharing_powers`); the checks' values are unchanged."""
    return _sharing_powers(_SCHWARZ_RADII, order)


def schwarz_bound_check(bmap: BoundaryMap, map_id: str = "", order: int = 512) -> VerdictRecord:
    """Max of |f| - (4/pi) arctan r over 64 radii in [0.015, 0.96] x 64 angles must stay <= 0, to 1e-8.

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
    return make_verdict("schwarz-bound", map_id, float(_SCHWARZ_RADII[-1]), worst, 0.0, 1e-8, resolution)


def boundary_jacobian_integral(source, map_id: str = "") -> VerdictRecord:
    """Boundary integral Phi of |det Df| must be at least 2*pi, to 1e-3.

    For a homeomorphism det Df > 0 in the disk (Rado-Kneser-Choquet), so by
    Parseval for h' and g' the flux on the circle itself is the finite sum
    Phi = 2 pi sum sgn(n) n^2 |c_n|^2 of the series.  ``source`` is a
    boundary map, which must be a homeomorphism and is extracted at order
    256, or its FourierCoeffs, used as given; for coefficients, injectivity
    is the caller's burden, as in :func:`holomorphic_convexity_check`.  The
    resolution is the series order.  The error indicator is the change from
    the sum truncated at half the order, by the rule of the green-spectral
    area: a truncation proxy, not a certified bound (that needs the energy
    tail of exact coefficients).
    """
    if isinstance(source, BoundaryMap) and source.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("boundary flux check needs a homeomorphism")
    coeffs = _coeffs_for(source, _FLUX_ORDER)
    ns = coeffs.indices
    full, half = _full_and_half_sums(coeffs, ns * np.abs(ns) * np.abs(coeffs.coeffs) ** 2)
    flux, half = TWO_PI * full, TWO_PI * half
    return make_verdict("boundary-flux", map_id, 1.0, flux, TWO_PI, 1e-3, coeffs.order, direction="ge",
                        error_indicator=abs(flux - half))


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
        if cs.size == 0:
            raise ValueError("holomorphic convexity of an empty series: c_1..c_N needs N >= 1")
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
