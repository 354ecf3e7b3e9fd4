"""Area of the harmonic image of a concentric disk, by several independent routes.

Five estimators are provided: the boundary-flux (Green) formula as a sum
over Fourier coefficients, the same formula by trapezoid quadrature of the
Poisson integral of the boundary samples (no coefficients), the double sum
of the antisymmetric pair kernel against sin of lift differences, twice, and
midpoint integration of the Jacobian determinant on a polar grid.  Closed
forms for the exact test families round out the set.  All values are
absolute areas: the identity at radius r gives pi * r^2.

The two kernel routes reassociate the double sum over the lag into the
sine lag sums of the lift, taken by direct O(M^2) summation
(``kernel-direct``) or by FFT in O(M log M) (``kernel-fft``).  Only the
kernel row depends on r, so each route keeps the lag sums of the latest
maps per sample count (:func:`_lift_lag_sums`), and a further radius of a
map costs one O(M) dot.

:data:`REGISTRY` is the one table of these methods, and
:func:`estimate_area` the one way to run a method by name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pair_sums
from .circle_maps import (HOMEOMORPHISM, TWO_PI, BoundaryMap, boundary_values, eval_lift, make_identity,
                          make_mobius_boundary, make_rotation)
from .poisson import (
    FourierCoeffs,
    UniformGrid,
    _check_radius,
    fourier_from_boundary,
    poisson_kernel,
    poisson_kernel_deriv,
    sample_count,
    wirtinger_on_circle,
)

GREEN_SPECTRAL = "green-spectral"
GREEN_QUADRATURE = "green-quadrature"
KERNEL_DIRECT = "kernel-direct"
KERNEL_FFT = "kernel-fft"
JACOBIAN_GRID = "jacobian"
EXACT_FAMILY = "exact"

# What an area method takes, and so how estimate_area calls its estimator:
BOUNDARY = "boundary map"  # estimator(bmap, r[, resolution])
BOUNDARY_OR_COEFFS = "boundary map or FourierCoeffs"  # estimator(source, r, order=order)
CLOSED_FORM = "closed form"  # estimator(family, r, param)


class AreaMethod(NamedTuple):
    takes: str
    estimator: str  # name of the estimator function in this module


# The estimators are named, not held, so each call looks the function up in
# this module and honours a rebinding of it (a test's monkeypatch, the
# benchmark's tracer).
REGISTRY = {
    GREEN_SPECTRAL: AreaMethod(BOUNDARY_OR_COEFFS, "area_green_spectral"),
    GREEN_QUADRATURE: AreaMethod(BOUNDARY, "area_green_quadrature"),
    KERNEL_DIRECT: AreaMethod(BOUNDARY, "area_kernel_direct"),
    KERNEL_FFT: AreaMethod(BOUNDARY, "area_kernel_fft"),
    JACOBIAN_GRID: AreaMethod(BOUNDARY_OR_COEFFS, "area_jacobian_grid"),
    EXACT_FAMILY: AreaMethod(CLOSED_FORM, "exact_family_area"),
}

METHODS = tuple(REGISTRY)


class HypothesisViolationError(ValueError):
    """The input breaks the hypothesis of the statement, not the statement itself."""


@dataclass(frozen=True)
class AreaEstimate:
    """One computed area with its method, resolution and convergence proxy."""

    value: float
    method: str
    resolution: int
    error_indicator: float


def kernel_sample_count(r: float) -> int:
    """Sample rule for the pair kernel, whose peak width scales like 1 - r^2."""
    return sample_count(r * r)


def area_kernel(r: float, alpha):
    """Antisymmetric pair kernel 2 r^2 (1 - r^4) sin(a) / (1 - 2 r^2 cos(a) + r^4)^2.

    Equals minus the derivative of the Poisson kernel at radius r^2, by the
    kernel composition law; the test oracle ``area_kernel_defining_integral``
    in ``tests/oracles.py`` checks that numerically.  Odd in alpha.
    """
    r = _check_radius(r)
    alpha = np.asarray(alpha, dtype=float)
    rho2 = r * r
    den = 1.0 - 2.0 * rho2 * np.cos(alpha) + rho2 * rho2
    out = 2.0 * rho2 * (1.0 - rho2 * rho2) * np.sin(alpha) / (den * den)
    return out if alpha.ndim else float(out)


def _coeffs_for(source: BoundaryMap | FourierCoeffs, order: int) -> FourierCoeffs:
    """Coefficients as given, or extracted from a boundary map at ``order``."""
    if isinstance(source, FourierCoeffs):
        return source
    return fourier_from_boundary(source, order=order)


def _spectral_terms(ns, cs, r: float) -> np.ndarray:
    """The terms n |c_n|^2 r^{2|n|} of the spectral area sum."""
    return ns * np.abs(cs) ** 2 * r ** (2 * np.abs(ns))


def spectral_area_sum(ns, cs, r: float) -> float:
    """pi * sum over n of n |c_n|^2 r^{2|n|} for indices ``ns`` and coefficients ``cs``."""
    return math.pi * float(np.sum(_spectral_terms(ns, cs, r)))


def _full_and_half_sums(coeffs: FourierCoeffs, terms) -> tuple[float, float]:
    """Sum of ``terms``, one per index of ``coeffs``, and its sum truncated at half the order.

    The difference of the two is the error indicator of a coefficient sum.
    A series with exact zeros is a closed form listed by its nonzero terms,
    not a truncation, so its half sum keeps every nonzero term (the shear
    z + c conj(z)^2 has order 2, and halving it would drop c_{-2}).
    """
    ns, cs = coeffs.indices, coeffs.coeffs
    half_order = max(1, coeffs.order // 2)
    if not np.all(cs):
        half_order = max(half_order, int(np.max(np.abs(ns[cs != 0]), initial=0)))
    return float(np.sum(terms)), float(np.sum(terms[coeffs.order - half_order : coeffs.order + half_order + 1]))


def area_green_spectral(source: BoundaryMap | FourierCoeffs, r: float, order: int = 256) -> AreaEstimate:
    """:func:`spectral_area_sum` of the series; negative indices count negatively.

    Boundary input is extracted at ``order`` first.  The error indicator is
    the change from the sum truncated at half the order, by the rule of
    :func:`_full_and_half_sums`.
    """
    r = _check_radius(r, allow_zero=False)
    coeffs = _coeffs_for(source, order)
    full, half = _full_and_half_sums(coeffs, _spectral_terms(coeffs.indices, coeffs.coeffs, r))
    full, half = math.pi * full, math.pi * half
    return AreaEstimate(full, GREEN_SPECTRAL, coeffs.order, abs(full - half))


def area_green_quadrature(bmap: BoundaryMap, r: float, n_samples: int = 1024) -> AreaEstimate:
    """(1/2) int Im(conj(f) f_theta) dtheta by uniform trapezoid on the circle.

    f and f_theta at the sample angles are the trapezoid Poisson integral of
    the boundary samples against P_r and dP_r/dt: circular convolutions, each
    one FFT product.  No Fourier coefficients are extracted or truncated.
    """
    r = _check_radius(r, allow_zero=False)
    if n_samples < 2:
        raise ValueError("green quadrature needs n_samples >= 2")

    def value(m: int) -> float:
        t = np.arange(m) * (TWO_PI / m)
        spectrum = np.fft.fft(boundary_values(bmap, t))
        f = np.fft.ifft(spectrum * np.fft.fft(poisson_kernel(r, t)))
        ft = np.fft.ifft(spectrum * np.fft.fft(poisson_kernel_deriv(r, t)))
        return math.pi * float(np.mean(np.imag(np.conj(f) * ft))) / (m * m)

    full = value(n_samples)
    half = value(n_samples // 2)
    return AreaEstimate(full, GREEN_QUADRATURE, n_samples, abs(full - half))


def _kernel_value(bmap: BoundaryMap, r: float, m: int, pair_sum) -> float:
    """Trapezoid sum of the pair kernel against the lift on m samples.

    ``pair_sum`` is :func:`pair_sums.sin_pair_sum` or :func:`pair_sums.sin_pair_sum_fft`,
    which take the lag sums afresh; the estimators read them from :func:`_lift_lag_sums`.
    """
    t = np.arange(m) * (TWO_PI / m)
    return (math.pi / (m * m)) * pair_sum(area_kernel(r, t), eval_lift(bmap, t))


# Each kernel route's sine lag sums of a lift and the dot of a kernel row with
# them, as in its pair sum; both are in pair_sums and named for the reason
# REGISTRY gives.
_KERNEL_ROUTES = {
    KERNEL_DIRECT: ("_direct_sine_lag_sums", "_odd_lag_dot"),
    KERNEL_FFT: ("_sine_lag_sums", "_lag_dot"),
}


@functools.lru_cache(maxsize=8)
def _lift_lag_sums(bmap: BoundaryMap, m: int, method: str) -> np.ndarray:
    """The sine lag sums of ``bmap``'s lift on m samples by ``method``'s route, read-only.

    Only the kernel row depends on r, so the radii of one map read one entry
    per sample count and route; 8 entries hold both sample counts of both
    routes for two maps.  A BoundaryMap is immutable and hashed by identity.
    The FFT route's sums stay the strided view its pair sum dots with: a
    contiguous copy would make ``np.dot`` round differently.
    """
    t = np.arange(m) * (TWO_PI / m)
    sums = getattr(pair_sums, _KERNEL_ROUTES[method][0])(eval_lift(bmap, t))
    sums.setflags(write=False)
    return sums


def _route_value(bmap: BoundaryMap, r: float, m: int, method: str) -> float:
    """:func:`_kernel_value` by ``method``'s pair sum, bit for bit, from the kept lag sums."""
    t = np.arange(m) * (TWO_PI / m)
    dot = getattr(pair_sums, _KERNEL_ROUTES[method][1])
    return (math.pi / (m * m)) * dot(area_kernel(r, t), _lift_lag_sums(bmap, m, method))


def _kernel_estimate(bmap: BoundaryMap, r: float, n_samples: int | None, method: str) -> AreaEstimate:
    r = _check_radius(r, allow_zero=False)
    m = kernel_sample_count(r) if n_samples is None else int(n_samples)
    if m < 2:
        raise ValueError("kernel quadrature needs n_samples >= 2")
    full = _route_value(bmap, r, m, method)
    half = _route_value(bmap, r, m // 2, method)
    return AreaEstimate(full, method, m, abs(full - half))


def area_kernel_direct(bmap: BoundaryMap, r: float, n_samples: int | None = None) -> AreaEstimate:
    """O(M^2) double trapezoid sum of (1/4pi) K(s - t) sin(lift(s) - lift(t)).

    The value of :func:`pair_sums.sin_pair_sum`; the map's direct lag sums
    are taken once per sample count and kept for its other radii.
    """
    return _kernel_estimate(bmap, r, n_samples, KERNEL_DIRECT)


def area_kernel_fft(bmap: BoundaryMap, r: float, n_samples: int | None = None) -> AreaEstimate:
    """Same finite sum as :func:`area_kernel_direct`, with the lift's circular
    sine lag sums taken by FFT, O(M log M), and kept alike."""
    return _kernel_estimate(bmap, r, n_samples, KERNEL_FFT)


def _jacobian_value(coeffs: FourierCoeffs, r: float, n_rho: int, n_theta: int) -> float:
    rho = (np.arange(n_rho) + 0.5) * (r / n_rho)
    dh, dg = wirtinger_on_circle(coeffs, rho, UniformGrid(n_theta, math.pi / n_theta))
    # sum over each ring of |h'|^2 and of |g'|^2 as the squared norm of the
    # ring's real and imaginary parts: no modulus and no n_rho x n_theta temporary
    h2, g2 = (np.einsum("ij,ij->i", v, v) for v in (dh.view(float), dg.view(float)))
    # add the rings one after another (accumulate is sequential), so the sum
    # does not depend on how a dot product would block it
    total = np.add.accumulate((h2 - g2) * rho)[-1]
    return float(total) * (r / n_rho) * (TWO_PI / n_theta)


def area_jacobian_grid(
    source: BoundaryMap | FourierCoeffs,
    r: float,
    n_rho: int = 1024,
    n_theta: int | None = None,
    order: int = 256,
) -> AreaEstimate:
    """Midpoint rule on a polar grid of int det Df rho drho dtheta.

    Valid as an image area only for injective orientation-preserving maps, so
    boundary input must be of homeomorphism kind; explicit coefficients are
    accepted for closed-form families whose injectivity the caller guarantees.
    The error indicator is the change from a grid of half as many rings (and
    half as many angles, at least 8), so the grid needs n_rho >= 2 and
    n_theta >= 1.

    Without ``n_theta`` the grid takes min(512, max(16, 2 N)) angles for a
    series of order N.  h' and g' are polynomials of degree below N, so det
    Df = |h'|^2 - |g'|^2 on a ring is a trigonometric polynomial of degree
    below N, which any N equally spaced angles integrate exactly.  Up to
    order 256 both grids, the half grid's max(8, n_theta // 2) angles
    included, are then exact in angle, and the error indicator measures only
    the radial midpoint error.  Orders of 256 and more keep 512 angles.
    """
    r = _check_radius(r, allow_zero=False)
    if n_rho < 2 or (n_theta is not None and n_theta < 1):
        raise ValueError("Jacobian grid needs n_rho >= 2 and n_theta >= 1")
    if isinstance(source, BoundaryMap) and source.kind != HOMEOMORPHISM:
        raise HypothesisViolationError("Jacobian-grid area requires a homeomorphism boundary map")
    coeffs = _coeffs_for(source, order)
    if n_theta is None:
        n_theta = min(512, max(16, 2 * coeffs.order))
    full = _jacobian_value(coeffs, r, n_rho, n_theta)
    half = _jacobian_value(coeffs, r, n_rho // 2, max(8, n_theta // 2))
    return AreaEstimate(full, JACOBIAN_GRID, n_rho, abs(full - half))


class MapFamily(NamedTuple):
    spec: str  # the spec form, "mobius:a"
    counts: tuple  # the numbers of colon-separated parameters a spec may have
    parse: str | None = None  # parser: a spec field or a builder's argument -> the validated parameter
    coeffs: str | None = None  # builder(*param) -> the exact FourierCoeffs
    boundary: str | None = None  # builder(*param) -> the BoundaryMap on the circle
    area: str | None = None  # builder(r, *param) -> the image area of the disk of radius r


def _bounded(value, bound: float, rule: str):
    """``value`` if |value| < bound, which NaN never is; else ValueError(rule)."""
    if not abs(value) < bound:
        raise ValueError(rule)
    return value


def _mobius_coeffs(a: complex) -> FourierCoeffs:
    """The series of (z - a) / (1 - conj(a) z), truncated at order 64."""
    entries = {0: -a}
    for n in range(1, 65):
        entries[n] = (1.0 - abs(a) ** 2) * np.conj(a) ** (n - 1)
    return FourierCoeffs.from_dict(entries)


def _mobius_area(r: float, a: complex) -> float:
    """pi R^2 with R = r (1 - |a|^2) / (1 - |a|^2 r^2), the standard image-disk
    radius, which the test suite confirms against the Jacobian oracle."""
    a = abs(a)
    radius = r * (1.0 - a * a) / (1.0 - a * a * r * r)
    return math.pi * radius * radius


_angle = lambda phi: _bounded(float(phi), math.inf, "omega must have unit modulus")
_shear_c = lambda c: _bounded(complex(c), 0.5, "shear parameter must satisfy |c| < 1/2")
_mobius_a = lambda a: _bounded(complex(a), 1.0, "Mobius parameter must satisfy |a| < 1")
_rotation_coeffs = lambda phi=0.0: FourierCoeffs.from_dict({1: np.exp(1j * phi)})
_shear_coeffs = lambda c: FourierCoeffs.from_dict({1: 1.0, -2: c})
_disk_area = lambda r, phi=0.0: math.pi * r * r
_shear_area = lambda r, c: math.pi * (r * r - 2.0 * abs(c) * abs(c) * r ** 4)

# The map families, in the order usage messages list them.  Parsers and builders
# are named, not held, for the reason REGISTRY gives; a builder is None where the
# family has none.  runner.parse_family expands random and step.
FAMILIES = {
    "identity": MapFamily("identity", (0,), None, "_rotation_coeffs", "make_identity", "_disk_area"),
    "rotation": MapFamily("rotation:phi", (1,), "_angle", "_rotation_coeffs", "make_rotation", "_disk_area"),
    "shear": MapFamily("shear:c", (1,), "_shear_c", "_shear_coeffs", None, "_shear_area"),  # z + c conj(z)^2
    "mobius": MapFamily("mobius:a", (1,), "_mobius_a", "_mobius_coeffs", "make_mobius_boundary", "_mobius_area"),
    "random": MapFamily("random:seeds:roughness", (1, 2)),
    "step": MapFamily("step:j1,j2@v1,v2", (1,)),
}


def family_parameter(family: str, fields) -> object:
    """``family``'s parameter from its spec fields, checked by its entry's
    parser; None if it takes none.  Too few or too many raise ValueError."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    entry = FAMILIES[family]
    if len(fields) not in entry.counts:
        raise ValueError(f"{family} takes {' or '.join(map(str, entry.counts))} parameter(s)")
    return globals()[entry.parse](*fields) if entry.parse else None


def build_family(family: str, form: str, param=None, *lead):
    """The ``form`` builder of ``family`` ("coeffs", "boundary" or "area") on
    ``lead`` and the parameter, which its entry's parser checks first."""
    param = family_parameter(family, () if param is None else (param,))
    builder = getattr(FAMILIES[family], form)
    if builder is None:
        raise ValueError(f"family {family!r} has no closed-form {form}")
    return globals()[builder](*lead, *(() if param is None else (param,)))


def family_coeffs(family: str, param=None) -> FourierCoeffs:
    """Exact Fourier coefficients of a closed-form family."""
    return build_family(family, "coeffs", param)


def exact_family_area(family: str, r: float, param=None) -> AreaEstimate:
    """Closed-form image area of a family at radius r."""
    r = _check_radius(r, allow_zero=False)
    return AreaEstimate(build_family(family, "area", param, r), EXACT_FAMILY, 0, 0.0)


def estimate_area(source, r: float, method: str = GREEN_SPECTRAL, order: int = 512,
                  resolution: int | None = None) -> AreaEstimate:
    """Area of the image of the disk of radius r under the harmonic extension.

    ``source`` is a BoundaryMap, a FourierCoeffs, or a family instance: an
    object with the map in ``source`` and its ``family`` and ``param``, such
    as ``runner.FamilyInstance``.  ``order`` is the extraction order of the
    methods that take coefficients; ``resolution`` is the sample count of
    the boundary quadratures, and None keeps each estimator's default.  An
    input the method's table entry does not take raises
    HypothesisViolationError.
    """
    if method not in REGISTRY:
        raise ValueError(f"unknown area method {method!r}")
    takes, name = REGISTRY[method]
    estimator = globals()[name]
    if isinstance(source, (BoundaryMap, FourierCoeffs)):
        data, family, param = source, None, None
    else:
        data, family, param = source.source, source.family, source.param
    if takes == CLOSED_FORM:
        closed = [name for name, entry in FAMILIES.items() if entry.area]
        if family not in closed:
            what = f"family {family!r}" if family else "a bare map"
            raise HypothesisViolationError(f"{method} needs a closed-form family ({', '.join(closed)}), not {what}")
        return estimator(family, r, param)
    if takes == BOUNDARY:
        if not isinstance(data, BoundaryMap):
            raise HypothesisViolationError(f"{method} needs boundary data on the circle")
        return estimator(data, r) if resolution is None else estimator(data, r, resolution)
    return estimator(data, r, order=order)
