"""Slow oracles that only the tests call.

Each one checks a statement the library relies on by a slow, direct route:
trapezoid quadrature of the kernel integrals, checked against their closed
forms, and plain lift arithmetic for the increment identities.  None of them
feeds a report row, so they live here and not in ``diskarea``.
"""

from __future__ import annotations

import numpy as np

from diskarea.circle_maps import TWO_PI, BoundaryMap, boundary_values, eval_lift
from diskarea.poisson import _check_radius, poisson_kernel, poisson_kernel_deriv
from diskarea.proof_checks import MonotoneProfile, _grid


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
