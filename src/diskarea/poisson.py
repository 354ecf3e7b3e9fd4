"""Poisson kernel, Fourier coefficients of boundary data, harmonic evaluation.

The harmonic extension of a boundary correspondence is evaluated through a
truncated two-sided Fourier series of the boundary function; direct periodic
quadrature of the kernel integral serves as the independent slow path in
the tests (``tests/oracles.py``).  Uniform trapezoid sums are used
throughout: every integrand here is 2*pi-periodic and analytic for r < 1,
so they converge spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle_maps import NONDECREASING_STEP, TWO_PI, BoundaryMap, boundary_values


def _check_radius(r, allow_zero: bool = True):
    """Validate a radius, or an array of radii, as lying in [0, 1) (or (0, 1))."""
    ra = np.asarray(r, dtype=float)
    lo_ok = ra >= 0.0 if allow_zero else ra > 0.0
    if not np.all(lo_ok & (ra < 1.0)):
        raise ValueError(f"radius must lie in {'[0, 1)' if allow_zero else '(0, 1)'}, got {r}")
    return ra if ra.ndim else float(ra)


def poisson_kernel(r: float, t):
    """P_r(t) = (1 - r^2) / (1 - 2 r cos t + r^2); strictly positive for r < 1."""
    r = _check_radius(r)
    t = np.asarray(t, dtype=float)
    out = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(t) + r * r)
    return out if out.ndim else float(out)


def poisson_kernel_deriv(r: float, t):
    """d/dt P_r(t) = -2 r (1 - r^2) sin t / (1 - 2 r cos t + r^2)^2."""
    r = _check_radius(r)
    t = np.asarray(t, dtype=float)
    den = 1.0 - 2.0 * r * np.cos(t) + r * r
    out = -2.0 * r * (1.0 - r * r) * np.sin(t) / (den * den)
    return out if out.ndim else float(out)


def sample_count(r: float) -> int:
    """Power-of-two sample count, at least 1024, resolving the kernel peak of width ~(1 - r).

    Trapezoid aliasing on the kernel decays like r^M ~ exp(-M (1 - r)), so
    32 samples per unit of 1/(1 - r) keeps it below 1e-10 through r = 0.99.
    """
    need = 32.0 / max(1.0 - r, 1e-12)
    m = 1024
    while m < need:
        m *= 2
    return m


@dataclass(frozen=True)
class FourierCoeffs:
    """Truncated two-sided Fourier coefficients c_n, |n| <= order; ``coeffs[i]``
    stores c_{i - order}."""

    coeffs: np.ndarray
    order: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size != 2 * self.order + 1:
            raise ValueError("coeffs must hold exactly 2*order + 1 entries")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.order])

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.order, self.order + 1)

    @classmethod
    def from_dict(cls, entries: dict) -> "FourierCoeffs":
        order = max(abs(int(n)) for n in entries)
        c = np.zeros(2 * order + 1, dtype=complex)
        for n, v in entries.items():
            c[int(n) + order] = complex(v)
        return cls(c, order)


def fourier_from_boundary(bmap: BoundaryMap, order: int = 256, n_samples: int | None = None) -> FourierCoeffs:
    """DFT coefficients of the boundary function omega * exp(i * lift(t)).

    ``n_samples`` defaults to 4x oversampling of the truncation order, which
    keeps aliasing below the truncation error for the smooth corpus.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    m = 4 * order if n_samples is None else int(n_samples)
    if m < 4 * order:
        raise ValueError("n_samples must be at least 4*order")
    t = np.arange(m) * (TWO_PI / m)
    b = boundary_values(bmap, t)
    spectrum = np.fft.fft(b) / m
    c = np.empty(2 * order + 1, dtype=complex)
    c[order:] = spectrum[: order + 1]
    c[:order] = spectrum[m - order : m]
    # unimodular boundary data: the full series carries unit power
    power = float(np.sum(np.abs(c) ** 2))
    if power > 1.0 + 1e-9:
        raise ValueError(f"coefficient power {power} exceeds the unit-modulus bound")
    return FourierCoeffs(c, order)


class UniformGrid(NamedTuple):
    """The ``n_theta`` angles shift + 2 pi k / n_theta, k = 0 .. n_theta - 1.

    Passed where an evaluator takes angles, it makes the angle axis of the
    result the grid's ``n_theta`` angles.
    """

    n_theta: int
    shift: float = 0.0

    @property
    def angles(self) -> np.ndarray:
        return self.shift + np.arange(self.n_theta) * (TWO_PI / self.n_theta)


def _series(c, n0, rho, theta):
    """Truncated series sum_n c_n rho^|n| e^{i n theta} at every (rho, theta).

    ``c[..., i]`` is the coefficient of index n0 + i; leading axes of ``c``
    hold series evaluated together.  ``theta`` is a :class:`UniformGrid` or
    an array of angles, each of which is evaluated as a one-angle grid whose
    shift is that angle.  The result has shape ``c.shape[:-1] + rho.shape``
    followed by ``(n_theta,)`` for a grid and by ``theta.shape`` otherwise.
    ``rho`` is not range-checked: the public callers check it, and a
    polynomial may be evaluated on the unit circle.

    On theta_k = shift + 2 pi k / T, e^{i n theta_k} = e^{i n shift} w^{nk}
    with w = e^{2 pi i / T}, and w^{nk} depends on n only through n mod T.
    So the weights e^{i n shift} rho^|n| c_n are first folded, exactly, into
    at most T bins j = n mod T, and the bins are then contracted against the
    table w^{jk}, gathered from the T roots of unity by the integer index
    (j k) mod T.  No terms x angles exponential table is built, and more
    terms than angles cost one pass over the terms, not a larger product.
    The bins -> angles step stays a matrix product rather than a zero-padded
    FFT: on the Jacobian grid's shape (2 x 1024 rows of 64 bins, 512 angles)
    the padded FFT took about twice as long (13 against 6.5 ms, 2 vCPUs,
    numpy 2.4.6 with a 2-thread OpenBLAS).
    """
    rho = np.asarray(rho, dtype=float)
    if isinstance(theta, UniformGrid):
        n_theta, shift = int(theta.n_theta), np.asarray(float(theta.shift))
        tail = (n_theta,)
    else:
        shift = np.asarray(theta, dtype=float)
        n_theta, tail = 1, shift.shape
    ns = n0 + np.arange(c.shape[-1])
    shifted = c[..., None, :] * np.exp(1j * np.multiply.outer(shift.ravel(), ns))
    # one power per |n|: a two-sided series needs each of them twice
    powers = (np.reshape(rho, (-1, 1)) ** np.arange(np.max(np.abs(ns), initial=0) + 1))[:, np.abs(ns)]
    bins, residues = _fold(powers, shifted, n0, n_theta)
    roots = np.exp(1j * (TWO_PI / n_theta) * np.arange(n_theta))
    table = roots[np.multiply.outer(residues, np.arange(n_theta)) % n_theta]
    # one matrix product for every series, radius and shift together
    flat = bins.reshape(math.prod(bins.shape[:-1]), residues.size)
    out = (flat @ table).reshape(c.shape[:-1] + rho.shape + tail)
    return out if out.ndim else complex(out)


def _fold(powers, shifted, n0, n_bins):
    """Bins of the terms powers[r, i] * shifted[..., s, i], of index n0 + i, by index mod n_bins.

    Returns the occupied bins, shaped ``shifted.shape[:-2] + (radii, shifts,
    bins)``, and their residues.  One bin, as for explicit angles, sums
    every term: a matrix product over all radii and shifts, with no radii x
    shifts x terms array.  A grid has a single shift, and with no more terms
    than bins each term has a bin of its own.
    """
    if n_bins == 1:
        return (powers @ np.swapaxes(shifted, -1, -2))[..., None], np.zeros(1, dtype=int)
    weights = powers[:, None, :] * shifted[..., None, :, :]
    n_terms = weights.shape[-1]
    if n_terms <= n_bins:
        return weights, (n0 + np.arange(n_terms)) % n_bins
    lead = n0 % n_bins
    rows = -(-(lead + n_terms) // n_bins)
    padded = np.zeros(weights.shape[:-1] + (rows * n_bins,), dtype=complex)
    padded[..., lead : lead + n_terms] = weights
    return padded.reshape(weights.shape[:-1] + (rows, n_bins)).sum(axis=-2), np.arange(n_bins)


def eval_harmonic(coeffs: FourierCoeffs, r, theta):
    """Harmonic extension sum c_n r^{|n|} e^{i n theta}.

    ``r`` is a radius or an array of radii, and ``theta`` an array of angles
    or a :class:`UniformGrid`; the result has the shape of ``r`` followed by
    the shape of ``theta`` (``(n_theta,)`` for a grid).
    """
    return _series(coeffs.coeffs, -coeffs.order, _check_radius(r), theta)


def wirtinger_on_circle(coeffs: FourierCoeffs, rho, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(dz f, conj of dzbar f) on the circle of radius rho.

    Splitting f = h(z) + conj(g(z)) into its analytic and co-analytic parts,
    returns (h'(z), g'(z)); the Jacobian determinant is |h'|^2 - |g'|^2.  An
    array of radii ``rho`` gives one row per circle; ``thetas`` is an array
    of angles or a :class:`UniformGrid`, as in :func:`eval_harmonic`.
    """
    n = coeffs.order
    k = np.arange(1, n + 1)
    series = np.stack([k * coeffs.coeffs[n + 1 :], k * np.conj(coeffs.coeffs[:n][::-1])])
    dh, dg = _series(series, 0, _check_radius(rho), thetas)
    return dh, dg


def _poisson_antiderivative(r, x):
    """Monotone lift F with F'(x) = P_r(x), F(0) = 0, F(x + 2 pi) = F(x) + 2 pi."""
    x = np.asarray(x, dtype=float)
    k = np.round(x / TWO_PI)
    xm = x - TWO_PI * k
    base = 2.0 * np.arctan2((1.0 + r) * np.sin(xm / 2.0), (1.0 - r) * np.cos(xm / 2.0))
    return base + TWO_PI * k


def eval_harmonic_step(bmap: BoundaryMap, r, theta):
    """Exact harmonic extension of a step correspondence via arc measures.

    Integrates the kernel in closed form over each constancy arc, so the
    result carries no quadrature error even though the boundary data jumps.
    ``r`` may be an array of radii, shaped as in :func:`eval_harmonic`.
    """
    if bmap.kind != NONDECREASING_STEP:
        raise ValueError("exact arc evaluation applies to step maps only")
    r = _check_radius(r)
    theta = np.asarray(theta, dtype=float)
    t = bmap.knots_t
    vals = np.exp(1j * bmap.knots_lift[:-1])
    rr = np.reshape(r, np.shape(r) + (1,) * (theta.ndim + 1))
    th = theta[..., None]
    hi = _poisson_antiderivative(rr, th - t[:-1])
    lo = _poisson_antiderivative(rr, th - t[1:])
    out = bmap.omega * np.sum(vals * (hi - lo), axis=-1) / TWO_PI
    return out if out.ndim else complex(out)
