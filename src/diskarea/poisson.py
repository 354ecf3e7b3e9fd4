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
import operator
from dataclasses import dataclass

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


class NumericalFailureError(ArithmeticError):
    """A computation on valid input broke an invariant it must keep.

    Not a ValueError: the input is not at fault, so the command line reports
    it apart from usage errors.
    """


def fourier_from_boundary(bmap: BoundaryMap, order: int = 256, n_samples: int | None = None) -> FourierCoeffs:
    """DFT coefficients of the boundary function omega * exp(i * lift(t)).

    ``n_samples`` defaults to 4x oversampling of the truncation order, which
    keeps aliasing below the truncation error for the smooth corpus.
    Unimodular samples carry unit power, so coefficients whose power exceeds
    1 + 1e-9 raise NumericalFailureError.
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
        raise NumericalFailureError(f"coefficient power {power} exceeds the unit-modulus bound")
    return FourierCoeffs(c, order)


@dataclass(frozen=True)
class UniformGrid:
    """The ``n_theta`` angles shift + 2 pi k / n_theta, k = 0 .. n_theta - 1.

    Passed where an evaluator takes angles, it makes the angle axis of the
    result the grid's ``n_theta`` angles.  ``n_theta`` must be an integer of
    at least 1 and ``shift`` finite.
    """

    n_theta: int
    shift: float = 0.0

    def __post_init__(self):
        try:
            n_theta = operator.index(self.n_theta)
        except TypeError:
            raise ValueError(f"n_theta must be an integer, got {self.n_theta!r}") from None
        if n_theta < 1:
            raise ValueError(f"n_theta must be at least 1, got {n_theta}")
        shift = float(self.shift)
        if not math.isfinite(shift):
            raise ValueError(f"shift must be finite, got {self.shift!r}")
        object.__setattr__(self, "n_theta", n_theta)
        object.__setattr__(self, "shift", shift)

    @property
    def angles(self) -> np.ndarray:
        return self.shift + np.arange(self.n_theta) * (TWO_PI / self.n_theta)


def _series(c, n0, rho, theta, power_table=None):
    """Truncated series sum_n c_n rho^|n| e^{i n theta} at every (rho, theta).

    ``c[..., i]`` is the coefficient of index n0 + i; leading axes of ``c``
    hold series evaluated together.  ``theta`` is a :class:`UniformGrid` or
    an array of angles, each of which is evaluated as a one-angle grid whose
    shift is that angle.  The result has shape ``c.shape[:-1] + rho.shape``
    followed by ``(n_theta,)`` for a grid and by ``theta.shape`` otherwise.
    ``rho`` is not range-checked: the public callers check it, and a
    polynomial may be evaluated on the unit circle.  ``power_table``, if
    given, is the :func:`_power_table` of ``rho`` up to at least the largest
    |n|; the radial powers are read from it instead of being taken again,
    with the same values bit for bit.

    On theta_k = shift + 2 pi k / T, e^{i n theta_k} = e^{i n shift} w^{nk}
    with w = e^{2 pi i / T}, and w^{nk} depends on n only through n mod T, so
    no terms x angles exponential is evaluated.  The product rho^|n| *
    (c_n e^{i n shift}) * w^{nk} is taken in one of two orders, whichever
    builds the smaller complex operand:

    * weights first: the weights rho^|n| c_n e^{i n shift} (series x radii x
      terms) are folded, exactly, into the T bins j = n mod T, and one
      unscaled inverse FFT of length T sums the bins into the angles.  More
      terms than angles then cost one pass over the terms, not a larger
      transform, and only the one-bin sum (T = 1) calls BLAS;
    * radial powers last, for a grid with no more terms than angles and more
      radii than angles: the weighted table c_n e^{i n shift} w^{nk} (terms
      x series x angles), gathered from the T roots of unity by the index
      (n k) mod T, is built once, and the real powers multiply its float
      view in one real matrix product, half the flops of the complex one.
      On the Jacobian grid of an order-64 series (1024 radii, 128 angles,
      2 x 64 terms) one call took about 1.6 instead of 2.5 ms (best of 41,
      2 vCPUs, numpy 2.4.6 with a 2-thread OpenBLAS; 1.8 ms with one BLAS
      thread); the weights-first fold and FFT, with the terms written in
      place, took about 4.0 ms on that shape (best of 41; 3.9-4.9 ms over
      four runs, against 4.9-7.0 ms when the fold copied its terms), more
      than one and a half times the complex product.
    """
    rho = np.asarray(rho, dtype=float)
    if isinstance(theta, UniformGrid):
        n_theta, shift = theta.n_theta, np.asarray(theta.shift)
        tail = (n_theta,)
    else:
        shift = np.asarray(theta, dtype=float)
        n_theta, tail = 1, shift.shape
    lead, n_terms = c.shape[:-1], c.shape[-1]
    ns = n0 + np.arange(n_terms)
    shifted = c[..., None, :] * np.exp(1j * np.multiply.outer(shift.ravel(), ns))
    powers = _radial_powers(rho, ns, c, power_table)
    if isinstance(theta, UniformGrid) and n_terms <= n_theta < powers.shape[0]:
        roots = np.exp(1j * (TWO_PI / n_theta) * np.arange(n_theta))
        table = roots[np.multiply.outer(ns % n_theta, np.arange(n_theta)) % n_theta]
        # B[n, series, k], whose float view interleaves real and imaginary parts
        n_series = math.prod(lead)
        weighted = np.swapaxes(shifted.reshape(n_series, n_terms), 0, 1)[:, :, None] * table[:, None, :]
        flat = (powers @ weighted.reshape(n_terms, n_series * n_theta).view(float)).view(complex)
        # radii lead the product's rows: move them behind the series axes, as a view
        radii_axes = range(rho.ndim)
        return np.moveaxis(flat.reshape(rho.shape + lead + tail), radii_axes, [len(lead) + i for i in radii_axes])
    # bin j carries w^{jk}, so sum_j bin_j w^{jk} is the bins' unscaled inverse DFT
    out = np.fft.ifft(_fold(powers, shifted, n0, n_theta), axis=-1, norm="forward").reshape(lead + rho.shape + tail)
    return out if out.ndim else complex(out)


def _power_table(rho, top):
    """rho^k for every radius (rows) and k = 0 .. top (columns)."""
    return np.reshape(rho, (-1, 1)) ** np.arange(top + 1)


def _radial_powers(rho, ns, c, power_table=None):
    """rho^|n| for every radius (rows) and index n of ``ns`` (columns).

    The powers are gathered from ``power_table``, the :func:`_power_table` of
    these radii up to at least the largest |n|, if one is given, and otherwise
    from a table built here with one power per |n|, since a two-sided series
    needs each of them twice.  A power whose term rho^|n| * max |c_n| over the
    stacked series ``c`` falls below the smallest normal double is set to
    zero: it cannot change a sum that is a normal number, and subnormal
    operands take the CPU's slow path through every product that follows.
    """
    if power_table is None:
        power_table = _power_table(rho, np.max(np.abs(ns), initial=0))
    powers = power_table[:, np.abs(ns)]
    scale = np.max(np.abs(c), axis=tuple(range(c.ndim - 1)), initial=0.0)
    powers[powers * scale < np.finfo(float).tiny] = 0.0
    return powers


def _fold(powers, shifted, n0, n_bins):
    """Bins of the terms powers[r, i] * shifted[..., s, i], of index n0 + i, by index mod n_bins.

    Returns the bins 0 .. n_bins - 1, shaped ``shifted.shape[:-2] + (radii,
    shifts, n_bins)``.  One bin, as for explicit angles, sums every term: a
    matrix product over all radii and shifts, with no radii x shifts x terms
    array.  A grid has a single shift, and with no more terms than bins each
    term has a bin of its own.

    The terms are written straight into a zero-padded buffer of whole rows
    of bins, which is then summed over its rows; terms that fit in one row
    are their own bins.
    """
    if n_bins == 1:
        return (powers @ np.swapaxes(shifted, -1, -2))[..., None]
    n_terms = powers.shape[-1]
    lead = n0 % n_bins
    rows = -(-(lead + n_terms) // n_bins)
    shape = shifted.shape[:-2] + (powers.shape[0], shifted.shape[-2])
    padded = np.zeros(shape + (rows * n_bins,), dtype=complex)
    np.multiply(powers[:, None, :], shifted[..., None, :, :], out=padded[..., lead : lead + n_terms])
    if rows == 1:
        return padded
    return padded.reshape(shape + (rows, n_bins)).sum(axis=-2)


def eval_harmonic(coeffs: FourierCoeffs, r, theta, *, _powers=None):
    """Harmonic extension sum c_n r^{|n|} e^{i n theta}.

    ``r`` is a radius or an array of radii, and ``theta`` an array of angles
    or a :class:`UniformGrid`; the result has the shape of ``r`` followed by
    the shape of ``theta`` (``(n_theta,)`` for a grid).  The private
    ``_powers`` is passed on to :func:`_series` as its ``power_table``.
    """
    return _series(coeffs.coeffs, -coeffs.order, _check_radius(r), theta, _powers)


def wirtinger_on_circle(coeffs: FourierCoeffs, rho, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(dz f, conj of dzbar f) on the circle of radius rho.

    Splitting f = h(z) + conj(g(z)) into its analytic and co-analytic parts,
    returns (h'(z), g'(z)); the Jacobian determinant is |h'|^2 - |g'|^2.  An
    array of radii ``rho`` gives one row per circle; ``thetas`` is an array
    of angles or a :class:`UniformGrid`, as in :func:`eval_harmonic`.  The
    two series are evaluated together, so ``dh`` and ``dg`` are views of one
    buffer, and neither need be contiguous.
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
