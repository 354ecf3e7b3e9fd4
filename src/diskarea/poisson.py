"""Poisson kernel, Fourier coefficients of boundary data, harmonic evaluation.

The harmonic extension of a boundary correspondence is evaluated through a
truncated two-sided Fourier series of the boundary function; direct periodic
quadrature of the kernel integral serves as the independent slow path in
tests.  Uniform trapezoid sums are used throughout: every integrand here is
2*pi-periodic and analytic for r < 1, so they converge spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle_maps import (
    NONDECREASING_STEP,
    TWO_PI,
    BoundaryMap,
    boundary_values,
    map_hash,
)


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


def sample_count(r: float, floor: int = 1024) -> int:
    """Power-of-two sample count resolving the kernel peak of width ~(1 - r).

    Trapezoid aliasing on the kernel decays like r^M ~ exp(-M (1 - r)), so
    32 samples per unit of 1/(1 - r) keeps it below 1e-10 through r = 0.99.
    """
    need = 32.0 / max(1.0 - r, 1e-12)
    m = floor
    while m < need:
        m *= 2
    return m


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


@dataclass(frozen=True)
class FourierCoeffs:
    """Truncated two-sided Fourier coefficients c_n, |n| <= order.

    ``coeffs[i]`` stores c_{i - order}.  ``source_hash`` identifies the
    boundary map and sample count that produced the data (empty for
    closed-form families).
    """

    coeffs: np.ndarray
    order: int
    source_hash: str = ""

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

    def truncated(self, order: int) -> "FourierCoeffs":
        if order >= self.order:
            return self
        lo = self.order - order
        return FourierCoeffs(self.coeffs[lo : lo + 2 * order + 1], order, self.source_hash)

    def to_json(self) -> str:
        import json

        triples = [[int(n), c.real, c.imag] for n, c in zip(self.indices, self.coeffs)]
        return json.dumps(triples)

    @classmethod
    def from_json(cls, text: str) -> "FourierCoeffs":
        import json

        triples = json.loads(text)
        ns = [int(row[0]) for row in triples]
        order = max(abs(n) for n in ns)
        c = np.zeros(2 * order + 1, dtype=complex)
        for n, re, im in triples:
            c[int(n) + order] = complex(re, im)
        return cls(c, order)

    @classmethod
    def from_dict(cls, entries: dict, source_hash: str = "") -> "FourierCoeffs":
        order = max(abs(int(n)) for n in entries)
        c = np.zeros(2 * order + 1, dtype=complex)
        for n, v in entries.items():
            c[int(n) + order] = complex(v)
        return cls(c, order, source_hash)


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
    return FourierCoeffs(c, order, f"{map_hash(bmap)}:{m}")


def _series(c, ns, rho, theta):
    """Truncated series sum_n c_n rho^|n| e^{i n theta} at every (rho, theta).

    Evaluated as a table of rho^|n| c_n, one row per radius, times a table of
    e^{i n theta}, one column per angle.  That is exact on any angle grid,
    without the aliasing an FFT has once there are fewer angles than terms.
    Leading axes of ``c`` hold series that share both tables.  The result has
    shape ``c.shape[:-1] + rho.shape + theta.shape``.
    """
    rho = _check_radius(rho)
    theta = np.asarray(theta, dtype=float)
    powers = np.reshape(rho, (-1, 1)) ** np.abs(ns) * c[..., None, :]
    phases = np.exp(1j * np.multiply.outer(ns, theta.ravel()))
    out = (powers @ phases).reshape(c.shape[:-1] + np.shape(rho) + theta.shape)
    return out if out.ndim else complex(out)


def eval_harmonic(coeffs: FourierCoeffs, r, theta):
    """Harmonic extension sum c_n r^{|n|} e^{i n theta}.

    ``r`` is a radius or an array of radii; the result has the shape of ``r``
    followed by the shape of ``theta``.
    """
    return _series(coeffs.coeffs, coeffs.indices, r, theta)


def eval_theta_derivative(coeffs: FourierCoeffs, r, theta):
    """Angular derivative: sum (i n) c_n r^{|n|} e^{i n theta}, shaped as :func:`eval_harmonic`."""
    return _series(1j * coeffs.indices * coeffs.coeffs, coeffs.indices, r, theta)


def eval_harmonic_direct(bmap: BoundaryMap, r: float, theta: float, n_samples: int = 2048) -> complex:
    """Slow-path harmonic extension by trapezoid quadrature of the kernel integral.

    Independent of the Fourier representation; used as the oracle for
    :func:`eval_harmonic`.
    """
    r = _check_radius(r)
    t = np.arange(n_samples) * (TWO_PI / n_samples)
    vals = boundary_values(bmap, t) * poisson_kernel(r, float(theta) - t)
    return complex(np.mean(vals))


def circle_values(coeffs: FourierCoeffs, r: float, n_samples: int) -> np.ndarray:
    """f(r e^{i theta_k}) on the uniform grid theta_k = 2 pi k / n, via one inverse FFT."""
    r = _check_radius(r)
    n = coeffs.order
    if n_samples < 2 * n + 1:
        raise ValueError("n_samples must exceed twice the truncation order")
    spectrum = np.zeros(n_samples, dtype=complex)
    damp = coeffs.coeffs * r ** np.abs(coeffs.indices)
    spectrum[: n + 1] = damp[n:]
    spectrum[n_samples - n :] = damp[:n]
    return np.fft.ifft(spectrum) * n_samples


def circle_theta_derivative(coeffs: FourierCoeffs, r: float, n_samples: int) -> np.ndarray:
    """f_theta on the same uniform circle grid as :func:`circle_values`."""
    r = _check_radius(r)
    n = coeffs.order
    if n_samples < 2 * n + 1:
        raise ValueError("n_samples must exceed twice the truncation order")
    spectrum = np.zeros(n_samples, dtype=complex)
    damp = 1j * coeffs.indices * coeffs.coeffs * r ** np.abs(coeffs.indices)
    spectrum[: n + 1] = damp[n:]
    spectrum[n_samples - n :] = damp[:n]
    return np.fft.ifft(spectrum) * n_samples


def wirtinger_on_circle(coeffs: FourierCoeffs, rho, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(dz f, conj of dzbar f) on the circle of radius rho.

    Splitting f = h(z) + conj(g(z)) into its analytic and co-analytic parts,
    returns (h'(z), g'(z)); the Jacobian determinant is |h'|^2 - |g'|^2.  An
    array of radii ``rho`` gives one row per circle.
    """
    n = coeffs.order
    k = np.arange(1, n + 1)
    series = np.stack([k * coeffs.coeffs[n + 1 :], k * np.conj(coeffs.coeffs[:n][::-1])])
    dh, dg = _series(series, k - 1, rho, thetas)
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
