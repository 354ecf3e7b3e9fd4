"""Boundary circle correspondences: representation, generators, smoothing.

The central object is a nondecreasing, degree-one correspondence of the unit
circle, stored as the continuous lift of its angle function over one closed
period together with a unit-modulus prefactor.  Everything downstream
(Fourier coefficients, kernel quadrature, harmonic extension) consumes these
maps through :func:`eval_lift` alone, so period bookkeeping lives here and
nowhere else.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

HOMEOMORPHISM = "homeomorphism"
NONDECREASING_STEP = "nondecreasing-step"
KINDS = (HOMEOMORPHISM, NONDECREASING_STEP)

# constructor tolerances: monotonicity slack and unit-modulus slack
_MONO_TOL = 1e-12
_UNIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BoundaryMap:
    """Nondecreasing degree-one circle correspondence with unimodular prefactor.

    ``knots_t`` / ``knots_lift`` sample the lift over one closed period:
    ``knots_t[0] == 0``, ``knots_t[-1] == 2*pi`` and
    ``knots_lift[-1] == knots_lift[0] + 2*pi``.  Between knots the lift is
    interpolated linearly for kind ``homeomorphism`` and held constant
    (right-continuous) for kind ``nondecreasing-step``.  The first lift value
    is normalized into ``[0, 2*pi)``.  Instances are immutable, their knot
    arrays read-only.  Equality and hashing are by identity: two maps with
    equal knots are distinct objects, and a map can key a cache.
    """

    knots_t: np.ndarray
    knots_lift: np.ndarray
    omega: complex = 1.0 + 0.0j
    kind: str = HOMEOMORPHISM

    def __post_init__(self):
        t = np.ascontiguousarray(self.knots_t, dtype=float).copy()
        lift = np.ascontiguousarray(self.knots_lift, dtype=float).copy()
        if t.ndim != 1 or lift.ndim != 1 or t.shape != lift.shape:
            raise ValueError("knots_t and knots_lift must be 1-d arrays of equal length")
        if t.size < 2:
            raise ValueError("need at least the two period-closing knots")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        # each check is written to fail on NaN, so non-finite data is rejected
        if not (abs(t[0]) <= _MONO_TOL and abs(t[-1] - TWO_PI) <= _MONO_TOL):
            raise ValueError("knots must cover exactly one period [0, 2*pi]")
        dt = np.diff(t)
        if not np.all(dt > 0.0):
            raise ValueError("knot angles must be strictly increasing")
        dlift = np.diff(lift)
        if not np.all(dlift >= -_MONO_TOL):
            raise ValueError("lift values must be nondecreasing")
        if self.kind == HOMEOMORPHISM and not np.all(dlift > 0.0):
            raise ValueError("homeomorphism lift must be strictly increasing")
        if not abs((lift[-1] - lift[0]) - TWO_PI) <= _MONO_TOL:
            raise ValueError("lift must rise by exactly 2*pi over one period")
        w = complex(self.omega)
        if not abs(abs(w) - 1.0) <= _UNIT_TOL:
            raise ValueError("omega must have unit modulus")
        # normalize: pin the period endpoints and the starting branch
        t[0] = 0.0
        t[-1] = TWO_PI
        # the whole-period shift can leave lift[0] just below 0 or round it
        # onto 2 pi (a lift that starts at -1e-17 shifts to 2 pi; one at
        # -5e-324 has a floor of 0), so one step up and then one step down put
        # it in [0, 2 pi): a normalized map is then left as it is, and
        # from_json(to_json(m)) gives back m's bits.  The rise check above
        # rejects lifts large enough for the shift to miss by a whole period.
        k = math.floor(lift[0] / TWO_PI)
        if k != 0:
            lift = lift - TWO_PI * k
        if lift[0] < 0.0:
            lift = lift + TWO_PI
        if lift[0] >= TWO_PI:
            lift = lift - TWO_PI
        lift[-1] = lift[0] + TWO_PI
        t.setflags(write=False)
        lift.setflags(write=False)
        object.__setattr__(self, "knots_t", t)
        object.__setattr__(self, "knots_lift", lift)
        object.__setattr__(self, "omega", w)

    @property
    def n_knots(self) -> int:
        return int(self.knots_t.size)


def eval_lift(bmap: BoundaryMap, t):
    """Continuous lift of the correspondence at angle(s) ``t``.

    The argument is reduced modulo ``2*pi`` and the removed whole periods are
    added back verbatim, so values a full period apart differ by exactly
    ``2*pi`` up to the rounding of the caller's argument, never by a
    quadrature-sized error.
    """
    ta = np.asarray(t, dtype=float)
    tm = np.mod(ta, TWO_PI)
    shift = ta - tm
    if bmap.kind == HOMEOMORPHISM:
        base = np.interp(tm, bmap.knots_t, bmap.knots_lift)
    else:
        idx = np.searchsorted(bmap.knots_t, tm, side="right") - 1
        idx = np.clip(idx, 0, bmap.knots_t.size - 1)
        base = bmap.knots_lift[idx]
    out = base + shift
    return out if ta.ndim else float(out)


def boundary_values(bmap: BoundaryMap, t):
    """Boundary function omega * exp(i * lift(t)) on the unit circle."""
    return bmap.omega * np.exp(1j * eval_lift(bmap, t))


def make_rotation(phi0: float = 0.0) -> BoundaryMap:
    """Rotation of the disk by angle phi0: identity correspondence, prefactor e^{i phi0}."""
    return BoundaryMap(
        knots_t=np.array([0.0, TWO_PI]),
        knots_lift=np.array([0.0, TWO_PI]),
        omega=cmath.exp(1j * phi0),
        kind=HOMEOMORPHISM,
    )


def make_identity() -> BoundaryMap:
    return make_rotation(0.0)


def make_mobius_boundary(a: complex, n_knots: int = 4096) -> BoundaryMap:
    """Boundary correspondence of the disk automorphism z -> (z - a) / (1 - conj(a) z).

    The angle function is sampled on ``n_knots`` uniform points and stored as
    a piecewise-linear lift, so downstream quadrature sees an O(1/n_knots^2)
    interpolation of the true automorphism.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise ValueError("Mobius parameter must satisfy |a| < 1")
    if n_knots < 4:
        raise ValueError("n_knots must be at least 4")
    if a == 0:
        return make_identity()
    t = np.linspace(0.0, TWO_PI, n_knots + 1)
    z = np.exp(1j * t[:-1])
    ang = np.angle((z - a) / (1.0 - np.conj(a) * z))
    lift = np.unwrap(ang)
    lift = np.append(lift, lift[0] + TWO_PI)
    return BoundaryMap(knots_t=t, knots_lift=lift, omega=1.0 + 0.0j, kind=HOMEOMORPHISM)


def make_random_homeomorphism(
    seed: int,
    n_knots: int = 256,
    roughness: float = 0.5,
    half_turn_symmetric: bool = False,
) -> BoundaryMap:
    """Seeded random boundary homeomorphism from normalized positive increments.

    Increments are exp(roughness * N(0,1)) on a uniform grid, rescaled so the
    lift rises by exactly 2*pi; the prefactor is drawn uniformly from the unit
    circle out of the same stream.  Deterministic in ``seed``.  With
    ``half_turn_symmetric`` the lift satisfies lift(t + pi) = lift(t) + pi,
    which centers the harmonic extension at the origin exactly.
    """
    if n_knots < 4:
        raise ValueError("n_knots must be at least 4")
    if not 0.0 < roughness < 1.0:
        raise ValueError("roughness must lie in (0, 1)")
    if half_turn_symmetric and n_knots % 2:
        raise ValueError("half_turn_symmetric needs an even n_knots")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(n_knots // 2 if half_turn_symmetric else n_knots)
    if half_turn_symmetric:
        draws = np.concatenate([draws, draws])
    lift = _random_lift(draws, roughness)
    omega = cmath.exp(1j * TWO_PI * rng.uniform())
    t = np.linspace(0.0, TWO_PI, n_knots + 1)
    return BoundaryMap(knots_t=t, knots_lift=lift, omega=omega, kind=HOMEOMORPHISM)


def _random_lift(draws, roughness: float) -> np.ndarray:
    """The lifts of :func:`make_random_homeomorphism` from standard normal
    ``draws``, one lift of draws.shape[-1] + 1 knots per row of the last axis.

    Each row's increments exp(roughness * draw) are summed from 0 and scaled
    to rise by exactly 2*pi.  The proof checks' random profiles are built by
    it too, a block of rows at a time; a row's lift is the same, bit for bit,
    whether it is lifted alone or in a block.
    """
    lift = np.zeros(draws.shape[:-1] + (draws.shape[-1] + 1,))
    np.cumsum(np.exp(roughness * draws), axis=-1, out=lift[..., 1:])
    lift *= TWO_PI / lift[..., -1:]
    lift[..., -1] = TWO_PI
    return lift


def make_step_map(jump_points, values) -> BoundaryMap:
    """Nondecreasing step correspondence: lift equals values[i] on [jump_i, jump_{i+1}).

    Before the first jump the lift continues the last value from the previous
    period (values[-1] - 2*pi).  ``values`` must be nondecreasing and span at
    most 2*pi, so the wrap jump closes the period.
    """
    s = np.asarray(jump_points, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.ndim != 1 or v.ndim != 1 or s.size != v.size or s.size < 1:
        raise ValueError("jump_points and values must be equal-length nonempty 1-d sequences")
    if not (np.all(np.diff(s) > 0.0) and 0.0 <= s[0] and s[-1] < TWO_PI):
        raise ValueError("jump points must be strictly increasing within [0, 2*pi)")
    if not np.all(np.diff(v) >= 0.0):
        raise ValueError("step values must be nondecreasing")
    if not v[-1] - v[0] <= TWO_PI + _MONO_TOL:
        raise ValueError("step values must rise by at most 2*pi over one period")
    if s[0] > 0.0:
        t = np.concatenate([[0.0], s, [TWO_PI]])
        lift = np.concatenate([[v[-1] - TWO_PI], v, [v[-1]]])
    else:
        t = np.concatenate([s, [TWO_PI]])
        lift = np.concatenate([v, [v[0] + TWO_PI]])
    return BoundaryMap(knots_t=t, knots_lift=lift, omega=1.0 + 0.0j, kind=NONDECREASING_STEP)


def mollify_map(bmap: BoundaryMap, width: float = TWO_PI / 64) -> BoundaryMap:
    """Smooth the periodic part of the lift by a wrapped-Gaussian of the given width.

    The deviation lift(t) - t is filtered in Fourier space with the positive
    kernel exp(-(n*width)^2 / 2), which preserves monotonicity, then resampled
    on 8192 piecewise-linear knots.  Restores spectral quadrature accuracy
    for piecewise-linear inputs.
    """
    if not 0.0 < width < math.inf:
        raise ValueError("width must be positive and finite")
    if bmap.kind != HOMEOMORPHISM:
        raise ValueError("only homeomorphisms are mollified")
    n = 8192  # knots of every mollified map
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    zeta = eval_lift(bmap, t) - t
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    damp = np.exp(-0.5 * (freqs * width) ** 2)
    zeta_s = np.fft.ifft(np.fft.fft(zeta) * damp).real
    lift = t + zeta_s
    knots_t = np.append(t, TWO_PI)
    knots_lift = np.append(lift, lift[0] + TWO_PI)
    return BoundaryMap(knots_t=knots_t, knots_lift=knots_lift, omega=bmap.omega, kind=bmap.kind)


def conjugate_map(bmap: BoundaryMap) -> BoundaryMap:
    """Correspondence of z -> conj(f(conj(z))): reverses the circle twice.

    Used as the preprocessing step that reduces orientation-reversing input
    data to the orientation-preserving form handled everywhere else.  The
    operation is an involution.  A knot angle t near 0 whose 2 pi - t rounds
    onto the next reflected knot, or onto 2 pi, moves down to one ulp below
    that knot; a map whose reflected knots stay distinct keeps their bits.
    """
    t = TWO_PI - bmap.knots_t[::-1]
    if not np.all(np.diff(t) > 0.0):
        t = t.tolist()
        for i in range(len(t) - 2, 0, -1):
            t[i] = min(t[i], math.nextafter(t[i + 1], 0.0))
    lift = -bmap.knots_lift[::-1]
    return BoundaryMap(knots_t=t, knots_lift=lift, omega=np.conj(bmap.omega), kind=bmap.kind)


def to_json(bmap: BoundaryMap) -> str:
    """Serialize to the wire schema; round-trips bit-exactly (repr floats)."""
    doc = {
        "kind": bmap.kind,
        "omega_re": bmap.omega.real,
        "omega_im": bmap.omega.imag,
        "knots": [[float(a), float(b)] for a, b in zip(bmap.knots_t, bmap.knots_lift)],
    }
    return json.dumps(doc)


def from_json(text: str) -> BoundaryMap:
    """Parse the wire schema; malformed documents raise ``ValueError``."""
    # JSON integers read as floats, so one too large for a double is inf, not an OverflowError
    doc = json.loads(text, parse_int=float)
    if not isinstance(doc, dict) or not {"kind", "omega_re", "omega_im", "knots"} <= doc.keys():
        raise ValueError("boundary-map JSON needs the keys kind, omega_re, omega_im and knots")
    if not all(type(doc[key]) is float for key in ("omega_re", "omega_im")):  # a bool is no number
        raise ValueError("boundary-map JSON omega_re and omega_im must be numbers")
    knots = doc["knots"]  # numbers only, as for omega: a string, bool, object or null is no knot
    pairs = type(knots) is list and bool(knots) and all(type(k) is list and len(k) == 2 for k in knots)
    if not (pairs and all(type(x) is float for k in knots for x in k)):
        raise ValueError("boundary-map JSON knots must be a list of [t, lift] number pairs")
    knots = np.array(knots)
    return BoundaryMap(
        knots_t=knots[:, 0],
        knots_lift=knots[:, 1],
        omega=complex(doc["omega_re"], doc["omega_im"]),
        kind=doc["kind"],
    )
