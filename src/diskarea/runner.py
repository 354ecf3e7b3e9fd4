"""Sweep configuration, family-spec parsing, suite execution, report emission.

Family specs are small colon-separated strings (``random:0..99:0.5``,
``mobius:0.3``).  ``run_area`` and each suite make their rows in order, and
:func:`_timed_rows` turns them into the report: it times each row from the
previous one and sorts the rows in a fixed order, so identical configs
produce byte-identical reports apart from the wall-time column, and a run's
rows add up to its wall time.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import proof_checks, verify
from .area import GREEN_SPECTRAL, METHODS, estimate_area, family_boundary_map, family_coeffs
from .circle_maps import (
    TWO_PI,
    BoundaryMap,
    conjugate_map,
    make_identity,
    make_random_homeomorphism,
    make_rotation,
    make_step_map,
    mollify_map,
)
from .poisson import FourierCoeffs, eval_harmonic_step, fourier_from_boundary
from .verify import HypothesisViolationError, VerdictRecord

SCHEMA_VERSION = 1

AREA_COLUMNS = ("schema", "map_id", "r", "method", "value", "error_indicator", "wall_time_ms")
VERIFY_COLUMNS = (
    "schema",
    "check_name",
    "map_id",
    "family",
    "params",
    "r",
    "method",
    "lhs",
    "rhs",
    "slack",
    "tolerance",
    "passed",
    "resolution",
    "error_indicator",
    "wall_time_ms",
)

MAX_RADIUS = 0.97  # kernel concentration cap for sweep radii
MOLLIFY_WIDTHS = (TWO_PI / 32, TWO_PI / 64, TWO_PI / 128)  # the default smoothing widths of the contraction suite
PROOF_PROFILES, PROOF_CHAINS = 500, 200  # the proof suite's seeded profiles, independent of the seeds


class ConfigError(ValueError):
    """Malformed family spec or sweep configuration (a usage error)."""


@dataclass
class SweepConfig:
    families: list = field(default_factory=list)
    radii: list = field(default_factory=list)
    methods: list = field(default_factory=lambda: [GREEN_SPECTRAL])
    resolution: int = 1024
    order: int = 512
    seeds: list = field(default_factory=lambda: list(range(100)))
    mollify: list = field(default_factory=lambda: list(MOLLIFY_WIDTHS))
    conjugate: bool = False

    def validate_radii(self):
        if not self.radii:
            raise ConfigError("at least one radius is required")
        for r in self.radii:
            if not 0.0 < r <= MAX_RADIUS:
                raise ConfigError(f"radius {r} outside (0, {MAX_RADIUS}]")


@dataclass(frozen=True)
class FamilyInstance:
    """One concrete map drawn from a family spec.

    ``param`` is the parsed parameter of a closed-form family (None for the
    identity and for families without a closed form); ``area.estimate_area``
    takes an instance as its source.
    """

    family: str
    params: str
    map_id: str
    source: object  # BoundaryMap | FourierCoeffs
    param: object = None


_PARAM_NAMES = {"rotation": "phi", "mobius": "a", "shear": "c"}
# the numbers of colon-separated parameters each family's spec may have
_SPEC_PARAMS = {"identity": (0,), "rotation": (1,), "mobius": (1,), "shear": (1,), "step": (1,), "random": (1, 2)}


def parse_seed_range(text: str) -> list[int]:
    """``n`` or the inclusive range ``lo..hi``; an empty range is a usage error."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
        if not seeds:
            raise ConfigError(f"empty seed range {text!r}")
        return seeds
    return [int(text)]


def parse_family(spec: str) -> list[FamilyInstance]:
    """Expand one family spec into concrete map instances."""
    parts = spec.split(":")
    name = parts[0]
    if name not in _SPEC_PARAMS:
        raise ConfigError(f"unknown family {name!r}")
    if len(parts) - 1 not in _SPEC_PARAMS[name]:
        counts = " or ".join(map(str, _SPEC_PARAMS[name]))
        raise ConfigError(f"bad family spec {spec!r}: {name} takes {counts} parameter(s)")
    try:
        if name == "identity":
            return [FamilyInstance("identity", "", "identity", family_boundary_map("identity"))]
        if name in _PARAM_NAMES:
            param = float(parts[1]) if name == "rotation" else complex(parts[1])
            # shear is not unimodular on the circle, so it is given by coefficients
            source = family_coeffs(name, param) if name == "shear" else family_boundary_map(name, param)
            return [FamilyInstance(name, f"{_PARAM_NAMES[name]}={parts[1]}", spec, source, param)]
        if name == "random":
            seeds = parse_seed_range(parts[1])
            roughness = float(parts[2]) if len(parts) > 2 else 0.5
            return [
                FamilyInstance(
                    "random",
                    f"seed={s},roughness={roughness:g}",
                    f"random:{s}:{roughness:g}",
                    make_random_homeomorphism(s, roughness=roughness),
                )
                for s in seeds
            ]
        # step, the one family left
        jumps_text, values_text = parts[1].split("@", 1)
        jumps = [float(x) for x in jumps_text.split(",")]
        values = [float(x) for x in values_text.split(",")]
        return [FamilyInstance("step", parts[1], spec, make_step_map(jumps, values))]
    except ValueError as exc:
        raise ConfigError(f"bad family spec {spec!r}: {exc}") from exc


def expand_families(config: SweepConfig) -> list[FamilyInstance]:
    if not config.families:
        raise ConfigError("at least one family is required")
    out = []
    for spec in config.families:
        out.extend(parse_family(spec))
    if config.conjugate:
        out = [replace(inst, map_id=inst.map_id + "|conj", source=_conjugate_source(inst.source)) for inst in out]
    return out


def _conjugate_source(source):
    if isinstance(source, BoundaryMap):
        return conjugate_map(source)
    return FourierCoeffs(np.conj(source.coeffs), source.order)


def _timed_rows(rows, order) -> list[dict]:
    """The rows of a generator, stamped with the schema and their wall time, sorted by ``order``.

    Each row is timed from the previous one (the first from the call), so set-up such as a
    map's generation lands on the first row made after it, and the rows add up to the run's time.
    """
    out = []
    last = time.perf_counter()
    for row in rows:
        now = time.perf_counter()
        row.update(schema=SCHEMA_VERSION, wall_time_ms=round((now - last) * 1e3, 3))
        out.append(row)
        last = now
    out.sort(key=order)
    return out


def run_area(config: SweepConfig) -> list[dict]:
    """One row per map, radius and method, sorted by (map_id, r, method)."""
    return _timed_rows(_area_rows(config), operator.itemgetter("map_id", "r", "method"))


def _area_rows(config: SweepConfig):
    config.validate_radii()
    if not config.methods:
        raise ConfigError("at least one area method is required")
    for m in config.methods:
        if m not in METHODS:
            raise ConfigError(f"unknown area method {m!r} (choose from {sorted(METHODS)})")
    # every spec is parsed before the first estimate, so a bad one costs no work
    for inst in expand_families(config):
        for r in config.radii:
            for method in config.methods:
                est = estimate_area(inst, r, method, order=config.order, resolution=config.resolution)
                yield {"map_id": inst.map_id, "r": r, "method": method,
                       "value": est.value, "error_indicator": est.error_indicator}


def _record_row(rec: VerdictRecord, family: str, params: str) -> dict:
    """The record's fields, with ``passed`` as true/false/inconclusive, plus the labels.

    The fields are all scalars, so a shallow copy serves; ``dataclasses.asdict``
    would deep-copy each one, at about 20 us a row.
    """
    row = dict(vars(rec))
    inconclusive = row.pop("inconclusive")
    row["passed"] = "inconclusive" if inconclusive else ("true" if rec.passed else "false")
    row.update(family=family, params=params)
    return row


def _suite(checks):
    """A suite from a generator of (record, family, params): the same config argument,
    its radii validated first, and the timed report rows sorted by (check_name, map_id, r)."""

    @functools.wraps(checks)
    def suite(config: SweepConfig) -> list[dict]:
        config.validate_radii()
        rows = itertools.starmap(_record_row, checks(config))
        return _timed_rows(rows, operator.itemgetter("check_name", "map_id", "r"))

    return suite


def _contraction_tasks(config: SweepConfig):
    for seed in config.seeds:
        base = make_random_homeomorphism(seed, roughness=0.5)
        for width in config.mollify:
            yield FamilyInstance(
                "random",
                f"seed={seed},roughness=0.5,moll={width:.6g}",
                f"random:{seed}:0.5|moll={width:.6g}",
                mollify_map(base, width=width),
            )


@_suite
def run_contraction_suite(config: SweepConfig):
    if not config.mollify:
        raise ConfigError("at least one smoothing width is required")
    for inst in _contraction_tasks(config):
        coeffs = fourier_from_boundary(inst.source, order=config.order)
        for r in config.radii:
            rec = verify.check_area_contraction(coeffs, r, map_id=inst.map_id)
            yield rec, inst.family, inst.params


@_suite
def run_equality_suite(config: SweepConfig):
    for phi in (0.0, 1.0, math.pi / 2, math.pi):
        inst_id = f"rotation:{phi:g}"
        coeffs = fourier_from_boundary(make_rotation(phi), order=config.order)
        for r in config.radii:
            slack = verify.check_area_contraction(coeffs, r).slack
            rec = verify.make_verdict("equality-rotation", inst_id, r, abs(slack), 0.0, 1e-8, config.order,
                                      method=GREEN_SPECTRAL)
            yield rec, "rotation", f"phi={phi:g}"
    # a non-rotation's contraction slack must stand clear of its resolution error
    for seed in config.seeds[:20]:
        bmap = mollify_map(make_random_homeomorphism(seed, roughness=0.5))
        coeffs = fourier_from_boundary(bmap, order=config.order)
        for r in config.radii:
            area = verify.check_area_contraction(coeffs, r)
            rec = verify.make_verdict("equality-separation", f"random:{seed}:0.5|moll", r,
                                      10.0 * area.error_indicator, area.slack, 0.0, config.order,
                                      method=area.method, error_indicator=area.error_indicator)
            yield rec, "random", f"seed={seed}"


def _schwarz_corpus(config: SweepConfig):
    yield FamilyInstance("identity", "", "identity", make_identity())
    yield FamilyInstance("rotation", "phi=1", "rotation:1", make_rotation(1.0))
    yield FamilyInstance(
        "step",
        "2-jump",
        "step:2jump",
        make_step_map([math.pi / 2, 3 * math.pi / 2], [math.pi, TWO_PI]),
    )
    yield FamilyInstance(
        "step",
        "4-jump",
        "step:4jump",
        make_step_map(
            [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4],
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
        ),
    )
    for seed in config.seeds[:10]:
        yield FamilyInstance(
            "random",
            f"seed={seed},symmetric",
            f"random-centered:{seed}",
            make_random_homeomorphism(seed, roughness=0.5, half_turn_symmetric=True),
        )


@_suite
def run_schwarz_suite(config: SweepConfig):
    # every smooth map's series has the suite's order and is evaluated on the
    # check's radii, so one table of their powers serves the whole corpus
    with verify._sharing_schwarz_powers(config.order):
        for inst in _schwarz_corpus(config):
            rec = verify.schwarz_bound_check(inst.source, map_id=inst.map_id, order=config.order)
            yield rec, inst.family, inst.params
    # sharpness of the two-value family: approach the majorant at r = 0.9
    step2 = make_step_map([math.pi / 2, 3 * math.pi / 2], [math.pi, TWO_PI])
    thetas = np.arange(256) * (TWO_PI / 256)
    reach = float(np.max(np.abs(eval_harmonic_step(step2, 0.9, thetas))))
    bound = float(verify.schwarz_bound(0.9))
    rec = verify.make_verdict("schwarz-sharpness", "step:2jump", 0.9, abs(bound - reach), 0.05, 0.05, 256)
    yield rec, "step", "2-jump"


@_suite
def run_boundary_suite(config: SweepConfig):
    sources = [
        FamilyInstance("identity", "", "identity", family_coeffs("identity")),
        FamilyInstance("rotation", "phi=1", "rotation:1", family_coeffs("rotation", 1.0)),
    ]
    for a in (0.2, 0.4, 0.6):
        sources.append(FamilyInstance("mobius", f"a={a}", f"mobius:{a}", family_coeffs("mobius", a)))
    for inst in sources:
        rec = verify.boundary_jacobian_integral(inst.source, map_id=inst.map_id)
        yield rec, inst.family, inst.params


# The convexity suite's holomorphic series c_1..c_N, each certified univalent
# by verify.univalence_margin before it is used.
HOLOMORPHIC_SERIES = {
    "identity": [1.0],
    "rotation:1": [np.exp(1j)],
    "perturbed": [1.0, 0.1],
    "mobius:0.4": family_coeffs("mobius", 0.4).coeffs[65:],  # c_1..c_64 of the order-64 series
}


@_suite
def run_convexity_suite(config: SweepConfig):
    """Holomorphic convexity on univalent series, and its designed failure for
    the harmonic shear family: ``config.families`` (default ``shear:0.3``),
    which must hold only ``shear:c`` specs.  A series of
    :data:`HOLOMORPHIC_SERIES` without a positive
    :func:`verify.univalence_margin` raises HypothesisViolationError."""
    specs = config.families or ["shear:0.3"]
    if any(spec.split(":")[0] != "shear" for spec in specs):
        raise ConfigError("convexity --family expects shear:<c>")
    shears = [inst for spec in specs for inst in parse_family(spec)]
    for map_id, series in HOLOMORPHIC_SERIES.items():
        margin = verify.univalence_margin(series)
        if not margin > 0:
            raise HypothesisViolationError(
                f"{map_id}: holomorphic test series is not certified univalent (margin {margin:.3g})"
            )
        for r in config.radii:
            rec = verify.holomorphic_convexity_check(series, r, map_id=map_id)
            yield rec, map_id.split(":")[0], ""
    # harmonic counterexample: the convexity comparison must fail, and the
    # suite passes exactly when it does
    for inst in shears:
        for r in config.radii:
            raw = verify.holomorphic_convexity_check(inst.source, r, map_id=inst.map_id)
            rec = verify.make_verdict("convexity-fails-for-shear", raw.map_id, raw.r, raw.lhs, raw.rhs,
                                      raw.tolerance, raw.resolution, direction="ge", holds=raw.lhs > raw.rhs)
            yield rec, inst.family, inst.params


@_suite
def run_proof_suite(config: SweepConfig):
    """Checks of the proof's reduction: sign structure, identities, profile integrals.

    The map checks use the first five seeds of ``config.seeds``.  The profile
    checks (:func:`proof_checks.check_profile_family`) use the seeded profiles
    0..PROOF_PROFILES-1 and 0..PROOF_CHAINS-1, independent of ``config.seeds``
    (``--seeds``), so their three rows are the same for every seed range.
    """
    radii = tuple(config.radii)
    yield proof_checks.check_tangent_gap_signs(256, radii=radii), "", ""
    # the identity is checked at radii capped at 0.7: one check per capped radius, one row per radius
    mirror = {}
    for r in radii:
        capped = min(r, 0.7)
        if capped not in mirror:
            mirror[capped] = proof_checks.check_mirror_pair_identity(capped)
        yield mirror[capped], "", ""
    for seed in config.seeds[:5]:
        bmap = make_random_homeomorphism(seed, roughness=0.5)
        for r in radii:
            resid = proof_checks.cos_identity_residual(bmap, r, n_samples=512)
            rec = verify.make_verdict("cos-identity", f"random:{seed}:0.5", r, resid, 0.0, 1e-8, 512)
            yield rec, "random", f"seed={seed}"
            rec = proof_checks.check_gap_double_integral(bmap, r, 512, map_id=f"random:{seed}:0.5")
            yield rec, "random", f"seed={seed}"

    profile, chain, reflection = proof_checks.check_profile_family(radii, PROOF_PROFILES, PROOF_CHAINS)
    yield profile, "profile", f"count={PROOF_PROFILES}"
    yield chain, "profile", f"count={PROOF_CHAINS}"
    yield reflection, "profile", f"count={PROOF_CHAINS}"

    margin = proof_checks.strict_interior_positivity(256, radii=radii)
    rec = verify.make_verdict("strict-interior-positivity", "grid:256", max(radii),
                              margin, 1e-12, 0.0, 256, direction="ge")
    yield rec, "grid", ""


_SUITE_RUNNERS = {
    "contraction": run_contraction_suite,
    "equality": run_equality_suite,
    "schwarz": run_schwarz_suite,
    "boundary": run_boundary_suite,
    "convexity": run_convexity_suite,
    "proof": run_proof_suite,
}

SUITES = (*_SUITE_RUNNERS, "all")


def run_suite(name: str, config: SweepConfig) -> list[dict]:
    if name == "all":
        return [row for run in _SUITE_RUNNERS.values() for row in run(config)]
    if name not in _SUITE_RUNNERS:
        raise ConfigError(f"unknown suite {name!r} (choose from {SUITES})")
    return _SUITE_RUNNERS[name](config)


def exit_code_for(rows: list[dict]) -> int:
    states = {row["passed"] for row in rows}
    if "false" in states:
        return 1
    if "inconclusive" in states:
        return 2
    return 0


def format_csv(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()


def format_jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
