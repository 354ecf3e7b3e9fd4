"""Sweep configuration, family-spec parsing, suite execution, report emission.

Family specs are small colon-separated strings (``random:0..99:0.5``,
``mobius:0.3``); suites run their (map, radius) tasks in order and sort the
rows in a fixed order, so identical configs produce byte-identical reports
apart from the wall-time column.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import proof_checks, verify
from .area import (
    GREEN_SPECTRAL,
    area_green_quadrature,
    area_green_spectral,
    area_jacobian_grid,
    area_kernel_direct,
    area_kernel_fft,
    exact_family_area,
    family_coeffs,
)
from .circle_maps import (
    TWO_PI,
    BoundaryMap,
    conjugate_map,
    make_identity,
    make_mobius_boundary,
    make_random_homeomorphism,
    make_rotation,
    make_step_map,
    mollify_map,
)
from .poisson import FourierCoeffs, fourier_from_boundary
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

SUITES = ("contraction", "equality", "schwarz", "boundary", "convexity", "proof", "all")


class ConfigError(ValueError):
    """Malformed family spec or sweep configuration (a usage error)."""


@dataclass
class SweepConfig:
    families: list = field(default_factory=list)
    radii: list = field(default_factory=list)
    methods: list = field(default_factory=lambda: [GREEN_SPECTRAL])
    resolution: int = 1024
    order: int = 512
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    seeds: list = field(default_factory=lambda: list(range(100)))
    mollify: list = field(default_factory=lambda: [TWO_PI / 32, TWO_PI / 64, TWO_PI / 128])
    conjugate: bool = False
    output: str | None = None
    fmt: str = "csv"

    def validate_radii(self):
        if not self.radii:
            raise ConfigError("at least one radius is required")
        for r in self.radii:
            if not 0.0 < r <= MAX_RADIUS:
                raise ConfigError(f"radius {r} outside (0, {MAX_RADIUS}]")


@dataclass(frozen=True)
class FamilyInstance:
    """One concrete map drawn from a family spec."""

    family: str
    params: str
    map_id: str
    source: object  # BoundaryMap | FourierCoeffs


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
    try:
        if name == "identity":
            return [FamilyInstance("identity", "", "identity", make_identity())]
        if name == "rotation":
            phi = float(parts[1])
            return [FamilyInstance("rotation", f"phi={parts[1]}", spec, make_rotation(phi))]
        if name == "mobius":
            a = complex(parts[1])
            return [FamilyInstance("mobius", f"a={parts[1]}", spec, make_mobius_boundary(a))]
        if name == "shear":
            c = complex(parts[1])
            return [FamilyInstance("shear", f"c={parts[1]}", spec, family_coeffs("shear", c))]
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
        if name == "step":
            jumps_text, values_text = parts[1].split("@", 1)
            jumps = [float(x) for x in jumps_text.split(",")]
            values = [float(x) for x in values_text.split(",")]
            return [FamilyInstance("step", parts[1], spec, make_step_map(jumps, values))]
    except (IndexError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad family spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown family {name!r}")


def expand_families(config: SweepConfig) -> list[FamilyInstance]:
    if not config.families:
        raise ConfigError("at least one family is required")
    out = []
    for spec in config.families:
        out.extend(parse_family(spec))
    if config.conjugate:
        out = [
            FamilyInstance(
                inst.family,
                inst.params,
                inst.map_id + "|conj",
                _conjugate_source(inst.source),
            )
            for inst in out
        ]
    return out


def _conjugate_source(source):
    if isinstance(source, BoundaryMap):
        return conjugate_map(source)
    return FourierCoeffs(np.conj(source.coeffs), source.order, source.source_hash)


_AREA_METHODS = {
    "green-spectral": None,
    "green-quadrature": area_green_quadrature,
    "kernel-direct": area_kernel_direct,
    "kernel-fft": area_kernel_fft,
    "jacobian": area_jacobian_grid,
    "exact": None,
}


def _area_one(inst: FamilyInstance, r: float, method: str, config: SweepConfig):
    t0 = time.perf_counter()
    if method == "exact":
        param = inst.params.split("=", 1)[1] if "=" in inst.params else None
        if inst.family in ("mobius", "shear"):
            param = complex(param.split(",")[0])
        elif inst.family == "rotation":
            param = float(param)
        est = exact_family_area(inst.family, r, param)
    elif method == "green-spectral":
        coeffs = (
            inst.source
            if isinstance(inst.source, FourierCoeffs)
            else fourier_from_boundary(inst.source, order=config.order)
        )
        est = area_green_spectral(coeffs, r)
    elif method == "jacobian":
        est = area_jacobian_grid(inst.source, r, order=config.order)
    else:
        if not isinstance(inst.source, BoundaryMap):
            raise HypothesisViolationError(f"{method} needs boundary data on the circle")
        est = _AREA_METHODS[method](inst.source, r, config.resolution)
    ms = (time.perf_counter() - t0) * 1e3
    return {
        "schema": SCHEMA_VERSION,
        "map_id": inst.map_id,
        "r": r,
        "method": method,
        "value": est.value,
        "error_indicator": est.error_indicator,
        "wall_time_ms": round(ms, 3),
    }


def run_area(config: SweepConfig) -> list[dict]:
    config.validate_radii()
    for m in config.methods:
        if m not in _AREA_METHODS:
            raise ConfigError(f"unknown area method {m!r} (choose from {sorted(_AREA_METHODS)})")
    instances = expand_families(config)
    rows = [
        _area_one(inst, r, meth, config)
        for inst in instances
        for r in config.radii
        for meth in config.methods
    ]
    rows.sort(key=lambda row: (row["map_id"], row["r"], row["method"]))
    return rows


def _record_row(rec: VerdictRecord, family: str = "", params: str = "", method: str = "",
                error_indicator: float = 0.0, wall_ms: float = 0.0) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "check_name": rec.check_name,
        "map_id": rec.map_id,
        "family": family,
        "params": params,
        "r": rec.r,
        "method": method,
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "slack": rec.slack,
        "tolerance": rec.tolerance,
        "passed": "inconclusive" if rec.inconclusive else ("true" if rec.passed else "false"),
        "resolution": rec.resolution,
        "error_indicator": error_indicator,
        "wall_time_ms": round(wall_ms, 3),
    }


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


def run_contraction_suite(config: SweepConfig) -> list[dict]:
    config.validate_radii()
    tol_scale = config.tolerances.get("area-contraction", 1e-6)

    rows = []
    for inst in _contraction_tasks(config):
        t0 = time.perf_counter()
        coeffs = fourier_from_boundary(inst.source, order=config.order)
        for r in config.radii:
            est = area_green_spectral(coeffs, r)
            disk = math.pi * r * r
            rec = verify.make_verdict(
                "area-contraction", inst.map_id, r, est.value, disk, tol_scale * disk, est.resolution
            )
            ms = (time.perf_counter() - t0) * 1e3
            rows.append(_record_row(rec, inst.family, inst.params, GREEN_SPECTRAL, est.error_indicator, ms))
    rows.sort(key=lambda row: (row["check_name"], row["map_id"], row["r"]))
    return rows


def run_equality_suite(config: SweepConfig) -> list[dict]:
    config.validate_radii()
    tol = config.tolerances.get("equality-rotation", 1e-8)
    rows = []
    for phi in (0.0, 1.0, math.pi / 2, math.pi):
        inst_id = f"rotation:{phi:g}"
        for r in config.radii:
            slack = verify.equality_slack(make_rotation(phi), r, order=config.order)
            rec = verify.make_verdict("equality-rotation", inst_id, r, abs(slack), 0.0, tol, config.order)
            rows.append(_record_row(rec, "rotation", f"phi={phi:g}", GREEN_SPECTRAL))
    for seed in config.seeds[:20]:
        bmap = mollify_map(make_random_homeomorphism(seed, roughness=0.5))
        coeffs = fourier_from_boundary(bmap, order=config.order)
        for r in config.radii:
            est = area_green_spectral(coeffs, r)
            slack = math.pi * r * r - est.value
            rec = verify.make_verdict(
                "equality-separation",
                f"random:{seed}:0.5|moll",
                r,
                10.0 * est.error_indicator,
                slack,
                0.0,
                config.order,
            )
            rows.append(_record_row(rec, "random", f"seed={seed}", GREEN_SPECTRAL, est.error_indicator))
    rows.sort(key=lambda row: (row["check_name"], row["map_id"], row["r"]))
    return rows


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


def run_schwarz_suite(config: SweepConfig) -> list[dict]:
    tol = config.tolerances.get("schwarz-bound", 1e-8)
    rows = []
    for inst in _schwarz_corpus(config):
        t0 = time.perf_counter()
        rec = verify.schwarz_bound_check(inst.source, map_id=inst.map_id, tol=tol, order=config.order)
        rows.append(_record_row(rec, inst.family, inst.params, "", 0.0, (time.perf_counter() - t0) * 1e3))
    # sharpness of the two-value family: approach the majorant at r = 0.9
    step2 = make_step_map([math.pi / 2, 3 * math.pi / 2], [math.pi, TWO_PI])
    from .poisson import eval_harmonic_step

    thetas = np.arange(256) * (TWO_PI / 256)
    reach = float(np.max(np.abs(eval_harmonic_step(step2, 0.9, thetas))))
    bound = float(verify.schwarz_bound(0.9))
    rec = verify.make_verdict("schwarz-sharpness", "step:2jump", 0.9, abs(bound - reach), 0.05, 0.05, 256)
    rows.append(_record_row(rec, "step", "2-jump", ""))
    rows.sort(key=lambda row: (row["check_name"], row["map_id"], row["r"]))
    return rows


def run_boundary_suite(config: SweepConfig) -> list[dict]:
    tol = config.tolerances.get("boundary-flux", 1e-3)
    rows = []
    sources = [
        FamilyInstance("identity", "", "identity", family_coeffs("identity")),
        FamilyInstance("rotation", "phi=1", "rotation:1", family_coeffs("rotation", 1.0)),
    ]
    for a in (0.2, 0.4, 0.6):
        sources.append(FamilyInstance("mobius", f"a={a}", f"mobius:{a}", family_coeffs("mobius", a)))
    for inst in sources:
        t0 = time.perf_counter()
        rec = verify.boundary_jacobian_integral(inst.source, tol=tol, map_id=inst.map_id)
        rows.append(_record_row(rec, inst.family, inst.params, "", 0.0, (time.perf_counter() - t0) * 1e3))
    rows.sort(key=lambda row: (row["check_name"], row["map_id"], row["r"]))
    return rows


def run_convexity_suite(config: SweepConfig, shear_param: complex = 0.3) -> list[dict]:
    config.validate_radii()
    rows = []
    holomorphic = {
        "identity": [1.0],
        "rotation:1": [np.exp(1j)],
        "perturbed": [1.0, 0.1],
        "mobius:0.4": family_coeffs("mobius", 0.4).coeffs[family_coeffs("mobius", 0.4).order + 1 :],
    }
    for map_id, series in holomorphic.items():
        if not verify.winding_injectivity_check(series):
            raise HypothesisViolationError(f"{map_id}: holomorphic test series failed the injectivity check")
        for r in config.radii:
            rec = verify.holomorphic_convexity_check(series, r, map_id=map_id)
            rows.append(_record_row(rec, map_id.split(":")[0], "", ""))
    # harmonic counterexample: the convexity comparison must fail, and the
    # suite passes exactly when it does
    coeffs = family_coeffs("shear", shear_param)
    for r in config.radii:
        raw = verify.holomorphic_convexity_check(coeffs, r, map_id=f"shear:{shear_param}")
        rec = VerdictRecord(
            check_name="convexity-fails-for-shear",
            map_id=raw.map_id,
            r=raw.r,
            lhs=raw.lhs,
            rhs=raw.rhs,
            slack=raw.lhs - raw.rhs,
            tolerance=raw.tolerance,
            passed=raw.lhs > raw.rhs,
            resolution=raw.resolution,
        )
        rows.append(_record_row(rec, "shear", f"c={shear_param}", ""))
    rows.sort(key=lambda row: (row["check_name"], row["map_id"], row["r"]))
    return rows


def run_proof_suite(config: SweepConfig, n_profiles: int = 500, n_chains: int = 200) -> list[dict]:
    """Checks of the proof's reduction: sign structure, identities, profile integrals.

    The map checks use the first five seeds of ``config.seeds``.  The profile
    checks (:func:`proof_checks.check_profile_family`) use the seeded profiles
    0..n_profiles-1 and 0..n_chains-1, independent of ``config.seeds``
    (``--seeds``), so their three rows are the same for every seed range.
    """
    config.validate_radii()
    radii = tuple(config.radii)
    rows = []
    rows.append(_record_row(proof_checks.check_tangent_gap_signs(256, radii=radii)))
    for r in radii:
        rows.append(_record_row(proof_checks.check_mirror_pair_identity(min(r, 0.7))))
    for seed in config.seeds[:5]:
        bmap = make_random_homeomorphism(seed, roughness=0.5)
        for r in radii:
            resid = proof_checks.cos_identity_residual(bmap, r, n_samples=512)
            rec = verify.make_verdict(
                "cos-identity", f"random:{seed}:0.5", r, resid, 0.0, 1e-8, 512
            )
            rows.append(_record_row(rec, "random", f"seed={seed}"))
            rows.append(
                _record_row(
                    proof_checks.check_gap_double_integral(bmap, r, 512, map_id=f"random:{seed}:0.5"),
                    "random",
                    f"seed={seed}",
                )
            )

    profile, chain, reflection = proof_checks.check_profile_family(radii, n_profiles, n_chains)
    rows.append(_record_row(profile, "profile", f"count={n_profiles}"))
    rows.append(_record_row(chain, "profile", f"count={n_chains}"))
    rows.append(_record_row(reflection, "profile", f"count={n_chains}"))

    margin = proof_checks.strict_interior_positivity(256, radii=radii)
    rec = verify.make_verdict("strict-interior-positivity", "grid:256", max(radii),
                              margin, 1e-12, 0.0, 256, direction="ge")
    rows.append(_record_row(rec, "grid", ""))
    rows.sort(key=lambda row: (row["check_name"], row["map_id"], row["r"]))
    return rows


_SUITE_RUNNERS = {
    "contraction": run_contraction_suite,
    "equality": run_equality_suite,
    "schwarz": run_schwarz_suite,
    "boundary": run_boundary_suite,
    "convexity": run_convexity_suite,
    "proof": run_proof_suite,
}


def run_suite(name: str, config: SweepConfig) -> list[dict]:
    if name == "all":
        rows = []
        for key in ("contraction", "equality", "schwarz", "boundary", "convexity", "proof"):
            rows.extend(_SUITE_RUNNERS[key](config))
        return rows
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
