"""Command-line front end: area sweeps, verification suites, kernel benchmarks.

Exit codes: 0 all checks passed, 1 any check failed, 2 any check
inconclusive, 64 usage error, 65 hypothesis violation (the input map is
outside what the requested method or check is stated for), 70 numerical
failure (a computation on valid input broke an invariant it must keep, such
as the unit power of the boundary coefficients), 73 the report file cannot
be created.  Reports are CSV (default) or JSON lines; repeated
runs of the same config are byte-identical apart from the wall-time column.
The output directory for relative paths can be pinned with the
DISKAREA_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .area import FAMILIES, KERNEL_DIRECT, KERNEL_FFT, METHODS, _lift_lag_sums, _route_value
from .circle_maps import TWO_PI, make_random_homeomorphism, mollify_map
from .poisson import NumericalFailureError
from .runner import (
    AREA_COLUMNS,
    MOLLIFY_WIDTHS,
    SCHEMA_VERSION,
    SUITES,
    VERIFY_COLUMNS,
    ConfigError,
    SweepConfig,
    exit_code_for,
    format_csv,
    format_jsonl,
    parse_seed_range,
    run_area,
    run_suite,
)
from .verify import HypothesisViolationError

USAGE_EXIT = 64
DATAERR_EXIT = 65
SOFTWARE_EXIT = 70
CANTCREAT_EXIT = 73


class _UsageError(Exception):
    pass


class _CantCreateError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def build_parser() -> _Parser:
    parser = _Parser(prog="diskarea", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="compute image areas of concentric disks")
    p_area.add_argument("--family", action="append", required=True,
                        help=" | ".join(family.spec for family in FAMILIES.values()))
    p_area.add_argument("--r", required=True, help="comma-separated radii in (0, 0.97]")
    p_area.add_argument("--method", default="green-spectral",
                        help="comma-separated: " + ",".join(METHODS))
    p_area.add_argument("--resolution", type=int, default=1024)
    p_area.add_argument("--order", type=int, default=512)
    p_area.add_argument("--conjugate", action="store_true",
                        help="analyze conj(f(conj(z))) of each family instance (orientation-reversing input)")
    p_area.add_argument("--out", default=None)
    p_area.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}")
    p_verify.add_argument("--seeds", default="0..99", help="seed range for the random corpus, e.g. 0..99")
    p_verify.add_argument("--radii", default="0.25,0.5,0.75,0.9")
    p_verify.add_argument("--mollify", default=None,
                          help="comma-separated smoothing widths of the contraction suite (suite contraction or all; "
                          "default " + ",".join(f"2pi/{TWO_PI / w:g}" for w in MOLLIFY_WIDTHS) + ")")
    p_verify.add_argument("--family", action="append", default=None,
                          help="shear:c specs for the convexity suite's harmonic rows (suite convexity or all)")
    p_verify.add_argument("--order", type=int, default=512)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_bench = sub.add_parser("bench", help="time the direct and FFT kernel paths")
    p_bench.add_argument("--sizes", default="256,1024,4096")
    p_bench.add_argument("--r", type=float, default=0.6)
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--repeat", type=int, default=3)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


_PARSER = build_parser()  # built once per process: building costs about ten parses


def _emit(rows: list[dict], columns, args):
    """Write the report rows, as CSV with ``columns`` or as JSON lines, to ``--out`` or stdout."""
    text = format_csv(rows, columns) if args.format == "csv" else format_jsonl(rows)
    out = args.out
    if out is None:
        sys.stdout.write(text)
        return
    if not os.path.isabs(out):
        out = os.path.join(os.environ.get("DISKAREA_OUTDIR", "."), out)
    try:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CantCreateError(f"{out}: {exc}") from exc
    print(f"wrote {out}")


def _cmd_area(args) -> int:
    config = SweepConfig(
        families=args.family,
        radii=_parse_floats(args.r),
        methods=[m for m in args.method.split(",") if m],
        resolution=args.resolution,
        order=args.order,
        conjugate=args.conjugate,
    )
    _emit(run_area(config), AREA_COLUMNS, args)
    return 0


def _cmd_verify(args) -> int:
    if args.family and args.suite not in ("convexity", "all"):
        raise ConfigError(f"--family is read only by the convexity suite, not by {args.suite!r}")
    if args.mollify is not None and args.suite not in ("contraction", "all"):
        raise ConfigError(f"--mollify is read only by the contraction suite, not by {args.suite!r}")
    config = SweepConfig(
        families=args.family or [],
        radii=_parse_floats(args.radii),
        seeds=parse_seed_range(args.seeds),
        mollify=_parse_floats(args.mollify) if args.mollify is not None else list(MOLLIFY_WIDTHS),
        order=args.order,
    )
    rows = run_suite(args.suite, config)
    _emit(rows, VERIFY_COLUMNS, args)
    counts = {"true": 0, "false": 0, "inconclusive": 0}
    for row in rows:
        counts[row["passed"]] += 1
    print(
        f"suite={args.suite} checks={len(rows)} passed={counts['true']} "
        f"failed={counts['false']} inconclusive={counts['inconclusive']}",
        file=sys.stderr,
    )
    return exit_code_for(rows)


BENCH_COLUMNS = ("schema", "map_id", "r", "method", "resolution", "value", "rel_diff_vs_fft", "wall_time_ms")


def _cmd_bench(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",") if x]
    if not sizes:
        raise ConfigError("--sizes lists no size")
    if args.repeat < 1:
        raise ConfigError("--repeat must be at least 1")
    if any(m < 2 for m in sizes):
        raise ConfigError("--sizes must all be at least 2")
    if not 0.0 < args.r < 1.0:
        raise ConfigError("--r must lie in (0, 1)")
    bmap = mollify_map(make_random_homeomorphism(args.seed, roughness=0.5))
    map_id = f"random:{args.seed}:0.5|moll"
    rows = []
    failures = 0
    for m in sizes:
        # both rows time the estimator's full-resolution value on lag sums
        # taken afresh, the kept ones cleared: lift, lag sums, kernel and dot
        timed = []
        for name in (KERNEL_DIRECT, KERNEL_FFT):
            best = math.inf
            for _ in range(args.repeat):
                _lift_lag_sums.cache_clear()
                t0 = time.perf_counter()
                value = _route_value(bmap, args.r, m, name)
                best = min(best, time.perf_counter() - t0)
            timed.append((name, value, best))
        ref = timed[-1][1]
        for name, value, seconds in timed:
            rel = abs(value - ref) / max(abs(ref), 1e-300)
            if rel > 1e-10:
                print(f"M={m}: {name} disagrees with kernel-fft by {rel:.2e}", file=sys.stderr)
                failures += 1
            rows.append(
                {
                    "schema": SCHEMA_VERSION,
                    "map_id": map_id,
                    "r": args.r,
                    "method": name,
                    "resolution": m,
                    "value": value,
                    "rel_diff_vs_fft": rel,
                    "wall_time_ms": round(seconds * 1e3, 3),
                }
            )
    _emit(rows, BENCH_COLUMNS, args)
    return 1 if failures else 0


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "area":
            return _cmd_area(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return DATAERR_EXIT
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return SOFTWARE_EXIT
    except _CantCreateError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return CANTCREAT_EXIT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
