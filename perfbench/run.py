"""diskarea benchmark: time to a trusted verdict, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): ``contraction``, ``area-methods`` and
``proof-bounds``; ``all`` (the default) runs the three in turn.  This process
is the workload generator: one process, one thread.  Each pass runs in a
fresh interpreter (worker.py) and passes follow one another, a closed loop
with one client, until ``--seconds`` have gone by, with at least three
passes.  Every pass of a run gets the same inputs, made from ``--seed``.
``--seconds`` belongs to the calling convention of the command in
BENCHMARK.json, which passes its ``run_seconds``; that is also the default,
and only runs of that length compare with each other and with
baseline.json.

End-to-end metrics, from untraced passes, as medians over the passes:

* ``wall_s``: wall time of one pass, the time to verdict;
* ``cpu_s``: user+sys CPU time of the pass process over the same interval;
* ``setup_s``: fresh-interpreter ``import diskarea`` plus one small warm-up
  call into each layer the workload uses;
* ``peak_rss_mb``: ``ru_maxrss`` of the pass process, in MiB.

Every report row of every pass goes through the correctness gates
(gates.py), and a self-test checks that the gates catch a corrupted report.
``failed_frac`` (failed rows over attempted rows) is printed per workload;
the last line carries the same counts as ``attempted`` and ``failed``.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones that BENCHMARK.json lists under ``per_layer``, as medians
over the traced passes; ``tracing_overhead`` is traced ``wall_s`` over
untraced ``wall_s``.  The full per-function table and the coverage list
(every layer function wrapped, called, never called or absent) are printed
before the last line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With more than one
workload the metric names are prefixed with ``<workload>.``.  Exit code 0
when every gate holds, 1 when one fails, 2 when the benchmark itself cannot
run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from gates import count_failures, nondeterministic_rows, self_test  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_PASSES = 3
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program giving wrong answers)."""


def _parse_rows(report: str) -> list[dict]:
    try:
        return [json.loads(line) for line in report.splitlines()]
    except json.JSONDecodeError:
        return []


def run_pass(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    for call in result["calls"]:
        call["rows"] = _parse_rows(call["report"])
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _layer_values(summary: dict) -> dict:
    """Every per-layer number one traced pass gives, by metric name."""
    out = {}
    for name, entry in summary["functions"].items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for layer, seconds in summary["layers"].items():
        out[f"{layer}.self_s"] = seconds
    # Computed from array sizes, not measured: M^2 pairs and one double per pair.
    out["pair_sums.pairs.computed"] = summary["pairs_computed"]
    out["pair_sums.bytes.computed"] = 8 * summary["pairs_computed"]
    out["runner.span_overlap"] = summary["span_overlap"]
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run passes of one workload until ``seconds`` have gone by; gate every pass."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(workload, seed, 0))
        if trace:
            traced.append(run_pass(workload, seed, 1))
        now = time.perf_counter()
        if len(untraced) >= MIN_PASSES and (now - start) + (now - round_start) > seconds:
            break

    reference = untraced[0]["calls"]
    attempted = failed = differing = 0
    for result in untraced + traced:
        a, f = count_failures(result["calls"])
        attempted += a
        failed += f
        differing += nondeterministic_rows(reference, result["calls"])
    failed = min(attempted, failed + differing)
    problems = self_test(reference)
    bad_calls = [
        (call["argv"], call["rc"], call["log"])
        for result in untraced + traced
        for call in result["calls"]
        if count_failures([call])[1]
    ]
    e2e = {name: [r[name] for r in untraced] for name in E2E_UNITS}
    layers = {}
    if trace:
        per_pass = [_layer_values(r["trace"]) for r in traced]
        for key in per_pass[0]:
            layers[key] = statistics.median(p[key] for p in per_pass)
        layers["tracing_overhead"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(e2e["wall_s"])
        )
    return {
        "workload": workload,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "nondeterministic": differing,
        "self_test": problems,
        "bad_calls": bad_calls[:3],
        "e2e": e2e,
        "layers": layers,
        "trace": traced[0]["trace"] if traced else None,
        "machine": untraced[0]["machine"],
    }


def _print_e2e(res: dict) -> None:
    print(f"workload {res['workload']}: {res['passes']} untraced passes, one fresh interpreter each")
    for name, unit in E2E_UNITS.items():
        values = res["e2e"][name]
        q1, q3 = _quartiles(values)
        print(f"  {name:<12} median {statistics.median(values):.4f} {unit}"
              f"  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<12} {frac:g}  ({res['failed']} of {res['attempted']} rows failed,"
          f" {res['nondeterministic']} of them differing from the first pass)")


def _print_trace(res: dict, per_layer: dict) -> None:
    summary = res["trace"]
    functions = summary["functions"]
    print(f"trace {res['workload']}: {res['traced_passes']} traced passes, "
          f"tracing_overhead {res['layers']['tracing_overhead']:.4f} (traced wall_s / untraced wall_s)")
    called = sorted((n for n in functions if functions[n]["calls"]),
                    key=lambda n: -res["layers"][f"{n}.self_s"])
    for name in called:
        print(f"  {name:<42} calls {res['layers'][name + '.calls']:>8g}"
              f"  self_s {res['layers'][name + '.self_s']:.6f}")
    for layer in summary["layers"]:
        print(f"  {layer + '.self_s':<42} {res['layers'][layer + '.self_s']:.6f} s")
    pairs = res["layers"]["pair_sums.pairs.computed"]
    print(f"  pair_sums.pairs.computed {pairs:g} pairs, pair_sums.bytes.computed {8 * pairs:g} bytes"
          " (computed from array sizes, not measured)")
    print(f"  runner.span_overlap {res['layers']['runner.span_overlap']:.4f}"
          " (summed first-level span time under the runner's suites / suite wall time)")
    wanted = {n.rsplit(".", 1)[0] for n in per_layer if n.endswith((".calls", ".self_s"))}
    print("  coverage: wrapped " + ", ".join(f"{n}(bound at {functions[n]['bound']})" for n in sorted(functions)))
    print("  coverage: never called " + (", ".join(sorted(n for n in functions if not functions[n]["calls"])) or "-"))
    absent = sorted(n for n in wanted if n not in functions and n not in summary["layers"])
    print("  coverage: absent " + (", ".join(absent + summary["absent_layers"]) or "-"))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help=f"all, or one of {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names) or args.seed < 0:
        parser.error("unknown workload or negative seed")

    try:
        results = [measure(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    machine = results[0]["machine"]
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()) + f"; seed {args.seed}")
    metrics = {}
    correct = True
    for res in results:
        _print_e2e(res)
        for problem in res["self_test"]:
            print(f"  gate self-test: {problem}", file=sys.stderr)
        for argv_, rc, log in res["bad_calls"]:
            print(f"  failing call: diskarea {' '.join(argv_)} (exit {rc})\n{log[-1500:]}", file=sys.stderr)
        correct = correct and not res["failed"] and not res["self_test"]
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        if args.trace:
            _print_trace(res, per_layer)
            for name, unit in per_layer.items():
                metrics[prefix + name] = {"value": res["layers"].get(name, 0), "unit": unit}
        else:
            for name, unit in E2E_UNITS.items():
                metrics[prefix + name] = {"value": statistics.median(res["e2e"][name]), "unit": unit}
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
