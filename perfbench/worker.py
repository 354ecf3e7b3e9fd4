"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Set-up is timed from ``import diskarea`` to the end of the workload's
warm-up calls.  A warm-up that raises or exits non-zero is a program defect:
the pass then skips its CLI calls and reports every one of them as failed.
Otherwise the pass runs the workload's CLI calls in process and
is timed by wall clock and by the process's user+sys CPU time, which counts
every thread of the program's pool.  With ``--trace 1`` spans are installed
after set-up (see spans.py) and summarised in the output.

diskarea is imported from the ``src`` directory of the checkout this file
sits in, and from nowhere else; without it the worker exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import diskarea
    except ImportError as exc:
        sys.exit(f"cannot import diskarea from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(diskarea.__file__))) != SRC:
        sys.exit(f"diskarea was imported from {diskarea.__file__}, not from {SRC}")
    return diskarea


def _run_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a crash of the program is a failed call, not a failed benchmark
        rc, error = None, traceback.format_exc()
    return rc, out.getvalue(), error or err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    make_calls, warm_up = WORKLOADS[args.workload]
    calls = make_calls(args.seed)

    t0 = time.perf_counter()
    diskarea = _import_program()
    try:
        warm_up(args.seed)
        warm_up_error = None
    except Exception:  # a program defect met in set-up fails every call of the pass
        warm_up_error = "warm-up failed:\n" + traceback.format_exc()
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from diskarea.cli import main as cli_main

    results = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for argv, expected in calls:
        if warm_up_error:
            rc, report, log = None, "", warm_up_error
        else:
            rc, report, log = _run_call(cli_main, argv)
        results.append({"argv": argv, "expected": expected, "rc": rc, "report": report, "log": log})
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0

    import numpy

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": results,
        "machine": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            # diskarea.BACKEND is planned for removal, leaving numpy as the only path.
            "backend": getattr(diskarea, "BACKEND", "numpy"),
        },
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
