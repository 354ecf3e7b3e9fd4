"""Correctness gates on the reports of one pass, and their self-test.

One operation is one report row.  A row fails when

* it carries a ``passed`` column that is not ``"true"``;
* its numbers break a gate:
  - verify rows must be self-consistent: finite sides, a slack that is
    exactly ``rhs - lhs`` or ``lhs - rhs``, and ``passed`` only when
    ``slack >= -tolerance``; an area-contraction row must compare against
    ``pi r^2`` itself;
  - area rows must lie within ``max(1e-8 pi r^2, error_indicator)`` of the
    closed form (``exact``) for the same map and radius, and
    ``kernel-direct`` and ``kernel-fft`` must agree to 1e-10 relative;
* it belongs to a CLI call that raised or exited non-zero, or is missing
  from a call that gave fewer rows than the workload asks for.

Reports of repeated passes must also be byte-identical apart from the
``wall_time_ms`` field; :func:`nondeterministic_rows` counts the rows that
are not.  This module only reads parsed reports and imports no ``diskarea``.
"""

from __future__ import annotations

import copy
import math
import re

EXACT_ABS = 1e-8  # times pi r^2: floor of the closed-form gate
DIRECT_FFT_REL = 1e-10  # kernel-direct vs kernel-fft, the same gate as the c10 test
_WALL_FIELD = re.compile(r'"wall_time_ms": [^,}]*')


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _verify_row_ok(row: dict) -> bool:
    lhs, rhs, slack, tol = row["lhs"], row["rhs"], row["slack"], row["tolerance"]
    if not _finite(lhs, rhs, slack, tol):
        return False
    if slack != rhs - lhs and slack != lhs - rhs:
        return False
    if row["check_name"] == "area-contraction" and rhs != math.pi * row["r"] * row["r"]:
        return False
    return slack >= -tol


def _area_rows_ok(rows: list[dict]) -> list[bool]:
    exact = {(row["map_id"], row["r"]): row["value"] for row in rows if row["method"] == "exact"}
    by_method = {(row["map_id"], row["r"], row["method"]): row["value"] for row in rows}
    ok = []
    for row in rows:
        key = (row["map_id"], row["r"])
        ref = exact.get(key)
        value, indicator = row["value"], row["error_indicator"]
        good = ref is not None and _finite(value, indicator, ref)
        if good:
            allow = max(EXACT_ABS * math.pi * row["r"] ** 2, indicator)
            good = abs(value - ref) <= allow
        if good and row["method"] in ("kernel-direct", "kernel-fft"):
            direct = by_method.get(key + ("kernel-direct",))
            fft = by_method.get(key + ("kernel-fft",))
            good = direct is not None and fft is not None and abs(direct - fft) <= DIRECT_FFT_REL * abs(fft)
        ok.append(good)
    return ok


def failed_rows(call: dict) -> tuple[int, int]:
    """(attempted, failed) for one CLI call of a pass.

    ``call`` holds ``rows`` (parsed report), ``expected`` (rows the workload
    asks for) and ``rc`` (exit code, None when the call raised).
    """
    rows = call["rows"]
    attempted = max(call["expected"], len(rows))
    if call["rc"] != 0:
        return attempted, attempted
    try:
        if rows and "check_name" in rows[0]:
            ok = [_verify_row_ok(row) for row in rows]
        else:
            ok = _area_rows_ok(rows)
    except (KeyError, TypeError):  # a report without the columns the gates read
        return attempted, attempted
    ok = [good and row.get("passed", "true") == "true" for good, row in zip(ok, rows)]
    return attempted, ok.count(False) + (attempted - len(rows))


def count_failures(calls: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for call in calls:
        a, f = failed_rows(call)
        attempted += a
        failed += f
    return attempted, failed


def strip_wall_time(report: str) -> list[str]:
    return [_WALL_FIELD.sub('"wall_time_ms": -', line) for line in report.splitlines()]


def nondeterministic_rows(reference: list[dict], calls: list[dict]) -> int:
    """Rows whose report line differs from the reference pass, wall time aside."""
    differing = 0
    for ref, call in zip(reference, calls):
        a, b = strip_wall_time(ref["report"]), strip_wall_time(call["report"])
        differing += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return differing


def self_test(calls: list[dict]) -> list[str]:
    """Feed the gates two corrupted copies of a good pass; return what they missed.

    One copy has a single value scaled by (1 + 1e-6), the other a single row
    marked ``passed=false``.  Each must be counted as at least one failure.
    """
    problems = []
    _, base = count_failures(calls)
    if base:
        return [f"the reference pass already has {base} failed rows"]

    perturbed = copy.deepcopy(calls)
    row = next(
        (row for call in perturbed for row in call["rows"] if row.get("lhs", row.get("value"))),
        None,
    )
    if row is None:
        problems.append("no nonzero value to perturb")
    else:
        field = "lhs" if "lhs" in row else "value"
        row[field] *= 1.0 + 1e-6
        if count_failures(perturbed)[1] == 0:
            problems.append(f"a 1e-6 relative change of {field} in one row was not caught")

    marked = copy.deepcopy(calls)
    marked[0]["rows"][0]["passed"] = "false"
    if count_failures(marked)[1] == 0:
        problems.append("a row with passed=false was not caught")
    return problems
