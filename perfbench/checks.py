"""Check each request's output against its independent reference.

``prepare`` computes every reference a request list needs before any
request runs, so none of that work falls inside a timed region; ``verdict``
then parses one request's stdout and compares it with its reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import references as ref
from workloads import grid, options

# The one failure the current program is known to produce inside the ranges:
# `compare --model quicksort --s 1` at n >= 9870, where the exact mean has
# more than 4300 decimal digits and printing it exits 2 with this message.
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"

EXACT_CYCLES_MAX_N = 500  # above this the cycles moments are checked as floats
REAL_TOLERANCE = 1e-12  # relative; the program prints reals with 15 digits
STDERR_BOUND = 5  # a Monte Carlo mean must lie within this many standard errors
VERIFY_ROWS = 3 * 10 * 2  # models x s = 1..10 x (leading, second)


def _moment_reference(model: str, n: int, s: int):
    if model == "cycles" and n > EXACT_CYCLES_MAX_N:
        return ref.cycles_moment_float(n, s)
    if model == "quicksort" and s == 1:
        return ref.quicksort_mean(n)
    return ref.factorial_moment(model, n, s)


def prepare(requests) -> dict:
    """Reference data for every request, keyed by its argv."""
    refs, rows = {}, {}
    builders = {"cycles": ref.cycles_row, "inversions": ref.inversions_row}
    for argv in requests:
        opt = options(argv)
        if argv[0] == "table" and opt["model"] in builders:
            key = (opt["model"], int(opt["n"]))
            if key not in rows:
                rows[key] = builders[key[0]](key[1])
            refs[argv] = rows[key]
        elif argv[0] in ("moment", "compare"):
            sizes = grid(argv) if argv[0] == "compare" else [int(opt["n"])]
            refs[argv] = {n: _moment_reference(opt["model"], n, int(opt["s"])) for n in sizes}
        elif argv[0] == "transfer":
            refs[argv] = ref.transfer_oracle(int(opt["alpha"]), int(opt["beta"]), int(opt["n"]))
        elif argv[0] == "simulate":
            refs[argv] = float(ref.factorial_moment(opt["model"], int(opt["n"]), int(opt["s"])))
    return refs


def known_failure(argv, reference) -> bool:
    """Is this request expected to hit the digit-limit failure?"""
    opt = options(argv)
    return (
        argv[0] == "compare" and opt["model"] == "quicksort" and opt["s"] == "1"
        and any(ref.exceeds_str_digits(v) for v in reference.values())
    )


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _exact_matches(printed: str, expected) -> bool:
    """A printed moment: an exact rational must equal the reference, a real
    must agree with it to REAL_TOLERANCE."""
    if isinstance(expected, Fraction) and re.fullmatch(r"-?\d+(/\d+)?", printed):
        return Fraction(printed) == expected
    return math.isclose(float(Fraction(printed)), float(expected), rel_tol=REAL_TOLERANCE)


def _check_table(argv, reference, out: str) -> str | None:
    opt = options(argv)
    n = int(opt["n"])
    if opt["format"] == "json":
        payload = json.loads(out)
        counts = payload["counts"]
        if (payload["model"], payload["n"]) != (opt["model"], n):
            return "JSON names another row"
    else:
        pairs = [(int(r["k"]), int(r["count"])) for r in _rows(out)]
        counts = [0] * (max(k for k, _ in pairs) + 1)
        for k, c in pairs:
            counts[k] = c
    if opt["model"] == "quicksort":
        return ref.quicksort_row_error(n, counts)
    if opt["format"] == "csv":
        counts += [0] * (len(reference) - len(counts))
    return None if counts == reference else "row differs from the reference"


def _check_moments(argv, reference, out: str) -> str | None:
    opt = options(argv)
    if opt["format"] == "json":
        payload = json.loads(out)
        printed = ({r["n"]: r["exact"] for r in payload["rows"]} if argv[0] == "compare"
                   else {payload["n"]: payload["exact"]})
    else:
        printed = {int(r["n"]): r["exact"] for r in _rows(out)}
    if sorted(printed) != sorted(reference):
        return "output covers other sizes than requested"
    for n, expected in reference.items():
        if not _exact_matches(printed[n], expected):
            return f"exact moment at n={n} differs from the reference"
    return None


def _check_transfer(argv, reference: Fraction, out: str) -> str | None:
    if options(argv)["format"] == "json":
        payload = json.loads(out)
        ok = Fraction(payload["oracle_exact"]) == reference and payload["oracle"] == float(reference)
    else:
        (row,) = _rows(out)
        ok = row["oracle"] == format(float(reference), ".15g")
    return None if ok else "oracle differs from the Stirling-number sum"


def _check_simulate(argv, reference: float, out: str) -> str | None:
    opt = options(argv)
    if opt["format"] == "json":
        payload = json.loads(out)
        echoed = {k: str(payload[k]) for k in ("model", "s", "n", "trials", "seed")}
        mean, stderr = payload["mean"], payload["stderr"]
    else:
        (row,) = _rows(out)
        echoed = {k: row[k] for k in ("model", "s", "n", "trials", "seed")}
        mean, stderr = float(row["mean"]), float(row["stderr"])
    if echoed != {k: opt[k] for k in echoed}:
        return "output echoes other parameters than requested"
    if abs(mean - reference) > STDERR_BOUND * stderr + REAL_TOLERANCE * abs(reference):
        return f"mean {mean} is more than {STDERR_BOUND} stderr from {reference}"
    return None


def _check_verify(argv, out: str) -> str | None:
    if options(argv)["format"] == "json":
        payload = json.loads(out)
        statuses = [r["status"] for r in payload["results"]]
        if payload["passed"] is not True:
            return "verify reports failure"
    else:
        statuses = [r["status"] for r in _rows(out)]
    if len(statuses) != VERIFY_ROWS or set(statuses) != {"ok"}:
        return "verify rows are not all ok"
    return None


def verdict(argv, reference, rc: int, out: str) -> str | None:
    """Why the request failed, or None when its output matches the reference."""
    if rc != 0:
        return f"exit {rc}"
    try:
        if argv[0] == "table":
            return _check_table(argv, reference, out)
        if argv[0] in ("moment", "compare"):
            return _check_moments(argv, reference, out)
        if argv[0] == "transfer":
            return _check_transfer(argv, reference, out)
        if argv[0] == "simulate":
            return _check_simulate(argv, reference, out)
        return _check_verify(argv, out)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def is_expected(argv, reference, rc: int, err: str) -> bool:
    """A failure that matches the documented digit-limit defect."""
    return known_failure(argv, reference) and rc == 2 and DIGIT_LIMIT_MESSAGE in err
