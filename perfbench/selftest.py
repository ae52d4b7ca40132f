"""Tests of the benchmark itself, kept out of the repository's test suite:

    python3 -m pytest -q perfbench/selftest.py

They show that request lists are a pure function of the seed, stay in
their stated ranges and hold the same mix of kinds for every seed, that
every reference agrees with brute-force enumeration at small n, that the
output checks accept the program's real output and reject altered output,
and that every metric BENCHMARK.json declares is computed and mapped.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import checks
import references as ref
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUDGET = SPEC["run_seconds"]


# -- brute force ------------------------------------------------------------------

def _cycles(perm) -> int:
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return count


def _inversions(perm) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])


def _comparisons(seq) -> int:
    """First-element-pivot quicksort; on uniform inputs it has the
    distribution of randomized quicksort."""
    if len(seq) < 2:
        return 0
    pivot, rest = seq[0], seq[1:]
    return len(rest) + _comparisons([x for x in rest if x < pivot]) + _comparisons(
        [x for x in rest if x > pivot]
    )


STATISTICS = {"cycles": _cycles, "inversions": _inversions, "quicksort": _comparisons}


def brute_histogram(model: str, n: int) -> list[int]:
    hist = Counter(STATISTICS[model](list(p)) for p in permutations(range(n)))
    return [hist[k] for k in range(max(hist) + 1)]


def brute_moment(model: str, n: int, s: int) -> Fraction:
    hist = brute_histogram(model, n)
    return Fraction(sum(math.perm(k, s) * c for k, c in enumerate(hist)), math.factorial(n))


SMALL = range(0, 8)


# -- request lists ----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_list_is_a_pure_function_of_the_seed(workload):
    first = workloads.build(workload, 7, BUDGET)
    assert first == workloads.build(workload, 7, BUDGET)
    assert first != workloads.build(workload, 8, BUDGET)


def _in(value: str, bounds) -> bool:
    return bounds[0] <= int(value) <= bounds[1]


def _within_ranges(argv) -> bool:
    opt = workloads.options(argv)
    cmd = argv[0]
    if cmd == "verify":
        return True
    if cmd == "table":
        return _in(opt["n"], workloads.TABLE_N[opt["model"]])
    if cmd == "transfer":
        return all(_in(opt[k], workloads.TRANSFER[k]) for k in ("alpha", "beta", "n"))
    if cmd == "simulate":
        return (all(_in(opt[k], workloads.SIMULATE[k]) for k in ("n", "s", "trials"))
                and opt["threads"] in ("1", str(workloads.SIMULATE_THREADS)))
    sizes = workloads.grid(argv) if cmd == "compare" else [int(opt["n"])]
    s = int(opt["s"])
    if opt["model"] == "cycles":
        return 1 <= s <= 6 and all(_in(n, workloads.CYCLES_GRID) for n in sizes)
    if opt["model"] == "quicksort" and s == 1:
        return all(_in(n, workloads.QUICKSORT_MEAN_GRID) for n in sizes)
    ranges = workloads.QUICKSORT_MOMENT if opt["model"] == "quicksort" else workloads.INVERSIONS_MOMENT
    return _in(s, ranges["s"]) and all(_in(n, ranges["n"]) for n in sizes)


def _kind(argv) -> tuple:
    """What of a request does not change with the seed: the subcommand, the
    model, beta, the workers, and s where it sets the route or the cost."""
    opt = workloads.options(argv)
    kind = tuple(opt.get(k) for k in ("model", "beta", "threads"))
    if argv[0] == "compare" and (opt["model"] == "cycles" or opt["model"] == "quicksort" and opt["s"] == "1"):
        kind += (opt["s"],)
    return (argv[0], *kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_stay_in_range_with_the_same_mix(workload):
    for budget in (BUDGET / run.PASSES, BUDGET):
        mix = sorted(map(_kind, workloads.build(workload, 0, budget)))
        for seed in range(1, 40):
            requests = workloads.build(workload, seed, budget)
            assert all(_within_ranges(argv) for argv in requests), seed
            assert sorted(map(_kind, requests)) == mix, seed
        subcommands = {argv[0] for argv in requests}
        if workload == "moments":
            assert {"verify", "compare", "moment", "transfer"} <= subcommands
        if workload == "montecarlo":
            assert {workloads.options(a)["threads"] for a in requests} == {"1", "2"}


@pytest.mark.parametrize("log", [False, True])
def test_strata_draw_one_value_from_each_sub_range(log):
    rng = random.Random(5)
    for lo, hi, count in [(40, 70, 8), (100, 50_000, 16), (1, 3, 3), (50, 200, 1)]:
        for _ in range(200):
            values = workloads.strata(rng, lo, hi, count, log)
            assert len(values) == count and values == sorted(values)
            assert lo <= values[0] and values[-1] == hi
            for i, v in enumerate(values):
                a, b = (math.log(lo), math.log(hi)) if log else (lo, hi + 1)
                x = math.log(v) if log else v
                width = (b - a) / count
                assert a + width * i - 1 <= x <= a + width * (i + 1) + 1, (lo, hi, count, values)


def test_every_two_worker_request_has_a_one_worker_twin():
    requests = workloads.build("montecarlo", 3, BUDGET)
    for argv in requests:
        if workloads.options(argv)["threads"] != "1":
            assert workloads.with_threads(argv, 1) in requests


# -- references against brute force ------------------------------------------------

@pytest.mark.parametrize("n", SMALL)
def test_rows_match_enumeration(n):
    assert ref.cycles_row(n) == brute_histogram("cycles", n)
    assert ref.inversions_row(n) == brute_histogram("inversions", n)
    assert ref.quicksort_row_error(n, brute_histogram("quicksort", n)) is None


@pytest.mark.parametrize("n", range(3, 8))
def test_quicksort_row_check_rejects_a_moved_count(n):
    row = brute_histogram("quicksort", n)
    k = row.index(max(row))
    row[k] -= 1
    row[k - 1] += 1
    assert ref.quicksort_row_error(n, row) is not None


@pytest.mark.parametrize("model", workloads.MODELS)
@pytest.mark.parametrize("n", SMALL)
def test_factorial_moments_match_enumeration(model, n):
    for s in range(5):
        assert ref.factorial_moment(model, n, s) == brute_moment(model, n, s), s
    if model == "quicksort":
        assert ref.quicksort_mean(n) == brute_moment(model, n, 1)
        variance = brute_moment(model, n, 2) + brute_moment(model, n, 1) - brute_moment(model, n, 1) ** 2
        assert ref.quicksort_variance(n) == variance


@pytest.mark.parametrize("n", [checks.EXACT_CYCLES_MAX_N + 1, 1500])
def test_float_cycles_moment_agrees_with_exact_where_used(n):
    for s in range(1, 7):
        assert math.isclose(ref.cycles_moment_float(n, s), ref.cycles_moment(n, s),
                            rel_tol=checks.REAL_TOLERANCE / 10)


def _series_coefficient(alpha: int, beta: int, n: int) -> Fraction:
    """[u^n] by multiplying truncated power series term by term."""

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]

    log = [Fraction(0)] + [Fraction(1, m) for m in range(1, n + 1)]
    geometric = [Fraction(1)] * (n + 1)
    series = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(beta):
        series = times(series, log)
    for _ in range(alpha):
        series = times(series, geometric)
    return series[n]


def test_transfer_oracle_matches_series_expansion():
    for alpha in range(1, 4):
        for beta in range(0, 5):
            for n in SMALL:
                assert ref.transfer_oracle(alpha, beta, n) == _series_coefficient(alpha, beta, n)


def test_quicksort_mean_closed_form_matches_its_recurrence():
    """C_n = n - 1 + (2/n) sum_(k<n) C_k, a route apart from the closed form."""
    mean, total = Fraction(0), Fraction(0)
    for n in range(1, 301):
        total += mean
        mean = n - 1 + 2 * total / n
        assert ref.quicksort_mean(n) == mean, n
        if n <= 60:
            assert ref.quicksort_moment(n, 1) == mean, n


def test_digit_limit_threshold_of_the_quicksort_mean():
    assert not ref.exceeds_str_digits(ref.quicksort_mean(9869))
    assert ref.exceeds_str_digits(ref.quicksort_mean(9870))


# -- output checks on the program's real output --------------------------------------

def _cli(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "momentlab.cli", *argv], env=env,
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


SAMPLE = [
    ("table", "--model", "cycles", "--n", "7", "--format", fmt) for fmt in workloads.FORMATS
] + [
    ("table", "--model", "inversions", "--n", "7", "--format", "csv"),
    ("table", "--model", "quicksort", "--n", "7", "--format", "json"),
    ("moment", "--model", "quicksort", "--n", "7", "--s", "3", "--mode", "both", "--format", "csv"),
    ("compare", "--model", "cycles", "--s", "2", "--n-grid", "7,600", "--format", "json"),
    ("compare", "--model", "inversions", "--s", "2", "--n-grid", "7", "--format", "csv"),
    ("transfer", "--alpha", "2", "--beta", "3", "--n", "7", "--format", "json"),
    ("transfer", "--alpha", "1", "--beta", "4", "--n", "7", "--format", "csv"),
    ("simulate", "--model", "inversions", "--n", "7", "--s", "2", "--trials", "500",
     "--seed", "3", "--threads", "1", "--format", "csv"),
    ("simulate", "--model", "quicksort", "--n", "7", "--s", "2", "--trials", "500",
     "--seed", "3", "--threads", "1", "--format", "json"),
    ("verify", "--format", "csv"),
]


@pytest.fixture(scope="module")
def sample_runs():
    refs = checks.prepare(SAMPLE)
    return [(argv, refs.get(argv), _cli(argv)) for argv in SAMPLE]


def test_checks_accept_the_programs_output(sample_runs):
    for argv, reference, proc in sample_runs:
        assert checks.verdict(argv, reference, proc.returncode, proc.stdout) is None, argv


def _perturbed(reference):
    if isinstance(reference, list):
        return reference[:-1] + [reference[-1] + 1]
    if isinstance(reference, dict):
        return {n: v * (1 + Fraction(1, 10**9)) for n, v in reference.items()}
    if isinstance(reference, float):
        return 2 * reference
    return reference * (1 + Fraction(1, 10**9))


def test_checks_reject_output_that_misses_the_reference(sample_runs):
    for argv, reference, proc in sample_runs:
        if reference is not None:
            wrong = _perturbed(reference)
            assert checks.verdict(argv, wrong, proc.returncode, proc.stdout) is not None, argv
    argv, reference, proc = sample_runs[-1]
    assert checks.verdict(argv, reference, 0, proc.stdout.replace(",ok\n", ",FAIL\n", 1)) is not None


def test_known_failure_is_recognised():
    argv = ("compare", "--model", "quicksort", "--s", "1", "--n-grid", "9870", "--format", "csv")
    refs = checks.prepare([argv])
    proc = _cli(argv)
    assert checks.verdict(argv, refs[argv], proc.returncode, proc.stdout) is not None
    assert checks.is_expected(argv, refs[argv], proc.returncode, proc.stderr)
    below = ("compare", "--model", "quicksort", "--s", "1", "--n-grid", "9869", "--format", "csv")
    assert not checks.known_failure(below, checks.prepare([below])[below])


# -- metric names ------------------------------------------------------------------

def test_untraced_run_computes_every_declared_end_to_end_metric():
    records = [{"seconds": 1.0, "cpu_seconds": 0.9, "rss_mb": 50.0}]
    assert set(run.end_to_end_metrics(records, [(0.3, 0.3)])) == set(run.declared_units("end_to_end"))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_traced_run_computes_every_declared_layer_metric(tmp_path):
    metrics, problems = run.layer_metrics([], [], [], [], [], tmp_path / "spans.jsonl")
    assert set(metrics) == set(run.declared_units("per_layer")) and not problems


def test_every_layer_metric_is_mapped_to_an_end_to_end_metric():
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers["per_layer"]) == set(run.declared_units("per_layer"))
    for name, target in layers["per_layer"].items():
        assert target["moves"] in end_to_end | {"none"}, name
        assert set(target["on"]) <= set(workloads.WORKLOADS), name
