"""Command-line behavior: formats, determinism, exit codes."""

import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction
from pathlib import Path

import child
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentlab import ORACLE_MAX_N, asymptotic_moment, cli, harmonic, quicksort_mean, simulate
from momentlab.cli import main
from momentlab.moments import MOMENT_MAX_S, QUICKSORT_MEAN_MAX_N, QUICKSORT_PGF_MAX_N, exact_moment
from momentlab.tables import Model, distribution_table


def run_cli(*argv):
    """Exit code, stdout and stderr of ``main`` in process; a parser error's
    ``SystemExit`` gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


ROOT = Path(__file__).resolve().parent.parent


def fresh(*request):
    """A request of the shared runner (CLI words, or ``-c`` and code) in a
    fresh child: exit code, stdout and stderr as text, and its CPU seconds."""
    code, out, err, cpu, _ = child.run(ROOT, request)
    return code, out.decode(), err.decode(), cpu


class TestTable:
    def test_csv_golden(self):
        code, out, _ = run_cli("table", "--model", "cycles", "--n", "3")
        assert code == 0
        assert out == "k,count\n1,2\n2,3\n3,1\n"

    def test_zero_row(self):
        code, out, _ = run_cli("table", "--model", "quicksort", "--n", "0")
        assert code == 0
        assert out == "k,count\n0,1\n"

    def test_json_schema_and_dense_counts(self):
        code, out, _ = run_cli("table", "--model", "inversions", "--n", "3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == "table"
        assert payload["counts"] == [1, 2, 2, 1]

    def test_row_cap_is_fixed(self):
        # no environment variable raises a cap: the row past it is refused
        # before any work, in a fresh process
        code, out, err, cpu = fresh("MOMENTLAB_ROW_LIMIT=1024", "table", "--model", "quicksort", "--n", "121")
        assert cpu < 1
        assert (code, out, err) == (3, "", "resource limit: quicksort row 121 exceeds the cap 120\n")

    @pytest.mark.parametrize("value", ["5", "not-a-number"])
    def test_row_limit_variable_is_ignored(self, value, monkeypatch):
        # the variable that once set every cap neither lowers one nor fails
        # on a value that is not a number: the row prints as without it
        expected = run_cli("table", "--model", "cycles", "--n", "6")
        assert expected[0] == 0
        monkeypatch.setenv("MOMENTLAB_ROW_LIMIT", value)
        assert run_cli("table", "--model", "cycles", "--n", "6") == expected

    def test_negative_n(self):
        code, _, _ = run_cli("table", "--model", "cycles", "--n", "-1")
        assert code == 2

    @pytest.mark.parametrize("model, n", [("cycles", 300), ("inversions", 60), ("quicksort", 30)])
    def test_csv_matches_csv_writer(self, model, n):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["k", "count"])
        writer.writerows([k, c] for k, c in enumerate(distribution_table(Model(model), n).counts) if c)
        code, out, _ = run_cli("table", "--model", model, "--n", str(n))
        assert code == 0
        assert out == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_digit_limit_leaves_stdout_empty(self, fmt):
        # the counts of cycles row 400 run to 869 digits; every line is built
        # before the first is written, so the failed request prints nothing
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli("table", "--model", "cycles", "--n", "400", "--format", fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert out == ""
        assert "limit" in err

    @pytest.mark.parametrize("model, n", [("cycles", "600"), ("inversions", "120")])
    def test_json_peaks_like_csv(self, model, n):
        # JSON chunks joined into one string would hold a row's digits twice;
        # the CSV lines hold them once.  Output goes to a sink that keeps none.
        def peak(*fmt):
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                tracemalloc.start()
                try:
                    code = main(["table", "--model", model, "--n", n, *fmt])
                    return code, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        csv_code, csv_peak = peak()
        json_code, json_peak = peak("--format", "json")
        assert csv_code == json_code == 0
        assert json_peak <= 1.2 * csv_peak


class TestMoment:
    def test_exact_rational_output(self):
        code, out, _ = run_cli(
            "moment", "--model", "inversions", "--n", "10", "--s", "1",
            "--mode", "exact",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model,s,n,exact,asym"
        assert lines[1] == "inversions,1,10,45/2,"

    def test_both_modes_json(self):
        code, out, _ = run_cli(
            "moment", "--model", "quicksort", "--n", "3", "--s", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["exact"] == "8/3"
        assert payload["asym"] == pytest.approx(
            6 * 1.0986122886681098 + 6 * (0.5772156649015329 - 2), rel=1e-12
        )

    def test_double_overflow_exit_code(self):
        code, _, err, _ = fresh("moment", "--model", "quicksort", "--n", "50", "--s", "200", "--mode", "asym")
        assert code == 3
        assert "double range" in err
        assert "Traceback" not in err

    def test_cycles_exact_from_the_product(self):
        # the bytes this request printed when it summed the 3501-entry row,
        # which took 12 s of CPU
        code, out, err, cpu = fresh("moment", "--model", "cycles", "--n", "3500", "--s", "7", "--mode", "exact")
        assert cpu < 2
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c3b1e5700852ce67f89b03c372bfd58fa22054f5af39d3259dda06c7269e3376"
        )

    def test_quicksort_at_the_old_cap_is_fast(self):
        # the bytes this request printed through the PGF recurrence, which
        # took 15-23 s of CPU
        code, out, err, cpu = fresh("moment", "--model", "quicksort", "--n", "800", "--s", "6", "--mode", "exact")
        assert cpu < 1
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8fe8c2cb2b7986d135a017c5be66598a08a740bccdd05902b2992ba888aa141d"
        )

    @pytest.mark.parametrize(
        "model, n, s, asym",
        [
            ("inversions", 50, 100, "1.66521452338521e+281"),
            ("inversions", 30, MOMENT_MAX_S["inversions"], "1.40636401676346e+303"),
            ("quicksort", 2, 600, "-6.62801549051774e+268"),
        ],
    )
    def test_estimate_that_fits_is_answered(self, model, n, s, asym):
        # the double formula's powers of n pass the double range, its value
        # does not: the 82-digit estimate, rounded once
        code, out, err = run_cli("moment", "--model", model, "--n", str(n), "--s", str(s), "--mode", "asym")
        assert (code, out, err) == (0, f"model,s,n,exact,asym\n{model},{s},{n},,{asym}\n", "")
        assert asymptotic_moment(Model(model), n, s) == float(asymptotic_moment(Model(model), n, s, high_precision=True))

    @pytest.mark.parametrize(
        "argv, message",
        [
            # tools/limits.py holds each cap's edge through `moment`; these are
            # compare's route to the same caps, and refusals of the estimate.
            # The mean at the cap takes about 20 s, and at n = 10^11 did not end in 8 s
            (("compare", "--model", "quicksort", "--s", "1", "--n-grid", str(10**11)),
             f"quicksort moments of order 1 are capped at n <= {QUICKSORT_MEAN_MAX_N}, got n={10**11}"),
            (("compare", "--model", "quicksort", "--s", str(MOMENT_MAX_S["quicksort"] + 1), "--n-grid", "30"),
             f"quicksort moments are capped at s <= {MOMENT_MAX_S['quicksort']}"),
            # the estimate at n = 30 fits doubles from the 82-digit formula, so
            # the exact side's cap refuses s
            (("compare", "--model", "inversions", "--s", str(MOMENT_MAX_S["inversions"] + 1), "--n-grid", "30"),
             f"inversions moments are capped at s <= {MOMENT_MAX_S['inversions']}"),
            # far past the s cap the estimate is refused before n^(2s) is formed
            (("moment", "--model", "inversions", "--n", str(10**100), "--s", "1000000", "--mode", "both"),
             f"result overflows the double range (inversions estimate at n={10**100}, s=1000000 does not fit doubles)"),
            (("moment", "--model", "quicksort", "--n", str(10**100), "--s", "1000000", "--mode", "both"),
             f"result overflows the double range (quicksort estimate at n={10**100}, s=1000000 does not fit doubles)"),
        ],
    )
    def test_past_each_cap_exits_3_fast(self, argv, message):
        code, out, err, cpu = fresh(*argv)
        assert cpu < 2
        assert (code, out) == (3, "")
        assert err.startswith(f"resource limit: {message}")

    @pytest.mark.parametrize("model, n", [("quicksort", 8), ("inversions", 8)])
    def test_zero_past_the_s_cap(self, model, n):
        # k_max(8) = 28 < s: no series and no polynomial is built
        s = str(MOMENT_MAX_S[model] + 1)
        code, out, err, cpu = fresh("moment", "--model", model, "--n", str(n), "--s", s, "--mode", "exact")
        assert cpu < 2
        assert (code, out, err) == (0, f"model,s,n,exact,asym\n{model},{s},{n},0,\n", "")

    @pytest.mark.parametrize(
        "model, n, s", [("quicksort", 5, MOMENT_MAX_S["quicksort"]), ("inversions", 2, MOMENT_MAX_S["inversions"])]
    )
    def test_zero_past_the_support_inside_the_s_cap(self, model, n, s):
        # s > k_max(n): 0 before any series is built, where f_0..f_32 of
        # quicksort took 3.7 s and the rows 0..192 of inversions (s = 96) 6.2 s
        code, out, err, cpu = fresh("moment", "--model", model, "--n", str(n), "--s", str(s), "--mode", "exact")
        assert cpu < 1
        assert (code, out, err) == (0, f"model,s,n,exact,asym\n{model},{s},{n},0,\n", "")

    def test_zero_past_the_support_builds_no_row(self):
        # k_max = 500 * 499 / 2 = 124750 inversions
        code, out, err, cpu = fresh("moment", "--model", "inversions", "--n", "500", "--s", "124751", "--mode", "exact")
        assert cpu < 2
        assert (code, out, err) == (0, "model,s,n,exact,asym\ninversions,124751,500,0,\n", "")


class TestTransfer:
    def test_exact_case(self):
        code, out, _ = run_cli("transfer", "--alpha", "1", "--beta", "0", "--n", "50")
        lines = out.splitlines()
        assert code == 0
        row = lines[1].split(",")
        assert row[4] == "1" and row[5] == "1"
        assert row[7] == "0"

    def test_order_flag_and_json(self):
        code, out, _ = run_cli(
            "transfer", "--alpha", "1", "--beta", "2", "--n", "500",
            "--order", "0", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["order"] == 0
        assert payload["estimate"] == pytest.approx(6.214608098422191**2, rel=1e-12)
        assert "/" in payload["oracle_exact"]

    def test_high_precision_flag(self):
        code, out, _ = run_cli(
            "transfer", "--alpha", "2", "--beta", "1", "--n", "300",
            "--precision", "high", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rel_err"] < 0.05

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            # n^(alpha-1) and (alpha-1)! each pass the double range
            (("--alpha", "171", "--beta", "1", "--n", "1000"), "2.43753237065034e+203"),
            # 67^169 passes it by less than the range margin
            (("--alpha", "170", "--beta", "0", "--n", "67"), "9469.09738303627"),
            # a subnormal estimate
            (("--alpha", "200", "--beta", "1", "--n", "2"), "-9.37821428696238e-313"),
        ],
    )
    def test_estimate_that_fits_is_answered(self, argv, estimate):
        # the double formula overflows, the 82-digit one rounded once answers:
        # the bytes of --precision high in both views
        for fmt in ("csv", "json"):
            result = run_cli("transfer", *argv, "--format", fmt)
            assert result == run_cli("transfer", *argv, "--format", fmt, "--precision", "high")
        code, out, err = run_cli("transfer", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[4] == estimate

    @pytest.mark.parametrize("precision", ["double", "high"])
    def test_double_overflow_refused_at_once(self, precision):
        # the oracle C(n + alpha - 1, n)-sized value is past the double range;
        # unrefused, the request ran for over 20 s before failing
        code, _, err, cpu = fresh("transfer", "--alpha", "3000000", "--beta", "1", "--n", "100", "--precision", precision)
        assert cpu < 2
        assert code == 3
        assert "double range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            # (ln n)^300 passes the double range, past the oracle's beta budget
            (("--alpha", "1", "--beta", "300", "--n", "100000", "--order", "0"),
             "result overflows the double range (alpha=1, beta=300, n=100000 does not fit doubles)"),
            # the estimate fits, the oracle does not
            (("--alpha", "517", "--beta", "6", "--n", "517", "--precision", "high"),
             "result overflows the double range (alpha=517, beta=6, n=517 does not fit doubles)"),
            # the range bound lets it through, the 82-digit estimate does not fit:
            # refused before the exact oracle, which takes 7.6-12 s there
            (("--alpha", "89", "--beta", "6", "--n", "100000", "--precision", "high"),
             "result overflows the double range (alpha=89, beta=6, n=100000 does not fit doubles)"),
            # the 82-digit estimate fits, the 82-digit oracle does not: refused
            # between the range bounds, before the exact oracle's 7 s
            (("--alpha", "89", "--beta", "6", "--n", "93560", "--precision", "high"),
             "result overflows the double range (alpha=89, beta=6, n=93560 does not fit doubles)"),
            *[
                (("--alpha", str(10**400), "--beta", "1", "--n", "2", "--precision", precision),
                 f"result overflows the double range (alpha={10**400}, beta=1, n=2 does not fit doubles)")
                for precision in ("double", "high")
            ],
            # the estimate is 921.6; the oracle's budget refuses n
            *[
                (("--alpha", "1", "--beta", "1", "--n", str(10**400), "--precision", precision),
                 f"exact oracle budget is n <= {ORACLE_MAX_N}, got {10**400}")
                for precision in ("double", "high")
            ],
        ],
        ids=["log-power", "oracle-high", "estimate-before-oracle", "between-bounds", "alpha-double", "alpha-high", "n-double", "n-high"],
    )
    def test_refusal_prints_the_programs_line(self, argv, line):
        # each once printed Python's own text of the OverflowError
        code, out, err, cpu = fresh("transfer", *argv)
        assert cpu < 1
        assert (code, out, err) == (3, "", f"resource limit: {line}\n")

    def test_high_precision_large_alpha_is_fast(self):
        # its polygamma values at alpha = 3 x 10^6 once took O(alpha) sums, 24 s,
        # and the integer (alpha - 1)! alone takes a minute there; its estimate
        # lies below the double range and is refused once computed
        for alpha in (3_000_000, 10**9):
            code, out, err, cpu = fresh("transfer", "--alpha", str(alpha), "--beta", "1", "--n", "2", "--precision", "high")
            assert cpu < 2
            assert (code, out, err) == (
                3,
                "",
                "resource limit: result underflows the double range "
                f"(alpha={alpha}, beta=1, n=2 estimate rounds to zero in doubles)\n",
            )

    def test_exact_oracle_text_only_for_json(self):
        # the oracle H_10000 has a 4346-digit numerator, past Python's
        # integer-to-text limit; only the JSON view prints it as text
        argv = ("transfer", "--alpha", "1", "--beta", "1", "--n", "10000")
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out.splitlines()[1].startswith("1,1,10000,,9.78755603687772,9.78760603604438,")
        code, out, err = run_cli(*argv, "--format", "json")
        assert code == 2
        assert out == ""
        assert "limit" in err


# Runs ``cli.run`` on the argv that follows with every pool worker killed by
# SIGKILL as it starts its range, two usable CPUs and one worker per draw, so
# that a two-worker estimate starts its pool at any size.  A range run in this
# process would kill the request itself.
KILLED_WORKER = """
import os, signal, sys
import momentlab.cli
from momentlab import simulate
def killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)
simulate._accumulate_range = killed
simulate._usable_cpus = lambda: 2
simulate._DRAWS_PER_WORKER = 1
momentlab.cli.run()
"""

# Runs ``cli.run`` on the argv that follows with two usable CPUs, and writes
# the size of each process pool it starts to stderr.
POOL_SIZES = """
import concurrent.futures, sys
import momentlab.cli
from momentlab import simulate
class Pool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        print(f"pool of {max_workers}", file=sys.stderr)
        super().__init__(max_workers)
concurrent.futures.ProcessPoolExecutor = Pool
simulate._usable_cpus = lambda: 2
momentlab.cli.run()
"""


class TestSimulate:
    def test_repeated_runs_byte_identical(self):
        argv = ("simulate", "--model", "cycles", "--n", "25", "--s", "1",
                "--trials", "3000", "--seed", "20260810")
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0

    def test_threads_do_not_change_output(self, monkeypatch):
        # one worker per draw, so that two workers start below the real quantum
        monkeypatch.setattr(simulate, "_DRAWS_PER_WORKER", 1)
        base = ("simulate", "--model", "inversions", "--n", "20", "--s", "2",
                "--trials", "2000", "--seed", "5")
        assert run_cli(*base)[1] == run_cli(*base, "--threads", "2")[1]

    @pytest.mark.parametrize("trials, pools", [(5000, ""), (42200, "pool of 2\n")])
    def test_two_workers_only_past_two_draw_quanta(self, trials, pools):
        # 199 x 5000 draws, the size of the benchmark's --threads 2 twin, run in
        # this process; 199 x 42200, just past 2^23, on two workers
        argv = ("simulate", "--model", "cycles", "--n", "200", "--s", "2",
                "--trials", str(trials), "--seed", "1")
        assert (199 * trials >= 2 * simulate._DRAWS_PER_WORKER) == bool(pools)
        code, out, err, _ = fresh("-c", POOL_SIZES, *argv, "--threads", "2")
        assert (code, err) == (0, pools)
        assert out == run_cli(*argv)[1]

    def test_csv_fields(self):
        code, out, _ = run_cli(
            "simulate", "--model", "quicksort", "--n", "10", "--s", "1",
            "--trials", "500", "--seed", "1",
        )
        header, row = out.splitlines()
        assert header == "model,s,n,trials,seed,mean,stderr"
        fields = row.split(",")
        assert fields[:5] == ["quicksort", "1", "10", "500", "1"]
        assert float(fields[5]) > 0 and float(fields[6]) > 0

    def test_out_of_memory_exit_code(self):
        # n = 2^23 is inside the inversions memory budget; the child caps its
        # address space at what it maps once numpy and the CLI are loaded,
        # plus 32 MiB, so the first block's 64 MiB of slots cannot be had
        probe = (
            "import resource, sys, numpy\n"
            "from momentlab.cli import main\n"
            "mapped = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (mapped + (32 << 20),) * 2)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        code, _, err, cpu = fresh("-c", probe, "simulate", "--model", "inversions",
                                  "--n", str(1 << 23), "--s", "1", "--trials", "2", "--seed", "1")
        assert cpu < 2
        assert code == 3
        assert "resource limit: out of memory" in err
        assert "Traceback" not in err

    def test_killed_worker_exit_code(self, killed_workers):
        # a pool worker killed from outside ends the request with exit 3 and one
        # line, in process and through ``cli.run`` in a fresh process
        argv = ("simulate", "--model", "cycles", "--n", "50", "--s", "1",
                "--trials", "1000", "--seed", "1", "--threads", "2")
        expected = "resource limit: a worker process ended abruptly; no estimate\n"
        assert run_cli(*argv) == (3, "", expected)
        assert fresh("-c", KILLED_WORKER, *argv)[:3] == (3, "", expected)

    @pytest.mark.parametrize("model", ["cycles", "inversions", "quicksort"])
    def test_draw_limit_exit_code(self, model):
        # 2 x 10^12 draws: hours for cycles, which holds no permutation.  Every
        # model meets the draw cap before its own work, inversions before its
        # memory budget; the cap's edge is a row of tools/limits.py
        code, _, err, cpu = fresh("simulate", "--model", model, "--n", "1000000000000", "--s", "1",
                                  "--trials", "2", "--seed", "1")
        assert cpu < 2
        assert code == 3
        assert "resource limit:" in err and "draws, above the cap" in err
        assert "Traceback" not in err


class TestCompare:
    def test_cycles_error_decreases(self):
        code, out, _ = run_cli(
            "compare", "--model", "cycles", "--s", "1", "--n-grid", "100,1000,10000"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model,s,n,exact,asym,abs_err,rel_err,source"
        rows = [line.split(",") for line in lines[1:]]
        rels = [float(r[6]) for r in rows]
        assert rels == sorted(rels, reverse=True)
        assert [r[7] for r in rows] == ["pgf", "oracle", "oracle"]

    def test_closed_form_source_for_big_quicksort_mean(self):
        code, out, _ = run_cli(
            "compare", "--model", "quicksort", "--s", "1", "--n-grid", "1000"
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[7] == "closed-form"

    def test_quicksort_moments_at_the_n_cap(self):
        # s >= 2 come from the moment series up to the cap; above it, exit 3 at once
        code, _, err, cpu = fresh("compare", "--model", "quicksort", "--s", "2", "--n-grid", str(QUICKSORT_PGF_MAX_N + 1))
        assert cpu < 2
        assert code == 3
        assert err.startswith("resource limit:")
        assert "Traceback" not in err
        n = QUICKSORT_PGF_MAX_N
        code, out, _ = run_cli("compare", "--model", "quicksort", "--s", "2", "--n-grid", str(n))
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[7] == "pgf"
        # E[(X)_2] = Var + mean^2 - mean, with
        # Var = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1) H_n + 13n
        mean = quicksort_mean(n)
        variance = 7 * n**2 - 4 * (n + 1) ** 2 * harmonic(n, 2) - 2 * (n + 1) * harmonic(n) + 13 * n
        assert Fraction(row[3]) == variance + mean**2 - mean

    def test_estimate_past_the_double_range_exits_3_fast(self):
        # the estimate is refused before the exact moment is worked out, which
        # took 7 s here
        code, out, err, cpu = fresh("compare", "--model", "inversions", "--s", "96", "--n-grid", "100000")
        assert cpu < 1
        assert (code, out, err) == (3, "", "resource limit: result overflows the double range "
                                           "(inversions estimate at n=100000, s=96 does not fit doubles)\n")

    @pytest.mark.parametrize("model", ["inversions", "quicksort"])
    def test_high_precision_checks_the_caps_before_the_estimate(self, model):
        # the estimate comes first, as in doubles; the 82-digit one rounds its
        # powers of n (once formed as exact integers, past 20 s CPU here) and
        # fits the decimal range, so the exact side's refusal of s is printed
        code, out, err, cpu = fresh("compare", "--model", model, "--s", "100000", "--n-grid", str(10**100),
                                    "--precision", "high")
        assert cpu < 1
        assert (code, out, err) == (
            3, "", f"resource limit: {model} moments are capped at s <= {MOMENT_MAX_S[model]}, got s=100000\n"
        )

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            # rows past the support, whose exact moment is the closed-form 0 that
            # no cap refuses: the 82-digit estimate ran past 15 s CPU forming
            # 2^(2s) or 6^s as exact integers
            (("compare", "--model", "inversions", "--s", "1000000", "--n-grid", "2", "--precision", "high"),
             0, "model,s,n,exact,asym,abs_err,rel_err,source\n"
                "inversions,1000000,2,0,111110500001,111110500001,,closed-form\n", ""),
            (("compare", "--model", "quicksort", "--s", "1000000", "--n-grid", "3", "--precision", "high"),
             3, "", "resource limit: result overflows the double range "
                    "(quicksort estimate at n=3, s=1000000 does not fit doubles)\n"),
            # powers past the decimal exponent range raise decimal.Overflow
            (("compare", "--model", "inversions", "--s", str(10**20), "--n-grid", "2", "--precision", "high"),
             3, "", "resource limit: result overflows the double range "
                    f"(inversions estimate at n=2, s={10**20} does not fit doubles)\n"),
            (("compare", "--model", "quicksort", "--s", str(10**20), "--n-grid", "3", "--precision", "high"),
             3, "", "resource limit: result overflows the double range "
                    f"(quicksort estimate at n=3, s={10**20} does not fit doubles)\n"),
        ],
    )
    def test_high_precision_estimate_past_the_support_is_cheap(self, argv, code, out, err):
        result = fresh(*argv)
        assert result[3] < 1
        assert result[:3] == (code, out, err)

    @pytest.mark.parametrize(
        "argv, model, n, s",
        [
            # the product of quicksort's terms passed the range without raising:
            # nan, "NaN" in JSON, and inf
            (("moment", "--model", "quicksort", "--n", "1000000", "--s", "45", "--mode", "asym"),
             "quicksort", 1000000, 45),
            (("moment", "--model", "quicksort", "--n", "1000000", "--s", "47", "--mode", "asym", "--format", "json"),
             "quicksort", 1000000, 47),
            (("moment", "--model", "quicksort", "--n", str(10**306), "--s", "1", "--mode", "asym"),
             "quicksort", 10**306, 1),
            # an 82-digit estimate that rounds to -inf or inf in doubles
            (("compare", "--model", "quicksort", "--s", "1000", "--n-grid", "2", "--precision", "high"),
             "quicksort", 2, 1000),
            (("compare", "--model", "inversions", "--s", "6", "--n-grid", "1612116149325441843301783290863681536",
              "--precision", "high"),
             "inversions", 1612116149325441843301783290863681536, 6),
            # an 82-digit estimate past the decimal exponent range, at an s past
            # the cap: the estimate comes first, so its line is printed
            (("compare", "--model", "inversions", "--s", str(10**16), "--n-grid", str(10**100),
              "--precision", "high"),
             "inversions", 10**100, 10**16),
        ],
    )
    def test_estimate_never_prints_past_the_double_range(self, argv, model, n, s):
        code, out, err, cpu = fresh(*argv)
        assert cpu < 1
        assert (code, out, err) == (3, "", f"resource limit: result overflows the double range ({model} estimate "
                                           f"at n={n}, s={s} does not fit doubles)\n")

    def test_cycles_oracle_past_the_exact_oracle_budget(self):
        # the high-precision oracle's cost does not grow with n, so the exact
        # oracle's n budget does not bind it
        code, out, err, cpu = fresh("compare", "--model", "cycles", "--s", "2", "--n-grid", "150000")
        assert cpu < 2
        assert code == 0, err
        assert out.splitlines()[1].split(",")[7] == "oracle"

    @pytest.mark.parametrize("precision", ["double", "high"])
    def test_cycles_oracle_answers_every_order_of_c_k(self, precision):
        # the polygamma oracles take beta up to 16, past the exact oracle's 6
        argv = ("compare", "--model", "cycles", "--n-grid", "201", "--precision", precision)
        code, out, err = run_cli(*argv, "--s", "7")
        assert code == 0, err
        row = out.splitlines()[1].split(",")
        assert row[7] == "oracle"
        assert row[3] == format(float(exact_moment(Model.CYCLES, 201, 7)[0]), ".15g")
        assert run_cli(*argv, "--s", "16")[0] == 0
        code, out, err = run_cli(*argv, "--s", "17")
        assert code == 3
        assert out == ""
        assert err == "resource limit: oracle budget is beta <= 16, got 17\n"

    @pytest.mark.parametrize(
        "model, sources",
        [
            ("cycles", ["pgf", "pgf", "pgf"]),
            ("inversions", ["pgf", "pgf", "pgf"]),
            ("quicksort", ["pgf", "pgf", "pgf"]),
        ],
    )
    def test_sources_at_s_7(self, model, sources):
        code, out, _ = run_cli("compare", "--model", model, "--s", "7", "--n-grid", "3,4,5")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[7] for r in rows] == sources
        assert [r[3] for r in rows[:2]] == ["0", "0"]

    def test_high_precision_flag_runs(self):
        code, out, _ = run_cli(
            "compare", "--model", "inversions", "--s", "2", "--n-grid", "10,20",
            "--precision", "high",
        )
        assert code == 0
        assert len(out.splitlines()) == 3


# Pinned from the series-convolution oracles that the product-tree and
# polygamma routes replaced.  Above the table cutoff a cycles moment prints as
# the double of an 82-digit value, and abs_err and rel_err of the
# high-precision report use all of it.
ORACLE_GRID = "201,4567,65432,100000"
CYCLES_GOLDEN = {
    (1, 'double'): [
        (201, '5.88300607249955', 5.8805205729606085, 0.0024854995389453904, 0.00042248801179451426),
        (4567, '9.00393695515094', 9.003827478086533, 0.00010947706440767035, 1.215879952880402e-05),
        (65432, '11.6659900208178', 11.665982379316343, 7.641501504451753e-06, 6.55023833452246e-07),
        (100000, '12.0901461298634', 12.090141129871762, 4.999991665144421e-06, 4.135592416698856e-07),
    ],
    (2, 'double'): [
        (201, '32.9697891511891', 34.247344285205244, 1.2775551340161897, 0.038749266128385744),
        (4567, '79.4261655636337', 80.73573133133837, 1.3095657677046972, 0.016487838213158048),
        (65432, '134.450404381899', 135.76196695071167, 1.3115625688131445, 0.009754991625668358),
        (100000, '144.526709374553', 145.83833461640913, 1.3116252418557224, 0.009075313812456165),
    ],
    (3, 'double'): [
        (201, '177.069636754491', 197.85832440124156, 20.788687646750077, 0.11740402266467494),
        (4567, '687.934478426744', 721.315474167215, 33.38099574047135, 0.048523510286635534),
        (65432, '1532.52197738363', 1576.4076496853363, 43.88567230170338, 0.02863624336182526),
        (100000, '1709.97840513021', 1755.534342451105, 45.55593732089028, 0.026641235459006395),
    ],
    (4, 'double'): [
        (201, '915.429099095627', 1135.3980169239187, 219.96891782829198, 0.24029050206684963),
        (4567, '5860.66395141613', 6423.625405884993, 562.9614544688675, 0.09605762403982195),
        (65432, '17292.5512714298', 18267.440444416105, 974.8891729862735, 0.056376248807019726),
        (100000, '20041.3867315434', 21092.172303218787, 1050.7855716753402, 0.0524307816495299),
    ],
    (5, 'double'): [
        (201, '4571.56307268709', 6477.949880133053, 1906.3868074459624, 0.4170098448024735),
        (4567, '49179.9231636815', 57039.78016032373, 7859.856996642193, 0.15981840741155431),
        (65432, '193312.491595011', 211290.50854444757, 17978.01694943651, 0.09299976841176094),
        (100000, '232847.743204611', 252973.6099144984, 20125.866709887225, 0.08643359146582728),
    ],
    (6, 'double'): [
        (201, '22113.9691102756', 36775.968798059104, 14661.999687783544, 0.6630198140672379),
        (4567, '406996.445371366', 505176.7482996173, 98180.30292825168, 0.24123135237376986),
        (65432, '2142399.36395193', 2439724.18910865, 297324.8251567236, 0.13878123292954606),
        (100000, '2683437.1063061', 3029218.9190921355, 345781.81278603943, 0.1288578040355221),
    ],
    (1, 'high'): [
        (201, '5.88300607249955', 5.8805205729606085, 0.002485499538945317, 0.0004224880117945018),
        (4567, '9.00393695515094', 9.003827478086531, 0.00010947706440919453, 1.2158799528973297e-05),
        (65432, '11.6659900208178', 11.665982379316343, 7.641501504052635e-06, 6.550238334180339e-07),
        (100000, '12.0901461298634', 12.09014112987176, 4.999991666666667e-06, 4.1355924179579355e-07),
    ],
    (2, 'high'): [
        (201, '32.9697891511891', 34.247344285205244, 1.2775551340161941, 0.038749266128385876),
        (4567, '79.4261655636337', 80.73573133133836, 1.3095657677046866, 0.016487838213157916),
        (65432, '134.450404381899', 135.7619669507117, 1.311562568813168, 0.009754991625668535),
        (100000, '144.526709374553', 145.8383346164091, 1.3116252418557113, 0.009075313812456088),
    ],
    (3, 'high'): [
        (201, '177.069636754491', 197.85832440124156, 20.788687646750073, 0.11740402266467491),
        (4567, '687.934478426744', 721.3154741672149, 33.38099574047117, 0.04852351028663527),
        (65432, '1532.52197738363', 1576.4076496853365, 43.88567230170348, 0.028636243361825325),
        (100000, '1709.97840513021', 1755.5343424511047, 45.555937320890074, 0.026641235459006273),
    ],
    (4, 'high'): [
        (201, '915.429099095627', 1135.3980169239187, 219.96891782829206, 0.2402905020668497),
        (4567, '5860.66395141613', 6423.625405884991, 562.9614544688654, 0.09605762403982158),
        (65432, '17292.5512714298', 18267.44044441611, 974.8891729862771, 0.05637624880701994),
        (100000, '20041.3867315434', 21092.172303218787, 1050.7855716753381, 0.0524307816495298),
    ],
    (5, 'high'): [
        (201, '4571.56307268709', 6477.949880133053, 1906.3868074459624, 0.4170098448024735),
        (4567, '49179.9231636815', 57039.78016032371, 7859.856996642174, 0.15981840741155393),
        (65432, '193312.491595011', 211290.5085444476, 17978.016949436533, 0.09299976841176105),
        (100000, '232847.743204611', 252973.60991449837, 20125.8667098872, 0.08643359146582717),
    ],
    (6, 'high'): [
        (201, '22113.9691102756', 36775.968798059104, 14661.999687783547, 0.663019814067238),
        (4567, '406996.445371366', 505176.74829961715, 98180.30292825149, 0.24123135237376941),
        (65432, '2142399.36395193', 2439724.1891086507, 297324.8251567241, 0.13878123292954625),
        (100000, '2683437.1063061', 3029218.919092135, 345781.81278603914, 0.128857804035522),
    ],
}
TRANSFER_GOLDEN = {
    (1, 0, 2): (1.0, 1.0, '1', 0.0, 0.0),
    (2, 3, 7): (6.9347939952129405, 21.933333333333334, '329/15', 14.998539338120393, 0.6838239819811729),
    (3, 6, 5): (1.495863567614958, 0.0, '0', 1.495863567614958, None),
    (4, 2, 20): (3656.5813581564257, 5972.459853404703, '50052391875767/8380532160', 2315.878495248277, 0.38775957513185644),
    (5, 6, 30): (531788.5734296758, 1585391.2631223963, '80939368358179669454245550867/51053244861947328000000', 1053602.6896927205, 0.6645695067208023),
    (2, 1, 60): (220.293613627418, 225.472095190056, '728328391892028565820385571/3230237388259077233637600', 5.178481562637984, 0.02296728363779524),
}


class TestOracleGolden:
    @pytest.mark.parametrize("s, precision", sorted(CYCLES_GOLDEN))
    def test_cycles_compare_json(self, s, precision):
        code, out, _ = run_cli(
            "compare", "--model", "cycles", "--s", str(s), "--n-grid", ORACLE_GRID,
            "--precision", precision, "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["source"] for r in rows} == {"oracle"}
        assert [
            (r["n"], r["exact"], r["asym"], r["abs_err"], r["rel_err"]) for r in rows
        ] == CYCLES_GOLDEN[s, precision]

    @pytest.mark.parametrize("alpha, beta, n", sorted(TRANSFER_GOLDEN))
    def test_transfer_json(self, alpha, beta, n):
        code, out, _ = run_cli(
            "transfer", "--alpha", str(alpha), "--beta", str(beta), "--n", str(n),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert tuple(
            payload[k] for k in ("estimate", "oracle", "oracle_exact", "abs_err", "rel_err")
        ) == TRANSFER_GOLDEN[alpha, beta, n]


class TestVerify:
    def test_passes_and_is_deterministic(self):
        first = run_cli("verify")
        second = run_cli("verify")
        assert first == second
        code, out, _ = first
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("model,s,coefficient")
        assert len(lines) == 1 + 3 * 10 * 2
        assert all(line.endswith("ok") for line in lines[1:])

    def test_json_payload(self):
        code, out, _ = run_cli("verify", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["passed"] is True
        assert len(payload["results"]) == 60


    @pytest.mark.parametrize("model", [Model.INVERSIONS, Model.QUICKSORT])
    def test_checks_the_series(self, model, monkeypatch):
        # the expansion is read off f_s, so a wrong second term of one f_s
        # fails that row alone
        from momentlab import moments

        series = moments.moment_series

        def corrupted(m, s):
            terms, d = series(m, s)
            if (m, s) == (model, 4):
                second = sorted(terms, reverse=True)[1]
                terms = {**terms, second: terms[second] + d}
            return terms, d

        monkeypatch.setattr(moments, "moment_series", corrupted)
        code, out, err = run_cli("verify")
        assert code == 4
        assert err == "verify: 1 coefficient check(s) failed\n"
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 60
        assert [r[:3] for r in rows if r[-1] == "FAIL"] == [[model.value, "4", "second"]]
        assert all(r[-1] == "ok" for r in rows if r[:3] != [model.value, "4", "second"])

# Every subcommand's stdout in each format, byte for byte: JSON indentation
# and key order, CSV float formatting and empty cells.
STDOUT_GOLDEN = [
    (
        'moment --model quicksort --n 12 --s 2 --mode exact --format csv',
        'model,s,n,exact,asym\nquicksort,2,12,110282483/103950,\n',
    ),
    (
        'moment --model quicksort --n 12 --s 2 --mode exact --format json',
        '{\n  "schema": 1,\n  "command": "moment",\n  "model": "quicksort",\n  "s": 2,\n  "n": 12,\n  "mode": "exact",\n  "exact": "110282483/103950",\n  "asym": null\n}\n',
    ),
    (
        'moment --model quicksort --n 12 --s 2 --mode asym --format csv',
        'model,s,n,exact,asym\nquicksort,2,12,,-516.217796835918\n',
    ),
    (
        'moment --model quicksort --n 12 --s 2 --mode asym --format json',
        '{\n  "schema": 1,\n  "command": "moment",\n  "model": "quicksort",\n  "s": 2,\n  "n": 12,\n  "mode": "asym",\n  "exact": null,\n  "asym": -516.2177968359179\n}\n',
    ),
    (
        'moment --model quicksort --n 12 --s 2 --mode both --format csv',
        'model,s,n,exact,asym\nquicksort,2,12,110282483/103950,-516.217796835918\n',
    ),
    (
        'moment --model quicksort --n 12 --s 2 --mode both --format json',
        '{\n  "schema": 1,\n  "command": "moment",\n  "model": "quicksort",\n  "s": 2,\n  "n": 12,\n  "mode": "both",\n  "exact": "110282483/103950",\n  "asym": -516.2177968359179\n}\n',
    ),
    (
        # the lead term n^4 / 16 fits a double though n^4 does not
        f'moment --model inversions --n {2 * 10**77} --s 2 --mode asym --format csv',
        f'model,s,n,exact,asym\ninversions,2,{2 * 10**77},,1e+308\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --precision double --format csv',
        'alpha,beta,n,order,estimate,oracle,abs_err,rel_err\n3,2,40,,5805.07851247438,6560.01854203271,754.940029558329,0.11508199629637\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --precision double --format json',
        '{\n  "schema": 1,\n  "command": "transfer",\n  "alpha": 3,\n  "beta": 2,\n  "n": 40,\n  "order": null,\n  "estimate": 5805.078512474381,\n  "oracle": 6560.01854203271,\n  "oracle_exact": "27752776328749275686628563/4230594189776436768000",\n  "abs_err": 754.9400295583291,\n  "rel_err": 0.11508199629637035\n}\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --precision high --format csv',
        'alpha,beta,n,order,estimate,oracle,abs_err,rel_err\n3,2,40,,5805.07851247438,6560.01854203271,754.940029558329,0.11508199629637\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --precision high --format json',
        '{\n  "schema": 1,\n  "command": "transfer",\n  "alpha": 3,\n  "beta": 2,\n  "n": 40,\n  "order": null,\n  "estimate": 5805.078512474381,\n  "oracle": 6560.01854203271,\n  "oracle_exact": "27752776328749275686628563/4230594189776436768000",\n  "abs_err": 754.9400295583291,\n  "rel_err": 0.11508199629637035\n}\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --order 0 --precision double --format csv',
        'alpha,beta,n,order,estimate,oracle,abs_err,rel_err\n3,2,40,0,10886.2653015871,6560.01854203271,4326.24675955444,0.659486971238635\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --order 0 --precision double --format json',
        '{\n  "schema": 1,\n  "command": "transfer",\n  "alpha": 3,\n  "beta": 2,\n  "n": 40,\n  "order": 0,\n  "estimate": 10886.265301587146,\n  "oracle": 6560.01854203271,\n  "oracle_exact": "27752776328749275686628563/4230594189776436768000",\n  "abs_err": 4326.246759554436,\n  "rel_err": 0.6594869712386346\n}\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --order 0 --precision high --format csv',
        'alpha,beta,n,order,estimate,oracle,abs_err,rel_err\n3,2,40,0,10886.2653015871,6560.01854203271,4326.24675955444,0.659486971238635\n',
    ),
    (
        'transfer --alpha 3 --beta 2 --n 40 --order 0 --precision high --format json',
        '{\n  "schema": 1,\n  "command": "transfer",\n  "alpha": 3,\n  "beta": 2,\n  "n": 40,\n  "order": 0,\n  "estimate": 10886.265301587146,\n  "oracle": 6560.01854203271,\n  "oracle_exact": "27752776328749275686628563/4230594189776436768000",\n  "abs_err": 4326.246759554436,\n  "rel_err": 0.6594869712386346\n}\n',
    ),
    (
        'simulate --model inversions --n 20 --s 2 --trials 200 --seed 7 --format csv',
        'model,s,n,trials,seed,mean,stderr\ninversions,2,20,200,7,8933.54,199.7815232376\n',
    ),
    (
        'simulate --model inversions --n 20 --s 2 --trials 200 --seed 7 --format json',
        '{\n  "schema": 1,\n  "command": "simulate",\n  "model": "inversions",\n  "s": 2,\n  "n": 20,\n  "trials": 200,\n  "seed": 7,\n  "mean": 8933.54,\n  "stderr": 199.7815232375999\n}\n',
    ),
    (
        'compare --model inversions --s 5 --n-grid 2,12 --format csv',
        'model,s,n,exact,asym,abs_err,rel_err,source\ninversions,5,2,0,0.722222222222222,0.722222222222222,,pgf\ninversions,5,12,91060981/2,57666816,12136325.5,0.266553805301087,pgf\n',
    ),
    (
        'compare --model inversions --s 5 --n-grid 2,12 --format json',
        '{\n  "schema": 1,\n  "command": "compare",\n  "model": "inversions",\n  "s": 5,\n  "rows": [\n    {\n      "n": 2,\n      "exact": "0",\n      "asym": 0.7222222222222222,\n      "abs_err": 0.7222222222222222,\n      "rel_err": null,\n      "source": "pgf"\n    },\n    {\n      "n": 12,\n      "exact": "91060981/2",\n      "asym": 57666816.0,\n      "abs_err": 12136325.5,\n      "rel_err": 0.2665538053010872,\n      "source": "pgf"\n    }\n  ]\n}\n',
    ),
    (
        'compare --model cycles --s 2 --n-grid 10,300 --precision high --format csv',
        'model,s,n,exact,asym,abs_err,rel_err,source\ncycles,2,10,177133/25200,7.96007448136823,0.930987179780928,0.132447804364401,pgf\ncycles,2,300,37.8302591499224,39.11775970532,1.28750055539761,0.0340336171183815,oracle\n',
    ),
    (
        'compare --model cycles --s 2 --n-grid 10,300 --precision high --format json',
        '{\n  "schema": 1,\n  "command": "compare",\n  "model": "cycles",\n  "s": 2,\n  "rows": [\n    {\n      "n": 10,\n      "exact": "177133/25200",\n      "asym": 7.96007448136823,\n      "abs_err": 0.9309871797809284,\n      "rel_err": 0.13244780436440073,\n      "source": "pgf"\n    },\n    {\n      "n": 300,\n      "exact": "37.8302591499224",\n      "asym": 39.11775970532,\n      "abs_err": 1.2875005553976053,\n      "rel_err": 0.03403361711838145,\n      "source": "oracle"\n    }\n  ]\n}\n',
    ),
    (
        'compare --model inversions --s 2 --n-grid 10,20 --precision high --format csv',
        'model,s,n,exact,asym,abs_err,rel_err,source\ninversions,2,10,515,527.777777777778,12.7777777777778,0.0248112189859763,pgf\ninversions,2,20,18335/2,9222.22222222222,54.7222222222222,0.00596915431930431,pgf\n',
    ),
    (
        'compare --model inversions --s 2 --n-grid 10,20 --precision high --format json',
        '{\n  "schema": 1,\n  "command": "compare",\n  "model": "inversions",\n  "s": 2,\n  "rows": [\n    {\n      "n": 10,\n      "exact": "515",\n      "asym": 527.7777777777778,\n      "abs_err": 12.777777777777779,\n      "rel_err": 0.02481121898597627,\n      "source": "pgf"\n    },\n    {\n      "n": 20,\n      "exact": "18335/2",\n      "asym": 9222.222222222223,\n      "abs_err": 54.72222222222222,\n      "rel_err": 0.005969154319304306,\n      "source": "pgf"\n    }\n  ]\n}\n',
    ),
    (
        'compare --model quicksort --s 3 --n-grid 12,60 --precision high --format csv',
        'model,s,n,exact,asym,abs_err,rel_err,source\nquicksort,3,12,14271940259/415800,-152234.796975744,186558.84762269,5.43522236176665,pgf\nquicksort,3,60,193480937127139369951257768711911066060774109423691/5212552565637110306298738816531196228800000,-5040606.97159816,42158877.6635103,1.13579854011616,pgf\n',
    ),
    (
        'compare --model quicksort --s 3 --n-grid 12,60 --precision high --format json',
        '{\n  "schema": 1,\n  "command": "compare",\n  "model": "quicksort",\n  "s": 3,\n  "rows": [\n    {\n      "n": 12,\n      "exact": "14271940259/415800",\n      "asym": -152234.79697574445,\n      "abs_err": 186558.84762269008,\n      "rel_err": 5.435222361766652,\n      "source": "pgf"\n    },\n    {\n      "n": 60,\n      "exact": "193480937127139369951257768711911066060774109423691/5212552565637110306298738816531196228800000",\n      "asym": -5040606.97159816,\n      "abs_err": 42158877.6635103,\n      "rel_err": 1.1357985401161612,\n      "source": "pgf"\n    }\n  ]\n}\n',
    ),
    (
        # (alpha - 1)! as exp(ln Gamma(alpha)) at huge alpha; the estimate is
        # below the double range, so the request is refused and prints nothing
        'transfer --alpha 3000000 --beta 1 --n 2 --precision high --format csv',
        '',
    ),
    (
        'transfer --alpha 3000000 --beta 1 --n 2 --precision high --format json',
        '',
    ),
    (
        'table --model inversions --n 4 --format json',
        '{\n  "schema": 1,\n  "command": "table",\n  "model": "inversions",\n  "n": 4,\n  "counts": [\n    1,\n    3,\n    5,\n    6,\n    5,\n    3,\n    1\n  ]\n}\n',
    ),
]
VERIFY_SHA256 = {
    'csv': 'dc8a42eeb63d5c940487e008a47a7208c8e50056a4db31c7cbe718bd1c6a16cf',
    'json': '93e97789fc442e21ce64aca848c2009bf57e5cee19c9ede04cc85c29a8058b24',
}


class TestStdoutGolden:
    @pytest.mark.parametrize("argv, expected", STDOUT_GOLDEN, ids=[a for a, _ in STDOUT_GOLDEN])
    def test_bytes(self, argv, expected):
        code, out, _ = run_cli(*argv.split())
        assert code == (0 if expected else 3)  # a refused request prints nothing
        assert out == expected

    @pytest.mark.parametrize("fmt", sorted(VERIFY_SHA256))
    def test_verify_bytes(self, fmt):
        code, out, _ = run_cli("verify", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[fmt]


class TestCsvView:
    """The CSV view joins its cells with "," itself; every cell is the
    program's own, so its bytes are what ``csv.writer`` would write."""

    @pytest.mark.parametrize(
        "argv, sources",
        [
            ("moment --model quicksort --n 12 --s 2", None),
            ("moment --model inversions --n 7 --s 3 --mode exact", None),
            ("transfer --alpha 3 --beta 2 --n 40", None),
            ("transfer --alpha 3 --beta 2 --n 40 --order 1", None),
            ("transfer --alpha 3 --beta 2 --n 40 --precision high", None),
            ("transfer --alpha 3 --beta 2 --n 40 --order 1 --precision high", None),
            ("simulate --model quicksort --n 20 --s 2 --trials 50 --seed 3", None),
            ("verify", None),
            # a pgf row, and a pgf zero past the support with an empty rel_err
            ("compare --model inversions --s 5 --n-grid 2,12", ["pgf", "pgf"]),
            # closed-form zeros past the support above the s cap, and the mean
            ("compare --model quicksort --s 40 --n-grid 5,8", ["closed-form", "closed-form"]),
            ("compare --model quicksort --s 1 --n-grid 30", ["closed-form"]),
            # a pgf row and a cycles oracle row, in both precisions
            ("compare --model cycles --s 2 --n-grid 150,300", ["pgf", "oracle"]),
            ("compare --model cycles --s 2 --n-grid 150,300 --precision high", ["pgf", "oracle"]),
        ],
    )
    def test_matches_csv_writer(self, argv, sources):
        code, out, _ = run_cli(*argv.split())
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        # a comma inside a cell would split it, and give a row more fields
        assert {len(row) for row in rows} == {len(rows[0])}
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert out == expected.getvalue()
        if sources is not None:
            assert [row[-1] for row in rows[1:]] == sources
            # a zero's rel_err is the empty cell
            assert all((row[3] == "0") == (row[6] == "") for row in rows[1:])


# Imports the module named first in a fresh interpreter, runs the request that
# follows, if any, and prints its exit code, or a parser exit's code, the
# momentlab submodules it loaded besides the CLI, and which of MODULES it
# loaded; the test process itself already holds them all.
MODULES = ("numpy", "mpmath", "concurrent.futures.process", "argparse", "__future__", "csv", "fractions", "decimal",
           "dataclasses")
IMPORT_PROBE = f"""
import importlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
importlib.import_module(sys.argv[1])
code = None
if sys.argv[2:]:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = sys.modules["momentlab.cli"].main(sys.argv[2:])
        except SystemExit as exc:
            code = exc.code
layers = sorted(m[len("momentlab."):] for m in sys.modules if m.startswith("momentlab.") and m != "momentlab.cli")
print(json.dumps([code, layers, [m for m in {MODULES!r} if m in sys.modules]]))
"""

TRANSFER_ARGV = ("transfer", "--alpha", "2", "--beta", "1", "--n", "50")
SIMULATE_ARGV = (
    "simulate", "--model", "cycles", "--n", "50", "--s", "2", "--trials", "100", "--seed", "1"
)
EXACT = ["fractions", "decimal"]
LAYERS = ["expansions", "moments", "tables", "transfer"]


class TestImports:
    """Every request is a fresh process that compiles the modules it imports,
    so it loads only the momentlab submodules its route runs: numpy and the
    process pool only on the routes that use them, fractions and decimal only
    on the exact and estimate routes, argparse only for help and parse errors,
    and mpmath, the tests' reference, ``__future__``, ``csv``, whose writer the
    CSV view does without, and dataclasses by none."""

    @pytest.mark.parametrize(
        "argv, code, layers, modules",
        [
            # None imports the package alone, () the CLI alone
            pytest.param(None, None, [], [], id="import-package"),
            pytest.param((), None, [], [], id="import-cli"),
            pytest.param(("table", "--model", "cycles", "--n", "30"), 0, ["tables"], [], id="table-cycles"),
            pytest.param(("table", "--model", "inversions", "--n", "20"), 0, ["tables"], [], id="table-inversions"),
            pytest.param(("table", "--model", "cycles", "--n", "5000"), 3, ["tables"], [], id="table-over-cap"),
            # only a quicksort row loads the number-theoretic transforms
            pytest.param(("table", "--model", "quicksort", "--n", "20"), 0, ["_ntt", "tables"], ["numpy"],
                         id="table-quicksort-20"),
            pytest.param(("table", "--model", "quicksort", "--n", "30"), 0, ["_ntt", "tables"], ["numpy"],
                         id="table-quicksort"),
            pytest.param(("table", "--model", "heapsort", "--n", "3"), 2, [], ["argparse"], id="parse-error"),
            pytest.param(("moment", "--model", "inversions", "--n", "20", "--s", "2", "--mode", "exact"),
                         0, ["moments", "tables"], EXACT, id="moment-inversions-exact"),
            pytest.param(("moment", "--model", "inversions", "--n", "20", "--s", "2", "--mode", "both"),
                         0, LAYERS, EXACT, id="moment-inversions-both"),
            pytest.param(("moment", "--model", "cycles", "--n", "20", "--s", "2", "--mode", "exact"),
                         0, ["moments", "tables"], EXACT, id="moment-cycles-exact"),
            # the quicksort moment series build no row, at any s
            pytest.param(("moment", "--model", "quicksort", "--n", "20", "--s", "3", "--mode", "exact"),
                         0, ["moments", "tables"], EXACT, id="moment-quicksort-exact"),
            pytest.param(("moment", "--model", "quicksort", "--n", "31", "--s", "3", "--mode", "exact"),
                         0, ["moments", "tables"], EXACT, id="moment-quicksort-pgf"),
            pytest.param(("moment", "--model", "quicksort", "--n", "30", "--s", "7", "--mode", "exact"),
                         0, ["moments", "tables"], EXACT, id="moment-quicksort-s7"),
            pytest.param(("moment", "--model", "quicksort", "--n", "20", "--s", "2", "--mode", "asym"),
                         0, ["expansions", "transfer"], EXACT, id="moment-asym"),
            # the exact oracle's rising product is tables._rising
            pytest.param(TRANSFER_ARGV, 0, ["tables", "transfer"], EXACT, id="transfer"),
            pytest.param(("transfer", "--alpha", "2", "--beta", "3", "--n", "500"),
                         0, ["tables", "transfer"], EXACT, id="transfer-beta-3"),
            pytest.param(("transfer", "--alpha", "2", "--beta", "3", "--n", "500", "--precision", "high"),
                         0, ["tables", "transfer"], EXACT, id="transfer-high"),
            pytest.param(("compare", "--model", "cycles", "--s", "2", "--n-grid", "150,5000"),
                         0, LAYERS, EXACT, id="compare-cycles-oracle"),
            pytest.param(("compare", "--model", "cycles", "--s", "2", "--n-grid", "150,5000", "--precision", "high"),
                         0, LAYERS, EXACT, id="compare-cycles-oracle-high"),
            pytest.param(("compare", "--model", "cycles", "--s", "2", "--n-grid", "300,5000"),
                         0, ["expansions", "transfer"], EXACT, id="compare-oracle"),
            pytest.param(("compare", "--model", "cycles", "--s", "2", "--n-grid", "150,300"),
                         0, LAYERS, EXACT, id="compare"),
            pytest.param(("compare", "--model", "quicksort", "--s", "3", "--n-grid", "12,60", "--precision", "high"),
                         0, LAYERS, EXACT, id="compare-quicksort-high"),
            pytest.param(("compare", "--model", "quicksort", "--s", "1", "--n-grid", "2000"),
                         0, LAYERS, EXACT, id="compare-quicksort-mean"),
            pytest.param(("compare", "--model", "quicksort", "--s", "3", "--n-grid", "60"),
                         0, LAYERS, EXACT, id="compare-quicksort-pgf"),
            pytest.param(("compare", "--model", "quicksort", "--s", "7", "--n-grid", "30"),
                         0, LAYERS, EXACT, id="compare-quicksort-s7"),
            pytest.param(("verify",), 0, LAYERS, EXACT, id="verify"),
            # Model is the package root's own, so naming one loads no tables;
            # the mean and stderr are rounded from the exact sums by int / int
            pytest.param(SIMULATE_ARGV, 0, ["simulate"], ["numpy"], id="simulate"),
            pytest.param((*SIMULATE_ARGV, "--threads", "1"), 0, ["simulate"], ["numpy"], id="simulate-one-worker"),
            *[
                pytest.param(("simulate", "--model", model, *SIMULATE_ARGV[3:]), 0, ["simulate"], ["numpy"],
                             id=f"simulate-{model}")
                for model in ("inversions", "quicksort")
            ],
        ],
    )
    def test_route_loads_only_its_modules(self, argv, code, layers, modules):
        module = "momentlab" if argv is None else "momentlab.cli"
        got_code, out, err, _ = fresh("-c", IMPORT_PROBE, module, *(argv or ()))
        assert got_code == 0, err
        assert json.loads(out) == [code, layers, modules]


BLAS_PROBE = """
import os, sys
from momentlab.cli import main
code = main(sys.argv[1:])
print(code, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


class TestBlasThreads:
    """``main`` asks OpenBLAS for one thread before a layer loads numpy,
    unless the caller chose a number."""

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_one_thread_unless_set(self, preset, expected):
        # a direct launch: the runner always sets one thread
        env = child.environment(ROOT)
        del env["OPENBLAS_NUM_THREADS"]
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE, "table", "--model", "quicksort", "--n", "5"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {expected}"


REPLAY = ROOT / "perfbench" / "replay.py"

# Resolves every name perfbench's traced replay wraps, in a fresh
# interpreter as the replay does, and prints those that do not resolve.
SHIMS_PROBE = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_replay", sys.argv[1])
replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay)
print(json.dumps([
    f"{module}.{attr}" for module, attr, *_ in replay.SHIMS
    if not hasattr(importlib.import_module(module), attr)
]))
"""

# A request that calls each name the replay wraps on momentlab.cli, except
# factorial_moment and quicksort_mean, which the CLI no longer calls.
SHIM_REQUESTS = {
    "distribution_table": ("table", "--model", "cycles", "--n", "5"),
    "exact_coefficient": TRANSFER_ARGV,
    "transfer_term": TRANSFER_ARGV,
    "highprec_coefficient": (
        "compare", "--model", "cycles", "--s", "2", "--n-grid", "300", "--precision", "high"
    ),
    "asymptotic_moment": (
        "moment", "--model", "inversions", "--n", "20", "--s", "2", "--mode", "asym"
    ),
    "coefficient_crosscheck": ("verify",),
    "estimate_factorial_moment": SIMULATE_ARGV,
}


def replay_shims():
    """perfbench/replay.py's SHIMS, read from the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHIMS


class TestReplayNames:
    """perfbench's traced replay sets wrappers on momentlab.cli by name, so
    each name must resolve there and a wrapper set on it must be what runs."""

    def test_every_shim_resolves_in_a_fresh_process(self):
        code, out, err, _ = fresh("-c", SHIMS_PROBE, str(REPLAY))
        assert code == 0, err
        assert json.loads(out) == []

    def test_every_cli_shim_has_a_request(self):
        names = {attr for module, attr, *_ in replay_shims() if module == "momentlab.cli"}
        assert names - {"factorial_moment", "quicksort_mean"} == set(SHIM_REQUESTS)

    @pytest.mark.parametrize("name", sorted(SHIM_REQUESTS))
    def test_wrapper_set_on_cli_runs(self, name, monkeypatch):
        import momentlab.cli as cli

        calls = []
        original = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        code, _, _ = run_cli(*SHIM_REQUESTS[name])
        assert code == 0
        assert calls

    def test_wrapper_set_on_transfer_gives_each_ck(self, monkeypatch):
        # the double record is built per call, so it holds the wrapper
        from momentlab import transfer

        calls = []
        original = transfer.gamma_recip_derivative

        def counting(alpha, k):
            calls.append((alpha, k))
            return original(alpha, k)

        monkeypatch.setattr(transfer, "gamma_recip_derivative", counting)
        code, _, _ = run_cli("transfer", "--alpha", "2", "--beta", "3", "--n", "500")
        assert code == 0
        assert calls == [(2, k) for k in range(4)]


class TestParser:
    def test_model_choices_are_the_models(self, capsys):
        choices = ", ".join(repr(m.value) for m in Model)
        assert choices == "'cycles', 'inversions', 'quicksort'"
        for command in ("table", "moment", "simulate", "compare"):
            with pytest.raises(SystemExit):
                main([command, "--model", "heapsort"])
            assert f"invalid choice: 'heapsort' (choose from {choices})\n" in capsys.readouterr().err

    def test_model_is_the_packages_own(self):
        import momentlab
        from momentlab import cli, expansions, moments, simulate, tables

        assert momentlab.Model.__module__ == "momentlab"
        assert "Model" in momentlab.__all__
        for module in (cli, tables, moments, simulate, expansions):
            assert module.Model is momentlab.Model

    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--model", "heapsort", "--n", "3"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        code, out, _, _ = fresh("moment", "--model", "inversions", "--n", "10", "--s", "1", "--mode", "exact")
        assert code == 0
        assert "45/2" in out


# argparse's own text, which only --help and parse errors print, byte for
# byte as CPython 3.11 writes it; below, the table reader against argparse.

# one digit past Python's 4300-digit limit on int()
BIG = "1" + "0" * 4300

# The --help of the program and of each subcommand at 80 columns.
HELP = {
    (): (
        'usage: momentlab [-h] {table,moment,transfer,simulate,compare,verify} ...\n'
        '\n'
        'Exact cost distributions, factorial moments, and asymptotic estimates for\n'
        'permutation cycle counts, inversion counts, and randomized-quicksort\n'
        'comparisons. All logarithms are natural logs (base e), including in quicksort\n'
        'outputs.\n'
        '\n'
        'positional arguments:\n'
        '  {table,moment,transfer,simulate,compare,verify}\n'
        '    table               exact distribution row\n'
        '    moment              factorial moment at one size\n'
        '    transfer            log-power coefficient: asymptotic estimate vs exact\n'
        '                        series oracle\n'
        '    simulate            Monte Carlo factorial moment\n'
        '    compare             exact vs asymptotic over an n-grid\n'
        '    verify              cross-check transferred expansion coefficients against\n'
        '                        the stated asymptotics for s = 1..10\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ('table',): (
        'usage: momentlab table [-h] --model {cycles,inversions,quicksort} --n N\n'
        '                       [--format {csv,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --model {cycles,inversions,quicksort}\n'
        '                        which cost statistic\n'
        '  --n N                 input size (n >= 0)\n'
        '  --format {csv,json}\n'
    ),
    ('moment',): (
        'usage: momentlab moment [-h] --model {cycles,inversions,quicksort} --n N --s S\n'
        '                        [--mode {exact,asym,both}] [--format {csv,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --model {cycles,inversions,quicksort}\n'
        '                        which cost statistic\n'
        '  --n N\n'
        '  --s S                 moment order (s >= 0)\n'
        '  --mode {exact,asym,both}\n'
        '  --format {csv,json}\n'
    ),
    ('transfer',): (
        'usage: momentlab transfer [-h] --alpha ALPHA --beta BETA --n N [--order ORDER]\n'
        '                          [--precision {double,high}] [--format {csv,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --alpha ALPHA         power of 1/(1-u), >= 1\n'
        '  --beta BETA           power of log(1/(1-u)), >= 0\n'
        '  --n N                 coefficient index (n >= 2)\n'
        '  --order ORDER         truncate the correction bracket at this order\n'
        '                        (default: full)\n'
        '  --precision {double,high}\n'
        '  --format {csv,json}\n'
    ),
    ('simulate',): (
        'usage: momentlab simulate [-h] --model {cycles,inversions,quicksort} --n N --s\n'
        '                          S --trials TRIALS --seed SEED [--threads THREADS]\n'
        '                          [--format {csv,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --model {cycles,inversions,quicksort}\n'
        '                        which cost statistic\n'
        '  --n N\n'
        '  --s S\n'
        '  --trials TRIALS\n'
        '  --seed SEED           64-bit unsigned seed\n'
        '  --threads THREADS     worker processes; never changes the result, only the\n'
        '                        wall time\n'
        '  --format {csv,json}\n'
    ),
    ('compare',): (
        'usage: momentlab compare [-h] --model {cycles,inversions,quicksort} --s S\n'
        '                         --n-grid N_GRID [--precision {double,high}]\n'
        '                         [--format {csv,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --model {cycles,inversions,quicksort}\n'
        '                        which cost statistic\n'
        '  --s S\n'
        '  --n-grid N_GRID       comma-separated sizes, e.g. 100,1000,10000 (used\n'
        '                        literally)\n'
        '  --precision {double,high}\n'
        '  --format {csv,json}\n'
    ),
    ('verify',): (
        'usage: momentlab verify [-h] [--format {csv,json}]\n'
        '\n'
        'options:\n'
        '  -h, --help           show this help message and exit\n'
        '  --format {csv,json}\n'
    ),
}


def usage(*command):
    return HELP[command].split("\n\n", 1)[0] + "\n"


# argparse's errors: each exits 2 with empty stdout and this stderr.
ERRORS = [
    pytest.param(
        ["table", "--model", "heapsort", "--n", "3"],
        usage("table") + "momentlab table: error: argument --model: invalid choice: 'heapsort' "
        "(choose from 'cycles', 'inversions', 'quicksort')\n",
        id="invalid-choice",
    ),
    pytest.param(
        ["moment", "--model", "cycles", "--n", "5"],
        usage("moment") + "momentlab moment: error: the following arguments are required: --s\n",
        id="missing-option",
    ),
    pytest.param(
        ["table", "--model", "cycles", "--n", "5", "--bogus", "1"],
        usage() + "momentlab: error: unrecognized arguments: --bogus 1\n",
        id="unknown-flag",
    ),
    pytest.param(
        ["moment", "--model", "cycles", "--n", "5", "--s", "1", "--mo", "both"],
        usage("moment")
        + "momentlab moment: error: ambiguous option: --mo could match --model, --mode\n",
        id="ambiguous-abbreviation",
    ),
    pytest.param(
        ["table", "--model", "cycles", "--n", "x"],
        usage("table") + "momentlab table: error: argument --n: invalid int value: 'x'\n",
        id="invalid-int",
    ),
    pytest.param(
        [],
        usage() + "momentlab: error: the following arguments are required: command\n",
        id="missing-subcommand",
    ),
    pytest.param(
        ["table", "--model", "cycles", "--n", "5", "--format=xml"],
        usage("table") + "momentlab table: error: argument --format: invalid choice: 'xml' "
        "(choose from 'csv', 'json')\n",
        id="format-equals-xml",
    ),
    pytest.param(
        ["table", "--model", "cycles", "--n", BIG],
        usage("table") + f"momentlab table: error: argument --n: invalid int value: '{BIG}'\n",
        id="int-past-the-digit-limit",
    ),
]


class TestArgparseText:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "program")
    def test_help(self, command):
        assert run_cli(*command, "--help") == (0, HELP[command], "")

    @pytest.mark.parametrize("argv, stderr", ERRORS)
    def test_error(self, argv, stderr):
        assert run_cli(*argv) == (2, "", stderr)


FLAGS = sorted({option[0] for _, _, options in cli._COMMANDS.values() for option in options})
CHOICES = sorted({c for _, _, options in cli._COMMANDS.values() for o in options
                  if isinstance(o[1], tuple) for c in o[1]})
# ints that int() reads beside plain digits
INT_FORMS = ["+5", " 7", "5_0", "\u0663", "007"]
# choice words, their near misses, odd ints and words that start with "-"
ODD_VALUES = st.one_of(
    st.sampled_from(CHOICES),
    st.sampled_from(CHOICES).map(lambda c: c[:-1]),
    st.sampled_from(CHOICES).map(str.upper),
    st.sampled_from(["", "-", "--", "-h", "-1", "1.5", "x", BIG, "10,x", *INT_FORMS]),
)
STRAY_WORDS = st.one_of(st.sampled_from([*FLAGS, "--help", "--", "-x", "extra"]), ODD_VALUES)


def good_value(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.one_of(st.integers(0, 40).map(str), st.sampled_from(INT_FORMS))
    return st.sampled_from(["10,20", "150,300", ""])


@st.composite
def argvs(draw):
    """A well-formed request: a subcommand, its required options and some
    of the others in any order, with valid values; then up to three changes
    that argparse reads in its own way or rejects: an odd value, an
    abbreviation, ``--flag=value``, a missing or repeated option, a stray
    word or another first word."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    pairs = [
        [flag, draw(good_value(kind))]
        for flag, kind, required, *_ in draw(st.permutations(cli._COMMANDS[command][2]))
        if required or draw(st.booleans())
    ]
    for change in draw(st.lists(st.integers(0, 6), max_size=3)):
        if change >= 5 or not pairs:
            word = draw(STRAY_WORDS if change != 6 else st.sampled_from(
                [*cli._COMMANDS, "tabl", "-h", "--", "--format"]))
            if change == 6:
                command = word
            else:
                pairs.insert(draw(st.integers(0, len(pairs))), [word])
            continue
        i = draw(st.integers(0, len(pairs) - 1))
        flag, *value = pairs[i]
        if change == 0 and value:
            pairs[i] = [flag, draw(ODD_VALUES)]
        elif change == 1 and len(flag) > 3:
            pairs[i] = [flag[: draw(st.integers(3, len(flag) - 1))], *value]
        elif change == 2:
            pairs[i] = [f"{flag}={value[0] if value else ''}"]
        elif change == 3:
            del pairs[i]
        elif change == 4:
            pairs.insert(draw(st.integers(0, len(pairs))), [flag, draw(ODD_VALUES)])
    return [command, *(word for pair in pairs for word in pair)]


class TestTableReader:
    """``main`` reads a well-formed argv from ``cli._COMMANDS`` itself and
    gives every other argv to argparse."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argvs())
    # --n-grid takes any text, but argparse reads these as options, not as its value
    @example(["compare", "--model", "cycles", "--s", "2", "--n-grid", "-h"])
    @example(["compare", "--n-grid", "--", "--model", "cycles", "--s", "2"])
    def test_reader_agrees_with_argparse(self, argv):
        # the reader's namespace is argparse's; where argparse exits, the reader declined
        read = cli._read_argv(argv)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                parsed = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                parsed = None
        if read is not None:
            assert vars(read) == parsed

    def test_reader_accepts_only_strings(self):
        # argparse fails on a word that is not a string, so the reader leaves it to argparse
        assert cli._read_argv(["table", "--model", "cycles", "--n", 5]) is None
        assert vars(cli._read_argv(["table", "--model", "cycles", "--n", "5"])) == {
            "command": "table", "func": cli._cmd_table, "model": "cycles", "n": 5, "format": "csv",
        }


# One request per subcommand in each format, a parser error (exit 2) and a row
# cap (exit 3): the process path, which ends by ``run``, prints what ``main``
# prints in process.
PROCESS_REQUESTS = [
    *((*argv, "--format", fmt) for argv in (
        ("table", "--model", "quicksort", "--n", "6"),
        ("moment", "--model", "cycles", "--n", "30", "--s", "2"),
        ("transfer", "--alpha", "2", "--beta", "1", "--n", "50"),
        ("simulate", "--model", "cycles", "--n", "20", "--s", "2", "--trials", "500", "--seed", "3"),
        ("compare", "--model", "inversions", "--s", "2", "--n-grid", "10,40"),
        ("verify",),
    ) for fmt in ("csv", "json")),
    ("moment", "--model", "heapsort", "--n", "5", "--s", "1"),
    ("table", "--model", "cycles", "--n", "100000"),
]


class TestProcessEnd:
    """``run`` ends a request by ``os._exit`` after the atexit handlers and a
    flush, and exits 141 without a traceback when the reader closes stdout
    or stderr."""

    @pytest.mark.parametrize("argv", PROCESS_REQUESTS, ids=" ".join)
    def test_process_prints_what_main_prints(self, argv):
        assert fresh(*argv)[:3] == run_cli(*argv)

    def test_script_entry_is_run(self):
        pyproject = ROOT / "pyproject.toml"
        assert 'momentlab = "momentlab.cli:run"\n' in pyproject.read_text()

    def test_atexit_handlers_run_and_teardown_does_not(self):
        # a handler registered before ``run`` prints on both streams; an
        # object that only the interpreter's teardown frees is never freed
        probe = (
            "import atexit, builtins, sys\n"
            "atexit.register(print, 'handler ran')\n"
            "atexit.register(print, 'handler stderr', file=sys.stderr)\n"
            "class Freed:\n"
            "    def __del__(self):\n"
            "        print('torn down')\n"
            "builtins.kept = Freed()\n"
            "from momentlab.cli import run\n"
            "run()\n"
        )
        code, out, err, _ = fresh("-c", probe, "table", "--model", "cycles", "--n", "3")
        assert (code, out, err) == (0, "k,count\n1,2\n2,3\n3,1\nhandler ran\n", "handler stderr\n")

    def test_run_switches_the_collector_off(self):
        # the layer of a table request reports the cyclic collector's state
        probe = (
            "import gc, sys\n"
            "from momentlab import cli, tables\n"
            "def table(model, n):\n"
            "    print(f'collector on: {gc.isenabled()}', file=sys.stderr)\n"
            "    return tables.distribution_table(model, n)\n"
            "cli.distribution_table = table\n"
            "print(f'collector on: {gc.isenabled()}', file=sys.stderr)\n"
            "cli.run()\n"
        )
        code, out, err, _ = fresh("-c", probe, "table", "--model", "cycles", "--n", "3")
        assert (code, out, err) == (0, "k,count\n1,2\n2,3\n3,1\n", "collector on: True\ncollector on: False\n")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, enabled, monkeypatch):
        # a table request, and a simulate request on a pool of real workers
        seen = []
        real = cli.estimate_factorial_moment
        monkeypatch.setattr(cli, "estimate_factorial_moment",
                            lambda *args, **kw: seen.append(gc.isenabled()) or real(*args, **kw))
        monkeypatch.setattr(simulate, "_DRAWS_PER_WORKER", 1)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_cli("table", "--model", "cycles", "--n", "3")[0] == 0
            assert gc.isenabled() is enabled
            assert run_cli("simulate", "--model", "cycles", "--n", "20", "--s", "1",
                           "--trials", "100", "--seed", "1", "--threads", "2")[0] == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [enabled]

    @pytest.mark.parametrize(
        "small, big",
        [
            ("table --model cycles --n 10", "table --model cycles --n 800"),
            ("table --model quicksort --n 10 --format json", "table --model quicksort --n 60 --format json"),
            ("moment --model inversions --n 30 --s 3", "moment --model inversions --n 3000 --s 20"),
            ("compare --model cycles --s 3 --n-grid 10,300 --precision high",
             "compare --model cycles --s 3 --n-grid 10,100,300,1000,5000,100000 --precision high"),
            ("transfer --alpha 2 --beta 1 --n 100", "transfer --alpha 4 --beta 3 --n 3000 --precision high"),
            ("simulate --model quicksort --n 10 --s 1 --trials 10 --seed 1 --threads 2",
             "simulate --model quicksort --n 300 --s 2 --trials 50000 --seed 1 --threads 2"),
            (f"compare --model inversions --s 100000 --n-grid {10**100} --precision high",
             f"compare --model inversions --s 100000 --n-grid {10**100},{10**200} --precision high"),
        ],
        ids=["table", "table-json", "moment", "compare", "transfer", "simulate-pool", "exit-3"],
    )
    def test_no_route_leaves_cycles_that_grow_with_its_work(self, small, big, monkeypatch):
        # what ``run`` relies on when it switches the collector off: with the
        # route's modules loaded, a bigger request of a route leaves no more
        # objects in reference cycles than a small one (a JSON encoder leaves 31)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)

        def garbage(argv):
            gc.collect()
            gc.disable()
            try:
                run_cli(*argv.split())
                return gc.collect()
            finally:
                gc.enable()

        garbage(small)
        assert garbage(big) == garbage(small)

    def test_no_worker_or_file_outlives_a_request(self, tmp_path):
        # 199 x 42200 draws, past two quanta, start a pool of two workers; a
        # direct launch, for a process group of its own and a TMPDIR
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        with subprocess.Popen(
            [sys.executable, "-c", POOL_SIZES, "simulate", "--model", "cycles", "--n", "200",
             "--s", "2", "--trials", "42200", "--seed", "1", "--threads", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
            env={**child.environment(ROOT), "TMPDIR": str(tmpdir)}, text=True,
        ) as proc:
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "pool of 2\n")
        assert list(tmpdir.iterdir()) == []
        # the request led its own process group, which is now empty
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    # a row past the pipe's buffer fails inside ``main``; a short one at the
    # flush in ``run``, since stdout to a pipe is block-buffered.  Both tests
    # launch directly, onto a pipe whose reader is closed
    @pytest.mark.parametrize("n", [1000, 3])
    def test_closed_stdout_exits_141_quietly(self, n):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "momentlab.cli", "table", "--model", "cycles", "--n", str(n)],
                stdout=write_end, stderr=subprocess.PIPE, env=child.environment(ROOT), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_closed_stderr_exits_141_quietly(self):
        # ``2>&1 | head`` on a request that exits 3: its message to stderr
        # fails inside ``main``, and the exit must not fail on it again
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "momentlab.cli", "table", "--model", "cycles", "--n", "100000"],
                stdout=write_end, stderr=write_end, env=child.environment(ROOT), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141


# The exit-2 route for arguments that parse but are out of range: one request
# per message, and the one stderr line it prints.
BAD_ARGUMENTS = [
    pytest.param(("moment", "--model", "cycles", "--n", "1", "--s", "1", "--mode", "asym"),
                 "asymptotic moments require --n >= 2 and --s >= 1", id="moment-asym"),
    pytest.param(("transfer", "--alpha", "0", "--beta", "0", "--n", "10"),
                 "--alpha must be >= 1 and --beta >= 0", id="transfer-alpha-beta"),
    pytest.param(("transfer", "--alpha", "1", "--beta", "0", "--n", "1"),
                 "--n must be >= 2", id="transfer-n"),
    pytest.param(("transfer", "--alpha", "1", "--beta", "0", "--n", "9", "--order", "-1"),
                 "--order must be nonnegative", id="transfer-order"),
    pytest.param(("simulate", "--model", "cycles", "--n", "5", "--s", "1", "--trials", "1",
                  "--seed", "0"),
                 "--trials must be at least 2", id="simulate-trials"),
    pytest.param(("simulate", "--model", "cycles", "--n", "5", "--s", "1", "--trials", "10",
                  "--seed", str(1 << 64)),
                 "--seed must be a 64-bit unsigned integer", id="simulate-seed"),
    pytest.param(("simulate", "--model", "cycles", "--n", "5", "--s", "1", "--trials", "10",
                  "--seed", "-2"),
                 "--seed must be a 64-bit unsigned integer", id="simulate-seed-negative"),
    pytest.param(("simulate", "--model", "cycles", "--n", "5", "--s", "1", "--trials", "10",
                  "--seed", "0", "--threads", "0"),
                 "--threads must be positive", id="simulate-threads"),
    pytest.param(("compare", "--model", "cycles", "--s", "0", "--n-grid", "10"),
                 "--s must be >= 1", id="compare-s"),
    pytest.param(("compare", "--model", "cycles", "--s", "1", "--n-grid", "10,x"),
                 "--n-grid must be comma-separated integers, got '10,x'", id="grid-not-integers"),
    pytest.param(("compare", "--model", "cycles", "--s", "1", "--n-grid", ",,"),
                 "--n-grid is empty", id="grid-empty"),
    pytest.param(("compare", "--model", "cycles", "--s", "1", "--n-grid", ""),
                 "--n-grid is empty", id="grid-blank"),
    pytest.param(("compare", "--model", "cycles", "--s", "1", "--n-grid", "1,10"),
                 "--n-grid entries must be >= 2", id="grid-below-2"),
]


class TestBadArguments:
    @pytest.mark.parametrize("argv, message", BAD_ARGUMENTS)
    def test_exit_2_with_one_error_line(self, argv, message):
        assert run_cli(*argv) == (2, "", f"error: {message}\n")
