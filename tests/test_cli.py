"""Command-line behavior: formats, determinism, exit codes."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr

import pytest

from momentlab.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "momentlab.cli", *argv], capture_output=True, text=True
    )


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

    def test_row_cap_exit_code(self):
        code, _, err = run_cli("table", "--model", "quicksort", "--n", "121")
        assert code == 3
        assert "cap" in err

    def test_inversions_row_cap_exit_code(self):
        code, _, err = run_cli("table", "--model", "inversions", "--n", "501")
        assert code == 3
        assert "cap" in err

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MOMENTLAB_ROW_LIMIT", "5")
        code, _, _ = run_cli("table", "--model", "cycles", "--n", "6")
        assert code == 3
        monkeypatch.setenv("MOMENTLAB_ROW_LIMIT", "125")
        code, _, _ = run_cli("table", "--model", "cycles", "--n", "125")
        assert code == 0

    def test_negative_n(self):
        code, _, _ = run_cli("table", "--model", "cycles", "--n", "-1")
        assert code == 2


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
        proc = run_cli_process(
            "moment", "--model", "quicksort", "--n", "50", "--s", "200", "--mode", "asym"
        )
        assert proc.returncode == 3
        assert "double range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_asym_needs_valid_domain(self):
        code, _, err = run_cli(
            "moment", "--model", "cycles", "--n", "1", "--s", "1", "--mode", "asym"
        )
        assert code == 2
        assert "asymptotic" in err


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

    def test_budget_exit_code(self):
        code, _, err = run_cli("transfer", "--alpha", "1", "--beta", "7", "--n", "10")
        assert code == 3
        assert "budget" in err

    def test_double_overflow_exit_code(self):
        proc = run_cli_process("transfer", "--alpha", "200", "--beta", "1", "--n", "2")
        assert proc.returncode == 3
        assert "double range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_arguments(self):
        assert run_cli("transfer", "--alpha", "0", "--beta", "0", "--n", "10")[0] == 2
        assert run_cli("transfer", "--alpha", "1", "--beta", "0", "--n", "1")[0] == 2
        assert run_cli("transfer", "--alpha", "1", "--beta", "0", "--n", "9",
                       "--order", "-1")[0] == 2


class TestSimulate:
    def test_repeated_runs_byte_identical(self):
        argv = ("simulate", "--model", "cycles", "--n", "25", "--s", "1",
                "--trials", "3000", "--seed", "20260810")
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0

    def test_threads_do_not_change_output(self):
        base = ("simulate", "--model", "inversions", "--n", "20", "--s", "2",
                "--trials", "2000", "--seed", "5")
        assert run_cli(*base)[1] == run_cli(*base, "--threads", "2")[1]

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
        proc = run_cli_process(
            "simulate", "--model", "cycles", "--n", "1000000000000", "--s", "1",
            "--trials", "2", "--seed", "1",
        )
        assert proc.returncode == 3
        assert "resource limit: out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_validation(self):
        assert run_cli("simulate", "--model", "cycles", "--n", "5", "--s", "1",
                       "--trials", "1", "--seed", "0")[0] == 2
        assert run_cli("simulate", "--model", "cycles", "--n", "5", "--s", "1",
                       "--trials", "10", "--seed", "-2")[0] == 2
        assert run_cli("simulate", "--model", "cycles", "--n", "5", "--s", "1",
                       "--trials", "10", "--seed", "0", "--threads", "0")[0] == 2


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
        assert [r[7] for r in rows] == ["table", "oracle", "oracle"]

    def test_closed_form_source_for_big_quicksort_mean(self):
        code, out, _ = run_cli(
            "compare", "--model", "quicksort", "--s", "1", "--n-grid", "1000"
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[7] == "closed-form"

    def test_quicksort_higher_moments_need_tables(self):
        code, _, _ = run_cli(
            "compare", "--model", "quicksort", "--s", "2", "--n-grid", "1000"
        )
        assert code == 3

    def test_grid_validation(self):
        assert run_cli("compare", "--model", "cycles", "--s", "1",
                       "--n-grid", "10,x")[0] == 2
        assert run_cli("compare", "--model", "cycles", "--s", "1",
                       "--n-grid", "")[0] == 2
        assert run_cli("compare", "--model", "cycles", "--s", "1",
                       "--n-grid", "1,10")[0] == 2
        assert run_cli("compare", "--model", "cycles", "--s", "0",
                       "--n-grid", "10")[0] == 2

    def test_high_precision_flag_runs(self):
        code, out, _ = run_cli(
            "compare", "--model", "inversions", "--s", "2", "--n-grid", "10,20",
            "--precision", "high",
        )
        assert code == 0
        assert len(out.splitlines()) == 3


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


class TestParser:
    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--model", "heapsort", "--n", "3"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momentlab.cli", "moment", "--model",
             "inversions", "--n", "10", "--s", "1", "--mode", "exact"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "45/2" in proc.stdout
