"""tools/bench_record.py: perfbench run records of two checkouts into one
BENCH_*.json."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "mpmath": "1.3.0", "gmpy2": False, "nproc": 2}


def write_run(root: Path, workload: str, seed: int, cpu_s: float, reasons: list):
    out = root / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "environment": {**ENVIRONMENT, "momentlab": str(root / "src/momentlab/__init__.py")},
        "requests": [{"reason": r, "known": False} for r in reasons],
        "problems": [],
        "metrics": {"setup_s": 0.14, "cpu_s": cpu_s, "peak_rss_mb": 20.0},
    }
    (out / f"run-{workload}-{seed}-trace0.json").write_text(json.dumps(record))


def write_traced_run(root: Path, workload: str, seed: int, self_s: float):
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": 3.0,
        "trace": 1,
        "environment": {**ENVIRONMENT, "momentlab": str(root / "src/momentlab/cli.py")},
        "setup_and_calibration_seconds": [],
        "problems": [],
        "metrics": {"tables.cycles_s": 0.3, "cli.table_s": 0.58, "cli.self_s": self_s},
    }
    (root / ".bench_out" / f"run-{workload}-{seed}-trace1.json").write_text(json.dumps(record))


def test_collects_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(3.7, 3.1), (3.8, 3.2), (3.6, 3.7)], start=1):
        write_run(parent, "moments", seed, before, [None, "exit 2"])
        write_run(change, "moments", seed, after, [None, None])
    # a traced record carries no end-to-end metrics: it is kept apart from the runs
    write_traced_run(parent, "moments", 1, 0.21)
    write_traced_run(change, "moments", 1, 0.15)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 3
    assert payload["environment"] == ENVIRONMENT
    assert len(payload["runs"]) == 6
    assert payload["traced"] == [
        {"workload": "moments", "seed": 1, "side": side,
         "metrics": {"tables.cycles_s": 0.3, "cli.table_s": 0.58, "cli.self_s": self_s}}
        for side, self_s in (("parent", 0.21), ("change", 0.15))
    ]
    first = payload["runs"][0]
    assert first == {"workload": "moments", "seed": 1, "side": "parent", "cpu_s": 3.7,
                     "setup_s": 0.14, "peak_rss_mb": 20.0, "fail_frac": 0.5}
    assert payload["runs"][3]["side"] == "change" and payload["runs"][3]["fail_frac"] == 0
    moments = payload["summary"]["moments"]
    assert moments["pairs"] == 3
    cpu = moments["metrics"]["cpu_s"]
    assert cpu["parent"] == pytest.approx({"q1": 3.65, "median": 3.7, "q3": 3.75})
    assert cpu["change"] == pytest.approx({"q1": 3.15, "median": 3.2, "q3": 3.45})
    assert cpu["change_won"] == 2
    assert moments["metrics"]["fail_frac"]["change_won"] == 3
    assert moments["metrics"]["peak_rss_mb"]["change_won"] == 0  # ties are not wins
    # 2 of 3 pairs lower is no gain; fail_frac is no end-to-end metric
    assert cpu["verdict"] == "same"
    assert "verdict" not in moments["metrics"]["fail_frac"]


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # quartiles 1.0225, 1.0675


def test_bounds_are_the_benchmarks():
    assert bench_record.bounds() == {"setup_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.1}


def test_verdict_gain():
    # 9 of 10 pairs lower, the tenth a tie, medians 0.1 apart against an IQR of 0.045
    change = [p - 0.1 for p in PARENT[:9]] + [PARENT[9]]
    assert bench_record.verdict(PARENT, change, 9, 10, 0.25) == "gain"
    # 8 of 10 is short of the nine tenths, though every median is lower
    assert bench_record.verdict(PARENT, change, 8, 10, 0.25) == "same"
    # 9 of 10 lower, but the medians only 0.04 apart
    assert bench_record.verdict(PARENT, [p - 0.04 for p in PARENT], 9, 10, 0.25) == "same"


def test_verdict_worse():
    assert bench_record.verdict(PARENT, [p * 1.3 for p in PARENT], 0, 10, 0.25) == "worse"
    # by less than the bound of the parent's median: the same
    assert bench_record.verdict(PARENT, [p * 1.2 for p in PARENT], 0, 10, 0.25) == "same"


def test_verdict_unresolved():
    # the parent's IQR, 1.0, is wider than 0.25 of its median, 1.5
    parent = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert bench_record.verdict(parent, [1.1, 1.1, 1.1, 1.9, 1.9, 1.9], 3, 6, 0.25) == "unresolved"
    # unless every change run is below every parent run
    assert bench_record.verdict(parent, [0.9] * 6, 6, 6, 0.25) == "same"


def test_verdict_same():
    assert bench_record.verdict(PARENT, PARENT, 0, 10, 0.25) == "same"


def test_summary_pairs_only_shared_seeds(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, cpu_s in [(1, 3.0), (2, 2.0), (3, 1.0)]:
        write_run(parent, "montecarlo", seed, cpu_s, [None])
    write_run(change, "montecarlo", 2, 1.5, [None])
    write_run(change, "montecarlo", 9, 0.5, [None])  # no parent run of seed 9
    write_run(change, "tables", 1, 4.0, [None])  # no parent run of tables
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(parent), "--change", str(change), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["traced"] == []
    summary = payload["summary"]
    montecarlo = summary["montecarlo"]
    assert montecarlo["pairs"] == 1
    assert montecarlo["metrics"]["cpu_s"]["change_won"] == 1
    assert montecarlo["metrics"]["cpu_s"]["parent"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert montecarlo["metrics"]["cpu_s"]["change"] == {"q1": 0.75, "median": 1.0, "q3": 1.25}
    assert montecarlo["metrics"]["cpu_s"]["verdict"] == "unresolved"
    tables = summary["tables"]
    assert tables["pairs"] == 0 and "parent" not in tables["metrics"]["cpu_s"]
    assert "verdict" not in tables["metrics"]["cpu_s"]  # one side has no runs
    assert tables["metrics"]["cpu_s"]["change"] == {"q1": 4.0, "median": 4.0, "q3": 4.0}


def test_no_records_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                           "--out", str(tmp_path / "out.json")])
