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


def test_collects_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(3.7, 3.1), (3.8, 3.2), (3.6, 3.7)], start=1):
        write_run(parent, "moments", seed, before, [None, "exit 2"])
        write_run(change, "moments", seed, after, [None, None])
    # a traced record carries no end-to-end metrics and is left out
    (change / ".bench_out" / "run-moments-1-trace1.json").write_text("{}")
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["environment"] == ENVIRONMENT
    assert len(payload["runs"]) == 6
    first = payload["runs"][0]
    assert first == {"workload": "moments", "seed": 1, "side": "parent", "cpu_s": 3.7,
                     "setup_s": 0.14, "peak_rss_mb": 20.0, "fail_frac": 0.5}
    assert payload["runs"][3]["side"] == "change" and payload["runs"][3]["fail_frac"] == 0


def test_no_records_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                           "--out", str(tmp_path / "out.json")])
