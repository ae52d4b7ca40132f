"""Collect perfbench run records of two checkouts into one BENCH_*.json.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_<n>.json

Reads the untraced run records ``DIR/.bench_out/run-<workload>-<seed>-trace0.json``
that ``perfbench/run.py --trace 0`` leaves in each checkout, and writes one
entry per run (workload, seed, side, the end-to-end metrics and fail_frac)
and the environment the first run reported.  It runs none of the benchmark
and changes none of its files.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

METRICS = ("cpu_s", "setup_s", "peak_rss_mb")  # all lower-is-better


def runs(root: Path, side: str) -> list[dict]:
    """One entry per untraced run record under ``root/.bench_out``."""
    entries = []
    for path in sorted((root / ".bench_out").glob("run-*-trace0.json")):
        record = json.loads(path.read_text())
        requests = record["requests"]
        failed = [r for r in requests if r["reason"]]
        entries.append({
            "workload": record["workload"],
            "seed": record["seed"],
            "side": side,
            **{name: record["metrics"][name] for name in METRICS},
            "fail_frac": len(failed) / len(requests),
            "environment": {k: v for k, v in record["environment"].items() if k != "momentlab"},
        })
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    entries = runs(args.parent, "parent") + runs(args.change, "change")
    if not entries:
        parser.error("no .bench_out/run-*-trace0.json records in either checkout")
    environments = [e.pop("environment") for e in entries]
    payload = {"schema": 1, "environment": environments[0], "runs": entries}
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
