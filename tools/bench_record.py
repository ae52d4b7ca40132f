"""Collect perfbench run records of two checkouts into one BENCH_*.json.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_<n>.json

Reads the untraced run records ``DIR/.bench_out/run-<workload>-<seed>-trace0.json``
that ``perfbench/run.py --trace 0`` leaves in each checkout, and writes one
entry per run (workload, seed, side, the end-to-end metrics and fail_frac),
the environment the first run reported, and a summary per workload and
metric: each side's median and quartiles over its runs, the number of
pairs (runs of both sides with the same seed) in which the change is lower,
and for each end-to-end metric of BENCHMARK.json a ``verdict`` by the rules
a claim is judged by (see ``verdict``).
The traced run records ``run-<workload>-<seed>-trace1.json`` of
``--trace 1`` add one entry per run under ``traced``: workload, seed, side
and the per-layer metrics.
It runs none of the benchmark and changes none of its files.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

METRICS = ("cpu_s", "setup_s", "peak_rss_mb")  # all lower-is-better
SUMMARISED = METRICS + ("fail_frac",)  # lower is better here too
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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


def traced(root: Path, side: str) -> list[dict]:
    """One entry per traced run record under ``root/.bench_out``."""
    entries = []
    for path in sorted((root / ".bench_out").glob("run-*-trace1.json")):
        record = json.loads(path.read_text())
        entries.append({
            "workload": record["workload"],
            "seed": record["seed"],
            "side": side,
            "metrics": record["metrics"],
        })
    return entries


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, by linear interpolation between the sorted
    values (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def bounds() -> dict[str, float]:
    """Each end-to-end metric's bound in BENCHMARK.json: the share of the
    parent's median by which the change's median may exceed it."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def verdict(parent: list[float], change: list[float], won: int, pairs: int, bound: float) -> str:
    """``gain``: the change is lower in at least 9/10 of the pairs (ties count
    for neither) and its median is below the parent's by more than the
    parent's interquartile range; ``worse``: the change's median exceeds the
    parent's by more than ``bound`` of it; ``unresolved``: the parent's
    interquartile range is wider than ``bound`` of its median and not every
    change run is below every parent run; ``same`` otherwise."""
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    if pairs and 10 * won >= 9 * pairs and p["median"] - c["median"] > spread:
        return "gain"
    if c["median"] > p["median"] * (1 + bound):
        return "worse"
    if spread > bound * p["median"] and max(change) >= min(parent):
        return "unresolved"
    return "same"


def summary(entries: list[dict], limits: dict[str, float]) -> dict:
    """Per workload: the seeds run by both sides, and per metric each
    side's quartiles and the pairs in which the change is lower; with runs
    on both sides, each metric named in ``limits`` gets its ``verdict``."""
    result = {}
    for workload in sorted({e["workload"] for e in entries}):
        sides = {
            side: {e["seed"]: e for e in entries if e["workload"] == workload and e["side"] == side}
            for side in ("parent", "change")
        }
        paired = sides["parent"].keys() & sides["change"].keys()
        metrics = {}
        for name in SUMMARISED:
            values = {side: [e[name] for e in runs.values()] for side, runs in sides.items() if runs}
            metrics[name] = {side: quartiles(v) for side, v in values.items()}
            won = metrics[name]["change_won"] = sum(
                sides["change"][seed][name] < sides["parent"][seed][name] for seed in paired
            )
            if name in limits and len(values) == 2:
                metrics[name]["verdict"] = verdict(
                    values["parent"], values["change"], won, len(paired), limits[name]
                )
        result[workload] = {"pairs": len(paired), "metrics": metrics}
    return result


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
    payload = {
        "schema": 3,
        "environment": environments[0],
        "summary": summary(entries, bounds()),
        "runs": entries,
        "traced": traced(args.parent, "parent") + traced(args.change, "change"),
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
