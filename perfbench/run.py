"""Benchmark of the momentlab CLI: seeded closed-loop workloads, every output
checked against an independent reference.

    python3 perfbench/run.py --workload tables|moments|montecarlo \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``.
One client sends one request at a time, each a fresh
``python -m momentlab.cli ...`` process that receives only the generated
argv, under a time and a memory limit.  The request list is a pure function
of (workload, seed, seconds) and holds about a third of ``seconds`` of work
on the reference box (see workloads.py).

--trace 0 measures the end-to-end metrics with tracing off, over PASSES
runs of the list.  Times are CPU seconds (user + system) of the request
processes: on a shared virtual machine the wall time also holds the time
the host runs other guests, which CPU time leaves out.

--trace 1 runs the list three ways: once as CLI processes (the
per-subcommand request times), replayed in-process without spans, and
replayed in-process with spans (see replay.py); the last two give the
per-layer metrics and the cost of tracing.

Spans and a record of each run go to .bench_out/.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import replay
import workloads

HERE = Path(__file__).resolve().parent

TIME_LIMIT_S = 30.0  # per request; the slowest drawn request takes about 4 s
MEMORY_LIMIT_MB = 1536  # address space per request; the largest drawn needs ~270 MB RSS
RUN_DEADLINE_S = 110.0  # nothing starts later than this after launch, so a run ends within 180 s
SETUP_SAMPLES = 8  # spread evenly through the request loop, each with CALIBRATION_RUNS
PASSES = 3  # runs of each request with tracing off; its time is their mean
STDERR_TAIL = 300

SUBCOMMANDS = ("table", "moment", "compare", "transfer", "simulate", "verify")


def declared_units(section: str) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists under ``section``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Setup(Exception):
    """The checkout cannot run the benchmark."""


# Runs sys.argv[2:] as its child and writes the child's exit code, wall and
# CPU (user + system) seconds and peak RSS in KiB to the file sys.argv[1].
# A forked child starts from its parent's RSS high-water mark, so the
# request is forked from this small process, not from the benchmark.
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
rc = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as f:
    json.dump([rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss], f)
sys.exit(rc if 0 <= rc < 256 else 1)
"""


# A fixed job that runs none of the program: it loads the libraries the
# program loads and runs big-integer, float and dict loops.  The shared host
# runs at speeds that differ by a fifth and more for minutes at a time, and
# CPU time follows them; this job's CPU time, sampled through the run,
# measures the speed of the moment, and the reported times are scaled by it.
CALIBRATION = """
import fractions, mpmath, numpy
x, y = 1, 0.5
for i in range(1, 20000):
    x = (x * 3 + i) % (1 << 2048)
    y = (y * 1.000001 + i) % 1000.0
d = {}
for i in range(100000):
    d[i % 1000] = d.get(i % 1000, 0) + i
"""
CALIBRATION_REFERENCE_S = 0.30  # its CPU seconds on the reference box
CALIBRATION_RUNS = 2  # per set-up sample: the speed needs more samples than the set-up time


def _limit_memory():
    limit = MEMORY_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _end_group(pgid: int) -> None:
    """Kill whatever is left of a request's process group and wait for it."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    """Spawns requests in the checkout at ``root``, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.out_dir = root / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        # numpy's BLAS worker thread spins for about 0.1 s of CPU after
        # import, more or less as the other core is free; the program does
        # no BLAS work, so one BLAS thread keeps that noise out of the times
        self.env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}",
                        OPENBLAS_NUM_THREADS="1")

    def late(self) -> bool:
        return time.perf_counter() > self.deadline

    def spawn(self, cmd: list[str]) -> dict:
        """Run ``cmd`` to completion under the limits: exit code, wall and
        CPU seconds from spawn to exit, peak RSS, stdout and stderr.  The
        times and the RSS are the process's own, as LAUNCHER reports them."""
        out_path, err_path = self.out_dir / "stdout", self.out_dir / "stderr"
        usage_path = self.out_dir / "usage"
        usage_path.unlink(missing_ok=True)
        launch = [sys.executable, "-I", "-S", "-c", LAUNCHER, str(usage_path), *cmd]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                launch, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True, preexec_fn=_limit_memory,
            )
            reaper = threading.Thread(target=proc.wait)
            reaper.start()
            reaper.join(TIME_LIMIT_S)
            timed_out = reaper.is_alive()
            if timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
                reaper.join()
            seconds = time.perf_counter() - start
        _end_group(proc.pid)
        rc, cpu, rss_kb = proc.returncode, 0.0, 0
        if not timed_out and usage_path.is_file():
            rc, seconds, cpu, rss_kb = json.loads(usage_path.read_text())
        return {
            "rc": rc,
            "seconds": seconds,
            "cpu_seconds": cpu,
            "rss_mb": rss_kb / 1024,
            "timed_out": timed_out,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(errors="replace"),
        }


def _probe(runner: Runner) -> dict:
    """Versions of what the program runs on; fails unless the checkout's own
    momentlab is the one imported."""
    if not (runner.root / "src" / "momentlab" / "cli.py").is_file():
        raise Setup("no src/momentlab/cli.py here; run from the root of a checkout")
    code = (
        "import importlib.util, json, os, sys, mpmath, numpy, momentlab.cli as c; "
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'mpmath': mpmath.__version__, 'gmpy2': importlib.util.find_spec('gmpy2') is not None, "
        "'nproc': len(os.sched_getaffinity(0)), 'momentlab': c.__file__}))"
    )
    result = runner.spawn([sys.executable, "-c", code])
    if result["rc"] != 0:
        raise Setup(f"cannot import momentlab.cli: {result['stderr'][-STDERR_TAIL:]}")
    info = json.loads(result["stdout"])
    if not Path(info["momentlab"]).resolve().is_relative_to(runner.root / "src"):
        raise Setup(f"imported {info['momentlab']}, not the checkout's src/")
    return info


def _setup_sample(runner: Runner) -> tuple[float, ...]:
    """CPU seconds, spawn to exit, of a process that only imports the CLI,
    then of CALIBRATION_RUNS processes that run CALIBRATION."""
    seconds = []
    for code in ("import momentlab.cli",) + (CALIBRATION,) * CALIBRATION_RUNS:
        result = runner.spawn([sys.executable, "-c", code])
        if result["rc"] != 0:
            raise Setup(f"set-up sample failed: {result['stderr'][-STDERR_TAIL:]}")
        seconds.append(result["cpu_seconds"])
    return tuple(seconds)


def _record(argv, result: dict, reason: str | None, known: bool = False) -> dict:
    return {
        "argv": list(argv),
        "seconds": result["seconds"],
        "cpu_seconds": result["cpu_seconds"],
        "pass_seconds": [result["seconds"]],
        "pass_cpu_seconds": [result["cpu_seconds"]],
        "rss_mb": result["rss_mb"],
        "rc": result["rc"],
        "reason": reason,
        "known": known,
        "stderr_tail": result["stderr"][-STDERR_TAIL:] if reason else "",
    }


def _run_one(runner: Runner, argv) -> dict:
    if runner.late():
        return {"rc": None, "seconds": 0.0, "cpu_seconds": 0.0, "rss_mb": 0.0, "stdout": "",
                "timed_out": False, "stderr": "not started: the run passed its deadline"}
    return runner.spawn([sys.executable, "-m", "momentlab.cli", *argv])


def run_cli(runner: Runner, requests, refs, passes: int = 1, setup_samples: int = 0):
    """The timed closed loop: each request as a CLI process, ``passes``
    times over the list.  The first run of a request is checked against its
    reference, later ones against the first.  A request's wall and CPU
    times are the means over its runs: the slow phases of a shared machine
    last seconds, and a mean over runs some seconds apart evens them out.
    ``setup_samples`` set-up samples are spread evenly between the
    requests, so that no one phase of the machine sets the set-up time or
    the calibration.  Returns one record per request, the stdouts and the
    set-up samples."""
    records, outputs, setups = [], [], []
    total = len(requests) * passes
    for p in range(passes):
        for i, argv in enumerate(requests):
            while len(setups) < setup_samples * (p * len(requests) + i) / total:
                setups.append(_setup_sample(runner))
            result = _run_one(runner, argv)
            if result["rc"] is None:
                reason = "not started"
            elif result["timed_out"]:
                reason = f"over the {TIME_LIMIT_S:.0f} s time limit"
            elif p == 0:
                reason = checks.verdict(argv, refs.get(argv), result["rc"], result["stdout"])
            elif (result["rc"], result["stdout"]) != (records[i]["rc"], outputs[i]):
                reason = f"pass {p + 1} printed other output than pass 1"
            else:
                reason = records[i]["reason"]
            known = reason is not None and checks.is_expected(
                argv, refs.get(argv), result["rc"], result["stderr"])
            if p == 0:
                records.append(_record(argv, result, reason, known))
                outputs.append(result["stdout"])
                continue
            record = records[i]
            if result["rc"] is not None:
                record["pass_seconds"].append(result["seconds"])
                record["pass_cpu_seconds"].append(result["cpu_seconds"])
                record["seconds"] = statistics.fmean(record["pass_seconds"])
                record["cpu_seconds"] = statistics.fmean(record["pass_cpu_seconds"])
                record["rss_mb"] = max(record["rss_mb"], result["rss_mb"])
            if reason != record["reason"]:  # a failure first seen here is never the known one
                record.update(reason=record["reason"] or reason, known=record["known"] and known,
                              stderr_tail=record["stderr_tail"] or result["stderr"][-STDERR_TAIL:])
    while len(setups) < setup_samples:
        setups.append(_setup_sample(runner))
    _check_twins(requests, records, outputs)
    return records, outputs, setups


def _check_twins(requests, records, outputs) -> None:
    """A simulate request must print the same bytes whatever its --threads."""
    groups: dict[tuple, list[int]] = {}
    for i, argv in enumerate(requests):
        if argv[0] == "simulate":
            groups.setdefault(workloads.with_threads(argv, 1), []).append(i)
    for members in groups.values():
        if len({outputs[i] for i in members}) > 1:
            for i in members:
                records[i]["reason"] = records[i]["reason"] or "stdout differs across --threads"


def _replay_one(runner: Runner, argv, traced: bool) -> dict:
    if not runner.late():
        result = runner.spawn([sys.executable, str(HERE / "replay.py"), str(int(traced)), *argv])
        if result["rc"] == 0:
            return {**json.loads(result["stdout"]), "seconds": result["seconds"]}
    # shows up as a replay that differs from the CLI run
    return {"rc": None, "main_s": 0.0, "stdout": "", "spans": [], "seconds": 0.0}


def replay_all(runner: Runner, requests) -> tuple[list[dict], list[dict]]:
    """Each request replayed in-process with --threads 1, without and then
    with spans; alternating the two keeps slow drifts of the machine out of
    the tracing overhead."""
    plain, traced = [], []
    for argv in requests:
        if argv[0] == "simulate":
            argv = workloads.with_threads(argv, 1)
        plain.append(_replay_one(runner, argv, traced=False))
        traced.append(_replay_one(runner, argv, traced=True))
    return plain, traced


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(requests, records, outputs, plain, traced, spans_path: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics from the three passes, and what disagreed between them."""
    problems = []
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    totals = {"coeffs": 0, "max_bits": 0, "terms": 0, "oracle_n": 0, "trials": 0}
    with open(spans_path, "w") as sink:
        for rid, (argv, run) in enumerate(zip(requests, traced)):
            spans = run["spans"]
            self_s = _self_times(spans)
            main_s = spans[0][2] - spans[0][1] if spans else None
            if main_s is None or abs(sum(self_s) - main_s) > 1e-6 or main_s > run["seconds"]:
                problems.append(f"spans of {' '.join(argv)} do not fit inside the traced request")
            for (name, start, end, parent, attrs), mine in zip(spans, self_s):
                sink.write(json.dumps({"request": rid, "name": name, "start": start, "end": end,
                                       "parent": parent, "self": mine, **attrs}) + "\n")
                if name == "tables.distribution_table":
                    name = f"tables.{attrs['model']}"
                busy[name] = busy.get(name, 0.0) + end - start
                own[name] = own.get(name, 0.0) + mine
                for key in totals.keys() & attrs.keys():
                    totals[key] = max(totals[key], attrs[key]) if key == "max_bits" else totals[key] + attrs[key]
    for argv, record, out, a, b in zip(requests, records, outputs, plain, traced):
        if not (a["stdout"] == b["stdout"] == out and a["rc"] == b["rc"] == record["rc"]):
            problems.append(f"in-process replay of {' '.join(argv)} differs from the CLI run")

    def median_of(sub: str) -> float:
        times = [r["seconds"] for r in records if r["argv"][0] == sub]
        return statistics.median(times) if times else 0.0

    plain_s = sum(r["main_s"] for r in plain)
    traced_s = sum(r["main_s"] for r in traced)
    spans = [f"tables.{m}" for m in workloads.MODELS] + [
        name for _, _, name, _ in replay.SHIMS if name != "tables.distribution_table"
    ]
    estimate_s = busy.get("simulate.estimate", 0.0)
    metrics = {
        **{f"{name}_s": busy.get(name, 0.0) for name in spans},
        "tables.coeffs": totals["coeffs"],
        "tables.max_bits": totals["max_bits"],
        "tables.peak_rss_mb": max((r["rss_mb"] for r in records if r["argv"][0] == "table"), default=0.0),
        "moments.terms": totals["terms"],
        "transfer.oracle_n": totals["oracle_n"],
        "simulate.estimate_self_s": own.get("simulate.estimate", 0.0),
        "simulate.trials": totals["trials"],
        "simulate.trials_per_s": totals["trials"] / estimate_s if estimate_s else 0.0,
        **{f"cli.{sub}_s": median_of(sub) for sub in SUBCOMMANDS},
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.stdout_mb": sum(len(out.encode()) for out in outputs) / 1e6,
        "trace.overhead_frac": traced_s / plain_s - 1 if plain_s else 0.0,
    }
    return metrics, problems


def host_speed(setups) -> float:
    """How much faster the host ran in this run than the reference box,
    from the mean CPU time of the calibration job (on runs of the same code
    the mean gave steadier times than the median)."""
    return CALIBRATION_REFERENCE_S / statistics.fmean(cal for sample in setups for cal in sample[1:])


def end_to_end_metrics(records, setups) -> dict:
    """Times in seconds of the reference box: measured CPU seconds times
    the host speed of the run."""
    speed = host_speed(setups)
    return {
        "setup_s": statistics.median(sample[0] for sample in setups) * speed,
        "cpu_s": sum(r["cpu_seconds"] for r in records) * speed,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # outputs may hold rationals past the default limit

    runner = Runner(Path.cwd())
    requests = workloads.build(args.workload, args.seed, args.seconds / PASSES)
    try:
        env = _probe(runner)
        refs = checks.prepare(requests)
        if args.trace:
            records, outputs, setups = run_cli(runner, requests, refs)
        else:
            records, outputs, setups = run_cli(runner, requests, refs, PASSES, SETUP_SAMPLES)
    except Setup as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = []
    if args.trace:
        plain, traced = replay_all(runner, requests)
        spans_path = runner.out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        values, problems = layer_metrics(requests, records, outputs, plain, traced, spans_path)
        units = declared_units("per_layer")
    else:
        values = end_to_end_metrics(records, setups)
        units = declared_units("end_to_end")

    failed = [r for r in records if r["reason"]]
    attempted = len(records)
    correct = not problems and all(r["known"] for r in failed)
    record_path = runner.out_dir / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "environment": env, "setup_and_calibration_seconds": setups, "requests": records,
         "problems": problems, "metrics": values}, indent=1))

    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "momentlab"))
    for r in failed:
        kind = "known digit-limit failure" if r["known"] else "FAILED"
        print(f"{kind}: {' '.join(r['argv'])}: {r['reason']}: {r['stderr_tail'].strip()[-200:]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    if setups:
        print(f"host speed {host_speed(setups):.4f} of the reference box; measured CPU seconds: "
              f"list {sum(r['cpu_seconds'] for r in records):.4f}, "
              f"set-up {statistics.median(sample[0] for sample in setups):.4f}")
    print(f"fail_frac {len(failed) / attempted:.6f} ({len(failed)} of {attempted} requests failed)")
    print(f"record: {record_path.relative_to(runner.root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
