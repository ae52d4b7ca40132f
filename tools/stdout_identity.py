"""Check that two checkouts print the same bytes for a benchmark's requests.

    python3 tools/stdout_identity.py --parent DIR --change DIR --workload W --seeds 1,7,2026
    python3 tools/stdout_identity.py --parent DIR --change DIR --argv-file PATH
    python3 tools/stdout_identity.py --parent DIR --change DIR \
        --workload W1 --workload W2 --seeds 1,7 --argv-file PATH1 --argv-file PATH2

Checks one list of requests per ``--workload`` and per ``--argv-file``, each
option given as often as wanted.  A workload's list holds the requests that
``perfbench/run.py --seconds 30`` runs for each of ``--seeds``, built from
this repository's ``perfbench/workloads.py`` (imported, never changed); a
file's list holds the requests of ``PATH``: one per line, its words split on
whitespace, with blank lines and lines starting with ``#`` skipped.  A line
may begin with ``MOMENTLAB_NAME=value`` words, as in
``MOMENTLAB_TRACE=1 moment --model cycles --n 5 --s 1``: both sides run that
request with those variables set, whether or not the program reads them.
Runs every distinct request once in each checkout as a fresh child of the
shared runner ``tools/child.py``: ``python -m momentlab.cli`` with ``DIR/src``
on the path, buffered streams, the default that users get, and the
contract's limits of CPU, memory and wall time.  Lists each request whose
exit code, stdout bytes or stderr bytes differ, or that exits on either side
with a code the CLI does not document (a traceback exits 1, a child killed at
a limit minus its signal's number), then one summary line per list, and exits
1 if any list has such a request, else 0.  A request that breaks the contract
alike on both sides reads ``fails``; one still running after
``child.WALL_SECONDS`` on either side is killed there and listed as timed
out, so a hang fails the check instead of stalling it.  Stderr counts because
the CLI's exit path is where both streams are flushed.
It runs none of the benchmark's measured code: no launcher and no checks
against references.
"""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import child

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
# `perfbench/run.py --seconds 30` runs its list three times over and builds
# it for a third of the seconds
LIST_SECONDS = 30 / 3
# the CLI's exit codes: success, bad arguments, a resource limit, a failed check
EXIT_CODES = {0, 2, 3, 4}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def requests(workload: str, seeds: list[int]) -> list[tuple]:
    """The distinct requests of the lists of ``seeds``, in order of first use."""
    build = _workloads().build
    return list(dict.fromkeys(argv for seed in seeds for argv in build(workload, seed, LIST_SECONDS)))


def read_argv_file(path: Path) -> list[tuple]:
    """The distinct requests of ``path``, in order of first use."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return list(dict.fromkeys(tuple(line.split()) for line in lines if line and not line.startswith("#")))


def differences(parent: Path, change: Path, argvs: list[tuple]) -> list[tuple]:
    """(argv, parent result, change result) for each request whose exit
    code, stdout or stderr differs between the two checkouts, or whose exit
    code on either side is not in EXIT_CODES."""
    found = []
    for argv in argvs:
        before, after = child.run(parent, argv)[:3], child.run(change, argv)[:3]
        if before != after or not {before[0], after[0]} <= EXIT_CODES:
            found.append((argv, before, after))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", default=[],
                        help="tables, moments or montecarlo; may be repeated")
    parser.add_argument("--seeds", help="comma-separated seeds of every --workload, e.g. 1,7,2026")
    parser.add_argument("--argv-file", action="append", default=[], type=Path,
                        help="requests, one per line; may be repeated")
    args = parser.parse_args(argv)
    if not (args.workload or args.argv_file) or bool(args.workload) != (args.seeds is not None):
        parser.error("give --workload with --seeds, --argv-file, or both")
    lists = []  # (label, requests)
    try:
        if args.workload:
            seeds = [int(s) for s in args.seeds.split(",")]
            lists += [(f"{w} seeds {args.seeds}", requests(w, seeds)) for w in args.workload]
        lists += [(path.name, read_argv_file(path)) for path in args.argv_file]
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    differed = False
    for label, argvs in lists:
        found = differences(args.parent.resolve(), args.change.resolve(), argvs)
        kinds = []
        for request, (code_a, out_a, err_a), (code_b, out_b, err_b) in found:
            if child.TIMED_OUT in (code_a, code_b):
                kinds.append(child.TIMED_OUT)
            else:
                kinds.append("fails" if (code_a, out_a, err_a) == (code_b, out_b, err_b) else "differs")
            print(f"{kinds[-1]}: {' '.join(request)}: exit {code_a} -> {code_b}, "
                  f"stdout {len(out_a)} -> {len(out_b)} bytes"
                  + (f", stderr {len(err_a)} -> {len(err_b)} bytes" if err_a != err_b else ""))
        failed, timed_out = kinds.count("fails"), kinds.count(child.TIMED_OUT)
        print(f"{label}: {len(argvs)} requests, {kinds.count('differs')} differ"
              + (f", {failed} fail on both sides" if failed else "")
              + (f", {timed_out} {child.TIMED_OUT}" if timed_out else ""), flush=True)
        differed = differed or bool(found)
    return 1 if differed else 0


if __name__ == "__main__":
    raise SystemExit(main())
