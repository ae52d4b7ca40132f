"""Run one momentlab request in a fresh child under the CLI contract's limits.

    from child import run
    code, out, err, cpu, mib = run(root, ("table", "--model", "cycles", "--n", "5"))
    run(root, ("MOMENTLAB_TRACE=1", "moment", "--model", "cycles", "--n", "5", "--s", "1"))
    run(root, ("-c", "import sys; print(sys.argv[1])", "word"))

A request is CLI words, run as ``python -m momentlab.cli`` and optionally led
by ``MOMENTLAB_NAME=value`` words, which set those variables for it, as in
the argv files of tools/stdout_identity.py; or ``-c``, code and the code's
arguments, run as ``python -c``.  Every request runs in the checkout at
``root`` under one environment: the caller's, less every ``MOMENTLAB_*``
variable and ``PYTHONUNBUFFERED``, so that it writes to buffered streams, the
default that users get, with ``root/src`` on the path and one BLAS thread.
It runs under the contract's limits, set in the child only: CPU_SECONDS of
CPU, a fifth above the contract's 30 s, so that a run past it shows by how
much; MEMORY_MIB of address space; no core file; and WALL_SECONDS of wall
time, past which it is killed and its exit code reads TIMED_OUT.

tools/stdout_identity.py, tools/limits.py and the tier-1 tests start every
fresh request here; the few tests that need a launch this cannot express (a
closed pipe, a process group, a preset variable) take ``environment``.
"""

from __future__ import annotations

import collections
import itertools
import os
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

# CPU seconds of a request, a fifth above the contract's 30 s
CPU_SECONDS = 36
# the address space of a request, the contract's memory
MEMORY_MIB = 1536
# wall seconds of a request, five times the dearest listed one (the exact
# oracle at n = 100000 took up to 12 s on a 2-core x86-64 box)
WALL_SECONDS = 60
# the exit code of a request killed at WALL_SECONDS
TIMED_OUT = "timed out"

# exit code (minus the signal's number if killed), stdout, stderr, CPU
# seconds and peak RSS in MiB, both read from ``os.wait4``
Result = collections.namedtuple("Result", "code out err cpu mib")


def _is_setting(word: str) -> bool:
    return word.startswith("MOMENTLAB_") and "=" in word


def environment(root: Path, settings=()) -> dict[str, str]:
    """The environment of a request in the checkout at ``root``, under the
    ``MOMENTLAB_NAME=value`` words of ``settings``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOMENTLAB_") and k != "PYTHONUNBUFFERED"}
    env.update(word.split("=", 1) for word in settings)
    env.update(PYTHONPATH=str(Path(root) / "src"), OPENBLAS_NUM_THREADS="1")
    return env


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MIB << 20, MEMORY_MIB << 20))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    signal.alarm(WALL_SECONDS)  # kept across exec; SIGALRM ends the request


def run(root: Path, request: tuple[str, ...]) -> Result:
    """One request in a fresh child in the checkout at ``root``."""
    if request[:1] == ("-c",):
        settings, argv = (), [sys.executable, *request]
    else:
        settings = tuple(itertools.takewhile(_is_setting, request))
        argv = [sys.executable, "-m", "momentlab.cli", *request[len(settings):]]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=root, env=environment(root, settings), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_limits)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = TIMED_OUT if proc.returncode == -signal.SIGALRM else proc.returncode
        return Result(code, out.read(), err.read(), usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
