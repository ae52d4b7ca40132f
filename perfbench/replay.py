"""Replay one request in-process through ``momentlab.cli.main(argv)``.

    python3 perfbench/replay.py <0|1> <argv...>

Runs in a fresh process per request, so the program's caches start cold.
With 1, the public functions of each layer are wrapped, as bound in the
module that calls them, by shims that record spans; the program's source
is untouched.  Prints one JSON object: exit code, seconds spent in
``main``, the captured stdout and stderr, and the spans.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def _row_attrs(args, result):
    return {
        "model": args[0].value,
        "coeffs": len(result.counts),
        "max_bits": max(c.bit_length() for c in result.counts),
    }


def _terms(args, result):
    table, s = args
    return {"terms": sum(1 for c in table.counts[s:] if c)}


def _oracle_n(args, result):
    return {"oracle_n": args[2]}


def _trials(args, result):
    return {"trials": args[3]}


# (module, attribute, span name, attributes taken from the call once main returns)
SHIMS = (
    ("momentlab.cli", "distribution_table", "tables.distribution_table", _row_attrs),
    ("momentlab.cli", "factorial_moment", "moments.factorial_moment", _terms),
    ("momentlab.cli", "quicksort_mean", "moments.quicksort_mean", None),
    ("momentlab.cli", "exact_coefficient", "transfer.exact_coefficient", _oracle_n),
    ("momentlab.cli", "highprec_coefficient", "transfer.highprec_coefficient", _oracle_n),
    ("momentlab.cli", "transfer_term", "transfer.transfer_term", None),
    ("momentlab.transfer", "gamma_recip_derivative", "transfer.gamma_recip_derivative", None),
    ("momentlab.expansions", "gamma_recip_derivative", "transfer.gamma_recip_derivative", None),
    ("momentlab.cli", "asymptotic_moment", "expansions.asymptotic_moment", None),
    ("momentlab.cli", "coefficient_crosscheck", "expansions.coefficient_crosscheck", None),
    ("momentlab.cli", "estimate_factorial_moment", "simulate.estimate", _trials),
    ("momentlab.simulate", "count_inversions", "simulate.count_inversions", None),
    ("momentlab.simulate", "count_cycles", "simulate.count_cycles", None),
    ("momentlab.simulate", "quicksort_comparisons", "simulate.quicksort_comparisons", None),
)


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pending: list[tuple] = []  # (span index, attrs function, args, result)

    def wrap(self, name, fn, attrs=None):
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter

        def shim(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                pending.append((index, attrs, args, result))
            return result

        return shim

    def finish(self) -> list[list]:
        """Fill in attributes, outside every span."""
        for index, attrs, args, result in self._pending:
            self.spans[index][4] = attrs(args, result)
        self._pending.clear()
        return self.spans


def replay(traced: bool, argv: list[str]) -> dict:
    import momentlab.cli as cli

    main = cli.main
    recorder = Recorder()
    if traced:
        for module, attr, name, attrs in SHIMS:
            mod = importlib.import_module(module)
            setattr(mod, attr, recorder.wrap(name, getattr(mod, attr), attrs))
        main = recorder.wrap("cli.main", main)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error reaches the user as exit 1
            traceback.print_exc()
            rc = 1
        main_s = time.perf_counter() - start
    return {
        "rc": rc,
        "main_s": main_s,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "spans": recorder.finish(),
    }


if __name__ == "__main__":
    json.dump(replay(sys.argv[1] == "1", sys.argv[2:]), sys.stdout)
