"""Command-line front end.

Subcommands
-----------
table     exact distribution row as k,count pairs (CSV) or a dense array (JSON)
moment    exact and/or two-term asymptotic factorial moment at one size
transfer  log-power coefficient estimate vs. the exact series oracle
simulate  Monte Carlo factorial moment with standard error (seeded, exact
          reproducibility independent of --threads, which bounds the
          workers: one per 2^22 draws, (n - 1) x trials, so a request
          of fewer than 2^23 draws runs in one process); requests of
          more than 2^31 draws and inversions requests past a 512 MiB
          memory budget (n > 2^23) exit 3 before any work
compare   convergence report of asymptotic vs. exact moments over an n-grid
verify    coefficient cross-check for s = 1..10, all models; exit 4 on failure

One rule, in the arithmetic record ``transfer._arithmetic``, covers the double
range: every estimate, and every double that ``transfer`` and ``compare`` print,
goes through it, and a value past the range exits 3, as does a ``transfer
--precision high`` estimate below it.  Where the double formula of an estimate
overflows, it is worked out at 82 digits and rounded once, so a double estimate
is refused only where its value does not fit, as ``--precision high`` refuses
it; ``compare --precision high`` exits 3 the same way only past the decimal
exponent range.  A ``transfer`` request runs its exact
oracle only after every cheap refusal: the oracle's budget, a lower and an
upper bound on its value with the 82-digit oracle asked when they straddle the
range, then the estimate's double.

Exact moments of ``moment`` and ``compare`` come from
``moments.exact_moment``, whose docstring describes its routes:
closed-form and pgf.  ``compare`` names the route in its ``source`` field,
and has one more:

  oracle       cycles above n = 200, s <= 16: the polygamma series oracle,
               an 82-digit ``Decimal`` printed as a float; in double
               precision it enters the error columns rounded to a double,
               with ``--precision high`` as it is

Under ``--precision high`` the error columns ``abs_err`` and ``rel_err`` of
``compare`` are worked out to 82 digits and hold no correct digit once the
relative error falls below about 10^-80: they then read 0 or rounding
noise.  For example, ``--model cycles --s 1`` at n = 10^100 prints 0 for
both, where the true error is about 5*10^-101.

Each subcommand builds one record, and CSV and JSON are two views of it.
The CSV view prints the record's columns under a header row, one line per
entry of its row list (``compare``, ``verify``) or one line for the record
itself.  The JSON view prints the whole record after a "schema": 1 and a
"command" field, so it also carries the fields only JSON prints: ``mode``
of ``moment``, ``oracle_exact`` of ``transfer``, ``tolerance`` and
``passed`` of ``verify``.  Every field stays a value in the record, and
each view turns into text only the fields it prints: ``oracle_exact`` and
``compare``'s ``exact`` stay exact rationals (or the oracle's Decimal) until
a view writes them.

The layers' names, the package's public names and transfer's private
``_arithmetic``, the arithmetic record, are bound on first use by this
module's ``__getattr__``, and the handlers call them through the module object.
Every request is a fresh process that compiles each module it imports, so
a request loads only the submodules its route runs: ``table`` only
``tables``, and ``_ntt``, the number-theoretic transforms, and numpy only
for a quicksort row, which ``moment`` and ``compare`` never build;
``simulate`` only ``simulate``; ``transfer`` ``transfer`` and the ``tables``
whose rising product its exact oracle expands.  ``Model`` is the package
root's own, so parsing loads no layer.  A function set on this module from
outside, such as a wrapper that times a layer, is the one that runs.

Conventions: natural logarithms everywhere (the gamma-constant corrections
only hold for ln); one rule, ``_text``, gives the text of every value in
both views: counts as exact decimal integers, rationals as "p/q", reals with
15 significant digits; CSV has a header row and LF line endings.
Output is deterministic: identical flags (and seed) give byte-identical
bytes, data on stdout, diagnostics on stderr.  Every byte of a request's
output is built before the first is written, so a request that fails while
formatting (such as on Python's 4300-digit limit on integer-to-text
conversion) leaves stdout empty.
Exit codes: 0 success, 2 invalid arguments, 3 resource limit exceeded,
4 verification failure; and 141 (128 + SIGPIPE, what a shell reports for a
writer killed by a closed pipe) only when the reader of stdout or stderr
stops early, as ``| head`` does, with no traceback and the rest of the
output dropped.

How argv is read: ``_COMMANDS`` declares every subcommand and option once.
``main`` first reads argv strictly against it, accepting only
``SUB (--FLAG VALUE)*`` where each flag is one of SUB's options, given once,
every required option is given, and each value passes its option's type or
choices and does not start with "-".  Such an argv gives the attributes
argparse would, defaults filled in, without importing argparse.  Any other argv
(``--help``, an abbreviation, ``--flag=value``, a repeat, a value such as
``-2``, ``--``, an unknown or missing option, a bad value) goes to the
argparse parser that ``build_parser`` builds from the same table, which
parses it, prints the help or rejects it as it always has.

How a request ends: ``run``, the process entry of ``python -m
momentlab.cli`` and of the ``momentlab`` script, calls ``main``, runs the
registered atexit handlers, flushes stdout and stderr and leaves by
``os._exit``, skipping the interpreter's teardown (module teardown, the
last garbage collection, freeing every object), which costs more CPU than
most requests' own work.  Nothing is left to finalize: the output is
written, and the ``--threads`` pool has been joined.  When an exception or
``SystemExit`` (``--help``, a parser error) leaves ``main``, or a flush
fails, the interpreter ends the process as it ends any other.  ``main(argv)``
itself returns the exit code and ends nothing, for callers in process.

``run`` also switches the cyclic garbage collector off before ``main``.  It
ran about 30 collections during numpy's import alone, 4-5 ms of a
``simulate`` request.  That is safe because no route builds reference
cycles that grow with its work: the imports leave a few hundred objects in
cycles (346 with numpy), the same at any size of request, reference
counting frees the rest as before, and ``os._exit`` frees the process's
memory whole.  A ``--threads`` worker, forked from it, inherits the
setting.  ``main`` and the library leave the collector as they found it.
"""

import atexit
import gc
import os
import sys
from types import SimpleNamespace

from . import _EXPORTS, Model, ResourceLimitError, _first_use

__getattr__ = _first_use(globals(), {**_EXPORTS, "transfer": _EXPORTS["transfer"] + ("_arithmetic",)})
# This module: the handlers look the layers' names up on it, so that
# ``__getattr__`` binds each on first use and a name set on the module from
# outside is the one called.
_layers = sys.modules[__name__]

CROSSCHECK_TOLERANCE = 1e-10
CROSSCHECK_MAX_S = 10

# In `compare`, cycles moments up to here come from `exact_moment` and print as
# exact rationals; above it, from the polygamma oracle's 82-digit value,
# printed as a float.  The cutoff fixes that output format, not a cost.
_CYCLES_EXACT_MAX_N = 200


def compare_rows(
    model, s: int, grid: list[int], *, high_precision: bool = False
) -> list[dict]:
    """Convergence study: one row per grid point, with keys n, exact, asym,
    abs_err, rel_err (None when exact == 0) and source (pgf, closed-form or
    oracle).  ``exact`` is a value, not text: a Fraction, or the oracle's
    82-digit Decimal, which ``_text`` prints in either view.

    ``high_precision`` evaluates the asymptotic side and the error
    arithmetic in 82-digit ``decimal`` instead of doubles; the cycles
    oracle's 82-digit value then enters them as it is, not rounded to a
    double.
    """
    rows = []
    for n in grid:
        # first the estimate, which refuses a point past its arithmetic's range at once
        asym = _layers.asymptotic_moment(model, n, s, high_precision=high_precision)
        if model is Model.CYCLES and n > _CYCLES_EXACT_MAX_N:
            # the moment series of cycles is exactly a log-power series
            exact, source = _layers.highprec_coefficient(1, s, n), "oracle"
        else:
            exact, source = _layers.exact_moment(model, n, s)
        with _layers._arithmetic(high_precision, f"{model} estimate at n={n}, s={s}") as r:
            exact_r = r.real(exact)
            abs_err = abs(asym - exact_r)
            rel_err = r.double(abs_err / abs(exact_r)) if exact_r != 0 else None
            abs_err, asym = r.double(abs_err), r.double(asym)
        rows.append({
            "n": n,
            "exact": exact,
            "asym": asym,
            "abs_err": abs_err,
            "rel_err": rel_err,
            "source": source,
        })
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """The one text rule of both views, a CSV cell and the JSON encoder's
    ``default``: "" for None, text as it is, an exact rational (an int or a
    Fraction, told by its denominator, so that no view imports fractions) as
    "p/q", and a float or the oracle's Decimal with 15 significant digits."""
    if value is None:
        return ""
    if isinstance(value, str) or hasattr(value, "denominator"):
        return str(value)
    return format(float(value), ".15g")


def _emit(args, record: dict, columns: tuple[str, ...], rows: str | None = None) -> None:
    """Write ``record`` to stdout in ``args.format``.

    JSON prints the whole record after its schema and command.  CSV prints
    ``columns`` for each entry of ``record[rows]``, or for ``record`` itself
    when ``rows`` is None; a column an entry lacks comes from ``record``.
    Its cells are joined with "," as they are: the program makes every one
    (digits, "p/q", names, scales such as "n^4 log^4(n)"), and none holds a
    comma, quote or line break, so these are the bytes ``csv.writer`` writes.
    """
    if args.format == "json":
        import json

        encoder = json.JSONEncoder(ensure_ascii=False, indent=2, default=_text)
        # the chunks are written as they are, never joined into a second copy
        chunks = list(encoder.iterencode({"schema": 1, "command": args.command, **record}))
        chunks.append("\n")
        sys.stdout.writelines(chunks)
        return
    entries = [record] if rows is None else record[rows]
    cells = [[_text((entry if c in entry else record)[c]) for c in columns] for entry in entries]
    sys.stdout.writelines([",".join(line) + "\n" for line in [columns, *cells]])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    table = _layers.distribution_table(Model(args.model), args.n)
    if args.format == "csv":
        # the fields are plain digits, which csv.writer never quotes, so these
        # are its bytes; every line is built before the first is written, so a
        # count past the integer-to-text digit limit leaves stdout empty
        lines = [f"{k},{c}\n" for k, c in enumerate(table.counts) if c]
        sys.stdout.write("k,count\n")
        sys.stdout.writelines(lines)
    else:
        # json writes the tuple as an array
        _emit(args, {"model": args.model, "n": args.n, "counts": table.counts}, ())
    return 0


def _cmd_moment(args) -> int:
    model = Model(args.model)
    want_exact = args.mode in ("exact", "both")
    want_asym = args.mode in ("asym", "both")
    if want_asym and (args.n < 2 or args.s < 1):
        raise ValueError("asymptotic moments require --n >= 2 and --s >= 1")
    # first the estimate, which refuses a moment past the double range at once
    asym = _layers.asymptotic_moment(model, args.n, args.s) if want_asym else None
    exact = _layers.exact_moment(model, args.n, args.s)[0] if want_exact else None
    record = {
        "model": args.model,
        "s": args.s,
        "n": args.n,
        "mode": args.mode,
        "exact": exact,
        "asym": None if asym is None else float(asym),
    }
    _emit(args, record, ("model", "s", "n", "exact", "asym"))
    return 0


def _cmd_transfer(args) -> int:
    if args.alpha < 1 or args.beta < 0:
        raise ValueError("--alpha must be >= 1 and --beta >= 0")
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if args.order is not None and args.order < 0:
        raise ValueError("--order must be nonnegative")
    estimate = _layers.transfer_term(
        args.alpha, args.beta, args.n, order=args.order, high_precision=args.precision == "high"
    )
    # the oracle's cheap pre-check: its budget, then its double range
    _layers.check_double_range(args.alpha, args.beta, args.n)
    what = f"alpha={args.alpha}, beta={args.beta}, n={args.n}"
    # then the estimate's double, so that every refusal comes before the oracle's work
    with _layers._arithmetic(False, what) as r:
        estimate_f = r.double(estimate)
        if estimate_f == 0 and estimate != 0:
            # an 82-digit estimate below the double range would print as a signed zero
            raise ResourceLimitError(f"result underflows the double range ({what} estimate rounds to zero in doubles)")
    oracle = _layers.exact_coefficient(args.alpha, args.beta, args.n)
    with _layers._arithmetic(False, what) as r:
        oracle_f = r.double(oracle)
        abs_err = r.double(abs(estimate_f - oracle_f))
        rel_err = r.double(abs_err / abs(oracle_f)) if oracle_f != 0 else None
    record = {
        "alpha": args.alpha,
        "beta": args.beta,
        "n": args.n,
        "order": args.order,
        "estimate": estimate_f,
        "oracle": oracle_f,
        # the JSON view alone prints the exact oracle, as text that can pass
        # the integer-to-text digit limit, so it stays a Fraction until then
        "oracle_exact": oracle,
        "abs_err": abs_err,
        "rel_err": rel_err,
    }
    columns = ("alpha", "beta", "n", "order", "estimate", "oracle", "abs_err", "rel_err")
    _emit(args, record, columns)
    return 0


def _cmd_simulate(args) -> int:
    if args.trials < 2:
        raise ValueError("--trials must be at least 2")
    if args.seed < 0 or args.seed >= 1 << 64:
        raise ValueError("--seed must be a 64-bit unsigned integer")
    if args.threads < 1:
        raise ValueError("--threads must be positive")
    est = _layers.estimate_factorial_moment(
        Model(args.model), args.n, args.s, args.trials, args.seed, threads=args.threads
    )
    record = {
        "model": args.model,
        "s": est.s,
        "n": est.n,
        "trials": est.trials,
        "seed": est.seed,
        "mean": est.mean,
        "stderr": est.stderr,
    }
    _emit(args, record, tuple(record))
    return 0


def _parse_grid(spec: str) -> list[int]:
    try:
        grid = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--n-grid must be comma-separated integers, got {spec!r}") from None
    if not grid:
        raise ValueError("--n-grid is empty")
    if any(n < 2 for n in grid):
        raise ValueError("--n-grid entries must be >= 2")
    return grid


def _cmd_compare(args) -> int:
    if args.s < 1:
        raise ValueError("--s must be >= 1")
    grid = _parse_grid(args.n_grid)
    rows = compare_rows(
        Model(args.model), args.s, grid, high_precision=args.precision == "high"
    )
    columns = ("model", "s", "n", "exact", "asym", "abs_err", "rel_err", "source")
    _emit(args, {"model": args.model, "s": args.s, "rows": rows}, columns, "rows")
    return 0


def _cmd_verify(args) -> int:
    rows = []
    for model in Model:
        for s in range(1, CROSSCHECK_MAX_S + 1):
            triples = _layers.coefficient_crosscheck(model, s)
            for which, (scale, from_transfer, from_theorem) in zip(("leading", "second"), triples):
                rel_err = abs(from_transfer - from_theorem) / abs(from_theorem)
                rows.append(
                    {
                        "model": model.value,
                        "s": s,
                        "coefficient": which,
                        "scale": scale,
                        "from_transfer": from_transfer,
                        "from_theorem": from_theorem,
                        "rel_err": rel_err,
                        "status": "ok" if rel_err <= CROSSCHECK_TOLERANCE else "FAIL",
                    }
                )
    failures = sum(row["status"] == "FAIL" for row in rows)
    record = {"tolerance": CROSSCHECK_TOLERANCE, "results": rows, "passed": failures == 0}
    _emit(args, record, tuple(rows[0]), "results")
    if failures:
        print(f"verify: {failures} coefficient check(s) failed", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# The one declaration of the command line, read by ``_read_argv`` and by
# ``build_parser``.  An option is (flag, kind, required, default, help): kind
# is a type callable, a tuple of choices, or None for text, and the dest is
# argparse's own, the flag without "--" and with "_" for "-".
_MODEL = ("--model", tuple(m.value for m in Model), True, None, "which cost statistic")
_PRECISION = ("--precision", ("double", "high"), False, "double", None)
_FORMAT = ("--format", ("csv", "json"), False, "csv", None)
# subcommand: (handler, help, options)
_COMMANDS = {
    "table": (_cmd_table, "exact distribution row", (
        _MODEL,
        ("--n", int, True, None, "input size (n >= 0)"),
        _FORMAT,
    )),
    "moment": (_cmd_moment, "factorial moment at one size", (
        _MODEL,
        ("--n", int, True, None, None),
        ("--s", int, True, None, "moment order (s >= 0)"),
        ("--mode", ("exact", "asym", "both"), False, "both", None),
        _FORMAT,
    )),
    "transfer": (
        _cmd_transfer, "log-power coefficient: asymptotic estimate vs exact series oracle", (
            ("--alpha", int, True, None, "power of 1/(1-u), >= 1"),
            ("--beta", int, True, None, "power of log(1/(1-u)), >= 0"),
            ("--n", int, True, None, "coefficient index (n >= 2)"),
            ("--order", int, False, None,
             "truncate the correction bracket at this order (default: full)"),
            _PRECISION,
            _FORMAT,
        ),
    ),
    "simulate": (_cmd_simulate, "Monte Carlo factorial moment", (
        _MODEL,
        ("--n", int, True, None, None),
        ("--s", int, True, None, None),
        ("--trials", int, True, None, None),
        ("--seed", int, True, None, "64-bit unsigned seed"),
        ("--threads", int, False, 1,
         "worker processes; never changes the result, only the wall time"),
        _FORMAT,
    )),
    "compare": (_cmd_compare, "exact vs asymptotic over an n-grid", (
        _MODEL,
        ("--s", int, True, None, None),
        ("--n-grid", None, True, None,
         "comma-separated sizes, e.g. 100,1000,10000 (used literally)"),
        _PRECISION,
        _FORMAT,
    )),
    "verify": (
        _cmd_verify,
        "cross-check transferred expansion coefficients against the "
        "stated asymptotics for s = 1..10",
        (_FORMAT,),
    ),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``: it writes ``--help`` and every
    error message, and parses each argv that ``_read_argv`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="momentlab",
        description=(
            "Exact cost distributions, factorial moments, and asymptotic "
            "estimates for permutation cycle counts, inversion counts, and "
            "randomized-quicksort comparisons.  All logarithms are natural "
            "logs (base e), including in quicksort outputs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kind, required, default, text in options:
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(
                flag, type=None if choices else kind, choices=choices,
                required=required, default=default, help=text,
            )
        p.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for an argv of the
    form ``SUB (--FLAG VALUE)*``: each flag exactly one of SUB's options and
    given once, every required option given, and each value passing its
    option's type or choices without starting with "-".  None for any other
    argv, which argparse parses, helps with or rejects."""
    if not all(isinstance(word, str) for word in argv):
        return None
    command = argv and _COMMANDS.get(argv[0])
    given = dict(zip(argv[1::2], argv[2::2]))
    if not command or 2 * len(given) != len(argv) - 1:
        return None
    func, _, options = command
    values = {"command": argv[0], "func": func}
    for flag, kind, required, default, _ in options:
        value = given.pop(flag, None)
        if value is None:
            if required:
                return None
            value = default
        elif value.startswith("-"):
            return None
        elif isinstance(kind, tuple):
            if value not in kind:
                return None
        elif kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):  # what argparse reports as an invalid value
                return None
        values[flag[2:].replace("-", "_")] = value
    return None if given else SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    # read when a layer loads numpy: no BLAS routine runs, and idle threads cost CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"resource limit: result overflows the double range ({exc})", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource limit: out of memory ({exc})", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main`` on the process's argv, with no cyclic garbage collection,
    and end the process with its exit code."""
    gc.disable()
    try:
        code = main()
    except BrokenPipeError:
        sys.exit(_reader_gone())
    # the interpreter's order: the handlers, whose output may still be buffered, then the flush
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        sys.exit(_reader_gone())
    except OSError:
        # the interpreter's exit flushes again and reports the failure, as without ``run``
        sys.exit(code)
    os._exit(code)


def _reader_gone() -> int:
    """Point fds 1 and 2 at devnull once a reader has closed one, and return 141.

    The exit's own flush of what is left on either stream then has nowhere to
    fail (the Python docs' note on SIGPIPE).  SIGPIPE keeps Python's handling:
    its default action would also kill this process when a pool worker's pipe
    breaks.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.dup2(devnull, sys.stderr.fileno())
    return 141


if __name__ == "__main__":
    run()
