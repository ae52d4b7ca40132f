"""Every limit that refuses a momentlab request, declared once, and re-measured.

    python3 tools/limits.py [--runs N] [NAME ...]

``LIMITS`` holds one row per limit.  Its numbers come from the program's own
constants, which stay where they are, so moving a cap moves its row.  A row
gives the request at the edge (the dearest one inside the cap) and the one
just past it, each a CLI argv or, where no CLI request reaches it, a line of
library code; the whole message the past request is refused with; whether
the edge costs under a second, so that tier-1 runs it too; and where the edge
is known to break the contract (30 s CPU and 1536 MiB, exit 0), the ROADMAP
item that owns the gap.

tests/test_limits.py reads the table in tier-1.  ``main`` re-measures it: for
each row (every row, or the NAMEs given) it runs the edge N times (default 3)
and the past request once, one fresh child at a time through the shared
runner ``tools/child.py``, under the contract's limits set in the child only.
It prints one line per row: the edge's exit codes, its CPU seconds
(min/median/max) and its peak RSS, from ``os.wait4``, then the past request's
exit code and CPU seconds, and ``ok``, ``over`` or ``gap: item N``.  It exits
1 when a row without a gap breaks the contract at its edge, or when a past
request does not exit 3 with its message within PAST_CPU_S, else 0.  A
library line runs as ``python -c`` (``request``), which exits 3 with the
CLI's ``resource limit:`` line when the line raises exactly
``ResourceLimitError``.
"""

from __future__ import annotations

import argparse
import collections
import math
import statistics
import sys
from bisect import bisect_right
from pathlib import Path

import child

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from momentlab._ntt import _PRIME_BOUND, _is_prime, _transform_size  # noqa: E402
from momentlab.moments import MOMENT_MAX_S, QUICKSORT_MEAN_MAX_N, QUICKSORT_PGF_MAX_N  # noqa: E402
from momentlab.simulate import _INVERSIONS_BUDGET, MAX_DRAWS, _inversions_bytes  # noqa: E402
from momentlab.tables import DEFAULT_ROW_LIMITS  # noqa: E402
from momentlab.transfer import MAX_DERIVATIVE_ORDER, ORACLE_MAX_BETA, ORACLE_MAX_N  # noqa: E402

# The CPU seconds of a request inside every cap; its memory is the child's
# address space, child.MEMORY_MIB
CONTRACT_CPU_S = 30
# CPU seconds within which a request past a cap must exit 3
PAST_CPU_S = 1

Limit = collections.namedtuple("Limit", "name constant edge past message cheap gap")


def _cli(*words) -> tuple[str, ...]:
    return tuple(str(word) for word in words)


def _row_cap(model: str, gap: int | None) -> Limit:
    # the JSON view of a row is its dearest request (the cap's comment)
    cap = DEFAULT_ROW_LIMITS[model]
    return Limit(
        f"{model}-row", f"tables.DEFAULT_ROW_LIMITS['{model}'] = {cap}",
        _cli("table", "--model", model, "--n", cap, "--format", "json"),
        _cli("table", "--model", model, "--n", cap + 1),
        f"{model} row {cap + 1} exceeds the cap {cap}", False, gap,
    )


def _moment(model: str, n: int, s: int) -> tuple[str, ...]:
    return _cli("moment", "--model", model, "--n", n, "--s", s, "--mode", "exact")


def _s_cap(model: str, n: int, gap: int | None) -> Limit:
    # past the cap at n = 30, where the support reaches every s near it
    cap = MOMENT_MAX_S[model]
    return Limit(
        f"{model}-s", f"moments.MOMENT_MAX_S['{model}'] = {cap}", _moment(model, n, cap),
        _moment(model, 30, cap + 1), f"{model} moments are capped at s <= {cap}, got s={cap + 1}", False, gap,
    )


def _simulate(model: str, n: int) -> tuple[str, ...]:
    return _cli("simulate", "--model", model, "--n", n, "--s", 1, "--trials", 2, "--seed", 1)


_CYCLES_N = DEFAULT_ROW_LIMITS["cycles"]
# the largest n whose draws, (n - 1) x 2 trials, stay within the cap
_DRAWS_N = MAX_DRAWS // 2 + 1
# the largest n whose inversions estimate stays within the memory budget
_INVERSIONS_N = bisect_right(range(1, 2 * MAX_DRAWS), _INVERSIONS_BUDGET, key=_inversions_bytes)
_HIGHPREC_N = 10**9
_HIGHPREC = "from momentlab import highprec_coefficient; highprec_coefficient({}, {}, %d)" % _HIGHPREC_N
# a quicksort row far past its cap and its transform size: all the primes
# p = 1 (mod size) between the size, which exceeds n, and the bound do not
# exceed n!
_UNCOVERED_N = 1025
_UNCOVERED_SIZE = _transform_size(_UNCOVERED_N)
_UNCOVERED_PRIMES = math.prod(p for p in range(_UNCOVERED_SIZE + 1, _PRIME_BOUND, _UNCOVERED_SIZE) if _is_prime(p))

LIMITS = [
    _row_cap("cycles", 1),
    _row_cap("inversions", None),
    _row_cap("quicksort", None),
    # dearest at the largest n: for inversions the largest argv parses (4300
    # digits), for quicksort its n cap
    _s_cap("inversions", 10**4300 - 1, 1),
    _s_cap("quicksort", QUICKSORT_PGF_MAX_N, 1),
    # s = 6 is the largest order whose value at the cap prints under the
    # digit limit; every s from 2 to the s cap meets this cap
    Limit(
        "quicksort-n", f"moments.QUICKSORT_PGF_MAX_N = {QUICKSORT_PGF_MAX_N}",
        _moment("quicksort", QUICKSORT_PGF_MAX_N, 6), _moment("quicksort", QUICKSORT_PGF_MAX_N + 1, 2),
        f"quicksort moments of order 2 are capped at n <= {QUICKSORT_PGF_MAX_N}, got n={QUICKSORT_PGF_MAX_N + 1}",
        True, None,
    ),
    Limit(
        "quicksort-mean", f"moments.QUICKSORT_MEAN_MAX_N = {QUICKSORT_MEAN_MAX_N}",
        _moment("quicksort", QUICKSORT_MEAN_MAX_N, 1), _moment("quicksort", QUICKSORT_MEAN_MAX_N + 1, 1),
        f"quicksort moments of order 1 are capped at n <= {QUICKSORT_MEAN_MAX_N}, got n={QUICKSORT_MEAN_MAX_N + 1}",
        False, 1,
    ),
    # the cycles moment takes the row's cap; its product is dearest at s = n,
    # whose value is 1, while s = 7 at the cap exits 2 on the digit limit
    # (ROADMAP item 1 lists it)
    Limit(
        "cycles-moment", f"tables.DEFAULT_ROW_LIMITS['cycles'] = {_CYCLES_N}",
        _moment("cycles", _CYCLES_N, _CYCLES_N), _moment("cycles", _CYCLES_N + 1, 1),
        f"cycles row {_CYCLES_N + 1} exceeds the cap {_CYCLES_N}", False, None,
    ),
    Limit(
        "oracle-n", f"transfer.ORACLE_MAX_N = {ORACLE_MAX_N}",
        _cli("transfer", "--alpha", 1, "--beta", ORACLE_MAX_BETA, "--n", ORACLE_MAX_N),
        _cli("transfer", "--alpha", 1, "--beta", ORACLE_MAX_BETA, "--n", ORACLE_MAX_N + 1),
        f"exact oracle budget is n <= {ORACLE_MAX_N}, got {ORACLE_MAX_N + 1}", False, None,
    ),
    # the dearest request at this beta is the row above
    Limit(
        "oracle-beta", f"transfer.ORACLE_MAX_BETA = {ORACLE_MAX_BETA}",
        _cli("transfer", "--alpha", 2, "--beta", ORACLE_MAX_BETA, "--n", 50),
        _cli("transfer", "--alpha", 2, "--beta", ORACLE_MAX_BETA + 1, "--n", 50),
        f"oracle budget is beta <= {ORACLE_MAX_BETA}, got {ORACLE_MAX_BETA + 1}", True, None,
    ),
    # cycles rows past n = 200 come from the 82-digit oracle at beta = s
    Limit(
        "highprec-beta", f"transfer.MAX_DERIVATIVE_ORDER = {MAX_DERIVATIVE_ORDER}",
        _cli("compare", "--model", "cycles", "--s", MAX_DERIVATIVE_ORDER, "--n-grid", 300, "--precision", "high"),
        _cli("compare", "--model", "cycles", "--s", MAX_DERIVATIVE_ORDER + 1, "--n-grid", 300, "--precision", "high"),
        f"oracle budget is beta <= {MAX_DERIVATIVE_ORDER}, got {MAX_DERIVATIVE_ORDER + 1}", True, None,
    ),
    # every CLI request that needs C_16 is refused by the exact oracle's beta
    # budget, so the edge is the estimate alone
    Limit(
        "ck-table", f"transfer.MAX_DERIVATIVE_ORDER = {MAX_DERIVATIVE_ORDER}",
        f"from momentlab import transfer_term; transfer_term(1, {MAX_DERIVATIVE_ORDER}, 300)",
        _cli("transfer", "--alpha", 1, "--beta", MAX_DERIVATIVE_ORDER + 1, "--n", 10),
        f"order {MAX_DERIVATIVE_ORDER + 1} exceeds the embedded constant table (max {MAX_DERIVATIVE_ORDER})",
        True, None,
    ),
    # the CLI asks this oracle only at n <= ORACLE_MAX_N, inside this budget
    Limit(
        "highprec-binomial", f"transfer.ORACLE_MAX_N = {ORACLE_MAX_N}",
        _HIGHPREC.format(ORACLE_MAX_N + 1, MAX_DERIVATIVE_ORDER), _HIGHPREC.format(ORACLE_MAX_N + 2, MAX_DERIVATIVE_ORDER),
        f"high-precision oracle budget is min(n, alpha - 1) <= {ORACLE_MAX_N}, got alpha={ORACLE_MAX_N + 2}, n={_HIGHPREC_N}",
        False, None,
    ),
    # cycles holds no permutation, so it alone reaches the cap within memory
    Limit(
        "max-draws", f"simulate.MAX_DRAWS = {MAX_DRAWS}", _simulate("cycles", _DRAWS_N), _simulate("cycles", _DRAWS_N + 1),
        f"cycles estimate needs (n-1) x trials = {2 * _DRAWS_N} draws, above the cap {MAX_DRAWS}", False, 6,
    ),
    Limit(
        "inversions-memory", f"simulate._INVERSIONS_BUDGET = {_INVERSIONS_BUDGET}",
        _simulate("inversions", _INVERSIONS_N), _simulate("inversions", _INVERSIONS_N + 1),
        f"inversions estimate at n = {_INVERSIONS_N + 1} would hold {_inversions_bytes(_INVERSIONS_N + 1) >> 20} MiB "
        f"of permutations and merge runs, over the {_INVERSIONS_BUDGET >> 20} MiB budget",
        False, None,
    ),
    # no request reaches it: the quicksort row cap refuses such a row first
    Limit(
        "prime-coverage", f"_ntt._PRIME_BOUND = 2^{_PRIME_BOUND.bit_length() - 1}", None,
        f"from momentlab._ntt import _ntt_moduli; _ntt_moduli({_UNCOVERED_SIZE}, {_UNCOVERED_N})",
        f"quicksort row {_UNCOVERED_N} needs primes p = 1 (mod {_UNCOVERED_SIZE}) below "
        f"2^{_PRIME_BOUND.bit_length() - 1} whose product exceeds n! "
        f"({math.factorial(_UNCOVERED_N).bit_length()} bits); they give only {_UNCOVERED_PRIMES.bit_length() - 1} bits",
        False, None,
    ),
]

# A library line in a child: exit 3 with the CLI's line on exactly ResourceLimitError
_LIBRARY = """import sys
import momentlab
try:
    exec(sys.argv[1], {})
except momentlab.ResourceLimitError as exc:
    if type(exc) is not momentlab.ResourceLimitError:
        raise
    print(f"resource limit: {exc}", file=sys.stderr)
    sys.exit(3)
"""


def request(step: tuple[str, ...] | str) -> tuple[str, ...]:
    """The runner's request for a row's edge or past request."""
    return ("-c", _LIBRARY, step) if isinstance(step, str) else step


def refused(row: Limit, result: child.Result) -> bool:
    """Whether ``result``, of the row's past request, is the refusal the contract asks for."""
    return result[:3] == (3, b"", f"resource limit: {row.message}\n".encode()) and result.cpu < PAST_CPU_S


def measure(row: Limit, runs: int) -> tuple[str, bool]:
    """The report line of ``row`` and whether it fails the check."""
    past = child.run(ROOT, request(row.past))
    past_refused = refused(row, past)
    line = f"{row.name} ({row.constant}):"
    within = True
    if row.edge is not None:
        edges = [child.run(ROOT, request(row.edge)) for _ in range(runs)]
        cpus = sorted(edge.cpu for edge in edges)
        rss = max(edge.mib for edge in edges)
        codes = [edge.code for edge in edges]
        within = set(codes) == {0} and cpus[-1] <= CONTRACT_CPU_S and rss <= child.MEMORY_MIB
        line += (f" edge exit {','.join(map(str, codes))},"
                 f" cpu {cpus[0]:.2f}/{statistics.median(cpus):.2f}/{cpus[-1]:.2f} s, peak {rss:.0f} MiB;")
    line += f" past exit {past.code} in {past.cpu:.2f} s;"
    if within:
        line += " ok" if row.gap is None else f" ok, no gap seen for item {row.gap}"
    else:
        line += " over" if row.gap is None else f" gap: item {row.gap}"
    if not past_refused:
        line += f"; past not refused as stated: {past.err.decode(errors='replace').strip()!r}"
    return line, not past_refused or not (within or row.gap)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs of each edge (default 3)")
    parser.add_argument("names", nargs="*", metavar="NAME", help="rows to measure (default: all)")
    args = parser.parse_args(argv)
    rows = {row.name: row for row in LIMITS}
    unknown = [name for name in args.names if name not in rows]
    if unknown or args.runs < 1:
        parser.error(f"unknown rows: {', '.join(unknown)}" if unknown else "--runs must be positive")
    failed = False
    for row in [rows[name] for name in args.names] or LIMITS:
        line, fails = measure(row, args.runs)
        print(line, flush=True)
        failed = failed or fails
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
