"""Exact distribution tables for three permutation cost statistics.

Every table row is exact, in arbitrary-precision integers:

* ``cycles``      -- permutations of n counted by number of cycles,
                     via ``T[n][k] = (n-1) T[n-1][k] + T[n-1][k-1]``, the
                     coefficients of x(x+1)...(x+n-1), the rising product
                     that ``_log_power_coefficients`` truncates.
* ``inversions``  -- permutations counted by number of inversions, the
                     coefficients of prod_(j<=n) (1 + z + ... + z^(j-1)):
                     each row is the previous one convolved with n ones,
                     taken as differences of its prefix sums.  The rows are
                     palindromic, so only the first half of each is
                     computed and the rest mirrored.
* ``quicksort``   -- permutations counted by total comparisons used when
                     sorted with a fixed-pivot quicksort (equivalently,
                     pivot histories of randomized quicksort).  Row n is
                     n! times the PGF P_n(z) = z^(n-1)/n sum_j P_(j-1) P_(n-j),
                     evaluated at roots of unity modulo many primes and
                     rebuilt by number-theoretic transforms in the private
                     module ``_ntt``, which ``_rows`` imports on the first
                     quicksort row.

The cycles and inversions recurrences keep only the previous row, so a
single row costs the memory of a few rows, not of the whole triangle.
Rows are dense over k = 0 .. k_max with structural zeros stored
explicitly, and every row sums to n! exactly.  Each model's rows stop at a
fixed, measured cap, ``DEFAULT_ROW_LIMITS``; a row past it raises the
package's ``ResourceLimitError`` before any work.

numpy and the quicksort transforms load with ``_ntt``, not with this
module: every CLI request is a fresh process that compiles what it
imports, and the cycles and inversions routes, like most requests, never
need them.  ``Model`` comes from the package root, so a layer that only
names a model loads no row builder.
"""

import collections
import itertools
import math
import operator

from . import _EXPORTS, Model, ResourceLimitError

__all__ = _EXPORTS["tables"]

# Measured single-row builds at each cap, CPU time and peak RSS of the
# process, on a 2-core x86-64 box with Python 3.11 and numpy 2.4: quicksort
# `table --model quicksort --n 120` in 1.3-1.5 s and 43 MB (n = 70 in
# 0.26-0.29 s and 31 MB), against 2.0 s and 41 MB (0.28-0.32 s and 31 MB)
# when the recurrence ran over blocks of points at every prime at once,
# 2.1-2.4 s and 122 MB (37 MB) when it held rows 0..n at every point and
# prime at once, and 3.7 s and 136 MB with power-of-two transforms over the
# whole row length.  At the cap the residues held at once come to 10.9 MiB
# for row 120 and 30.3 MiB for rows 0..120 (`distribution_tables`): one
# prime's rows 0..n at all N = 6561 points, 6.1 MiB, with the wanted rows'
# residues at the points and primes they read, 0.6 and 24.3 MiB, and then
# those residues with a row's inverse transform, at about 72 bytes a
# residue.
# Inversions is the largest multiple of 50 whose `table --format csv`
# request finished within 30 s CPU and 1536 MiB with the sliding-window
# builder: 500 in 23.5-26 s and 239 MB, while 550 took 30.2 s and 305 MB
# (1000 took 222 s and 1.6 GB).  With the prefix sums over the palindromic
# half, 500 takes 7.0 s and 233 MB (CSV) and 7.1 s and 234 MB (JSON): the
# JSON text is written chunk by chunk, never joined into one string, so it
# peaks like the CSV lines (joined, it took 471 MB).
# Cycles is the largest multiple of 500 whose `table --format csv` and
# `--format json` requests finish within those limits with room for the
# host's speed, which drifts by up to a fifth: 4000 in 17.8-19.6 s and
# 60 MB; 4500 took 27.0-28.7 s and 67 MB, and 5000 38 s and 75 MB.  With
# the row built by `map`, 4000 takes 16.4-16.9 s and 41 MB.  From n = 1559
# these requests end in exit 2 once the row is built: its counts pass
# Python's 4300-digit limit on integer-to-text conversion.
DEFAULT_ROW_LIMITS = {
    "cycles": 4000,
    "inversions": 500,
    "quicksort": 120,
}


def k_max(model: Model, n: int) -> int:
    """Largest attainable statistic value: n for cycles, n(n-1)/2 otherwise."""
    if model is Model.CYCLES:
        return n
    return n * (n - 1) // 2


class DistributionTable(collections.namedtuple("DistributionTable", "model n counts")):
    """One exact row: counts[k] permutations of n with statistic value k.

    Fields ``model`` (a Model), ``n`` and ``counts``, a tuple of ints dense
    over 0..k_max(model, n) that sums to n! exactly.  Instances are
    immutable and safe to share across threads.
    """

    __slots__ = ()

    def check(self) -> None:
        """Raise ValueError unless the row passes its structural invariants."""
        if len(self.counts) != k_max(self.model, self.n) + 1:
            raise ValueError("row has wrong length")
        if sum(self.counts) != math.factorial(self.n):
            raise ValueError("row does not sum to n!")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")


def _check_row_request(model: Model, n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    cap = DEFAULT_ROW_LIMITS[model.value]
    if n > cap:
        raise ResourceLimitError(f"{model} row {n} exceeds the cap {cap}")


# A node of ``_rising``'s tree holding more than max(32, 4 top^2) factors splits:
# a merge costs O(top^2) products of two big integers, the loop O(length top) of
# a small one by a big one.  4 was measured against 2..64 up to (n, top) = (20000, 32).
_RISING_LEAF = 32
_RISING_LEAF_PER_TOP2 = 4


def _rising_rows(lo: int, hi: int, top: int):
    """The products (lo + t)...(m - 1 + t) for m = lo..hi, truncated at t^top.

    Factor a maps poly[k] to a poly[k] + poly[k - 1] in one pass of ``map``,
    so the loop over k runs in C.  At lo = 0, top = hi: the cycles rows 0..hi.
    """
    poly = [1]
    yield poly
    for a in range(lo, hi):
        # map stops at the shorter argument, poly[1:], so poly[k-1] runs to k = len - 1
        nxt = [a * poly[0], *map(operator.add, map(operator.mul, poly[1:], itertools.repeat(a)), poly)]
        if len(poly) <= top:
            nxt.append(poly[-1])
        poly = nxt
        yield poly


def _rising(lo: int, hi: int, top: int) -> list[int]:
    """The last product of ``_rising_rows(lo, hi, top)``, by a balanced
    product tree whose leaves take the loop."""
    if hi - lo <= max(_RISING_LEAF, _RISING_LEAF_PER_TOP2 * top * top):
        return collections.deque(_rising_rows(lo, hi, top), maxlen=1).pop()
    mid = (lo + hi) // 2
    left, right = _rising(lo, mid, top), _rising(mid, hi, top)
    out = [0] * min(len(left) + len(right) - 1, top + 1)
    for i, x in enumerate(left):
        for j in range(min(len(right), top + 1 - i)):
            out[i + j] += x * right[j]
    return out


def _log_power_coefficients(series, n: int) -> list:
    """[u^n] of each of ``series`` as a Fraction.  A series ({(alpha, beta): c}, d)
    is the sum of (c/d) (1-u)^(-alpha) log^beta(1/(1-u)), alpha >= 1, and since
    (1-u)^(-alpha-t) = (1-u)^(-alpha) exp(t log(1/(1-u))) has the coefficients
    C(n + alpha + t - 1, n), [u^n] of one term is (c/d) beta! [t^beta] R / n! for
    R = prod_(j<n) (alpha + j + t): one ``_rising`` per alpha, whose constant
    term must be perm(alpha + n - 1, n) (the mass guard).  Terms with beta > n are 0.
    When every beta is 0, as for inversions, the terms are (c/d) C(n + alpha - 1,
    alpha - 1): for the largest alpha A, (A - 1)! times their sum is
    sum_alpha c perm(A - 1, A - alpha) (n + 1)...(n + alpha - 1), one integer
    Horner pass over alpha of about A^2/2 word products, where each rising
    product costs some n of them.  So it runs when A^2 is at most n times the
    number of alphas, at any n (at n = 10^4300 no product of n factors could).
    """
    from fractions import Fraction

    series = [({key: c for key, c in terms.items() if key[1] <= n}, d) for terms, d in series]
    top = max((b for terms, _ in series for _, b in terms), default=0)
    alphas = {a for terms, _ in series for a, _ in terms}
    if top == 0 and max(alphas, default=0) ** 2 <= len(alphas) * n:
        values = []
        for terms, d in series:
            big = max((a for a, _ in terms), default=1)
            acc = 0
            for a in range(big, 0, -1):
                acc = acc * (n + a) + terms.get((a, 0), 0) * math.perm(big - 1, big - a)
            values.append(Fraction(acc, d * math.factorial(big - 1)))
        return values
    products = {a: _rising(a, a + n, top) for a in alphas}
    if any(poly[0] != math.perm(a + n - 1, n) for a, poly in products.items()):
        raise ValueError(f"a rising product of size {n} has the wrong mass")
    scale = math.factorial(n)
    return [Fraction(sum(c * math.factorial(b) * products[a][b] for (a, b), c in terms.items()), d * scale)
            for terms, d in series]


def _inversion_rows(n: int):
    """Rows 0..n of the inversions table, each built from the one before.

    Row m is the previous row convolved with m ones:
    new[k] = prefix[min(k+1, L)] - prefix[max(k-m+1, 0)], where L is the
    length of the previous row and prefix[i] the sum of its first i
    entries.  Row m is palindromic, so only its first half is computed,
    from the prefix sums up to that half, and then mirrored; the sums and
    differences run as ``itertools.accumulate`` and ``map`` in C.
    """
    row = [1]
    yield row
    for m in range(1, n + 1):
        length = m * (m - 1) // 2 + 1
        half = (length + 1) // 2  # never more than len(row), so k + 1 <= L below
        prefix = list(itertools.accumulate(itertools.islice(row, half), initial=0))
        # new[k] for k < half: prefix[k+1] - (0 while k < m-1, then prefix[k-m+1])
        new = list(map(operator.sub, itertools.islice(prefix, 1, None),
                       itertools.chain(itertools.repeat(0, m - 1), prefix)))
        new.extend(reversed(new[: length - half]))
        yield new
        row = new


def _rows(model: Model, n: int, every: bool):
    """Row n, or rows 0..n when ``every``, of the table for ``model``."""
    if model is Model.QUICKSORT:
        from ._ntt import _quicksort_rows
        return _quicksort_rows(n, every)
    rows = _rising_rows(0, n, n) if model is Model.CYCLES else _inversion_rows(n)
    return list(rows) if every else collections.deque(rows, maxlen=1)


def distribution_table(model: Model, n: int) -> DistributionTable:
    """Exact row n of the table for ``model``."""
    _check_row_request(model, n)
    (row,) = _rows(model, n, every=False)
    return DistributionTable(model, n, tuple(row))


def distribution_tables(model: Model, n: int) -> list[DistributionTable]:
    """All rows 0..n in one bottom-up pass (cheaper than n separate calls)."""
    _check_row_request(model, n)
    rows = _rows(model, n, every=True)
    return [DistributionTable(model, m, tuple(row)) for m, row in enumerate(rows)]
