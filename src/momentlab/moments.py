"""Exact factorial moments, plus the generalized harmonic numbers they need.

The s-th factorial moment of a cost statistic X on inputs of size n is
E[(X)_s] with (X)_s = X(X-1)...(X-s+1), the Taylor coefficient
s! [t^s] P_n(1+t) of the probability generating function P_n at z = 1.
``exact_moment`` is the one entry point and names the route it took:

* ``closed-form`` -- the quicksort mean 2(n+1)H_n - 4n, at every n, and
  the 0 of inversions and quicksort at s > max(PGF_MAX_S, k_max(model, n));
* ``pgf`` -- from the PGF, with no row of size n: cycles at every s inside
  the cycles row cap, from the first s + 1 Taylor coefficients of
  n! P_n(1+t) = (1+t)(2+t)...(n+t), the rising product of the cycles rows
  from ``tables._rising``; quicksort at s <= PGF_MAX_S, from its own
  coefficients, by the recurrence of ``_quicksort_pgf``; and inversions at
  s <= PGF_MAX_S, where E[(I_n)_s] is a polynomial of degree 2s in n,
  interpolated once per s through the moments of rows 0..2s;
* ``table`` -- inversions and quicksort at PGF_MAX_S < s <= k_max: direct
  summation over the exact row (``factorial_moment``), inside the row caps.

Every result is an exact rational.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from . import Model
from .tables import (
    DistributionTable,
    RowLimitError,
    _check_row_request,
    _inversion_rows,
    _rising,
    distribution_table,
    distribution_tables,
    k_max,
)

__all__ = [
    "PGF_MAX_S",
    "QUICKSORT_PGF_MAX_N",
    "harmonic",
    "factorial_moment",
    "moment_sequence",
    "quicksort_mean",
    "exact_moment",
]

# Largest inversions and quicksort moment order taken from PGF Taylor
# coefficients; above it those moments come from table rows.
PGF_MAX_S = 6
# Cap on n for quicksort moments from the PGF: the largest multiple of 50
# whose request finishes within 30 s CPU and 1536 MiB with room for the
# host's speed, which drifts by up to a fifth.  The recurrence costs O(n^2)
# products of integers of up to log2(n!) bits for each pair 1 <= a <= b
# with a + b <= s, so s = 6 is the dearest order.  `moment --model quicksort
# --s 6 --mode exact`, CSV and JSON, CPU and peak RSS on a 2-core x86-64
# box with Python 3.11: n = 800 in 21.4-22.6 s and 19 MB (27.1 s a fifth
# slower), 750 in 15.1-16.6 s, 700 in 12.8-13.0 s.
QUICKSORT_PGF_MAX_N = 800


# Terms a leaf of ``_harmonic_split`` sums over one lcm: measured against 1..512
# at n = 1000 to 10^5, 32 to 128 are within a tenth of one another, while merges
# alone (1) take twice as long at n = 20000 and 512 half as long again.
_HARMONIC_LEAF = 64


def _harmonic_split(lo: int, hi: int, r: int) -> tuple[int, int]:
    """(p, q) with p/q = sum of 1/j^r for lo <= j < hi, by binary splitting:
    q is lcm(lo, ..., hi - 1)^r, not the product of the j^r.

    A leaf of up to _HARMONIC_LEAF terms takes its lcm and one sum of
    q // j^r; a merge divides by the gcd of the two denominators.  p/q is
    not reduced, but q has about n log2(e) r bits at lo = 1 against
    log2(n!) r for the product (28.8 against 257 kbit at n = 20000, r = 1).
    """
    if hi - lo <= _HARMONIC_LEAF:
        q = math.lcm(*range(lo, hi)) ** r
        return sum(q // j**r for j in range(lo, hi)), q
    mid = (lo + hi) // 2
    p1, q1 = _harmonic_split(lo, mid, r)
    p2, q2 = _harmonic_split(mid, hi, r)
    g = math.gcd(q1, q2)
    return p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2


def harmonic(n: int, r: int = 1) -> Fraction:
    """Generalized harmonic number: sum of 1/j^r for j = 1..n, exactly,
    summed over the denominator lcm(1, ..., n)^r and then reduced."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    return Fraction(*_harmonic_split(1, n + 1, r))


def factorial_moment(table: DistributionTable, s: int) -> Fraction:
    """Exact s-th factorial moment of the distribution in ``table``.

    Rejects rows whose mass is not exactly n! (upstream corruption guard).
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    total = math.factorial(table.n)
    if sum(table.counts) != total:
        raise ValueError(f"table row for n={table.n} does not sum to n!")
    weighted = sum(
        math.perm(k, s) * c for k, c in enumerate(table.counts[s:], start=s) if c
    )
    return Fraction(weighted, total)


def moment_sequence(model: Model, s: int, N: int) -> list[Fraction]:
    """The s-th factorial moments at sizes 0..N, i.e. the Maclaurin
    coefficients of the moment generating series for ``model``."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    return [factorial_moment(t, s) for t in distribution_tables(model, N)]


def quicksort_mean(n: int) -> Fraction:
    """Exact mean comparison count of randomized quicksort: 2(n+1)H_n - 4n.

    Closed form certified against exhaustive enumeration (n <= 7) and exact
    tables (n <= 60) in the test suite; valid for every n >= 0.  H_n comes
    from ``_harmonic_split`` over the denominator lcm(1, ..., n), and only
    the result is reduced.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    p, q = _harmonic_split(1, n + 1, 1)
    return Fraction(2 * (n + 1) * p - 4 * n * q, q)


def _pgf_moment(poly: Sequence[int], n: int, s: int) -> Fraction:
    """s! [t^s] P_n(1+t) from the coefficients ``poly`` of n! P_n(1+t).

    Rejects a polynomial whose constant term, n! times the mass P_n(1), is
    not exactly n! (the guard ``factorial_moment`` applies to rows).
    """
    total = math.factorial(n)
    if poly[0] != total:
        raise ValueError(f"PGF of size {n} does not have mass 1")
    return Fraction(math.factorial(s) * poly[s], total)


@functools.lru_cache(maxsize=None)
def _inversions_polynomial(s: int) -> tuple[Fraction, ...]:
    """Coefficients, constant first, of the polynomial in n equal to
    E[(I_n)_s] for every n >= 0.

    log P_n(1+t) is a sum over j <= n of series whose t^r coefficient is a
    polynomial of degree r in j, so [t^s] P_n(1+t) is a polynomial of
    degree 2s in n.  It is the Lagrange interpolant through its exact
    values at n = 0..2s, the moments of the table rows 0..2s (built here
    whatever the row cap), in Newton's forward-difference form
    sum_k (Delta^k at 0) C(n, k).
    """
    values = [
        factorial_moment(DistributionTable(Model.INVERSIONS, m, tuple(row)), s)
        for m, row in enumerate(_inversion_rows(2 * s))
    ]
    coefficients = [Fraction(0)] * len(values)
    basis = [Fraction(1)]  # C(n, k) in powers of n
    for k in range(len(values)):
        for i, b in enumerate(basis):
            coefficients[i] += values[0] * b
        values = [y - x for x, y in zip(values, values[1:])]
        basis = [(lower - k * b) / (k + 1) for lower, b in zip([0] + basis, basis + [0])]
    return tuple(coefficients)


def _quicksort_pgf(n: int, s: int) -> list[tuple[int, ...]]:
    """[t^0..t^s] of A_m(t) = m! P_m(1+t) for quicksort comparisons, for
    every m = 0..n.

    From P_m(z) = z^(m-1)/m sum_j P_(j-1) P_(m-j),
    A_m = (1+t)^(m-1) B_m with B_m = sum_(i+l=m-1) C(m-1, i) A_i A_l,
    all truncated at t^s.  In B_m[k] the terms where one factor gives its
    constant term A_i[0] = i! sum to (m-1)!/l! A_l[k] over l < m, a prefix
    sum updated in O(1) per m.  Only the products of two non-constant
    coefficients, a + b = k with a, b >= 1, need the O(m) sum, and the swap
    i <-> l makes the sums for (a, b) and (b, a) equal, so only a <= b is
    summed.  The prefix sums assume every smaller A_i has mass i!; the
    constant term of A_n comes from the same sums, and ``_pgf_moment``
    checks it.  ``exact_moment`` also checks A_n[1] and A_n[2] against the
    mean and variance closed forms; those cover the prefix sums and the
    pair a = b = 1, but not the pairs with a + b >= 3.
    """
    columns = [[1]] + [[0] for _ in range(s)]  # columns[k][m] = A_m[k]
    prefix = [0] * (s + 1)  # prefix[k] = sum_(l<m) (m-1)!/l! A_l[k]
    for m in range(1, n + 1):
        prefix = [(m - 1) * p + column[-1] for p, column in zip(prefix, columns)]
        b_m = [prefix[0]] + [2 * p for p in prefix[1:]]
        binomials = [1] * m
        for i in range(1, m):
            binomials[i] = binomials[i - 1] * (m - i) // i
        for a in range(1, s // 2 + 1):
            weighted = list(map(mul, binomials, columns[a]))
            for b in range(a, s + 1 - a):
                total = sum(map(mul, weighted, reversed(columns[b])))
                b_m[a + b] += total if a == b else 2 * total
        for k in range(s + 1):
            columns[k].append(sum(math.comb(m - 1, k - c) * b_m[c] for c in range(k + 1)))
    return list(zip(*columns))


def exact_moment(model: Model, n: int, s: int) -> tuple[Fraction, str]:
    """Exact s-th factorial moment at size n, and the route that gave it:
    ``closed-form``, ``pgf`` or ``table`` (see the module docstring).

    Quicksort ``pgf`` moments are capped at n <= QUICKSORT_PGF_MAX_N and
    cycles moments at the cycles row cap; a request above its cap raises
    ``RowLimitError`` before any work.  Inversions ``pgf`` moments evaluate
    a polynomial in n and need no cap.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if model is Model.QUICKSORT and s == 1:
        return quicksort_mean(n), "closed-form"
    if model is Model.INVERSIONS and s <= PGF_MAX_S:
        value = Fraction(0)
        for c in reversed(_inversions_polynomial(s)):
            value = value * n + c
        return value, "pgf"
    if model is Model.CYCLES:
        # The row's cap: the product costs about what the row does (n = s =
        # 4000: 10.2-14.8 s against 12.4-13.4 s, both 40 MB; s = 6: 0.12 s), and
        # at n = 4060 the s = 6 numerator passes Python's 4300-digit limit.
        _check_row_request(model, n)
        if s > n:
            return Fraction(0), "pgf"
        return _pgf_moment(_rising(1, n + 1, s), n, s), "pgf"
    if model is Model.QUICKSORT and s <= PGF_MAX_S:
        if n > QUICKSORT_PGF_MAX_N:
            raise RowLimitError(
                f"quicksort moments of order {s} are capped at n <= {QUICKSORT_PGF_MAX_N}, got n={n}"
            )
        poly = _quicksort_pgf(n, s)[n]
        if s >= 2:
            # Var = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1) H_n + 13n
            mean = quicksort_mean(n)
            variance = 7 * n**2 - 4 * (n + 1) ** 2 * harmonic(n, 2) - 2 * (n + 1) * harmonic(n) + 13 * n
            if (_pgf_moment(poly, n, 1), _pgf_moment(poly, n, 2)) != (mean, variance + mean**2 - mean):
                raise ValueError(f"quicksort PGF of size {n} disagrees with the mean or variance")
        return _pgf_moment(poly, n, s), "pgf"
    if s > k_max(model, n):
        return Fraction(0), "closed-form"
    return factorial_moment(distribution_table(model, n), s), "table"
