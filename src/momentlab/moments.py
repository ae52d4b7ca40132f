"""Exact factorial moments of distribution tables, plus the small exact
utilities (falling factorials, generalized harmonic numbers) they need.

The s-th factorial moment of a cost statistic X on inputs of size n is
E[(X)_s] with (X)_s = X(X-1)...(X-s+1); here it is computed by direct
summation over the exact table row, so every result is an exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .tables import DistributionTable, Model, distribution_tables

__all__ = [
    "falling_factorial",
    "harmonic",
    "factorial_moment",
    "moment_sequence",
    "quicksort_mean",
]


def falling_factorial(k: int, s: int) -> int:
    """(k)_s = k (k-1) ... (k-s+1); equals 1 for s = 0 and 0 for s > k."""
    if k < 0 or s < 0:
        raise ValueError("falling_factorial requires nonnegative arguments")
    return math.perm(k, s)


def _harmonic_split(lo: int, hi: int, r: int) -> tuple[int, int]:
    """(p, q) with p/q = sum of 1/j^r for lo <= j < hi, by binary splitting:
    q is the product of the j^r and nothing is reduced."""
    if hi <= lo:
        return 0, 1
    if hi - lo == 1:
        return 1, lo**r
    mid = (lo + hi) // 2
    p1, q1 = _harmonic_split(lo, mid, r)
    p2, q2 = _harmonic_split(mid, hi, r)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic(n: int, r: int = 1) -> Fraction:
    """Generalized harmonic number: sum of 1/j^r for j = 1..n, exactly."""
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
    tables (n <= 60) in the test suite; valid for every n >= 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    p, q = _harmonic_split(1, n + 1, 1)
    return Fraction(2 * (n + 1) * p - 4 * n * q, q)
