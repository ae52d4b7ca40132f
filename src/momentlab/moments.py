"""Exact factorial moments, plus the generalized harmonic numbers they need.

The s-th factorial moment of a cost statistic X on inputs of size n is
E[(X_n)_s] with (X)_s = X(X-1)...(X-s+1); f_s(u) = sum_n E[(X_n)_s] u^n.
``exact_moment`` is the one entry point and names the route it took:

* ``closed-form`` -- the quicksort mean 2(n+1)H_n - 4n, up to
  QUICKSORT_MEAN_MAX_N, and the 0 of inversions and quicksort at
  s > max(MOMENT_MAX_S[model], k_max(model, n));
* ``pgf`` -- every other moment, with no table row: [u^n] of the moment
  series f_s (``moment_series``) by one ``tables._log_power_coefficients``
  call, f_s = (1-u)^(-1) log^s(1/(1-u)) for cycles, a sum of powers of 1-u
  read off the PGF product at 1 + t for inversions (``_inversions_gf``), and
  ``_quicksort_gf``; a 0 past the support, s > k_max(model, n), builds none.

Every result is an exact rational.  ``exact_moment`` checks the caps
itself, its first step, so a request past one raises the package's
``ResourceLimitError`` before any work, whoever calls.
"""

import collections
import functools
import math
from fractions import Fraction

from . import _EXPORTS, Model, ResourceLimitError
from .tables import (
    DistributionTable,
    _check_row_request,
    _log_power_coefficients,
    k_max,
)

__all__ = _EXPORTS["moments"]

# Largest order s of the inversions and quicksort series: a multiple of 32
# whose dearest `moment --mode exact` takes 30 s CPU and 1536 MiB with a
# fifth to spare, on a 2-core x86-64 box with Python 3.11 (fresh requests, three
# runs or more each): inversions at n = 10^4300 - 1, s = 128 in 3.4-3.5 s and
# 17 MB, kept from when table rows took 9.5-13.7 s and s = 160 26.6-36.8 s;
# quicksort at n = 4000, s = 32 in 11.1-12.8 s and 47 MB, 40 in 30.0 s.
# Both then exit 2: the values pass Python's 4300-digit limit on int-to-text.
# Re-measured by `python3 tools/limits.py inversions-s quicksort-s`.
MOMENT_MAX_S = {"inversions": 128, "quicksort": 32}
# Cap on n for quicksort at s != 1: time allows more (0.30-0.33 s at s = 6,
# where the PGF recurrence took 21-23 s at n = 800), but a little above it the
# s = 6 numerator (14186 bits at 4000) passes that limit.  Re-measured by
# `python3 tools/limits.py quicksort-n`.
QUICKSORT_PGF_MAX_N = 4000
# Cap on n for the quicksort mean, the largest multiple of 10^5 whose
# `moment --mode exact` takes 30 s CPU with a fifth to spare, on the box above:
# n = 10^6 in 19.9-21.7 s and 16 MB, 1.1 x 10^6 in 21.4-25.5 s (fresh
# requests, three runs each).  Its text passes the 4300-digit limit above
# n = 9869, where `moment` and `compare` exit 2 after the work.  Re-measured
# by `python3 tools/limits.py quicksort-mean`.
QUICKSORT_MEAN_MAX_N = 1_000_000


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
    The falling factorials (k)_s are stepped along the row from (s)_s = s!,
    by (k + 1)_s = (k)_s (k + 1) / (k + 1 - s), one small product and one
    exact division per entry.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    total = math.factorial(table.n)
    if sum(table.counts) != total:
        raise ValueError(f"table row for n={table.n} does not sum to n!")
    weighted = 0
    falling = math.factorial(s)
    for k, c in enumerate(table.counts[s:], start=s):
        if c:
            weighted += falling * c
        falling = falling * (k + 1) // (k + 1 - s)
    return Fraction(weighted, total)


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


# Every f_s lies in the ring Q[v, 1/v, L], v = 1 - u, L = log(1/(1-u)): a
# series is ({(a, b): c}, d), the sum of (c/d) v^(-a) L^b over integers c.
_ONE = ({(0, 0): 1}, 1)


def moment_series(model: Model, s: int):
    """f_s of ``model``, reduced: for cycles (1-u)^(-1) log^s(1/(1-u)) exactly."""
    if model is Model.CYCLES:
        return {(1, s): 1}, 1
    return (_inversions_gf if model is Model.INVERSIONS else _quicksort_gf)(s)


@functools.lru_cache(maxsize=None)
def _inversions_gf(s: int):
    """f_s of inversions.  log P_n(1+t) is a sum over j <= n of series whose t^r coefficient
    is a polynomial of degree r in j, so E[(I_n)_s] is a polynomial of degree 2s in n:
    sum_k Delta^k C(n, k), over the forward differences at 0 of its values at n = 0..2s,
    s! [t^s] P_n(1+t) = s! [t^s] prod_(j<=n) Q_j(t)/n!, Q_j(t) = ((1+t)^j - 1)/t, by the
    PGF (Knuth, TAOCP 3, 5.1.1), as integers over (2s)!; a product whose t^0 is not n!
    raises ValueError.  And sum_n C(n, k) u^n is u^k v^(-(k+1)), u^k = sum_j C(k, j) (-v)^j.
    """
    scale, product = math.factorial(2 * s), [1] + [0] * s
    values = [math.factorial(s) * product[s] * scale]
    for m in range(1, 2 * s + 1):
        q = [math.comb(m, i + 1) for i in range(min(m, s + 1))]
        product = [sum(q[i] * product[r - i] for i in range(min(r + 1, m))) for r in range(s + 1)]
        if product[0] != math.factorial(m):
            raise ValueError(f"inversions PGF product at n={m} does not have constant term n!")
        values.append(math.factorial(s) * product[s] * (scale // math.factorial(m)))
    terms = collections.Counter()
    for k in range(2 * s + 1):
        for j in range(k + 1):
            terms[k + 1 - j, 0] += (-1) ** j * math.comb(k, j) * values[0]
        values = [y - x for x, y in zip(values, values[1:])]
    g = math.gcd(scale, *terms.values())
    return {key: c // g for key, c in terms.items() if c}, scale // g


def _gf(parts):
    """The sum of w x y over the triples (w, x, y) of ``parts``."""
    d = math.lcm(*(x[1] * y[1] for _, x, y in parts))
    out = collections.Counter()
    for w, (x, dx), (y, dy) in parts:
        w *= d // (dx * dy)
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                out[a1 + a2, b1 + b2] += w * c1 * c2
    return out, d


@functools.lru_cache(maxsize=None)
def _quicksort_falling(k: int, j: int):
    """u^j (d/du)^j f_k, the series of (n)_j E[(X_n)_k], as (u d/du - j + 1) of
    the one at j - 1; d/du v^(-a) L^b = a v^(-a-1) L^b + b v^(-a-1) L^(b-1)."""
    if j == 0:
        return _quicksort_gf(k)
    terms, d = _quicksort_falling(k, j - 1)
    out = collections.Counter()
    for (a, b), c in terms.items():
        for key, w in (((a + 1, b), a), ((a, b), 1 - a - j), ((a + 1, b - 1), b), ((a, b - 1), -b)):
            if w:
                out[key] += w * c
    return out, d


@functools.lru_cache(maxsize=None)
def _quicksort_g(i: int):
    """g_i = sum_(k<=i) C(i, k) u^(i-k) (d/du)^(i-k) f_k."""
    return _gf([(math.comb(i, k), _quicksort_falling(k, i - k), _ONE) for k in range(i + 1)])


@functools.lru_cache(maxsize=None)
def _quicksort_gf(s: int):
    """f_s of quicksort, reduced.  By the PGF recurrence F(u, z) = sum_n P_n(z) u^n
    obeys dF/du = F(uz, z)^2, where F(uz, z) has the z-derivatives g_i at z = 1.
    So f_s' = sum_i C(s, i) g_i g_(s-i) = 2 f_s/v + h_s, as g_0 = f_0 = 1/v, and
    f_s = v^(-2) int_0^u v^2 h_s du for s >= 1, where f_s(0) = 0, term by term:
    int_0^u v^(-1) L^b du = L^(b+1)/(b+1), and for m = 1 - a != 0,
    int_0^u v^(-a) L^b du = (b! - sum_(j<=b) (b)_j m^(b-j) v^m L^(b-j)) / m^(b+1).
    """
    if s == 0:
        return {(1, 0): 1}, 1
    h, d = _gf([(2 * math.comb(s, k), _quicksort_gf(0), _quicksort_falling(k, s - k)) for k in range(s)] + [
        (math.comb(s, i) * (1 if 2 * i == s else 2), _quicksort_g(i), _quicksort_g(s - i))
        for i in range(1, s // 2 + 1)
    ])
    integral = [(c, ({(2, b + 1): 1}, b + 1), _ONE) for (a, b), c in h.items() if a == 3]
    for (a, b), c in h.items():  # the term c v^(2-a) L^b of v^2 h_s, at m = 3 - a
        if a != 3:
            terms = {(a - 1, b - j): -math.perm(b, j) * (3 - a) ** (b - j) for j in range(b + 1)}
            integral.append((c, ({**terms, (2, 0): math.factorial(b)}, (3 - a) ** (b + 1)), _ONE))
    terms, d2 = _gf(integral)
    g = math.gcd(d * d2, *terms.values())
    return {key: c // g for key, c in terms.items() if c}, d * d2 // g


def exact_moment(model: Model, n: int, s: int) -> tuple[Fraction, str]:
    """Exact s-th factorial moment at size n and its route, ``closed-form`` or
    ``pgf`` (see the module docstring).  A moment past a cap raises
    ResourceLimitError before any work; a 0 past the support above the s cap
    passes every cap.  Quicksort at s != 1 also checks [u^n] f_1 and f_2
    against the mean and variance closed forms: ValueError if not.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if model is Model.CYCLES:
        # The row's cap: the product costs about what the row does (n = s =
        # 4000: 10.2-14.8 s against 12.4-13.4 s, both 40 MB; s = 6: 0.12 s), and
        # at n = 4060 the s = 6 numerator passes Python's 4300-digit limit.
        # Re-measured by `python3 tools/limits.py cycles-moment`.
        _check_row_request(model, n)
    elif s > MOMENT_MAX_S[model.value]:
        if s > k_max(model, n):
            return Fraction(0), "closed-form"
        raise ResourceLimitError(f"{model} moments are capped at s <= {MOMENT_MAX_S[model.value]}, got s={s}")
    elif model is Model.QUICKSORT:
        cap = QUICKSORT_MEAN_MAX_N if s == 1 else QUICKSORT_PGF_MAX_N
        if n > cap:
            raise ResourceLimitError(f"quicksort moments of order {s} are capped at n <= {cap}, got n={n}")
    if model is Model.QUICKSORT and s == 1:
        return quicksort_mean(n), "closed-form"
    if s > k_max(model, n):
        return Fraction(0), "pgf"
    if model is not Model.QUICKSORT:
        return _log_power_coefficients([moment_series(model, s)], n)[0], "pgf"
    first, second, value = _log_power_coefficients([moment_series(model, k) for k in (1, 2, s)], n)
    # Var = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1) H_n + 13n
    mean = quicksort_mean(n)
    variance = 7 * n**2 - 4 * (n + 1) ** 2 * harmonic(n, 2) - 2 * (n + 1) * harmonic(n) + 13 * n
    if (first, second) != (mean, variance + mean**2 - mean):
        raise ValueError(f"quicksort moment series disagree with the mean or variance at n={n}")
    return value, "pgf"
