"""Independent reference values for every request the benchmark sends.

Nothing here imports momentlab: each quantity is computed by a route the
program does not use (a closed form, a product of simple factors, or a
moment recurrence), so a wrong answer from the program cannot also appear
in its reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

# CPython refuses to convert integers of more than this many decimal digits
# to text unless told otherwise; the program does not raise the limit.
INT_STR_DIGITS = 4300


def exceeds_str_digits(value: Fraction) -> bool:
    """Would str(value) hit the interpreter's integer-to-text digit limit?"""
    bound = 10**INT_STR_DIGITS
    return abs(value.numerator) >= bound or value.denominator >= bound


# -- distribution rows ---------------------------------------------------------

def cycles_row(n: int) -> list[int]:
    """Coefficients of x(x+1)...(x+n-1): permutations of n by cycle count."""
    poly = [1]
    for j in range(n):
        # multiply by (x + j)
        poly = [j * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def inversions_row(n: int) -> list[int]:
    """Coefficients of prod_{j=1..n} (1 + z + ... + z^(j-1))."""
    poly = [1]
    for j in range(1, n + 1):
        # times (1 - z^j), then divided by (1 - z) as a running sum
        padded = poly + [0] * (j - 1)
        shifted = [0] * j + poly[: len(padded) - j]
        poly = list(accumulate(a - b for a, b in zip(padded, shifted)))
    return poly


def harmonic(n: int) -> Fraction:
    """H_n = sum 1/j for j = 1..n, by binary splitting."""

    def split(lo: int, hi: int) -> tuple[int, int]:  # sum_{lo <= j < hi} 1/j
        if hi - lo == 1:
            return 1, lo
        mid = (lo + hi) // 2
        p1, q1 = split(lo, mid)
        p2, q2 = split(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    if n == 0:
        return Fraction(0)
    return Fraction(*split(1, n + 1))


def quicksort_mean(n: int) -> Fraction:
    """Mean comparisons of randomized quicksort: 2(n+1)H_n - 4n."""
    return 2 * (n + 1) * harmonic(n) - 4 * n


def quicksort_variance(n: int) -> Fraction:
    """Variance of the comparison count: 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1)H_n + 13n."""
    h2 = sum((Fraction(1, j * j) for j in range(1, n + 1)), Fraction(0))
    return 7 * n * n - 4 * (n + 1) ** 2 * h2 - 2 * (n + 1) * harmonic(n) + 13 * n


def quicksort_row_error(n: int, counts: list[int]) -> str | None:
    """Why ``counts`` cannot be the quicksort row of n, or None if it passes
    the sum, mean and variance checks."""
    if len(counts) > n * (n - 1) // 2 + 1 or any(c < 0 for c in counts):
        return "row has the wrong support"
    total = math.factorial(n)
    if sum(counts) != total:
        return "row does not sum to n!"
    first = sum(k * c for k, c in enumerate(counts))
    second = sum(k * k * c for k, c in enumerate(counts))
    mean = quicksort_mean(n)
    if Fraction(first, total) != mean:
        return "row mean differs from 2(n+1)H_n - 4n"
    if Fraction(second, total) - mean * mean != quicksort_variance(n):
        return "row variance differs from the closed form"
    return None


# -- factorial moments -----------------------------------------------------------

def _falling_from_raw(raw: list, s: int):
    """E[(X)_s] from the raw moments E[X^0..X^s]."""
    poly = [1]  # coefficients of x(x-1)...(x-i+1), lowest power first
    for i in range(s):
        poly = [b - i * a for a, b in zip(poly + [0], [0] + poly)]
    return sum(c * raw[k] for k, c in enumerate(poly))


def _binomial_convolve(x: list, y: list) -> list:
    """Raw moments of A + B for independent A, B with raw moments x, y."""
    return [
        sum(math.comb(k, i) * x[i] * y[k - i] for i in range(k + 1))
        for k in range(len(x))
    ]


def cycles_moment(n: int, s: int) -> Fraction:
    """E[(C_n)_s] = s! e_s(1, 1/2, ..., 1/n), exactly."""
    e = [Fraction(1)] + [Fraction(0)] * s
    for j in range(1, n + 1):
        for k in range(s, 0, -1):
            e[k] += e[k - 1] / j
    return math.factorial(s) * e[s]


def cycles_moment_float(n: int, s: int) -> float:
    """s! e_s(1, ..., 1/n) from correctly rounded power sums by Newton's
    identities; relative error near 1e-15, for sizes too big for rationals."""
    p = [0.0] + [math.fsum(1.0 / j**i for j in range(1, n + 1)) for i in range(1, s + 1)]
    e = [1.0]
    for k in range(1, s + 1):
        e.append(math.fsum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return math.factorial(s) * e[s]


@lru_cache(maxsize=None)
def _inversions_raw(n: int, s: int) -> tuple:
    """Raw moments 0..s of the inversion count, a sum of independent
    uniforms on {0, ..., j-1} for j = 1..n."""
    raw = [Fraction(1)] + [Fraction(0)] * s
    for j in range(2, n + 1):
        uniform = [Fraction(sum(u**k for u in range(j)), j) for k in range(s + 1)]
        raw = _binomial_convolve(raw, uniform)
    return tuple(raw)


def inversions_moment(n: int, s: int) -> Fraction:
    return _falling_from_raw(list(_inversions_raw(n, s)), s)


QUICKSORT_MAX_S = 4  # highest moment order any request asks for
_quicksort_rows: list[list[int]] = [[1] + [0] * QUICKSORT_MAX_S]


def _quicksort_scaled_raw(n: int) -> list[int]:
    """N_n[k] = n! E[X_n^k] for k = 0..QUICKSORT_MAX_S; rows are kept and
    extended, so a list of sizes costs one pass to the largest.

    From X_m = (m-1) + X_U + X'_(m-1-U) with U uniform on 0..m-1:
    N_m[k] = sum_(a+j=k) C(k,a) (m-1)^a sum_u C(m-1,u) sum_(b+c=j) C(j,b) N_u[b] N_(m-1-u)[c],
    all in integers.
    """
    rows, top = _quicksort_rows, QUICKSORT_MAX_S
    for m in range(len(rows), n + 1):
        inner = [0] * (top + 1)
        for u in range(m):
            left, right = rows[u], rows[m - 1 - u]
            weight = math.comb(m - 1, u)
            for j in range(top + 1):
                inner[j] += weight * sum(
                    math.comb(j, b) * left[b] * right[j - b] for b in range(j + 1)
                )
        rows.append(
            [
                sum(math.comb(k, a) * (m - 1) ** a * inner[k - a] for a in range(k + 1))
                for k in range(top + 1)
            ]
        )
    return rows[n]


def quicksort_moment(n: int, s: int) -> Fraction:
    raw = [Fraction(v, math.factorial(n)) for v in _quicksort_scaled_raw(n)[: s + 1]]
    return _falling_from_raw(raw, s)


def factorial_moment(model: str, n: int, s: int) -> Fraction:
    """Exact E[(X)_s] of ``model`` at size n."""
    return {"cycles": cycles_moment, "inversions": inversions_moment,
            "quicksort": quicksort_moment}[model](n, s)


# -- log-power coefficients ------------------------------------------------------

def transfer_oracle(alpha: int, beta: int, n: int) -> Fraction:
    """[u^n] (1-u)^(-alpha) log(1/(1-u))^beta
    = sum_m beta! |s(m, beta)| / m! * C(n-m+alpha-1, alpha-1)."""
    # stirling[k] = |s(m, k)| for k = 0..beta, advanced m = 0..n
    stirling = [1] + [0] * beta
    total = 0  # the sum times n!
    tail = math.factorial(n)  # n!/m!
    for m in range(n + 1):
        if m:
            stirling = [(m - 1) * stirling[0]] + [
                (m - 1) * stirling[k] + stirling[k - 1] for k in range(1, beta + 1)
            ]
            tail //= m
        total += stirling[beta] * tail * math.comb(n - m + alpha - 1, alpha - 1)
    return Fraction(math.factorial(beta) * total, math.factorial(n))
