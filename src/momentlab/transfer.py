"""Coefficient asymptotics for log-power singular functions.

A function with an algebraic-logarithmic singularity at u = 1,

    f(u) = c * (1-u)^(-alpha) * log(1/(1-u))^beta      (alpha >= 1, beta >= 0),

has Maclaurin coefficients

    [u^n] f(u) ~ c * n^(alpha-1)/(alpha-1)! * (ln n)^beta
                 * [ 1 + C_1/1! * beta/ln n + C_2/2! * beta(beta-1)/ln^2 n + ... ],

where C_k = (alpha-1)! * (d^k/dx^k) (1/Gamma(x)) evaluated at x = alpha.
The bracket is a finite sum: the falling factorial (beta)_k vanishes for
k > beta, so it has exactly beta+1 terms.

This module provides:

* ``gamma_recip_derivative`` -- the C_k coefficients, from the recurrence
  g' = -psi*g with polygamma values at positive integers;
* ``transfer_term`` / ``transfer_expansion`` -- numeric evaluation of the
  expansion above for single terms and for term lists with a tracked
  dominated-remainder class;
* ``exact_coefficient`` / ``highprec_coefficient`` -- two oracles for
  [u^n] (1-u)^(-alpha) log(1/(1-u))^beta, exact and as a 240-bit float,
  that do not use the expansion they check.

Each estimate, here and in ``expansions.asymptotic_moment`` and the error
columns of ``cli.compare_rows``, is one formula written over the private
arithmetic record ``_arithmetic(high_precision)``: doubles, or mpf at 60
digits.  Only the mpf record imports mpmath.

The polygamma values psi^(i)(x) at integers x >= 1 come by two routes that
share no arithmetic.  The double record, ``gamma_recip_derivative`` and
``_double_coefficient``, the double-precision oracle of ``cli.compare_rows``,
take them at 60 digits in ``decimal`` from ``_decimal_polygamma``: the
embedded constants and exact reciprocal power sums for small x, the
Stirling series above.  So no double-precision request imports mpmath.  The
mpf record's ``_ck`` and ``highprec_coefficient`` take them from
``mp.psi``, whose exact bits high-precision output depends on (the -0 of
``transfer --alpha 3000000 --beta 1 --n 2 --precision high`` among them).
Both routes stay: each is the check of the other.  The C_k recurrence and
the oracle's Newton identities are each written once, over either route's
numbers.

Both oracles rest on one identity.  Since
(1-u)^(-alpha-t) = (1-u)^(-alpha) exp(t log(1/(1-u))) and its coefficients
are the binomials C(n + alpha + t - 1, n),

    [u^n] (1-u)^(-alpha) log(1/(1-u))^beta = beta! [t^beta] prod_{j<n} (alpha + j + t) / n!.

The exact oracle expands the product by ``tables._rising``, loaded on its
first call, and normalises one ``Fraction`` at the end.  The
high-precision oracle takes the product's logarithm instead: its power sums
in 1/(alpha + j) are differences of polygamma values, and Newton's
identities turn them into the t^beta coefficient in O(beta^2) operations
whatever n is, so the n budget ``ORACLE_MAX_N`` binds the exact oracle
only; the high-precision oracle budgets the min(n, alpha - 1) factors of
its exact binomial C(n + alpha - 1, n) instead, and beta up to
``MAX_DERIVATIVE_ORDER``, where the exact oracle stops at
``ORACLE_MAX_BETA``.  The two are kept apart:
the product's integers grow with n (at n = 50000 it takes seconds
where the polygamma route takes milliseconds), and sharing no arithmetic,
each checks the other.

Natural logarithms throughout.
"""

from __future__ import annotations

import collections
import contextlib
import decimal
import functools
import math
import sys
from fractions import Fraction

from . import ResourceLimitError

__all__ = [
    "EULER_GAMMA",
    "GAMMA_DIGITS",
    "ZETA_DIGITS",
    "MAX_DERIVATIVE_ORDER",
    "ORACLE_MAX_N",
    "ORACLE_MAX_BETA",
    "OrderLimitError",
    "SeriesBudgetError",
    "LogPowerTerm",
    "RemainderClass",
    "NO_REMAINDER",
    "SingularExpansion",
    "gamma_recip_derivative",
    "transfer_term",
    "transfer_expansion",
    "check_double_range",
    "exact_coefficient",
    "highprec_coefficient",
]

# Euler-Mascheroni constant and zeta(2..17), 52 significant digits each.
# Values as tabulated in standard references; the test suite re-derives
# every one of them by direct series summation with Euler-Maclaurin tail
# corrections, and checks the polygamma values at 1 against them:
# psi(1) = -gamma and psi^(i)(1) = (-1)^(i+1) i! zeta(i+1).
GAMMA_DIGITS = "0.5772156649015328606065120900824024310421593359399236"
ZETA_DIGITS = {
    2: "1.644934066848226436472415166646025189218949901206798",
    3: "1.202056903159594285399738161511449990764986292340499",
    4: "1.082323233711138191516003696541167902774750951918727",
    5: "1.036927755143369926331365486457034168057080919501913",
    6: "1.017343061984449139714517929790920527901817490032854",
    7: "1.008349277381922826839797549849796759599863560565239",
    8: "1.004077356197944339378685238508652465258960790649850",
    9: "1.002008392826082214417852769232412060485605851394889",
    10: "1.000994575127818085337145958900319017006019531564478",
    11: "1.000494188604119464558702282526469936468606435758209",
    12: "1.000246086553308048298637998047739670960416088458003",
    13: "1.000122713347578489146751836526357395714275105895510",
    14: "1.000061248135058704829258545105135333747481696169155",
    15: "1.000030588236307020493551728510645062587627948706858",
    16: "1.000015282259408651871732571487636722023237388990472",
    17: "1.000007637197637899762273600293563029213088249090263",
}

EULER_GAMMA = float(Fraction(GAMMA_DIGITS.replace(".", "")) / 10**52)

# Largest derivative order k: C_k needs psi .. psi^(k-1), and the embedded
# zeta table pins psi^(i)(1) up to i = 16.
MAX_DERIVATIVE_ORDER = 16

# Budget guards for the coefficient oracles.  ORACLE_MAX_N caps n of the
# exact oracle and min(n, alpha - 1) of the polygamma ones.  ORACLE_MAX_BETA
# caps beta of the exact oracle only; the polygamma oracles, whose cost is
# O(beta) polygamma values, take beta up to MAX_DERIVATIVE_ORDER (the 240-bit
# one took 6-29 ms for beta = 7 and 16 at n = 201..10^9).  At the cap,
# `transfer --alpha 3 --beta 6 --n 100000` took 9.4-11.1 s CPU and 19 MB (alpha 1:
# 11.7-12.1 s, 19 MB) on a 2-core x86-64 box with Python 3.11, within a 30 s and
# 1536 MiB request limit; the product tree and the final normalisation take
# nearly all of it.
ORACLE_MAX_N = 100_000
ORACLE_MAX_BETA = 6

_WORK_DPS = 60  # working precision of C_k and of the high-precision estimates
_ORACLE_BITS = 240  # precision of the high-precision oracle's result


class OrderLimitError(ResourceLimitError):
    """Derivative order above MAX_DERIVATIVE_ORDER (resource guard)."""


class SeriesBudgetError(ResourceLimitError):
    """Exact series coefficient request above the configured budget."""


# ---------------------------------------------------------------------------
# C_k coefficients: derivatives of 1/Gamma at positive integers
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_66 as (numerator, denominator): the
# Stirling series of ``_decimal_polygamma`` needs these 33 terms at
# x >= _STIRLING_MIN_X, where its first omitted term is below 10^-64 of the
# value for every order i < MAX_DERIVATIVE_ORDER.  The test suite re-derives
# them from the recurrence sum_(j<=m) C(m+1, j) B_j = 0.
_BERNOULLI = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
    (8553103, 6),
    (-23749461029, 870),
    (8615841276005, 14322),
    (-7709321041217, 510),
    (2577687858367, 6),
    (-26315271553053477373, 1919190),
    (2929993913841559, 6),
    (-261082718496449122051, 13530),
    (1520097643918070802691, 1806),
    (-27833269579301024235023, 690),
    (596451111593912163277961, 282),
    (-5609403368997817686249127547, 46410),
    (495057205241079648212477525, 66),
    (-801165718135489957347924991853, 1590),
    (29149963634884862421418123812691, 798),
    (-2479392929313226753685415739663229, 870),
    (84483613348880041862046775994036021, 354),
    (-1215233140483755572040304994079820246041491, 56786730),
    (12300585434086858541953039857403386151, 6),
    (-106783830147866529886385444979142647942017, 510),
    (1472600022126335654051619428551932342241899101, 64722),
)
# The smallest x that ``_decimal_polygamma`` takes from the Stirling series;
# below it, the embedded constants serve.
_STIRLING_MIN_X = 64
_DECIMAL = decimal.Context(prec=_WORK_DPS)  # the decimal route's arithmetic


@functools.lru_cache(maxsize=None)
def _polygamma(i: int, alpha: int):
    """psi^(i)(alpha) at _WORK_DPS digits, by ``mp.psi``: its cost hardly
    grows with alpha, where the sums -gamma + H_(alpha-1) and
    zeta(i+1) - sum_(j<alpha) j^-(i+1) take O(alpha) terms and lose the
    digits their difference cancels."""
    import mpmath as mp
    with mp.workdps(_WORK_DPS):
        return mp.psi(i, alpha)


@functools.lru_cache(maxsize=None)
def _decimal_polygamma(i: int, x: int) -> decimal.Decimal:
    """psi^(i)(x) for an integer x >= 1 as a Decimal at _WORK_DPS digits,
    with no mpmath.

    Below _STIRLING_MIN_X, from the embedded constants and exact reciprocal
    power sums, psi(x) = -gamma + H_(x-1) and
    psi^(i)(x) = (-1)^(i+1) i! (zeta(i+1) - H^(i+1)_(x-1)), as one Fraction
    rounded once.  There the constants' 52 digits lose what the difference
    cancels, so at x = 63, i = 15 about 23 digits are left, ample for a
    double.  From _STIRLING_MIN_X on, from the Stirling series
    psi^(i)(x) = [i = 0] ln x + (-1)^(i+1) ([i > 0] (i-1)!/x^i + i!/(2x^(i+1))
                 + sum_k B_2k (2k+i-1)!/(2k)! x^-(2k+i)),
    over the 33 terms of _BERNOULLI, to nearly all 60 digits.
    """
    if x < _STIRLING_MIN_X:
        powers = sum(Fraction(1, j ** (i + 1)) for j in range(1, x))
        if i == 0:
            value = powers - Fraction(GAMMA_DIGITS)
        else:
            value = (-1) ** (i + 1) * math.factorial(i) * (Fraction(ZETA_DIGITS[i + 1]) - powers)
        with decimal.localcontext(_DECIMAL):
            return decimal.Decimal(value.numerator) / value.denominator
    with decimal.localcontext(_DECIMAL):
        inv = 1 / decimal.Decimal(x)
        inv2 = inv * inv
        power = inv**i
        total = math.factorial(i) * power * inv / 2
        if i:
            total += math.factorial(i - 1) * power
        for k, (num, den) in enumerate(_BERNOULLI, 1):
            power *= inv2
            total += num * math.factorial(2 * k + i - 1) * power / (den * math.factorial(2 * k))
        value = (-1) ** (i + 1) * total
        return value + decimal.Decimal(x).ln() if i == 0 else value


def _recip_gamma_recurrence(psi: list, g0, top: int) -> list:
    """g(alpha), g'(alpha), ..., g^(top)(alpha) for g = c/Gamma, where
    g0 = g(alpha) and psi[i] = psi^(i)(alpha), in the arithmetic of their
    type (mpf or Decimal, at its working precision).

    From g' = -psi*g:  g^(m+1) = -sum_i C(m,i) psi^(i) g^(m-i).
    """
    g = [g0]
    for m in range(top):
        g.append(-sum(math.comb(m, i) * psi[i] * g[m - i] for i in range(m + 1)))
    return g


def _check_order(alpha: int, k: int) -> None:
    if alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha}")
    if k < 0:
        raise ValueError(f"derivative order must be nonnegative, got {k}")
    if k > MAX_DERIVATIVE_ORDER:
        raise OrderLimitError(
            f"order {k} exceeds the embedded constant table "
            f"(max {MAX_DERIVATIVE_ORDER})"
        )


@functools.lru_cache(maxsize=None)
def _recip_gamma_derivatives(alpha: int, top: int) -> tuple:
    """g(alpha), g'(alpha), ..., g^(top)(alpha) for g = 1/Gamma, as mpf at
    _WORK_DPS digits from ``mp.psi``."""
    import mpmath as mp
    psi = [_polygamma(i, alpha) for i in range(top)]
    with mp.workdps(_WORK_DPS):
        return tuple(_recip_gamma_recurrence(psi, mp.mpf(1) / mp.factorial(alpha - 1), top))


def _ck(alpha: int, k: int):
    """C_k at ``alpha`` as an mpf at _WORK_DPS digits, from ``mp.psi``."""
    import mpmath as mp
    _check_order(alpha, k)
    with mp.workdps(_WORK_DPS):
        return mp.factorial(alpha - 1) * _recip_gamma_derivatives(alpha, k)[k]


@functools.lru_cache(maxsize=None)
def gamma_recip_derivative(alpha: int, k: int) -> float:
    """C_k = (alpha-1)! * [d^k/dx^k 1/Gamma(x)] at x = alpha.

    C_0 = 1 for every alpha; C_1 at alpha = 1 is the Euler-Mascheroni
    constant.  Accurate to double precision: the recurrence runs at 60
    digits in ``decimal``, on ``_decimal_polygamma``, and g(alpha) = 1
    gives C_k itself, so no mpmath is imported.  The mpf record's ``_ck``
    runs the same recurrence on ``mp.psi``; the two polygamma routes share
    no arithmetic, and the tests hold each to the other.
    """
    _check_order(alpha, k)
    psi = [_decimal_polygamma(i, alpha) for i in range(k)]
    with decimal.localcontext(_DECIMAL):
        return float(_recip_gamma_recurrence(psi, decimal.Decimal(1), k)[k])


# ---------------------------------------------------------------------------
# The arithmetic of an estimate: doubles or 60-digit mpf
# ---------------------------------------------------------------------------

# Each estimate is one formula over these fields.  ``num`` leaves an int an
# int for doubles, so that int ** int stays exact and int / int rounds once,
# and gives an mpf otherwise; ``real`` gives a float or an mpf (a Fraction as
# p/q rounded once, an mpf at its own precision).
_Arithmetic = collections.namedtuple("_Arithmetic", "real num log factorial fsum ck gamma")

_DOUBLE = _Arithmetic(
    float, lambda x: x, math.log, math.factorial, math.fsum, gamma_recip_derivative, EULER_GAMMA
)


@contextlib.contextmanager
def _arithmetic(high_precision: bool):
    """The double record, or with ``high_precision`` the mpf record inside
    ``mp.workdps(_WORK_DPS)``; only the latter imports mpmath."""
    if not high_precision:
        yield _DOUBLE
        return
    import mpmath as mp

    def real(x):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return x if isinstance(x, mp.mpf) else mp.mpf(x)

    with mp.workdps(_WORK_DPS):
        yield _Arithmetic(real, mp.mpf, mp.log, mp.factorial, mp.fsum, _ck, mp.mpf(GAMMA_DIGITS))


# ---------------------------------------------------------------------------
# Singular-expansion data types
# ---------------------------------------------------------------------------

class LogPowerTerm(collections.namedtuple("LogPowerTerm", "coeff alpha beta")):
    """One term c * (1-u)^(-alpha) * log(1/(1-u))^beta of a singular expansion:
    ``coeff`` a float or Fraction, ``alpha`` >= 1 and ``beta`` >= 0 ints."""

    __slots__ = ()

    def __new__(cls, coeff, alpha, beta):
        if alpha < 1:
            raise ValueError(f"alpha must be a positive integer, got {alpha}")
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")
        return super().__new__(cls, coeff, alpha, beta)


class RemainderClass(collections.namedtuple("RemainderClass", "p q present", defaults=(True,))):
    """Dominated tail: an unspecified combination of log-power terms with
    (1-u)-exponent j and log-exponent i where j < q (any i), or j = q and
    i <= p.  Contributes nothing to numeric evaluation; carried so reports
    can label estimates as two-term (etc.) with an explicitly unmodeled tail.
    """

    __slots__ = ()

    def absorbs(self, alpha: int, beta: int) -> bool:
        """Would a (1-u)^(-alpha) log^beta term be swallowed by this tail?"""
        if not self.present:
            return False
        return alpha < self.q or (alpha == self.q and beta <= self.p)


NO_REMAINDER = RemainderClass(0, 0, present=False)


class SingularExpansion(collections.namedtuple("SingularExpansion", "terms remainder")):
    """Ordered log-power terms plus a dominated remainder class.

    ``terms`` is stored as a tuple of LogPowerTerm; ``remainder`` defaults
    to NO_REMAINDER.  Terms must be strictly decreasing in (alpha, beta)
    lexicographic order and must each strictly dominate the remainder class.
    """

    __slots__ = ()

    def __new__(cls, terms, remainder=NO_REMAINDER):
        terms = tuple(terms)
        keys = [(t.alpha, t.beta) for t in terms]
        if any(nxt >= cur for nxt, cur in zip(keys[1:], keys)):
            raise ValueError("terms must be strictly decreasing in (alpha, beta)")
        for t in terms:
            if remainder.absorbs(t.alpha, t.beta):
                raise ValueError(
                    f"term (alpha={t.alpha}, beta={t.beta}) does not dominate "
                    f"the remainder class ({remainder.p}, {remainder.q})"
                )
        return super().__new__(cls, terms, remainder)


# ---------------------------------------------------------------------------
# Numeric transfer
# ---------------------------------------------------------------------------

def _bracket_orders(beta: int, order: int | None) -> int:
    top = beta if order is None else min(beta, order)
    if order is not None and order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return top


def transfer_term(
    term: LogPowerTerm,
    n: int,
    *,
    order: int | None = None,
    high_precision: bool = False,
):
    """Asymptotic estimate of [u^n] for a single log-power term.

    Evaluates c * n^(alpha-1)/(alpha-1)! * (ln n)^beta * bracket, where the
    bracket's k-th entry is C_k/k! * (beta)_k / (ln n)^k.  ``order``
    truncates the bracket to k <= order (default: all beta+1 terms, which
    is the full finite sum).  Requires n >= 2 so ln n is positive.

    Returns a float, or an mpf when ``high_precision`` is set.
    """
    if n < 2:
        raise ValueError(f"transfer requires n >= 2, got {n}")
    a, b = term.alpha, term.beta
    top = _bracket_orders(b, order)
    with _arithmetic(high_precision) as r:
        logn = r.log(n)
        bracket = r.real(0)
        for k in range(top + 1):
            bracket += r.ck(a, k) / r.factorial(k) * math.perm(b, k) / logn**k
        return r.real(term.coeff) * r.num(n) ** (a - 1) / r.factorial(a - 1) * logn**b * bracket


def transfer_expansion(
    expansion: SingularExpansion,
    n: int,
    *,
    order: int | None = None,
    high_precision: bool = False,
):
    """Sum of ``transfer_term`` over all terms of ``expansion``.

    The remainder class contributes 0; its omission is the (unmodeled)
    error of the estimate.
    """
    if n < 2:
        raise ValueError(f"transfer requires n >= 2, got {n}")
    with _arithmetic(high_precision) as r:
        return r.fsum(
            transfer_term(t, n, order=order, high_precision=high_precision)
            for t in expansion.terms
        )


_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# Natural-log slack of a refusal: the lgamma values below are far closer to
# the truth than a factor e, so every refused request is past the double
# range, and none that fits it is refused.
_RANGE_MARGIN = 1.0


def check_double_range(alpha: int, beta: int, n: int, *, high_precision: bool = False) -> None:
    """Raise OverflowError, before any work, when a report of the estimate
    and the exact oracle at (alpha, beta, n) must pass the double range.

    * The oracle is beta! [t^beta] prod_(j<n) (alpha + j + t) / n!.  That
      coefficient sums C(n, beta) products, each missing beta of the n
      factors alpha + j and so at least prod_(j<n) (alpha + j) over
      (alpha + n - 1)^beta.  For n >= beta the oracle is therefore at least
      prod_(j<n) (alpha + j) / ((n - beta)! (alpha + n - 1)^beta), and when
      that passes the range so does the oracle's conversion to a double.
    * The double-precision estimate converts n^(alpha-1) and (alpha-1)! to
      doubles on the way to their quotient, so either one past the range
      fails too.  The high-precision estimate does not.

    This costs a few ``math.lgamma`` calls, where the request itself would
    run O(alpha) polygamma sums first.
    """
    bound = _LOG_DOUBLE_MAX + _RANGE_MARGIN
    logs = []
    if n >= beta:
        logs.append(
            math.lgamma(alpha + n) - math.lgamma(alpha) - math.lgamma(n - beta + 1)
            - beta * math.log(alpha + n - 1)
        )
    if not high_precision:
        logs += [(alpha - 1) * math.log(n), math.lgamma(alpha)]
    if any(value > bound for value in logs):
        raise OverflowError(f"alpha={alpha}, beta={beta}, n={n} does not fit doubles")


# ---------------------------------------------------------------------------
# Exact-rational coefficient oracle
# ---------------------------------------------------------------------------

def _check_oracle_budget(alpha: int, beta: int, n: int, max_beta: int) -> None:
    """The arguments every oracle takes, and its beta budget."""
    if alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if beta > max_beta:
        raise SeriesBudgetError(f"oracle budget is beta <= {max_beta}, got {beta}")


def exact_coefficient(alpha: int, beta: int, n: int) -> Fraction:
    """Exact [u^n] of (1-u)^(-alpha) * log(1/(1-u))^beta.

    Equals beta! * [t^beta] prod_{j<n} (alpha + j + t) / n!, the t-expansion
    of the binomial coefficient C(n + alpha + t - 1, n) of (1-u)^(-alpha-t).
    The product is ``tables._rising(alpha, alpha + n, beta)``, truncated at
    degree beta, and the result is normalised once.  It shares no arithmetic with
    the Gamma-derivative expansion it serves to check, nor with
    ``highprec_coefficient``.  Budgeted at n <= 100000, beta <= 6.
    """
    _check_oracle_budget(alpha, beta, n, ORACLE_MAX_BETA)
    if n > ORACLE_MAX_N:
        raise SeriesBudgetError(f"exact oracle budget is n <= {ORACLE_MAX_N}, got {n}")
    from .tables import _rising
    poly = _rising(alpha, alpha + n, beta)
    coeff = poly[beta] if beta < len(poly) else 0
    return Fraction(math.factorial(beta) * coeff, math.factorial(n))


def _check_polygamma_oracle(alpha: int, beta: int, n: int) -> None:
    """The budget of both polygamma oracles: beta up to the polygamma orders
    C_k needs, and the min(n, alpha - 1) factors of the exact binomial."""
    _check_oracle_budget(alpha, beta, n, MAX_DERIVATIVE_ORDER)
    if min(n, alpha - 1) > ORACLE_MAX_N:
        raise SeriesBudgetError(
            f"high-precision oracle budget is min(n, alpha - 1) <= {ORACLE_MAX_N}, "
            f"got alpha={alpha}, n={n}"
        )


def _newton_coefficient(psi, one, fsum, alpha: int, beta: int, n: int):
    """C(n + alpha - 1, n) * beta! * e_beta in the arithmetic of ``one`` (mpf
    or Decimal, at its working precision), with ``psi(i, x)`` the polygamma
    function of that arithmetic and ``fsum`` its sum.

    e_k is the k-th elementary symmetric function of the 1/(alpha + j),
    j < n.  Newton's identities e_k = (1/k) sum_{i<=k} (-1)^(i-1) p_i e_(k-i)
    build it from the power sums
    p_i = sum_{j<n} (alpha + j)^(-i)
        = (-1)^(i-1) (psi^(i-1)(alpha + n) - psi^(i-1)(alpha)) / (i-1)!.
    """
    p = [None]
    for i in range(1, beta + 1):
        diff = psi(i - 1, alpha + n) - psi(i - 1, alpha)
        p.append((-1) ** (i - 1) * diff / math.factorial(i - 1))
    e = [one]
    for k in range(1, beta + 1):
        e.append(fsum((-1) ** (i - 1) * p[i] * e[k - i] for i in range(1, k + 1)) / k)
    return math.comb(n + alpha - 1, n) * math.factorial(beta) * e[beta]


def highprec_coefficient(alpha: int, beta: int, n: int):
    """[u^n] of (1-u)^(-alpha) log(1/(1-u))^beta as a 240-bit mpf.

    The logarithm of the product in ``exact_coefficient`` gives the value as
    C(n + alpha - 1, n) * beta! * e_beta, which ``_newton_coefficient``
    builds from ``mp.psi`` differences, so the cost is O(beta^2) polygamma
    and mpf operations whatever n is, plus the min(n, alpha - 1) factors of
    the exact binomial.  So n itself is not budgeted, only
    min(n, alpha - 1) <= 100000 (0.7 s at alpha = 100000; alpha = 10^6,
    n = 10^7 took 47 s) and beta <= MAX_DERIVATIVE_ORDER.  Works with 32
    guard bits and rounds to 240.  For n < beta the product has degree n, so
    the coefficient is exactly 0; the identities would leave a rounding
    residue there, so 0 is returned directly.  Kept apart from the exact
    oracle, whose product tree costs seconds at n = 50000, so that each
    checks the other.
    """
    import mpmath as mp
    _check_polygamma_oracle(alpha, beta, n)
    if n < beta:
        return mp.mpf(0)
    with mp.workprec(_ORACLE_BITS + 32):
        value = _newton_coefficient(mp.psi, mp.mpf(1), mp.fsum, alpha, beta, n)
    with mp.workprec(_ORACLE_BITS):
        return +value


def _double_coefficient(alpha: int, beta: int, n: int) -> float:
    """[u^n] of (1-u)^(-alpha) log(1/(1-u))^beta as a double, with no
    mpmath: the identities of ``highprec_coefficient`` at _WORK_DPS digits
    in ``decimal``, on ``_decimal_polygamma``, under the same budget; 0.0
    for n < beta."""
    _check_polygamma_oracle(alpha, beta, n)
    if n < beta:
        return 0.0
    with decimal.localcontext(_DECIMAL):
        return float(_newton_coefficient(_decimal_polygamma, decimal.Decimal(1), sum, alpha, beta, n))
