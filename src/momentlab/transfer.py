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
* ``transfer_term`` -- numeric evaluation of the expansion above at c = 1;
  a series ({(alpha, beta): c}, d) of ``moments.moment_series`` transfers
  term by term;
* ``exact_coefficient`` / ``highprec_coefficient`` -- two oracles for
  [u^n] (1-u)^(-alpha) log(1/(1-u))^beta, exact and as an 82-digit
  ``Decimal``, that do not use the expansion they check;
* ``check_double_range`` -- the exact oracle's cheap pre-check: its budget,
  then a sandwich of bounds and, near the range, the 82-digit oracle, that
  refuse a value past the double range before the exact oracle's work.

All four take (alpha, beta, n), and one ``_check_term`` checks alpha and beta.

Each estimate, here and in ``expansions.asymptotic_moment``, is one formula
over the private arithmetic record ``_arithmetic(high_precision, what)``:
doubles, or ``decimal`` at _DIGITS = 82 digits (240 bits and 32 guard bits),
with ``power``, ``factorial`` and a ``double`` that gives a finite float.  It
is the one place that knows the double range: whatever overflows inside its
block, an estimate, the bound of ``check_double_range`` or a double that
``cli`` prints, leaves it as OverflowError("<what> does not fit doubles").
Both records are built per call, so a function set on this module in place
of ``gamma_recip_derivative``, such as a wrapper that times it, is the one an
estimate calls.

Every high-precision value comes by one route, in ``decimal`` at _DIGITS
digits: the Stirling series at y >= _STIRLING_MIN_X, and exact integer sums
and factorials below it.  It gives psi^(i)(x) (``_decimal_polygamma``) and
ln Gamma(x) (``_log_gamma``) at integers x >= 1.  On them rest the C_k of
``_decimal_ck``, which the double record rounds; Euler's constant of the
high record, -psi(1); the high record's (alpha-1)!, exact below
_STIRLING_MIN_X and exp(ln Gamma(alpha)) above, so that no huge integer is
formed whatever alpha is (n^(alpha-1) is a rounded decimal power); and
``highprec_coefficient``.  The decimal exponent range is the widest there
is, so the estimate of ``transfer --alpha 3000000 --beta 1 --n 2
--precision high``, near 10^-17225388, stays nonzero, and the CLI refuses
it (exit 3) as below the double range.  The tests check this route against
an independent library.

Both oracles rest on one identity, derived in ``tables._log_power_coefficients``:

    [u^n] (1-u)^(-alpha) log(1/(1-u))^beta = beta! [t^beta] prod_{j<n} (alpha + j + t) / n!.

The exact oracle reads it by that function, as the exact moments do.  The
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

import collections
import contextlib
import decimal
import functools
import math
import sys
from fractions import Fraction

from . import _EXPORTS, ResourceLimitError

__all__ = _EXPORTS["transfer"]

# The Euler-Mascheroni constant as a double; the high record takes -psi(1).
EULER_GAMMA = 0.5772156649015329

# Largest derivative order k: C_k needs psi .. psi^(k-1), and the 33 terms of
# _BERNOULLI carry the Stirling series of psi^(i) at _STIRLING_MIN_X to all
# _DIGITS digits up to i = 15.
MAX_DERIVATIVE_ORDER = 16

# Budget guards for the coefficient oracles.  ORACLE_MAX_N caps n of the
# exact oracle and min(n, alpha - 1) of the polygamma one.  ORACLE_MAX_BETA
# caps beta of the exact oracle only; the polygamma oracle, whose cost is
# O(beta) polygamma values, takes beta up to MAX_DERIVATIVE_ORDER (it took
# 5-15 ms for beta = 7 and 16 at n = 201..10^9).  At the cap,
# `transfer --alpha 3 --beta 6 --n 100000` took 9.4-11.1 s CPU and 19 MB (alpha 1:
# 11.7-12.1 s, 19 MB) on a 2-core x86-64 box with Python 3.11, within a 30 s and
# 1536 MiB request limit; the product tree and the final normalisation take
# nearly all of it.
ORACLE_MAX_N = 100_000
ORACLE_MAX_BETA = 6

# The digits of every high-precision value: 240 bits and 32 guard bits.
_DIGITS = 82


# ---------------------------------------------------------------------------
# The decimal route: psi^(i), ln Gamma and C_k at positive integers
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_66 as (numerator, denominator): the
# Stirling series of ``_stirling`` needs these 33 terms at
# y >= _STIRLING_MIN_X, where its first omitted term is below 10^-85 of the
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
# The smallest y at which ``_stirling`` is summed; smaller arguments are
# shifted up to it.
_STIRLING_MIN_X = 128
# the decimal route's arithmetic, with the widest exponent range, so that a
# tiny or huge estimate neither flushes to zero nor overflows
_DECIMAL = decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _stirling(i: int, y: int) -> decimal.Decimal:
    """The Stirling series at an integer y >= _STIRLING_MIN_X over the 33
    terms of _BERNOULLI, in the current context: for i >= 0 it is psi^(i)(y),

        [i = 0] ln y + (-1)^(i+1) ([i > 0] (i-1)!/y^i + i!/(2y^(i+1))
                                   + sum_k B_2k (2k+i-1)!/(2k)! y^-(2k+i)),

    and for i = -1 the series of ln Gamma(y) less its constant ln(2 pi)/2,

        (y - 1/2) ln y - y + sum_k B_2k (2k-2)!/(2k)! y^-(2k-1).
    """
    power = 1 / decimal.Decimal(y ** (i + 2))  # y^-(2k+i) at k = 1
    inv2 = 1 / decimal.Decimal(y * y)
    series = 0
    for k, (num, den) in enumerate(_BERNOULLI, 1):
        series += num * math.factorial(2 * k + i - 1) * power / (den * math.factorial(2 * k))
        power *= inv2
    if i < 0:
        return (2 * y - 1) * decimal.Decimal(y).ln() / 2 - y + series
    if i == 0:
        return decimal.Decimal(y).ln() - 1 / decimal.Decimal(2 * y) - series
    # (i-1)!/y^i + i!/(2y^(i+1)) as one quotient of integers, rounded once
    head = decimal.Decimal(math.factorial(i - 1) * (2 * y + i)) / (2 * y ** (i + 1))
    return (-1) ** (i + 1) * (head + series)


@functools.lru_cache(maxsize=None)
def _decimal_polygamma(i: int, x: int) -> decimal.Decimal:
    """psi^(i)(x) for an integer x >= 1 as a Decimal at _DIGITS digits.

    From _STIRLING_MIN_X on, the Stirling series.  Below, its value at
    y = _STIRLING_MIN_X less the exact sum that the recurrence
    psi^(i)(x+1) = psi^(i)(x) + (-1)^i i!/x^(i+1) adds on the way from x to y:

        psi^(i)(x) = psi^(i)(y) - (-1)^i i! sum_(x<=j<y) j^-(i+1),

    the sum over one common denominator, rounded once.  For i >= 1 the two
    parts have the same sign, so nothing cancels; for i = 0 the subtraction
    loses about one digit (psi(128) - H_127 at x = 1).
    """
    with decimal.localcontext(_DECIMAL):
        if x >= _STIRLING_MIN_X:
            return _stirling(i, x)
        steps = range(x, _STIRLING_MIN_X)
        common = math.lcm(*steps) ** (i + 1)
        shift = (-1) ** i * math.factorial(i) * sum(common // j ** (i + 1) for j in steps)
        return _decimal_polygamma(i, _STIRLING_MIN_X) - decimal.Decimal(shift) / common


def _log_gamma(x: int) -> decimal.Decimal:
    """ln Gamma(x) for an integer x >= 1 as a Decimal at _DIGITS digits.

    Up to _STIRLING_MIN_X it is ln (x-1)! of the exact integer; above, the
    Stirling series of ``_stirling(-1, x)`` plus its constant ln(2 pi)/2,
    taken as ln (_STIRLING_MIN_X - 1)! less the series at _STIRLING_MIN_X,
    so that no pi is needed.
    """
    with decimal.localcontext(_DECIMAL):
        if x <= _STIRLING_MIN_X:
            return decimal.Decimal(math.factorial(x - 1)).ln()
        return _stirling(-1, x) - _stirling(-1, _STIRLING_MIN_X) + _log_gamma(_STIRLING_MIN_X)


@functools.lru_cache(maxsize=None)
def _decimal_ck(alpha: int, k: int) -> decimal.Decimal:
    """C_k at ``alpha`` as a Decimal at _DIGITS digits.

    For g = (alpha-1)!/Gamma, g(alpha) = 1 and g^(k)(alpha) = C_k, and from
    g' = -psi*g,  g^(m+1) = -sum_i C(m,i) psi^(i) g^(m-i),  on the values of
    ``_decimal_polygamma``.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha}")
    if k < 0:
        raise ValueError(f"derivative order must be nonnegative, got {k}")
    if k > MAX_DERIVATIVE_ORDER:
        raise ResourceLimitError(
            f"order {k} exceeds the embedded constant table "
            f"(max {MAX_DERIVATIVE_ORDER})"
        )
    psi = [_decimal_polygamma(i, alpha) for i in range(k)]
    with decimal.localcontext(_DECIMAL):
        g = [decimal.Decimal(1)]
        for m in range(k):
            g.append(-sum(math.comb(m, i) * psi[i] * g[m - i] for i in range(m + 1)))
    return g[k]


def gamma_recip_derivative(alpha: int, k: int) -> float:
    """C_k = (alpha-1)! * [d^k/dx^k 1/Gamma(x)] at x = alpha.

    C_0 = 1 for every alpha; C_1 at alpha = 1 is the Euler-Mascheroni
    constant.  The double of the high record's C_k, ``_decimal_ck``.
    """
    return float(_decimal_ck(alpha, k))


# ---------------------------------------------------------------------------
# The arithmetic of an estimate: doubles or 82-digit decimal
# ---------------------------------------------------------------------------

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# Natural-log slack of a refusal past the double range: the lgamma and
# k ln(base) values it rests on are far closer to the truth than a factor e,
# so every refused request is past the range, and none that fits is refused.
_RANGE_MARGIN = 1.0
# The natural log of the largest int the double record forms.  An estimate that
# fits doubles forms none larger: each int it forms converts to a double, or is
# at most inversions' n^(2s), n times the double n^(2s-1).  So the bound only
# caps the cost of an estimate that does not fit.
_LOG_INT_MAX = 2 * _LOG_DOUBLE_MAX + _RANGE_MARGIN

# ``real`` gives a finite float or a Decimal (a Fraction as p/q rounded once);
# ``power(base, k)`` and ``factorial(m)`` exact ints for doubles, so that
# int / int rounds once, and Decimals rounded to _DIGITS digits otherwise.
_Arithmetic = collections.namedtuple("_Arithmetic", "real power log factorial double ck gamma")


def _double(x) -> float:
    """x as a finite double, else OverflowError (a nan is a sum of infinities)."""
    value = float(x)
    if not math.isfinite(value):
        raise OverflowError
    return value


def _formed(log_size: float, make, *args) -> int:
    """The int ``make(*args)`` of natural log ``log_size``, refused past _LOG_INT_MAX."""
    if log_size > _LOG_INT_MAX:
        raise OverflowError
    return make(*args)


def _decimal_real(x) -> decimal.Decimal:
    if isinstance(x, Fraction):
        return decimal.Decimal(x.numerator) / x.denominator
    return decimal.Decimal(x)


def _decimal_factorial(m: int):
    """m! in the current context: the exact integer below _STIRLING_MIN_X,
    and from there on exp(ln Gamma(m + 1)), whose cost does not grow with m."""
    return math.factorial(m) if m < _STIRLING_MIN_X else _log_gamma(m + 1).exp()


@contextlib.contextmanager
def _arithmetic(high_precision: bool, what: str):
    """The double record, or with ``high_precision`` the decimal record in
    its context, _DIGITS digits and the widest exponent range, each built per
    call, so that its ``ck`` is the one this module holds then.  The one
    double-range rule: an OverflowError or decimal.Overflow raised inside the
    block leaves it as OverflowError("<what> does not fit doubles")."""
    try:
        if high_precision:
            with decimal.localcontext(_DECIMAL):
                yield _Arithmetic(
                    _decimal_real, lambda base, k: decimal.Decimal(base) ** k, lambda x: decimal.Decimal(x).ln(),
                    _decimal_factorial, _double, _decimal_ck, -_decimal_polygamma(0, 1),
                )
        else:
            yield _Arithmetic(
                _double, lambda base, k: _formed(k * math.log(base), pow, base, k), math.log,
                lambda m: _formed(math.lgamma(m + 1), math.factorial, m), _double, gamma_recip_derivative, EULER_GAMMA,
            )
    except (OverflowError, decimal.Overflow):
        raise OverflowError(f"{what} does not fit doubles") from None


# ---------------------------------------------------------------------------
# Numeric transfer
# ---------------------------------------------------------------------------

def _check_term(alpha: int, beta: int) -> None:
    """The arguments every coefficient function takes: alpha >= 1, beta >= 0."""
    if alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")


def transfer_term(alpha: int, beta: int, n: int, *, order: int | None = None, high_precision: bool = False):
    """Asymptotic estimate of [u^n] (1-u)^(-alpha) log(1/(1-u))^beta.

    Evaluates n^(alpha-1)/(alpha-1)! * (ln n)^beta * bracket, where the
    bracket's k-th entry is C_k/k! * (beta)_k / (ln n)^k.  ``order``
    truncates the bracket to k <= order (default: all beta+1 terms, which
    is the full finite sum).  Requires n >= 2 so ln n is positive.

    Returns a float, or a Decimal when ``high_precision`` is set.
    """
    _check_term(alpha, beta)
    if n < 2:
        raise ValueError(f"transfer requires n >= 2, got {n}")
    if order is not None and order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    top = beta if order is None else min(beta, order)
    with _arithmetic(high_precision, f"alpha={alpha}, beta={beta}, n={n}") as r:
        logn = r.log(n)
        # first the powers, which refuse a double past the range at once
        lead = r.real(r.power(n, alpha - 1)) / r.factorial(alpha - 1) * logn**beta
        bracket = r.real(0)
        for k in range(top + 1):
            bracket += r.ck(alpha, k) / r.factorial(k) * math.perm(beta, k) / logn**k
        return r.real(lead * bracket)


# ---------------------------------------------------------------------------
# Exact-rational coefficient oracle
# ---------------------------------------------------------------------------

def _check_oracle_budget(alpha: int, beta: int, n: int, max_beta: int) -> None:
    """The arguments every oracle takes, and its beta budget."""
    _check_term(alpha, beta)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if beta > max_beta:
        raise ResourceLimitError(f"oracle budget is beta <= {max_beta}, got {beta}")


def _check_exact_budget(alpha: int, beta: int, n: int) -> None:
    """The arguments and the budget of ``exact_coefficient``."""
    _check_oracle_budget(alpha, beta, n, ORACLE_MAX_BETA)
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(f"exact oracle budget is n <= {ORACLE_MAX_N}, got {n}")


def check_double_range(alpha: int, beta: int, n: int) -> None:
    """The exact oracle's whole cheap pre-check at (alpha, beta, n): first its
    arguments and budget, as ``exact_coefficient`` checks them (ValueError,
    ResourceLimitError), then OverflowError, before any work, when its value
    must pass the double range.

    The oracle is C(n + alpha - 1, n) beta! e_beta (``highprec_coefficient``),
    and two bounds sandwich it.  Below: beta! e_beta sums C(n, beta) products,
    each missing beta of the n factors alpha + j, so for n >= beta the oracle
    is at least prod_(j<n) (alpha + j) / ((n - beta)! (alpha + n - 1)^beta).
    Above: beta! e_beta <= p_1^beta, where p_1 = sum_(j<n) 1/(alpha + j) is at
    most ln((alpha + n - 1)/(alpha - 1)), or 1 + ln n at alpha = 1.  A lower
    bound past the range refuses at once; an upper bound within _RANGE_MARGIN
    of it asks the 82-digit oracle (0.5-1.4 ms), which refuses when its double
    lies past the range by more than its rounding, which grows with
    (alpha + n)/n, the digits its psi differences lose.  Otherwise the exact
    oracle decides.  At (89, 6, 93560) the upper bound lies 0.02 above ln of
    the range and the lower 11.6 below it.  So the exact oracle, 9.4-11.1 s at
    ``ORACLE_MAX_N``, never runs to a double that would overflow.  The CLI
    runs this after the estimate, then converts the estimate to a double, and
    only then runs the oracle; a request the budget refuses gets its line.
    """
    _check_exact_budget(alpha, beta, n)
    with _arithmetic(False, f"alpha={alpha}, beta={beta}, n={n}") as r:
        if n < max(beta, 1):
            return  # the oracle is 0, or 1 at n = beta = 0
        rising = math.lgamma(alpha + n) - math.lgamma(alpha)  # ln prod_(j<n) (alpha + j)
        if rising - math.lgamma(n - beta + 1) - beta * math.log(alpha + n - 1) > _LOG_DOUBLE_MAX + _RANGE_MARGIN:
            raise OverflowError
        p1 = math.log1p(n / (alpha - 1)) if alpha > 1 else 1 + math.log(n)
        if rising - math.lgamma(n + 1) + beta * math.log(p1) > _LOG_DOUBLE_MAX - _RANGE_MARGIN:
            with decimal.localcontext(_DECIMAL):
                slack = 1 + decimal.Decimal(10) ** (12 - _DIGITS) * (alpha + n) / n
                r.double(highprec_coefficient(alpha, beta, n) / slack)

def exact_coefficient(alpha: int, beta: int, n: int) -> Fraction:
    """Exact [u^n] of (1-u)^(-alpha) * log(1/(1-u))^beta, by the rising
    product of ``tables._log_power_coefficients`` (at beta = 0 and alpha^2 <=
    n, its Horner pass for C(n + alpha - 1, n)).  It shares no arithmetic
    with the Gamma-derivative expansion it serves to check, nor with
    ``highprec_coefficient``.  Budgeted at n <= 100000, beta <= 6.
    """
    _check_exact_budget(alpha, beta, n)
    from .tables import _log_power_coefficients
    return _log_power_coefficients([({(alpha, beta): 1}, 1)], n)[0]


def highprec_coefficient(alpha: int, beta: int, n: int) -> decimal.Decimal:
    """[u^n] of (1-u)^(-alpha) log(1/(1-u))^beta as a Decimal at _DIGITS digits.

    The logarithm of the product in ``exact_coefficient`` gives the value as
    C(n + alpha - 1, n) * beta! * e_beta, where e_k is the k-th elementary
    symmetric function of the 1/(alpha + j), j < n.  Newton's identities
    e_k = (1/k) sum_{i<=k} (-1)^(i-1) p_i e_(k-i) build it from the power sums
    p_i = sum_{j<n} (alpha + j)^(-i)
        = (-1)^(i-1) (psi^(i-1)(alpha + n) - psi^(i-1)(alpha)) / (i-1)!,
    on the values of ``_decimal_polygamma``.  So the cost is O(beta^2)
    polygamma and decimal operations whatever n is, plus the
    min(n, alpha - 1) factors of the exact binomial, and n itself is not
    budgeted, only min(n, alpha - 1) <= 100000 (1.2-1.4 s at alpha = 100001,
    n = 10^9, nearly all of it the binomial) and beta <= MAX_DERIVATIVE_ORDER.
    For n < beta the product has degree n, so the coefficient is exactly 0;
    the identities would leave a rounding residue there, so 0 is returned
    directly.  Kept apart from the exact oracle, whose product tree costs
    seconds at n = 50000, so that each checks the other.
    """
    _check_oracle_budget(alpha, beta, n, MAX_DERIVATIVE_ORDER)
    if min(n, alpha - 1) > ORACLE_MAX_N:
        raise ResourceLimitError(
            f"high-precision oracle budget is min(n, alpha - 1) <= {ORACLE_MAX_N}, "
            f"got alpha={alpha}, n={n}"
        )
    if n < beta:
        return decimal.Decimal(0)
    psi = _decimal_polygamma
    with decimal.localcontext(_DECIMAL):
        p = [None]
        for i in range(1, beta + 1):
            diff = psi(i - 1, alpha + n) - psi(i - 1, alpha)
            p.append((-1) ** (i - 1) * diff / math.factorial(i - 1))
        e = [decimal.Decimal(1)]
        for k in range(1, beta + 1):
            e.append(sum((-1) ** (i - 1) * p[i] * e[k - i] for i in range(1, k + 1)) / k)
        # Decimal(int) converts every digit, in time quadratic in their number
        # (3.4 s for the 443429 digits at alpha = 100001, n = 10^9); the top
        # 320 bits carry all _DIGITS digits
        binomial = math.comb(n + alpha - 1, n)
        shift = max(binomial.bit_length() - 320, 0)
        return (binomial >> shift) * decimal.Decimal(2) ** shift * math.factorial(beta) * e[beta]
