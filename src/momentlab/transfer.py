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
  g' = -psi*g with polygamma values at positive integers expressed through
  embedded gamma/zeta constants;
* ``transfer_term`` / ``transfer_expansion`` -- numeric evaluation of the
  expansion above for single terms and for term lists with a tracked
  dominated-remainder class;
* ``exact_coefficient`` -- an independent exact-rational oracle for
  [u^n] (1-u)^(-alpha) log(1/(1-u))^beta via power-series convolution;
* ``highprec_coefficient`` -- the same coefficient in high-precision
  floating point (>= 200 bits), for sizes where exact rationals are too slow.

Natural logarithms throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

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
    "exact_coefficient",
    "highprec_coefficient",
]

# Euler-Mascheroni constant and zeta(2..17), 52 significant digits each.
# Values as tabulated in standard references; the test suite re-derives
# every one of them by direct series summation with Euler-Maclaurin tail
# corrections.
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

# Largest derivative order k supported by the embedded zeta table.
MAX_DERIVATIVE_ORDER = 16

# Budget guards for the exact-rational oracle.
ORACLE_MAX_N = 100_000
ORACLE_MAX_BETA = 6

_WORK_DPS = 60  # internal working precision for the C_k recurrence


class OrderLimitError(RuntimeError):
    """Derivative order above the embedded-constant table (resource guard)."""


class SeriesBudgetError(RuntimeError):
    """Exact series coefficient request above the configured budget."""


# ---------------------------------------------------------------------------
# C_k coefficients: derivatives of 1/Gamma at positive integers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _psi_derivatives(alpha: int, top: int, dps: int) -> tuple:
    """psi(alpha), psi'(alpha), ..., psi^(top)(alpha) at ``dps`` digits.

    psi(a)      = -gamma + H_{a-1}
    psi^(i)(a)  = (-1)^(i+1) * i! * (zeta(i+1) - sum_{j<a} j^-(i+1))   (i >= 1)
    """
    with mp.workdps(dps):
        gamma = mp.mpf(GAMMA_DIGITS)
        h = mp.mpf(0)
        for j in range(1, alpha):
            h += mp.mpf(1) / j
        out = [h - gamma]
        for i in range(1, top + 1):
            tail = mp.mpf(ZETA_DIGITS[i + 1])
            for j in range(1, alpha):
                tail -= mp.mpf(1) / mp.mpf(j) ** (i + 1)
            out.append((-1) ** (i + 1) * mp.factorial(i) * tail)
        return tuple(out)


@functools.lru_cache(maxsize=None)
def _recip_gamma_derivatives(alpha: int, top: int, dps: int) -> tuple:
    """g(alpha), g'(alpha), ..., g^(top)(alpha) for g = 1/Gamma.

    From g' = -psi*g:  g^(m+1) = -sum_i C(m,i) psi^(i) g^(m-i).
    """
    psi = _psi_derivatives(alpha, max(top - 1, 0), dps)
    with mp.workdps(dps):
        g = [mp.mpf(1) / mp.factorial(alpha - 1)]
        for m in range(top):
            nxt = mp.mpf(0)
            for i in range(m + 1):
                nxt -= mp.binomial(m, i) * psi[i] * g[m - i]
            g.append(nxt)
        return tuple(g)


def _ck(alpha: int, k: int, dps: int = _WORK_DPS):
    """C_k at ``alpha`` as an mpf at ``dps`` digits."""
    if alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha}")
    if k < 0:
        raise ValueError(f"derivative order must be nonnegative, got {k}")
    if k > MAX_DERIVATIVE_ORDER:
        raise OrderLimitError(
            f"order {k} exceeds the embedded constant table "
            f"(max {MAX_DERIVATIVE_ORDER})"
        )
    with mp.workdps(dps):
        return mp.factorial(alpha - 1) * _recip_gamma_derivatives(alpha, k, dps)[k]


@functools.lru_cache(maxsize=None)
def gamma_recip_derivative(alpha: int, k: int) -> float:
    """C_k = (alpha-1)! * [d^k/dx^k 1/Gamma(x)] at x = alpha.

    C_0 = 1 for every alpha; C_1 at alpha = 1 is the Euler-Mascheroni
    constant.  Accurate to double precision (the recurrence itself runs at
    60 digits internally).
    """
    return float(_ck(alpha, k))


# ---------------------------------------------------------------------------
# Singular-expansion data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogPowerTerm:
    """One term c * (1-u)^(-alpha) * log(1/(1-u))^beta of a singular expansion."""

    coeff: float | Fraction
    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError(f"alpha must be a positive integer, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


@dataclass(frozen=True)
class RemainderClass:
    """Dominated tail: an unspecified combination of log-power terms with
    (1-u)-exponent j and log-exponent i where j < q (any i), or j = q and
    i <= p.  Contributes nothing to numeric evaluation; carried so reports
    can label estimates as two-term (etc.) with an explicitly unmodeled tail.
    """

    p: int
    q: int
    present: bool = True

    def absorbs(self, alpha: int, beta: int) -> bool:
        """Would a (1-u)^(-alpha) log^beta term be swallowed by this tail?"""
        if not self.present:
            return False
        return alpha < self.q or (alpha == self.q and beta <= self.p)


NO_REMAINDER = RemainderClass(0, 0, present=False)


@dataclass(frozen=True)
class SingularExpansion:
    """Ordered log-power terms plus a dominated remainder class.

    Terms must be strictly decreasing in (alpha, beta) lexicographic order
    and must each strictly dominate the remainder class.
    """

    terms: tuple[LogPowerTerm, ...]
    remainder: RemainderClass = field(default=NO_REMAINDER)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        keys = [(t.alpha, t.beta) for t in self.terms]
        if any(nxt >= cur for nxt, cur in zip(keys[1:], keys)):
            raise ValueError("terms must be strictly decreasing in (alpha, beta)")
        for t in self.terms:
            if self.remainder.absorbs(t.alpha, t.beta):
                raise ValueError(
                    f"term (alpha={t.alpha}, beta={t.beta}) does not dominate "
                    f"the remainder class ({self.remainder.p}, {self.remainder.q})"
                )


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
    if high_precision:
        with mp.workdps(_WORK_DPS):
            logn = mp.log(n)
            bracket = mp.mpf(0)
            for k in range(top + 1):
                bracket += (
                    _ck(a, k)
                    / mp.factorial(k)
                    * math.perm(b, k)
                    / logn**k
                )
            c = term.coeff
            cval = mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpf(c)
            return (
                cval
                * mp.mpf(n) ** (a - 1)
                / mp.factorial(a - 1)
                * logn**b
                * bracket
            )
    logn = math.log(n)
    bracket = 0.0
    for k in range(top + 1):
        bracket += (
            gamma_recip_derivative(a, k)
            / math.factorial(k)
            * math.perm(b, k)
            / logn**k
        )
    return float(term.coeff) * n ** (a - 1) / math.factorial(a - 1) * logn**b * bracket


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
    if high_precision:
        with mp.workdps(_WORK_DPS):
            return mp.fsum(
                transfer_term(t, n, order=order, high_precision=True)
                for t in expansion.terms
            )
    return math.fsum(transfer_term(t, n, order=order) for t in expansion.terms)


# ---------------------------------------------------------------------------
# Exact-rational coefficient oracle
# ---------------------------------------------------------------------------

def _check_oracle_budget(alpha: int, beta: int, n: int) -> None:
    if alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > ORACLE_MAX_N:
        raise SeriesBudgetError(f"oracle budget is n <= {ORACLE_MAX_N}, got {n}")
    if beta > ORACLE_MAX_BETA:
        raise SeriesBudgetError(f"oracle budget is beta <= {ORACLE_MAX_BETA}, got {beta}")


# cache: beta -> coefficient list of log(1/(1-u))^beta, longest computed so far
_LOG_POWER_CACHE: dict[int, list] = {}


def _log_power_series(beta: int, n: int) -> list:
    """Coefficients 0..n of log(1/(1-u))^beta, exact rationals.

    beta = 1 is sum_{m>=1} u^m/m; higher powers by repeated full-series
    convolution (balanced splits keep the convolution count minimal).
    """
    cached = _LOG_POWER_CACHE.get(beta)
    if cached is not None and len(cached) > n:
        return cached[: n + 1]
    if beta == 0:
        series = [Fraction(1)] + [Fraction(0)] * n
    elif beta == 1:
        series = [Fraction(0)] + [Fraction(1, m) for m in range(1, n + 1)]
    else:
        lo = _log_power_series(beta // 2, n)
        hi = _log_power_series(beta - beta // 2, n)
        series = [Fraction(0)] * (n + 1)
        for i in range(1, n + 1):
            ai = lo[i]
            if not ai:
                continue
            for j in range(1, n - i + 1):
                bj = hi[j]
                if bj:
                    series[i + j] += ai * bj
    _LOG_POWER_CACHE[beta] = series
    return series


def _geometric_passes(series: list, alpha: int) -> list:
    """Multiply by (1-u)^(-alpha): alpha successive convolutions with the
    geometric series (running prefix sums), realizing the binomial series."""
    out = series
    for _ in range(alpha):
        acc = Fraction(0)
        nxt = []
        for v in out:
            acc += v
            nxt.append(acc)
        out = nxt
    return out


def exact_coefficient(alpha: int, beta: int, n: int) -> Fraction:
    """Exact [u^n] of (1-u)^(-alpha) * log(1/(1-u))^beta.

    Built from the series themselves (log power by repeated exact
    convolution, the (1-u)^(-alpha) binomial factor by alpha geometric
    convolution passes), so it is independent of the Gamma-derivative
    expansion it serves to check.  Budgeted at n <= 100000, beta <= 6.
    """
    _check_oracle_budget(alpha, beta, n)
    lo_beta = beta // 2
    hi_beta = beta - lo_beta
    hi = _geometric_passes(_log_power_series(hi_beta, n), alpha)
    if lo_beta == 0:
        value = hi[n]
    else:
        lo = _log_power_series(lo_beta, n)
        value = Fraction(0)
        for i in range(1, n + 1):
            if lo[i]:
                value += lo[i] * hi[n - i]
    return value


def highprec_coefficient(alpha: int, beta: int, n: int, prec_bits: int = 240):
    """[u^n] of (1-u)^(-alpha) log(1/(1-u))^beta in >= 200-bit arithmetic.

    Linear-time route for sizes where exact rationals are too slow: the
    log-power series satisfies (log^b)' = b * log^(b-1) / (1-u), giving
    each series from the previous one by a prefix sum; the (1-u)^(-alpha)
    factor is alpha more prefix passes.  All terms are nonnegative, so the
    relative rounding error stays near 2^-prec_bits.  Returns an mpf.
    """
    _check_oracle_budget(alpha, beta, n)
    if prec_bits < 200:
        raise ValueError(f"prec_bits must be >= 200, got {prec_bits}")
    with mp.workprec(prec_bits):
        series = [mp.mpf(1)] + [mp.mpf(0)] * n
        for b in range(1, beta + 1):
            acc = mp.mpf(0)
            nxt = [mp.mpf(0)] * (n + 1)
            for m in range(n):
                acc += series[m]
                nxt[m + 1] = b * acc / (m + 1)
            series = nxt
        for _ in range(alpha):
            acc = mp.mpf(0)
            for m in range(n + 1):
                acc += series[m]
                series[m] = acc
        return series[n]
