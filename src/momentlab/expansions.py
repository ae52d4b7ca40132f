"""Singular expansions of the factorial-moment generating series for the
three models, two-term asymptotic moment formulas, and the consistency
check tying the two together.

For each model the generating series sum_n beta_s(n) u^n of the s-th
factorial moments has a log-power expansion near u = 1:

* cycles:      (1-u)^(-1) log^s(1/(1-u))                        (exact)
* inversions:  (2s)!/4^s (1-u)^(-(2s+1))
               - s(4s+5)(2s-1)!/(9*4^(s-1)) (1-u)^(-2s)  + dominated tail
* quicksort:   2^s s! (1-u)^(-(s+1)) log^s(1/(1-u))
               + s(H_s-2) 2^s s! (1-u)^(-(s+1)) log^(s-1)(1/(1-u)) + tail

Transferring these termwise must reproduce the two leading coefficients of
the corresponding moment asymptotics:

* cycles:      beta_s(n) ~ ln^s n + gamma*s ln^(s-1) n
* inversions:  beta_s(n) ~ n^2s/4^s + s(2s-11)/(9*4^s) n^(2s-1)
* quicksort:   beta_s(n) ~ 2^s n^s ln^s n + 2^s s(gamma-2) n^s ln^(s-1) n

``coefficient_crosscheck`` performs that comparison; for quicksort the
second coefficient combines the C_1 correction of the leading term with
the direct transfer of the second term, and the exact harmonic number in
the latter must cancel against C_1(s+1) = gamma - H_s.
"""

import collections
import math
from fractions import Fraction

from . import Model
from .transfer import (
    EULER_GAMMA,
    LogPowerTerm,
    NO_REMAINDER,
    RemainderClass,
    SingularExpansion,
    _arithmetic,
    gamma_recip_derivative,
)

__all__ = [
    "singular_expansion",
    "asymptotic_moment",
    "CoefficientCheck",
    "coefficient_crosscheck",
]


def singular_expansion(model: Model, s: int) -> SingularExpansion:
    """Log-power expansion at u = 1 of the s-th moment generating series.

    Exact (empty remainder) for cycles; inversions and quicksort carry a
    dominated remainder class.  Requires s >= 1 (the 0th moments are
    identically 1, i.e. the plain geometric series).
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if model is Model.CYCLES:
        return SingularExpansion((LogPowerTerm(Fraction(1), 1, s),), NO_REMAINDER)
    if model is Model.INVERSIONS:
        lead = Fraction(math.factorial(2 * s), 4**s)
        second = -Fraction(
            s * (4 * s + 5) * math.factorial(2 * s - 1), 9 * 4 ** (s - 1)
        )
        return SingularExpansion(
            (LogPowerTerm(lead, 2 * s + 1, 0), LogPowerTerm(second, 2 * s, 0)),
            RemainderClass(0, 2 * s - 1),
        )
    # imported here, so that ``asymptotic_moment`` requests load no ``moments``
    from .moments import harmonic

    lead = Fraction(2**s * math.factorial(s))
    second = s * (harmonic(s) - 2) * 2**s * math.factorial(s)
    return SingularExpansion(
        (LogPowerTerm(lead, s + 1, s), LogPowerTerm(second, s + 1, s - 1)),
        RemainderClass(s - 2, s + 1),
    )


def asymptotic_moment(model: Model, n: int, s: int, *, high_precision: bool = False):
    """Two-term asymptotic estimate of the s-th factorial moment at size n.

    Natural logarithms; requires n >= 2 and s >= 1.  For inversions at
    s = 1 the two terms sum to n(n-1)/4, the exact mean.  Returns a float,
    or a Decimal at 82 digits when ``high_precision`` is set.
    """
    if n < 2:
        raise ValueError(f"asymptotic evaluation requires n >= 2, got {n}")
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    with _arithmetic(high_precision) as r:
        if model is Model.INVERSIONS:
            lead = r.num(n ** (2 * s)) / 4**s
            return lead + r.num(s * (2 * s - 11)) / (9 * 4**s) * n ** (2 * s - 1)
        logn = r.log(n)
        if model is Model.CYCLES:
            return logn**s + r.gamma * s * logn ** (s - 1)
        return (
            2**s * n**s * logn**s
            + 2**s * s * (r.gamma - 2) * n**s * logn ** (s - 1)
        )


class CoefficientCheck(
    collections.namedtuple(
        "CoefficientCheck", "model s leading_scale second_scale leading second"
    )
):
    """Two leading asymptotic coefficients, from two independent routes.

    ``leading_scale`` and ``second_scale`` name the powers of n and ln n the
    coefficients multiply.  ``leading`` and ``second`` are (from_transfer,
    from_theorem) pairs of floats: the first entry extracted by transferring
    the singular expansion symbolically in n, the second from the stated
    asymptotic formula.
    """

    __slots__ = ()

    def rel_errors(self) -> tuple[float, float]:
        lt, lth = self.leading
        st, sth = self.second
        return abs(lt - lth) / abs(lth), abs(st - sth) / abs(sth)


def coefficient_crosscheck(model: Model, s: int) -> CoefficientCheck:
    """Compare transferred expansion coefficients against the stated ones.

    The transfer side uses ``gamma_recip_derivative`` for its C_k factors;
    the theorem side uses exact rationals and the gamma constant directly,
    so agreement exercises the whole Gamma-derivative recurrence.
    """
    exp = singular_expansion(model, s)
    if model is Model.CYCLES:
        (t1,) = exp.terms
        c = Fraction(t1.coeff)
        lead_t = float(c * Fraction(gamma_recip_derivative(t1.alpha, 0)))
        second_t = float(c) * gamma_recip_derivative(t1.alpha, 1) * s
        return CoefficientCheck(
            model,
            s,
            leading_scale=f"log^{s}(n)",
            second_scale=f"log^{s - 1}(n)",
            leading=(lead_t, 1.0),
            second=(second_t, EULER_GAMMA * s),
        )
    if model is Model.INVERSIONS:
        t1, t2 = exp.terms
        c1, c2 = Fraction(t1.coeff), Fraction(t2.coeff)
        # beta = 0 terms: [u^n](1-u)^(-a) = C(n+a-1, a-1), a polynomial in n
        # whose top two coefficients are 1/(a-1)! and (a(a-1)/2)/(a-1)!.
        lead_t = gamma_recip_derivative(t1.alpha, 0) * float(
            c1 / math.factorial(t1.alpha - 1)
        )
        second_t = float(
            c1 * Fraction(t1.alpha * (t1.alpha - 1) // 2, math.factorial(t1.alpha - 1))
            + c2 / math.factorial(t2.alpha - 1)
        )
        return CoefficientCheck(
            model,
            s,
            leading_scale=f"n^{2 * s}",
            second_scale=f"n^{2 * s - 1}",
            leading=(lead_t, float(Fraction(1, 4**s))),
            second=(second_t, float(Fraction(s * (2 * s - 11), 9 * 4**s))),
        )
    t1, t2 = exp.terms
    c1, c2 = Fraction(t1.coeff), Fraction(t2.coeff)
    fact = math.factorial(t1.alpha - 1)
    lead_t = gamma_recip_derivative(t1.alpha, 0) * float(c1 / fact)
    # C_1 correction of the leading term plus direct transfer of the second;
    # C_1(s+1) = gamma - H_s cancels the harmonic number inside c2.
    second_t = (
        float(c1 / fact) * gamma_recip_derivative(t1.alpha, 1) * s
        + gamma_recip_derivative(t2.alpha, 0) * float(c2 / fact)
    )
    return CoefficientCheck(
        model,
        s,
        leading_scale=f"n^{s} log^{s}(n)",
        second_scale=f"n^{s} log^{s - 1}(n)",
        leading=(lead_t, float(2**s)),
        second=(second_t, 2**s * s * (EULER_GAMMA - 2)),
    )
