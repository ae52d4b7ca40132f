"""Singular expansions of the factorial-moment generating series for the
three models, two-term asymptotic moment formulas, and both sides of the
consistency check tying the two together.

For each model the generating series f_s(u) = sum_n beta_s(n) u^n of the
s-th factorial moments is a finite sum of log-power terms
c (1-u)^(-alpha) log^beta(1/(1-u)), built exactly by
``moments.moment_series``: the single term (1-u)^(-1) log^s(1/(1-u)) for
cycles, (1-u)^(-alpha) with alpha = 1..2s+1 for inversions, and for
quicksort a top term (1-u)^(-(s+1)) log^s(1/(1-u)) followed by terms in
lower powers of the log.  ``singular_expansion`` reads its two largest
terms off f_s, in f_s's own form ({(alpha, beta): c}, d), and transferring
them termwise must reproduce the two leading coefficients of the paper's
moment asymptotics:

* cycles:      beta_s(n) ~ ln^s n + gamma*s ln^(s-1) n
* inversions:  beta_s(n) ~ n^2s/4^s + s(2s-11)/(9*4^s) n^(2s-1)
* quicksort:   beta_s(n) ~ 2^s n^s ln^s n + 2^s s(gamma-2) n^s ln^(s-1) n

``coefficient_crosscheck`` returns both sides of that comparison, as one
(scale, from_transfer, from_theorem) triple per coefficient, with these
closed forms as its theorem side only; for quicksort the second coefficient
combines the C_1 correction of the leading term with the direct transfer
of the second term, and the exact harmonic number in the latter must
cancel against C_1(s+1) = gamma - H_s.
"""

import math
from fractions import Fraction

from . import _EXPORTS, Model
from .transfer import EULER_GAMMA, _estimate, gamma_recip_derivative

__all__ = _EXPORTS["expansions"]


def singular_expansion(model: Model, s: int) -> tuple[dict[tuple[int, int], int], int]:
    """The leading terms of the s-th moment series f_s (``moments.moment_series``)
    in its own form ({(alpha, beta): c}, d), the sum of c/d (1-u)^(-alpha)
    log^beta(1/(1-u)): its two largest keys, in decreasing (alpha, beta) order,
    or its single term for cycles, over f_s's denominator d.  The rest of f_s
    is the exact remainder, every term of it dominated by these.  Requires
    s >= 1 (the 0th moments are identically 1, the plain geometric series).
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    # imported here, so that ``asymptotic_moment`` requests load no ``moments``
    from .moments import moment_series

    terms, d = moment_series(model, s)
    return {key: terms[key] for key in sorted(terms, reverse=True)[:2]}, d


def asymptotic_moment(model: Model, n: int, s: int, *, high_precision: bool = False):
    """Two-term asymptotic estimate of the s-th factorial moment at size n.

    Natural logarithms; requires n >= 2 and s >= 1.  For inversions at
    s = 1 the two terms sum to n(n-1)/4, the exact mean.  Returns a float,
    or a Decimal at 82 digits when ``high_precision`` is set.

    Each power is ``r.power(base, k)`` in the record's arithmetic, by
    ``transfer._estimate``: where the double formula overflows (inversions
    from s = 17 in a band of n, quicksort at n = 2 from s = 508), the 82-digit
    formula rounded once to a double.  A double past the range, or an
    82-digit estimate past the decimal exponent range, is refused as
    OverflowError "<model> estimate at n=.., s=.. does not fit doubles".
    """
    if n < 2:
        raise ValueError(f"asymptotic evaluation requires n >= 2, got {n}")
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")

    def formula(r):
        if model is Model.INVERSIONS:
            lead = r.power(n, 2 * s) / r.power(4, s)
            value = lead + s * (2 * s - 11) / (9 * r.power(4, s)) * r.power(n, 2 * s - 1)
        else:
            logn = r.log(n)
            if model is Model.CYCLES:
                value = logn**s + r.gamma * s * logn ** (s - 1)
            else:
                value = (r.power(2, s) * r.power(n, s) * logn**s
                         + r.power(2, s) * s * (r.gamma - 2) * r.power(n, s) * logn ** (s - 1))
        return r.real(value)

    return _estimate(formula, high_precision, f"{model} estimate at n={n}, s={s}")


def coefficient_crosscheck(
    model: Model, s: int
) -> tuple[tuple[str, float, float], tuple[str, float, float]]:
    """The leading and the second asymptotic coefficient of the s-th moment,
    each a (scale, from_transfer, from_theorem) triple: ``scale`` names the
    powers of n and ln n the coefficient multiplies, ``from_transfer`` is
    extracted by transferring the singular expansion symbolically in n, and
    ``from_theorem`` is the stated asymptotic formula's, both floats.

    The transfer side takes the terms of ``singular_expansion``, read off the
    exact series f_s, and uses ``gamma_recip_derivative`` for its C_k
    factors; the theorem side is the paper's closed forms, in exact
    rationals and the gamma constant directly.  So agreement checks both
    the series and the whole Gamma-derivative recurrence.
    """
    terms, d = singular_expansion(model, s)
    (a1, c1), *rest = [(alpha, Fraction(c, d)) for (alpha, _), c in terms.items()]
    fact = math.factorial(a1 - 1)
    lead_t = gamma_recip_derivative(a1, 0) * float(c1 / fact)
    if model is Model.INVERSIONS:
        ((a2, c2),) = rest
        # beta = 0 terms: [u^n](1-u)^(-a) = C(n+a-1, a-1), a polynomial in n
        # whose top two coefficients are 1/(a-1)! and (a(a-1)/2)/(a-1)!.
        second_t = float(c1 * Fraction(a1 * (a1 - 1) // 2, fact) + c2 / math.factorial(a2 - 1))
        scales = (f"n^{2 * s}", f"n^{2 * s - 1}")
        theorem = (float(Fraction(1, 4**s)), float(Fraction(s * (2 * s - 11), 9 * 4**s)))
    else:
        # C_1 correction of the leading term plus direct transfer of the second,
        # if any (not for cycles); for quicksort C_1(s+1) = gamma - H_s cancels
        # the harmonic number inside its coefficient.
        second_t = float(c1 / fact) * gamma_recip_derivative(a1, 1) * s + sum(
            gamma_recip_derivative(a, 0) * float(c / fact) for a, c in rest
        )
        scale = "" if model is Model.CYCLES else f"n^{s} "
        scales = (f"{scale}log^{s}(n)", f"{scale}log^{s - 1}(n)")
        theorem = (1.0, EULER_GAMMA * s) if model is Model.CYCLES else (float(2**s), 2**s * s * (EULER_GAMMA - 2))
    return (scales[0], lead_t, theorem[0]), (scales[1], second_t, theorem[1])
