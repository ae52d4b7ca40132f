"""Singular expansions, two-term asymptotics, and the coefficient
cross-check that ties the transfer engine to the stated moment formulas."""

import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from momentlab import (
    EULER_GAMMA,
    Model,
    asymptotic_moment,
    coefficient_crosscheck,
    distribution_table,
    distribution_tables,
    exact_coefficient,
    exact_moment,
    factorial_moment,
    harmonic,
    quicksort_mean,
    singular_expansion,
    transfer_term,
)
from momentlab import expansions, moments, tables, transfer


def third_key(model, s):
    """The third-largest (alpha, beta) key of f_s, where the terms of
    ``singular_expansion`` stop: None when f_s has at most two terms."""
    keys = sorted(moments.moment_series(model, s)[0], reverse=True)
    return keys[2] if len(keys) > 2 else None


class TestSingularExpansionTerms:
    def test_cycles_is_exact_single_term(self):
        assert singular_expansion(Model.CYCLES, 2) == ({(1, 2): 1}, 1)
        assert third_key(Model.CYCLES, 2) is None

    def test_inversions_terms_s1(self):
        terms, d = singular_expansion(Model.INVERSIONS, 1)
        assert list(terms.items()) == [((3, 0), 1), ((2, 0), -2)] and d == 2
        assert third_key(Model.INVERSIONS, 1) == (1, 0)

    def test_quicksort_terms_s1(self):
        terms, d = singular_expansion(Model.QUICKSORT, 1)
        assert list(terms.items()) == [((2, 1), 2), ((2, 0), -2)] and d == 1
        # f_1 = 2(L - 1 + v)/v^2: the rest of f_1 is its third term, 2/v
        assert third_key(Model.QUICKSORT, 1) == (1, 0)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_remainder_classes(self, s):
        assert third_key(Model.CYCLES, s) is None
        assert third_key(Model.INVERSIONS, s) == (2 * s - 1, 0)
        assert third_key(Model.QUICKSORT, s) == ((s + 1, s - 2) if s > 1 else (1, 0))

    @pytest.mark.parametrize("s", range(1, 11))
    def test_quicksort_coefficients(self, s):
        # the paper's coefficients, read off f_s
        terms, d = singular_expansion(Model.QUICKSORT, s)
        assert list(terms) == [(s + 1, s), (s + 1, s - 1)]
        assert Fraction(terms[s + 1, s], d) == 2**s * math.factorial(s)
        assert Fraction(terms[s + 1, s - 1], d) == s * (harmonic(s) - 2) * 2**s * math.factorial(s)

    @pytest.mark.parametrize("s", range(1, 11))
    def test_inversions_coefficients(self, s):
        terms, d = singular_expansion(Model.INVERSIONS, s)
        assert list(terms) == [(2 * s + 1, 0), (2 * s, 0)]
        assert Fraction(terms[2 * s + 1, 0], d) == Fraction(math.factorial(2 * s), 4**s)
        assert Fraction(terms[2 * s, 0], d) == -Fraction(s * (4 * s + 5) * math.factorial(2 * s - 1), 9 * 4 ** (s - 1))

    def test_rejects_s_zero(self):
        for model in Model:
            with pytest.raises(ValueError):
                singular_expansion(model, 0)


class TestAsymptoticMoment:
    def test_cycles_example(self):
        assert asymptotic_moment(Model.CYCLES, 1000, 1) == pytest.approx(
            math.log(1000) + EULER_GAMMA, rel=1e-15
        )

    def test_inversions_mean_is_exact(self):
        assert asymptotic_moment(Model.INVERSIONS, 10, 1) == 22.5
        for n in range(2, 51):
            assert asymptotic_moment(Model.INVERSIONS, n, 1) == float(
                Fraction(n * (n - 1), 4)
            )
            assert asymptotic_moment(Model.INVERSIONS, n, 1) == float(
                factorial_moment(distribution_table(Model.INVERSIONS, n), 1)
            )

    def test_quicksort_example(self):
        value = asymptotic_moment(Model.QUICKSORT, 100, 1)
        assert value == pytest.approx(
            200 * math.log(100) + 200 * (EULER_GAMMA - 2), rel=1e-15
        )
        assert value == pytest.approx(636.48, abs=5e-3)
        assert float(quicksort_mean(100)) == pytest.approx(647.85, abs=5e-3)

    def test_inversions_lead_past_the_largest_double(self):
        # n^4 = 1.6e309 passes the largest double, while n^4 / 16 does not:
        # the int / int division rounds once, where float(n**4) / 16 would
        # raise OverflowError
        assert asymptotic_moment(Model.INVERSIONS, 2 * 10**77, 2) == 1e308

    def test_inversions_denominator_past_the_largest_double(self):
        # 9 * 4^512 passes the double range, while s(2s-11) / (9 * 4^s) as
        # one int / int division does not
        assert asymptotic_moment(Model.INVERSIONS, 2, 512) == 28815.222222222223

    def test_inversions_lead_past_the_largest_double_high_precision(self):
        # the 82-digit estimate divides the exact n^4 by 16, and its last digits
        # hold the second term, 77 places below the first
        value = asymptotic_moment(Model.INVERSIONS, 2 * 10**77, 2, high_precision=True)
        assert value == Decimal(
            "9.999999999999999999999999999999999999999999999999999999999999999999999999999922222E+307"
        )

    @pytest.mark.parametrize(
        "model, n, s, message",
        [
            (Model.INVERSIONS, 10**100, 10**6, f"inversions estimate at n={10**100}, s=1000000 does not fit doubles"),
            (Model.INVERSIONS, 10**10, 10**6, "inversions estimate at n=10000000000, s=1000000 does not fit doubles"),
            (Model.QUICKSORT, 10**100, 10**6, f"quicksort estimate at n={10**100}, s=1000000 does not fit doubles"),
            (Model.QUICKSORT, 2, 10**9, "quicksort estimate at n=2, s=1000000000 does not fit doubles"),
        ],
    )
    def test_past_the_double_range_before_the_powers(self, model, n, s, message):
        # n^(2s) alone has 2*10^8 digits at n = 10^100, s = 10^6, and 2^(2s)
        # has 2*10^9 bits at n = 2, s = 10^9
        start = time.process_time()
        with pytest.raises(OverflowError) as info:
            asymptotic_moment(model, n, s)
        assert time.process_time() - start < 1
        assert str(info.value) == message

    def test_inversions_powers_past_the_range_value_inside(self):
        # 2^(2s) and 4^s pass the double range, the estimate 1 + s(2s - 11)/18
        # does not: the 82-digit formula, rounded once
        start = time.process_time()
        value = asymptotic_moment(Model.INVERSIONS, 2, 10**9)
        assert time.process_time() - start < 1
        assert value == 1.111111105e17 == float(asymptotic_moment(Model.INVERSIONS, 2, 10**9, high_precision=True))

    def test_range_check_changes_no_outcome(self, monkeypatch):
        # across the edge of the double range, each request gives the same
        # value or the same OverflowError with and without the double
        # record's bound on the integers it forms
        def outcome(model, n, s):
            try:
                return "value", repr(asymptotic_moment(model, n, s))
            except OverflowError as exc:
                return "error", str(exc)

        grid = [
            (model, n, s)
            for model in (Model.INVERSIONS, Model.QUICKSORT)
            for n in (2, 3, 30, 10**6, 2 * 10**77, 10**100, 10**400)
            for s in [*range(1, 40), 127, 128, 129, 255, 256, 257, 511, 512, 513, 514]
        ]
        checked = [outcome(*key) for key in grid]
        assert {kind for kind, _ in checked} == {"value", "error"}
        monkeypatch.setattr(transfer, "_LOG_INT_MAX", math.inf)
        assert [outcome(*key) for key in grid] == checked

    def test_double_estimate_is_finite_or_refused(self):
        # the products of quicksort's terms pass the range without raising at
        # n = 10^6 from s = 42, where they summed to nan, and at n = 10^306
        grid = [
            (model, n, s)
            for model in Model
            for n in (2, 3, 30, 10**6, 2 * 10**77, 10**100, 10**400)
            for s in [*range(1, 40), 127, 128, 129, 255, 256, 257, 511, 512, 513, 514]
        ]
        grid += [(Model.QUICKSORT, 10**6, s) for s in range(41, 49)] + [(Model.QUICKSORT, 10**306, 1)]
        refused = set()
        for model, n, s in grid:
            try:
                value = asymptotic_moment(model, n, s)
            except OverflowError as exc:
                assert str(exc) == f"{model} estimate at n={n}, s={s} does not fit doubles"
                refused.add((model, n, s))
            else:
                assert type(value) is float and math.isfinite(value), (model, n, s, value)
        assert {(Model.QUICKSORT, 10**6, s) for s in range(42, 49)} | {(Model.QUICKSORT, 10**306, 1)} <= refused
        assert (Model.QUICKSORT, 10**6, 41) not in refused

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            asymptotic_moment(Model.CYCLES, 1, 1)
        with pytest.raises(ValueError):
            asymptotic_moment(Model.CYCLES, 10, 0)

    def test_high_precision_agrees(self):
        for model in Model:
            hp = asymptotic_moment(model, 500, 2, high_precision=True)
            assert float(hp) == pytest.approx(
                asymptotic_moment(model, 500, 2), rel=1e-14
            )


class TestCoefficientCrosscheck:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("s", range(1, 11))
    def test_two_scale_transfer_theorem_triples(self, model, s):
        triples = coefficient_crosscheck(model, s)
        assert type(triples) is tuple and len(triples) == 2
        for triple in triples:
            assert type(triple) is tuple
            assert [type(x) for x in triple] == [str, float, float]

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("s", range(1, 11))
    def test_agreement_to_1e_minus_10(self, model, s):
        (_, lt, lth), (_, st, sth) = coefficient_crosscheck(model, s)
        assert abs(lt - lth) / abs(lth) <= 1e-10
        assert abs(st - sth) / abs(sth) <= 1e-10

    def test_cycles_s3_coefficients(self):
        (_, _, lead_theorem), (_, _, second_theorem) = coefficient_crosscheck(Model.CYCLES, 3)
        assert lead_theorem == 1.0
        assert second_theorem == pytest.approx(3 * EULER_GAMMA, rel=1e-15)

    def test_inversions_s2_second_coefficient(self):
        _, (_, second_transfer, second_theorem) = coefficient_crosscheck(Model.INVERSIONS, 2)
        assert second_transfer == pytest.approx(-7 / 72, rel=1e-12)
        assert second_theorem == pytest.approx(2 * (2 * 2 - 11) / (9 * 16), rel=1e-15)

    def test_quicksort_harmonic_cancellation(self):
        # the transferred second coefficient collapses to 2^s s (gamma - 2)
        for s in (1, 2, 5, 10):
            _, (_, second_transfer, _) = coefficient_crosscheck(Model.QUICKSORT, s)
            assert second_transfer == pytest.approx(
                2**s * s * (EULER_GAMMA - 2), rel=1e-12
            )


class TestWholeSeriesTransfer:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("s", range(1, 5))
    def test_error_falls_like_one_over_n(self, model, s, monkeypatch):
        # every term of f_s transferred: what is left is the O(1/n) relative
        # error of the singularity analysis, so each tenfold n cuts it about
        # tenfold (ratios 0.055-0.112 here).  The caps are raised to reach
        # n = 10^4.
        monkeypatch.setitem(tables.DEFAULT_ROW_LIMITS, "cycles", 10**4)
        monkeypatch.setattr(moments, "QUICKSORT_PGF_MAX_N", 10**4)
        terms, d = moments.moment_series(model, s)
        errors = []
        for n in (10**2, 10**3, 10**4):
            estimate = sum(
                c * transfer_term(alpha, beta, n, high_precision=True) / d
                for (alpha, beta), c in terms.items()
            )
            exact = exact_moment(model, n, s)[0]
            errors.append(abs(Fraction(estimate) - exact) / exact)
        assert errors[1] <= errors[0] / 5 and errors[2] <= errors[1] / 5, [float(e) for e in errors]


class TestCyclesSeriesIdentity:
    @pytest.mark.parametrize("s", range(1, 5))
    def test_moments_are_log_power_coefficients(self, s):
        # the cycles expansion is exact, so moments equal the raw series
        for n, table in enumerate(distribution_tables(Model.CYCLES, 50)):
            assert factorial_moment(table, s) == exact_coefficient(1, s, n)
