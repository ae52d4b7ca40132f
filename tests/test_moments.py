"""Exact factorial moments: examples, closed-form identities, and
order-monotonicity properties."""

import hashlib
import math
import re
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_histogram
from momentlab import (
    DistributionTable,
    Model,
    ResourceLimitError,
    distribution_table,
    distribution_tables,
    factorial_moment,
    harmonic,
    k_max,
    quicksort_mean,
)
from momentlab.moments import (
    MOMENT_MAX_S,
    QUICKSORT_MEAN_MAX_N,
    QUICKSORT_PGF_MAX_N,
    _harmonic_split,
    _inversions_gf,
    _quicksort_gf,
    exact_moment,
    moment_series,
)
from momentlab.simulate import comparisons_first_pivot
from momentlab.tables import DEFAULT_ROW_LIMITS, _inversion_rows, _log_power_coefficients


def _quicksort_pgf(n: int, s: int) -> list[tuple[int, ...]]:
    """[t^0..t^s] of A_m(t) = m! P_m(1+t) for quicksort comparisons, for
    every m = 0..n: the reference for the moment series.

    From P_m(z) = z^(m-1)/m sum_j P_(j-1) P_(m-j),
    A_m = (1+t)^(m-1) B_m with B_m = sum_(i+l=m-1) C(m-1, i) A_i A_l,
    all truncated at t^s.  In B_m[k] the terms where one factor gives its
    constant term A_i[0] = i! sum to (m-1)!/l! A_l[k] over l < m, a prefix
    sum updated in O(1) per m; the swap i <-> l makes the sums of the other
    products for (a, b) and (b, a) equal, so only a <= b is summed.
    """
    columns = [[1]] + [[0] for _ in range(s)]  # columns[k][m] = A_m[k]
    prefix = [0] * (s + 1)  # prefix[k] = sum_(l<m) (m-1)!/l! A_l[k]
    for m in range(1, n + 1):
        prefix = [(m - 1) * p + column[-1] for p, column in zip(prefix, columns)]
        b_m = [prefix[0]] + [2 * p for p in prefix[1:]]
        binomials = [math.comb(m - 1, i) for i in range(m)]
        for a in range(1, s // 2 + 1):
            weighted = list(map(mul, binomials, columns[a]))
            for b in range(a, s + 1 - a):
                total = sum(map(mul, weighted, reversed(columns[b])))
                b_m[a + b] += total if a == b else 2 * total
        for k in range(s + 1):
            columns[k].append(sum(math.comb(m - 1, k - c) * b_m[c] for c in range(k + 1)))
    return list(zip(*columns))


class TestFallingFactorial:
    """``math.perm`` is the falling factorial (k)_s that ``factorial_moment``
    weighs each count by; it must vanish for s > k."""

    def test_examples(self):
        assert math.perm(5, 2) == 20
        assert math.perm(3, 5) == 0
        for k in (0, 1, 7, 123):
            assert math.perm(k, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            math.perm(-1, 2)
        with pytest.raises(ValueError):
            math.perm(2, -1)

    @given(k=st.integers(0, 80), s=st.integers(0, 90))
    def test_matches_product_definition(self, k, s):
        product = 1
        for i in range(s):
            product *= k - i  # hits the factor 0 whenever s > k
        assert math.perm(k, s) == product


class TestHarmonic:
    def test_examples(self):
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(0) == 0
        assert harmonic(4, 2) == Fraction(205, 144)

    @settings(deadline=None)
    @given(n=st.one_of(st.integers(0, 70), st.integers(0, 1500)), r=st.integers(1, 6))
    def test_matches_direct_sum(self, n, r):
        assert harmonic(n, r) == sum(Fraction(1, j**r) for j in range(1, n + 1))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic(3, 0)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129, 1000])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_leaf_edges_match_plain_sum(self, n, r):
        # a leaf sums up to 64 terms: 64 is one leaf, 65 and 129 split
        # into leaves of unequal lengths
        assert harmonic(n, r) == sum((Fraction(1, j**r) for j in range(1, n + 1)), Fraction(0))

    @pytest.mark.parametrize("n, r", [(20000, 1), (800, 2)])
    def test_denominator_is_lcm_power(self, n, r):
        # the bound that makes the split fast: lcm(1..n)^r, not the product
        # of the j^r (28.8 against 257 kbit at n = 20000)
        assert _harmonic_split(1, n + 1, r)[1] == math.lcm(*range(1, n + 1)) ** r

    @pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 300])
    def test_quicksort_mean_from_plain_sum(self, n):
        plain = sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))
        assert quicksort_mean(n) == 2 * (n + 1) * plain - 4 * n


class TestFactorialMoment:
    def test_zeroth_moment_is_one(self):
        for model in Model:
            for n in (0, 1, 5, 9):
                assert factorial_moment(
                    distribution_tables(model, n)[n], 0
                ) == 1

    def test_inversion_mean_example(self):
        assert factorial_moment(distribution_table(Model.INVERSIONS, 10), 1) == Fraction(45, 2)

    def test_quicksort_mean_example(self):
        assert factorial_moment(distribution_table(Model.QUICKSORT, 3), 1) == Fraction(8, 3)

    def test_rejects_corrupt_row(self):
        bad = DistributionTable(Model.INVERSIONS, 3, (1, 2, 2, 2))
        with pytest.raises(ValueError):
            factorial_moment(bad, 1)
        with pytest.raises(ValueError, match="^s must be nonnegative, got -1$"):
            factorial_moment(distribution_table(Model.INVERSIONS, 3), -1)

    @pytest.mark.parametrize(
        "model, top_n", [(Model.INVERSIONS, 40), (Model.CYCLES, 60), (Model.QUICKSORT, 30)]
    )
    def test_matches_the_perm_sum(self, model, top_n):
        # the falling factorials stepped along the row against a table stepped
        # along s, perm(k, s + 1) = perm(k, s) (k - s), each (k, s) once
        top = k_max(model, top_n) + 1
        perms = [[1] * top]
        for s in range(top):
            perms.append(list(map(mul, perms[-1], range(-s, top - s))))
        for table in distribution_tables(model, top_n):
            total = math.factorial(table.n)
            for s in range(k_max(model, table.n) + 2):
                expected = Fraction(sum(map(mul, perms[s], table.counts)), total)
                assert factorial_moment(table, s) == expected, (table.n, s)

    def test_vanishes_above_k_max(self):
        for model in Model:
            n = 4
            table = distribution_tables(model, n)[n]
            assert factorial_moment(table, k_max(model, n) + 1) == 0

    @settings(max_examples=25, deadline=None)
    @given(model=st.sampled_from(list(Model)), n=st.integers(1, 12), s=st.integers(0, 8))
    def test_order_monotonicity(self, model, n, s):
        # beta_{s+1} <= k_max * beta_s whenever the support allows order s
        table = distribution_tables(model, n)[n]
        bound = k_max(model, n)
        if bound < s:
            return
        assert factorial_moment(table, s + 1) <= bound * factorial_moment(table, s)


def moments_of_rows(model, s, n):
    """The s-th factorial moments of the rows 0..n of ``model``."""
    return [factorial_moment(table, s) for table in distribution_tables(model, n)]


class TestMomentsOfRows:
    def test_cycles_means_are_harmonic(self):
        assert moments_of_rows(Model.CYCLES, 1, 3) == [
            Fraction(0),
            Fraction(1),
            Fraction(3, 2),
            Fraction(11, 6),
        ]

    def test_zeroth_moments(self):
        for model in Model:
            assert moments_of_rows(model, 0, 2) == [1, 1, 1]

    def test_inversion_means(self):
        assert moments_of_rows(Model.INVERSIONS, 1, 4) == [
            Fraction(0),
            Fraction(0),
            Fraction(1, 2),
            Fraction(3, 2),
            Fraction(3),
        ]


class TestFirstMomentIdentities:
    def test_cycles_mean_is_harmonic_number(self):
        for n, table in enumerate(distribution_tables(Model.CYCLES, 50)):
            assert factorial_moment(table, 1) == harmonic(n)

    def test_inversions_mean_is_quarter_square(self):
        for n, table in enumerate(distribution_tables(Model.INVERSIONS, 50)):
            assert factorial_moment(table, 1) == Fraction(n * (n - 1), 4)

    def test_quicksort_mean_closed_form(self, quicksort_rows_60):
        for n, table in enumerate(quicksort_rows_60):
            assert factorial_moment(table, 1) == quicksort_mean(n)

    def test_quicksort_variance_closed_form(self, quicksort_rows_120):
        # Var = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1) H_n + 13n
        for n, table in enumerate(quicksort_rows_120):
            mean = factorial_moment(table, 1)
            variance = factorial_moment(table, 2) + mean - mean**2
            assert variance == (
                7 * n**2 - 4 * (n + 1) ** 2 * harmonic(n, 2) - 2 * (n + 1) * harmonic(n) + 13 * n
            )

    def test_quicksort_mean_certified_by_enumeration(self):
        for n in range(8):
            total = sum(
                comparisons_first_pivot(p) for p in permutations(range(1, n + 1))
            )
            assert Fraction(total, math.factorial(n)) == quicksort_mean(n)

    def test_quicksort_mean_negative_rejected(self):
        with pytest.raises(ValueError):
            quicksort_mean(-1)


def test_cycle_mean_times_factorial_is_integer_row_identity():
    # sum_k k * counts[k] = n! * H_n exactly
    for n in (1, 7, 23, 50):
        counts = distribution_table(Model.CYCLES, n).counts
        assert sum(k * c for k, c in enumerate(counts)) == math.factorial(n) * harmonic(n)


class TestExactMoment:
    """Each route of ``exact_moment`` against an independent one: the table
    rows, the PGF recurrence, enumeration, the closed forms and the paper's
    coefficients."""

    def test_quicksort_pgf_reference_matches_rows(self, quicksort_rows_60):
        polys = _quicksort_pgf(40, 6)
        for n, table in enumerate(quicksort_rows_60[:41]):
            for s in range(7):
                assert Fraction(math.factorial(s) * polys[n][s], math.factorial(n)) == factorial_moment(table, s)

    def test_quicksort_matches_the_pgf_recurrence(self):
        polys = _quicksort_pgf(40, 6)
        for n in range(41):
            for s in range(7):
                value, route = exact_moment(Model.QUICKSORT, n, s)
                assert value == Fraction(math.factorial(s) * polys[n][s], math.factorial(n)), (n, s)
                assert route == ("closed-form" if s == 1 else "pgf")

    def test_quicksort_matches_rows(self, quicksort_rows_120):
        for n, table in enumerate(quicksort_rows_120[:31]):
            for s in range(7, 13):
                assert exact_moment(Model.QUICKSORT, n, s) == (factorial_moment(table, s), "pgf"), (n, s)
        table = quicksort_rows_120[120]
        for s in range(13):
            assert exact_moment(Model.QUICKSORT, 120, s)[0] == factorial_moment(table, s), s

    def test_quicksort_matches_enumeration(self):
        for n in range(8):
            table = DistributionTable(Model.QUICKSORT, n, tuple(brute_force_histogram(Model.QUICKSORT, n)))
            for s in range(9):
                assert exact_moment(Model.QUICKSORT, n, s)[0] == factorial_moment(table, s), (n, s)

    def test_quicksort_series(self):
        # f_1 = 2(L - 1 + v)/v^2, v = 1 - u, L = log(1/(1-u)); every term of
        # every f_s has alpha >= 1, as the extraction needs
        assert _quicksort_gf(1) == ({(2, 1): 2, (2, 0): -2, (1, 0): 2}, 1)
        for s in range(13):
            terms, d = _quicksort_gf(s)
            assert min(alpha for alpha, _ in terms) >= 1
            assert max(terms) == (s + 1, s)
            assert d > 0 and math.gcd(d, *terms.values()) == 1

    @pytest.mark.parametrize("s", range(1, 11))
    def test_quicksort_top_terms_are_the_papers(self, s):
        # 2^s s! v^(-s-1) L^s + s(H_s - 2) 2^s s! v^(-s-1) L^(s-1) + ...
        terms, d = _quicksort_gf(s)
        top = [(alpha, beta, Fraction(terms[alpha, beta], d)) for alpha, beta in sorted(terms, reverse=True)[:2]]
        lead = 2**s * math.factorial(s)
        assert top == [(s + 1, s, lead), (s + 1, s - 1, s * (harmonic(s) - 2) * lead)]

    def test_quicksort_mean_matches_the_closed_form_far_out(self):
        value = _log_power_coefficients([_quicksort_gf(1)], 20000)[0]
        assert value == quicksort_mean(20000)

    def test_inversions_match_rows(self):
        for n, table in enumerate(distribution_tables(Model.INVERSIONS, 100)):
            orders = range(11) if n <= 30 else range(7)
            for s in orders:
                assert exact_moment(Model.INVERSIONS, n, s) == (factorial_moment(table, s), "pgf"), (n, s)

    @pytest.mark.parametrize("n", [150, 200])
    def test_inversions_match_direct_product(self, n):
        # above 2s the engine evaluates its interpolated polynomial
        table = distribution_table(Model.INVERSIONS, n)
        for s in range(1, 9):
            assert exact_moment(Model.INVERSIONS, n, s)[0] == factorial_moment(table, s)

    def test_inversions_build_no_row(self, monkeypatch):
        from momentlab import moments, tables

        _inversions_gf.cache_clear()
        expected = [exact_moment(Model.INVERSIONS, 10**9, s) for s in range(11)]

        def refused(*args):
            raise AssertionError("the moment route built a table row")

        _inversions_gf.cache_clear()
        monkeypatch.setattr(tables, "_inversion_rows", refused)
        monkeypatch.setattr(moments, "factorial_moment", refused)
        assert [exact_moment(Model.INVERSIONS, 10**9, s) for s in range(11)] == expected

    def test_inversions_values_match_rows(self):
        # the series interpolates its values at n = 0..2s, read off the PGF
        # product; the rows' factorial moments are the independent reference
        rows = list(_inversion_rows(128))
        for s in [*range(33), 48, 64]:
            for m, row in enumerate(rows[: 2 * s + 1]):
                expected = factorial_moment(DistributionTable(Model.INVERSIONS, m, tuple(row)), s)
                assert _log_power_coefficients([_inversions_gf(s)], m) == [expected], (s, m)

    def test_inversions_mass_guard(self, monkeypatch):
        comb = math.comb

        def corrupted(m, k):
            # Q_3(0) = C(3, 1) off by one: the product's constant term is 8, not 3!
            return comb(m, k) + (m == 3 and k == 1)

        _inversions_gf.cache_clear()
        monkeypatch.setattr(math, "comb", corrupted)
        with pytest.raises(ValueError, match="^inversions PGF product at n=3 does not have constant term n!$"):
            _inversions_gf(5)

    def test_inversions_ignore_the_row_cap(self, monkeypatch):
        expected = factorial_moment(distribution_table(Model.INVERSIONS, 100), 10)
        _inversions_gf.cache_clear()
        monkeypatch.setitem(DEFAULT_ROW_LIMITS, "inversions", 0)
        assert exact_moment(Model.INVERSIONS, 100, 10) == (expected, "pgf")

    def test_inversions_series(self):
        # f_1 = u^2/(2 v^3) = (1/v^3 - 2/v^2 + 1/v)/2, v = 1 - u: E[I_n] = n(n-1)/4
        assert _inversions_gf(1) == ({(3, 0): 1, (2, 0): -2, (1, 0): 1}, 2)
        for s in range(11):
            terms, d = moment_series(Model.INVERSIONS, s)
            assert sorted(terms) == [(alpha, 0) for alpha in range(1, 2 * s + 2)]
            assert d > 0 and math.gcd(d, *terms.values()) == 1

    @pytest.mark.parametrize("s", [*range(1, 11), 32, 64, 128])
    def test_inversions_top_coefficients_are_the_papers(self, s):
        # f_s = (2s)!/4^s v^(-2s-1) - s(4s+5)(2s-1)!/(9*4^(s-1)) v^(-2s) + ...,
        # whose transfer is n^2s/4^s + s(2s-11)/(9*4^s) n^(2s-1) + O(n^(2s-2))
        terms, d = _inversions_gf(s)
        assert Fraction(terms[2 * s + 1, 0], d) == Fraction(math.factorial(2 * s), 4**s)
        assert Fraction(terms[2 * s, 0], d) == -Fraction(s * (4 * s + 5) * math.factorial(2 * s - 1), 9 * 4 ** (s - 1))

    def test_powers_of_one_minus_u_at_any_n(self):
        # terms with beta = 0 only: C(n + alpha - 1, alpha - 1), by the rising
        # products at n 0 and 1 and by one Horner pass over alpha from n = 6 up
        for n in (0, 1, 7, 10**30):
            series = [({(1, 0): 3}, 1), ({(4, 0): 2, (2, 0): -5}, 7), ({}, 1)]
            expected = [3, Fraction(2 * math.comb(n + 3, 3) - 5 * (n + 1), 7), 0]
            assert _log_power_coefficients(series, n) == expected

    def test_mass_guard(self, monkeypatch):
        from momentlab import tables
        from momentlab.transfer import exact_coefficient

        n, s = 4, 2
        assert _log_power_coefficients([({(1, s): 1}, 1)], n) == [
            factorial_moment(distribution_table(Model.CYCLES, n), s)
        ]
        product = tables._rising

        def corrupted(lo, hi, top):
            poly = product(lo, hi, top)
            return [poly[0] + 1] + poly[1:]

        # every caller reads the product through the helper, in tables
        monkeypatch.setattr(tables, "_rising", corrupted)
        with pytest.raises(ValueError, match="mass"):
            _log_power_coefficients([({(1, s): 1}, 1)], n)
        with pytest.raises(ValueError, match="mass"):
            exact_moment(Model.QUICKSORT, 12, 3)
        with pytest.raises(ValueError, match="mass"):
            exact_coefficient(3, 2, 40)

    def test_quicksort_mean_and_variance_guard(self, monkeypatch):
        from momentlab import moments

        exact_moment(Model.QUICKSORT, 9, 3)  # the derivatives and products, cached uncorrupted
        series = moments._quicksort_gf

        def corrupted(s):
            terms, d = series(s)
            if s == 2:
                terms = {**terms, (1, 0): terms.get((1, 0), 0) + 1}
            return terms, d

        monkeypatch.setattr(moments, "_quicksort_gf", corrupted)
        with pytest.raises(ValueError, match="mean or variance"):
            exact_moment(Model.QUICKSORT, 9, 3)

    def test_routes(self):
        assert exact_moment(Model.QUICKSORT, 20000, 1) == (quicksort_mean(20000), "closed-form")
        assert exact_moment(Model.CYCLES, 30, 2) == (factorial_moment(distribution_table(Model.CYCLES, 30), 2), "pgf")
        assert exact_moment(Model.CYCLES, 30, 7) == (factorial_moment(distribution_table(Model.CYCLES, 30), 7), "pgf")
        table = distribution_table(Model.INVERSIONS, 12)
        assert exact_moment(Model.INVERSIONS, 12, 7) == (factorial_moment(table, 7), "pgf")
        table = distribution_table(Model.QUICKSORT, 12)
        assert exact_moment(Model.QUICKSORT, 12, 7) == (factorial_moment(table, 7), "pgf")
        # a polynomial in n: no cap, exact at any size
        value, route = exact_moment(Model.INVERSIONS, 10**9, 6)
        assert route == "pgf" and value.denominator < 10**6

    def test_cycles_match_rows(self):
        for n, table in enumerate(distribution_tables(Model.CYCLES, 200)):
            orders = range(n + 3) if n <= 60 else [*range(8), 10, 50, n, n + 1]
            for s in orders:
                assert exact_moment(Model.CYCLES, n, s) == (factorial_moment(table, s), "pgf"), (n, s)
        # at n = 1200 the product tree splits for every s <= 8, while the row
        # is built by the loop alone
        table = distribution_table(Model.CYCLES, 1200)
        for s in range(9):
            assert exact_moment(Model.CYCLES, 1200, s) == (factorial_moment(table, s), "pgf"), s

    @pytest.mark.parametrize(
        "n, s, digest",
        [
            # the exact text each request printed when it summed a table row
            (3500, 7, "551571011538308eda31e86c287815dc2894f448f9be7acff2c455510293b533"),
            (1500, 300, "d6e100ecf524e2d5b3235d3920f15394ed1891017f30681f2d3647a8e5c5f50d"),
        ],
    )
    def test_cycles_pinned_from_rows(self, n, s, digest):
        value, route = exact_moment(Model.CYCLES, n, s)
        assert route == "pgf"
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest

    def test_cycles_mass_guard(self, monkeypatch):
        from momentlab import tables

        product = tables._rising

        def corrupted(lo, hi, top):
            poly = product(lo, hi, top)
            return [poly[0] - 1] + poly[1:]

        monkeypatch.setattr(tables, "_rising", corrupted)
        with pytest.raises(ValueError, match="mass"):
            exact_moment(Model.CYCLES, 12, 8)

    @pytest.mark.parametrize(
        "model, n, route",
        [
            (Model.CYCLES, 0, "pgf"),
            (Model.CYCLES, 9, "pgf"),
            (Model.CYCLES, 4000, "pgf"),
            (Model.INVERSIONS, 2, "pgf"),
            (Model.INVERSIONS, 3, "pgf"),
            (Model.INVERSIONS, 4, "pgf"),
            (Model.INVERSIONS, 500, "closed-form"),
            (Model.QUICKSORT, 1, "closed-form"),
            (Model.QUICKSORT, 3, "pgf"),
            (Model.QUICKSORT, 4, "pgf"),
            (Model.QUICKSORT, 120, "closed-form"),
        ],
    )
    def test_zero_past_the_support(self, model, n, route):
        s = k_max(model, n) + 1
        assert exact_moment(model, n, s) == (0, route)
        if n <= 9:
            assert factorial_moment(distribution_tables(model, n)[n], s) == 0

    def test_zero_past_the_support_needs_no_row(self):
        # no row is built, so the row caps do not bind
        n = DEFAULT_ROW_LIMITS["inversions"] + 1
        assert exact_moment(Model.INVERSIONS, n, k_max(Model.INVERSIONS, n) + 1) == (0, "closed-form")
        n = DEFAULT_ROW_LIMITS["quicksort"] + 1
        assert exact_moment(Model.QUICKSORT, n, k_max(Model.QUICKSORT, n) + 1) == (0, "closed-form")

    def test_cycles_mean_is_harmonic(self):
        assert exact_moment(Model.CYCLES, 3500, 1) == (harmonic(3500), "pgf")

    @pytest.mark.parametrize("model", [Model.INVERSIONS, Model.QUICKSORT])
    def test_s_cap(self, model):
        # past the cap, s refused where the support reaches it and 0 elsewhere
        s = MOMENT_MAX_S[model.value] + 1
        n = min(m for m in range(s + 2) if k_max(model, m) >= s)
        with pytest.raises(ResourceLimitError, match=f"^{model} moments are capped at s <= {s - 1}, got"):
            exact_moment(model, n, s)
        assert exact_moment(model, n - 1, s) == (0, "closed-form")

    @pytest.mark.parametrize(
        "model, n, s, expected",
        [
            (Model.CYCLES, DEFAULT_ROW_LIMITS["cycles"] + 1, 1, "cycles row 4001 exceeds the cap 4000"),
            (Model.CYCLES, 30, 10**6, (0, "pgf")),  # cycles has no s cap
            (Model.INVERSIONS, 30, MOMENT_MAX_S["inversions"] + 1,
             "inversions moments are capped at s <= 128, got s=129"),
            (Model.INVERSIONS, 16, MOMENT_MAX_S["inversions"] + 1, (0, "closed-form")),
            (Model.INVERSIONS, 10**100, 100000, "inversions moments are capped at s <= 128, got s=100000"),
            (Model.INVERSIONS, 10**100, 3, (None, "pgf")),  # its value unchecked
            (Model.QUICKSORT, QUICKSORT_PGF_MAX_N + 1, 2,
             "quicksort moments of order 2 are capped at n <= 4000, got n=4001"),
            (Model.QUICKSORT, QUICKSORT_MEAN_MAX_N + 1, 1,
             "quicksort moments of order 1 are capped at n <= 1000000, got n=1000001"),
            (Model.QUICKSORT, 30, MOMENT_MAX_S["quicksort"] + 1,
             "quicksort moments are capped at s <= 32, got s=33"),
            (Model.QUICKSORT, 8, MOMENT_MAX_S["quicksort"] + 1, (0, "closed-form")),
            (Model.QUICKSORT, 5, MOMENT_MAX_S["quicksort"], (0, "pgf")),
        ],
    )
    def test_caps_come_before_any_work(self, model, n, s, expected, monkeypatch):
        # ``exact_moment`` checks its own caps first: a refusal, the closed-form
        # 0 past the support above the s cap, or a moment it works out; the
        # series builders and the quicksort mean fail the test if a refusal
        # reaches them
        from momentlab import moments

        if isinstance(expected, str):
            def no_work(*args):
                raise AssertionError("a refused moment did work")

            monkeypatch.setattr(moments, "moment_series", no_work)
            monkeypatch.setattr(moments, "_log_power_coefficients", no_work)
            monkeypatch.setattr(moments, "quicksort_mean", no_work)
            with pytest.raises(ResourceLimitError, match=f"^{re.escape(expected)}$"):
                exact_moment(model, n, s)
        else:
            value, route = exact_moment(model, n, s)
            assert (value if expected[0] is not None else None, route) == expected

    def test_quicksort_mean_cap(self, monkeypatch):
        # up to its own cap, far past the cap of s != 1, n goes to the closed
        # form; past it, the refusal comes before the closed form
        from momentlab import moments

        monkeypatch.setattr(moments, "quicksort_mean", Fraction)
        assert QUICKSORT_MEAN_MAX_N > QUICKSORT_PGF_MAX_N
        assert exact_moment(Model.QUICKSORT, QUICKSORT_MEAN_MAX_N, 1) == (QUICKSORT_MEAN_MAX_N, "closed-form")
        message = f"quicksort moments of order 1 are capped at n <= {QUICKSORT_MEAN_MAX_N}, got n={10**100}"
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            exact_moment(Model.QUICKSORT, 10**100, 1)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            exact_moment(Model.INVERSIONS, -1, 2)
        with pytest.raises(ValueError):
            exact_moment(Model.QUICKSORT, 5, -1)
