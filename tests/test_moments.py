"""Exact factorial moments: examples, closed-form identities, and
order-monotonicity properties."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import (
    DistributionTable,
    Model,
    cycle_counts,
    distribution_tables,
    factorial_moment,
    falling_factorial,
    harmonic,
    inversion_counts,
    k_max,
    moment_sequence,
    quicksort_counts,
    quicksort_mean,
)
from momentlab.simulate import comparisons_first_pivot


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 5) == 0
        for k in (0, 1, 7, 123):
            assert falling_factorial(k, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)
        with pytest.raises(ValueError):
            falling_factorial(2, -1)

    @given(k=st.integers(0, 80), s=st.integers(0, 90))
    def test_matches_product_definition(self, k, s):
        product = 1
        for i in range(s):
            product *= k - i  # hits the factor 0 whenever s > k
        assert falling_factorial(k, s) == product


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


class TestFactorialMoment:
    def test_zeroth_moment_is_one(self):
        for model in Model:
            for n in (0, 1, 5, 9):
                assert factorial_moment(
                    distribution_tables(model, n)[n], 0
                ) == 1

    def test_inversion_mean_example(self):
        assert factorial_moment(inversion_counts(10), 1) == Fraction(45, 2)

    def test_quicksort_mean_example(self):
        assert factorial_moment(quicksort_counts(3), 1) == Fraction(8, 3)

    def test_rejects_corrupt_row(self):
        bad = DistributionTable(Model.INVERSIONS, 3, (1, 2, 2, 2))
        with pytest.raises(ValueError):
            factorial_moment(bad, 1)

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


class TestMomentSequence:
    def test_cycles_means_are_harmonic(self):
        assert moment_sequence(Model.CYCLES, 1, 3) == [
            Fraction(0),
            Fraction(1),
            Fraction(3, 2),
            Fraction(11, 6),
        ]

    def test_zeroth_sequence(self):
        for model in Model:
            assert moment_sequence(model, 0, 2) == [1, 1, 1]

    def test_inversion_means(self):
        assert moment_sequence(Model.INVERSIONS, 1, 4) == [
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
        counts = cycle_counts(n).counts
        assert sum(k * c for k, c in enumerate(counts)) == math.factorial(n) * harmonic(n)
