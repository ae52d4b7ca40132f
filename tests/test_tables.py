"""Distribution-table recurrences against brute-force enumeration and
structural invariants."""

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_histogram, pivot_sequence_distribution
from momentlab import _ntt, tables
from momentlab import (
    DistributionTable,
    Model,
    ResourceLimitError,
    distribution_table,
    distribution_tables,
    k_max,
)


class TestExamples:
    def test_cycle_row_base(self):
        assert distribution_table(Model.CYCLES, 0).counts == (1,)

    def test_cycle_row_3(self):
        assert distribution_table(Model.CYCLES, 3).counts == (0, 2, 3, 1)

    def test_cycle_row_4(self):
        assert distribution_table(Model.CYCLES, 4).counts == (0, 6, 11, 6, 1)

    def test_inversion_row_3(self):
        assert distribution_table(Model.INVERSIONS, 3).counts == (1, 2, 2, 1)

    def test_inversion_row_4_at_3(self):
        assert distribution_table(Model.INVERSIONS, 4).counts[3] == 6

    def test_inversion_row_1(self):
        assert distribution_table(Model.INVERSIONS, 1).counts == (1,)

    def test_quicksort_row_2(self):
        assert distribution_table(Model.QUICKSORT, 2).counts == (0, 2)

    def test_quicksort_row_3(self):
        # 3! * G_3(z) = z^2 (2 + 4z)
        assert distribution_table(Model.QUICKSORT, 3).counts == (0, 0, 2, 4)

    def test_quicksort_row_4_max(self):
        assert distribution_table(Model.QUICKSORT, 4).counts[6] == 8


class TestBruteForce:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("n", range(7))
    def test_histogram_equality(self, model, n):
        table = distribution_table(model, n)
        assert list(table.counts) == brute_force_histogram(model, n)

    @pytest.mark.parametrize("n", range(6))
    def test_quicksort_pivot_sequences(self, n):
        table = distribution_table(Model.QUICKSORT, n)
        dist = pivot_sequence_distribution(n)
        total = math.factorial(n)
        for k, c in enumerate(table.counts):
            assert dist.get(k, 0) * total == c


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(model=st.sampled_from(list(Model)), n=st.integers(0, 25))
    def test_row_sum_is_factorial(self, model, n):
        table = distribution_table(model, n)
        assert sum(table.counts) == math.factorial(n)
        assert len(table.counts) == k_max(model, n) + 1
        table.check()

    @pytest.mark.parametrize("n", range(1, 41))
    def test_cycle_structure(self, n):
        counts = distribution_table(Model.CYCLES, n).counts
        assert counts[0] == 0
        assert counts[n] == 1
        assert counts[1] == math.factorial(n - 1)

    @pytest.mark.parametrize("n", range(51))
    def test_inversion_palindrome(self, n):
        counts = distribution_table(Model.INVERSIONS, n).counts
        assert counts == counts[::-1]

    def test_quicksort_top_count_and_leading_zeros(self, quicksort_rows_60):
        for n in range(1, 21):
            counts = quicksort_rows_60[n].counts
            assert counts[-1] == 2 ** (n - 1)
        # no permutation sorts in fewer comparisons than the best case
        counts = quicksort_rows_60[8].counts
        first_nonzero = next(k for k, c in enumerate(counts) if c)
        assert all(c == 0 for c in counts[:first_nonzero])
        assert first_nonzero > 0

    def test_batch_rows_match_single_rows(self, quicksort_rows_60):
        for model in Model:
            rows = distribution_tables(model, 12)
            for n in (0, 5, 12):
                assert rows[n] == distribution_table(model, n)
        for n, row in enumerate(quicksort_rows_60):
            assert row == distribution_table(Model.QUICKSORT, n)


def schoolbook_product(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two polynomials, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestRowBuilders:
    """The prefix-sum and map builders against products expanded term by term."""

    def test_inversions_match_product_of_geometric_sums(self):
        # rows 0..40 have lengths of both parities, so both mirror cases run
        expected = [1]
        for m, table in enumerate(distribution_tables(Model.INVERSIONS, 40)):
            if m:
                expected = schoolbook_product(expected, [1] * m)  # 1 + z + ... + z^(m-1)
            assert list(table.counts) == expected
        assert {len(table.counts) % 2 for table in distribution_tables(Model.INVERSIONS, 40)} == {0, 1}

    def test_cycles_match_rising_factorial(self):
        expected = [1]
        for m, table in enumerate(distribution_tables(Model.CYCLES, 150)):
            if m:
                expected = schoolbook_product(expected, [m - 1, 1])  # x + m - 1
            assert list(table.counts) == expected


@lru_cache(maxsize=None)
def naive_quicksort_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of n! times the quicksort PGF by schoolbook convolution:
    A_m = z^(m-1) sum_j C(m-1, j-1) A_(m-j) A_(j-1), in Python ints."""
    rows = [(1,)]
    for m in range(1, n + 1):
        acc = [0] * (m * (m - 1) // 2 + 1)
        for j in range(1, m + 1):
            weight = math.comb(m - 1, j - 1)
            right = rows[j - 1]
            for a, x in enumerate(rows[m - j]):
                if x:
                    for b, y in enumerate(right):
                        acc[a + b + m - 1] += weight * x * y
        rows.append(tuple(acc))
    return tuple(rows)


class TestQuicksortRoute:
    """The multi-modular quicksort rows against routes that share none of it."""

    def test_matches_naive_convolution(self):
        naive = naive_quicksort_rows(30)
        assert [row.counts for row in distribution_tables(Model.QUICKSORT, 30)] == list(naive)
        for n in (0, 1, 2, 17, 29, 30):
            assert distribution_table(Model.QUICKSORT, n).counts == naive[n]

    @pytest.mark.parametrize("n", [10, 15, 18, 25, 41, 43, 44, 68, 69])
    def test_transform_size_edges(self, n, quicksort_rows_120):
        # N = 27, 243, 729 and 2187 at n = 10, 25, 41 and 69 use radix 3
        # only; rows 15 and 18 fill N = 72 and 108 with no slack; N steps
        # from 768 to 864 between 43 and 44 and from 2048 to 2187 between 68
        # and 69.  The fixture reads these rows at divisors of its N = 6561.
        table = distribution_table(Model.QUICKSORT, n)
        assert table == quicksort_rows_120[n]
        assert table == distribution_tables(Model.QUICKSORT, n)[n]
        table.check()
        if n <= 46:
            assert table.counts == naive_quicksort_rows(46)[n]

    def test_fewest_comparisons_start_each_row(self, quicksort_rows_120):
        kmin = _ntt._fewest_comparisons(120)
        for n, row in enumerate(quicksort_rows_120):
            assert kmin[n] == next(k for k, c in enumerate(row.counts) if c)

    def test_transform_size_is_smallest_smooth_width(self):
        def smooth(m):
            for f in (2, 3):
                while m % f == 0:
                    m //= f
            return m == 1

        kmin = _ntt._fewest_comparisons(200)
        for n in range(201):
            width = n * (n - 1) // 2 - kmin[n] + 1
            assert _ntt._transform_size(n) == next(m for m in itertools.count(width) if smooth(m))

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 9, 12, 27, 48])
    def test_dft_matches_direct_sum(self, size):
        moduli = _ntt._ntt_moduli(size, 20)
        primes = [q for q, _ in moduli]
        for q, w in moduli:
            assert pow(w, size, q) == 1
            assert all(pow(w, size // f, q) != 1 for f in (2, 3) if size % f == 0)
        x = np.array([[[(2654435761 * t + 40503 * r + i) % q for t in range(size)]
                       for i, q in enumerate(primes)] for r in range(2)], dtype=np.uint64)
        got = _ntt._dft(x, [w for _, w in moduli], np.array(primes, dtype=np.uint64)[:, None])
        for r in range(2):
            for i, (q, w) in enumerate(moduli):
                expected = [sum(int(x[r, i, t]) * pow(w, t * k, q) for t in range(size)) % q
                            for k in range(size)]
                assert got[r, i].tolist() == expected

    def test_every_row_digest(self, quicksort_rows_120):
        # rows past the naive oracles' reach are otherwise checked only through
        # their moments and invariants; these are the bytes of rows 0..120
        text = json.dumps([list(row.counts) for row in quicksort_rows_120])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ce22ed27ff705fa81c60c4c9e405baa5e13023dbe38a492cffd3efc00707d926"
        )

    @pytest.mark.parametrize("count", [1, 2, 40])
    def test_crt_matches_plain_remaindering(self, count):
        moduli = _ntt._ntt_moduli(16384, 185)
        assert len(moduli) == 40
        primes = [q for q, _ in moduli][:count]
        product = math.prod(primes)
        draw = random.Random(count)
        values = [0, 1, product - 1, product // 2, *(draw.randrange(product) for _ in range(20))]
        residues = np.array([[x % q for x in values] for q in primes], dtype=np.uint64)
        got = _ntt._crt(residues, primes)
        assert got == values
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("n", [41, 120])
    def test_crt_at_a_rows_primes(self, n):
        # the primes row n reads its counts modulo: N = 729 at 41, and at the
        # cap, 120, N = 6561; every x in [0, M) comes back, M = their product
        primes = [q for q, _ in _ntt._ntt_moduli(_ntt._transform_size(n), n)]
        product = math.prod(primes)
        assert product > math.factorial(n)
        draw = random.Random(n)
        values = [0, 1, product - 1, math.factorial(n), *(draw.randrange(product) for _ in range(50))]
        residues = np.array([[x % q for x in values] for q in primes], dtype=np.uint64)
        assert _ntt._crt(residues, primes) == values

    def test_counts_are_python_ints(self, quicksort_rows_120):
        rows = [distribution_table(model, 9) for model in Model]
        rows += distribution_tables(Model.INVERSIONS, 9) + distribution_tables(Model.CYCLES, 9)
        rows += quicksort_rows_120
        for row in rows:
            assert all(type(c) is int for c in row.counts)

    @pytest.mark.parametrize("n, size, primes", [
        (1, 1, 1), (2, 1, 1), (12, 48, 1), (13, 54, 2), (20, 144, 3),
    ])
    def test_values_match_direct_evaluation(self, n, size, primes):
        # every row at every point, modulo each prime: a transform of one
        # point, row 12, the last with one prime, row 13, the first with
        # two, and row 20 with three
        assert _ntt._transform_size(n) == size
        moduli = _ntt._ntt_moduli(size, n)
        assert len(moduli) == primes
        values = np.empty((n + 1, size), dtype=np.uint64)
        for q, w in moduli:
            _ntt._pgf_values(values, q, w)
            for m, row in enumerate(naive_quicksort_rows(n)):
                # P_m(z) = row_m(z) / m!, by Horner's rule at z = w^t
                expected = []
                for t in range(size):
                    z, acc = pow(w, t, q), 0
                    for c in reversed(row):
                        acc = (acc * z + c) % q
                    expected.append(acc * pow(math.factorial(m), -1, q) % q)
                assert values[m].tolist() == expected

    def test_recurrence_overwrites_the_previous_primes_rows(self):
        # _quicksort_rows reuses one array for every prime, so each row must
        # be written whole, whatever the array held before
        n, size = 20, _ntt._transform_size(20)
        (q, w), *_ = _ntt._ntt_moduli(size, n)
        clean = np.zeros((n + 1, size), dtype=np.uint64)
        _ntt._pgf_values(clean, q, w)
        stale = np.full_like(clean, q - 1)
        _ntt._pgf_values(stale, q, w)
        assert (stale == clean).all()

    def test_one_reduction_per_row_is_exact(self):
        # row m sums m // 2 pair products, each below _PRIME_BOUND^2, before
        # its one reduction; at the cap they still sum below 2^64
        pairs = tables.DEFAULT_ROW_LIMITS["quicksort"] // 2
        assert pairs * (_ntt._PRIME_BOUND - 1) ** 2 < 2**64

    def test_single_row_holds_one_primes_rows(self):
        # the whole-array recurrence held rows 0..70 at every point, 7.5 MB
        # of residues, and peaked at 9 MiB; blocks of points took 2.9, and
        # one prime's rows 0..70 and the residues row 70 reads take 1.9
        distribution_table(Model.QUICKSORT, 70)  # caches the moduli
        tracemalloc.start()
        try:
            distribution_table(Model.QUICKSORT, 70)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_every_row_holds_one_row_transform(self):
        # rows 0..60 at all 1536 points and 10 primes are 3.6 MiB of residues;
        # transforming rows of equal length in one batch peaked at 18 MiB
        distribution_tables(Model.QUICKSORT, 60)  # caches the moduli
        tracemalloc.start()
        try:
            distribution_tables(Model.QUICKSORT, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    def test_every_row_keeps_only_the_residues_it_reads(self):
        # rows 0..64 read 1.4 MiB of residues, each at its N_m points and the
        # primes its m! needs; kept at all 1944 points and 11 primes they
        # took 5.3 MiB, and the build peaked at 8.9 MiB, where it takes 3.7
        _ntt._ntt_moduli(_ntt._transform_size(64), 64)  # caches the moduli
        tracemalloc.start()
        try:
            distribution_tables(Model.QUICKSORT, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    def test_prime_coverage_limit(self):
        # row 1025 transforms at N = 2^19, and the primes p = 1 (mod 2^19)
        # below 2^29 multiply to fewer bits than 1025!: a wrong CRT is refused
        assert _ntt._transform_size(1025) == 2**19
        with pytest.raises(ResourceLimitError, match="2\\^29"):
            _ntt._ntt_moduli(2**19, 1025)


class TestLimits:
    def test_negative_n(self):
        with pytest.raises(ValueError):
            distribution_table(Model.CYCLES, -1)

    def test_row_cap(self):
        with pytest.raises(ResourceLimitError, match="^quicksort row 121 exceeds the cap 120$"):
            distribution_table(Model.QUICKSORT, 121)
        with pytest.raises(ResourceLimitError, match="^inversions row 1001 exceeds the cap 500$"):
            distribution_table(Model.INVERSIONS, 1001)
        with pytest.raises(ResourceLimitError, match="^cycles row 5001 exceeds the cap 4000$"):
            distribution_table(Model.CYCLES, 5001)

    def test_patched_cap_moves_the_edge(self, monkeypatch):
        monkeypatch.setitem(tables.DEFAULT_ROW_LIMITS, "cycles", 10)
        with pytest.raises(ResourceLimitError, match="cycles row 11 exceeds the cap 10"):
            distribution_table(Model.CYCLES, 11)
        assert distribution_table(Model.CYCLES, 10).n == 10

    def test_caps_ignore_the_environment(self, monkeypatch):
        # a lower value, a value that is not a number and a higher one leave
        # every cap where tables.DEFAULT_ROW_LIMITS puts it
        for value in ("10", "not-a-number", "1024"):
            monkeypatch.setenv("MOMENTLAB_ROW_LIMIT", value)
            assert distribution_table(Model.CYCLES, 11).n == 11
            with pytest.raises(ResourceLimitError, match="quicksort row 121 exceeds the cap 120"):
                distribution_table(Model.QUICKSORT, 121)

    def test_check_rejects_corruption(self):
        bad = DistributionTable(Model.CYCLES, 3, (0, 2, 3, 2))
        with pytest.raises(ValueError):
            bad.check()
        with pytest.raises(ValueError, match="^row has wrong length$"):
            DistributionTable(Model.CYCLES, 3, (0, 2, 3, 1, 0)).check()
        with pytest.raises(ValueError, match="^negative count$"):
            DistributionTable(Model.CYCLES, 3, (0, 2, 5, -1)).check()
