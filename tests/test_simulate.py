"""Monte Carlo machinery: pinned RNG reproducibility, exhaustive
distribution checks, and estimator accuracy."""

import concurrent.futures
import math
import os
import tracemalloc
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pivot_sequence_distribution
from momentlab import (
    Model,
    MomentEstimate,
    ResourceLimitError,
    comparisons_first_pivot,
    count_cycles,
    count_inversions,
    distribution_table,
    estimate_factorial_moment,
    factorial_moment,
    harmonic,
    quicksort_comparisons,
    random_permutation,
)
from momentlab import simulate
from momentlab.simulate import (
    _BITSET_MAX_N,
    _GOLDEN,
    _INVERSIONS_BUDGET,
    _LOCKSTEP_MIN_LANES,
    _LOCKSTEP_MIN_TRIALS,
    _MASK64,
    _MIX1,
    _MIX2,
    _STACK_COLUMNS,
    TrialStream,
    _accumulate_range,
    _bitset_inversions,
    _inversions_batch,
    _inversions_bytes,
    _lane_cycles,
    _lane_permutation,
    _mix64,
    _mix64_np,
    _permutation_batch,
    _quicksort_batch,
    _shuffle_draws,
    _stream_states,
    _trial_costs,
)


class TestTrialStream:
    def test_determinism(self):
        a = TrialStream(123, 5)
        b = TrialStream(123, 5)
        assert [a.next_uint64() for _ in range(10)] == [
            b.next_uint64() for _ in range(10)
        ]

    def test_distinct_trials_distinct_streams(self):
        words = {TrialStream(9, i).next_uint64() for i in range(1000)}
        assert len(words) == 1000

    def test_seed_range(self):
        TrialStream(2**64 - 1)
        with pytest.raises(ValueError):
            TrialStream(2**64)
        with pytest.raises(ValueError):
            TrialStream(-1)
        with pytest.raises(ValueError):
            TrialStream(1, -1)

    def test_randbelow_range_and_determinism(self):
        rng = TrialStream(7)
        draws = [rng.randbelow(6) for _ in range(2000)]
        assert set(draws) <= set(range(6))
        assert min(draws) == 0 and max(draws) == 5
        rng2 = TrialStream(7)
        assert draws == [rng2.randbelow(6) for _ in range(2000)]
        with pytest.raises(ValueError):
            rng.randbelow(0)


class TestRandomPermutation:
    def test_single_element(self):
        assert random_permutation(1, TrialStream(0)) == [1]

    def test_fixed_seed_is_reproducible(self):
        first = random_permutation(5, TrialStream(42, 3))
        assert random_permutation(5, TrialStream(42, 3)) == first
        assert sorted(first) == [1, 2, 3, 4, 5]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**64 - 1), idx=st.integers(0, 99))
    def test_always_a_permutation(self, n, seed, idx):
        perm = random_permutation(n, TrialStream(seed, idx))
        assert sorted(perm) == list(range(1, n + 1))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            random_permutation(0, TrialStream(1))

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 11])
    def test_batch_matches_scalar(self, seed):
        batch = _permutation_batch(seed, 17, 3, 40).tolist()
        scalar = [
            random_permutation(17, TrialStream(seed, i)) for i in range(3, 40)
        ]
        assert batch == scalar

    @pytest.mark.parametrize("lanes", [1, _LOCKSTEP_MIN_LANES - 1, _LOCKSTEP_MIN_LANES])
    def test_batch_matches_across_lane_crossover(self, lanes):
        # blocks of fewer than _LOCKSTEP_MIN_LANES lanes are shuffled one
        # lane at a time, into the same layout as the lockstep's rows
        seed, n, start = 2**63 + 5, 300, 11
        wide = _permutation_batch(seed, n, start, start + 40)
        perms = _permutation_batch(seed, n, start, start + lanes)
        assert perms.tolist() == wide[:lanes].tolist()
        assert perms.dtype == wide.dtype and perms.T.flags.c_contiguous

    @pytest.mark.parametrize("n", [(1 << 15) - 1, 1 << 15])
    def test_slot_dtype_at_the_int16_edge(self, n):
        # slots are int16 below 2^15 and int32 from it, on both routes
        seed, start = 2**63 + 3, 5
        lockstep = _permutation_batch(seed, n, start, start + _LOCKSTEP_MIN_LANES)
        lane = _lane_permutation(seed, n, start)
        expected = [
            random_permutation(n, TrialStream(seed, i))
            for i in range(start, start + _LOCKSTEP_MIN_LANES)
        ]
        assert lockstep.tolist() == expected
        assert lane.tolist() == expected[0]
        assert lockstep.dtype == lane.dtype == (np.int16 if n < 1 << 15 else np.int32)
        assert _inversions_batch(lockstep[:2]).tolist() == [
            count_inversions(perm) for perm in expected[:2]
        ]

    def test_uniformity_chi_square(self):
        # all 24 outcomes for n = 4 over 1e5 draws; reject only below p = 1e-6
        draws = 100_000
        counts = {}
        for row in _permutation_batch(20260810, 4, 0, draws).tolist():
            key = tuple(row)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expected = draws / 24
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        # upper chi-square tail with 23 degrees of freedom
        p_value = float(mp.gammainc(mp.mpf(23) / 2, statistic / 2, mp.inf,
                                    regularized=True))
        assert p_value > 1e-6


class TestCostStatistics:
    def test_cycle_examples(self):
        assert count_cycles([1, 2, 3]) == 3
        assert count_cycles([2, 1, 3]) == 2
        assert count_cycles([2, 3, 1]) == 1

    def test_inversion_examples(self):
        assert count_inversions([1, 2, 3, 4]) == 0
        for n in (2, 5, 9):
            assert count_inversions(list(range(n, 0, -1))) == n * (n - 1) // 2

    def test_validation(self):
        for bad in ([1, 1], [0, 1], [2, 3], [1, 2, 4]):
            with pytest.raises(ValueError):
                count_cycles(bad)
            with pytest.raises(ValueError):
                count_inversions(bad)
            with pytest.raises(ValueError):
                comparisons_first_pivot(bad)

    @pytest.mark.parametrize("n", range(7))
    def test_exhaustive_histograms_match_tables(self, n):
        cyc = [0] * (n + 1)
        inv = [0] * (n * (n - 1) // 2 + 1)
        for perm in permutations(range(1, n + 1)):
            cyc[count_cycles(perm)] += 1
            inv[count_inversions(perm)] += 1
        if n == 0:
            cyc = [1]
        assert tuple(cyc) == distribution_table(Model.CYCLES, n).counts
        assert tuple(inv) == distribution_table(Model.INVERSIONS, n).counts

    @pytest.mark.parametrize("n", range(7))
    def test_first_pivot_histogram_matches_table(self, n):
        hist = [0] * (n * (n - 1) // 2 + 1)
        for perm in permutations(range(1, n + 1)):
            hist[comparisons_first_pivot(perm)] += 1
        assert tuple(hist) == distribution_table(Model.QUICKSORT, n).counts

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 50), seed=st.integers(0, 2**32))
    def test_merge_count_matches_quadratic_count(self, n, seed):
        perm = random_permutation(n, TrialStream(seed))
        slow = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        assert count_inversions(perm) == slow


class TestQuicksortComparisons:
    def test_trivial_sizes(self):
        rng = TrialStream(3)
        assert quicksort_comparisons(0, rng) == 0
        assert quicksort_comparisons(1, rng) == 0
        assert quicksort_comparisons(2, rng) == 1

    def test_n3_frequencies_within_4_sigma(self):
        trials = 100_000
        twos = sum(
            quicksort_comparisons(3, TrialStream(11, i)) == 2 for i in range(trials)
        )
        p = Fraction(
            distribution_table(Model.QUICKSORT, 3).counts[2], math.factorial(3)
        )  # = 1/3
        sigma = math.sqrt(float(p * (1 - p)) * trials)
        assert abs(twos - float(p) * trials) <= 4 * sigma

    @pytest.mark.parametrize("n", range(2, 6))
    def test_size_recursion_matches_pivot_enumeration(self, n):
        # empirical check that the size recursion follows the exact
        # pivot-sequence distribution (the arrays-vs-sizes equivalence)
        trials = 40_000
        seen = {}
        for i in range(trials):
            k = quicksort_comparisons(n, TrialStream(99, i))
            seen[k] = seen.get(k, 0) + 1
        dist = pivot_sequence_distribution(n)
        assert set(seen) <= set(dist)
        for k, p in dist.items():
            expected = float(p) * trials
            sigma = math.sqrt(float(p * (1 - p)) * trials)
            assert abs(seen.get(k, 0) - expected) <= 5 * sigma

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quicksort_comparisons(-1, TrialStream(0))


class TestEstimator:
    def test_zeroth_moment(self):
        est = estimate_factorial_moment(Model.INVERSIONS, 30, 0, 500, 9)
        assert est == MomentEstimate(0, 30, 500, 1.0, 0.0, 9)

    def test_determinism_and_thread_independence(self, monkeypatch):
        # one worker per draw, so that two workers start below the real quantum
        monkeypatch.setattr(simulate, "_DRAWS_PER_WORKER", 1)
        kwargs = dict(model=Model.CYCLES, n=40, s=2, trials=4000, seed=77)
        a = estimate_factorial_moment(**kwargs)
        b = estimate_factorial_moment(**kwargs)
        c = estimate_factorial_moment(**kwargs, threads=2)
        assert a == b == c

    def test_cycles_mean_near_exact(self):
        est = estimate_factorial_moment(Model.CYCLES, 50, 1, 20_000, 20260810)
        exact = float(harmonic(50))
        assert abs(est.mean - exact) <= 4 * est.stderr
        assert est.stderr > 0

    def test_quicksort_second_moment_near_exact(self):
        est = estimate_factorial_moment(Model.QUICKSORT, 30, 2, 20_000, 4)
        exact = float(factorial_moment(distribution_table(Model.QUICKSORT, 30), 2))
        assert abs(est.mean - exact) <= 4 * est.stderr

    def test_inversions_first_moment_near_exact(self):
        est = estimate_factorial_moment(Model.INVERSIONS, 40, 1, 20_000, 5)
        assert abs(est.mean - 40 * 39 / 4) <= 4 * est.stderr

    def test_stderr_scales_with_trials(self):
        small = estimate_factorial_moment(Model.CYCLES, 30, 1, 5_000, 123)
        large = estimate_factorial_moment(Model.CYCLES, 30, 1, 20_000, 123)
        # quadrupling the trials halves the standard error, within 20%
        ratio = small.stderr / large.stderr
        assert 2 * 0.8 <= ratio <= 2 * 1.2

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            estimate_factorial_moment(Model.CYCLES, 10, 1, 1, 0)
        with pytest.raises(ValueError):
            estimate_factorial_moment(Model.CYCLES, 0, 1, 10, 0)
        with pytest.raises(ValueError):
            estimate_factorial_moment(Model.CYCLES, 10, -1, 10, 0)
        with pytest.raises(ValueError):
            estimate_factorial_moment(Model.CYCLES, 10, 1, 10, 0, threads=0)

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, model, seed):
        # the message TrialStream gives, not numpy's OverflowError; 40 trials
        # take quicksort's lockstep route, which converts the seed in numpy
        with pytest.raises(ValueError, match="^seed must fit in 64 bits$"):
            estimate_factorial_moment(model, 10, 1, 40, seed)


def scalar_costs(model, n, seed, start, stop):
    """Costs of trials start..stop-1, one trial at a time, by the reference
    implementations."""
    streams = [TrialStream(seed, i) for i in range(start, stop)]
    if model is Model.QUICKSORT:
        return [quicksort_comparisons(n, rng) for rng in streams]
    count = count_cycles if model is Model.CYCLES else count_inversions
    return [count(random_permutation(n, rng)) for rng in streams]


def batch_costs(model, n, seed, start, stop):
    return [c for chunk in _trial_costs(model, n, seed, start, stop) for c in chunk.tolist()]


def deepest_stack(n, seed, index):
    """Most subproblems of size 2 or more pending at once in quicksort
    trial ``index``: the depth its lockstep stack reaches."""
    rng = TrialStream(seed, index)
    stack = [n]
    deepest = 1
    while stack:
        size = stack.pop()
        rank = rng.randbelow(size)
        stack += [part for part in (rank, size - 1 - rank) if part >= 2]
        deepest = max(deepest, len(stack))
    return deepest


class TestBatchRoute:
    """The numpy counters against the scalar per-sample reference."""

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_n_matches_scalar(self, model, n):
        assert batch_costs(model, n, 5, 0, 50) == scalar_costs(model, n, 5, 0, 50)

    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(list(Model)),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 10**6),
    )
    def test_matches_scalar(self, model, n, seed, start):
        assert batch_costs(model, n, seed, start, start + 12) == scalar_costs(
            model, n, seed, start, start + 12
        )

    @pytest.mark.parametrize("model", list(Model))
    def test_trial_range_spanning_count_chunks(self, model):
        # n = 3000 counts 21 rows per chunk, so 50 trials span three chunks
        n, seed = 3000, 2**63 + 9
        assert batch_costs(model, n, seed, 7, 57) == scalar_costs(model, n, seed, 7, 57)

    def test_quicksort_stack_grows(self, monkeypatch):
        monkeypatch.setattr(simulate, "_STACK_COLUMNS", 1)
        assert batch_costs(Model.QUICKSORT, 300, 3, 0, 40) == scalar_costs(
            Model.QUICKSORT, 300, 3, 0, 40
        )

    def test_quicksort_stack_grows_past_its_start(self):
        # trials of n = 2000 hold up to 17 pending subproblems, past the
        # stack's first _STACK_COLUMNS columns
        n, seed, start, stop = 2000, 3, 0, 60
        assert max(deepest_stack(n, seed, i) for i in range(start, stop)) > _STACK_COLUMNS
        assert _quicksort_batch(seed, n, start, stop).tolist() == scalar_costs(
            Model.QUICKSORT, n, seed, start, stop
        )

    # Values computed with the per-trial scalar counters before the batch route.
    GOLDEN = [
        (Model.CYCLES, 40, 2, 3000, 77, "0x1.0a2a53490b9afp+4", "0x1.004a9484fab29p-2"),
        (Model.CYCLES, 3000, 3, 50, 2**63 + 5, "0x1.07b3333333333p+9", "0x1.0421c335c1e23p+6"),
        (Model.INVERSIONS, 20, 2, 2000, 5, "0x1.1fd676c8b4396p+13", "0x1.0795b392d85dep+6"),
        (Model.INVERSIONS, 700, 1, 60, 11, "0x1.dbdaf77777777p+16", "0x1.68220e2980622p+8"),
        (Model.QUICKSORT, 30, 2, 3000, 4, "0x1.0138cf87d9c55p+14", "0x1.3891b1572b36ep+6"),
        (Model.QUICKSORT, 500, 3, 200, 2**64 - 1, "0x1.a064aaf9d35c3p+36", "0x1.8f17676221a93p+30"),
    ]

    @pytest.mark.parametrize("model,n,s,trials,seed,mean,stderr", GOLDEN)
    def test_golden_estimates(self, model, n, s, trials, seed, mean, stderr):
        est = estimate_factorial_moment(model, n, s, trials, seed)
        assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


def _unxorshift(z, k):
    """Inverse of z -> z ^ (z >> k) on 64-bit words."""
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x


def unmix64(z):
    """Inverse of ``mix64``: its xor-shifts and odd multipliers are
    invertible mod 2^64."""
    z = _unxorshift(z, 31)
    z = z * pow(_MIX2, -1, 1 << 64) & _MASK64
    z = _unxorshift(z, 27)
    z = z * pow(_MIX1, -1, 1 << 64) & _MASK64
    return _unxorshift(z, 30)


class _BoundsStream(TrialStream):
    """A trial stream that records (first word, bound) of each bounded draw."""

    __slots__ = ("bounds",)

    def __init__(self, seed, index):
        super().__init__(seed, index)
        self.bounds = []

    def randbelow(self, bound):
        self.bounds.append((self.counter + 1, bound))
        return super().randbelow(bound)


class TestDrawMatrix:
    """The Fisher-Yates draws taken all at once, the Feller cycle count and
    the fallback of lanes whose words may have been rejected."""

    def test_unmix64(self):
        for z in (0, 1, 2**63, _MASK64, 0x0123456789ABCDEF):
            assert unmix64(_mix64(z)) == z == _mix64(unmix64(z))

    def test_mix64_np_leaves_its_input(self):
        # the quicksort lockstep mixes its stream states and keeps them
        z = np.array([0, 1, 2**63, _MASK64, 0x0123456789ABCDEF], dtype=np.uint64)
        before = z.tolist()
        assert _mix64_np(z).tolist() == [_mix64(w) for w in before]
        assert z.tolist() == before

    @pytest.mark.parametrize("model", [Model.CYCLES, Model.INVERSIONS])
    def test_rejected_word_falls_back_to_scalar(self, model):
        # word t of trial 3 is mix64(0) = 0; it serves pos = n - t, whose
        # bound 7 is not a power of two, so 0 < 2^64 mod 7 is rejected
        n, t, trial = 10, 4, 3
        seed = (unmix64(-t * _GOLDEN & _MASK64) - (trial + 1) * _GOLDEN) & _MASK64
        stream = TrialStream(seed, trial)
        for _ in range(t - 1):
            stream.next_uint64()
        assert stream.next_uint64() == 0
        stream.counter = t - 1
        stream.randbelow(n - t + 1)
        assert stream.counter == t + 1  # the zero word was redrawn
        rejected = _shuffle_draws(_stream_states(seed, 0, 8), n, 1, n)[1]
        assert rejected.tolist() == [i == trial for i in range(8)]
        assert batch_costs(model, n, seed, 0, 8) == scalar_costs(model, n, seed, 0, 8)
        assert _permutation_batch(seed, n, 0, 8).tolist() == [
            random_permutation(n, TrialStream(seed, i)) for i in range(8)
        ]

    @pytest.mark.parametrize(
        "n,t,trial,accepted",
        [
            (10, 1, 3, False),
            (64, 1, 0, True),  # bound 64 = 2^6: 2^64 mod 64 = 0 and the zero word stands
            (64, 5, 9, True),  # bound 16
            (64, 2, 7, False),
            (30, 20, 17, False),
            (200, 50, 1, False),
            (1000, 300, 40, False),
        ],
    )
    def test_rejected_quicksort_word_falls_back_to_scalar(self, n, t, trial, accepted):
        # word t of the trial is mix64(0) = 0, below any bound it serves, so
        # the lockstep marks the trial and the scalar loop runs it again
        seed = (unmix64(-t * _GOLDEN & _MASK64) - (trial + 1) * _GOLDEN) & _MASK64
        stream = _BoundsStream(seed, trial)
        quicksort_comparisons(n, stream)
        bound = dict(stream.bounds)[t]
        assert ((1 << 64) % bound == 0) == accepted
        assert stream.counter == len(stream.bounds) + (not accepted)
        expected = scalar_costs(Model.QUICKSORT, n, seed, 1, 41)
        assert _quicksort_batch(seed, n, 1, 41).tolist() == expected
        assert batch_costs(Model.QUICKSORT, n, seed, 1, 41) == expected

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 1 << 16])
    @pytest.mark.parametrize("n,t,trial", [(10, 4, 3), (10, 1, 0), (10, 9, 2), (12, 5, 6)])
    def test_lane_cycles_redraws_rejected_word(self, n, t, trial, chunk, monkeypatch):
        # word t is 0 and rejected at bound n - t + 1; chunks of 1-4 words
        # put it at every place in its chunk
        seed = (unmix64(-t * _GOLDEN & _MASK64) - (trial + 1) * _GOLDEN) & _MASK64
        expected = count_cycles(random_permutation(n, TrialStream(seed, trial)))
        monkeypatch.setattr(simulate, "_COUNT_CHUNK", chunk)
        assert _lane_cycles(seed, n, trial) == expected
        for i in range(4):
            assert _lane_cycles(seed + i, 57, i) == count_cycles(
                random_permutation(57, TrialStream(seed + i, i))
            )

    def test_cycles_build_no_permutation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cycles route shuffled a permutation")

        # the second seed's trial 3 rejects its fourth word
        rejecting = (unmix64(-4 * _GOLDEN & _MASK64) - 4 * _GOLDEN) & _MASK64
        expected = scalar_costs(Model.CYCLES, 200, 7, 0, 300)
        expected_rejecting = scalar_costs(Model.CYCLES, 10, rejecting, 0, 8)
        monkeypatch.setattr(simulate, "_permutation_batch", refuse)
        monkeypatch.setattr(simulate, "random_permutation", refuse)
        assert batch_costs(Model.CYCLES, 200, 7, 0, 300) == expected
        assert batch_costs(Model.CYCLES, 10, rejecting, 0, 8) == expected_rejecting

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 1 << 16])
    @pytest.mark.parametrize("n,t,trial", [(10, 4, 3), (10, 1, 0), (10, 9, 2), (12, 5, 6)])
    def test_lane_permutation_redraws_rejected_word(self, n, t, trial, chunk, monkeypatch):
        # as for cycles: word t is 0 and rejected, at every place in its chunk
        seed = (unmix64(-t * _GOLDEN & _MASK64) - (trial + 1) * _GOLDEN) & _MASK64
        expected = random_permutation(n, TrialStream(seed, trial))
        monkeypatch.setattr(simulate, "_COUNT_CHUNK", chunk)
        lane = _lane_permutation(seed, n, trial)
        assert lane.tolist() == expected
        assert _bitset_inversions(lane[:, None]).tolist() == [count_inversions(expected)]
        for i in range(4):
            assert _lane_permutation(seed + i, 57, i).tolist() == random_permutation(
                57, TrialStream(seed + i, i)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 10**6),
        lanes=st.integers(1, 7),
    )
    def test_bitset_matches_scalar_across_blocks(self, n, seed, start, lanes):
        # blocks of 1-7 lanes split the 15 trials at every offset
        expected = scalar_costs(Model.INVERSIONS, n, seed, start, start + 15)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_SHUFFLE_LANES", lanes)
            assert batch_costs(Model.INVERSIONS, n, seed, start, start + 15) == expected

    @pytest.mark.parametrize("n", [3000, _BITSET_MAX_N - 1, _BITSET_MAX_N, _BITSET_MAX_N + 1])
    def test_inversion_routes_at_the_crossover(self, n):
        seed, start = 2**64 - 17, 4
        assert batch_costs(Model.INVERSIONS, n, seed, start, start + 3) == scalar_costs(
            Model.INVERSIONS, n, seed, start, start + 3
        )
        perms = _permutation_batch(seed, n, start, start + 3)
        assert _bitset_inversions(perms.T).tolist() == _inversions_batch(perms).tolist()

    def test_inversions_below_the_crossover_merge_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bitset route merged or shuffled a lane in Python")

        # trial 3 of the second seed rejects its fourth word, and trial 203
        # of the third its fifth, in a block of 300 lanes
        rejecting = (unmix64(-4 * _GOLDEN & _MASK64) - 4 * _GOLDEN) & _MASK64
        wide = (unmix64(-5 * _GOLDEN & _MASK64) - 204 * _GOLDEN) & _MASK64
        assert _shuffle_draws(_stream_states(wide, 0, 300), 40, 1, 40)[1].tolist() == [
            i == 203 for i in range(300)
        ]
        cases = [(200, 7, 300), (10, rejecting, 8), (40, wide, 300), (_BITSET_MAX_N, 3, 2)]
        expected = [scalar_costs(Model.INVERSIONS, n, seed, 0, m) for n, seed, m in cases]
        monkeypatch.setattr(simulate, "_inversions_batch", refuse)
        monkeypatch.setattr(simulate, "random_permutation", refuse)
        for (n, seed, m), costs in zip(cases, expected):
            assert batch_costs(Model.INVERSIONS, n, seed, 0, m) == costs

    def test_inversions_memory_budget(self):
        # the budget admits n <= 2^23, the edge its row of tools/limits.py
        # runs, and refuses more before any work
        assert _inversions_bytes(1 << 23) <= _INVERSIONS_BUDGET < _inversions_bytes((1 << 23) + 1)
        assert max(_inversions_bytes(n) for n in range(1, 20_000, 7)) < 32 << 20

    def test_inversions_bytes_count_the_slot_dtype(self):
        # int16 slots below 2^15, int32 from it; at n = 2^15 - 1 and 2^15
        # the blocks hold 61 lanes and the merge's runs are the same
        assert _inversions_bytes(200) == 2 * 200 * 2048
        edge = 1 << 15
        slots = (4 * edge - 2 * (edge - 1)) * 61
        assert _inversions_bytes(edge) - _inversions_bytes(edge - 1) == slots

    @pytest.mark.parametrize("model", list(Model))
    def test_draws_span_chunks(self, model, monkeypatch):
        # 64-word chunks split each row of n = 150 into three column spans,
        # and the inversions lockstep's 40 lanes into a position per chunk
        monkeypatch.setattr(simulate, "_COUNT_CHUNK", 64)
        monkeypatch.setattr(simulate, "_SHUFFLE_CHUNK", 64)
        assert batch_costs(model, 150, 11, 5, 45) == scalar_costs(model, 150, 11, 5, 45)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), start=st.integers(0, 10**6))
    def test_quicksort_lockstep_matches_scalar(self, n, seed, start):
        # blocks this small run the scalar loop in the estimator
        assert _quicksort_batch(seed, n, start, start + 12).tolist() == scalar_costs(
            Model.QUICKSORT, n, seed, start, start + 12
        )

    def test_quicksort_few_trials_run_scalar(self, monkeypatch):
        few = _LOCKSTEP_MIN_TRIALS - 1
        lockstep = _quicksort_batch(13, 400, 0, few).tolist()
        assert lockstep == scalar_costs(Model.QUICKSORT, 400, 13, 0, few)
        monkeypatch.setattr(simulate, "_quicksort_batch", None)
        assert batch_costs(Model.QUICKSORT, 400, 13, 0, few) == lockstep


class TestWorkingSet:
    """Peak traced allocation of a full block at the montecarlo workload's
    top size, n = 200: 1.3-1.5 MiB, where a 4096 x 64 quicksort stack and
    int32 slots mixed 2^16 words at a time held 4.45 and 3.61 MiB."""

    @pytest.mark.parametrize("model,trials", [(Model.QUICKSORT, 4096), (Model.INVERSIONS, 2048)])
    def test_block_peak(self, model, trials):
        _accumulate_range(model, 200, 2, 5, 0, 64)  # imports numpy outside the trace
        tracemalloc.start()
        try:
            _accumulate_range(model, 200, 2, 5, 0, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestDeadWorker:
    def test_broken_pool_is_a_resource_limit(self, killed_workers):
        # only a pool raises this: in this process the killed range raises AssertionError
        with pytest.raises(ResourceLimitError) as info:
            estimate_factorial_moment(Model.CYCLES, 50, 1, 1000, 1, threads=2)
        assert str(info.value) == "a worker process ended abruptly; no estimate"
        assert info.value.__cause__ is None and info.value.__suppress_context__


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and maps in this process, so no worker is started."""

    asked: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkerCount:
    """The CPUs bound the pool; one worker per draw, so the draws never do."""

    ARGS = dict(model=Model.INVERSIONS, n=30, s=2, trials=500, seed=8)

    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(RecordingExecutor, "asked", [])
        monkeypatch.setattr(simulate, "_DRAWS_PER_WORKER", 1)

    def test_at_most_one_worker_per_cpu(self):
        est = estimate_factorial_moment(**self.ARGS, threads=10_000)
        cpus = simulate._usable_cpus()
        assert RecordingExecutor.asked == ([cpus] if cpus > 1 else [])
        assert cpus <= (os.cpu_count() or 1)
        assert est == estimate_factorial_moment(**self.ARGS, threads=1)

    def test_pool_sized_by_cpus_and_ranges(self, monkeypatch):
        # the CPUs of the affinity mask, not every CPU of the machine
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        est = estimate_factorial_moment(**self.ARGS, threads=10_000)
        few = estimate_factorial_moment(**{**self.ARGS, "trials": 2}, threads=10_000)
        assert RecordingExecutor.asked == [3, 2]
        assert est == estimate_factorial_moment(**self.ARGS, threads=1)
        assert few == estimate_factorial_moment(**{**self.ARGS, "trials": 2})

    def test_one_cpu_affinity_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        est = estimate_factorial_moment(**self.ARGS, threads=2)
        assert RecordingExecutor.asked == []
        assert est == estimate_factorial_moment(**self.ARGS, threads=1)

    def test_cpu_count_without_affinity(self, monkeypatch):
        # platforms without sched_getaffinity fall back to os.cpu_count
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        estimate_factorial_moment(**self.ARGS, threads=10_000)
        assert RecordingExecutor.asked == [3]


class TestDrawQuantum:
    """One worker per whole ``_DRAWS_PER_WORKER`` = 2^22 draws, (n - 1) x
    trials, at its real value: cycles at n near 2^22 count these draws in
    about 0.2 s.  The pool maps in this process and 8 CPUs are usable."""

    Q = simulate._DRAWS_PER_WORKER

    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(RecordingExecutor, "asked", [])
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)

    # 2^22 - 1 = 3 x 1398101 and 2^23 - 1 = 47 x 178481
    @pytest.mark.parametrize("n, trials, quanta", [(1398102, 3, 1), (178482, 47, 2)])
    def test_one_draw_below_runs_in_process(self, n, trials, quanta):
        assert (n - 1) * trials == quanta * self.Q - 1
        est = estimate_factorial_moment(Model.CYCLES, n, 2, trials, 3, threads=8)
        assert RecordingExecutor.asked == []
        assert est == estimate_factorial_moment(Model.CYCLES, n, 2, trials, 3, threads=1)

    @pytest.mark.parametrize("n, trials, k", [(2**21 + 1, 2, 1), (2**22 + 1, 2, 2), (2**22 + 1, 3, 3)])
    def test_k_quanta_start_k_workers(self, n, trials, k):
        assert (n - 1) * trials == k * self.Q
        est = estimate_factorial_moment(Model.CYCLES, n, 2, trials, 3, threads=8)
        assert RecordingExecutor.asked == ([] if k == 1 else [k])
        if k == 3:
            assert est == estimate_factorial_moment(Model.CYCLES, n, 2, trials, 3, threads=1)

    def test_threads_still_bound_the_workers(self):
        estimate_factorial_moment(Model.CYCLES, 2**22 + 1, 2, 3, 3, threads=2)
        assert RecordingExecutor.asked == [2]
