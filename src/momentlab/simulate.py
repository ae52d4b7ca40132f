"""Monte Carlo estimation of factorial moments under uniform random
permutations, with a pinned, fully reproducible random number generator.

RNG contract
------------
Randomness comes from SplitMix64 run in counter mode.  With the 64-bit
finalizer ``mix64`` (xor-shift/multiply constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) and GOLDEN = 0x9E3779B97F4A7C15, trial ``i`` of seed
``seed`` draws its t-th word (t = 1, 2, ...) as

    base_i = mix64((seed + (i+1) * GOLDEN) mod 2^64)
    word_t = mix64((base_i + t * GOLDEN) mod 2^64)

Every trial owns its own stream, so results are independent of execution
order and of the ``threads`` setting; bounded draws use rejection sampling,
so shuffles are exactly uniform.  Fixed seed means bit-identical results
across runs and platforms.

Per-trial falling factorials are exact integers and are accumulated as
exact integer sums, so parallel execution reproduces the sequential result
bit for bit.

Batch route
-----------
The estimator counts whole blocks of trials in numpy, drawing the same
words from the same streams as the scalar ``random_permutation``,
``count_cycles``, ``count_inversions`` and ``quicksort_comparisons``, which
stay as the per-sample API and the tests' reference.

Every batch route follows one rejection policy.  ``randbelow(bound)``
rejects a word only when it is below 2^64 mod bound, which is less than
bound, so the batch takes every draw as word mod bound and marks each
trial where some word is below its bound (for a shuffle, a share below
n^2 / 2^65 of the trials).  After the block, each marked trial is computed
again on its own, exactly as its stream draws.

The descending Fisher-Yates shuffle draws its words in a fixed order: word
t (t = 1..n-1) of a trial serves pos = n - t and gives
j = word mod (pos + 1), so a block's draws are one vectorised (words x
lanes) mix, ``_shuffle_draws``.  A marked lane is drawn again by
``_lane_draws``, which applies the rejection rule to a chunk of words at a
time: cycles are counted from its draws by ``_lane_cycles``, and
inversions shuffled by ``_lane_permutation`` into an array of slots.  Slots
are int16 below n = 2^15 and int32 from it, on every route.  The draws are
mixed at most ``_COUNT_CHUNK`` = 2^16 words at a time, and the lockstep
shuffle's at most ``_SHUFFLE_CHUNK`` = 2^14, so no temporary grows with the
block.  ``_mix64_np`` writes its output in place beside one temporary.

- cycles: the shuffle closes a cycle exactly when step pos draws j = pos,
  so count_cycles = 1 + #{pos : j = pos} and no permutation is built (the
  Feller coupling: W. Feller, "The fundamental limit theorems in
  probability", Bull. AMS 51 (1945); R. Arratia, A. D. Barbour and
  S. Tavare, *Logarithmic Combinatorial Structures*, EMS 2003, ch. 1).
  ``_feller_cycles`` counts chunks of max(1, 2^16 // n) trials.
- inversions: ``_permutation_batch`` shuffles blocks of
  ``_shuffle_block(n)`` = min(2048, 2_000_000 // n) trials in lockstep,
  three fancy-index operations per position on all of the block's lanes,
  into a position-major array whose row k holds slot k of every lane; a
  block of fewer than ``_LOCKSTEP_MIN_LANES`` = 6 lanes (n above about
  3.3 x 10^5, or few trials) is shuffled by ``_lane_permutation`` one lane
  at a time, which costs less there.  Up to n =
  ``_BITSET_MAX_N`` = 6000, ``_bitset_inversions`` counts the block in one
  sweep over its rows.  Each lane keeps a bitset of the values it has
  seen, in (n >> 6) + 1 uint64 words, and a running count of its seen
  values in the words below each word.  Slot k then adds
  k minus its seen values below its own value v: the count for the words
  below v's word plus the popcount (``np.bitwise_count``, numpy >= 2.0) of
  the bits below v in it.  That is O(n^2 / 64) word operations per trial,
  a few numpy calls per position on all of the block's lanes.  Above the
  crossover ``_inversions_batch``, a flattened bottom-up merge in
  O(n log n), counts the block in chunks of max(1, 2^16 // n) rows, which
  keeps its temporaries below the block's size.  An inversions estimate
  whose block and merge would hold more than ``_INVERSIONS_BUDGET`` bytes
  is refused before any work.
- quicksort: ``_quicksort_batch`` runs blocks of 4096 trials in lockstep,
  one stack of subproblem sizes per trial.  The stacks start
  ``_STACK_COLUMNS`` = 16 uint64 columns deep and double when a trial's
  pending subproblems fill them: no trial of a 4096-trial block at
  n = 200 held more than 13, some at n = 2000 hold 20.  The draw order
  follows the stack, so its words cannot be drawn ahead.  A marked trial
  is run again by the scalar ``quicksort_comparisons``.  The lockstep
  spreads numpy's per-call cost over the live trials, about 30 us per step,
  so a block of fewer than ``_LOCKSTEP_MIN_TRIALS`` = 30 trials runs the
  scalar loop, which draws the same words.

Each block's costs are reduced to distinct values and multiplicities, and
(X)_s and its square are summed as Python ints.  An estimate that needs
more than ``MAX_DRAWS`` = 2^31 draws, (n - 1) x trials, is refused before
any work; the measurements behind the cap are next to it.

``threads`` bounds the worker processes; the draws set how many run.  An
estimate starts one worker per whole ``_DRAWS_PER_WORKER`` = 2^22 draws, at
most ``threads`` and one per usable CPU, each counting an equal range of
trials.  Below two quanta it runs in this process and starts no pool: a
pool's fork, start and join cost more than a second worker saves on fewer
draws (the measurements are next to the constant).

numpy and the process pool are imported inside the functions that use
them, not at module level, so importing this module for its scalar
counters loads neither.  The module loads no other layer, as ``Model``
comes from the package root, and no ``fractions``: the mean and standard
error are the exact sums' quotients, each rounded once by int / int.
"""

import collections
import math
import os
from typing import TYPE_CHECKING

from . import _EXPORTS, Model, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["simulate"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BATCH = 4096  # trials per lockstep quicksort block
# Permutations shuffled and counted in lockstep.  The shuffle and the
# bitset each run a few numpy calls per position on all of a block's lanes,
# so wider blocks spread the calls' fixed cost.  At n = 200 the bitset took
# 0.013, 0.0057 and 0.0037 ms per trial on blocks of 512, 2048 and 4096
# lanes (the merge 0.022-0.027 on any), shuffle and bitset together
# 0.014-0.016, 0.0073-0.0081 and 0.0074-0.0077 ms, and `simulate --model
# inversions --n 200 --trials 5000` peaked at 29.5, 30.2 and 30.7 MB RSS
# (medians of 5), where quicksort and cycles requests of the same size peak
# at 29.7 and 29.5 MB.  2048 lanes hold 0.8 MB of int16 slots at n = 200.
_SHUFFLE_LANES = 2048
_SHUFFLE_ENTRIES = 2_000_000  # cap on the slots of one block
_SHUFFLE_CHUNK = 1 << 14  # words a lockstep shuffle mixes at once
# Blocks of fewer lanes are shuffled one lane at a time.  The lockstep pays
# three numpy calls per position whatever the lanes, the per-lane swap
# loop a fixed cost per slot.  CPU seconds, lockstep against per lane
# (Python 3.11, numpy 2.4, 2-core x86-64), at 2, 4, 6, 8 and 10 lanes:
# n = 2 x 10^5 0.33/0.12, 0.34/0.22, 0.33-0.36/0.31-0.33, 0.37/0.43,
# 0.38/0.56; n = 2 x 10^4 0.032/0.011, 0.034/0.022, 0.024-0.034/0.023-0.030,
# 0.034/0.041, 0.036/0.053; n = 10^6 1.80/0.57 at 2 lanes and 1.87/0.33 at 1.
_LOCKSTEP_MIN_LANES = 6
_COUNT_CHUNK = 1 << 16  # permutation entries counted at once
# Largest n whose inversions are counted by the bitset; the merge counts
# above it.  The bitset costs O(n^2 / 64) per trial, the merge O(w log w)
# for n padded to the power of two w.  CPU ms per trial, bitset against
# merge, on blocks of _shuffle_block(n) lanes (Python 3.11, numpy 2.4,
# 2-core x86-64): n = 500 0.017/0.058, 2000 0.15/0.22, 4096 0.55/0.51,
# 4500 0.65/1.06, 5500 0.96/1.11, 6000 1.15/1.17, 6500 1.36/1.08, 7000
# 1.48/1.02, 8192 1.89/0.98.  Past 8192 the merge doubles its width, and
# the bitset is ahead again up to about n = 9000 (8193: 1.98/2.42, 9500:
# 2.53/2.39), a stretch left to the merge so that one n splits the routes.
_BITSET_MAX_N = 6000
_STACK_COLUMNS = 16  # initial lockstep quicksort stack depth; doubles as needed
# Quicksort blocks with fewer trials run the scalar loop.  Lockstep costs
# about the same for any block this small, the scalar loop grows with the
# trials.  CPU seconds of `_quicksort_batch` against the scalar loop in one
# process, medians of 5 alternated runs at 10, 20, 30 and 40 trials (Python
# 3.11, numpy 2.4, 2-core x86-64): n = 10^5 1.72/0.83, 1.70/1.38,
# 2.02/2.64, 1.85/3.35; n = 10^4 0.120/0.060, 0.123/0.105, 0.124/0.165,
# 0.159/0.261; n = 1000 0.014/0.005, 0.012/0.011, 0.017/0.019, 0.015/0.023.
# The scalar loop leads at 20 and the lockstep at 30 at every n, as with
# the 64-column stack (n = 10^5 2.25/2.01 and 2.22/2.80).  At 25 the
# lockstep led by 7-9%, inside the host's drift, so the cut stays.
_LOCKSTEP_MIN_TRIALS = 30
# Cap on the draws of one estimate, (n - 1) x trials: every trial of every
# model draws at most n - 1 bounded words, one per Fisher-Yates step or
# quicksort partition.  Draws per CPU second, by the CLI (same box):
# cycles 5.9e7 (n = 10^7, 10 trials), quicksort 1.0e6 (n = 10^6, 10
# trials, scalar loop) and 3.6e6 (n = 10^5, 100 trials, lockstep),
# inversions 1.1e6 (n = 10^6, 4 trials, blocks of 2 lanes shuffled one
# lane at a time; 6.9e5 in lockstep) and 1.6e6 (n = 10^5, 40 trials),
# medians of 3, above the n of the bitset route.
# At the cap, cycles at n = 2^30 + 1 with 2 trials took 64 s and 34 MB;
# the slowest rates above, 1.0e6-1.1e6, would need about half an hour.
# n = 10^12 with 2 trials would need hours to weeks and is refused at once.
# Re-measured by `python3 tools/limits.py max-draws`.
MAX_DRAWS = 1 << 31
# Memory budget of one worker on the inversions route, ``_inversions_bytes``:
# a block's slots (``_slot_bytes``: int16 below n = 2^15, int32 from it, so
# int32 at every n near the budget) and, above _BITSET_MAX_N, the merge's
# runs and sort temporaries, about seven int64 arrays of its rows padded to
# a power of two.  `simulate --model inversions --trials 2` held, above the
# imports, 61 MiB at n = 2^20 and 121 MiB at n = 2^21 (4 bytes a slot and
# 56 a padded entry), and 117 MiB at n = 2^20 + 1, padded to 2^21.  The budget
# admits n <= 2^23 (480 MiB by the model), which took 15-18 s CPU and
# peaked at 455 MiB RSS; n = 2^27 would hold 7.5 GiB and is refused at once.
# Re-measured by `python3 tools/limits.py inversions-memory`.
_INVERSIONS_BUDGET = 512 << 20
# Draws, (n - 1) x trials, per worker process (see the module docstring).  A
# worker's fork and the pool's start and join cost 25-60 ms CPU at every size,
# and a second worker saves at most half the draws' wall time.  Wall seconds
# of fresh `simulate --n 300 --s 2` requests on 1/2 workers, two runs (medians
# of 7; from 2^22, of 5) on a 2-core x86-64 box shared with other load,
# Python 3.11, numpy 2.4:
#
#   draws       2^20       2^21       2^22        2^23        2^24
#   cycles      0.13/0.16  0.18/0.24  0.17/0.19;  0.22/0.26;  0.35/0.40;
#                                     0.22/0.20   0.26/0.23   0.41/0.30
#   inversions  0.14/0.17  0.18/0.21  0.25/0.28;  0.38/0.42;  0.70/0.45;
#                                     0.28/0.24   0.46/0.37   0.80/0.50
#   quicksort   0.14/0.17  0.14/0.15  0.19/0.19;  0.28/0.24;  0.48/0.33;
#                                     0.24/0.22   0.31/0.26   0.69/0.40
#
# Two workers lost at 2^20 and 2^21 draws, and from 2^23 won in 9 of the 12
# cells, every cell of the second run.
_DRAWS_PER_WORKER = 1 << 22


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class TrialStream:
    """One trial's random stream (see module docstring for the definition)."""

    __slots__ = ("base", "counter")

    def __init__(self, seed: int, index: int = 0):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if index < 0:
            raise ValueError("trial index must be nonnegative")
        self.base = _mix64(seed + (index + 1) * _GOLDEN)
        self.counter = 0

    def next_uint64(self) -> int:
        self.counter += 1
        return _mix64(self.base + self.counter * _GOLDEN)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (exactly unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) % bound
        while True:
            word = self.next_uint64()
            if word >= threshold:
                return word % bound


def random_permutation(n: int, rng: TrialStream) -> list[int]:
    """Uniformly random permutation of 1..n via an unbiased Fisher-Yates
    shuffle; deterministic given the stream state."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    arr = list(range(1, n + 1))
    for pos in range(n - 1, 0, -1):
        j = rng.randbelow(pos + 1)
        arr[pos], arr[j] = arr[j], arr[pos]
    return arr


# -- vectorized batch twins ---------------------------------------------------

def _mix64_np(z):
    """``mix64`` of every word of the array ``z``, into a new array.  ``z``
    is never written: the first shift allocates the output, and the steps
    after it run in place beside one shift temporary."""
    import numpy as np
    out = z >> np.uint64(30)
    out ^= z
    del z  # a temporary argument is freed here, not on return
    out *= np.uint64(_MIX1)
    shifted = out >> np.uint64(27)
    out ^= shifted
    out *= np.uint64(_MIX2)
    out ^= np.right_shift(out, np.uint64(31), out=shifted)
    return out


def _stream_states(seed: int, start: int, stop: int) -> "np.ndarray":
    """SplitMix64 states of the streams of trials start..stop-1 before
    their first word: base_i, as uint64.  A stream that has drawn t words
    is at state base_i + t * GOLDEN."""
    import numpy as np
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64_np(np.uint64(seed) + idx * np.uint64(_GOLDEN))


def _shuffle_draws(base: "np.ndarray", n: int, first: int, last: int):
    """The Fisher-Yates draws j = word mod (pos + 1) of words first..last-1
    of the lanes with stream states ``base``, one row per word (word t
    serves pos = n - t) and one column per lane, and the lanes where one of
    those words is below its bound and may have been rejected (see the
    module docstring).
    """
    import numpy as np
    t = np.arange(first, last, dtype=np.uint64)
    words = _mix64_np(t[:, None] * np.uint64(_GOLDEN) + base)
    bound = (np.uint64(n + 1) - t)[:, None]
    rejected = (words < bound).any(axis=0)
    return np.remainder(words, bound, out=words), rejected


def _permutation_batch(seed: int, n: int, start: int, stop: int) -> "np.ndarray":
    """Permutations for trials start..stop-1, one per row.

    Word-for-word identical to driving ``random_permutation`` with each
    trial's ``TrialStream`` (asserted in the test suite).  The draws are
    mixed by ``_shuffle_draws`` about ``_SHUFFLE_CHUNK`` words at a time,
    and each position is swapped on every lane at once in a position-major
    array, where slot k of lane i sits at flat index k * lanes + i, so the
    transpose of the result is that array.  A lane where a word may have
    been rejected is shuffled again by ``_lane_permutation``, as is every
    lane of a block of fewer than ``_LOCKSTEP_MIN_LANES``.
    """
    import numpy as np
    lanes = stop - start
    if lanes < _LOCKSTEP_MIN_LANES:
        perms = [_lane_permutation(seed, n, i) for i in range(start, stop)]
        return np.stack(perms, axis=1).T
    base = _stream_states(seed, start, stop)
    slots = np.repeat(np.arange(1, n + 1, dtype=_slot_dtype(n)), lanes).reshape(n, lanes)
    flat = slots.reshape(-1)
    lane = np.arange(lanes, dtype=np.intp)
    suspect = np.zeros(lanes, dtype=bool)
    step = max(1, _SHUFFLE_CHUNK // lanes)
    for first in range(1, n, step):
        last = min(first + step, n)
        j, rejected = _shuffle_draws(base, n, first, last)
        suspect |= rejected
        at = j.astype(np.intp)
        at *= lanes
        at += lane
        for pos, where in zip(range(n - first, n - last, -1), at):
            held = slots[pos].copy()
            slots[pos] = flat[where]
            flat[where] = held
    perms = slots.T
    for i in np.flatnonzero(suspect).tolist():
        perms[i] = _lane_permutation(seed, n, start + i)
    return perms


def _feller_cycles(seed: int, n: int, start: int, stop: int) -> "np.ndarray":
    """``count_cycles`` of the permutations of trials start..stop-1,
    without building them (the Feller coupling, see the module docstring):
    1 + the number of steps whose draw j equals its pos.
    """
    import numpy as np
    base = _stream_states(seed, start, stop)
    cycles = np.ones(stop - start, dtype=np.int64)
    suspect = np.zeros(stop - start, dtype=bool)
    for first in range(1, n, _COUNT_CHUNK):
        last = min(first + _COUNT_CHUNK, n)
        j, rejected = _shuffle_draws(base, n, first, last)
        pos = np.arange(n - first, n - last, -1, dtype=np.uint64)
        cycles += (j == pos[:, None]).sum(axis=0)
        suspect |= rejected
    for i in np.flatnonzero(suspect).tolist():
        cycles[i] = _lane_cycles(seed, n, start + i)
    return cycles


def _lane_draws(seed: int, n: int, index: int):
    """The Fisher-Yates draws of trial ``index`` as ``randbelow`` makes
    them, chunk by chunk: yields (pos, j), where j[t] is the draw of
    position pos - t.  The words are mixed at most ``_COUNT_CHUNK`` at a
    time, and a chunk ends at its first rejected word, so the next chunk
    redraws that word's pos from the next word.
    """
    import numpy as np
    base = np.uint64(TrialStream(seed, index).base)
    drawn = 0  # words drawn so far
    pos = n - 1
    while pos > 0:
        k = np.arange(min(_COUNT_CHUNK, pos), dtype=np.uint64)
        words = _mix64_np((k + np.uint64(drawn + 1)) * np.uint64(_GOLDEN) + base)
        bound = np.uint64(pos + 1) - k
        threshold = (np.uint64(_MASK64) % bound + np.uint64(1)) % bound
        rejected = np.flatnonzero(words < threshold)
        take = int(rejected[0]) if rejected.size else k.size
        yield pos, words[:take] % bound[:take]
        drawn += take + (take < k.size)
        pos -= take


def _lane_cycles(seed: int, n: int, index: int) -> int:
    """``count_cycles`` of trial ``index``'s permutation by the Feller
    coupling, from the draws of ``_lane_draws``."""
    import numpy as np
    cycles = 1
    for pos, j in _lane_draws(seed, n, index):
        cycles += int((j == np.arange(pos, pos - j.size, -1, dtype=np.uint64)).sum())
    return cycles


def _lane_permutation(seed: int, n: int, index: int) -> "np.ndarray":
    """``random_permutation`` of trial ``index`` as an array of
    ``_slot_dtype(n)``, the lockstep's slots, swapped by the draws of
    ``_lane_draws`` through a memoryview, whose items are read and written
    at list speed."""
    import numpy as np
    perm = np.arange(1, n + 1, dtype=_slot_dtype(n))
    slot = memoryview(perm)
    for pos, j in _lane_draws(seed, n, index):
        for p, q in zip(range(pos, pos - j.size, -1), j.tolist()):
            slot[p], slot[q] = slot[q], slot[p]
    return perm


def _bitset_inversions(slots: "np.ndarray") -> "np.ndarray":
    """``count_inversions`` of every lane of a position-major block, where
    row k holds slot k of every lane, by one sweep from left to right.

    Each lane keeps the values it has seen as a bitset of n + 1 bits in
    (n >> 6) + 1 uint64 words, value v at bit v & 63 of word v >> 6, and
    ``below`` counts, for each word, the lane's seen values in the words
    below it.  Of the k values seen before slot k, below[v >> 6] plus the
    popcount of the bits below v in its word are smaller than its value v,
    and the rest are inversions.
    """
    import numpy as np
    n, lanes = slots.shape
    words = (n >> 6) + 1
    one = np.uint64(1)
    bits = np.zeros(words * lanes, dtype=np.uint64)  # word w of lane i at w * lanes + i
    below = np.zeros((words, lanes), dtype=np.int16)  # n <= _BITSET_MAX_N < 2^15
    flat_below = below.reshape(-1)
    word_index = np.arange(words)[:, None]
    lane = np.arange(lanes)
    smaller = np.zeros(lanes, dtype=np.int64)  # pairs of slots in increasing order
    for v in slots:
        w = (v >> 6).astype(np.intp)
        at = w * lanes
        at += lane
        word = bits[at]
        bit = one << (v & 63).astype(np.uint64)
        smaller += np.bitwise_count(word & (bit - one))
        smaller += flat_below[at]
        bits[at] = word | bit
        below += word_index > w
    return n * (n - 1) // 2 - smaller


def _inversions_batch(perms: "np.ndarray") -> "np.ndarray":
    """``count_inversions`` of every row, by a flattened bottom-up merge.

    Rows are padded to a power of two ``width`` with n+1, n+2, ..., which
    add no inversions, and values are stored doubled.  At each level the
    right run of every pair of sorted runs gets its low bit set, and
    ``np.sort`` merges each pair.  A right element merged to place k of its
    pair, with j right elements before it, has k - j left elements below
    it and half - (k - j) above it; summed over the pair's right elements
    this is half^2 + half(half-1)/2 minus the sum of their places.
    """
    import numpy as np
    rows, n = perms.shape
    width = 1 << (n - 1).bit_length()
    runs = np.empty((rows, width), dtype=np.int64)
    runs[:, :n] = perms
    runs[:, n:] = np.arange(n + 1, width + 1, dtype=np.int64)
    runs <<= 1
    inversions = np.zeros(rows, dtype=np.int64)
    half = 1
    while half < width:
        place = np.arange(width, dtype=np.int64) % (2 * half)
        merged = np.sort(
            (runs + (place >= half)).reshape(-1, 2 * half), axis=1
        ).reshape(rows, width)
        right = merged & 1
        pairs = width // (2 * half)
        inversions += pairs * (half * half + half * (half - 1) // 2) - right @ place
        runs = merged - right
        half *= 2
    return inversions


def _quicksort_batch(seed: int, n: int, start: int, stop: int) -> "np.ndarray":
    """``quicksort_comparisons`` of trials start..stop-1, in lockstep.

    Every trial keeps its own stack of subproblem sizes; each step pops one
    size per live trial and draws its pivot rank, word mod size, from the
    next word of that trial's stream, in the scalar order.  Sizes below 2
    are never pushed: the scalar code pops them without drawing, so
    skipping them keeps every word in place.  Finished trials are dropped
    from the lanes, which stay contiguous.  A trial where some word is below
    its size, and may have been rejected, is run again by the scalar
    ``quicksort_comparisons``.
    """
    import numpy as np
    result = np.zeros(stop - start, dtype=np.int64)
    if n < 2:
        return result
    one, two, golden = np.uint64(1), np.uint64(2), np.uint64(_GOLDEN)
    lane = np.arange(stop - start)
    suspect = np.zeros(lane.size, dtype=bool)
    state = _stream_states(seed, start, stop)
    total = np.zeros(lane.size, dtype=np.uint64)
    stack = np.full((lane.size, _STACK_COLUMNS), n, dtype=np.uint64)
    depth = np.ones(lane.size, dtype=np.intp)
    rows = np.arange(lane.size)
    while lane.size:
        depth -= 1
        size = stack[rows, depth]
        rest = size - one
        total += rest
        state += golden
        word = _mix64_np(state)
        suspect[lane[word < size]] = True
        rank = word % size
        if depth.max() + 2 > stack.shape[1]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        # write both parts, keeping each only if it is at least 2
        stack[rows, depth] = rank
        depth += rank >= two
        rest -= rank
        stack[rows, depth] = rest
        depth += rest >= two
        if depth.min() == 0:
            done = depth == 0
            result[lane[done]] = total[done]
            live = ~done
            lane, state, total, stack, depth = (
                part[live] for part in (lane, state, total, stack, depth)
            )
            rows = np.arange(lane.size)
    for i in np.flatnonzero(suspect).tolist():
        result[i] = quicksort_comparisons(n, TrialStream(seed, start + i))
    return result


# -- cost statistics ---------------------------------------------------------

def _require_permutation(perm) -> int:
    n = len(perm)
    seen = bytearray(n)
    for v in perm:
        i = v - 1
        if not 0 <= i < n or seen[i]:
            raise ValueError("input is not a permutation of 1..n")
        seen[i] = 1
    return n


def count_cycles(perm) -> int:
    """Number of cycles (orbits) of a permutation of 1..n."""
    n = _require_permutation(perm)
    seen = bytearray(n)
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = perm[j] - 1
    return cycles


def count_inversions(perm) -> int:
    """Number of inversions, counted by an O(n log n) bottom-up merge."""
    n = _require_permutation(perm)
    src = list(perm)
    dst = [0] * n
    inversions = 0
    width = 1
    while width < n:
        lo = 0
        while lo < n:
            mid = lo + width
            if mid >= n:
                dst[lo:n] = src[lo:n]
                break
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                left = src[i]
                if left <= src[j]:
                    dst[k] = left
                    i += 1
                else:
                    dst[k] = src[j]
                    j += 1
                    inversions += mid - i
                k += 1
            if i < mid:
                dst[k:hi] = src[i:mid]
            else:
                dst[k:hi] = src[j:hi]
            lo = hi
        src, dst = dst, src
        width *= 2
    return inversions


def quicksort_comparisons(n: int, rng: TrialStream) -> int:
    """Total comparisons of one randomized quicksort run on n elements.

    Size recursion: partitioning a subproblem of size m costs exactly m-1
    comparisons and splits it at a uniformly random pivot rank.  This is
    distribution-identical to instrumenting quicksort on a random array
    (see ``comparisons_first_pivot``) but touches no array.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    total = 0
    stack = [n]
    while stack:
        m = stack.pop()
        if m < 2:
            continue
        total += m - 1
        rank = rng.randbelow(m)
        stack.append(rank)
        stack.append(m - 1 - rank)
    return total


def comparisons_first_pivot(perm) -> int:
    """Comparisons used by first-element-pivot quicksort on ``perm``.

    The instrumented array-based variant: on a uniformly random input its
    comparison count has the same distribution as ``quicksort_comparisons``.
    """
    _require_permutation(perm)
    total = 0
    stack = [list(perm)]
    while stack:
        seq = stack.pop()
        if len(seq) < 2:
            continue
        pivot = seq[0]
        total += len(seq) - 1
        stack.append([x for x in seq[1:] if x < pivot])
        stack.append([x for x in seq[1:] if x > pivot])
    return total


# -- moment estimation -------------------------------------------------------

class MomentEstimate(collections.namedtuple("MomentEstimate", "s n trials mean stderr seed")):
    """Empirical factorial moment: sample ``mean`` of (X)_s with its
    ``stderr`` (floats), plus the ints ``s``, ``n``, ``trials`` and ``seed``
    that reproduce it."""

    __slots__ = ()


def _trial_costs(model: Model, n: int, seed: int, start: int, stop: int):
    """Costs of trials start..stop-1 in order, as one int64 array per
    counted block or chunk (see module docstring for the rule)."""
    import numpy as np
    chunk = max(1, _COUNT_CHUNK // n)  # cap draw and counting temporaries
    if model is Model.CYCLES:
        for lo in range(start, stop, chunk):
            yield _feller_cycles(seed, n, lo, min(lo + chunk, stop))
    elif model is Model.INVERSIONS:
        block = _shuffle_block(n)
        for lo in range(start, stop, block):
            perms = _permutation_batch(seed, n, lo, min(lo + block, stop))
            if n <= _BITSET_MAX_N:
                yield _bitset_inversions(perms.T)
            else:
                for row in range(0, len(perms), chunk):
                    yield _inversions_batch(perms[row:row + chunk])
            del perms  # before the next block is shuffled
    else:
        for lo in range(start, stop, _BATCH):
            hi = min(lo + _BATCH, stop)
            if hi - lo < _LOCKSTEP_MIN_TRIALS:
                yield np.array(
                    [quicksort_comparisons(n, TrialStream(seed, i)) for i in range(lo, hi)],
                    dtype=np.int64,
                )
            else:
                yield _quicksort_batch(seed, n, lo, hi)


def _shuffle_block(n: int) -> int:
    """Lanes of one inversions block at size n."""
    return max(1, min(_SHUFFLE_LANES, _SHUFFLE_ENTRIES // n))


def _slot_bytes(n: int) -> int:
    """Bytes of one permutation slot at size n: int16 holds 1..n below 2^15."""
    return 2 if n < 1 << 15 else 4


def _slot_dtype(n: int) -> str:
    return f"int{8 * _slot_bytes(n)}"


def _inversions_bytes(n: int) -> int:
    """Bytes the inversions route holds at once at size n (see
    ``_INVERSIONS_BUDGET``)."""
    held = _slot_bytes(n) * n * _shuffle_block(n)
    if n > _BITSET_MAX_N:
        held += 56 * max(1, _COUNT_CHUNK // n) * (1 << (n - 1).bit_length())
    return held


def _accumulate_range(model: Model, n: int, s: int, seed: int, start: int, stop: int):
    """Exact integer sums of (X)_s and (X)_s^2 over trials start..stop-1."""
    import numpy as np
    total = 0
    total_sq = 0
    for costs in _trial_costs(model, n, seed, start, stop):
        values, counts = np.unique(costs, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            ff = math.perm(value, s)
            total += count * ff
            total_sq += count * ff * ff
    return total, total_sq


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, which ``os.cpu_count`` ignores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate_factorial_moment(
    model: Model,
    n: int,
    s: int,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> MomentEstimate:
    """Monte Carlo estimate of the s-th factorial moment at size n.

    Per-trial streams make the result a pure function of (model, n, s,
    trials, seed); ``threads`` only changes how trial ranges are divided
    among worker processes, never the result.  It is an upper bound: at
    most one worker is started per CPU of the process's affinity mask and
    per whole ``_DRAWS_PER_WORKER`` draws, since more only add start-up
    cost, so an estimate of fewer than twice that many draws runs in this
    process and starts no pool.  A request of more than
    MAX_DRAWS draws, (n - 1) x trials, or an inversions request that would
    hold more than ``_INVERSIONS_BUDGET`` bytes in a worker, raises
    ``ResourceLimitError`` before any work, as does a worker that dies,
    killed from outside.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    draws = (n - 1) * trials
    if draws > MAX_DRAWS:
        raise ResourceLimitError(
            f"{model} estimate needs (n-1) x trials = {draws} draws, above the cap {MAX_DRAWS}"
        )
    if model is Model.INVERSIONS and _inversions_bytes(n) > _INVERSIONS_BUDGET:
        raise ResourceLimitError(
            f"inversions estimate at n = {n} would hold {_inversions_bytes(n) >> 20} MiB "
            f"of permutations and merge runs, over the {_INVERSIONS_BUDGET >> 20} MiB budget"
        )
    workers = min(threads, _usable_cpus(), max(1, draws // _DRAWS_PER_WORKER))
    if workers == 1:
        total, total_sq = _accumulate_range(model, n, s, seed, 0, trials)
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        # imported here once, numpy is inherited by the forked workers,
        # which would otherwise each import it
        import numpy  # noqa: F401

        step = -(-trials // workers)
        ranges = [
            (model, n, s, seed, lo, min(lo + step, trials))
            for lo in range(0, trials, step)
        ]
        try:
            with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
                parts = list(pool.map(_accumulate_range, *zip(*ranges)))
        except BrokenExecutor:
            # a worker killed from outside (by the out-of-memory killer, say) takes
            # the sums of its range with it
            raise ResourceLimitError("a worker process ended abruptly; no estimate") from None
        total = sum(p[0] for p in parts)
        total_sq = sum(p[1] for p in parts)
    # int / int is the exact quotient rounded once to a double
    mean = total / trials
    variance_num = trials * total_sq - total * total  # >= 0 (Cauchy-Schwarz)
    stderr = math.sqrt(variance_num / (trials * trials * (trials - 1)))
    return MomentEstimate(s, n, trials, mean, stderr, seed)
