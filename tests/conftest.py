"""Shared test oracles: exhaustive enumerations that are independent of the
recurrence-based production code they check; and the tools on the path."""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest

from momentlab import Model, distribution_tables, simulate
from momentlab.simulate import (
    comparisons_first_pivot,
    count_cycles,
    count_inversions,
)

# the repository's tools, each a module of its own name (``import child``), as
# when a tool runs as a script from there
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def brute_force_histogram(model: Model, n: int) -> list[int]:
    """Dense histogram over all n! permutations, counted the slow way."""
    if model is Model.CYCLES:
        stat, width = count_cycles, n
    elif model is Model.INVERSIONS:
        stat, width = count_inversions, n * (n - 1) // 2
    else:
        stat, width = comparisons_first_pivot, n * (n - 1) // 2
    hist = [0] * (width + 1)
    for perm in permutations(range(1, n + 1)):
        hist[stat(perm)] += 1
    return hist


@lru_cache(maxsize=None)
def pivot_sequence_distribution(n: int) -> dict[int, Fraction]:
    """Comparison-count distribution of randomized quicksort on n elements,
    by exhaustive enumeration of pivot-rank sequences weighted by their
    probabilities.  Exact rationals."""
    if n < 2:
        return {0: Fraction(1)}
    dist: dict[int, Fraction] = {}
    for rank in range(n):
        left = pivot_sequence_distribution(rank)
        right = pivot_sequence_distribution(n - 1 - rank)
        for kl, pl in left.items():
            for kr, pr in right.items():
                key = n - 1 + kl + kr
                dist[key] = dist.get(key, Fraction(0)) + pl * pr / n
    return dist


@pytest.fixture(scope="session")
def quicksort_rows_120():
    """All exact quicksort rows 0..120 from one multi-modular build, which
    reads every row from a single pass of the recurrence; about 3 s on a
    2-core x86-64 box, still the heaviest fixture."""
    return distribution_tables(Model.QUICKSORT, 120)


@pytest.fixture(scope="session")
def quicksort_rows_60(quicksort_rows_120):
    return quicksort_rows_120[:61]


def _killed_in_a_worker(*args):
    """Stands in for ``simulate._accumulate_range``: the pool worker that runs
    it dies by SIGKILL, as if killed from outside."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("a two-worker estimate runs every range in a worker")


@pytest.fixture
def killed_workers(monkeypatch):
    """Every pool worker of an estimate dies as it starts its range; two
    usable CPUs and one worker per draw, so a two-worker estimate starts its
    pool on any runner and at any size."""
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_DRAWS_PER_WORKER", 1)
    monkeypatch.setattr(simulate, "_accumulate_range", _killed_in_a_worker)
