"""Seeded request lists for the three workloads.

A request is the argv tuple of one ``momentlab`` invocation.  A list is a
pure function of (workload, seed, seconds) and is stratified on the drawn
parameters: each kind of request gets a fixed number of requests (COUNTS,
scaled by ``seconds / REFERENCE_SECONDS``), and the i-th of k draws its size
from the middle DRAW_SHARE of the i-th of k equal sub-ranges of the kind's
range.  The parameters that set a request's cost apart from its size (beta,
the cycles moment order, the model, the number of trials) follow the
stratum index or the size, not the seed.  So every seed gives the same mix
of kinds and nearly the same sizes; only the exact sizes inside their
sub-ranges, the free options and the simulation seeds change.  The list
runs shuffled.

The last stratum of each kind is pinned at the top of its range, so that
every list holds the same dearest requests and reaches the same peak
memory.

The counts were chosen so that a list takes about ``seconds`` of CPU time
on a 2-core x86-64 box with Python 3.11, numpy 2.4, mpmath 1.3 and no gmpy2.
They never change with the program, so a faster program finishes the same
list sooner.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("tables", "moments", "montecarlo")

MODELS = ("cycles", "inversions", "quicksort")
FORMATS = ("csv", "json")

# Request ranges of each workload.
TABLE_N = {"quicksort": (40, 70), "inversions": (100, 200), "cycles": (400, 1000)}
CYCLES_GRID = (100, 50_000)
QUICKSORT_MEAN_GRID = (1_000, 20_000)
QUICKSORT_MOMENT = {"s": (2, 4), "n": (20, 60)}
INVERSIONS_MOMENT = {"s": (1, 4), "n": (50, 150)}
TRANSFER = {"alpha": (1, 3), "beta": (1, 4), "n": (100, 1000)}
SIMULATE = {"n": (50, 200), "s": (1, 3), "trials": (5_000, 20_000)}
# Permutation entries each simulate request samples: trials = SIMULATE_WORK / n
# spans the trials range as n spans its own, and requests cost alike.
SIMULATE_WORK = 1_000_000
SIMULATE_THREADS = 2  # workers of the twin requests; nproc on the reference box
# beta of the i-th n stratum of the transfer requests: the exact oracle
# (beta >= 3), whose cost grows fast with n, runs in the two lowest strata
TRANSFER_BETAS = (4, 3, 1, 2)
# Share of its sub-range, around the middle, that a stratum draws from: costs
# rise steeply with size, and a narrow draw keeps lists of different seeds
# equally dear.
DRAW_SHARE = 0.25

REFERENCE_SECONDS = 10
# Requests of each kind in a list of REFERENCE_SECONDS.
COUNTS = {
    "tables": {"quicksort": 4, "inversions": 2, "cycles": 2},
    "moments": {"transfer": 4, "cycles_compare": 6, "quicksort_mean": 2,
                "quicksort_moment": 2, "inversions_moment": 2},
    "montecarlo": {"inversions": 2, "quicksort": 2, "cycles": 2, "twin": 1},
}


def options(argv) -> dict[str, str]:
    """The ``--flag value`` pairs of a request."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def grid(argv) -> list[int]:
    return [int(v) for v in options(argv)["n-grid"].split(",")]


def with_threads(argv: tuple, threads: int) -> tuple:
    i = argv.index("--threads")
    return argv[: i + 1] + (str(threads),) + argv[i + 2 :]


def strata(rng: random.Random, lo: int, hi: int, count: int, log: bool = False) -> list[int]:
    """One integer of [lo, hi] from the middle DRAW_SHARE of each of
    ``count`` equal sub-ranges, in order; the sub-ranges are equal in log
    scale when ``log``.  The last is ``hi`` itself: costs rise steeply with
    size, so the dearest request of a kind is the same for every seed, and
    it sets the peak memory."""
    spots = [i + 0.5 + DRAW_SHARE * (rng.random() - 0.5) for i in range(count - 1)]
    if log:
        a, b = math.log(lo), math.log(hi)
        values = [round(math.exp(a + (b - a) * x / count)) for x in spots]
    else:
        values = [lo + int((hi - lo + 1) * x / count) for x in spots]
    return values + [hi]


def _grid(rng: random.Random, bounds: tuple[int, int], count: int, points: int) -> list[str]:
    """``count`` grids of ``points`` sizes each, from consecutive log strata."""
    sizes = strata(rng, *bounds, count * points, log=True)
    return [",".join(map(str, sizes[i : i + points])) for i in range(0, len(sizes), points)]


def _table(rng: random.Random, model: str, n: int) -> tuple:
    return ("table", "--model", model, "--n", str(n), "--format", rng.choice(FORMATS))


def _compare(rng: random.Random, model: str, s: int, n_grid: str) -> tuple:
    return ("compare", "--model", model, "--s", str(s), "--n-grid", n_grid,
            "--format", rng.choice(FORMATS))


def _row_moment(rng: random.Random, i: int, model: str, ranges: dict, n: int) -> tuple:
    """Even strata as ``moment``, odd ones as ``compare`` with one grid
    point; s hardly changes the cost of these, so it is drawn freely."""
    s = rng.randint(*ranges["s"])
    if i % 2:
        return _compare(rng, model, s, str(n))
    return ("moment", "--model", model, "--n", str(n), "--s", str(s),
            "--mode", rng.choice(("exact", "both")), "--format", rng.choice(FORMATS))


def _simulate(rng: random.Random, model: str, n: int) -> tuple:
    return ("simulate", "--model", model, "--n", str(n), "--s", str(rng.randint(*SIMULATE["s"])),
            "--trials", str(round(SIMULATE_WORK / n)), "--seed", str(rng.getrandbits(64)),
            "--threads", "1", "--format", rng.choice(FORMATS))


def _simulations(rng: random.Random, models: list[str]) -> list[tuple]:
    """One request per entry of ``models``, the i-th with n in the i-th stratum."""
    sizes = strata(rng, *SIMULATE["n"], len(models))
    return [_simulate(rng, model, n) for model, n in zip(models, sizes)]


def _tables(rng: random.Random, counts: dict[str, int]) -> list[tuple]:
    return [_table(rng, model, n) for model in MODELS for n in strata(rng, *TABLE_N[model], counts[model])]


def _moments(rng: random.Random, counts: dict[str, int]) -> list[tuple]:
    requests = [("verify", "--format", rng.choice(FORMATS))]
    for i, n in enumerate(strata(rng, *TRANSFER["n"], counts["transfer"])):
        requests.append(("transfer", "--alpha", str(rng.randint(*TRANSFER["alpha"])),
                         "--beta", str(TRANSFER_BETAS[i % len(TRANSFER_BETAS)]), "--n", str(n),
                         "--format", rng.choice(FORMATS)))
    # s sets the cost per grid unit of the cycles oracle; it falls from 6 to 1
    # as n rises, so that no one request holds most of the work
    k = counts["cycles_compare"]
    for i, n_grid in enumerate(_grid(rng, CYCLES_GRID, k, 1)):
        requests.append(_compare(rng, "cycles", 6 - 5 * i // max(1, k - 1), n_grid))
    for n_grid in _grid(rng, QUICKSORT_MEAN_GRID, counts["quicksort_mean"], 2):
        requests.append(_compare(rng, "quicksort", 1, n_grid))
    for model, ranges in (("quicksort", QUICKSORT_MOMENT), ("inversions", INVERSIONS_MOMENT)):
        sizes = strata(rng, *ranges["n"], counts[f"{model}_moment"])
        requests += [_row_moment(rng, i, model, ranges, n) for i, n in enumerate(sizes)]
    return requests


def _montecarlo(rng: random.Random, counts: dict[str, int]) -> list[tuple]:
    requests = []
    for model in MODELS:
        requests += _simulations(rng, [model] * counts[model])
    twins = _simulations(rng, [MODELS[i % len(MODELS)] for i in range(counts["twin"])])
    for base in twins:
        requests += [base, with_threads(base, SIMULATE_THREADS)]
    return requests


BUILDERS = {"tables": _tables, "moments": _moments, "montecarlo": _montecarlo}


def build(workload: str, seed: int, seconds: float) -> list[tuple]:
    """The request list of ``workload`` for ``seed``, about ``seconds`` long."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    scale = seconds / REFERENCE_SECONDS
    counts = {kind: max(1, round(count * scale)) for kind, count in COUNTS[workload].items()}
    requests = BUILDERS[workload](rng, counts)
    rng.shuffle(requests)
    return requests
