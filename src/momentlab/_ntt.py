"""Quicksort table rows by multi-modular evaluation.

Row n is n! times the PGF P_n(z) = z^(n-1)/n sum_j P_(j-1) P_(n-j).  The
recurrence runs pointwise at the N-th roots of unity modulo primes
p = 1 (mod N) below 2^29, one prime at a time over all N points at once:
that prime's rows 0..n sit in one array, and each row is one sum of at
most n/2 pair products below p^2, reduced once, which the row cap of 120
keeps below 2^64.  Row n is zero below kmin(n), the fewest comparisons
over all pivot choices, so N = 2^a 3^b need only cover its support,
n(n-1)/2 - kmin(n) + 1 entries: the values then give the row modulo
z^N - 1, one count per residue class.  Each wanted row m has an inverse
transform of its own: a mixed-radix number-theoretic transform recovers it
modulo the fewest primes whose product exceeds m!, and Chinese
remaindering rebuilds its counts, all in [0, m!].  A row keeps only the
residues that transform reads, at N_m of the N points and for those
primes, and gives them up once its counts are built.

``tables`` imports this module on its first quicksort row, after the row
cap, so a request that builds no quicksort row compiles neither it nor
numpy.  That cap is fixed (``tables.DEFAULT_ROW_LIMITS``) and bounds the
time and the residues held; the primes' coverage of n!, which the Chinese
remaindering needs, is checked here, before the recurrence runs
(`python3 tools/limits.py prime-coverage` runs a request it refuses).
"""

import bisect
import functools
import itertools
import math
import operator

import numpy as np

from . import ResourceLimitError

_PRIME_BOUND = 1 << 29  # residue products stay below 2^58


def _is_prime(p: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic for 1 < p < 3.2e9."""
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _root_of_unity(p: int, size: int) -> int:
    """A primitive size-th root of unity mod the prime p = 1 (mod size), size = 2^a 3^b: its
    order divides size and no size / f for f = 2, 3.  A generator of the units ends the loop."""
    for g in range(2, p):
        w = pow(g, (p - 1) // size, p)
        if all(pow(w, size // f, p) != 1 for f in (2, 3) if size % f == 0):
            return w


@functools.lru_cache(maxsize=None)
def _ntt_moduli(size: int, n: int) -> tuple[tuple[int, int], ...]:
    """(prime, primitive size-th root) pairs, primes p = 1 (mod size) below
    2^29 taken largest first until their product exceeds n!."""
    bound = math.factorial(n)
    moduli, product = [], 1
    for p in range((_PRIME_BOUND - 2) // size * size + 1, max(size, n), -size):
        if product > bound:
            break
        if _is_prime(p):
            moduli.append((p, _root_of_unity(p, size)))
            product *= p
    if product <= bound:
        raise ResourceLimitError(
            f"quicksort row {n} needs primes p = 1 (mod {size}) below 2^29 whose "
            f"product exceeds n! ({bound.bit_length()} bits); they give only "
            f"{product.bit_length() - 1} bits"
        )
    return tuple(moduli)


def _powers(bases: list[int], count: int, p: np.ndarray) -> np.ndarray:
    """bases[i]^e modulo p[i] for e = 0 .. count-1, shape (len(bases), count)."""
    out = np.ones((len(bases), 1), dtype=np.uint64)
    while out.shape[1] < count:
        step = [pow(b, out.shape[1], int(q)) for b, q in zip(bases, p[:, 0])]
        out = np.concatenate([out, out * np.array(step, dtype=np.uint64)[:, None] % p], axis=1)
    return out[:, :count]


def _pgf_values(values: np.ndarray, p: int, root: int) -> None:
    """Fills ``values``, shape (n+1, size), with P_0 .. P_n at the powers of
    ``root``, a primitive size-th root of unity modulo the prime p:
    values[m, t] = P_m(root^t) mod p.

    The recurrence pairs j with m+1-j, whose products coincide, so row m
    sums at most m/2 products below p^2 < 2^58, one reduction for all of
    them while m/2 < 64.  That sum, doubled, plus the middle square stays
    below 3p < 2^31, so it takes the factor z^(m-1) < p unreduced: their
    product stays below 2^60.
    """
    points = _powers([root], values.shape[1], np.array([[p]], dtype=np.uint64))[0]
    values[0] = 1
    shift = np.ones_like(points)  # z^(m-1) at every point
    for m in range(1, len(values)):
        half = m // 2
        acc = np.einsum("jt,jt->t", values[:half], values[m - 1 : m - 1 - half : -1]) % p * 2
        if m % 2:
            acc += values[half] * values[half] % p
        if m > 1:
            shift = shift * points % p
        values[m] = acc * shift % p * pow(m, -1, p) % p


def _dft(x: np.ndarray, roots: list[int], p: np.ndarray) -> np.ndarray:
    """sum_t x[..., i, t] roots[i]^(t k) mod p[i] for k = 0 .. L-1.

    Mixed-radix Stockham transform along the last axis, whose length L is
    2^a 3^b; roots[i] has order L modulo p[i].
    """
    length = x.shape[-1]
    twiddles = _powers(roots, length, p)
    q = p[:, :, None]
    # axes (..., prime, done, rest): done-point transforms of the rest
    # interleaved subsequences, merged radix at a time until one remains
    out = x[..., None, :]
    done = 1
    while done < length:
        radix = 3 if length // done % 3 == 0 else 2
        rest = length // (radix * done)
        head, *tails = (out[..., c * rest : (c + 1) * rest] for c in range(radix))
        t = [tail * twiddles[:, : c * rest * done : c * rest, None] % q
             for c, tail in enumerate(tails, 1)]
        if radix == 2:
            blocks = [head + t[0], head + (q - t[0])]
        else:
            # X_j = T_0 + w^j T_1 + w^(2j) T_2 for w = roots^(L/3), and
            # w^2 = -1 - w, so one product u = w (T_1 - T_2) serves j = 1, 2
            u = (t[0] + (q - t[1])) * twiddles[:, length // 3, None, None] % q
            blocks = [head + t[0] + t[1], head + (q - t[1]) + u, head + (q - t[0]) + (q - u)]
        out = np.concatenate(blocks, axis=-2)
        # out - q wraps below q, so each pass takes [0, rq) to [0, (r-1)q)
        for _ in range(radix - 1):
            out = np.minimum(out, out - q)
        done *= radix
    return out[..., 0]


def _crt(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The ints x in [0, M), M = prod(primes), with x = residues[i, k] mod
    primes[i], one per column k of ``residues``, shape (primes, count):
    x = (sum_i r_i c_i) mod M for c_i = (M/p_i) ((M/p_i)^-1 mod p_i), which
    is 1 modulo p_i and 0 modulo every other prime."""
    total = math.prod(primes)
    coefficients = [total // q * pow(total // q, -1, q) for q in primes]
    return [sum(map(operator.mul, column.tolist(), coefficients)) % total for column in residues.T]


def _fewest_comparisons(n: int) -> list[int]:
    """kmin(m) for m = 0 .. n: the fewest comparisons quicksort makes on m
    keys over all pivot choices, m - 1 + min_j kmin(j-1) + kmin(m-j)."""
    best = [0]
    for m in range(1, n + 1):
        best.append(m - 1 + min(map(operator.add, best, reversed(best))))
    return best


def _width(m: int, kmin: int) -> int:
    """Entries of row m from its first possible nonzero count, kmin, to its last."""
    return m * (m - 1) // 2 - kmin + 1


def _smooth_numbers(limit: int) -> list[int]:
    """The numbers 2^a 3^b up to ``limit``, ascending."""
    numbers, t = [], 1
    while t <= limit:
        numbers += [t << a for a in range((limit // t).bit_length())]
        t *= 3
    return sorted(numbers)


def _transform_size(n: int) -> int:
    """Smallest N = 2^a 3^b at least the width of row n.

    Row n is zero below kmin(n), so its values at the N-th roots of unity
    give the row modulo z^N - 1 with at most one nonzero count per residue
    class.
    """
    width = _width(n, _fewest_comparisons(n)[n])
    return next(size for size in _smooth_numbers(2 * width) if size >= width)


def _quicksort_rows(n: int, every: bool) -> list[list[int]]:
    """Row n, or rows 0..n when ``every``, of the quicksort table.

    Row m is read from the values at the smallest divisor N_m of N at least
    its width, every (N / N_m)-th root, modulo the fewest leading primes
    whose product exceeds m!, by one inverse transform of its own.  The
    recurrence runs one prime at a time, and each wanted row keeps only
    those residues of it.  Count k of row m sits at index k mod N_m of the
    transform, and the kmin(m) counts below its support are written as
    zeros.
    """
    size = _transform_size(n)
    kmin = _fewest_comparisons(n)
    divisors = [d for d in _smooth_numbers(size) if size % d == 0]
    moduli = _ntt_moduli(size, n)
    products = list(itertools.accumulate((q for q, _ in moduli), operator.mul))
    plans = []  # (m, N_m, its residues: one row per prime m! needs)
    for m in range(0 if every else n, n + 1):
        length = next(d for d in divisors if d >= _width(m, kmin[m]))
        count = bisect.bisect_right(products, math.factorial(m)) + 1
        plans.append((m, length, np.empty((count, length), dtype=np.uint32)))
    values = np.empty((n + 1, size), dtype=np.uint64)
    for i, (q, w) in enumerate(moduli):
        _pgf_values(values, q, w)
        for m, length, kept in plans:
            if i < len(kept):
                kept[i] = values[m, :: size // length]
    del values  # the transforms below take its place
    rows = []
    while plans:  # each row's residues go as its counts come
        m, length, kept = plans.pop(0)
        row_moduli = moduli[: len(kept)]
        row_primes = [q for q, _ in row_moduli]
        p = np.array(row_primes, dtype=np.uint64)[:, None]
        roots = [pow(w, -(size // length), q) for q, w in row_moduli]
        scale = np.array([math.factorial(m) * pow(length, -1, q) % q for q in row_primes],
                         dtype=np.uint64)[:, None]
        residues = _dft(kept * scale % p, roots, p)
        support = np.arange(kmin[m], m * (m - 1) // 2 + 1) % length
        rows.append([0] * kmin[m] + _crt(residues.take(support, axis=1), row_primes))
    return rows
