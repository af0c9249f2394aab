"""Hot inner-loop kernels: sieves, primitive-lattice enumeration, floor sums.

Every kernel is plain numpy; ``bench/benchmark_kernels.py`` times them.

Farey points come from one per-denominator generator, farey_ranges, for
every d: each q's integer ranges and the prime factors of q, which decide
primitivity.  farey_grids masks the boolean grid of each q's primitive
points with them, from q = 1 or from a first denominator, and
farey_primitive gathers the kept points of every q_first <= q <= qmax into
columns; farey_d2 and farey_d3 are one-line entry points to it that stay
because perfbench traces the kernels by name.  farey_mobius_sums sums a
product of per-axis sides over the same primitive points, and counts
them, by Moebius inversion over the squarefree divisors of q, with no grid.

primitive_box keeps the primitive points of a box whose last side may vary
by row, the rows of farey.lattice_points.

The sieves (Moebius, Euler phi, Jordan) are small-prime sieves: a Python
loop over the primes up to sqrt(n) only, each step one strided array
operation, then one masked array step for the single prime factor above
sqrt(n) that an integer up to n can have.  The Moebius values come back as
int8.  mertens_quotients gives the Mertens function at every quotient
m // k from a Moebius sieve to m^{2/3} only, one vectorised step per
quotient above it.

floor_sums gives sum_{k <= n} floor(k a / b) at many n at once by the
Euclid-style floor-sum recursion, one array step per step of Euclid's
algorithm on (b, a).  floor_diff_prefix, the whole length-m float prefix
that interval counts once read, is kept as the oracle of the tests and of
the benchmark.
"""

from __future__ import annotations

import math

import numpy as np

# perfbench records this in each pass; every kernel here is numpy
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# sieves
# ---------------------------------------------------------------------------


def _small_primes_and_rest(n: int):
    """The primes p <= isqrt(n), in increasing order, and rest[q] for
    0 <= q <= n: what is left of q once every power of those primes is
    divided out.

    Two primes above isqrt(n) multiply to more than n, so rest[q] is 1 or
    the one prime factor of q above isqrt(n) (rest[0] is 1).  A sieve
    therefore loops in Python over the small primes only (about 300 at
    n = 4e6) and applies the last factor in one masked array step where
    rest > 1.
    """
    r = math.isqrt(n)
    is_prime = np.ones(r + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime).tolist()
    # unsigned 32-bit division is about three times faster than int64 here
    rest = np.arange(n + 1, dtype=np.uint32 if n < 2**32 else np.int64)
    rest[0] = 1
    for p in primes:
        pk = p
        while pk <= n:
            rest[pk::pk] //= p
            pk *= p
    return primes, rest


def phi_sieve(n: int) -> np.ndarray:
    return jordan_sieve(n, 1)


def mobius_sieve(n: int) -> np.ndarray:
    # values are in {-1, 0, 1}, so int8 holds them
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    primes, rest = _small_primes_and_rest(n)
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    np.negative(mu, out=mu, where=rest > 1)
    return mu


def mertens_quotients(m: int) -> tuple[np.ndarray, np.ndarray]:
    """For m >= 1: the sorted quotient set {m // k : 1 <= k <= m} and the
    Mertens function M(x) = sum_{e <= x} mu(e) at each of its values.

    M up to y = max(isqrt(m), ceil(m^{2/3})) is the cumulative sum of
    mobius_sieve(y).  The quotients above y are x = m // j for j = 1, 2, ...
    (all j <= isqrt(m)); they are taken from the largest j down, so in
    increasing x, by M(x) = 1 - sum_{2 <= d <= x} M(x // d).  With
    r = isqrt(x), the terms d <= x // (r + 1) are read one by one:
    x // d = m // (j d) is either at most y or a quotient already done.
    The others have x // d = v <= r and are grouped, x // v - x // (v + 1)
    terms per v.  Each quotient is one vectorised step over about 2 sqrt(x)
    terms, O(m^{2/3}) work in all (Deleglise and Rivat, Experimental Math.
    1996).
    """
    r = math.isqrt(m)
    k = np.arange(1, r + 1, dtype=np.int64)
    big = m // k[::-1]
    # 1, ..., r and then m // r, ..., m // 1; m // r is r itself when m < r (r + 1)
    ends = np.concatenate((k, big[1:] if big[0] == r else big))
    y = min(m, max(r, math.ceil(m ** (2.0 / 3.0))))
    small = np.cumsum(mobius_sieve(y), dtype=np.int64)
    n_big = int(np.count_nonzero(ends > y))
    # large[j] = M(m // j) for 1 <= j <= n_big, the quotients above y
    large = np.zeros(n_big + 1, dtype=np.int64)
    for j in range(n_big, 0, -1):
        x = m // j
        rx = math.isqrt(x)
        split = x // (y + 1)  # x // d > y exactly for d <= split
        above = large[j * np.arange(2, split + 1, dtype=np.int64)].sum()
        below = small[x // np.arange(max(2, split + 1), x // (rx + 1) + 1, dtype=np.int64)].sum()
        per_v = x // np.arange(1, rx + 2, dtype=np.int64)
        grouped = np.dot(small[1 : rx + 1], per_v[:-1] - per_v[1:])
        large[j] = 1 - above - below - grouped
    return ends, np.concatenate((small[ends[: ends.size - n_big]], large[n_big:0:-1]))


def jordan_sieve(n: int, k: int) -> np.ndarray:
    # J_k(q) = q^k prod_{p|q} (1 - p^{-k}); exact in int64 for the ranges used,
    # since every division below is exact
    j = np.arange(n + 1, dtype=np.int64) ** k
    primes, rest = _small_primes_and_rest(n)
    for p in primes:
        pk = p**k
        j[p::p] //= pk
        j[p::p] *= pk - 1
    big = rest > 1
    pk = rest.astype(np.int64) ** k
    np.floor_divide(j, pk, out=j, where=big)
    np.multiply(j, pk - 1, out=j, where=big)
    return j


# ---------------------------------------------------------------------------
# floor prefix sums (interval counting of coprime residues)
# ---------------------------------------------------------------------------


def floor_diff_prefix(u: float, v: float, m_max: int, scale: float) -> np.ndarray:
    # floor(scale*m*v) - floor(scale*m*u), built in place in the same
    # operation order, so the floors are those of the plain expression
    m = np.arange(m_max + 1, dtype=np.float64)
    diff = np.multiply(m, scale)
    diff *= v
    np.floor(diff, out=diff)
    m *= scale
    m *= u
    np.floor(m, out=m)
    diff -= m
    del m
    out = diff.astype(np.int64)  # the floats are exact integers
    del diff
    return np.cumsum(out, out=out)


def floor_sums(n: np.ndarray, a: int, b: int) -> np.ndarray:
    """sum_{k=1}^{n} floor(k a / b) for each entry n >= 0 of the int64 array
    n, where 0 <= a < b.

    The Euclid-style floor-sum recursion (as in the AtCoder Library's
    floor_sum): for N terms floor((A i + B) / M), 0 <= i < N, take out the
    whole parts of A / M and B / M, then swap the axes, N <- (A N + B) // M,
    B <- (A N + B) % M, (M, A) <- (A, M).  (M, A) runs through Euclid's
    algorithm on (b, a) whatever n is, so the loop is over its O(log b)
    steps, one array step each for every n at once; no intermediate value
    exceeds (n + 1) max(n + 1, b).
    """
    N = n + 1
    B = np.zeros_like(N)
    out = np.zeros_like(N)
    M, A = b, a
    while A:
        y = A * N + B
        N, B = y // M, y % M
        M, A = A, M
        out += N * (N - 1) // 2 * (A // M) + N * (B // M)
        A %= M
        B %= M
    return out


# ---------------------------------------------------------------------------
# primitive point enumeration
# ---------------------------------------------------------------------------


def _smallest_prime_factors(n: int) -> np.ndarray:
    """spf[q] for 0 <= q <= n: the smallest prime factor of q (q itself for
    0 and 1), from one sieve over the primes up to isqrt(n)."""
    spf = np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    return spf


def farey_ranges(qmax: int, lo, hi, q_first: int = 1):
    """For each q_first <= q <= qmax whose ranges ceil(lo_i q)..floor(hi_i q)
    are all nonempty, yield (q, axes, primes): the ranges as int64 arrays
    and the distinct prime factors of q, from a smallest-prime-factor table.

    This is where primitivity is decided: a point (p_1, ..., p_{d-1}, q) of
    the ranges has gcd 1 exactly when no prime of q divides every p_i, and
    on each axis the multiples of a prime r form the strided slice
    slice(-p_first % r, None, r).  farey_grids clears those slices from a
    boolean grid; farey_mobius_sums sums over them by Moebius inversion.
    """
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]
    spf = _smallest_prime_factors(qmax).tolist() if qmax >= 1 else []
    for q in range(q_first, qmax + 1):
        axes = [np.arange(math.ceil(a * q), math.floor(b * q) + 1, dtype=np.int64) for a, b in zip(lo, hi)]
        if any(a.size == 0 for a in axes):
            continue
        primes, rest = [], q
        while rest > 1:
            primes.append(spf[rest])
            while rest % primes[-1] == 0:
                rest //= primes[-1]
        yield q, axes, primes


def farey_grids(qmax: int, lo, hi, q_first: int = 1):
    """For each (q, axes, primes) of farey_ranges, yield (q, axes, keep):
    keep is the boolean grid over the product of the ranges that marks the
    primitive points, cleared one strided slice per prime factor of q.
    Only one denominator's grid is held at a time.
    """
    for q, axes, primes in farey_ranges(qmax, lo, hi, q_first):
        keep = np.ones(tuple(a.size for a in axes), dtype=bool)
        for r in primes:
            keep[tuple(slice(-int(a[0]) % r, None, r) for a in axes)] = False
        yield q, axes, keep


def farey_mobius_sums(qmax: int, lo, hi, sides=None) -> tuple[float, int]:
    """Sum over the primitive points (p, q) of the farey_ranges of the
    product prod_i sides(q, axes)[i][p_i], and their number, with no grid.

    Summed over the divisors e of gcd(p_1, ..., p_{d-1}, q), mu(e) is 1 for
    a primitive point and 0 otherwise, so each q gives
    sum_{e | q squarefree} mu(e) prod_i sum_{e | p_i} side_i(p_i): one
    strided sum per axis and squarefree divisor, over the multiples of e in
    the range.  The count is the same sum with every side 1, in integers.
    sides=None counts only.  The q are added in increasing order, and each
    q's divisors in a fixed order, from 0.0.
    """
    total, count = 0.0, 0
    for q, axes, primes in farey_ranges(qmax, lo, hi):
        vals = sides(q, axes) if sides is not None else None
        ends = [(int(a[0]) - 1, int(a[-1])) for a in axes]
        divisors = [(1, 1)]
        for r in primes:
            divisors += [(e * r, -mu) for e, mu in divisors]
        part = 0.0
        for e, mu in divisors:
            count += mu * math.prod(b // e - a // e for a, b in ends)
            if vals is not None:
                part += mu * math.prod(float(v[-int(a[0]) % e :: e].sum()) for v, a in zip(vals, axes))
        total += part
    return total, count


def farey_primitive(qmax: int, lo, hi, q_first: int = 1):
    """Primitive integer points (p_1, ..., p_{d-1}, q) with
    q_first <= q <= qmax and lo_i <= p_i / q <= hi_i, as the columns
    (q, p_1, ..., p_{d-1}): q increasing, p lexicographic within each q.

    The points of each farey_grids grid that keep marks, in the grid's
    row-major order.
    """
    out = [[] for _ in range(len(lo) + 1)]
    for q, axes, keep in farey_grids(qmax, lo, hi, q_first):
        idx = np.nonzero(keep)
        out[0].append(np.full(idx[0].size, q, dtype=np.int64))
        for o, a, i in zip(out[1:], axes, idx):
            o.append(a[i])
    if not out[0]:
        return tuple(np.empty(0, np.int64) for _ in out)
    return tuple(np.concatenate(o) for o in out)


def farey_d2(qmax: int, lo: float, hi: float, q_first: int = 1):
    return farey_primitive(qmax, (lo,), (hi,), q_first)


def farey_d3(qmax: int, lo1: float, hi1: float, lo2: float, hi2: float, q_first: int = 1):
    return farey_primitive(qmax, (lo1, lo2), (hi1, hi2), q_first)


_BOX_CHUNK = 1 << 19  # candidates per step of primitive_box


def primitive_box(lo, hi):
    """All primitive integer vectors in the closed box [lo, hi] of R^d, in
    lexicographic order.  lo[-1] and hi[-1] may be arrays over the row-major
    grid of the other axes: one range of last entries per row.

    Each row's gcd is taken once.  The candidates are tested in chunks of
    about _BOX_CHUNK, and only their keep masks are held until the kept
    points are counted; all but the last chunk are then expanded again."""
    d = len(lo)
    axes = [np.arange(math.ceil(lo[i]), math.floor(hi[i]) + 1, dtype=np.int64) for i in range(d - 1)]
    g = np.zeros(1, np.int64)  # the gcd of the empty row
    for a in axes:
        g = np.gcd.outer(g, a).ravel()
    first = np.ceil(lo[-1]).astype(np.int64)
    # one count per row, also when the last side is one interval for all rows
    count = np.maximum(np.floor(hi[-1]).astype(np.int64) - first + np.ones(g.size, np.int64), 0)
    edge = np.zeros(g.size + 1, np.int64)  # row r's candidates are edge[r] <= k < edge[r + 1]
    np.add.accumulate(count, out=edge[1:])
    shift = first - edge[:-1]  # candidate k of row r has last entry shift[r] + k
    cuts = [0, *edge.searchsorted(np.arange(_BOX_CHUNK, edge[-1], _BOX_CHUNK)).tolist(), g.size]
    chunks = [(r0, r1) for r0, r1 in zip(cuts[:-1], cuts[1:]) if r0 < r1]

    def expand(r0, r1):
        rows = np.arange(r0, r1).repeat(count[r0:r1])
        return rows, shift[rows] + np.arange(edge[r0], edge[r1])

    keeps = []
    for r0, r1 in chunks:
        rows, last = expand(r0, r1)
        keeps.append(np.gcd(g[rows], last) == 1)
    out = np.empty((sum(map(np.count_nonzero, keeps)), d), np.int64)
    at = out.shape[0]
    # written from the end, since the last chunk's rows and last entries are still at hand
    for n, ((r0, r1), keep) in enumerate(zip(chunks[::-1], keeps[::-1])):
        if n:
            rows, last = expand(r0, r1)
        rows, last = rows[keep], last[keep]
        part, at = out[at - rows.size : at], at - rows.size
        part[:, -1] = last
        for i in range(d - 2, 0, -1):  # last is reused for the coordinates
            np.divmod(rows, axes[i].size, out=(rows, last))
            np.add(last, axes[i][0], out=part[:, i])
        if axes:  # rows is now the index on the first axis
            np.add(rows, axes[0][0], out=part[:, 0])
    return out
