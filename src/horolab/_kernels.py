"""Hot inner-loop kernels: sieves, primitive-lattice enumeration, floor sums.

Every kernel is plain numpy; ``bench/benchmark_kernels.py`` times them.

Every listed point set comes from one generator, _primitive_rows: the
points (r, n) of explicit integer rows r, one range of last entries n per
row, whose gcd is 1.  primitive_box gives it the rows of a box (those of
farey.lattice_points), farey_points the identity-L Farey rows
(q, p_1, ..., p_{d-2}) for every d; farey_d2 and farey_d3 stay as entry
points to it because perfbench traces the kernels by name.  Every counted
or summed Farey set comes from farey_mobius_sums, by Moebius inversion
over the squarefree divisors of each q, with no grid: the divisors of a
chunk of denominators come as arrays (_squarefree_divisors), and the
strided side sums over their multiples are gathered per block and axis and
reduced at once (_strided_sums), each with the bits of its own .sum().  The
listing and the sums read the same ranges ceil(lo_i q)..floor(hi_i q),
from _farey_ends.

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

import functools
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


def _farey_ends(q: np.ndarray, lo, hi):
    """The denominators of the int64 array q whose ranges
    ceil(lo_i q)..floor(hi_i q) are all nonempty, and each axis's int64
    (first, last) arrays over them: where the Farey ranges are decided."""
    qf = q.astype(float)
    ends = [(np.ceil(float(a) * qf).astype(np.int64), np.floor(float(b) * qf).astype(np.int64)) for a, b in zip(lo, hi)]
    keep = np.flatnonzero(np.logical_and.reduce([b >= a for a, b in ends]))
    return q[keep], [(a[keep], b[keep]) for a, b in ends]


_SIDE_BLOCK = 1 << 13  # points per block of farey_mobius_sums' sides: arrays of 64 KiB stay in cache


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def farey_mobius_sums(qmax: int, lo, hi, sides=None) -> tuple[float, int]:
    """Sum over the primitive points (p, q), 1 <= q <= qmax, with p_i in the
    ranges ceil(lo_i q)..floor(hi_i q) of _farey_ends, of the product
    prod_i side_i(p_i), and their number, with no grid.

    Summed over the divisors e of gcd(p_1, ..., p_{d-1}, q), mu(e) is 1 for
    a primitive point and 0 otherwise, so each q gives
    sum_{e | q squarefree} mu(e) prod_i sum_{e | p_i} side_i(p_i): one
    strided sum per axis and squarefree divisor, over the multiples of e in
    the range (_squarefree_divisors lists the divisors).  The count is the
    same sum with every side 1: the number of multiples of e in each range,
    in integer arrays over all the divisors at once.

    sides(q, p) gives the sides of a block of denominators at once: q and p
    are lists of int64 arrays, one per axis, holding every (q, p_i) of the
    block in (q, p_i) order, and it returns one array of sides per axis,
    elementwise in (q, p_i).  A block holds about _SIDE_BLOCK points over
    all axes, or one q, so the arrays held do not grow with qmax.  All the
    strided sums of a block are taken at once per axis (_strided_sums), each
    with the bits of its own .sum(); only the per-q sum of mu(e) times their
    product is added in Python, q by q in increasing order and each q's
    divisors in a fixed order, from 0.0.  sides=None counts only and builds
    no point array.
    """
    small, rest = _small_primes_and_rest(max(qmax, 1))
    small = np.array(small, dtype=np.int64)
    total, count = 0.0, 0
    for start in range(1, qmax + 1, 4096):
        qs, ends = _farey_ends(np.arange(start, min(start + 4096, qmax + 1), dtype=np.int64), lo, hi)
        if qs.size == 0:
            continue
        at, e, mu, n_div = _squarefree_divisors(qs, small, rest)
        # per divisor and axis: the first point of its q's range and the multiples of e in that range
        firsts = [a[at] for a, _b in ends]
        mults = [b[at] // e - (a - 1) // e for a, (_a, b) in zip(firsts, ends)]
        count += int(np.dot(mu, functools.reduce(np.multiply, mults)))
        if sides is None:
            continue
        sizes = [b - a + 1 for a, b in ends]
        edges = [np.concatenate(([0], np.cumsum(n))) for n in sizes]  # where each q's points start, per axis
        points = sum(edges)
        cuts = [0, *points.searchsorted(np.arange(_SIDE_BLOCK, int(points[-1]), _SIDE_BLOCK)).tolist(), qs.size]
        rows = np.concatenate(([0], np.cumsum(n_div)))  # q k's divisors are rows[k] <= r < rows[k + 1]
        for k0, k1 in zip(cuts[:-1], cuts[1:]):
            if k0 == k1:
                continue
            vals = sides(*_block_points(qs[k0:k1], ends, sizes, edges, k0))
            r = slice(rows[k0], rows[k1])
            # the first multiple of e in the range is -first % e past the range's start
            sums = [
                _strided_sums(v, edge[at[r]] - edge[k0] + -first[r] % e[r], e[r], n[r])
                for v, edge, first, n in zip(vals, edges, firsts, mults)
            ]
            # the product left to right, as math.prod takes it
            terms = (mu[r] * functools.reduce(np.multiply, sums)).tolist()
            bounds = (rows[k0 : k1 + 1] - rows[k0]).tolist()
            for r0, r1 in zip(bounds[:-1], bounds[1:]):
                part = 0.0
                for term in terms[r0:r1]:
                    part += term
                total += part
    return total, count


def _squarefree_divisors(q: np.ndarray, small: np.ndarray, rest: np.ndarray):
    """Every squarefree divisor e of each entry of the nonempty ascending
    int64 array q, with mu(e), as int64 arrays (at, e, mu) over all of them,
    at the index of e's q in q, and the number 2^omega(q) of each q's.

    The distinct primes p_0 < p_1 < ... of q are the small primes of
    _small_primes_and_rest that divide it, then rest[q] when it is above 1.
    Divisor i of q, 0 <= i < 2^omega(q), is the product of the p_j with bit
    j of i set: q by q, the order in which listing 1 and then, prime by
    prime, each divisor so far times that prime gives them.
    """
    low, high = int(q[0]), int(q[-1])
    # the multiples of each small prime from low to high, those that are in q
    n = high // small - (low - 1) // small
    prime = np.repeat(small, n)
    multiple = np.repeat(((low - 1) // small + 1) * small, n) + prime * _ramp(n)
    holder = q.searchsorted(multiple)
    hit = q[holder] == multiple
    big = np.flatnonzero(rest[q] > 1)
    holder = np.concatenate((holder[hit], big))
    prime = np.concatenate((prime[hit], rest[q[big]]))
    # q by q, small primes ascending and the rest last: a stable sort keeps both orders
    prime = prime[np.argsort(holder, kind="stable")]
    omega = np.bincount(holder, minlength=q.size)
    n_div = np.left_shift(1, omega)
    at = np.repeat(np.arange(q.size), n_div)
    bits = _ramp(n_div)
    first = np.repeat(np.cumsum(omega) - omega, n_div)  # where each divisor's q lists its primes
    e = np.ones(bits.size, np.int64)
    mu = np.ones(bits.size, np.int64)
    for j in range(int(omega.max())):
        has = np.flatnonzero((bits >> j) & 1)
        e[has] *= prime[first[has] + j]
        mu[has] *= -1
    return at, e, mu, n_div


def _strided_sums(v: np.ndarray, start: np.ndarray, step: np.ndarray, n: np.ndarray) -> np.ndarray:
    """v[start[r] :: step[r]][: n[r]].sum() for each r, bit for bit, from
    one gather and one np.add.reduceat.

    reduceat adds a segment's first entry to the pairwise sum of the rest,
    and .sum() adds 0.0 to the pairwise sum of all its entries, so each run
    is gathered behind a 0.0."""
    n = n + 1
    at = np.cumsum(n) - n  # where each run's 0.0 goes
    # the index at each 0.0 is start - step, which clip keeps in bounds
    gathered = v.take(np.repeat(start - step, n) + np.repeat(step, n) * _ramp(n), mode="clip")
    gathered[at] = 0.0
    return np.add.reduceat(gathered, at)


def _block_points(block, ends, sizes, edges, k0):
    """farey_mobius_sums' arguments to sides for the denominators
    block = qs[k0:k0 + len(block)]: per axis, the q and p_i of each point,
    in (q, p_i) order.  A block of one q gives it as a number."""
    k1 = k0 + block.size
    if block.size == 1:
        return [block[0]] * len(ends), [np.arange(a[k0], b[k0] + 1) for a, b in ends]
    # point j of an axis' block has p_i = j + first - edge of its q
    shifts = [np.repeat(a[k0:k1] - e[k0:k1], n[k0:k1]) for (a, _b), e, n in zip(ends, edges, sizes)]
    return [np.repeat(block, n[k0:k1]) for n in sizes], [np.arange(e[k0], e[k1]) + s for e, s in zip(edges, shifts)]


_BOX_CHUNK = 1 << 19  # candidates per step of _primitive_rows


def _primitive_rows(rows: np.ndarray, lo, hi, roll: int = 0) -> np.ndarray:
    """The primitive integer points (r, n) for each row r of the (R, d - 1)
    int64 array rows and each integer n in [lo[r], hi[r]] (arrays over the
    rows, or one number for all of them): rows in order, n increasing
    within a row.  Returned as an (N, d) int64 array,
    np.roll(points, roll, axis=1).

    Each row's gcd is taken once.  The candidates are tested in chunks of
    about _BOX_CHUNK, and only their keep masks are held until the kept
    points are counted; all but the last chunk are then expanded again."""
    d = rows.shape[1] + 1
    g = np.gcd.reduce(rows, axis=1)  # 0 for the empty row
    first = np.ceil(lo).astype(np.int64)
    count = np.maximum(np.floor(hi).astype(np.int64) - first + 1, 0)
    edge = np.zeros(g.size + 1, np.int64)  # row r's candidates are edge[r] <= k < edge[r + 1]
    np.add.accumulate(np.broadcast_to(count, g.shape), out=edge[1:])
    shift = first - edge[:-1]  # candidate k of row r has last entry shift[r] + k
    del first, count  # the per-row arrays held through the chunks are rows, g, edge and shift
    cuts = [0, *edge.searchsorted(np.arange(_BOX_CHUNK, edge[-1], _BOX_CHUNK)).tolist(), g.size]
    chunks = [(r0, r1) for r0, r1 in zip(cuts[:-1], cuts[1:]) if r0 < r1]

    def expand(r0, r1):
        at = np.arange(r0, r1).repeat(np.diff(edge[r0 : r1 + 1]))
        return at, shift[at] + np.arange(edge[r0], edge[r1])

    keeps = []
    for r0, r1 in chunks:
        at, n = expand(r0, r1)
        keeps.append(np.gcd(g[at], n) == 1)
    out = np.empty((sum(map(np.count_nonzero, keeps)), d), np.int64)
    end = out.shape[0]
    # written from the end, since the last chunk's rows and last entries are still at hand
    for i, ((r0, r1), keep) in enumerate(zip(chunks[::-1], keeps[::-1])):
        if i:
            at, n = expand(r0, r1)
        at, n = at[keep], n[keep]
        part, end = out[end - at.size : end], end - at.size
        part[:, (d - 1 + roll) % d] = n
        for c in range(d - 1):
            part[:, (c + roll) % d] = rows[:, c][at]
    return out


def primitive_box(lo, hi):
    """All primitive integer vectors in the closed box [lo, hi] of R^d, in
    lexicographic order.  lo[-1] and hi[-1] may be arrays over the row-major
    grid of the other axes: one range of last entries per row."""
    rows = np.zeros((1, 0), np.int64)
    for a, b in zip(lo[:-1], hi[:-1]):
        axis = np.arange(math.ceil(a), math.floor(b) + 1, dtype=np.int64)
        rows = np.column_stack((rows.repeat(axis.size, axis=0), np.tile(axis, rows.shape[0])))
    return _primitive_rows(rows, lo[-1], hi[-1])


def farey_points(qmax: int, lo, hi, q_first: int = 1) -> np.ndarray:
    """Primitive integer points (p_1, ..., p_{d-1}, q) with
    q_first <= q <= qmax and lo_i <= p_i / q <= hi_i, as the rows of an
    int64 array: q increasing, p lexicographic within each q.

    The rows of _primitive_rows are (q, p_1, ..., p_{d-2}) over the ranges
    of _farey_ends, one ramp per axis, and p_{d-1} runs over its range."""
    q, ends = _farey_ends(np.arange(q_first, qmax + 1, dtype=np.int64), lo, hi)
    link = np.arange(q.size)  # each row's q, as an index
    rows = q[:, None]
    for a, b in ends[:-1]:
        n = (b - a + 1)[link]
        shift = a[link] - (np.cumsum(n) - n)  # new row k of row r has p_i = shift[r] + k
        link = link.repeat(n)
        rows = np.column_stack((rows.repeat(n, axis=0), np.arange(link.size) + shift.repeat(n)))
    return _primitive_rows(rows, ends[-1][0][link], ends[-1][1][link], roll=-1)


def farey_d2(qmax: int, lo: float, hi: float, q_first: int = 1) -> np.ndarray:
    return farey_points(qmax, (lo,), (hi,), q_first)


def farey_d3(qmax: int, lo1: float, hi1: float, lo2: float, hi2: float, q_first: int = 1) -> np.ndarray:
    return farey_points(qmax, (lo1, lo2), (hi1, hi2), q_first)
