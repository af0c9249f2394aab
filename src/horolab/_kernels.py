"""Hot inner-loop kernels: sieves, primitive-lattice enumeration, floor sums.

Every kernel is plain numpy; ``bench/benchmark_kernels.py`` times them.

The sieves (Moebius, Euler phi, Jordan) are small-prime sieves: a Python
loop over the primes up to sqrt(n) only, each step one strided array
operation, then one masked array step for the single prime factor above
sqrt(n) that an integer up to n can have.  The Moebius values come back as
int8.
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


# ---------------------------------------------------------------------------
# primitive point enumeration
# ---------------------------------------------------------------------------


def farey_d2(qmax: int, lo: float, hi: float, q_first: int = 1):
    qs_out = []
    ps_out = []
    for q in range(q_first, qmax + 1):
        p = np.arange(math.ceil(lo * q), math.floor(hi * q) + 1, dtype=np.int64)
        if p.size == 0:
            continue
        keep = np.gcd(p, q) == 1
        p = p[keep]
        qs_out.append(np.full(p.size, q, dtype=np.int64))
        ps_out.append(p)
    if not qs_out:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(qs_out), np.concatenate(ps_out)


def farey_d3(qmax: int, lo1: float, hi1: float, lo2: float, hi2: float, q_first: int = 1):
    qs_out, p1_out, p2_out = [], [], []
    for q in range(q_first, qmax + 1):
        a = np.arange(math.ceil(lo1 * q), math.floor(hi1 * q) + 1, dtype=np.int64)
        b = np.arange(math.ceil(lo2 * q), math.floor(hi2 * q) + 1, dtype=np.int64)
        if a.size == 0 or b.size == 0:
            continue
        g1 = np.gcd(a, q)
        aa = np.repeat(a, b.size)
        bb = np.tile(b, a.size)
        keep = np.gcd(np.repeat(g1, b.size), bb) == 1
        aa, bb = aa[keep], bb[keep]
        qs_out.append(np.full(aa.size, q, dtype=np.int64))
        p1_out.append(aa)
        p2_out.append(bb)
    if not qs_out:
        z = np.empty(0, np.int64)
        return z, z.copy(), z.copy()
    return np.concatenate(qs_out), np.concatenate(p1_out), np.concatenate(p2_out)


_BOX_CHUNK = 1 << 20  # gcd entries per step of primitive_box


def primitive_box(lo: np.ndarray, hi: np.ndarray):
    """All primitive integer vectors in the closed box [lo, hi] of R^d, in
    lexicographic order.

    The gcd of the other axes is taken once over their grid; each slab of
    first-axis values is then one gcd against it, so the work arrays stay
    near _BOX_CHUNK entries and only the kept points are materialised.
    """
    d = lo.size
    axes = [np.arange(math.ceil(lo[i]), math.floor(hi[i]) + 1, dtype=np.int64) for i in range(d)]
    if any(a.size == 0 for a in axes):
        return np.empty((0, d), np.int64)
    first = axes[0]
    if d > 1:
        rest = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")], axis=1)
        g_rest = np.gcd.reduce(rest, axis=1)
    else:
        rest, g_rest = np.empty((1, 0), np.int64), np.zeros(1, np.int64)
    step = max(1, _BOX_CHUNK // g_rest.size)
    slabs = range(0, first.size, step)
    keep = np.concatenate([np.gcd(first[i : i + step, None], g_rest) == 1 for i in slabs])
    out = np.empty((int(np.count_nonzero(keep)), d), np.int64)
    at = 0
    for i in slabs:
        rows, cols = np.nonzero(keep[i : i + step])
        out[at : at + rows.size, 0] = first[i + rows]
        out[at : at + rows.size, 1:] = rest[cols]
        at += rows.size
    return out
