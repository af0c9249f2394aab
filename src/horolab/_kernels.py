"""Hot inner-loop kernels: sieves, primitive-lattice enumeration, floor sums.

Every kernel has two implementations: a numba ``@njit`` fast path and a pure
numpy fallback.  The backend is chosen at import time from the environment
variable ``HOROLAB_BACKEND`` (``auto``, ``numba`` or ``numpy``; default
``auto`` picks numba when it imports cleanly).  ``bench/benchmark_kernels.py``
times both paths.

The numpy sieves (Moebius, Euler phi, Jordan) are small-prime sieves: a
Python loop over the primes up to sqrt(n) only, each step one strided array
operation, then one masked array step for the single prime factor above
sqrt(n) that an integer up to n can have.  The Moebius values come back as
int8.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV = os.environ.get("HOROLAB_BACKEND", "auto").strip().lower()
if _ENV not in ("auto", "numba", "numpy"):
    raise ValueError(f"HOROLAB_BACKEND must be auto|numba|numpy, got {_ENV!r}")

_HAVE_NUMBA = False
if _ENV in ("auto", "numba"):
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _ENV == "numba":
            raise
if not _HAVE_NUMBA:

    def njit(*args, **kwargs):  # no-op decorator, keeps one source of truth
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


BACKEND = "numba" if _HAVE_NUMBA else "numpy"


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


def _phi_sieve_np(n: int) -> np.ndarray:
    return _jordan_sieve_np(n, 1)


@njit(cache=True)
def _phi_sieve_nb(n):  # pragma: no cover - exercised via dispatch
    phi = np.arange(n + 1).astype(np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _mobius_sieve_np(n: int) -> np.ndarray:
    # values are in {-1, 0, 1}, so int8 holds them
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    primes, rest = _small_primes_and_rest(n)
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    np.negative(mu, out=mu, where=rest > 1)
    return mu


@njit(cache=True)
def _mobius_sieve_nb(n):  # pragma: no cover
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    is_comp = np.zeros(n + 1, dtype=np.uint8)
    for p in range(2, n + 1):
        if is_comp[p] == 0:
            for m in range(p, n + 1, p):
                if m > p:
                    is_comp[m] = 1
                mu[m] = -mu[m]
            p2 = p * p
            if p2 <= n:
                for m in range(p2, n + 1, p2):
                    mu[m] = 0
    return mu


def _jordan_sieve_np(n: int, k: int) -> np.ndarray:
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


@njit(cache=True)
def _jordan_sieve_nb(n, k):  # pragma: no cover
    j = np.empty(n + 1, dtype=np.int64)
    for q in range(n + 1):
        v = 1
        for _ in range(k):
            v *= q
        j[q] = v
    is_comp = np.zeros(n + 1, dtype=np.uint8)
    for p in range(2, n + 1):
        if is_comp[p] == 0:
            pk = 1
            for _ in range(k):
                pk *= p
            for m in range(p, n + 1, p):
                if m > p:
                    is_comp[m] = 1
                j[m] = j[m] // pk * (pk - 1)
    return j


# ---------------------------------------------------------------------------
# floor prefix sums (interval counting of coprime residues)
# ---------------------------------------------------------------------------


def _floor_diff_prefix_np(u: float, v: float, m_max: int, scale: float) -> np.ndarray:
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


@njit(cache=True)
def _floor_diff_prefix_nb(u, v, m_max, scale):  # pragma: no cover
    out = np.empty(m_max + 1, dtype=np.int64)
    acc = 0
    for m in range(m_max + 1):
        acc += int(math.floor(scale * m * v)) - int(math.floor(scale * m * u))
        out[m] = acc
    return out


# ---------------------------------------------------------------------------
# primitive point enumeration
# ---------------------------------------------------------------------------


@njit(cache=True)
def _gcd2(a, b):  # pragma: no cover
    while b:
        a, b = b, a % b
    return a if a >= 0 else -a


def _farey_d2_np(qmax: int, lo: float, hi: float):
    qs_out = []
    ps_out = []
    for q in range(1, qmax + 1):
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


@njit(cache=True)
def _farey_d2_nb(qmax, lo, hi):  # pragma: no cover
    count = 0
    for q in range(1, qmax + 1):
        p0 = int(math.ceil(lo * q))
        p1 = int(math.floor(hi * q))
        for p in range(p0, p1 + 1):
            if _gcd2(p, q) == 1:
                count += 1
    qs = np.empty(count, dtype=np.int64)
    ps = np.empty(count, dtype=np.int64)
    i = 0
    for q in range(1, qmax + 1):
        p0 = int(math.ceil(lo * q))
        p1 = int(math.floor(hi * q))
        for p in range(p0, p1 + 1):
            if _gcd2(p, q) == 1:
                qs[i] = q
                ps[i] = p
                i += 1
    return qs, ps


def _farey_d3_np(qmax: int, lo1: float, hi1: float, lo2: float, hi2: float):
    qs_out, p1_out, p2_out = [], [], []
    for q in range(1, qmax + 1):
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


@njit(cache=True)
def _farey_d3_nb(qmax, lo1, hi1, lo2, hi2):  # pragma: no cover
    count = 0
    for q in range(1, qmax + 1):
        a0 = int(math.ceil(lo1 * q))
        a1 = int(math.floor(hi1 * q))
        b0 = int(math.ceil(lo2 * q))
        b1 = int(math.floor(hi2 * q))
        for a in range(a0, a1 + 1):
            g = _gcd2(a, q)
            for b in range(b0, b1 + 1):
                if _gcd2(g, b) == 1:
                    count += 1
    qs = np.empty(count, dtype=np.int64)
    p1 = np.empty(count, dtype=np.int64)
    p2 = np.empty(count, dtype=np.int64)
    i = 0
    for q in range(1, qmax + 1):
        a0 = int(math.ceil(lo1 * q))
        a1 = int(math.floor(hi1 * q))
        b0 = int(math.ceil(lo2 * q))
        b1 = int(math.floor(hi2 * q))
        for a in range(a0, a1 + 1):
            g = _gcd2(a, q)
            for b in range(b0, b1 + 1):
                if _gcd2(g, b) == 1:
                    qs[i] = q
                    p1[i] = a
                    p2[i] = b
                    i += 1
    return qs, p1, p2


def _primitive_box_np(lo: np.ndarray, hi: np.ndarray):
    """All primitive integer vectors in the closed box [lo, hi]^d, d in {2,3}."""
    d = lo.size
    axes = [np.arange(math.ceil(lo[i]), math.floor(hi[i]) + 1, dtype=np.int64) for i in range(d)]
    if any(a.size == 0 for a in axes):
        return np.empty((0, d), np.int64)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    g = np.gcd.reduce(np.abs(pts), axis=1)
    return pts[g == 1]


@njit(cache=True)
def _primitive_box_d2_nb(lo0, hi0, lo1, hi1):  # pragma: no cover
    a0, a1 = int(math.ceil(lo0)), int(math.floor(hi0))
    b0, b1 = int(math.ceil(lo1)), int(math.floor(hi1))
    count = 0
    for a in range(a0, a1 + 1):
        for b in range(b0, b1 + 1):
            if _gcd2(a, b) == 1:
                count += 1
    out = np.empty((count, 2), dtype=np.int64)
    i = 0
    for a in range(a0, a1 + 1):
        for b in range(b0, b1 + 1):
            if _gcd2(a, b) == 1:
                out[i, 0] = a
                out[i, 1] = b
                i += 1
    return out


@njit(cache=True)
def _primitive_box_d3_nb(lo0, hi0, lo1, hi1, lo2, hi2):  # pragma: no cover
    a0, a1 = int(math.ceil(lo0)), int(math.floor(hi0))
    b0, b1 = int(math.ceil(lo1)), int(math.floor(hi1))
    c0, c1 = int(math.ceil(lo2)), int(math.floor(hi2))
    count = 0
    for a in range(a0, a1 + 1):
        for b in range(b0, b1 + 1):
            g = _gcd2(a, b)
            for c in range(c0, c1 + 1):
                if _gcd2(g, c) == 1:
                    count += 1
    out = np.empty((count, 3), dtype=np.int64)
    i = 0
    for a in range(a0, a1 + 1):
        for b in range(b0, b1 + 1):
            g = _gcd2(a, b)
            for c in range(c0, c1 + 1):
                if _gcd2(g, c) == 1:
                    out[i, 0] = a
                    out[i, 1] = b
                    out[i, 2] = c
                    i += 1
    return out


def _primitive_box_nb(lo, hi):  # dispatch helper, not jitted itself
    if lo.size == 2:
        return _primitive_box_d2_nb(lo[0], hi[0], lo[1], hi[1])
    if lo.size == 3:
        return _primitive_box_d3_nb(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
    return _primitive_box_np(lo, hi)


# ---------------------------------------------------------------------------
# dispatch table
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:
    phi_sieve = _phi_sieve_nb
    mobius_sieve = _mobius_sieve_nb
    jordan_sieve = _jordan_sieve_nb
    floor_diff_prefix = _floor_diff_prefix_nb
    farey_d2 = _farey_d2_nb
    farey_d3 = _farey_d3_nb
    primitive_box = _primitive_box_nb
else:
    phi_sieve = _phi_sieve_np
    mobius_sieve = _mobius_sieve_np
    jordan_sieve = _jordan_sieve_np
    floor_diff_prefix = _floor_diff_prefix_np
    farey_d2 = _farey_d2_np
    farey_d3 = _farey_d3_np
    primitive_box = _primitive_box_np

NUMPY_IMPLS = {
    "phi_sieve": _phi_sieve_np,
    "mobius_sieve": _mobius_sieve_np,
    "jordan_sieve": _jordan_sieve_np,
    "floor_diff_prefix": _floor_diff_prefix_np,
    "farey_d2": _farey_d2_np,
    "farey_d3": _farey_d3_np,
    "primitive_box": _primitive_box_np,
}

NUMBA_IMPLS = (
    {
        "phi_sieve": _phi_sieve_nb,
        "mobius_sieve": _mobius_sieve_nb,
        "jordan_sieve": _jordan_sieve_nb,
        "floor_diff_prefix": _floor_diff_prefix_nb,
        "farey_d2": _farey_d2_nb,
        "farey_d3": _farey_d3_nb,
        "primitive_box": _primitive_box_nb,
    }
    if _HAVE_NUMBA
    else None
)
