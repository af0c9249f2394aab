import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horolab import _kernels as K


def brute_phi(n):
    return [0] + [sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1) for q in range(1, n + 1)]


def brute_mobius(n):
    out = [0] * (n + 1)
    for q in range(1, n + 1):
        m, val, square_free = q, 1, True
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    square_free = False
                    break
                val = -val
            p += 1
        if not square_free:
            out[q] = 0
        else:
            out[q] = -val if m > 1 else val
    out[1] = 1
    return out


# the per-integer loops the numpy sieves replaced, kept as references
def loop_phi_sieve(n):
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def loop_mobius_sieve(n):
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, n + 1):
        if is_prime[p]:
            is_prime[2 * p :: p] = False
            mu[p::p] *= -1
            p2 = p * p
            if p2 <= n:
                mu[p2::p2] = 0
    return mu


def loop_jordan_sieve(n, k):
    j = np.arange(n + 1, dtype=np.int64) ** k
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, n + 1):
        if is_prime[p]:
            is_prime[2 * p :: p] = False
            pk = p**k
            j[p::p] //= pk
            j[p::p] *= pk - 1
    return j


# the sieves treat primes up to isqrt(n) apart from the one larger factor,
# so squares of primes and their neighbours sit on the split
SIEVE_SIZES = [0, 1, 2, 3, 4] + [v for p in (2, 3, 5, 7, 31, 97, 443) for v in (p * p - 1, p * p, p * p + 1)]


def assert_sieves_match_loops(n):
    assert np.array_equal(K.mobius_sieve(n), loop_mobius_sieve(n))
    assert np.array_equal(K.phi_sieve(n), loop_phi_sieve(n))
    for k in (1, 2):
        assert np.array_equal(K.jordan_sieve(n, k), loop_jordan_sieve(n, k))


@pytest.mark.parametrize("n", SIEVE_SIZES)
def test_sieves_match_loops(n):
    assert_sieves_match_loops(n)


@settings(deadline=None, max_examples=8)
@given(st.integers(0, 200_000))
def test_sieves_match_loops_random_size(n):
    assert_sieves_match_loops(n)


def test_floor_diff_prefix_matches_plain_expression():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.uniform(-1.0, 1.0)
        v = u + rng.uniform(0.0, 1.0)
        m_max = int(rng.integers(0, 3000))
        scale = float(rng.choice([1.0, 2.0, rng.uniform(0.1, 3.0)]))
        m = np.arange(m_max + 1, dtype=np.float64)
        want = np.cumsum((np.floor(scale * m * v) - np.floor(scale * m * u)).astype(np.int64))
        got = K.floor_diff_prefix(u, v, m_max, scale)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# squares and r (r + 1), where m // isqrt(m) is or is not isqrt(m) again, and
# cubes k^3 and their neighbours, where the quotient m // k = k^2 sits on the
# sieve length ceil(m^{2/3})
MERTENS_SIZES = st.one_of(
    st.integers(1, 60_000),
    st.integers(1, 300).map(lambda r: r * r),
    st.integers(1, 300).map(lambda r: r * (r + 1)),
    st.tuples(st.integers(1, 40), st.integers(-1, 1)).map(lambda c: max(1, c[0] ** 3 + c[1])),
)


@settings(deadline=None, max_examples=150)
@given(MERTENS_SIZES)
@example(1)
@example(2)
@example(8)
@example(27_000)
def test_mertens_quotients_match_the_sieve(m):
    ends, mertens = K.mertens_quotients(m)
    assert ends.dtype == mertens.dtype == np.int64
    assert np.array_equal(ends, np.unique(m // np.arange(1, m + 1)))
    assert np.array_equal(mertens, np.cumsum(K.mobius_sieve(m), dtype=np.int64)[ends])


def test_phi_sieve_values():
    assert K.phi_sieve(30).tolist() == brute_phi(30)


def test_mobius_sieve_values():
    assert K.mobius_sieve(30).tolist() == brute_mobius(30)


def test_jordan_sieve_values():
    j2 = K.jordan_sieve(20, 2)
    for q in range(1, 21):
        want = sum(1 for a in range(q) for b in range(q) if math.gcd(math.gcd(a, b), q) == 1)
        assert j2[q] == want
    assert np.array_equal(K.jordan_sieve(40, 1), K.phi_sieve(40))


@st.composite
def floor_sum_cases(draw):
    b = draw(st.integers(1, 5000))
    return draw(st.integers(0, b - 1)), b, draw(st.lists(st.integers(0, 3000), max_size=8))


@settings(deadline=None, max_examples=200)
@given(floor_sum_cases())
@example((0, 1, [0, 1, 7]))
@example((1, 2, []))
def test_floor_sums_match_the_loop(case):
    a, b, n = case
    got = K.floor_sums(np.array(n, dtype=np.int64), a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(k * a // b for k in range(1, x + 1)) for x in n]


def test_floor_sums_at_full_size():
    # b and n near m = 3,811,092, the largest the d = 2 rows reach
    b, n = 3_811_091, [3_811_092, 1_905_546, 1]
    for a in (1, 1_905_545, b - 1):
        # sum_{k <= x} floor(k a / b) = (a x (x + 1) / 2 - sum_k (k a mod b)) / b
        want = [(a * x * (x + 1) // 2 - int((np.arange(1, x + 1, dtype=np.int64) * a % b).sum())) // b for x in n]
        assert K.floor_sums(np.array(n, dtype=np.int64), a, b).tolist() == want


def test_floor_diff_prefix():
    got = K.floor_diff_prefix(0.15, 0.85, 25, 1.0)
    acc = 0
    for m in range(26):
        acc += math.floor(0.85 * m) - math.floor(0.15 * m)
        assert got[m] == acc


def test_farey_kernels_match_each_other():
    ps, qs = K.farey_d2(12, 0.0, 1.0).T
    want = [(p, q) for q in range(1, 13) for p in range(0, q + 1) if math.gcd(p, q) == 1]
    assert sorted(zip(ps.tolist(), qs.tolist())) == sorted(want)
    p1, p2, qs3 = K.farey_d3(5, 0.0, 1.0, 0.0, 1.0).T
    want3 = [
        (a, b, q)
        for q in range(1, 6)
        for a in range(0, q + 1)
        for b in range(0, q + 1)
        if math.gcd(math.gcd(a, b), q) == 1
    ]
    assert sorted(zip(p1.tolist(), p2.tolist(), qs3.tolist())) == sorted(want3)


@pytest.mark.parametrize("qmax, lo, hi", [
    (15, [-0.3], [0.7]),
    (9, [0.1, -0.25], [0.6, 1.0]),
    (6, [0.0, 0.2, -0.5], [1.0, 0.9, 0.5]),
    (4, [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
    (5, [0.3, 0.0], [0.31, 1.0]),  # no integer p_1 for most q
])
def test_farey_primitive_rows_in_kernel_order(qmax, lo, hi):
    # farey_d2 and farey_d3, the names perfbench traces, take the bounds axis
    # by axis and return farey_points' int64 (p_1, ..., q) rows; farey's
    # test_farey_arrays_is_the_gcd_listing_of_the_cone checks those rows
    got = K.farey_points(qmax, lo, hi)
    assert got.dtype == np.int64 and got.ndim == 2 and got.shape[1] == len(lo) + 1
    named = {1: K.farey_d2, 2: K.farey_d3}.get(len(lo))
    if named is not None:
        assert np.array_equal(named(qmax, *[v for pair in zip(lo, hi) for v in pair]), got)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3), st.integers(0, 12), st.integers(-3, 3), st.data())
def test_primitive_rows_keeps_each_rows_range_in_order(k, n_rows, roll, data):
    # explicit rows with one range of last entries each (some empty), rolled
    rows = np.array(data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                                       min_size=n_rows, max_size=n_rows)), np.int64).reshape(n_rows, k)
    first = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=n_rows, max_size=n_rows)), np.int64)
    last = first + np.array(data.draw(st.lists(st.integers(-2, 9), min_size=n_rows, max_size=n_rows)), np.int64)
    got = K._primitive_rows(rows, first, last, roll=roll)
    want = [(*r, n) for r, a, b in zip(rows.tolist(), first.tolist(), last.tolist())
            for n in range(a, b + 1) if math.gcd(*r, n) == 1]
    assert got.dtype == np.int64 and got.shape == (len(want), k + 1)
    assert np.array_equal(got, np.roll(np.array(want, np.int64).reshape(-1, k + 1), roll, axis=1))


def test_primitive_box():
    boxes = [
        ([-3.0, -3.0], [3.0, 3.0]),
        ([-2.5, -1.0, 0.2], [3.7, 2.0, 4.0]),  # d = 3, not symmetric, fractional bounds
        ([-1.0, 0.0, -2.0, 1.0], [1.0, 2.0, 1.5, 2.0]),  # d = 4
        ([0.2, -1.0, -1.0], [0.8, 1.0, 1.0]),  # no integer on the first axis
    ]
    for lo, hi in boxes:
        got = K.primitive_box(np.array(lo), np.array(hi))
        axes = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
        want = [v for v in itertools.product(*axes) if math.gcd(*v) == 1]
        assert got.dtype == np.int64 and got.shape == (len(want), len(lo))
        assert [tuple(v) for v in got.tolist()] == want


def test_benchmark_tracer_names_resolve():
    # perfbench/tracing.py swaps the module attributes in LAYERS for timing
    # wrappers through getattr; a renamed layer would break traced runs
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for owner_name, attr, _name, _counters in tracing.LAYERS:
        module, _, cls = owner_name.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), (owner_name, attr)


def test_benchmark_kernel_cases_resolve():
    # bench/benchmark_kernels.py looks its cases up by name when it runs; a
    # rename in src/ would break the kernel timings.  Resolved as its main()
    # does, without running a case
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "benchmark_kernels.py"
    spec = importlib.util.spec_from_file_location("benchmark_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.CASES
    for label, name, fargs in bench.CASES:
        assert callable(bench.resolve(name)), label
        assert callable(fargs) or isinstance(fargs, tuple), label
