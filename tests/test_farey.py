import io
import itertools
import math
import warnings
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import shear_products
from horolab import _kernels as K, algebra, farey, targets as tg
from horolab.errors import HorolabError, InvalidDimensionError, ResourceLimitError


def brute_farey(d, qmax):
    """Independent enumeration oracle over [0,1)^{d-1}."""
    pts = set()
    for q in range(1, qmax + 1):
        for p in np.ndindex(*([q] * (d - 1))):
            g = 0
            for v in p:
                g = math.gcd(g, v)
            if math.gcd(g, q) == 1:
                pts.add(tuple(v / q for v in p))
    return pts


def test_enumerate_examples():
    pts = farey.enumerate_farey(2, 3)
    assert [p.point[0] for p in pts] == [0.0, 0.5, 1 / 3, 2 / 3]  # (q, p) order
    assert {p.point[0] for p in pts} == {0.0, 1 / 3, 0.5, 2 / 3}
    pts3 = farey.enumerate_farey(3, 2)
    assert len(pts3) == 4
    assert {p.point for p in pts3} == {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
    assert [p.point[0] for p in farey.enumerate_farey(2, 1)] == [0.0]


def test_enumerate_rejects_small_q():
    with pytest.raises(HorolabError):
        farey.enumerate_farey(2, 0.5)


def test_enumeration_matches_brute_force():
    for d, q in ((2, 20), (3, 7), (4, 4)):
        assert {p.point for p in farey.enumerate_farey(d, q)} == brute_farey(d, q)


def test_points_are_primitive():
    for p in farey.enumerate_farey(3, 9):
        assert math.gcd(math.gcd(p.source[0], p.source[1]), p.source[2]) == 1


def test_monotone_in_q():
    small = {p.point for p in farey.enumerate_farey(2, 11)}
    big = {p.point for p in farey.enumerate_farey(2, 23)}
    assert small <= big


def _record_bits(pts):
    """Sources and the exact bits of every float field, record by record."""
    return [(p.source, [x.hex() for x in (*p.alpha_prime, p.alpha_d, *p.point)]) for p in pts]


def _index_records(idx):
    return [idx.record(i) for i in range(len(idx))]


def _translated_records(L, Q, box):
    """Point records of the sequence attached to L, in index order."""
    return _index_records(farey.farey_index(np.asarray(L).shape[0], Q, L=L, box=box))


def test_translated_identity_matches_farey():
    # the identity through the general-L enumeration, cut to the half-open
    # unit box of the classical sequence, gives the classical records in
    # the same order, with the same float bits
    for d, Q in ((2, 7.0), (2, 13.5), (3, 4.0), (3, 6.0), (4, 4.0)):
        unit = (np.zeros(d - 1), np.ones(d - 1))
        want = farey.enumerate_farey(d, Q)
        assert len(want) > 0
        sources, alpha = farey.translated_arrays(np.eye(d), Q, unit)
        keep = np.all(alpha[:, : d - 1] / alpha[:, d - 1 :] < 1.0, axis=1)
        got = _index_records(farey.FareyIndex(d, sources[keep], alpha[keep]))
        assert _record_bits(got) == _record_bits(want)


def test_translated_shear_example():
    # L = [[1,0],[1,1]] maps sources (p, q) to (p, q - p)
    pts = _translated_records(np.array([[1.0, 0.0], [1.0, 1.0]]), 1.0, ([0.0], [1.0]))
    assert [(p.point[0], p.alpha_d) for p in pts] == [(0.0, 1.0), (1.0, 1.0)]


def test_translated_integer_invariance():
    gamma0 = np.array([[2.0, 1.0], [1.0, 1.0]])
    for q in (3.0, 9.0):
        a = {p.point for p in _translated_records(gamma0, q, ([0.0], [1.0]))}
        b = {p.point for p in _translated_records(np.eye(2), q, ([0.0], [1.0]))}
        assert a == b


def test_translated_rejects_unbounded_box():
    with pytest.raises(HorolabError):
        _translated_records(np.eye(2), 3.0, ([0.0], [math.inf]))


def _transpose_inverse(L):
    L = np.asarray(L)
    return np.asarray((algebra.fraction_matrix_inverse(L) if L.dtype == object else np.linalg.inv(L)).T, dtype=float)


def _box_images(L, alo, ahi):
    """Oracle for the row walk: every primitive source in the whole integer
    box around the preimage of [alo, ahi] (corner images floored and ceiled,
    inflated by 1), through K.primitive_box, with its image."""
    L = np.asarray(L)
    tLinv = _transpose_inverse(L)
    corners = np.array(list(itertools.product(*zip(alo, ahi)))) @ np.asarray(L, dtype=float).T
    sources = K.primitive_box(np.floor(corners.min(axis=0)) - 1, np.ceil(corners.max(axis=0)) + 1)
    return sources, sources.astype(float) @ tLinv


def _box_translated(L, Q, lo, hi):
    """translated_arrays by the box oracle, with the same filter."""
    d = len(lo) + 1
    sources, alpha = _box_images(L, np.append(np.minimum(lo * Q, 0.0), 0.0), np.append(np.maximum(hi * Q, 0.0), Q))
    ad = alpha[:, d - 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pts = alpha[:, : d - 1] / ad[:, None]
    keep = (ad > 0) & (ad <= Q + 1e-12) & np.all(pts >= lo - 1e-12, axis=1) & np.all(pts <= hi + 1e-12, axis=1)
    return sources[keep], alpha[keep]


def _box_alpha_box(L, Q):
    """translated_alpha_box_arrays by the box oracle, with the same filter."""
    d = np.asarray(L).shape[0]
    sources, alpha = _box_images(L, np.zeros(d), np.full(d, float(Q)))
    keep = (alpha[:, d - 1] > 0) & np.all(alpha <= Q + 1e-9, axis=1) & np.all(alpha >= -1e-9, axis=1)
    return sources[keep], alpha[keep]


# a Fraction L; one whose transpose-inverse has a 0 that rounds to -7.4e-17
# in its last row, so the n_d ends of that coordinate come out near 1e17 and
# must be clipped before the integer cast; one whose subnormal entry sends
# them to infinity; and a rotation whose transpose-inverse has a -0.0 there
FRACTION_L = np.array([[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1)]], dtype=object)
ROUNDING_ZERO_L = np.array([[1.0, 0.0], [-1.51, 1.0]])
SUBNORMAL_L = np.array([[1.0, 1.1125369292536007e-308], [0.0, 1.0]])
ROTATION_L = np.array([[0.0, -1.0], [1.0, 0.0]])


@st.composite
def translated_cases(draw):
    """(L, Q, lo, hi): a shear product at d = 2 or 3 or the Fraction L, a
    denominator bound (below 1 too) and a box of points that may cross 0."""
    L = draw(st.one_of(shear_products(2), shear_products(3), st.just(FRACTION_L)))
    d = L.shape[0]
    lo = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(d - 1)])
    hi = lo + [draw(st.floats(0.3, 1.5)) for _ in range(d - 1)]
    Q = draw(st.sampled_from([60.0, 20.0, 5.0, 0.5] if d == 2 else [8.0, 3.0, 0.5])) + draw(st.floats(0.0, 0.5))
    return L, Q, lo, hi


@settings(deadline=None, max_examples=60)
@given(translated_cases())
@example((ROUNDING_ZERO_L, 6.0, np.array([-0.5]), np.array([1.0])))
@example((SUBNORMAL_L, 1.0, np.array([0.0]), np.array([1.0])))
@example((ROTATION_L, 5.0, np.array([-1.0]), np.array([0.5])))
@example((FRACTION_L, 7.5, np.array([-0.25]), np.array([0.75])))
def test_translated_walk_matches_the_whole_preimage_box(case):
    # the row walk keeps, in the same order, the sources the whole-box
    # enumeration keeps, with images within a few roundings of a dot product
    L, Q, lo, hi = case
    tLinv = _transpose_inverse(L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [
            (farey.translated_arrays(L, Q, (lo, hi)), _box_translated(L, Q, lo, hi)),
            (farey.translated_alpha_box_arrays(L, max(Q, 1.0)), _box_alpha_box(L, max(Q, 1.0))),
        ]
    for (sources, alpha), (want_sources, want_alpha) in pairs:
        assert sources.dtype == np.int64 and np.array_equal(sources, want_sources)
        rounding = 8 * np.finfo(float).eps * (np.abs(sources) @ np.abs(tLinv))
        assert np.all(np.abs(alpha - want_alpha) <= rounding)


def test_lattice_points_takes_exactly_the_rows_of_the_box():
    # a shear maps the rows (n_1, n_2) to (n_1, n_1 / 2 + n_2): the primitive
    # rows whose image lies in [-3, 3] x [0, 1], lexicographic
    C = np.array([[1.0, 0.5], [0.0, 1.0]])
    got = farey.lattice_points(C, np.array([-3.0, 0.0]), np.array([3.0, 1.0]))
    want = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if 0 <= a / 2 + b <= 1 and math.gcd(a, b) == 1]
    assert got.dtype == np.int64 and [tuple(v) for v in got.tolist()] == want


def test_check_budget_takes_float_bounds_and_refuses_nan():
    farey.check_budget(float(farey.ENUM_BUDGET), "grid")
    for n in (farey.ENUM_BUDGET + 0.5, math.inf, math.nan):
        with pytest.raises(ResourceLimitError, match="grid"):
            farey.check_budget(n, "grid")


def test_count_examples():
    exact, asym = farey.count_farey(2, 3)
    assert exact == 4
    assert abs(asym - 9 / (2 * algebra.zeta(2))) <= 1e-12
    exact4, _ = farey.count_farey(2, 10_000)
    assert abs(exact4 / (10_000**2 / (2 * algebra.zeta(2))) - 1) <= 1e-3
    exact3, asym3 = farey.count_farey(3, 50)
    assert exact3 == len(brute_farey(3, 50)) == 35616
    # the exact ratio at Q = 50 is 1.0275; lattice fluctuation, not a bug
    assert abs(exact3 / asym3 - 1) <= 0.03


def test_count_ratio_growth_d2():
    # |exact/asymptotic - 1| <= C/Q with a fitted C staying small
    cs = []
    for q in (100, 1000, 10_000, 100_000, 1_000_000):
        exact, asym = farey.count_farey(2, q)
        cs.append(abs(exact / asym - 1) * q)
    assert max(cs) <= 5.0


def test_count_in_interval_vs_brute():
    qmax = 60
    mu = None
    for u, v in ((0.1, 0.35), (0.0, 1.0), (0.25, 0.25 + 1e-9)):
        got = farey.count_farey_in_interval(qmax, u, v)
        want = sum(
            1
            for q in range(1, qmax + 1)
            for p in range(-qmax, 2 * qmax)
            if math.gcd(p, q) == 1 and u * q < p <= v * q
        )
        assert got == want
    # scaled family: points p/(2q)
    got = farey.count_farey_in_interval(qmax, 0.2, 0.8, scale=2.0)
    want = sum(
        1
        for q in range(1, qmax + 1)
        for p in range(0, 3 * qmax)
        if math.gcd(p, q) == 1 and 0.2 * 2 * q < p <= 0.8 * 2 * q
    )
    assert got == want


def loop_count_in_interval(Q, u, v, scale=1.0):
    """The per-divisor Moebius scan the divisor-block sum replaced."""
    m = int(math.floor(Q))
    mu = K.mobius_sieve(m)
    prefix = K.floor_diff_prefix(u, v, m, scale)
    total = 0
    for e in range(1, m + 1):
        if mu[e]:
            total += int(mu[e]) * int(prefix[m // e])
    return total


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.integers(1, 300), st.integers(1, 200_000)),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.5),
    st.sampled_from([1.0, 2.0, 0.5, math.sqrt(2.0)]),
)
def test_count_in_interval_matches_per_divisor_scan(m, u, length, scale):
    assert farey.count_farey_in_interval(m, u, u + length, scale=scale) == loop_count_in_interval(m, u, u + length, scale)


def test_count_in_interval_sieves_to_m_two_thirds(monkeypatch):
    # the t = 15.5 exact-window row: the Moebius sieve stops at ceil(m^{2/3})
    lengths = []
    sieve = K.mobius_sieve
    monkeypatch.setattr(K, "mobius_sieve", lambda n: lengths.append(n) or sieve(n))
    m = 3_811_092
    farey.count_farey_in_interval(m, 0.1, 0.7)
    assert lengths == [24_399]


ROOT2 = math.sqrt(2.0)
PREFIX_SCALES = [1.0, 2.0, 0.5, 2.25, ROOT2, ROOT2 * ROOT2]


@st.composite
def prefix_cases(draw):
    """(m, u, v, scale) for the floor-difference prefix at the quotients."""
    m = draw(st.one_of(
        st.integers(1, 200_000),
        st.integers(1, 447).map(lambda r: r * r),
        st.integers(1, 446).map(lambda r: r * (r + 1)),
    ))
    scale = draw(st.one_of(st.sampled_from(PREFIX_SCALES), st.floats(0.1, 4.0)))

    def end(big):
        p, q = draw(st.integers(-900, 900)), draw(st.integers(1, 300))
        ends = [st.just(p / q), st.just(p / (scale * q)), st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310])]
        # large dyadic ends, where X's own multiples are exact hits of a
        # rounded fl(k*scale); the float floors stay below 2^52, where the
        # kernel's float differences are exact
        big_ends = [st.integers(1, 20).map(lambda c: (2 * c - 1) * 2.0 ** (43 - m.bit_length()))]
        x = draw(st.one_of(ends + big_ends if big else ends))
        for _ in range(draw(st.integers(0, 3))):
            x = float(np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf]))))
        return x

    u = end(True)
    close = abs(u) > 3.0 or draw(st.booleans())
    v = u + draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) if close else end(False)
    return m, u, v, scale


@settings(deadline=None, max_examples=200)
@given(prefix_cases())
# fl(10 * 0.7) = 7 although fl(0.7) < 7/10
@example((10, 0.6, 0.7, 1.0))
@example((3_000, 0.1, 0.7, 1.0))
# X = scale * 0.5 is 1 + 2^-52, near 1/1 without being on it: every k checked
@example((5_000, 0.1, 0.5, ROOT2 * ROOT2))
# X = 1 - 2^-53: fl(k X) is k for every k, over several chunks of multiples
@example((200_000, 0.0, 1.0 - 2.0**-53, 1.0))
# X = 3 (2^52 + 1) / 2^9 in F_600, and fl(512 fl(sqrt 2)^2) 3 2^42 rounds
@example((600, 3 * 2.0**42 - 1.0, 3 * 2.0**42, ROOT2 * ROOT2))
# below the normal range: fl(0.4 * -5e-324) is -0.0
@example((300, -5e-324, 5e-324, 0.4))
@example((40_000, 0.0, 1.0, 2.25))
def test_interval_prefix_matches_the_float_prefix(case):
    m, u, v, scale = case
    ends, _ = K.mertens_quotients(m)
    got = farey._interval_prefix(u, v, scale, m, m // ends)
    assert got.dtype == np.int64
    assert np.array_equal(got, K.floor_diff_prefix(u, v, m, scale)[m // ends])


def test_count_in_interval_keeps_no_length_m_array():
    # the t = 15.5 exact-window row, and the unit cells with scale 1 and 2.25
    # (the latter is one end on 9/4 in F_m, with exact floats)
    m = 3_811_092
    tracemalloc.start()
    try:
        got = farey.count_farey_in_interval(m, 0.1 + 0.1 * math.exp(-31.0), 0.7 - 0.1 * math.exp(-31.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 2_648_937_568_494 and peak < 2 << 20
    assert farey.count_farey_in_interval(m, 0.0, 1.0) == 4_414_895_947_502
    assert farey.count_farey_in_interval(m, 0.0, 1.0, scale=2.25) == 9_933_515_882_082


def brute_farey_line(a, b, m):
    """The reduced p/q with 1 <= q <= m and a <= p/q <= b, in increasing order."""
    found = set()
    for q in range(1, m + 1):
        for p in range(math.ceil(a * q), math.floor(b * q) + 1):
            if math.gcd(p, q) == 1:
                found.add(Fraction(p, q))
    return sorted(found)


# x as a fraction: any rational, an integer (negative too), or a member of F_m
farey_x = st.one_of(
    st.builds(Fraction, st.integers(-500, 500), st.integers(1, 200)),
    st.builds(Fraction, st.integers(-5, 5)),
    st.floats(-3.0, 3.0).map(Fraction),
)


@settings(deadline=None, max_examples=300)
@given(farey_x, st.integers(1, 40))
def test_farey_neighbours_vs_brute(x, m):
    (lp, lq), (rp, rq) = farey.farey_neighbours(x, m)
    line = brute_farey_line(math.floor(x), math.floor(x) + 1, m)
    assert Fraction(lp, lq) == max(f for f in line if f <= x)
    assert Fraction(rp, rq) == min(f for f in line if f > x)
    # reduced, with positive denominators in F_m
    assert 1 <= lq <= m and 1 <= rq <= m and math.gcd(lp, lq) == math.gcd(rp, rq) == 1


def test_farey_neighbours_on_members_and_integers():
    assert farey.farey_neighbours(Fraction(1, 3), 5) == ((1, 3), (2, 5))
    assert farey.farey_neighbours(Fraction(-2), 3) == ((-2, 1), (-5, 3))
    assert farey.farey_neighbours(Fraction(-1, 7), 1) == ((-1, 1), (0, 1))
    assert farey.farey_neighbours(Fraction(0), 1) == ((0, 1), (1, 1))
    # one batched step each way; single mediant steps would take 10^12
    assert farey.farey_neighbours(Fraction(1, 10**12 + 1), 10**12) == ((0, 1), (1, 10**12))
    assert farey.farey_neighbours(Fraction(-1, 10**12 + 1), 10**12) == ((-1, 10**12), (0, 1))


@settings(deadline=None, max_examples=300)
@given(farey_x, st.floats(0.0, 2.5).map(Fraction), st.integers(1, 40))
def test_farey_between_vs_brute(a, length, m):
    for lo, hi in ((a, a + length), (a, a), (a + length, a)):
        p, q = farey.farey_between(lo, hi, m)
        assert p.dtype == q.dtype == np.int64
        assert [Fraction(int(a_), int(b_)) for a_, b_ in zip(p, q)] == brute_farey_line(lo, hi, m)
        assert np.all(q >= 1) and np.all(np.gcd(p, q) == 1)


def test_counts_below_one_are_empty():
    assert farey.count_farey(2, 0.5)[0] == 0
    assert farey.count_farey(3, 0.99)[0] == 0
    assert farey.count_farey_in_interval(0.7, 0.0, 1.0) == 0
    idx = farey.farey_index(2, 0.8, box=([0.0], [1.0]))
    assert len(idx) == 0 and idx.near([0.5], 0.1).size == 0


def test_counts_check_the_budget_before_allocating():
    for call in (lambda: farey.count_farey(2, 1e12), lambda: farey.count_farey_in_interval(1e12, 0.1, 0.7)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(0, 40), st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 1.5)), min_size=3, max_size=3))
def test_grid_bound_covers_the_kernel_grid(d, qmax, sides):
    lo = np.array([a for a, _ in sides[: d - 1]])
    hi = lo + np.array([b for _, b in sides[: d - 1]])
    grid = sum(math.prod(math.floor(h * q) - math.ceil(l * q) + 1 for l, h in zip(lo, hi)) for q in range(1, qmax + 1))
    bound = farey._grid_bound(qmax, lo, hi)
    assert grid <= bound
    # the unit box holds q + 1 values per axis: the bound is that grid exactly
    unit = farey._grid_bound(qmax, np.zeros(d - 1), np.ones(d - 1))
    assert unit == sum((q + 1) ** (d - 1) for q in range(1, qmax + 1))


def test_farey_sources_from_a_first_denominator():
    # q_first drops the sources below it and leaves the others as they were
    for d, box in ((2, ([-0.3], [0.7])), (3, ([0.1, -0.2], [0.6, 0.4])), (4, None)):
        whole, alpha = farey.farey_arrays(d, 11.5, box=box)
        assert np.array_equal(alpha, whole.astype(float))
        for q_first in (1, 5, 11, 12):
            block = farey.farey_arrays(d, 11.5, box=box, q_first=q_first)[0]
            assert np.array_equal(block, whole[whole[:, -1] >= q_first])


@st.composite
def cone_cases(draw):
    # d = 2, 3, 4; Q fractional and below 1, boxes reaching below 0, and
    # empty ranges where hi < lo or the interval holds no p / q
    d = draw(st.integers(2, 4))
    lo = [draw(st.floats(-1.5, 1.0)) for _ in range(d - 1)]
    hi = [a + draw(st.one_of(st.floats(-0.2, 1.2), st.just(0.0))) for a in lo]
    Q = draw(st.one_of(st.floats(0.0, (40.0, 14.0, 7.0)[d - 2]), st.integers(1, (40, 14, 7)[d - 2])))
    return d, Q, lo, hi, draw(st.integers(1, math.floor(Q) + 2))


@settings(deadline=None, max_examples=80)
@given(cone_cases())
@example((3, 12.0, [-1.0, 0.0], [0.0, 1.0], 1))
@example((4, 9.5, [0.3, -0.5, 0.0], [0.31, 0.5, 1.0], 4))
@example((2, 15, [-0.3], [0.7], 1))
@example((3, 9, [0.1, -0.25], [0.6, 1.0], 1))
@example((4, 6, [0.0, 0.2, -0.5], [1.0, 0.9, 0.5], 1))
@example((5, 4, [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], 1))
@example((3, 5, [0.3, 0.0], [0.31, 1.0], 1))  # no integer p_1 for most q
def test_farey_arrays_is_the_gcd_listing_of_the_cone(case):
    # every primitive (p, q) with q_first <= q <= Q and lo q <= p <= hi q, in
    # (q, p) order, from a brute-force scan of the cone's integer box; the
    # examples reach d = 5 and ranges holding no integer for most q
    d, Q, lo, hi, q_first = case
    if Q < 1:
        with pytest.raises(HorolabError, match="must be >= 1"):
            farey.farey_arrays(d, Q, (lo, hi), q_first)
        assert all(a.shape == (0, d) for a in farey.sequence_arrays(d, Q, box=(lo, hi)))
        return
    qmax = math.floor(Q)
    box = [range(math.floor(min(a, 0.0) * qmax), math.ceil(max(b, 0.0) * qmax) + 1) for a, b in zip(lo, hi)]
    want = [
        (*p, q)
        for q, *p in itertools.product(range(q_first, qmax + 1), *box)
        if all(a * q <= x <= b * q for a, b, x in zip(lo, hi, p)) and math.gcd(q, *p) == 1
    ]
    sources, alpha = farey.farey_arrays(d, Q, (lo, hi), q_first)
    assert sources.dtype == np.int64 and sources.shape == (len(want), d) and alpha is sources
    assert [tuple(v) for v in sources.tolist()] == want


def test_window_index_counts_every_point_and_indexes_the_window():
    # identity L counts the points up to Q by the Moebius count
    # (count_farey_arrays), and lists only the window's denominators; the
    # unipotent L walks once and keeps the window's points.  Either way the
    # count is the number of points sequence_arrays lists up to Q (none for
    # Q < 1), and the index holds the points of the window among them
    boxes = {2: [([-0.3], [0.7])], 3: [(np.full(2, -0.0123), np.full(2, 1.0123)), ([0.1, -0.2], [0.6, 0.4])],
             4: [None, ([-0.2, 0.0, 0.3], [0.5, 1.0, 0.31])]}
    for d, box in ((d, box) for d, listed in boxes.items() for box in listed):
        unipotent = np.eye(d)
        unipotent[d - 1, : d - 1] = [math.sqrt(2) - 1, math.sqrt(3) - 1, 0.5][: d - 1]
        for Q in (0.5, 1.0, 7.3, 11.5):
            if Q >= 1:
                assert farey.count_farey_arrays(d, Q, box) == len(farey.farey_arrays(d, Q, box=box)[0])
            for L in (None, unipotent) if d < 4 else (None,):
                sources, alpha = farey.sequence_arrays(d, Q, L=L, box=box)
                for lo, hi in ((0.0, Q), (2.5, 0.8 * Q), (3.0, 3.0), (5.5, 5.7)):  # the last holds no denominator
                    index, count = farey.window_index(d, Q, (lo, hi), L=L, box=box)
                    assert count == len(sources)
                    inside = (alpha[:, -1] >= lo) & (alpha[:, -1] <= hi)
                    want = farey.FareyIndex(d, sources[inside], alpha[inside])
                    assert np.array_equal(index.sources, want.sources) and np.array_equal(index.alpha, want.alpha)



@st.composite
def count_boxes(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    edge = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, -0.5, -0.0123]), st.floats(-1.0, 1.0))
    lo = np.array([draw(edge) for _ in range(d - 1)])
    hi = lo + np.array([draw(st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.5))) for _ in range(d - 1)])
    Q = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.5, {2: 60.0, 3: 25.0, 4: 9.0}[d])))
    return d, (lo, hi), Q


@settings(deadline=None, max_examples=200)
@given(count_boxes())
@example((3, (np.array([-0.5, 1 / 3]), np.array([0.5, 1 / 3])), 24.0))
def test_mobius_count_matches_the_listed_points(case):
    # the per-denominator Moebius count over the kernels' ranges against
    # the points the kernels list, for boxes with lo < 0, edges on
    # rationals and degenerate sides
    d, box, Q = case
    want = len(farey.farey_arrays(d, Q, box=box)[0]) if Q >= 1 else 0
    assert farey.count_farey_arrays(d, Q, box) == want


def lexsort_pair_graph(first, second):
    """The lexsort ranking of pair ends the one-key np.unique replaced,
    kept as its bitwise oracle."""
    n, d = first.shape
    ends = np.concatenate([first, second])
    order = np.lexsort(tuple(ends[:, j] for j in reversed(range(d - 1))) + (ends[:, d - 1],))
    ends = ends[order]
    new = np.ones(2 * n, dtype=bool)
    new[1:] = np.any(ends[1:] != ends[:-1], axis=1)
    rank = np.empty(2 * n, np.int64)
    rank[order] = np.cumsum(new) - 1
    return ends[new], rank[:n], rank[n:]


def pair_keys(first, second):
    """Rows (p_1, ..., p_{d-1}, q) of pair ends as farey_window_pairs' keys:
    offsets from the lows of q, p_1, ... over both arrays, in mixed radix."""
    n, d = first.shape
    ends = np.concatenate([first, second])
    cols = [ends[:, d - 1], *(ends[:, j] for j in range(d - 1))]
    radix = tuple((int(c.min()), int(c.max()) - int(c.min()) + 1) for c in cols)
    key = np.zeros(2 * n, np.int64)
    for c, (low, span) in zip(cols, radix):
        key *= span
        key += c - low
    return key[:n], key[n:], radix


@st.composite
def pair_ends(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 40))
    # small values make repeated ends; three spans of 2^20 + 1 still fit int64 keys
    value = st.one_of(st.integers(-3, 3), st.integers(-2**19, 2**19))
    ends = draw(hnp.arrays(np.int64, (2 * n, d), elements=value))
    return ends[:n], ends[n:]


# keys up to 2^63 - 1 from three spans of 2^21, which only the argsort
# ranks; then packed words: one pair, pairs whose ends repeat, and 2^20-wide
# spans at d = 2
WIDE_ENDS = (np.array([[0, 0, 0], [5, 5, 5]]), np.array([[2**21 - 1] * 3, [5, 5, 5]]))
PACKED_ENDS = [
    (np.array([[1, 2, 3]]), np.array([[0, 1, 3]])),
    (np.array([[1, 1, 2], [0, 1, 3], [1, 1, 2]]), np.array([[0, 1, 3], [1, 1, 2], [0, 1, 3]])),
    (np.array([[-2**19, 7], [3, 2**19]]), np.array([[3, 2**19], [-2**19, 7]])),
]


def packs(first, second):
    """Whether pair_graph ranks these ends by one sort of packed words, not
    by an argsort: their keys leave the bits of a position in 2n free."""
    *_keys, radix = pair_keys(first, second)
    return math.prod(span for _low, span in radix) << (2 * len(first) - 1).bit_length() <= 2**63


def test_pair_graph_examples_reach_both_rankings():
    assert not packs(*WIDE_ENDS) and all(packs(*ends) for ends in PACKED_ENDS)


@settings(deadline=None, max_examples=150)
@given(pair_ends())
@example(WIDE_ENDS)
@example(PACKED_ENDS[0])
@example(PACKED_ENDS[1])
@example(PACKED_ENDS[2])
def test_pair_graph_matches_the_lexsort_ranking_bitwise(case):
    first, second = case
    keys = pair_keys(first, second)
    assert farey.pair_rows(keys[0], keys[2]).tolist() == first.tolist()
    got, want = farey.pair_graph(*keys), lexsort_pair_graph(first, second)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_window_pairs_refuse_keys_past_int64():
    # the unit square's pairs shifted by an integer offset o on both axes
    # are the same pairs, p_i + o q; past o of about 1.2e7 the keys of
    # q <= 40 and p_i up to 40 o span more than int64, and the search
    # refuses them before building any
    def rows(offset):
        first, second, radix = farey.farey_window_pairs(40, [offset] * 2, [offset + 0.5] * 2, 0.01)
        return [farey.pair_rows(end, radix) for end in (first, second)]

    base = rows(0.0)
    assert base[0].shape[0] > 0
    for got, want in zip(rows(1000.0), base):
        assert got.tolist() == (want + 1000 * want[:, 2:] * [1, 1, 0]).tolist()
    with pytest.raises(ResourceLimitError, match="int64"):
        rows(1e12)


def test_farey_sources_budget_only_their_own_denominators(monkeypatch):
    # the unit square's candidate grid is sum (q + 1)^2: 338,349 for q <= 99,
    # 74,540 for 92 <= q <= 99 and 164,470 for 80 <= q <= 99
    unit = (np.zeros(2), np.ones(2))
    whole, _alpha = farey.farey_arrays(3, 99, box=unit)
    monkeypatch.setattr(farey, "ENUM_BUDGET", 100_000)
    high, _alpha = farey.farey_arrays(3, 99, box=unit, q_first=92)
    assert np.array_equal(high, whole[whole[:, -1] >= 92])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="Farey candidate grid"):
            farey.farey_arrays(3, 99, box=unit, q_first=80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_duplicate_region_hand_values():
    r = farey.duplicate_region(np.eye(3))
    assert r.kind == "torus" and np.allclose(r.period_basis, np.eye(2))
    r2 = farey.duplicate_region([[1, 0], ["1/2", 1]])
    assert np.allclose(r2.period_basis, [[1.0]])
    r3 = farey.duplicate_region([[0, 1], [-1, 0]])  # singular block, swap fallback
    assert np.allclose(r3.period_basis, [[1.0]])
    a = math.sqrt(2.0)
    r4 = farey.duplicate_region(np.diag([a, 1 / a]))
    assert np.allclose(r4.period_basis, [[0.5]])
    assert farey.duplicate_region(np.eye(2), assume_generic=True).kind == "all"


def test_gamma_duplicate_examples():
    assert farey.is_gamma_duplicate(np.eye(2), [1])
    assert not farey.is_gamma_duplicate(np.eye(2), [0.5])
    L = [[1, 0], ["1/2", 1]]
    # conjugation gives entries s/2 and s/4, integral only at multiples of 4
    assert farey.is_gamma_duplicate(L, [4])
    assert not farey.is_gamma_duplicate(L, [1])
    assert not farey.is_gamma_duplicate(L, [2])


def test_duplicate_freeness_inside_cell(rng):
    for L in (np.eye(2), np.array([[1.0, 0.0], [0.5, 1.0]]), np.diag([math.sqrt(2), 1 / math.sqrt(2)])):
        region = farey.duplicate_region(L)
        period = float(region.period_basis[0, 0])
        for _ in range(200):
            frac = rng.uniform(1e-6, 1 - 1e-6)
            k = int(rng.integers(-5, 6))
            s = (k + frac) * period
            assert not farey.is_gamma_duplicate(L, [s]), (L, s)
        # lattice multiples may be duplicates, but only on a sublattice
        hits = [k for k in range(1, 9) if farey.is_gamma_duplicate(L, [k * period])]
        if hits:
            g = hits[0]
            assert all(h % g == 0 for h in hits)


def test_csv_export_format():
    out = io.StringIO()
    farey.points_to_csv(farey.enumerate_farey(3, 2), out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "q,p_1,p_2,x_1,x_2"
    assert lines[1].startswith("1,0,0,")
    assert len(lines) == 5


def test_index_near_queries():
    idx = farey.farey_index(2, 40.0)
    got = idx.near([0.5], 1e-4)
    assert got.tolist() == [[0, i] for i in got[:, 1]] and {tuple(idx.sources[i]) for i in got[:, 1]} == {(1, 2)}
    got2 = idx.near([0.5], 0.2, alpha_max=3.0)
    assert {tuple(idx.sources[i]) for i in got2[:, 1]} == {(1, 2), (1, 3), (2, 3)}
    with pytest.raises(InvalidDimensionError):
        idx.near([[0.5, 0.5]], 0.1)


def brute_near(idx, xs, radius, alpha_max):
    """Every (sample, index) pair by a scan of all index points, with the
    comparisons near() documents, in sample then index order."""
    p, x = idx.points[None, :, :], xs[:, None, :]
    ok = (p[..., 0] >= x[..., 0] - radius) & (p[..., 0] <= x[..., 0] + radius)
    ok &= np.all(np.abs(p[..., 1:] - x[..., 1:]) <= radius, axis=2)
    if alpha_max is not None:
        ok &= idx.alpha_d[None, :] <= alpha_max
    return np.argwhere(ok)


@st.composite
def near_cases(draw):
    """An index (empty when Q < 1) and samples: uniform ones around its box,
    ones exactly +-radius (or 0) per axis from an index point, and ones on
    the cell edges of its key grid."""
    d = draw(st.sampled_from((2, 3, 4)))
    Q = draw(st.sampled_from((0.5, 3.0, 7.0, 15.0) if d < 4 else (0.5, 3.0, 6.0)))
    lo = draw(st.floats(-1.0, 0.5))
    side = draw(st.floats(0.0, 1.5))
    idx = farey.farey_index(d, Q, box=(np.full(d - 1, lo), np.full(d - 1, lo + side)))
    radius = draw(st.sampled_from((0.0, 1e-3)) | st.floats(0.0, 3.0))
    alpha_max = draw(st.none() | st.floats(0.5, Q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = rng.uniform(lo - 0.5, lo + side + 0.5, size=(6, d - 1))
    picks = idx.points[rng.integers(len(idx), size=6 if len(idx) else 0)]
    offset = picks + radius * rng.integers(-1, 2, size=picks.shape)
    edges = rng.uniform(lo, lo + side, size=(4, d - 1))
    k = idx._lo.size
    edges[:, :k] = idx._lo + idx._cell * rng.integers(-1, 40, size=(4, k))
    xs = rng.permutation(np.concatenate([uniform, offset, edges]))
    return idx, xs, radius, alpha_max


@settings(deadline=None, max_examples=150)
@given(near_cases())
def test_batched_near_matches_a_brute_force_scan(case):
    idx, xs, radius, alpha_max = case
    got = idx.near(xs, radius, alpha_max=alpha_max)
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert np.array_equal(got, brute_near(idx, xs, radius, alpha_max))
    # one point is the batch of one
    single = idx.near(xs[0], radius, alpha_max=alpha_max)
    assert np.array_equal(single, got[got[:, 0] == 0])


@settings(deadline=None, max_examples=40)
@given(st.sampled_from((2, 3)), st.floats(1.0, 12.0), st.none() | st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.integers(0, 2**32 - 1))
@example(d=3, Q=1.0, shear=(0.0, 5e-324), seed=0)  # a subnormal alpha_d: the point quotient overflows
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_index_order_does_not_depend_on_row_order(d, Q, shear, seed):
    # identity L, or the unipotent L with last row (a, b, 1)
    if shear is None:
        sources, alpha = farey.sequence_arrays(d, Q)
    else:
        L = np.eye(d)
        L[d - 1, : d - 1] = shear[: d - 1]
        sources, alpha = farey.sequence_arrays(d, Q, L=L)
    ref = np.lexsort(tuple(sources[:, j] for j in reversed(range(d - 1))) + (alpha[:, d - 1],))
    perm = np.random.default_rng(seed).permutation(len(sources))
    for idx in (farey.FareyIndex(d, sources, alpha), farey.FareyIndex(d, sources[perm], alpha[perm])):
        assert np.array_equal(idx.sources, sources[ref])
        assert np.array_equal(idx.alpha, alpha[ref])
        assert np.array_equal(idx.points, alpha[ref, : d - 1] / alpha[ref, d - 1 :])


def test_near_widens_axis_1_past_float_rounding():
    # |p_1 - x_1| rounds down to r while x_1 + r rounds below p_1, and p_1 is
    # the first float of its axis-1 cell: the cell of x_1 + r ends one short
    p1, r, x1 = 0.7658374532410662, 1.0762866264385564, -0.31044917319749027
    alpha = np.array([[0.0, 0.0, 1.0], [1.0, 24.50679850371412, 1.0], [0.5, p1, 1.0]])
    idx = farey.FareyIndex(3, np.arange(6).reshape(3, 2), alpha)
    assert abs(p1 - x1) <= r and x1 + r < p1
    assert np.floor((x1 + r - idx._lo[1]) / idx._cell[1]) < np.floor((p1 - idx._lo[1]) / idx._cell[1])
    xs = np.array([[0.5, x1]])
    assert idx.near(xs, r).tolist() == brute_near(idx, xs, r, None).tolist() == [[0, 0], [0, 2]]


def test_near_checks_the_budget_before_gathering(monkeypatch):
    idx = farey.farey_index(3, 60.0)
    xs = np.random.default_rng(3).uniform(0.0, 1.0, size=(200, 2))
    seen = {}
    monkeypatch.setattr(farey, "check_budget", lambda n, what: seen.setdefault(what, n))
    kept = idx.near(xs, 0.05).shape[0]
    monkeypatch.undo()
    total = seen["sample candidates"]
    assert total > kept > 0

    def refuse(*args):
        raise AssertionError("pairs gathered")

    monkeypatch.setattr(farey, "ENUM_BUDGET", total - 1)
    monkeypatch.setattr(farey, "_ramp", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="^sample candidates"):
            idx.near(xs, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below one int64 array of the pre-mask pairs
    assert peak < 8 * total


def brute_window_pairs(d, m, lo, hi, w):
    """Every pair of the kernel's points in the box whose windows of width w
    overlap, each gap decided exactly: |q' p_i - q p'_i| < w q q' on every
    axis.  The gaps and q q' are exact integers, so a float test with a
    1e-9 slack on either side of w q q' settles every pair away from the
    threshold; the pairs inside that band are settled with Fraction(w)."""
    src = farey.farey_arrays(d, m, (lo, hi))[0] if m >= 1 else np.empty((0, d), np.int64)
    # (q, p) order, so the first of each pair is the smaller
    src = src[np.lexsort(tuple(src[:, j] for j in reversed(range(d - 1))) + (src[:, -1],))]
    q, p = src[:, -1], src[:, :-1]
    wf, out = Fraction(w), set()
    for start in range(0, src.shape[0], 256):
        # every (i, j), i < j, for a block of rows i
        rows = np.arange(start, min(start + 256, src.shape[0]))
        i, j = np.nonzero(rows[:, None] < np.arange(src.shape[0]))
        i = rows[i]
        qq = q[i] * q[j]
        gaps = np.abs(q[j, None] * p[i] - q[i, None] * p[j])
        wqq = w * qq[:, None]
        near = np.all(gaps < wqq * (1.0 + 1e-9), axis=1)
        meet = near & np.all(gaps < wqq * (1.0 - 1e-9), axis=1)
        band = np.flatnonzero(near & ~meet)
        for k, qq_ab, gap in zip(band.tolist(), qq[band].tolist(), gaps[band].tolist()):
            meet[k] = all(g < wf * qq_ab for g in gap)
        out.update(zip(map(tuple, src[i[meet]].tolist()), map(tuple, src[j[meet]].tolist())))
    return out


@st.composite
def pair_search_cases(draw):
    # d = 4 draws stay small (t <= 1, m <= 12) so that the brute force stays fast
    d = draw(st.sampled_from([2, 3, 4]))
    # edges on 0 and on rationals put Farey points on the box edges
    edge = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, -0.5]), st.floats(-0.6, 0.8))
    side = st.one_of(st.sampled_from([0.25, 0.4, 1 / 3]), st.floats(0.02, 0.4))
    lo = np.array([draw(edge) for _ in range(d - 1)])
    hi = lo + np.array([draw(side) for _ in range(d - 1)])
    if draw(st.booleans()):
        # a stable target's width and denominator cap, the box grown by its margin
        T = draw(st.floats(1.0, 2.0))
        eps = draw(st.floats(0.05, 0.95)) * tg.disjointness_budget(d, T)
        ytilde = tuple(draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))) for _ in range(d - 1))
        t = draw(st.floats(0.3, {2: 4.0, 3: 1.9, 4: 1.0}[d]))
        target = tg.StableSection(d=d, T=T, eps=eps, ytilde=ytilde)
        w = eps * math.exp(-d * t)
        margin = w / 2.0 + float(np.abs(np.asarray(ytilde)).max()) * math.exp(-d * t) + 1e-15
        return d, math.floor(target.denominator_cap(t)), lo - margin, hi + margin, w
    # dyadic widths make w q q' an integer for many pairs: the gap test is strict there
    m = draw(st.integers(0, {2: 60, 3: 25, 4: 12}[d]))
    w = draw(st.one_of(st.sampled_from([0.0625, 0.125, 0.25, 0.375, 1.0]), st.floats(1e-3, 1.5)))
    return d, m, lo, hi, w


@settings(deadline=None, max_examples=60)
@given(pair_search_cases())
# q = 6 splits its gcd over the axes: (2, 3, 6) is primitive, (2, 4, 6) is not
@example((3, 7, np.array([0.3, 0.45]), np.array([0.35, 0.7]), 0.5))
@example((3, 12, np.array([0.3, 0.45]), np.array([0.4, 0.7]), 0.3))
# three axes, edges on 0, -1/2 and 1/3 and a dyadic w: 46,698 pairs
@example((4, 12, np.array([-0.5, 0.0, 1 / 3]), np.array([0.0, 0.4, 0.6]), 0.25))
def test_window_pairs_match_brute_force(case):
    d, m, lo, hi, w = case
    first, second, radix = farey.farey_window_pairs(m, lo, hi, w)
    assert np.all(first < second)
    first, second = farey.pair_rows(first, radix), farey.pair_rows(second, radix)
    got = [(tuple(a), tuple(b)) for a, b in zip(first.tolist(), second.tolist())]
    assert len(got) == len(set(got))
    assert set(got) == brute_window_pairs(d, m, lo, hi, w)


def test_window_pairs_split_primitivity_across_axes():
    # at q = 6 the box holds p = (2, 3), primitive though gcd(6, 2) = 2 and
    # gcd(6, 3) = 3, and p = (2, 4) = 2 (1, 2, 3), which is not: a search
    # that tests one axis alone drops the only pair, one that skips the
    # gcd of the two keeps (2, 4, 6)
    lo, hi, w = np.array([0.3, 0.45]), np.array([0.35, 0.7]), 0.5
    assert farey.farey_arrays(3, 7, (lo, hi))[0].tolist() == [[1, 2, 3], [2, 3, 6]]
    first, second, radix = farey.farey_window_pairs(7, lo, hi, w)
    got = [(tuple(a), tuple(b)) for a, b in zip(farey.pair_rows(first, radix).tolist(), farey.pair_rows(second, radix).tolist())]
    assert got == [((1, 2, 3), (2, 3, 6))]
    assert set(got) == brute_window_pairs(3, 7, lo, hi, w)
    # on three axes, (6, 10, 15, 30) is primitive though gcd(30, 6, 10) = 2:
    # a search that reduces only the first two axes drops the one pair
    lo, hi, w = np.array([6, 10, 15]) / 30 - 0.01, np.array([6, 10, 15]) / 30 + 0.01, 0.05
    first, second, radix = farey.farey_window_pairs(30, lo, hi, w)
    got = [(tuple(a), tuple(b)) for a, b in zip(farey.pair_rows(first, radix).tolist(), farey.pair_rows(second, radix).tolist())]
    assert got == [((5, 8, 12, 24), (6, 10, 15, 30))]
    assert set(got) == brute_window_pairs(4, 30, lo, hi, w)


def test_window_pairs_check_the_budget_before_allocating():
    # 2e4 denominators and w = 0.01: about 2e8 pairs (q, q') with w q q' > 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="window pair denominators"):
            farey.farey_window_pairs(20_000, [0.0, 0.0], [1.0, 1.0], 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pair_graph_ranks_sources_in_kernel_row_order():
    # the chain (0,1,3) - (1,1,2) - (0,0,1) and the pair (1,0,2) - (0,1,4)
    first = np.array([[0, 1, 3], [1, 0, 2], [0, 0, 1]])
    second = np.array([[1, 1, 2], [0, 1, 4], [1, 1, 2]])
    keys = pair_keys(first, second)
    nodes, u, v = farey.pair_graph(*keys)
    assert nodes.tolist() == [[0, 0, 1], [1, 0, 2], [1, 1, 2], [0, 1, 3], [0, 1, 4]]
    assert (u.tolist(), v.tolist()) == ([3, 1, 0], [2, 4, 2])
    members, sizes = farey.component_clusters(u, v)
    assert nodes[members].tolist() == [[0, 0, 1], [1, 1, 2], [0, 1, 3], [1, 0, 2], [0, 1, 4]]
    assert sizes.tolist() == [3, 2]
    empty = farey.pair_graph(keys[0][:0], keys[1][:0], keys[2])
    assert [a.shape for a in empty] == [(0, 3), (0,), (0,)]
    assert [a.tobytes() for a in empty] == [a.tobytes() for a in lexsort_pair_graph(first[:0], second[:0])]
    assert [a.size for a in farey.component_clusters(*empty[1:])] == [0, 0]
