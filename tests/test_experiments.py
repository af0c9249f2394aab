import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from horolab import coords, experiments as ex, farey, targets as tg
from horolab.algebra import zeta
from horolab.errors import ConfigError, DisjointnessError, HorolabError, ResourceLimitError


def stable_cfg(**kw):
    base = dict(
        d=2,
        target=tg.StableSection(d=2, T=2.0, eps=0.2),
        A_lo=(0.0,),
        A_hi=(1.0,),
        t_schedule=(6.0,),
        estimator=("exact-window",),
    )
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_exact_window_matches_simple_count():
    # full cell, centered box: total is exactly width times the point count
    from horolab import farey

    t, T, eps = 6.0, 2.0, 0.2
    target = tg.StableSection(d=2, T=T, eps=eps)
    val, _n = ex.exact_window_stable_d2(target, None, 0.0, 1.0, t)
    q_cap = int(math.exp(t) * T ** (-0.5))
    count, _ = farey.count_farey(2, q_cap)
    assert abs(val - eps * math.exp(-2 * t) * count) <= 1e-18 * count


def test_unit_cell_window_sum_d2_is_width_times_count():
    # the d = 2 unit-cell window sum counts through the Moebius interval scan;
    # it must give the Jordan-sieve count of the classical sequence exactly
    target = tg.StableSection(d=2, T=2.0, eps=0.2)
    unit = (np.array([0.0]), np.array([1.0]))
    for t in (1.0, 3.7, 6.0, 9.25):
        n = farey.count_farey(2, math.floor(target.denominator_cap(t) + 1e-9))[0]
        assert n > 0
        assert ex.exact_integral(target, None, *unit, t, "window-sum") == (0.2 * math.exp(-2.0 * t) * n, n)


def test_exact_window_matches_enumeration():
    # cross-path check on a strict sub-interval with an off-center box
    t = 4.5
    target = tg.StableSection(d=2, T=1.5, eps=0.3, ytilde=(0.4,))
    val_closed, _ = ex.exact_window_stable_d2(target, None, 0.21, 0.77, t)
    val_enum, _ = ex._window_sum_stable_enumerated(target, None, np.array([0.21]), np.array([0.77]), t)
    assert abs(val_closed - val_enum) <= 1e-12 * max(val_closed, 1e-12)


def test_exact_window_diag_matches_enumeration():
    a = math.sqrt(2)
    L = np.diag([a, 1 / a])
    t = 4.5
    target = tg.StableSection(d=2, T=1.0, eps=0.3)
    val_closed, _ = ex.exact_window_stable_d2(target, L, 0.0, 1.0, t)
    val_enum, _ = ex._window_sum_stable_enumerated(target, L, np.array([0.0]), np.array([1.0]), t)
    assert abs(val_closed - val_enum) <= 5e-12 * max(val_closed, 1e-12)


def loop_exact_window_d2(target, L, lo, hi, t):
    """exact_window_stable_d2 with the per-(q, p) edge-strip loop it
    replaced; the interior count is the library's."""
    kind, a = ex.lattice_kind(L)
    scale = 1.0 if kind == "lattice" else a * a
    m = int(math.floor(math.exp(t) * target.T ** (-0.5) / (1.0 if kind == "lattice" else a) + 1e-9))
    w = target.eps * math.exp(-2.0 * t)
    if hi - lo <= w:
        return ex._window_sum_stable_enumerated(target, L, np.array([lo]), np.array([hi]), t)
    c_off = float(target.ytilde[0]) * math.exp(-2.0 * t)
    u = lo + c_off + w / 2.0
    v = hi + c_off - w / 2.0
    n_mid = farey.count_farey_in_interval(m, u, v, scale=scale)
    total = w * n_mid
    n_edge = 0
    for s_lo, s_hi in ((lo + c_off - w / 2.0, u), (v, hi + c_off + w / 2.0)):
        qs = np.arange(1, m + 1, dtype=np.int64)
        p_lo = np.floor(scale * qs * s_lo).astype(np.int64) + 1
        p_hi = np.floor(scale * qs * s_hi).astype(np.int64)
        sel = p_hi >= p_lo
        for q, plo_q, phi_q in zip(qs[sel], p_lo[sel], p_hi[sel]):
            for p in range(plo_q, phi_q + 1):
                if math.gcd(int(p), int(q)) != 1:
                    continue
                r = p / (scale * q)
                wl, wh = r - c_off - w / 2.0, r - c_off + w / 2.0
                total += max(0.0, min(wh, hi) - max(wl, lo))
                n_edge += 1
    return total, n_mid + n_edge


DIAG_L = [None, np.diag([math.sqrt(2.0), 1 / math.sqrt(2.0)]), np.diag([0.8, 1.25])]


@st.composite
def d2_windows(draw, t_max):
    lo = draw(st.floats(0.0, 0.95))
    hi = draw(st.floats(lo + 0.01, 1.0))
    T = draw(st.floats(1.0, 3.0))
    eps = draw(st.floats(0.05, 0.95)) * T
    ytilde = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    L = draw(st.sampled_from(DIAG_L))
    t = draw(st.floats(0.5, t_max))
    return tg.StableSection(d=2, T=T, eps=eps, ytilde=(ytilde,)), L, lo, hi, t


@settings(deadline=None, max_examples=60)
@given(d2_windows(t_max=7.0))
# cases where adding the edge lengths in another order changes the last bit
@example((tg.StableSection(d=2, T=1.0, eps=0.2), None, 0.0, 0.5, 2.0))
@example((tg.StableSection(d=2, T=2.0, eps=1.8, ytilde=(0.25,)), None, 0.01, 0.67, 2.0))
def test_exact_window_edges_match_loop_bitwise(case):
    target, L, lo, hi, t = case
    assert ex.exact_window_stable_d2(target, L, lo, hi, t) == loop_exact_window_d2(target, L, lo, hi, t)


def test_exact_window_edges_match_loop_on_rational_ends():
    # 1/10 and 7/10 sit on the strip edges, so every multiple of 10 enters them
    target = tg.StableSection(d=2, T=2.0, eps=0.2)
    for t in (8.0, 10.0):
        assert ex.exact_window_stable_d2(target, None, 0.1, 0.7, t) == loop_exact_window_d2(target, None, 0.1, 0.7, t)


def loop_strip_points(s_lo, s_hi, scale, m):
    """The (p, q) of a d = 2 edge strip by the per-q float floors the edge
    scan used: gcd(p, q) = 1 and floor(fl(fl(q*scale)*s_lo)) < p <=
    floor(fl(fl(q*scale)*s_hi)), in (q, p) order."""
    out = []
    for q in range(1, m + 1):
        f = float(q) * scale
        out += [(p, q) for p in range(math.floor(f * s_lo) + 1, math.floor(f * s_hi) + 1) if math.gcd(p, q) == 1]
    return out


SCALES = [1.0, math.sqrt(2.0) ** 2, 0.64, 0.8**2]


@st.composite
def edge_strips(draw):
    scale = draw(st.sampled_from(SCALES))
    m = draw(st.integers(1, 300))
    # ends on or next to a rational p/(scale q), or anywhere
    p, q = draw(st.integers(-300, 300)), draw(st.integers(1, 300))
    end = draw(st.one_of(st.just(p / q), st.just(p / (q * scale)), st.floats(-2.0, 2.0)))
    width = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1e-4, 1e-2]))
    return (end, end + width, scale, m) if draw(st.booleans()) else (end - width, end, scale, m)


@settings(deadline=None, max_examples=300)
@given(edge_strips())
# fl(10 * 0.7) = 7 admits 7/10 although fl(0.7) < 7/10
@example((0.6, 0.7, 1.0, 10))
@example((0.7 - 1e-9, 0.7, 1.0, 250))
# negative s_lo; scales fl(sqrt(2))^2 and 0.64
@example((-0.3, 0.2, 1.0, 40))
@example((-0.25, -0.25 + 1e-6, math.sqrt(2.0) ** 2, 300))
@example((0.1 - 1e-5, 0.1, 0.64, 300))
# below the normal range: fl(0.4 * -5e-324) is -0.0, so 0/1 is out
@example((-5e-324, 0.0, 0.4, 20))
@example((-5e-324, 5e-324, 0.64, 20))
def test_strip_points_match_the_per_q_float_floors(case):
    p, q = ex._strip_points(*case)
    assert p.dtype == q.dtype == np.int64
    assert list(zip(p.tolist(), q.tolist())) == loop_strip_points(*case)


def test_d2_count_rows_are_pinned():
    # perfbench's d2-count rows at seed 0 (A = [0.1, 0.7], T = 2, eps = 0.2),
    # (integral, count) as the full-length edge scans gave them
    target = tg.StableSection(d=2, T=2.0, eps=0.2)
    rows = {
        14.0: (0.01823781583485089, 131882849943),
        15.0: (0.018237817128686492, 974489845842),
        15.5: (0.018237813882620316, 2648937568496),
    }
    for t, row in rows.items():
        assert ex.exact_window_stable_d2(target, None, 0.1, 0.7, t) == row


@settings(deadline=None, max_examples=60)
@given(d2_windows(t_max=4.0))
def test_exact_window_matches_enumeration_property(case):
    # the enumerated path counts every point within w/2 + |c_off| of A; the
    # closed form those within w/2 of A shifted by c_off, a subset
    target, L, lo, hi, t = case
    val, n = ex.exact_window_stable_d2(target, L, lo, hi, t)
    val_enum, n_enum = ex._window_sum_stable_enumerated(target, L, np.array([lo]), np.array([hi]), t)
    # each enumerated window length is a difference of two rounded ends
    # below 2 in size, off by up to 4 eps from w: with w ~ 1e-4 that alone can
    # exceed 1e-12 relative (T = 1, eps = 0.25, A = [0.5, 1], t = 4: 1.0e-12)
    assert abs(val - val_enum) <= 1e-12 * abs(val_enum) + 4 * n_enum * np.finfo(float).eps
    if target.ytilde[0] == 0.0:
        assert n == n_enum
    else:
        assert n <= n_enum


def test_no_admissible_denominator_is_empty():
    # e^t T^{-1/2} < 1: no Farey point lies below the cutoff
    target = tg.StableSection(d=2, T=2.0, eps=0.2)
    lo, hi = np.array([0.1]), np.array([0.7])
    assert ex.exact_window_stable_d2(target, None, 0.1, 0.7, 0.2) == (0.0, 0)
    assert ex.exact_integral(target, None, lo, hi, 0.2, "window-sum") == (0.0, 0)
    assert ex.exact_integral(target, DIAG_L[1], lo, hi, 0.2, "window-sum") == (0.0, 0)
    sph = tg.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=0.5))
    assert ex.window_sum_spherical(sph, None, lo, hi, 0.1) == (0.0, 0)
    low = tg.StableSection(d=2, T=1.9, eps=0.2)
    assert tg.member_dual(low, None, [0.3], 0.3) is None
    for est in (("grid", 8), ("monte-carlo", 8)):
        results = ex.sthe_run(stable_cfg(target=low, A_lo=(0.1,), A_hi=(0.7,), t_schedule=(0.3,), estimator=est))
        assert results[0].estimate == 0.0 and results[0].farey_count_used == 0


def test_d2_counts_check_the_budget_before_allocating():
    stable = tg.StableSection(d=2, T=2.0, eps=0.2)
    sph = tg.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=0.5))
    unit = (np.array([0.0]), np.array([1.0]))
    calls = [
        lambda: ex.exact_window_stable_d2(stable, None, 0.1, 0.7, 25.0),
        lambda: ex.exact_window_stable_d2(stable, DIAG_L[1], 0.1, 0.7, 25.0),
        lambda: ex.exact_integral(stable, None, *unit, 25.0, "window-sum"),
        lambda: ex.exact_integral(stable, DIAG_L[1], *unit, 25.0, "window-sum"),
        lambda: ex.window_sum_spherical(sph, None, *unit, 25.0),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("estimator", ["exact-window", "window-sum"])
def test_narrow_d2_window_sums_check_the_denominator_bound_before_allocating(estimator):
    # A narrower than one window predicts about one window, but the Moebius
    # sums would walk every q up to about 5e10; the denominator bound is
    # refused before any table of that length exists
    stable = tg.StableSection(d=2, T=2.0, eps=0.2)
    zeta(2)  # the first call fills a cache through a 10^5-term partial sum
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="denominator bound"):
            ex.exact_integral(stable, None, np.array([0.0]), np.array([1e-23]), 25.0, estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_d3_window_sum_keeps_the_t23_value():
    # the value the strip-tiled sum gave with C-ordered centers and scipy's
    # connected components, before the denominator blocks and the Moebius sum
    val, count = ex._window_sum_stable_enumerated(tg.StableSection(d=3, T=1.0, eps=0.2), None, np.zeros(2), np.ones(2), 2.3)
    assert count == 279417
    assert abs(val - 0.011086460573205231) <= 1e-15 * val


def test_window_sum_budgets_the_window_count_not_the_grid(monkeypatch):
    # 273,145 predicted windows and 279,417 counted fit a budget of 3e5,
    # though the candidate grid of the box (338,484) does not: the Moebius
    # sum holds no grid.  One below the count is refused by the count
    zeta(3)  # the first call fills a cache through a 10^5-term partial sum
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    lo, hi, t = np.zeros(2), np.ones(2), 2.3
    want = ex._window_sum_stable_enumerated(target, None, lo, hi, t)
    monkeypatch.setattr(farey, "ENUM_BUDGET", 300_000)
    margin = ex._stable_window_shape(target, t)[2]
    assert farey._grid_bound(99, lo - margin, hi + margin) > farey.ENUM_BUDGET
    assert ex._window_sum_stable_enumerated(target, None, lo, hi, t) == want
    monkeypatch.setattr(farey, "ENUM_BUDGET", 279_416)
    with pytest.raises(ResourceLimitError, match="^window enumeration"):
        ex._window_sum_stable_enumerated(target, None, lo, hi, t)


def source_volumes(target, lo, hi, t):
    """The clipped volumes of the identity-L windows that can meet [lo, hi],
    from their materialised sources and centers."""
    w, c_off, margin = ex._stable_window_shape(target, t)
    sources, _alpha = farey.farey_arrays(target.d, target.denominator_cap(t), (lo - margin, hi + margin))
    return ex._clipped_box_volumes(sources[:, :-1] / sources[:, -1:] - c_off, w, lo, hi)


@st.composite
def block_volume_cases(draw):
    # edges on 0 and on rationals put Farey points on the box edges
    d = draw(st.sampled_from([2, 3]))
    edge = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, -0.5]), st.floats(-0.5, 0.8))
    lo = np.array([draw(edge) for _ in range(d - 1)])
    hi = lo + np.array([draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 1.0))) for _ in range(d - 1)])
    T = draw(st.floats(1.0, 2.0))
    eps = draw(st.floats(0.05, 0.95)) * tg.disjointness_budget(d, T)
    ytilde = tuple(draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))) for _ in range(d - 1))
    target = tg.StableSection(d=d, T=T, eps=eps, ytilde=ytilde)
    t = draw(st.floats(1.0, 5.0 if d == 2 else 1.9))
    return target, lo, hi, t


@settings(deadline=None, max_examples=60)
@given(block_volume_cases())
@example((tg.StableSection(d=3, T=1.0, eps=0.2, ytilde=(0.01, -0.02)), np.zeros(2), np.ones(2), 1.8))
@example((tg.StableSection(d=3, T=1.0, eps=0.2), np.array([-0.5, 1 / 3]), np.array([0.5, 2 / 3]), 1.9))
@example((tg.StableSection(d=2, T=1.0, eps=0.2, ytilde=(0.3,)), np.array([0.25]), np.array([0.5]), 5.0))
def test_mobius_raw_sum_matches_the_source_volumes(case):
    # the per-denominator Moebius sum of clipped sides against the clipped
    # volumes of the materialised sources: the same count, and the same
    # sum up to the order of addition
    target, lo, hi, t = case
    got, count = ex._stable_raw_sum(target, lo, hi, t)
    volumes = source_volumes(target, lo, hi, t)
    assert count == volumes.size
    want = float(volumes.sum())
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("dim", [1, 2])
def test_clipped_box_volumes_match_row_product_bitwise(dim):
    rng = np.random.default_rng(dim)
    lo, hi = np.full(dim, 0.25), np.full(dim, 0.75)
    # grid values put edges exactly on lo and hi; the range reaches past both
    centers = np.concatenate([rng.uniform(-0.2, 1.2, size=(500, dim)), rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(100, dim))])
    for w in (0.1, 0.5, 2.0, 1e-9):
        want = np.prod(np.clip(np.minimum(centers + w / 2.0, hi) - np.maximum(centers - w / 2.0, lo), 0.0, None), axis=1)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            got = ex._clipped_box_volumes(layout(centers), w, lo, hi)
            assert got.tobytes() == want.tobytes()


def test_enumerations_check_the_budget_before_allocating(monkeypatch):
    # candidate grids of 7e5 to 2e6 against a budget of 1e5: refused before
    # the kernel runs.  At this size a missing check allocates megabytes,
    # where a Q near the real budget would allocate gigabytes
    monkeypatch.setattr(farey, "ENUM_BUDGET", 100_000)
    zeta(3)  # the first call fills a cache through a 10^5-term partial sum
    stable = tg.StableSection(d=3, T=1.0, eps=0.2)
    sph = tg.SphericalSection(d=3, T=3.0, chart=coords.Chart(dim=3, radius=0.5))
    unit = (np.zeros(2), np.ones(2))
    calls = [
        lambda: farey.farey_arrays(3, 150),
        lambda: farey.farey_arrays(2, 1500, box=([0.0], [1.0])),
        lambda: ex._stable_window_centers(stable, None, *unit, 2.5),
        lambda: ex.window_sum_spherical(sph, None, *unit, 2.8),
        lambda: ex.marklof_average(3, 150, A=unit),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="Farey candidate grid"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_window_sum_unit_cell_matches_enumeration_d3():
    t = 1.8
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    val_cell, n_cell = ex.exact_integral(target, None, np.zeros(2), np.ones(2), t, "window-sum")
    val_enum, _ = ex._window_sum_stable_enumerated(target, None, np.zeros(2), np.ones(2), t)
    assert abs(val_cell - val_enum) <= 1e-12 * max(val_cell, 1e-12)


@pytest.mark.parametrize("lo, hi, t", [
    ([0.0], [1.0], 5.0),
    ([0.0, 0.0], [1.0, 1.0], 1.8),
    ([-0.5, 0.0], [0.5, 1.0], 1.8),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0),
    ([-0.5, 0.0, 1 / 3], [0.5, 1.0, 1.0], 1.2),
])
def test_window_sum_with_edges_on_rationals_matches_collision_search(lo, hi, t):
    # boxes with Farey points on their edges; at x_1 = 0 the d = 3 cusp
    # collisions form clusters that reach across the edge
    d = len(lo) + 1
    target = tg.StableSection(d=d, T=1.0, eps=0.2, ytilde=(0.01,) * (d - 1))
    lo, hi = np.array(lo), np.array(hi)
    val, count = ex._window_sum_stable_enumerated(target, None, lo, hi, t)
    want, want_count = reference_window_sum(target, lo, hi, t)
    assert count == want_count
    assert abs(val - want) <= 1e-12 * want


def reference_window_sum(target, lo, hi, t):
    """The identity-L stable window sum from one enumeration of all centers:
    the union of all their windows, with the pairs found by
    collision_pairs on them."""
    sources, centers, w = ex._stable_window_centers(target, None, lo, hi, t)
    return ex._cluster_union_volume(centers, w, lo, hi, pairs=farey.collision_pairs(centers, w)), int(sources.shape[0])


@st.composite
def d3_window_sum_cases(draw):
    # edges on 0 and on rationals put Farey points (and the x_1 = 0 cusp
    # collisions) on the box edges
    edge = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, -0.5]), st.floats(-0.5, 0.8))
    lo = np.array([draw(edge), draw(edge)])
    hi = lo + np.array([draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 1.0))) for _ in range(2)])
    T = draw(st.floats(1.0, 2.0))
    eps = draw(st.floats(0.05, 0.95)) * tg.disjointness_budget(3, T)
    ytilde = tuple(draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))) for _ in range(2))
    t = draw(st.floats(1.5, 2.1))
    return tg.StableSection(d=3, T=T, eps=eps, ytilde=ytilde), lo, hi, t


@settings(deadline=None, max_examples=25)
@given(d3_window_sum_cases())
@example((tg.StableSection(d=3, T=1.0, eps=0.2, ytilde=(0.01, -0.02)), np.zeros(2), np.ones(2), 1.8))
def test_d3_window_sum_matches_collision_search(case):
    target, lo, hi, t = case
    val, count = ex._window_sum_stable_enumerated(target, None, lo, hi, t)
    want, want_count = reference_window_sum(target, lo, hi, t)
    assert count == want_count
    assert abs(val - want) <= 1e-12 * abs(want)


@settings(deadline=None, max_examples=25)
@given(d3_window_sum_cases(), st.sampled_from([2, 3]))
def test_identity_window_sum_matches_the_preimage_box_path(case, d):
    # L = I given as a matrix takes the row walk over its preimage box and the
    # float grid search; at d = 2 the case keeps its first axis, its fraction of the
    # disjointness budget, and its denominator cutoff (t doubles)
    target, lo, hi, t = case
    if d == 2:
        eps = target.eps / tg.disjointness_budget(3, target.T) * tg.disjointness_budget(2, target.T)
        target = tg.StableSection(d=2, T=target.T, eps=eps, ytilde=target.ytilde[:1])
        lo, hi, t = lo[:1], hi[:1], 2.0 * t
    val, count = ex._window_sum_stable_enumerated(target, None, lo, hi, t)
    val_eye, count_eye = ex._window_sum_stable_enumerated(target, np.eye(d), lo, hi, t)
    assert count == count_eye
    assert abs(val - val_eye) <= 1e-12 * abs(val_eye)


def test_translated_d3_window_sum_keeps_the_box_enumeration_value():
    # the d = 3 window sum under the unipotent L with last row
    # (sqrt2 - 1, sqrt3 - 1, 1) at t = 2 (T = 1, eps = 0.2, unit square),
    # frozen from the whole-preimage-box enumeration the row walk replaced
    L = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, 1.0]])
    val, count = ex._window_sum_stable_enumerated(tg.StableSection(d=3, T=1.0, eps=0.2), L, np.zeros(2), np.ones(2), 2.0)
    assert count == 46_060
    assert abs(val - 0.01108804823721582) <= 1e-12 * 0.01108804823721582


def cluster_shapes(label, u):
    """Pairs and members of each cluster under the component labels of the
    pairs (u, v), and whether it is a tree (one pair fewer than members)."""
    roots = np.unique(label)
    pairs, members = np.bincount(label[u], minlength=label.size)[roots], np.bincount(label)[roots]
    return pairs, members, pairs == members - 1


def test_a3_window_pairs_and_clusters():
    # the A3 row over the unit square: T = 1, eps = 0.2, t = 2.85, q <= 298
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    t = 2.85
    w, _c_off, margin = ex._stable_window_shape(target, t)
    first, second, radix = farey.farey_window_pairs(math.floor(target.denominator_cap(t)), np.full(2, -margin), np.full(2, 1.0 + margin), w)
    nodes, u, v = farey.pair_graph(first, second, radix)
    _members, sizes = farey.component_clusters(u, v)
    assert first.shape[0] == 171_680
    assert (sizes.size, int(sizes.sum()), int(sizes.max())) == (52_020, 205_040, 138)
    assert nodes.shape == (205_040, 3)
    pairs, members, tree = cluster_shapes(farey._component_labels(nodes.shape[0], u, v), u)
    assert (int(tree.sum()), int(pairs[tree].sum())) == (43_380, 93_860)
    assert (int((~tree).sum()), int(members[~tree].sum()), int(members[~tree].max())) == (8_640, 67_800, 138)
    # the union given the caller's sum of the clipped volumes, as the window
    # sum passes it, is the union that sums them itself, bit for bit
    centers, lo, hi = nodes[:, :2] / nodes[:, 2:], np.zeros(2), np.ones(2)
    raw = float(ex._clipped_box_volumes(centers, w, lo, hi).sum())
    union = ex._cluster_union_volume(centers, w, lo, hi, pairs=(u, v))
    assert ex._cluster_union_volume(centers, w, lo, hi, pairs=(u, v), raw=raw) == union


def test_a3_window_sum_memory_guard():
    # the A3 row with each pair end one int64 key from the pair search to
    # the union: its measured tracemalloc peak is 19,007,013 bytes, bounded
    # here 10% above that (pair ends held as (n, 3) rows peaked at 34,954,520)
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    tracemalloc.start()
    try:
        got = ex._window_sum_stable_enumerated(target, None, np.zeros(2), np.ones(2), 2.85)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (0.011006886261232631, 7_424_077)
    assert peak < 20 << 20


def test_d4_window_sum_memory_guard():
    # identity L at d = 4 takes the Moebius raw sum and the integer pair
    # search (159,492 pairs at t = 1.5): its measured tracemalloc peak is
    # 23,200,050 bytes, bounded here under 32 MiB.  The float grid search
    # over all 16,083,513 centers held about 1.4 GB and gave the same bits;
    # at t = 1.4 it gave 0.0018207812193679457, one ulp away
    target = tg.StableSection(d=4, T=1.0, eps=0.2)
    lo, hi = np.zeros(3), np.ones(3)
    tracemalloc.start()
    try:
        got = ex._window_sum_stable_enumerated(target, None, lo, hi, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (0.0018825471437057197, 16_083_513)
    assert peak < 32 << 20
    val, count = ex._window_sum_stable_enumerated(target, None, lo, hi, 1.4)
    assert count == 4_751_073 and abs(val - 0.0018207812193679457) <= 1e-15 * val


def test_a3_window_sum_with_a_center_offset_keeps_its_bits():
    # the stable row of perfbench's d3-window workload at seed 5, whose
    # ytilde moves every window center (c_off != 0) through the raw sum, the
    # pair centers and the union; frozen before the raw sum gathered its
    # strided sums per block and the union took the caller's level-1 sum
    target = tg.StableSection(d=3, T=1.0, eps=0.2, ytilde=(0.012290169488970194, 0.02417869892607294))
    got = ex._window_sum_stable_enumerated(target, None, np.zeros(2), np.ones(2), 2.85)
    assert got == (0.011006886261232548, 7_424_077)


def test_d4_window_sum_without_collisions_is_unchanged():
    # a d = 4 sum whose windows do not meet is its Moebius raw sum; it reads
    # one ulp above the sum of the enumerated clipped volumes that the float
    # path gave, 0.0002956479801171616
    target = tg.StableSection(d=4, T=1.0, eps=0.1)
    lo, hi = np.zeros(3), np.ones(3)
    assert ex._window_sum_stable_enumerated(target, None, lo, hi, 0.6) == (0.00029564798011716165, 649)
    _sources, centers, w = ex._stable_window_centers(target, None, lo, hi, 0.6)
    enumerated = float(ex._clipped_box_volumes(centers, w, lo, hi).sum())
    assert abs(0.00029564798011716165 - enumerated) <= 1e-15 * enumerated


@pytest.mark.parametrize("eps, t, want, want_count", [
    (0.3, 0.8, 0.007462723810015739, 5_509),
    (0.2, 1.0, 0.0019936072690676892, 48_081),
], ids=["eps0.3", "eps0.2"])
def test_d4_window_sum_with_collisions_matches_the_cell_oracle(eps, t, want, want_count):
    # d = 4 windows collide (224 and 392 pairs here): each collision cluster
    # of collision_clusters is measured on its own cell grid instead
    target = tg.StableSection(d=4, T=1.0, eps=eps)
    lo, hi = np.zeros(3), np.ones(3)
    val, count = ex._window_sum_stable_enumerated(target, None, lo, hi, t)
    _sources, centers, w = ex._stable_window_centers(target, None, lo, hi, t)
    clusters = farey.collision_clusters(centers, w)
    oracle = float(ex._clipped_box_volumes(centers, w, lo, hi).sum())
    for c in clusters:
        oracle += _cell_union(centers[c], w, lo, hi) - float(ex._clipped_box_volumes(centers[c], w, lo, hi).sum())
    assert clusters and count == want_count and count == centers.shape[0]
    assert abs(val - oracle) <= 1e-12 * oracle
    assert abs(val - want) <= 1e-15 * want


def test_window_sum_checks_the_predicted_count_before_the_strip_edges():
    # t = 8 predicts about 1.9e20 windows: refused before any block is enumerated
    zeta(3)  # the first call fills a cache through a 10^5-term partial sum
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="predicted window enumeration"):
            ex.exact_integral(target, None, np.zeros(2), np.ones(2), 8.0, "window-sum")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_translated_enumerations_check_the_box_before_allocating():
    L = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(2) - 1, math.sqrt(3) - 1, 1.0]])
    unit = (np.zeros(2), np.ones(2))
    calls = [
        lambda: farey.translated_arrays(L, 1e6, unit),
        lambda: farey.translated_alpha_box_arrays(L, 1e6),
        lambda: farey.farey_index(3, 1e6, L=L, box=unit),
        lambda: ex.marklof_average(3, 1e6, L=L, A=unit, sequence="translated"),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="preimage box"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_sampled_integral_checks_the_candidates_before_testing_them(monkeypatch):
    # the index is built under the real budget; the budget then admits the
    # query's cell ranges but not its pre-mask candidates, so the candidate
    # check itself must fire before any pair is tested.  Uniform samples
    # meet fewer candidates than ranges; on the edge x_1 = 0, where the
    # points (0, p_2/q) crowd, they meet more.
    target = tg.StableSection(d=3, T=1.0, eps=0.4)
    lo, hi, t = np.zeros(2), np.ones(2), 1.8
    points = np.random.default_rng(5).uniform(0.0, 1.0, size=(2000, 2)) * [0.0, 1.0]
    index, count = ex._build_index(target, None, lo, hi, t)
    radius, amax = target.candidate_radius(t), target.alpha_cutoff(t)
    seen = {}
    with monkeypatch.context() as mp:
        mp.setattr(farey, "check_budget", lambda n, what: seen.setdefault(what, n))
        assert index.near(points, radius, alpha_max=amax).shape[0] > 0
    ranges, total = seen["cell ranges of the sample candidates"], seen["sample candidates"]
    assert ranges < total

    def refuse(*args):
        raise AssertionError("dual_hits ran")

    monkeypatch.setattr(ex, "_build_index", lambda *args: (index, count))
    monkeypatch.setattr(tg, "dual_hits", refuse)
    monkeypatch.setattr(farey, "ENUM_BUDGET", ranges)
    with pytest.raises(ResourceLimitError, match="^sample candidates"):
        ex.sampled_integral(target, None, lo, hi, t, points)


def test_batched_near_gives_the_per_sample_pairs_at_the_d3_membership_config():
    # perfbench's d3-membership row: the one batched query against the
    # per-sample query it replaced (binary search on x_0, then a mask), over
    # every source up to the cutoff
    target = tg.GrenierBoxStable(d=3, alphas=(1.0, 1.0), gammas=(2.0, 2.0), T=1.0, eps=0.2)
    lo, hi, t = np.zeros(2), np.ones(2), 1.5
    radius, amax = target.candidate_radius(t), target.alpha_cutoff(t)
    index = farey.farey_index(3, amax, box=(lo - radius - 1e-12, hi + radius + 1e-12))
    points = np.random.default_rng((0, 0)).uniform(lo, hi, size=(4000, 2))
    by_x0 = np.argsort(index.points[:, 0], kind="stable")
    x0 = index.points[by_x0, 0]
    loop = []
    for i, x in enumerate(points):
        idx = by_x0[np.searchsorted(x0, x[0] - radius, side="left") : np.searchsorted(x0, x[0] + radius, side="right")]
        idx = idx[np.abs(index.points[idx, 1] - x[1]) <= radius]
        loop += [[i, j] for j in np.sort(idx[index.alpha_d[idx] <= amax]).tolist()]
    assert len(loop) == 18_009
    pairs = index.near(points, radius, alpha_max=amax)
    assert pairs.tolist() == loop
    # the row itself indexes and queries only the alpha window [e^3/2, e^3],
    # yet accepts the same (sample, source) pairs and counts every source
    windowed, count = ex._build_index(target, None, lo, hi, t)
    assert (len(windowed), count) == (2_256, len(index)) and 919_845 == count
    near = windowed.near(points, radius, alpha_max=target.alpha_window(t)[1])
    assert near.shape[0] == 38
    full_hits = pairs[tg.dual_hits(target, None, t, points, pairs[:, 0], pairs[:, 1], index)[0]]
    window_hits = near[tg.dual_hits(target, None, t, points, near[:, 0], near[:, 1], windowed)[0]]
    assert np.array_equal(full_hits[:, 0], window_hits[:, 0]) and full_hits.shape[0] > 0
    assert np.array_equal(index.sources[full_hits[:, 1]], windowed.sources[window_hits[:, 1]])
    assert ex.sampled_integral(target, None, lo, hi, t, points) == (0.00075, 919_845)


def test_batched_near_stays_small_for_many_d2_samples(monkeypatch):
    # d = 2 at t = 8 indexes about 1.35e6 points; 10,000 samples must gather
    # O(1) candidates each, and keep the pairs of the per-sample x_0 search
    target = tg.StableSection(d=2, T=2.0, eps=0.2)
    lo, hi, t = np.zeros(1), np.ones(1), 8.0
    index, count = ex._build_index(target, None, lo, hi, t)
    assert count == len(index)  # a section target's window is all of its cutoff
    radius, amax = target.candidate_radius(t), target.alpha_cutoff(t)
    points = np.random.default_rng(0).uniform(lo, hi, size=(10_000, 1))
    by_x0 = np.argsort(index.points[:, 0], kind="stable")
    x0 = index.points[by_x0, 0]
    starts = np.searchsorted(x0, points[:, 0] - radius, side="left")
    stops = np.searchsorted(x0, points[:, 0] + radius, side="right")
    loop = []
    for i, (a, b) in enumerate(zip(starts, stops)):
        idx = by_x0[a:b]
        loop += [[i, j] for j in np.sort(idx[index.alpha_d[idx] <= amax]).tolist()]
    assert len(loop) > 0
    seen = {}
    check = farey.check_budget
    monkeypatch.setattr(farey, "check_budget", lambda n, what: (seen.setdefault(what, n), check(n, what)))
    assert index.near(points, radius, alpha_max=amax).tolist() == loop
    assert seen["sample candidates"] < 3 * len(points)
    monkeypatch.setattr(ex, "_build_index", lambda *args: (index, count))
    estimate, sampled_count = ex.sampled_integral(target, None, lo, hi, t, points)
    assert sampled_count == len(index) and 0.0 < estimate <= 1.0


def test_spherical_window_sum_matches_enumeration(monkeypatch):
    # an integer unimodular L has the primitive points of the identity, so its
    # unit cell takes the phi-sieve closed form, while the two halves of the
    # cell enumerate the translated sequence and measure the interval unions
    t = 4.0
    target = tg.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=0.5))
    L = np.array([[2.0, 1.0], [1.0, 1.0]])
    calls, sequence_arrays = [], farey.sequence_arrays

    def counted(*args, **kwargs):
        calls.append(args)
        return sequence_arrays(*args, **kwargs)

    monkeypatch.setattr(farey, "sequence_arrays", counted)
    val_cell, _ = ex.window_sum_spherical(target, L, np.zeros(1), np.ones(1), t)
    assert calls == []
    left, _ = ex.window_sum_spherical(target, L, np.zeros(1), np.full(1, 0.5), t)
    right, _ = ex.window_sum_spherical(target, L, np.full(1, 0.5), np.ones(1), t)
    assert len(calls) == 2 and all(call[2] is L for call in calls)
    assert abs(left + right - val_cell) <= 1e-12 * val_cell


def test_d2_spherical_halves_add_up_to_the_unit_cell():
    # T >= 2 sin(radius): the windows are disjoint, so the enumerated sums over
    # the two halves of the cell add up to the phi-sieve closed form of the cell
    for T, radius in ((2.0, 0.5), (1.5, 0.7), (2.0, 1.0)):
        target = tg.SphericalSection(d=2, T=T, chart=coords.Chart(dim=2, radius=radius))
        for t in (2.0, 3.0, 4.0):
            cell, _ = ex.window_sum_spherical(target, None, np.zeros(1), np.ones(1), t)
            left, _ = ex.window_sum_spherical(target, None, np.zeros(1), np.full(1, 0.5), t)
            right, _ = ex.window_sum_spherical(target, None, np.full(1, 0.5), np.ones(1), t)
            assert abs(left + right - cell) <= 1e-12 * cell


def test_d2_spherical_sub_box_with_a_general_l_is_unchanged():
    # the interval-merge path of the d = 2 spherical window sum, pinned bit for bit
    target = tg.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=0.5))
    lo, hi = np.array([0.1]), np.array([0.7])
    shear = np.array([[1.0, 0.0], [1 / 3, 1.0]])
    assert ex.window_sum_spherical(target, shear, lo, hi, 4.0) == (0.09173415993763742, 273)
    assert ex.window_sum_spherical(target, shear, lo, hi, 5.0) == (0.09131179794309657, 2011)
    general = np.array([[2.0**0.5, 0.0], [0.3, 2.0**-0.5]])
    assert ex.window_sum_spherical(target, general, lo, hi, 4.5) == (0.0911716112303724, 738)


def test_spherical_window_sum_checks_d_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the dimension check")

    monkeypatch.setattr(farey, "sequence_arrays", refuse)
    target = tg.SphericalSection(d=4, T=3.5, chart=coords.Chart(dim=4, radius=0.5))
    for t in (0.0, 1.4):  # at t = 0 no point lies below the cutoff
        with pytest.raises(ConfigError, match="d in"):
            ex.window_sum_spherical(target, None, np.zeros(3), np.ones(3), t)


def test_d3_spherical_window_sum_is_unchanged():
    # the d = 3 spherical row of perfbench's d3-window workload, pinned bit for
    # bit at its smoke t (no lens correction) and its full t (lenses inside A)
    target = tg.SphericalSection(d=3, T=3.0, chart=coords.Chart(dim=3, radius=0.5))
    unit = (np.zeros(2), np.ones(2))
    assert ex.window_sum_spherical(target, None, *unit, 2.0) == (0.023840732082532772, 5561)
    assert ex.window_sum_spherical(target, None, *unit, 2.6) == (0.023661368622645552, 190609)


def test_circle_box_area_against_quadrature(rng):
    for _ in range(25):
        cx, cy = rng.uniform(-0.5, 1.5, size=2)
        r = rng.uniform(0.05, 0.8)
        (got,) = ex._disk_box_areas(np.array([[cx, cy]]), np.array([r]), np.zeros(2), np.ones(2))

        def width(y):
            if abs(y - cy) >= r:
                return 0.0
            h = math.sqrt(r * r - (y - cy) ** 2)
            return max(0.0, min(cx + h, 1.0) - max(cx - h, 0.0))

        want, _err = integrate.quad(width, max(0.0, cy - r), min(1.0, cy + r), limit=200)
        assert abs(got - want) <= 1e-8


def test_collision_clusters():
    from horolab import farey

    centers = np.array([[0.1], [0.100001], [0.5]])
    clusters = farey.collision_clusters(centers, 1e-4)
    assert len(clusters) == 1 and set(clusters[0]) == {0, 1}
    assert farey.collision_clusters(centers, 1e-7) == []


def test_d3_stable_window_sum_needs_no_matrix_product(monkeypatch):
    # the row's sum with np.matmul unavailable is the one the matmul union
    # gave.  Its 600 collision pairs reach the union in one call, and so do
    # the 38,560 at t = 2.6
    def refuse(*args, **kwargs):
        raise AssertionError("np.matmul called")

    unions, cluster_union = [], ex._cluster_union_volume

    def counted(centers, w, lo, hi, *, pairs, raw=None):
        unions.append(pairs[0].size)
        return cluster_union(centers, w, lo, hi, pairs=pairs, raw=raw)

    monkeypatch.setattr(np, "matmul", refuse)
    monkeypatch.setattr(ex, "_cluster_union_volume", counted)
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    val, count = ex.exact_integral(target, None, np.zeros(2), np.ones(2), 2.0, "window-sum")
    assert count == 46489
    assert abs(val - 0.010975701480163833) <= 1e-15 * val
    assert unions == [600]
    ex.exact_integral(target, None, np.zeros(2), np.ones(2), 2.6, "window-sum")
    assert unions == [600, 38_560]


def test_window_sums_read_the_pair_list_only(monkeypatch):
    # no window sum builds clusters: the d3-window spherical row at t = 2.6,
    # the translated d = 3 sum at t = 2.0 and the d = 4 sum at t = 1.0 keep
    # their values with the cluster builders refused.  The identity-L spherical row and the
    # identity-L d = 4 sum take their pairs from one integer search each and
    # never call collision_pairs; the translated sum takes its pairs from
    # one call of collision_pairs
    def refuse(*args, **kwargs):
        raise AssertionError("clusters built")

    searches, collision_pairs = [], farey.collision_pairs
    integer_searches, window_pairs = [], farey.farey_window_pairs

    def counted(points, w):
        searches.append(points.shape[0])
        return collision_pairs(points, w)

    def counted_integer(m, lo, hi, w):
        integer_searches.append(m)
        return window_pairs(m, lo, hi, w)

    monkeypatch.setattr(farey, "collision_clusters", refuse)
    monkeypatch.setattr(farey, "component_clusters", refuse)
    monkeypatch.setattr(farey, "collision_pairs", counted)
    monkeypatch.setattr(farey, "farey_window_pairs", counted_integer)
    spherical = tg.SphericalSection(d=3, T=3.0, chart=coords.Chart(dim=3, radius=0.5))
    assert ex.window_sum_spherical(spherical, None, np.zeros(2), np.ones(2), 2.6) == (0.023661368622645552, 190609)
    assert (searches, integer_searches) == ([], [math.ceil(spherical.denominator_cap(2.6)) - 1])
    L = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, 1.0]])
    stable = tg.StableSection(d=3, T=1.0, eps=0.2)
    assert ex._window_sum_stable_enumerated(stable, L, np.zeros(2), np.ones(2), 2.0) == (0.01108804823721582, 46_060)
    assert searches == [46_060]
    assert len(integer_searches) == 1
    # identity L at d = 4 takes its pairs from one integer search as well
    d4 = tg.StableSection(d=4, T=1.0, eps=0.2)
    assert ex._window_sum_stable_enumerated(d4, None, np.zeros(3), np.ones(3), 1.0) == (0.0019936072690676892, 48_081)
    assert searches == [46_060]
    assert integer_searches[1:] == [math.floor(d4.denominator_cap(1.0))]


def test_cluster_union_volume():
    centers = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.25]])
    w = 1.0
    pairs = np.array([0, 0, 1]), np.array([1, 2, 2])
    got = ex._cluster_union_volume(centers, w, np.array([-5.0, -5.0]), np.array([5.0, 5.0]), pairs=pairs)
    # hand inclusion-exclusion: 3 - (0.5 + 0.5625 + 0.5625) + 0.375
    assert abs(got - 1.75) <= 1e-12


def test_cluster_union_budgets_each_clique_level(monkeypatch):
    # 40 coincident boxes form one 40-clique: C(40, k) sets at level k, 2^40 - 41
    # in all; the 658,008 5-sets are refused before they are grown (their
    # common boxes alone would take 21 MB)
    monkeypatch.setattr(farey, "ENUM_BUDGET", 100_000)
    centers = np.full((40, 2), 0.5)
    u, v = np.triu_indices(40, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="clique sets 658008"):
            ex._cluster_union_volume(centers, 0.01, np.zeros(2), np.ones(2), pairs=(u, v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def _sweep_union(centers, w, lo, hi):
    """Reference union of congruent clipped boxes: interval merge in one
    dimension, a slab sweep over the first coordinate in two."""
    los = np.maximum(centers - w / 2.0, lo)
    his = np.minimum(centers + w / 2.0, hi)
    keep = np.all(his > los, axis=1)
    los, his = los[keep], his[keep]
    if los.shape[0] == 0:
        return 0.0
    if los.shape[1] == 1:
        return _merge_length_loop(np.stack([los[:, 0], his[:, 0]], axis=1))
    events = np.unique(np.concatenate([los[:, 0], his[:, 0]]))
    total = 0.0
    for x0, x1 in zip(events[:-1], events[1:]):
        mid = 0.5 * (x0 + x1)
        active = (los[:, 0] <= mid) & (his[:, 0] >= mid)
        if np.any(active):
            total += (x1 - x0) * _merge_length_loop(np.stack([los[active, 1], his[active, 1]], axis=1))
    return float(total)


def _cell_union(centers, w, lo, hi):
    """Reference union of congruent clipped boxes in any dimension: their
    edges cut A into cells on every axis, each box covers a block of cells,
    and the covered cells' volumes are summed."""
    los = np.maximum(centers - w / 2.0, lo)
    his = np.minimum(centers + w / 2.0, hi)
    keep = np.all(his > los, axis=1)
    los, his = los[keep], his[keep]
    if los.shape[0] == 0:
        return 0.0
    edges = [np.unique(np.concatenate([los[:, a], his[:, a]])) for a in range(los.shape[1])]
    covered = np.zeros([e.size - 1 for e in edges], bool)
    for box_lo, box_hi in zip(los, his):
        covered[tuple(slice(np.searchsorted(e, a), np.searchsorted(e, b)) for e, a, b in zip(edges, box_lo, box_hi))] = True
    cells = functools.reduce(np.multiply.outer, [np.diff(e) for e in edges])
    return float(cells[covered].sum())


# grid values make shared and touching edges common (decimal ones touch only
# up to rounding, 0.9 + 0.1 == 1.0); the range reaches past A = [0, 1]^dim,
# so some boxes are clipped or empty
grid = [-0.25, 0.0, 0.1, 0.125, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1.0, 1.25]
coordinate = st.one_of(st.sampled_from(grid), st.floats(-0.3, 1.3))
radius = st.one_of(st.sampled_from([0.0, 0.1, 0.125, 0.25, 0.3]), st.floats(1e-6, 0.7))


@st.composite
def interval_clusters(draw):
    w = draw(st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.01, 0.6)))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    centers = np.array(draw(st.lists(coordinate, min_size=sum(sizes), max_size=sum(sizes))))[:, None]
    return centers, w, sizes, np.zeros(1), np.ones(1)


@settings(deadline=None, max_examples=300)
@given(interval_clusters())
def test_cover_count_union_matches_the_oracles_bitwise(case):
    centers, w, sizes, lo, hi = case
    los, his = np.maximum(centers - w / 2.0, lo), np.minimum(centers + w / 2.0, hi)
    for part_lo, part_hi in zip(np.split(los, np.cumsum(sizes)[:-1]), np.split(his, np.cumsum(sizes)[:-1])):
        intervals = np.concatenate([part_lo, part_hi], axis=1)
        assert ex._coverage_union(part_lo[:, 0], part_hi[:, 0]) == _merge_length_loop(intervals)


@st.composite
def pair_sets(draw):
    """Boxes of width w in one, two or three dimensions.  Each after the
    first is drawn free, within w of an earlier one on every axis, or
    within w/2 of it, so that boxes drawn around one center overlap
    pairwise and cliques of up to six occur beside trees, cycles and pairs
    that only touch (on the grid values)."""
    dim = draw(st.sampled_from([1, 2, 3]))
    w = draw(st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.01, 0.6)))
    centers = [draw(st.tuples(*[coordinate] * dim))]
    for _ in range(draw(st.integers(1, 11))):
        reach = draw(st.sampled_from([None, w, w / 2.0]))
        if reach is None:
            centers.append(draw(st.tuples(*[coordinate] * dim)))
        else:
            base = centers[draw(st.integers(0, len(centers) - 1))]
            centers.append(tuple(b + draw(st.floats(-reach, reach)) for b in base))
    return np.array(centers), w


CLIQUE = np.array([[0.5, 0.5, 0.5], [0.55, 0.45, 0.5], [0.45, 0.6, 0.52], [0.6, 0.55, 0.4], [0.42, 0.4, 0.6], [0.5, 0.62, 0.45]])


@settings(deadline=None, max_examples=300)
@given(pair_sets(), st.integers(0, 2**32 - 1))
@example((np.array([[0.1, 0.1], [0.3, 0.25], [0.5, 0.1], [0.7, 0.3]]), 0.25), 0)  # a tree, on no line
@example((np.array([[0.4, 0.4], [0.5, 0.45], [0.45, 0.55], [0.9, 0.9]]), 0.25), 0)  # a triangle
@example((np.array([[0.1], [0.2], [0.3]]), 0.25), 0)  # a triangle of intervals
@example((np.array([[0.2, 0.5], [0.5, 0.8], [0.8, 0.5], [0.5, 0.2]]), 0.5), 0)  # a 4-cycle with no triangle
@example((np.array([[0.0, 0.5], [0.25, 0.5], [0.5, 0.5], [0.5, 0.7], [0.75, 0.75]]), 0.25), 0)  # touching edges
@example((np.array([[-0.25, 0.5], [-0.1, 0.6], [1.25, 1.25], [1.1, 1.3]]), 0.25), 0)  # clipped and empty outside A
@example((CLIQUE, 0.25), 1)  # a 6-clique of cubes
@example((CLIQUE[:, :2], 0.25), 0)  # a 6-clique of squares
@example((np.vstack([CLIQUE - 0.55, [[1.2, 1.2, 1.2], [1.1, 1.3, 1.25]]]), 0.25), 1)  # clipped and empty in 3-D
def test_clique_union_matches_the_oracles(case, seed):
    # inclusion-exclusion over the cliques of the strict sup-norm pairs,
    # found by brute force and each turned round at random, measures the union
    centers, w = case
    lo, hi = np.zeros(centers.shape[1]), np.ones(centers.shape[1])
    i, j = np.triu_indices(centers.shape[0], 1)
    close = np.abs(centers[i] - centers[j]).max(axis=1) < w
    i, j = i[close], j[close]
    turn = np.random.default_rng(seed).random(i.size) < 0.5
    pairs = np.where(turn, j, i), np.where(turn, i, j)
    got = ex._cluster_union_volume(centers, w, lo, hi, pairs=pairs)
    assert abs(got - _cell_union(centers, w, lo, hi)) <= 1e-12
    if centers.shape[1] < 3:
        assert abs(got - _sweep_union(centers, w, lo, hi)) <= 1e-12


def _close_pairs(centers, w, start=0):
    """Brute-force strict sup-norm pairs of the boxes at the centers, as
    rows shifted by start."""
    i, j = np.triu_indices(centers.shape[0], 1)
    close = np.abs(centers[i] - centers[j]).max(axis=1) < w
    return i[close] + start, j[close] + start


def _part_pairs(centers, w, sizes):
    """The pairs within each part of the given sizes, none between parts."""
    starts = np.cumsum(sizes) - np.asarray(sizes)
    found = [_close_pairs(centers[s : s + k], w, s) for s, k in zip(starts, sizes)]
    return np.concatenate([u for u, _ in found]), np.concatenate([v for _, v in found])


@st.composite
def box_clusters(draw):
    dim = draw(st.sampled_from([1, 2]))
    w = draw(st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.01, 0.6)))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    centers = np.array(draw(st.lists(st.tuples(*[coordinate] * dim), min_size=sum(sizes), max_size=sum(sizes))))
    return centers, w, sizes, np.zeros(dim), np.ones(dim)


@settings(deadline=None)
@given(box_clusters())
def test_batched_union_matches_per_cluster_and_sweep(case):
    # pairs only within each cluster make one call measure the clusters'
    # unions summed, even where boxes of two clusters overlap
    centers, w, sizes, lo, hi = case
    batched = ex._cluster_union_volume(centers, w, lo, hi, pairs=_part_pairs(centers, w, sizes))
    parts = np.split(centers, np.cumsum(sizes)[:-1])
    unions = [ex._cluster_union_volume(p, w, lo, hi, pairs=_close_pairs(p, w)) for p in parts]
    assert abs(batched - sum(unions)) <= 1e-12
    assert abs(batched - sum(_sweep_union(p, w, lo, hi) for p in parts)) <= 1e-12
    for part, union in zip(parts, unions):
        volumes = ex._clipped_box_volumes(part, w, lo, hi)
        assert volumes.max() - 1e-12 <= union <= volumes.sum() + 1e-12


@st.composite
def line_clusters(draw):
    """Clusters of two-dimensional boxes, most of them with one coordinate
    shared by all their centers (on a rational or a drawn value), some
    free."""
    w = draw(st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.01, 0.6)))
    centers, sizes = [], []
    for k in draw(st.lists(st.integers(1, 9), min_size=1, max_size=8)):
        axis = draw(st.sampled_from([0, 1, None]))
        shared = draw(coordinate)
        for _ in range(k):
            c = [draw(coordinate), draw(coordinate)]
            if axis is not None:
                c[axis] = shared
            centers.append(c)
        sizes.append(k)
    return np.array(centers), w, sizes, np.zeros(2), np.ones(2)


@settings(deadline=None, max_examples=200)
@given(line_clusters())
@example((np.array([[0.5, 0.1], [0.5, 0.3], [0.5, 0.2], [0.2, 0.7], [0.3, 0.7], [1.1, 0.7]]), 0.25, [3, 3], np.zeros(2), np.ones(2)))
def test_line_clusters_match_the_cover_count_union(case):
    # a cluster on a line is the clipped width across the line times the
    # cover-count union of its intervals along it; a free one is measured
    # on its cells
    centers, w, sizes, lo, hi = case
    want = 0.0
    for part in np.split(centers, np.cumsum(sizes)[:-1]):
        los, his = np.maximum(part - w / 2.0, lo), np.minimum(part + w / 2.0, hi)
        on_line = [a for a in (0, 1) if np.all(part[:, a] == part[0, a])]
        if on_line:
            a, b = on_line[0], 1 - on_line[0]
            want += max(his[0, a] - los[0, a], 0.0) * ex._coverage_union(los[:, b], his[:, b])
        else:
            want += _cell_union(part, w, lo, hi)
    got = ex._cluster_union_volume(centers, w, lo, hi, pairs=_part_pairs(centers, w, sizes))
    assert abs(got - want) <= 1e-12


@settings(deadline=None, max_examples=300)
@given(pair_sets())
@example((np.array([[0.1, 0.1], [0.3, 0.25], [0.5, 0.1], [0.7, 0.3]]), 0.25))  # a tree, on no line
@example((np.array([[0.4, 0.4], [0.5, 0.45], [0.45, 0.55], [0.9, 0.9]]), 0.25))  # a triangle
@example((np.array([[0.1], [0.2], [0.3]]), 0.25))  # a triangle of intervals
@example((np.array([[0.2, 0.5], [0.5, 0.8], [0.8, 0.5], [0.5, 0.2]]), 0.5))  # a 4-cycle with no triangle
@example((np.array([[0.0, 0.5], [0.25, 0.5], [0.5, 0.5], [0.5, 0.7], [0.75, 0.75]]), 0.25))  # touching edges
@example((np.array([[-0.25, 0.5], [-0.1, 0.6], [1.25, 1.25], [1.1, 1.3]]), 0.25))  # clipped and empty outside A
def test_collision_correction_matches_the_cluster_unions(case):
    # the window sum's correction, the union of all boxes on some pair less
    # their clipped volumes, is union - raw summed over the collision
    # clusters, by the clique union per cluster and by the cell oracle
    centers, w = case
    lo, hi = np.zeros(centers.shape[1]), np.ones(centers.shape[1])
    i, j = _close_pairs(centers, w)
    rows, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    centers, u, v = centers[rows], ends[: i.size], ends[i.size :]
    got = ex._cluster_union_volume(centers, w, lo, hi, pairs=(u, v)) - float(ex._clipped_box_volumes(centers, w, lo, hi).sum())
    members, sizes = farey.component_clusters(u, v)
    parts = np.split(centers[members], np.cumsum(sizes)[:-1]) if members.size else []
    raw = [float(ex._clipped_box_volumes(p, w, lo, hi).sum()) for p in parts]
    unions = [ex._cluster_union_volume(p, w, lo, hi, pairs=_close_pairs(p, w)) for p in parts]
    assert abs(got - sum(union - r for union, r in zip(unions, raw))) <= 1e-12
    assert abs(got - sum(_cell_union(p, w, lo, hi) - r for p, r in zip(parts, raw))) <= 1e-12


def _union_length(intervals: np.ndarray) -> float:
    """The one-cluster dim-1 call of the cover-count union, as the d = 2
    spherical window sum makes it."""
    return ex._coverage_union(intervals[:, 0], intervals[:, 1])


def _merge_length_loop(intervals: np.ndarray) -> float:
    """The interval-merge loop the d = 2 interval union replaced, kept as its
    bitwise oracle."""
    iv = intervals[intervals[:, 1] > intervals[:, 0]]
    if iv.shape[0] == 0:
        return 0.0
    iv = iv[np.argsort(iv[:, 0], kind="stable")]
    total, cur_lo, cur_hi = 0.0, iv[0, 0], iv[0, 1]
    for a, b in iv[1:]:
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return float(total + (cur_hi - cur_lo))


@st.composite
def interval_sets(draw):
    """Intervals on grid and free coordinates, each maybe joined by a nested,
    a touching, an empty or a reversed copy, in a drawn order."""
    out = []
    for lo, hi in draw(st.lists(st.tuples(coordinate, coordinate), max_size=30)):
        out.append((lo, hi))
        kind = draw(st.sampled_from(["none", "nested", "touching", "empty", "reversed"]))
        if kind == "nested":
            out.append((lo + (hi - lo) / 4.0, hi - (hi - lo) / 4.0))
        elif kind == "touching":
            out.append((hi, hi + abs(hi - lo)))
        elif kind == "empty":
            out.append((lo, lo))
        elif kind == "reversed":
            out.append((hi, lo))
    return np.array(draw(st.permutations(out)), dtype=float).reshape(-1, 2)


@settings(deadline=None, max_examples=300)
@given(interval_sets())
def test_merge_length_matches_loop_bitwise(intervals):
    assert _union_length(intervals) == _merge_length_loop(intervals)


def test_merge_length_matches_loop_bitwise_in_bulk(rng):
    # hundreds of runs per set, on two scales: an order of addition other than
    # left to right (np.sum adds pairwise) changes the last bits of about a
    # third of these sets, and of few of the short sets above
    for n in [300] * 20 + [3000] * 4:
        scale = rng.choice([1.0, 1e3], size=n)
        lo = rng.uniform(0.0, 1.0, size=n) * scale
        intervals = np.stack([lo, lo + rng.exponential(0.5 / n, size=n) * scale], axis=1)
        assert _union_length(intervals) == _merge_length_loop(intervals)


@settings(deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate, radius), min_size=1, max_size=40))
def test_disk_areas_match_scalar_loop_bitwise(disks):
    arr = np.array(disks)
    centers, radii = arr[:, :2], arr[:, 2]
    lo, hi = np.zeros(2), np.ones(2)
    areas = ex._disk_box_areas(centers, radii, lo, hi)
    total = 0.0
    for k, (c, r) in enumerate(zip(centers, radii)):
        want = _circle_box_area(c[0], c[1], r, lo, hi) if r > 0 else 0.0
        assert areas[k] == want
        total += want
    assert np.cumsum(np.append(0.0, areas))[-1] == total


# the scalar disk and lens areas the batched d = 3 spherical window sum was
# written from; the batched code must give their bits


def _lens_area(dist: float, r1: float, r2: float) -> float:
    if dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    a1 = math.acos(min(1.0, max(-1.0, (dist * dist + r1 * r1 - r2 * r2) / (2 * dist * r1))))
    a2 = math.acos(min(1.0, max(-1.0, (dist * dist + r2 * r2 - r1 * r1) / (2 * dist * r2))))
    kern = max(0.0, (-dist + r1 + r2) * (dist + r1 - r2) * (dist - r1 + r2) * (dist + r1 + r2))
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(kern)


def _unit_corner(a: float, b: float) -> float:
    """Area of the unit disk in the quadrant {u >= a, v >= b}."""
    if a >= 1.0 or b >= 1.0:
        return 0.0
    a = max(a, -1.0)
    b = max(b, -1.0)

    def w(x):
        x = min(max(x, -1.0), 1.0)
        return 0.5 * (x * math.sqrt(max(0.0, 1.0 - x * x)) + math.asin(x))

    if b >= 0.0:
        xb = math.sqrt(max(0.0, 1.0 - b * b))
        p = max(a, -xb)
        if p >= xb:
            return 0.0
        return (w(xb) - w(p)) - b * (xb - p)
    xb = math.sqrt(max(0.0, 1.0 - b * b))
    total = 0.0
    p = max(a, -xb)
    if p < xb:
        total += (w(xb) - w(p)) - b * (xb - p)
    pr = max(a, xb)
    if pr < 1.0:
        total += 2.0 * (w(1.0) - w(pr))  # right lobe, chord fully above v = b
    if a < -xb:
        total += 2.0 * (w(-xb) - w(max(a, -1.0)))  # left lobe
    return total


def _circle_box_area(cx: float, cy: float, r: float, lo, hi) -> float:
    """Exact area of the disk of radius r at (cx, cy) inside the box."""
    if r <= 0:
        return 0.0
    x1, y1 = (lo[0] - cx) / r, (lo[1] - cy) / r
    x2, y2 = (hi[0] - cx) / r, (hi[1] - cy) / r
    val = _unit_corner(x1, y1) - _unit_corner(x2, y1) - _unit_corner(x1, y2) + _unit_corner(x2, y2)
    return r * r * max(0.0, val)


def _pairwise_disk_window_sum(centers, radii, lo, hi):
    """The per-pair loop the batched lens correction replaced: the disk
    areas added left to right, then the lens of each pair inside A
    subtracted, cluster by cluster.  Also returns each pair (i, j), i < j,
    that meets (dist < r1 + r2) with its lens, in that order."""
    total = np.cumsum(np.append(0.0, ex._disk_box_areas(centers, radii, lo, hi)))[-1]
    inside = np.all(centers - radii[:, None] >= lo, axis=1) & np.all(centers + radii[:, None] <= hi, axis=1)
    lenses = []
    for members in farey.collision_clusters(centers, 2.0 * radii):
        a_i, b_i = np.triu_indices(members.size, 1)
        for i, j in zip(members[a_i], members[b_i]):
            if inside[i] and inside[j]:
                dist = float(np.linalg.norm(centers[i] - centers[j]))
                lens = _lens_area(dist, radii[i], radii[j])
                total -= lens
                if dist < radii[i] + radii[j]:
                    lenses.append(((int(i), int(j)), lens))
    return float(total), lenses


offset = st.one_of(st.sampled_from([0.0, 0.0625, -0.0625, 0.125, -0.125, 0.25]), st.floats(-0.3, 0.3))
disk_radius = st.one_of(st.sampled_from([0.0625, 0.125, 0.25]), st.floats(1e-3, 0.3))


@st.composite
def disk_clusters(draw):
    """Groups of 2 to 8 disks about a common point, inside A, across its
    edges or outside it.  Grid offsets and radii make nested and tangent
    pairs common; a group's far members need not meet."""
    disks = []
    for size in draw(st.lists(st.integers(2, 8), min_size=1, max_size=5)):
        x, y = draw(coordinate), draw(coordinate)
        for _ in range(size):
            disks.append((x + draw(offset), y + draw(offset), draw(disk_radius)))
    arr = np.array(disks)
    return arr[:, :2], arr[:, 2]


@settings(deadline=None)
@given(disk_clusters())
# nested: a small disk in a big one, both inside A
@example((np.array([[0.5, 0.5], [0.5625, 0.5]]), np.array([0.25, 0.125])))
# tangent: the disks at x = 0.25 and 0.5 touch (dist == r1 + r2), clustered through the one between
@example((np.array([[0.25, 0.5], [0.5, 0.5], [0.375, 0.5]]), np.array([0.125, 0.125, 0.0625])))
def test_batched_lenses_match_pairwise_loop(case):
    # these disks are not Farey windows: their candidate pairs come from the
    # float search on the diameters, as a general L's do
    centers, radii = case
    lo, hi = np.zeros(2), np.ones(2)
    pairs = farey.collision_pairs(centers, 2.0 * radii)
    want, lenses = _pairwise_disk_window_sum(centers, radii, lo, hi)
    got = ex._disk_window_sum(centers, radii, lo, hi, pairs=pairs)
    assert abs(got - want) <= 1e-15 * abs(want)
    # the batched lenses come in (i, j) order
    want_lenses = [lens for _pair, lens in sorted(lenses)]
    got_lenses = ex._inside_lenses(centers, radii, lo, hi, pairs=pairs)
    assert got_lenses.size == len(want_lenses)
    assert np.allclose(got_lenses, want_lenses, rtol=1e-15, atol=0.0)


def test_batched_lenses_match_pairwise_loop_bitwise():
    # the disks of the d = 3 spherical row at t = 2.4 (57,329 disks) and at
    # perfbench's d3-window t = 2.6 (190,609), with the lens pairs of the
    # integer search.  Each lens, in (i, j) order, and the total keep the bits
    target = tg.SphericalSection(d=3, T=3.0, chart=coords.Chart(dim=3, radius=0.5))
    lo, hi = np.zeros(2), np.ones(2)
    for t, n_lenses in [(2.4, 456), (2.6, 2_460)]:
        centers, radii, pairs = ex._spherical_windows(target, None, lo, hi, t)
        want, lenses = _pairwise_disk_window_sum(centers, radii, lo, hi)
        assert len(lenses) == n_lenses
        assert ex._inside_lenses(centers, radii, lo, hi, pairs=pairs).tolist() == [lens for _pair, lens in sorted(lenses)]
        assert ex._disk_window_sum(centers, radii, lo, hi, pairs=pairs) == want


@st.composite
def spherical_lens_cases(draw):
    """A d = 3 identity-L spherical target, a flow time and a sub-box of the
    unit square; grid radii and boxes put disks on the box edges."""
    T = draw(st.one_of(st.sampled_from([2.5, 3.0]), st.floats(2.35, 5.0)))
    radius = draw(st.one_of(st.sampled_from([0.5, 0.9, 1.2]), st.floats(0.2, 1.4)))
    t = draw(st.floats(1.4, 2.3))
    lo = np.array([draw(st.sampled_from([0.0, 0.25])) for _ in range(2)])
    hi = lo + np.array([draw(st.one_of(st.sampled_from([0.5, 0.75]), st.floats(0.1, 0.75))) for _ in range(2)])
    return tg.SphericalSection(d=3, T=T, chart=coords.Chart(dim=3, radius=radius)), t, lo, hi


def per_row_windows(target, lo, hi, t):
    """Centers and radii of the identity-L spherical windows from a mask over
    every row and one radius per row: what the q-prefix and the radii per
    run of q replaced."""
    d, q_cap, margin = target.d, target.denominator_cap(t), target.candidate_radius(t)
    _sources, alpha = farey.sequence_arrays(d, q_cap, None, (lo - margin, hi + margin))
    rows = np.flatnonzero(alpha[:, d - 1] < q_cap)
    ad = alpha[rows, d - 1]
    centers = np.empty((rows.size, d - 1))
    for a in range(d - 1):
        np.divide(alpha[rows, a], ad, out=centers[:, a])
    return centers, ex._spherical_radii(ad, q_cap, target.chart.radius, d, t)


@settings(deadline=None, max_examples=80)
@given(spherical_lens_cases())
# q_cap = 21 exactly: the rows stop at q = 20, and so must the pair search
@example((tg.SphericalSection(d=3, T=2.5, chart=coords.Chart(dim=3, radius=0.9)), 1.8276914628197631, np.zeros(2), np.ones(2)))
# d = 2 on a box that is not the unit cell, so no closed per-q sum applies
@example((tg.SphericalSection(d=2, T=1.5, chart=coords.Chart(dim=2, radius=0.7)), 3.0, np.full(1, -0.3), np.full(1, 2.2)))
def test_integer_lens_pairs_match_the_float_search_bitwise(case):
    # the windows of the q-prefix are those of the per-row mask, bit for bit;
    # the lens step on the integer pairs of _spherical_windows matches the
    # same step on the independent float candidates of collision_pairs
    target, t, lo, hi = case
    centers, radii, pairs = ex._spherical_windows(target, None, lo, hi, t)
    want_centers, want_radii = per_row_windows(target, lo, hi, t)
    assert centers.shape == want_centers.shape and centers.tobytes() == want_centers.tobytes()
    assert radii.shape == want_radii.shape and radii.tobytes() == want_radii.tobytes()
    if target.d == 2 or centers.shape[0] == 0:
        assert pairs is None
        return
    want = ex._inside_lenses(centers, radii, lo, hi, pairs=farey.collision_pairs(centers, 2.0 * radii))
    got = ex._inside_lenses(centers, radii, lo, hi, pairs=pairs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_disk_areas_match_scalar_loop_bitwise_in_bulk(rng):
    # thousands of boundary disks at once, where numpy's own arcsin would
    # round differently from math.asin on some of them
    centers = rng.uniform(-0.3, 1.3, size=(4000, 2))
    radii = rng.uniform(1e-6, 0.7, size=4000)
    lo, hi = np.zeros(2), np.ones(2)
    want = [_circle_box_area(c[0], c[1], r, lo, hi) for c, r in zip(centers, radii)]
    assert ex._disk_box_areas(centers, radii, lo, hi).tolist() == want


@given(st.permutations(range(4)))
def test_collision_clusters_ordered_by_smallest_member(perm):
    from horolab import farey

    base = np.array([[0.1, 0.1], [0.1001, 0.1], [0.8, 0.8], [0.8, 0.8001]])
    points = np.empty_like(base)
    points[perm] = base  # base row i becomes point perm[i]
    clusters = farey.collision_clusters(points, 1e-3)
    want = sorted([sorted(perm[:2]), sorted(perm[2:])])
    assert [c.tolist() for c in clusters] == want


def _oracle_clusters(points, w):
    """Every pair tested in sup norm against (w_i + w_j)/2, then connected
    components by depth-first search from each point in index order."""
    n = points.shape[0]
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    close = np.all(np.abs(points[:, None, :] - points[None, :, :]) < (0.5 * (w[:, None] + w[None, :]))[..., None], axis=2)
    np.fill_diagonal(close, False)
    seen = np.zeros(n, dtype=bool)
    clusters = []
    for i in range(n):
        if seen[i] or not close[i].any():
            continue
        seen[i] = True
        stack, members = [i], []
        while stack:
            v = stack.pop()
            members.append(v)
            for u in np.flatnonzero(close[v] & ~seen):
                seen[u] = True
                stack.append(u)
        clusters.append(sorted(members))
    return clusters


@st.composite
def point_sets(draw):
    dim = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.125, 0.25, 0.5]))
    # grid values put gaps exactly on the threshold; floats fill in between
    coord = st.one_of(st.integers(-8, 8).map(lambda k: k * step), st.floats(-2.0, 2.0))
    rows = draw(st.lists(st.tuples(*[coord] * dim), max_size=40))
    if rows:
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    points = np.array(rows, dtype=float).reshape(len(rows), dim)
    width = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return points, draw(width)
    # per-point widths, as the spherical caller's diameters 2 * radii
    return points, 2.0 * np.array(draw(st.lists(width, min_size=len(rows), max_size=len(rows))))


@settings(deadline=None)
@given(point_sets())
def test_collision_clusters_match_brute_force(case):
    # the window sum passes Fortran-ordered centers, the spherical sum C-ordered ones
    points, w = case
    want = _oracle_clusters(points, w)
    assert [c.tolist() for c in farey.collision_clusters(points, w)] == want
    assert [c.tolist() for c in farey.collision_clusters(np.asfortranarray(points), w)] == want


def _union_find_clusters(points, w):
    """Clusters by union-find over every close pair (sup-norm gap below
    (w_i + w_j)/2), sorted, ordered by their smallest member."""
    n = points.shape[0]
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    close = np.all(np.abs(points[:, None, :] - points[None, :, :]) < (0.5 * (w[:, None] + w[None, :]))[..., None], axis=2)
    pi, pj = np.nonzero(np.triu(close, 1))
    for i, j in zip(pi, pj):
        parent[find(i)] = find(j)
    groups = {}
    for i in np.unique(np.concatenate([pi, pj])):
        groups.setdefault(find(i), []).append(int(i))
    return sorted(groups.values())


def _chain(n, w, y=0.0):
    # consecutive boxes overlap (gap 0.9 w), every other pair is 1.8 w or more apart
    return np.stack([0.9 * w * np.arange(n), np.full(n, y)], axis=1)


def _star(n):
    # a hub of width 2 at the origin meets n leaves of width 1e-3 on the
    # circle of radius 0.9; neighbouring leaves lie about 0.004 apart
    theta = 2.0 * np.pi * np.arange(n) / n
    leaves = 0.9 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return np.concatenate([[[0.0, 0.0]], leaves]), np.concatenate([[2.0], np.full(n, 1e-3)])


@pytest.mark.parametrize("shape, sizes", [("chain", [1200]), ("two chains", [600, 700]), ("star", [1001])])
def test_collision_clusters_label_long_chains_and_stars(shape, sizes):
    w = 1e-3
    if shape == "chain":
        points = _chain(1200, w)
    elif shape == "two chains":
        points = np.concatenate([_chain(700, w), _chain(600, w, y=1.5 * w)])
    else:
        points, w = _star(1000)
    perm = np.random.default_rng(11).permutation(points.shape[0])  # the two chains interleave in index order
    points = points[perm]
    w = w if np.ndim(w) == 0 else w[perm]
    want = _union_find_clusters(points, w)
    assert sorted(len(c) for c in want) == sizes
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert [c.tolist() for c in farey.collision_clusters(layout(points), w)] == want


@settings(deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_component_labels_match_union_find(graph):
    n, edges = graph
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)  # each root is its component's smallest node
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    assert farey._component_labels(n, u, v).tolist() == [find(x) for x in range(n)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collision_clusters_pair_in_every_direction(dim):
    # w = 1 with a point at the origin: the unit cells [k, k + 1) hold
    # 3 + offset.  Point a sits in cell 3 on every axis and its one close
    # partner b = a + 0.2 * step across the face, edge or corner toward
    # `step`; every other cell around a holds a point at least 1.09 from a
    # on some axis, so a joins a cluster only through the pair (a, b)
    offsets = [np.array(o) for o in itertools.product((-1, 0, 1), repeat=dim) if any(o)]
    for step in offsets:
        a = 3.0 + np.where(step > 0, 0.9, np.where(step < 0, 0.1, 0.5))
        others = [3.0 + o + np.where(o > 0, 0.99, np.where(o < 0, 0.01, 0.5)) for o in offsets if not np.array_equal(o, step)]
        points = np.array([np.zeros(dim), a, a + 0.2 * step] + others)
        want = _oracle_clusters(points, 1.0)
        assert any(c[:2] == [1, 2] for c in want)
        assert [c.tolist() for c in farey.collision_clusters(points, 1.0)] == want


def test_collision_clusters_wide_range_tiny_width():
    # 1e16 cells of w per axis: the grid must widen instead of wrapping its keys
    rng = np.random.default_rng(7)
    spread = rng.uniform(0.0, 1e7, size=(300, 2))
    points = np.concatenate([
        spread,
        spread[:40],  # exact duplicates collide
        np.nextafter(spread[40:60], np.inf),  # one ulp (about 1.9e-9) apart: not close
        rng.uniform(0.0, 3e-8, size=(100, 2)),  # gaps around w near the origin
    ])
    points = points[rng.permutation(points.shape[0])]
    want = _oracle_clusters(points, 1e-9)
    assert len(want) > 40
    assert [c.tolist() for c in farey.collision_clusters(points, 1e-9)] == want


def test_collision_clusters_check_the_budget_before_allocating():
    # x^2 crowds thousands of points into the first cells: their same-cell
    # pairs alone number over 10^8, which once filled 8 GB
    rng = np.random.default_rng(0)
    points = (rng.uniform(0.0, 1.0, size=200_000) ** 2)[:, None]
    widths = rng.uniform(0.0, 3e-3, size=200_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            farey.collision_clusters(points, widths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20


def test_d3_window_overlap_below_nominal_budget():
    # two distinct sheets meet below the nominal d = 3 budget C_3 T = 0.433:
    # at t = 1.8, eps = 0.2, T = 1 the first pair of the integer pair search
    # over the unit square, by pair_graph rank, is (0,6,31) and (0,7,36),
    # whose centers are 1/1116 apart against w = 0.2 e^{-5.4}, checked exactly
    eps, t = 0.2, 1.8
    target = tg.StableSection(d=3, T=1.0, eps=eps)
    assert eps < tg.disjointness_budget(3, 1.0)
    w, _c_off, margin = ex._stable_window_shape(target, t)
    m = math.floor(target.denominator_cap(t))
    nodes, u, v = farey.pair_graph(*farey.farey_window_pairs(m, np.full(2, -margin), np.full(2, 1.0 + margin), w))
    k = np.lexsort((v, u))[0]
    (a1, a2, qa), (b1, b2, qb) = nodes[u[k]].tolist(), nodes[v[k]].tolist()
    assert ((a1, a2, qa), (b1, b2, qb)) == ((0, 6, 31), (0, 7, 36))
    # Farey neighbours on the line x_1 = 0: the cross product is +-e_1
    cross = (a2 * qb - qa * b2, qa * b1 - a1 * qb, a1 * b2 - a2 * b1)
    assert cross in ((1, 0, 0), (-1, 0, 0))
    gap = max(abs(Fraction(a1, qa) - Fraction(b1, qb)), abs(Fraction(a2, qa) - Fraction(b2, qb)))
    # gap/w = 0.9922; the float exp is good to ~1e-16 relative, far inside a 0.5% margin
    assert gap < Fraction(995, 1000) * Fraction(w)
    # the same kind of meeting seen pointwise: x sits in the windows of both
    # (0,1,36) and (0,1,35), another cross-product-e_1 pair 1/1260 apart
    hit = tg.member_dual(target, None, [0.0002, 0.02818], t)
    assert hit is not None and hit.extra.get("multiplicity", 1) >= 2


def test_sampled_integral_counts_a_d3_cusp_pair_once():
    # the cusp pair (0,1,36)/(0,1,35) above: member_dual reports both
    # witnesses, the sampled estimator counts the sample once
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    x, miss = [0.0002, 0.02818], [0.123456, 0.654321]
    assert tg.member_dual(target, None, x, 1.8).extra["multiplicity"] == 2
    assert tg.member_dual(target, None, miss, 1.8) is None
    estimate, _count = ex.sampled_integral(target, None, np.zeros(2), np.ones(2), 1.8, np.array([x, miss]))
    assert estimate == 0.5


def test_sampled_integral_raises_on_a_d2_double_witness(monkeypatch):
    # an index holding 1/2 twice, as (1, 2) and (2, 4), gives x = 1/2 two
    # stable witnesses at t = log 100; the batched path raises as member_dual
    # does.  The coordinate box with the same thickening reduces each source,
    # so its index holds the primitive (1, 2) twice; its height, 2500 at
    # t = log 100, lies in [1, 10^4)
    section = farey.FareyIndex(2, np.array([[1, 2], [2, 4]]), np.array([[1.0, 2.0], [2.0, 4.0]]))
    box = farey.FareyIndex(2, np.array([[1, 2], [1, 2]]), np.array([[1.0, 2.0], [1.0, 2.0]]))
    for target, index in ((tg.StableSection(d=2, T=1.0, eps=0.2), section),
                          (tg.GrenierBoxStable(d=2, alphas=(1.0,), gammas=(1e4,), T=1.0, eps=0.2), box)):
        monkeypatch.setattr(ex, "_build_index", lambda *args: (index, len(index)))
        with pytest.raises(DisjointnessError, match=r"x=\[0.5\]"):
            tg.member_dual(target, None, [0.5], math.log(100), index=index)
        with pytest.raises(DisjointnessError, match=r"x=\[0.5\]"):
            ex.sampled_integral(target, None, np.zeros(1), np.ones(1), math.log(100), np.array([[0.25], [0.5]]))


def test_estimator_agreement_grid_and_mc():
    t = 3.0
    cfg_exact = stable_cfg(t_schedule=(t,))
    exact = ex.sthe_run(cfg_exact)[0].estimate
    grid = ex.sthe_run(stable_cfg(t_schedule=(t,), estimator=("grid", 30001)))[0].estimate
    n_mc = 40000
    mc_run = ex.sthe_run(stable_cfg(t_schedule=(t,), estimator=("monte-carlo", n_mc), seed=7))[0]
    # indicator variance: p(1-p) with p the hit fraction
    T = 2.0
    p = mc_run.estimate / T
    sigma = T * math.sqrt(max(p * (1 - p), 1e-12) / n_mc)
    assert abs(grid - exact) <= max(3 * sigma, 0.05 * exact)
    assert abs(mc_run.estimate - exact) <= 3 * sigma + 1e-12


def test_determinism_same_seed():
    a = ex.sthe_run(stable_cfg(t_schedule=(2.5, 3.0), estimator=("monte-carlo", 2000), seed=3))
    b = ex.sthe_run(stable_cfg(t_schedule=(2.5, 3.0), estimator=("monte-carlo", 2000), seed=3))
    assert [r.estimate for r in a] == [r.estimate for r in b]


def test_parallel_matches_serial():
    cfg = stable_cfg(t_schedule=(5.0, 6.0, 7.0))
    serial = ex.sthe_run(cfg, jobs=1)
    parallel = ex.sthe_run(cfg, jobs=2)
    assert [r.estimate for r in serial] == [r.estimate for r in parallel]


def test_t_uniformity_band():
    t = 8.0
    vals = []
    for T in (2.0, 4.0, math.exp(2 * t * 0.2)):
        cfg = stable_cfg(target=tg.StableSection(d=2, T=T, eps=0.2), t_schedule=(t,))
        vals.append(ex.sthe_run(cfg)[0].estimate)
    limit = 0.2 / (2 * zeta(2))
    assert all(abs(v - limit) / limit <= 0.01 for v in vals)


def test_l_invariance_bitwise():
    cfg_i = stable_cfg(t_schedule=(9.0,))
    cfg_g = stable_cfg(t_schedule=(9.0,), L=((2.0, 1.0), (1.0, 1.0)))
    assert ex.sthe_run(cfg_i)[0].estimate == ex.sthe_run(cfg_g)[0].estimate


def test_degenerate_flag_far_box():
    # A squeezed strictly between the admissible points at small t
    cfg = stable_cfg(
        target=tg.StableSection(d=2, T=2.0, eps=0.2),
        A_lo=(0.21,),
        A_hi=(0.24,),
        t_schedule=(2.0, 2.5),
    )
    results = ex.sthe_run(cfg)
    report = ex.convergence_report(results)
    assert report.degenerate
    assert all(r.estimate == 0.0 for r in results)


def test_convergence_report_of_one_row():
    results = ex.sthe_run(stable_cfg(t_schedule=(6.0,)))
    report = ex.convergence_report(results, tolerance=0.02)
    assert report.slope is None and report.final_rel_error == results[0].rel_error
    assert report.passed is True and not report.degenerate
    assert ex.convergence_report(results).passed is None
    with pytest.raises(HorolabError, match="at least one result"):
        ex.convergence_report([])


def test_convergence_report_slope():
    results = ex.sthe_run(stable_cfg(t_schedule=(5.0, 6.0, 7.0, 8.0)))
    report = ex.convergence_report(results, tolerance=0.02)
    assert report.passed
    assert report.slope is not None and report.slope < 0
    assert report.final_rel_error <= 0.01


def test_sthe_exact_stable_wrapper():
    # the exact stable integral: the closed form at d = 2, a positive window
    # sum at d = 3, and the enumerated window sum under a general L
    target, lo, hi = tg.StableSection(d=2, T=2.0, eps=0.2), np.array([0.0]), np.array([1.0])
    val = ex.exact_integral(target, None, lo, hi, 6.0)[0]
    direct, _ = ex.exact_window_stable_d2(target, None, 0.0, 1.0, 6.0)
    assert val == direct
    val3 = ex.exact_integral(tg.StableSection(d=3, T=1.0, eps=0.2), None, np.zeros(2), np.ones(2), 2.0)[0]
    assert val3 > 0
    L = ((1.0, 0.0), (0.5, 1.0))
    assert ex.exact_integral(target, L, lo, hi, 5.0)[0] == ex._window_sum_stable_enumerated(target, L, lo, hi, 5.0)[0]


@pytest.mark.parametrize("L, estimator", [
    (((1.0, 0.0), (0.5, 1.0)), "window-sum"),  # general L: the enumerated sum
    (None, "exact-window"),
    (((math.sqrt(2), 0.0), (0.0, 1 / math.sqrt(2))), "exact-window"),  # diag_a2: 2
])
def test_auto_estimator_picks_the_exact_path(L, estimator):
    cfg = stable_cfg(L=L, t_schedule=(5.0,), estimator=("auto",))
    target, lo, hi = cfg.target, np.array([0.0]), np.array([1.0])
    want = ex.estimate_integral(stable_cfg(L=L, t_schedule=(5.0,), estimator=(estimator,)), target, 5.0, 0)
    assert ex.estimate_integral(cfg, target, 5.0, 0) == want
    assert ex.exact_integral(target, L, lo, hi, 5.0) == want


def test_dual_direct_length_consistency():
    # the hit sets of the two predicates have (nearly) equal total length:
    # exact interval unions on both sides at t = 9
    t, T, eps, d = 9.0, 2.0, 0.2, 2
    target = tg.StableSection(d=d, T=T, eps=eps)
    dual_len = ex.exact_integral(target, None, np.zeros(1), np.ones(1), t)[0]
    # direct side: for each slope a' != 0, u = a' x + a_d runs over (0, delta],
    # the offset condition |e^{-dt} a' / u| < eps/2 trims it to u > u_min
    delta = math.exp(-(d - 1) * t) * T ** (-(d - 1) / d)
    intervals = []
    amax = int(eps * math.exp(t) * T ** (-0.5) / 2.0) + 2
    for ap in range(-amax, amax + 1):
        if ap == 0:
            continue
        u_min = 2.0 * math.exp(-d * t) * abs(ap) / eps
        if u_min >= delta:
            continue
        for ad in range(-ap - 1, -ap * 0 + 1) if ap > 0 else range(0, -ap + 2):
            if math.gcd(ap, ad) != 1:
                continue
            # x interval where u in (u_min, delta]
            x1 = (u_min - ad) / ap
            x2 = (delta - ad) / ap
            lo, hi = min(x1, x2), max(x1, x2)
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if hi > lo:
                intervals.append((lo, hi))
    intervals.sort()
    direct_len = 0.0
    cur_lo, cur_hi = -1.0, -1.0
    for lo, hi in intervals:
        if lo > cur_hi:
            direct_len += cur_hi - max(cur_lo, 0.0) if cur_hi > 0 else 0.0
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    direct_len += cur_hi - cur_lo if cur_hi > 0 else 0.0
    assert abs(T * direct_len - T * dual_len) / (T * dual_len) <= 0.02


def test_marklof_total_mass():
    res = ex.marklof_average(2, 500.0)
    assert res.empirical == 1.0 and res.predicted == 1.0


def test_marklof_depth_slab_small_q():
    # brute oracle for the slab count at Q = 40, T' = 2
    from horolab import farey

    q = 40.0
    s1 = math.log(2) / 2
    res = ex.marklof_average(2, q, s1=s1)
    cutoff = q * math.exp(-s1)
    brute = sum(1 for p in farey.enumerate_farey(2, q) if p.alpha_d <= cutoff)
    total = len(farey.enumerate_farey(2, q))
    assert res.n_slab == brute and res.n_total == total


def test_marklof_position_box():
    res = ex.marklof_average(2, 200.0, s1=math.log(2) / 2, A=([0.2], [0.5]))
    assert abs(res.predicted - 0.3 * 0.5) <= 1e-12
    assert abs(res.empirical - res.predicted) / res.predicted <= 0.05


def test_marklof_translated_flavor():
    res = ex.marklof_average(2, 60.0, s1=0.0, A=([0.0], [1.0]), sequence="translated")
    # total-mass observable integrates to vol(A)/d on the big-box normalization
    assert abs(res.predicted - 0.5) <= 1e-12
    assert abs(res.empirical - res.predicted) / res.predicted <= 0.05


def test_marklof_rejects_bad_slab():
    with pytest.raises(ConfigError):
        ex.marklof_average(2, 100.0, s1=1.0, s2=0.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        stable_cfg(A_hi=(0.0,))
    with pytest.raises(ConfigError):
        stable_cfg(T_rule=("growing", 1.5))
    with pytest.raises(ConfigError, match="unknown T rule 'linear'"):  # reported before the estimator
        stable_cfg(T_rule=("linear",), estimator=("bogus",))
    cfg = stable_cfg(L=tuple(map(tuple, np.diag([math.sqrt(2), 1 / math.sqrt(2)]))))
    assert "multiplicity" in cfg.region_warning
    # the warning is derived from L and A, not passed in
    assert stable_cfg().region_warning == ""
    with pytest.raises(TypeError):
        stable_cfg(region_warning="x")


CHART3 = coords.Chart(dim=3, radius=0.4)
VALID_D3 = {
    tg.StableSection: dict(d=3, T=1.0, eps=0.2),
    tg.SphericalSection: dict(d=3, T=3.0, chart=CHART3),
    tg.GrenierBoxStable: dict(d=3, alphas=(1.0, 1.0), gammas=(2.0, 2.0), T=1.0, eps=0.2),
    tg.GrenierBoxSpherical: dict(d=3, alphas=(2.0, 2.0), gammas=(6.0, 6.0), chart=CHART3),
}


@pytest.mark.parametrize("cls, bad, error", [
    (tg.StableSection, dict(T=0.5), HorolabError),
    (tg.StableSection, dict(eps=0.0), HorolabError),
    (tg.StableSection, dict(ytilde=(0.1,)), HorolabError),
    (tg.StableSection, dict(eps=0.5), DisjointnessError),
    (tg.SphericalSection, dict(T=2.0), HorolabError),
    (tg.SphericalSection, dict(chart=coords.Chart(dim=3, radius=2.0)), HorolabError),
    (tg.SphericalSection, dict(chart=coords.Chart(dim=2, radius=0.4)), HorolabError),
    (tg.GrenierBoxStable, dict(alphas=(1.0,)), HorolabError),
    (tg.GrenierBoxStable, dict(gammas=(2.0, 2.0, 2.0)), HorolabError),
    (tg.GrenierBoxStable, dict(alphas=(0.5, 1.0)), HorolabError),
    (tg.GrenierBoxStable, dict(gammas=(2.0, 0.5)), HorolabError),
    (tg.GrenierBoxStable, dict(ktilde=(0.5,)), HorolabError),
    (tg.GrenierBoxStable, dict(T=0.5), HorolabError),
    (tg.GrenierBoxStable, dict(eps=-0.2), HorolabError),
    (tg.GrenierBoxStable, dict(eps=0.0), HorolabError),
    (tg.GrenierBoxStable, dict(ytilde=(0.05,)), HorolabError),
    (tg.GrenierBoxStable, dict(eps=0.5), DisjointnessError),
    (tg.GrenierBoxSpherical, dict(gammas=(6.0,)), HorolabError),
    (tg.GrenierBoxSpherical, dict(gammas=(6.0, 1.0)), HorolabError),
    (tg.GrenierBoxSpherical, dict(ktilde=(0.0, 1.0, 2.0)), HorolabError),
    (tg.GrenierBoxSpherical, dict(chart=coords.Chart(dim=3, radius=2.0)), HorolabError),
    (tg.GrenierBoxSpherical, dict(chart=coords.Chart(dim=2, radius=0.4)), HorolabError),
    (tg.GrenierBoxSpherical, dict(alphas=(1.0, 1.0)), HorolabError),
    (tg.GrenierBoxSpherical, dict(T=2.0), HorolabError),
    (ex.ExperimentConfig, dict(A_lo=(0.0, 0.0)), ConfigError),
    (ex.ExperimentConfig, dict(A_hi=(0.0,)), ConfigError),
    (ex.ExperimentConfig, dict(A_hi=(math.inf,)), ConfigError),
    (ex.ExperimentConfig, dict(T_rule=("growing", 1.5)), ConfigError),
    (ex.ExperimentConfig, dict(T_rule=("linear",)), ConfigError),
    (ex.ExperimentConfig, dict(estimator=("bogus",)), ConfigError),
    (ex.ExperimentConfig, dict(estimator=("grid",)), ConfigError),
    (ex.ExperimentConfig, dict(estimator=("grid", 0)), ConfigError),
    (ex.ExperimentConfig, dict(estimator=("monte-carlo", -3)), ConfigError),
    (ex.ExperimentConfig, dict(estimator=("monte-carlo", 2.5)), ConfigError),
    (ex.ExperimentConfig, dict(T_rule=("growing",)), ConfigError),
    (ex.ExperimentConfig, dict(T_rule=()), ConfigError),
    (ex.ExperimentConfig, dict(estimator=()), ConfigError),
    (ex.ExperimentConfig, dict(L=((1.0, math.inf), (0.0, 1.0))), ConfigError),
    (ex.ExperimentConfig, dict(L=((1.0, 0.0), (0.0,))), ConfigError),
])
def test_constructors_reject_each_bad_field(cls, bad, error):
    # each field is checked by the type that owns it, and raises the
    # HorolabError subclass the CLI turns into exit code 2
    if cls is ex.ExperimentConfig:
        stable_cfg()
        with pytest.raises(HorolabError) as info:
            stable_cfg(**bad)
    else:
        cls(**VALID_D3[cls])
        with pytest.raises(HorolabError) as info:
            cls(**{**VALID_D3[cls], **bad})
    assert type(info.value) is error


def test_csv_format():
    import io

    results = ex.sthe_run(stable_cfg(t_schedule=(5.0, 6.0)))
    buf = io.StringIO()
    ex.write_results_csv(results, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,T,Q,estimate,predicted,rel_error,count,seconds"
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 8
