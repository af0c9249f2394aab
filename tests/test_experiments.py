import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from horolab import coords, experiments as ex, farey, targets as tg
from horolab.algebra import zeta
from horolab.errors import ConfigError, DisjointnessError


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


def test_window_sum_unit_cell_matches_enumeration_d3():
    t = 1.8
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    val_cell, n_cell = ex.window_sum_stable(target, None, np.zeros(2), np.ones(2), t)
    val_enum, _ = ex._window_sum_stable_enumerated(target, None, np.zeros(2), np.ones(2), t)
    assert abs(val_cell - val_enum) <= 1e-12 * max(val_cell, 1e-12)


def test_spherical_window_sum_matches_enumeration():
    t = 4.0
    target = tg.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=0.5))
    val_cell, _ = ex.window_sum_spherical(target, None, np.zeros(1), np.ones(1), t)
    # enumeration path triggered by a shifted cell covering the same torus
    val_enum, _ = ex.window_sum_spherical(target, np.array([[2.0, 1.0], [1.0, 1.0]]), np.zeros(1), np.ones(1), t)
    assert abs(val_cell - val_enum) <= 1e-12


def test_circle_box_area_against_quadrature(rng):
    for _ in range(25):
        cx, cy = rng.uniform(-0.5, 1.5, size=2)
        r = rng.uniform(0.05, 0.8)
        got = ex._circle_box_area(cx, cy, r, (0.0, 0.0), (1.0, 1.0))

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


def test_cluster_union_volume():
    centers = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.25]])
    w = 1.0
    got = ex._cluster_union_volume(centers, w, np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    # hand inclusion-exclusion: 3 - (0.5 + 0.5625 + 0.5625) + 0.375
    assert abs(got - 1.75) <= 1e-12


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
        return ex._merge_length(np.stack([los[:, 0], his[:, 0]], axis=1))
    events = np.unique(np.concatenate([los[:, 0], his[:, 0]]))
    total = 0.0
    for x0, x1 in zip(events[:-1], events[1:]):
        mid = 0.5 * (x0 + x1)
        active = (los[:, 0] <= mid) & (his[:, 0] >= mid)
        if np.any(active):
            total += (x1 - x0) * ex._merge_length(np.stack([los[active, 1], his[active, 1]], axis=1))
    return float(total)


# grid values make shared and touching edges common (decimal ones touch only
# up to rounding, 0.9 + 0.1 == 1.0); the range reaches past A = [0, 1]^dim,
# so some boxes are clipped or empty
grid = [-0.25, 0.0, 0.1, 0.125, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1.0, 1.25]
coordinate = st.one_of(st.sampled_from(grid), st.floats(-0.3, 1.3))
radius = st.one_of(st.sampled_from([0.0, 0.1, 0.125, 0.25, 0.3]), st.floats(1e-6, 0.7))


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
    centers, w, sizes, lo, hi = case
    batched = ex._cluster_union_volume(centers, w, lo, hi, sizes=sizes)
    parts = np.split(centers, np.cumsum(sizes)[:-1])
    unions = [ex._cluster_union_volume(p, w, lo, hi) for p in parts]
    assert abs(batched - sum(unions)) <= 1e-12
    assert abs(batched - sum(_sweep_union(p, w, lo, hi) for p in parts)) <= 1e-12
    for part, union in zip(parts, unions):
        volumes = ex._clipped_box_volumes(part, w, lo, hi)
        assert volumes.max() - 1e-12 <= union <= volumes.sum() + 1e-12


@settings(deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate, radius), min_size=1, max_size=40))
def test_disk_areas_match_scalar_loop_bitwise(disks):
    arr = np.array(disks)
    centers, radii = arr[:, :2], arr[:, 2]
    lo, hi = np.zeros(2), np.ones(2)
    areas = ex._disk_box_areas(centers, radii, lo, hi)
    total = 0.0
    for k, (c, r) in enumerate(zip(centers, radii)):
        want = ex._circle_box_area(c[0], c[1], r, lo, hi) if r > 0 else 0.0
        assert areas[k] == want
        total += want
    assert np.cumsum(np.append(0.0, areas))[-1] == total


@given(st.permutations(range(4)))
def test_collision_clusters_ordered_by_smallest_member(perm):
    from horolab import farey

    base = np.array([[0.1, 0.1], [0.1001, 0.1], [0.8, 0.8], [0.8, 0.8001]])
    points = np.empty_like(base)
    points[perm] = base  # base row i becomes point perm[i]
    clusters = farey.collision_clusters(points, 1e-3)
    want = sorted([sorted(perm[:2]), sorted(perm[2:])])
    assert [c.tolist() for c in clusters] == want


def test_d3_window_overlap_below_nominal_budget():
    # two distinct sheets meet below the nominal d = 3 budget C_3 T = 0.433:
    # at t = 1.8, eps = 0.2, T = 1 the detector reports (0,6,31) and (0,7,36),
    # whose centers are 1/1116 apart against w = 0.2 e^{-5.4}, checked exactly
    eps, t = 0.2, 1.8
    target = tg.StableSection(d=3, T=1.0, eps=eps)
    assert eps < tg.disjointness_budget(3, 1.0)
    pair = ex.stable_window_overlap(target, None, (0.0, 0.0), (1.0, 1.0), t)
    assert pair == ((0, 6, 31), (0, 7, 36))
    (a1, a2, qa), (b1, b2, qb) = pair
    # Farey neighbours on the line x_1 = 0: the cross product is +-e_1
    cross = (a2 * qb - qa * b2, qa * b1 - a1 * qb, a1 * b2 - a2 * b1)
    assert cross in ((1, 0, 0), (-1, 0, 0))
    gap = max(abs(Fraction(a1, qa) - Fraction(b1, qb)), abs(Fraction(a2, qa) - Fraction(b2, qb)))
    # gap/w = 0.9922; the float exp is good to ~1e-16 relative, far inside a 0.5% margin
    w = Fraction(eps * math.exp(-3 * t))
    assert gap < Fraction(995, 1000) * w
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
    # stable witnesses at t = log 100; the batched path raises as member_dual does
    index = farey.FareyIndex(2, np.array([[1, 2], [2, 4]]), np.array([[1.0, 2.0], [2.0, 4.0]]))
    monkeypatch.setattr(ex, "_build_index", lambda *args: index)
    target = tg.StableSection(d=2, T=1.0, eps=0.2)
    with pytest.raises(DisjointnessError, match=r"x=\[0.5\]"):
        tg.member_dual(target, None, [0.5], math.log(100), index=index)
    with pytest.raises(DisjointnessError, match=r"x=\[0.5\]"):
        ex.sampled_integral(target, None, np.zeros(1), np.ones(1), math.log(100), np.array([[0.25], [0.5]]))


def test_d3_window_overlap_reports_a_touching_pair(monkeypatch):
    # chain 0 - 2 - 1: one cluster, but windows 0 and 1 do not touch
    w = 1e-3
    sources = np.array([[0, 0, 1], [0, 1, 2], [0, 1, 3]])
    centers = np.array([[0.5, 0.5], [0.5, 0.5 + 1.6 * w], [0.5, 0.5 + 0.8 * w]])
    monkeypatch.setattr(ex, "_stable_window_centers", lambda *args: (sources, centers, w))
    from horolab import farey

    assert [c.tolist() for c in farey.collision_clusters(centers, w)] == [[0, 1, 2]]
    target = tg.StableSection(d=3, T=1.0, eps=0.2)
    pair = ex.stable_window_overlap(target, None, (0.0, 0.0), (1.0, 1.0), 1.0)
    assert pair == ((0, 0, 1), (0, 1, 3))


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


def test_convergence_report_slope():
    results = ex.sthe_run(stable_cfg(t_schedule=(5.0, 6.0, 7.0, 8.0)))
    report = ex.convergence_report(results, tolerance=0.02)
    assert report.passed
    assert report.slope is not None and report.slope < 0
    assert report.final_rel_error <= 0.01


def test_sthe_exact_stable_wrapper():
    val = ex.sthe_exact_stable(2, ([0.0], [1.0]), 0.2, (0.0,), 2.0, 6.0)
    direct, _ = ex.exact_window_stable_d2(tg.StableSection(d=2, T=2.0, eps=0.2), None, 0.0, 1.0, 6.0)
    assert val == direct
    val3 = ex.sthe_exact_stable(3, ([0.0, 0.0], [1.0, 1.0]), 0.2, (0.0, 0.0), 1.0, 2.0)
    assert val3 > 0


def test_dual_direct_length_consistency():
    # the hit sets of the two predicates have (nearly) equal total length:
    # exact interval unions on both sides at t = 9
    t, T, eps, d = 9.0, 2.0, 0.2, 2
    target = tg.StableSection(d=d, T=T, eps=eps)
    dual_len = ex.sthe_exact_stable(d, ([0.0], [1.0]), eps, (0.0,), T, t)
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
    cfg = stable_cfg(L=tuple(map(tuple, np.diag([math.sqrt(2), 1 / math.sqrt(2)]))))
    assert "multiplicity" in cfg.region_warning


def test_csv_format():
    import io

    results = ex.sthe_run(stable_cfg(t_schedule=(5.0, 6.0)))
    buf = io.StringIO()
    ex.write_results_csv(results, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,T,Q,estimate,predicted,rel_error,count,seconds"
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 8
