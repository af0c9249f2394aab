import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_special_orthogonal, random_unimodular
from horolab import coords, experiments, farey, targets
from horolab.algebra import integer_det, zeta
from horolab.errors import DisjointnessError, HorolabError, ResourceLimitError


def test_stable_target_validation():
    with pytest.raises(DisjointnessError):
        targets.StableSection(d=2, T=1.0, eps=1.5)  # budget for d=2 is T
    with pytest.raises(HorolabError):
        targets.StableSection(d=2, T=0.5, eps=0.1)
    t = targets.StableSection(d=3, T=2.0, eps=0.2)
    assert t.ytilde == (0.0, 0.0)


def test_spherical_target_validation():
    ch = coords.Chart(dim=2, radius=0.4)
    with pytest.raises(HorolabError):
        targets.SphericalSection(d=2, T=1.0, chart=ch)  # needs T strictly above 1
    with pytest.raises(HorolabError):
        targets.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=2.0))


# ---------------------------------------------------------------------------
# dual membership
# ---------------------------------------------------------------------------


def test_dual_witness_at_half():
    t = math.log(100)
    w = targets.member_dual(targets.StableSection(d=2, T=1.0, eps=0.2), None, [0.5], t)
    assert w.farey.source == (1, 2)
    assert np.allclose(w.xt, 0.0)
    assert abs(w.s - (t - math.log(2))) <= 1e-12


def test_dual_none_when_denominator_excluded():
    # T large enough pushes the cutoff below 2, and the q = 1 windows miss 1/2
    t = math.log(100)
    w = targets.member_dual(targets.StableSection(d=2, T=2600.0, eps=0.2), None, [0.5], t)
    assert w is None


def test_dual_spherical_at_chart_origin():
    t = math.log(100)
    ch = coords.Chart(dim=2, radius=math.pi / 6)
    w = targets.member_dual(targets.SphericalSection(d=2, T=2.0, chart=ch), None, [0.5], t)
    assert w.farey.source == (1, 2)
    assert np.allclose(w.extra["z"], 0.0) and w.extra["c"] == 1.0


def test_dual_window_geometry_d2():
    # the hit set is a union of intervals of width eps e^{-2t} centered at
    # the admissible points; probe both edges of one window
    t, T, eps = 5.0, 2.0, 0.3
    target = targets.StableSection(d=2, T=T, eps=eps)
    r = 1.0 / 3.0
    half = eps * math.exp(-2 * t) / 2.0
    assert targets.member_dual(target, None, [r], t) is not None
    assert targets.member_dual(target, None, [r + 0.98 * half], t) is not None
    assert targets.member_dual(target, None, [r - 0.98 * half], t) is not None
    assert targets.member_dual(target, None, [r + 1.02 * half], t) is None
    assert targets.member_dual(target, None, [r - 1.02 * half], t) is None
    # a denominator above the cutoff carries no window
    q_cap = math.exp(t) * T ** (-0.5)
    q_big = int(q_cap) + 3
    assert targets.member_dual(target, None, [1.0 / q_big], t) is None


def test_dual_offcenter_box():
    t = 5.0
    target = targets.StableSection(d=2, T=1.0, eps=0.2, ytilde=(0.7,))
    shift = 0.7 * math.exp(-2 * t)
    assert targets.member_dual(target, None, [0.5 - shift], t) is not None
    assert targets.member_dual(target, None, [0.5 + shift], t) is None


def test_dual_witness_unique_on_grid(rng):
    target = targets.StableSection(d=2, T=1.0, eps=0.9)
    for x in rng.uniform(0, 1, size=200):
        targets.member_dual(target, None, [x], 3.0)  # raises on double witness


def test_dual_spherical_unique_chart_point(rng):
    ch = coords.Chart(dim=2, radius=1.2)
    target = targets.SphericalSection(d=2, T=1.5, chart=ch)
    t = 3.0
    idx = farey.farey_index(2, math.exp(t))
    for x in rng.uniform(0, 1, size=300):
        hits = []
        for i in idx.near([x], target.candidate_radius(t), alpha_max=target.alpha_cutoff(t))[:, 1]:
            res = targets._test_candidate(target, None, np.array([x]), t, idx.points[i], float(idx.alpha_d[i]), idx.sources[i])
            if res is not None:
                hits.append(res["z"])
        assert len(hits) <= 1


def test_dual_translated_matches_shifted_lattice():
    # L = diag(sqrt 2, 1/sqrt2): points are p/(2q) with denominators sqrt2 q
    a = math.sqrt(2)
    L = np.diag([a, 1 / a])
    t = 4.0
    target = targets.StableSection(d=2, T=1.0, eps=0.4)
    w = targets.member_dual(target, L, [1.0 / 4.0], t)
    assert w is not None and abs(w.farey.point[0] - 0.25) <= 1e-12
    assert w.farey.source == (1, 2)  # (1,2) maps to alpha = (1/sqrt2, 2 sqrt2)


# ---------------------------------------------------------------------------
# direct membership
# ---------------------------------------------------------------------------


def test_direct_trivial_boundary():
    w = targets.member_direct(targets.StableSection(d=2, T=1.0, eps=0.5), None, [0.0], 0.0)
    assert w.farey.source == (0, 1)
    assert np.allclose(w.xt, 0.0) and abs(w.s) <= 1e-12


def test_direct_none_at_origin_for_positive_t():
    target = targets.StableSection(d=2, T=1.0, eps=0.5)
    assert targets.member_direct(target, None, [0.0], 0.5) is None


def brute_direct(target, x, t):
    d = target.d
    delta = math.exp(-(d - 1) * t) * target.T ** (-(d - 1) / d)
    lo = np.asarray(target.ytilde) - target.eps / 2.0
    hi = np.asarray(target.ytilde) + target.eps / 2.0
    bound = 60
    x = np.asarray(x, dtype=float)
    for a1 in range(-bound, bound + 1):
        for ad in range(-bound, bound + 1):
            if math.gcd(a1, ad) != 1:
                continue
            u = a1 * x[0] + ad
            if not 0 < u <= delta:
                continue
            xt = math.exp(-d * t) * a1 / u
            if lo[0] - 1e-12 <= xt < hi[0]:
                return True
    return False


def test_direct_matches_brute_force(rng):
    target = targets.StableSection(d=2, T=1.0, eps=0.6)
    t = 1.3
    for x in rng.uniform(0, 1, size=60):
        got = targets.member_direct(target, None, [x], t) is not None
        assert got == brute_direct(target, [x], t), x


def test_direct_resource_budget():
    # both slabs count against the one enumeration budget before allocating
    target = targets.StableSection(d=2, T=1.0, eps=0.5)
    with pytest.raises(ResourceLimitError, match="slab"):
        targets.member_direct(target, None, [0.3], 25.0)
    with pytest.raises(ResourceLimitError, match="preimage box"):
        targets.member_direct(target, np.diag([2.0**0.5, 2.0**-0.5]), [0.3], 25.0)


def test_direct_general_translation():
    a = math.sqrt(2)
    L = np.diag([a, 1 / a])
    target = targets.StableSection(d=2, T=1.0, eps=0.5)
    w = targets.member_direct(target, L, [0.0], 0.0)
    assert w is not None


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_measure_stable_example():
    rec = targets.StableSection(d=2, T=2.0, eps=0.2).measure()
    assert abs(rec.value - 0.2 / (2 * zeta(2) * 2)) <= 1e-15
    assert abs(rec.value - 0.0303964) <= 1e-6


def test_measure_scaling_laws():
    for tgt in (
        targets.StableSection(d=2, T=2.0, eps=0.2),
        targets.StableSection(d=3, T=2.0, eps=0.2),
        targets.SphericalSection(d=2, T=2.0, chart=coords.Chart(dim=2, radius=0.5)),
        targets.GrenierBoxStable(d=2, alphas=(1.0,), gammas=(4.0,), T=2.0, eps=0.2),
        targets.GrenierBoxSpherical(d=2, alphas=(1.5,), gammas=(6.0,), chart=coords.Chart(dim=2, radius=0.5), T=3.0),
    ):
        d = tgt.d
        v1 = tgt.measure().value
        v2 = targets.with_level(tgt, 2 * tgt.T).measure().value
        assert abs(v2 / v1 - 2.0 ** (-(d - 1))) <= 1e-12


def test_measure_flowed_box_law():
    # scaling the last coordinate bound by T^{d/(d-1)} divides the measure by T^d
    base = targets.GrenierBoxStable(d=2, alphas=(1.0,), gammas=(4.0,), T=1.0, eps=0.2)
    tt = 1.7
    scaled = targets.GrenierBoxStable(d=2, alphas=(tt**2,), gammas=(4.0 * tt**2,), T=tt**2, eps=0.2)
    v_base = base.measure().value
    v_scaled = scaled.measure().value
    assert abs(v_scaled / v_base - tt ** (-2.0)) <= 1e-12


def test_measure_spherical_quadrature_agreement():
    for radius, T in ((math.pi / 6, 1.2), (0.4, 3.0)):
        tgt = targets.SphericalSection(d=2, T=T, chart=coords.Chart(dim=2, radius=radius))
        rec = tgt.measure()
        quad = targets.spherical_measure_quadrature(tgt.chart, T, 2)
        assert abs(rec.value - quad) <= 1e-9 * rec.value


@pytest.mark.parametrize("T, radius", [(3.0, 0.5), (2.5, 0.5), (2.5, 1.0), (4.0, 1.2), (2.4, 0.05)])
def test_measure_spherical_d3_closed_form_against_quadrature(T, radius):
    tgt = targets.SphericalSection(d=3, T=T, chart=coords.Chart(dim=3, radius=radius))
    rec = tgt.measure()
    quad = targets.spherical_measure_quadrature(tgt.chart, T, 3)
    assert rec.method == "closed"
    assert abs(rec.value - quad) <= 1e-12 * quad


def test_measure_grenier_d3_ratio_only():
    tgt = targets.GrenierBoxStable(d=3, alphas=(1.0, 1.0), gammas=(2.0, 2.0), T=1.0, eps=0.1)
    rec = tgt.measure()
    assert rec.value is None and rec.method == "ratio-only"


def test_grenier_spherical_measure_vs_quadrature():
    # independent quadrature of the modified-bound volume integral, d = 2
    from scipy import integrate

    ch = coords.Chart(dim=2, radius=0.5)
    tgt = targets.GrenierBoxSpherical(d=2, alphas=(1.5,), gammas=(6.0,), chart=ch, T=2.0)
    xmax = math.tan(ch.radius)

    def integrand(xt):
        c2 = 1.0 / (1.0 + xt * xt)
        lo = tgt.alphas[0] * tgt.T / (c2 * tgt.T_minus)
        hi = tgt.gammas[0] * tgt.T / (c2 * tgt.T_minus)
        # y1 = e^{2s}: integrate e^{-2s} ds over the admissible band
        return 0.5 * (1.0 / lo - 1.0 / hi)

    val, _ = integrate.quad(integrand, -xmax, xmax)
    val /= zeta(2)
    rec = tgt.measure()
    assert abs(rec.value - val) <= 1e-9 * val


# ---------------------------------------------------------------------------
# disjointness
# ---------------------------------------------------------------------------


def test_budget_values():
    assert targets.disjointness_budget(2, 5.0) == 5.0
    assert abs(targets.disjointness_budget(3, 1.0) - math.sqrt(3) / 4.0) <= 1e-12
    assert abs(targets.disjointness_budget(3, 4.0) - 1.7320508) <= 1e-6


def test_disjointness_sampler_small():
    rep2 = targets.disjointness_property_sample(2, 500, seed=1)
    assert rep2.ok and rep2.observed_min >= 1.0 - 1e-9
    rep3 = targets.disjointness_property_sample(3, 500, seed=1)
    assert rep3.ok and rep3.observed_min >= (3.0 / 4.0) ** 1.0 - 1e-9


# ---------------------------------------------------------------------------
# coordinate-box targets
# ---------------------------------------------------------------------------


def test_complete_to_unimodular(rng):
    for d in (2, 3, 4):
        for _ in range(50):
            p = rng.integers(-30, 31, size=d)
            g = 0
            for v in p:
                g = math.gcd(g, int(v))
            if g != 1:
                continue
            gamma = targets.complete_to_unimodular(p)
            assert integer_det(gamma) == 1
            assert np.array_equal(gamma[d - 1], p)


@settings(deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda d: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d), min_size=1, max_size=20)))
def test_complete_stack_matches_scalar_completion(vectors):
    # the stacked completion takes the scalar one's steps, so the matrices are equal
    prim = [p for p in vectors if math.gcd(*p) == 1]
    assume(prim)
    stack = targets._complete_stack(np.array(prim))
    for p, gamma in zip(prim, stack):
        assert np.array_equal(gamma, targets.complete_to_unimodular(p))


def test_recover_inner_rotation_round_trip(rng):
    ch = coords.Chart(dim=4, radius=1.0)
    for _ in range(20):
        z = rng.uniform(-0.4, 0.4, size=3)
        ktilde = random_special_orthogonal(rng, 3)
        r = coords.rotation_factor(ktilde, z, ch)
        einv, c, _v, zp = coords.chart_matrix(ch, z)
        kt2, b2 = targets._recover_inner_rotation(r, einv[:3, 3], c, zp, einv[:3, :3])
        assert np.abs(kt2 - ktilde).max() <= 1e-10
        assert np.abs(b2 - coords.reverse_cholesky((einv[:3, 3] @ ktilde.T) / c)).max() <= 1e-10


def test_grenier_stable_box_anchor_d3():
    tgt = targets.GrenierBoxStable(d=3, alphas=(1.0, 1.0), gammas=(3.0, 3.0), T=1.0, eps=0.2)
    t = 1.5
    w = targets.member_dual(tgt, None, [1.0 / 8.0, 4.0 / 8.0], t)
    assert w is not None
    c = w.extra["coords"]
    for k in range(2):
        assert tgt.alphas[k] - 1e-9 <= c.ys[k] <= tgt.gammas[k] + 1e-9


def test_grenier_spherical_box_anchor_d3():
    ch = coords.Chart(dim=3, radius=0.4)
    tgt = targets.GrenierBoxSpherical(d=3, alphas=(2.0, 2.0), gammas=(6.0, 6.0), chart=ch)
    t = 1.5
    w = targets.member_dual(tgt, None, [0.0, 1.0 / 4.0], t)
    assert w is not None and "z" in w.extra
    # far-off point misses
    assert targets.member_dual(tgt, None, [0.123456, 0.654321], t) is None


def test_grenier_kprime_interval_d3():
    tgt_all = targets.GrenierBoxStable(d=3, alphas=(1.0, 1.0), gammas=(3.0, 3.0), T=1.0, eps=0.2, ktilde=None)
    x = [1.0 / 8.0, 4.0 / 8.0]
    w = targets.member_dual(tgt_all, None, x, 1.5)
    ang = targets._kprime_angle(w.extra["coords"].kprime)
    narrow = targets.GrenierBoxStable(
        d=3, alphas=(1.0, 1.0), gammas=(3.0, 3.0), T=1.0, eps=0.2, ktilde=(ang - 0.01, ang + 0.01)
    )
    assert targets.member_dual(narrow, None, x, 1.5) is not None
    away = targets.GrenierBoxStable(
        d=3, alphas=(1.0, 1.0), gammas=(3.0, 3.0), T=1.0, eps=0.2, ktilde=(ang + 0.5, ang + 0.6)
    )
    assert targets.member_dual(away, None, x, 1.5) is None


# ---------------------------------------------------------------------------
# stacked reduction and batched dual membership
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((2, 3)), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_grenier_reduce_stack_matches_single_calls(d, n, seed):
    rng = np.random.default_rng(seed)
    m_h = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    if d == 3:
        m_h[:, :2, :2] = [random_unimodular(rng, 2) for _ in range(n)]
    m_h[:, : d - 1, d - 1] = rng.uniform(-4, 4, size=(n, d - 1))
    s = rng.uniform(-0.5, 1.5, size=n)
    gammas, stacked = coords.grenier_reduce(m_h, s)
    iu = np.triu_indices(d, 1)
    for i in range(n):
        gamma, c = coords.grenier_reduce(m_h[i], s[i])
        assert gamma.dtype == np.int64 and np.array_equal(gammas[i], gamma)
        assert integer_det(gamma) in (1, -1) and np.array_equal(gamma[d - 1], np.eye(d)[d - 1])
        row = stacked.row(i)
        assert np.allclose(row.x, c.x, rtol=1e-12, atol=1e-12) and np.allclose(row.ys, c.ys, rtol=1e-12, atol=0)
        assert np.allclose(row.kprime, c.kprime, rtol=0, atol=1e-12) and abs(row.height - c.height) <= 1e-12 * c.height
        # the fundamental domain: |x_ij| <= 1/2 (x >= 0 for d = 2), inner y_1^2 >= 3/4
        assert np.all(np.abs(c.x[iu]) <= 0.5 + 1e-9)
        if d == 2:
            assert c.x[0, 1] >= 0.0
        else:
            assert c.ys[0] ** 2 >= 0.75 - 1e-9


def membership_target(kind, d, ktilde):
    chart = coords.Chart(dim=d, radius=0.5 if d == 2 else 0.4)
    if kind == "stable":
        return targets.StableSection(d=d, T=1.0, eps=0.2)
    if kind == "spherical":
        return targets.SphericalSection(d=d, T=1.5 if d == 2 else 3.0, chart=chart)
    if kind == "grenier-stable":
        gammas = (4.0,) if d == 2 else (3.0, 3.0)
        return targets.GrenierBoxStable(d=d, alphas=(1.0,) * (d - 1), gammas=gammas, T=1.0, eps=0.2, ktilde=ktilde)
    if d == 2:
        return targets.GrenierBoxSpherical(d=2, alphas=(1.5,), gammas=(6.0,), chart=chart, T=3.0)
    return targets.GrenierBoxSpherical(d=3, alphas=(2.0, 2.0), gammas=(6.0, 6.0), chart=chart, ktilde=ktilde)


KINDS = ("stable", "spherical", "grenier-stable", "grenier-spherical")


def samples_and_pairs(target, L, t, n_near, n_uniform, seed):
    """Samples in A = [1/4, 1/2]^{d-1}, n_near of them in the offset box of
    a random index point, and their (sample, candidate) pairs."""
    d = target.d
    lo, hi = np.full(d - 1, 0.25), np.full(d - 1, 0.5)
    index = experiments._build_index(target, L, lo, hi, t)
    radius = target.candidate_radius(t)
    rng = np.random.default_rng(seed)
    picks = index.points[rng.integers(len(index), size=n_near if len(index) else 0)]
    xs = np.concatenate([picks - rng.uniform(-radius, radius, size=picks.shape), rng.uniform(lo, hi, size=(n_uniform, d - 1))])
    pairs = index.near(xs, radius, alpha_max=target.alpha_cutoff(t))
    return index, xs, pairs[:, 0], pairs[:, 1]


def compare_batched_with_scalar(target, L, t, index, xs, si, ci) -> int:
    """dual_hits and _test_candidate decide the same on every pair, and
    agree on the witness data; returns the accepted count."""
    pos, found = targets.dual_hits(target, L, t, xs, si, ci, index)
    ref = [targets._test_candidate(target, L, xs[i], t, index.points[j], float(index.alpha_d[j]), index.sources[j])
           for i, j in zip(si, ci)]
    assert pos.tolist() == [k for k, r in enumerate(ref) if r is not None]
    for k, p in enumerate(pos):
        r = ref[p]
        assert abs(found["s"][k] - r["s"]) <= 1e-12 * max(1.0, abs(r["s"]))
        assert np.array_equal(found["xt"][k], r["xt"])
        if "coords" in r:
            assert np.allclose(found["coords"][k].ys, r["coords"].ys, rtol=1e-9, atol=0)
        if "c" in r:
            assert abs(found["c"][k] - r["c"]) <= 1e-12
    return pos.size


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(KINDS), st.sampled_from((2, 3)), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.booleans(), st.none() | st.floats(-math.pi, math.pi))
def test_dual_hits_match_scalar_candidate_test(kind, d, frac, seed, translated, ktilde_lo):
    # d = 2 also under a translation L, d = 3 also with a K' angle window
    t = (1.0 + 3.0 * frac) if d == 2 else (0.5 + frac)
    L = np.diag([math.sqrt(2), 1 / math.sqrt(2)]) if (translated and d == 2) else None
    target = membership_target(kind, d, None if ktilde_lo is None else (ktilde_lo, ktilde_lo + 2.0))
    compare_batched_with_scalar(target, L, t, *samples_and_pairs(target, L, t, 4, 4, seed))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", (2, 3))
def test_dual_hits_match_scalar_on_accepted_pairs(kind, d):
    # the property above rarely sees an accepted coordinate-box pair (about
    # 4 in 10^4 at d = 3); here the scalar test checks the samples the
    # batched one accepts among 2000, plus 5 others
    target, t = membership_target(kind, d, None), (3.0 if d == 2 else 1.5)
    index, xs, si, ci = samples_and_pairs(target, None, t, 2000, 0, seed=1)
    pos, _found = targets.dual_hits(target, None, t, xs, si, ci, index)
    keep = np.isin(si, np.union1d(si[pos], np.arange(5)))
    assert compare_batched_with_scalar(target, None, t, index, xs, si[keep], ci[keep]) == pos.size > 0


@pytest.mark.parametrize("d, t, eps", [(2, 5.0, 0.5), (3, 2.5, 0.4)])
def test_dual_and_direct_hit_rates_agree(d, t, eps):
    # member_dual tests the transpose-inverse horosphere point, member_direct
    # the point itself: pointwise they disagree (d = 2, t = 3, eps = 0.5:
    # 16.7% and 14.3% of random x hit, 0.2% hit both).  What they share is
    # the limit: both hit a fraction of A near the target measure.  Bound:
    # four binomial standard deviations at n = 4000.
    target = targets.StableSection(d=d, T=1.0, eps=eps)
    xs = np.random.default_rng(7).uniform(0, 1, size=(4000, d - 1))
    dual, _count = experiments.sampled_integral(target, None, np.zeros(d - 1), np.ones(d - 1), t, xs)
    direct = np.mean([targets.member_direct(target, None, x, t) is not None for x in xs])
    limit = target.measure().value
    sd = math.sqrt(limit * (1 - limit) / xs.shape[0])
    assert abs(dual - limit) <= 4 * sd and abs(direct - limit) <= 4 * sd

