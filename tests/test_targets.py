import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_special_orthogonal, random_unimodular, shear_products
from horolab import _kernels as K, coords, experiments, farey, targets
from horolab.algebra import BOUNDARY_ATOL, integer_det, zeta
from horolab.errors import DisjointnessError, HorolabError, ResourceLimitError, UnsupportedDimensionError


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
    # every L takes the one lattice walk, which checks its preimage box
    # against the enumeration budget before allocating
    target = targets.StableSection(d=2, T=1.0, eps=0.5)
    for L in (None, np.diag([2.0**0.5, 2.0**-0.5])):
        with pytest.raises(ResourceLimitError, match="preimage box"):
            targets.member_direct(target, L, [0.3], 25.0)


def test_direct_general_translation():
    a = math.sqrt(2)
    L = np.diag([a, 1 / a])
    target = targets.StableSection(d=2, T=1.0, eps=0.5)
    w = targets.member_direct(target, L, [0.0], 0.0)
    assert w is not None


def _direct_box_oracle(target, L, x, t):
    """The former general-L direct test: every primitive n in the integer
    box around the preimage of a cube of side about 2 bound (1 + |x|),
    through K.primitive_box, then the same slab test and witness."""
    d = target.d
    x = np.atleast_1d(np.asarray(x, dtype=float))
    delta = math.exp(-(d - 1) * t) * target.T ** (-(d - 1) / d)
    sup_b = float(np.abs(np.asarray(target.ytilde)).max() + target.eps / 2.0)
    bound = int(math.ceil(sup_b * math.exp(t) * target.T ** (-(d - 1) / d) * (1.0 + float(np.abs(x).max())))) + 2
    Lf = np.eye(d) if L is None else np.asarray(L, dtype=float)
    span = bound * (1.0 + float(np.abs(x).max())) + abs(delta) + 2
    corners = np.array(list(itertools.product(*[(-span, span)] * d))) @ np.linalg.inv(Lf)
    sources = K.primitive_box(np.floor(corners.min(axis=0)) - 1, np.ceil(corners.max(axis=0)) + 1)
    a = sources.astype(float) @ Lf
    u = a[:, : d - 1] @ x + a[:, d - 1]
    ok = (u > 0) & (u <= delta + 1e-15)
    return targets._slab_witness(target, t, sources[ok], a[ok, : d - 1], u[ok])


@st.composite
def direct_cases(draw):
    """(target, L, x, t): a stable box at d = 2 or 3 below its disjointness
    budget, the identity (None) or a shear product, x in [-0.5, 1.5]^{d-1}
    and t up to 3 (d = 2) or 1.5 (d = 3), where the box oracle stays small."""
    d = draw(st.sampled_from([2, 3]))
    T = draw(st.floats(1.0, 2.0))
    eps = draw(st.floats(0.5, 0.95)) * targets.disjointness_budget(d, T)
    ytilde = tuple(draw(st.floats(-0.1, 0.1)) for _ in range(d - 1))
    L = draw(st.one_of(st.none(), shear_products(d, shear=0.7, stretch=1.5)))
    x = np.array([draw(st.floats(-0.5, 1.5, allow_subnormal=False)) for _ in range(d - 1)])
    return targets.StableSection(d=d, T=T, eps=eps, ytilde=ytilde), L, x, draw(st.floats(0.0, 3.0 if d == 2 else 1.5))


# a general L at d = 2 and 3 with a witness at the x and t given
DIRECT_L2 = np.array([[1.0, 0.0], [0.6, 1.0]]) @ np.diag([1.3, 1 / 1.3])
DIRECT_L3 = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.0], [-0.3, 0.5, 1.0]])


@settings(deadline=None, max_examples=80)
@given(direct_cases())
@example((targets.StableSection(d=2, T=1.5, eps=0.9 * targets.disjointness_budget(2, 1.5), ytilde=(0.05,)), DIRECT_L2, np.array([0.64]), 2.68))
@example((targets.StableSection(d=3, T=1.2, eps=0.9 * targets.disjointness_budget(3, 1.2)), DIRECT_L3, np.array([0.77, 1.38]), 1.14))
@example((targets.StableSection(d=3, T=1.0, eps=0.2), np.eye(3), np.array([0.3, 0.7]), 1.2))
def test_direct_walk_gives_the_box_enumeration_witness(case):
    # the one row walk gives the witness the whole-box enumeration gives,
    # the same source and the same float bits, for the identity and general L
    target, L, x, t = case
    assert targets.member_direct(target, L, x, t) == _direct_box_oracle(target, L, x, t)


def _brute_direct_d2(target, L, x, t):
    """The first primitive n = (n_1, n_2), lexicographic, with
    u = n L (x, 1) in (0, delta] and the offset in the stable box: a Python
    loop over n_1 and the n_2 next to the slab, decided in exact rationals
    of the floats L, x, delta and e^{-2t}."""
    delta = math.exp(-t) * target.T**-0.5
    lo, hi = target.ytilde[0] - target.eps / 2.0, target.ytilde[0] + target.eps / 2.0
    Lq = [[Fraction(v) for v in row] for row in np.asarray(L, dtype=float).tolist()]
    xq, dq, scale = Fraction(float(x)), Fraction(delta) + Fraction(1e-15), Fraction(math.exp(-2.0 * t))
    c = [Lq[0][0] * xq + Lq[0][1], Lq[1][0] * xq + Lq[1][1]]  # u = n . c
    cf = [float(v) for v in c]
    # a witness has |a_1| = |xt| u e^{2t} <= max(|lo|, |hi|) delta e^{2t}, and
    # n_1 = (a_1 c_2 - u L_21) / (L_11 c_2 - L_21 c_1); one more on each side
    a_max = max(abs(lo), abs(hi)) * float(dq / scale)
    reach = (a_max * abs(cf[1]) + delta * abs(float(Lq[1][0]))) / abs(float(Lq[0][0] * c[1] - Lq[1][0] * c[0])) + 1
    for n1 in range(-math.ceil(reach), math.ceil(reach) + 1):
        ends = sorted((-n1 * cf[0] / cf[1], (delta - n1 * cf[0]) / cf[1]))
        for n2 in range(math.floor(ends[0]) - 1, math.ceil(ends[1]) + 2):
            if abs(n1 * cf[0] + n2 * cf[1] - delta / 2) > delta or math.gcd(n1, n2) != 1:
                continue  # far from the slab in floats
            u = n1 * c[0] + n2 * c[1]
            xt = scale * (n1 * Lq[0][0] + n2 * Lq[1][0]) / u if u else None
            if 0 < u <= dq and lo - BOUNDARY_ATOL <= xt < hi:
                return n1, n2
    return None


def test_direct_general_L_deep_in_the_flow_matches_a_brute_force_slab():
    # at t = 10 the whole-box enumeration asked for over 4e8 points and was
    # refused; the walk visits about 1e4 rows and agrees with a brute force
    target = targets.StableSection(d=2, T=1.0, eps=0.5)
    L = np.array([[2.0**0.5, 0.0], [0.3, 2.0**-0.5]])
    hits = 0
    for x in np.linspace(0.05, 0.95, 7):
        w = targets.member_direct(target, L, [x], 10.0)
        want = _brute_direct_d2(target, L, x, 10.0)
        assert (w and w.farey.source) == want, x
        hits += want is not None
    assert hits > 0


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
        assert set(found) == set(r)  # "s", "xt" and the witness keys of the target kind
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


def unipotent(d):
    """The unipotent L whose last row is (sqrt 2 - 1, sqrt 3 - 1, 1), cut to d."""
    L = np.eye(d)
    L[d - 1, : d - 1] = [math.sqrt(2) - 1, math.sqrt(3) - 1][: d - 1]
    return L


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(KINDS), st.sampled_from((2, 3)), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.booleans())
def test_member_dual_takes_its_candidates_from_near(kind, d, frac, seed, translated):
    # member_dual with no index, member_dual given the sampled estimator's
    # index, and dual_hits over that index's near pairs name the same witness
    t = (1.0 + 3.0 * frac) if d == 2 else (0.5 + frac)
    L = unipotent(d) if translated else None
    target = membership_target(kind, d, None)
    index, xs, _si, _ci = samples_and_pairs(target, L, t, 4, 4, seed)
    xs = np.clip(xs, 0.25, 0.5)  # in A, whose samples' candidates the index holds
    pairs = index.near(xs, target.candidate_radius(t), alpha_max=target.alpha_cutoff(t))
    pos, _found = targets.dual_hits(target, L, t, xs, pairs[:, 0], pairs[:, 1], index)
    for i, x in enumerate(xs):
        hits = pairs[pos, 1][pairs[pos, 0] == i]
        want = index.record(int(hits[np.argmin(index.alpha_d[hits])])).source if hits.size else None
        for witness in (targets.member_dual(target, L, x, t), targets.member_dual(target, L, x, t, index=index)):
            assert (witness.farey.source if witness else None) == want


@pytest.mark.parametrize("kind", ("grenier-stable", "grenier-spherical"))
def test_dual_hits_refuse_coordinate_boxes_beyond_d3(kind):
    # the source test refuses d = 4 even when no pair reaches it
    d, t = 4, 0.3
    chart = coords.Chart(dim=d, radius=0.4)
    if kind == "grenier-stable":
        target = targets.GrenierBoxStable(d=d, alphas=(1.0,) * 3, gammas=(3.0,) * 3, T=1.0, eps=0.2)
    else:
        target = targets.GrenierBoxSpherical(d=d, alphas=(2.0,) * 3, gammas=(6.0,) * 3, chart=chart)
    index, xs, si, ci = samples_and_pairs(target, None, t, 4, 0, seed=0)
    assert ci.size > 0
    for k in (ci.size, 0):
        with pytest.raises(UnsupportedDimensionError):
            targets.dual_hits(target, None, t, xs, si[:k], ci[:k], index)


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

