"""Equidistribution experiment drivers.

Evaluates T^{d-1} * integral over A of the target indicator along the
translated horosphere at flow time t, against the analytic limit.  The
default estimators are window sums: each translated-Farey point below the
denominator cutoff carries a window in parameter space whose overlap with A
is computed in closed form, so the only error against the t -> infinity
limit is the lattice-count fluctuation itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels as K
from . import farey as fy
from . import targets as tg
from .algebra import zeta
from .errors import ConfigError, DisjointnessError, HorolabError


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

T_RULES = ("constant", "growing")
EXACT_ESTIMATORS = ("auto", "exact-window", "window-sum")
SAMPLED_ESTIMATORS = ("grid", "monte-carlo")  # these take a sample count n >= 1


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    target: object
    A_lo: tuple
    A_hi: tuple
    t_schedule: tuple
    L: Optional[tuple] = None  # row tuples; None = identity
    T_rule: tuple = ("constant",)
    estimator: tuple = ("auto",)
    seed: int = 0
    tolerance: Optional[float] = None
    region_warning: str = field(init=False, default="", compare=False)

    def __post_init__(self):
        if len(self.A_lo) != self.d - 1 or len(self.A_hi) != self.d - 1:
            raise ConfigError("A bounds must have length d-1")
        if any(h <= l for l, h in zip(self.A_lo, self.A_hi)):
            raise ConfigError("A must have positive volume")
        if not all(np.isfinite(self.A_lo)) or not all(np.isfinite(self.A_hi)):
            raise ConfigError("A must be bounded")
        rule = self.T_rule[0] if self.T_rule else None
        if rule not in T_RULES:
            raise ConfigError(f"unknown T rule {rule!r}")
        if rule == "growing" and not (len(self.T_rule) == 2 and 0 < self.T_rule[1] < 1):
            raise ConfigError("growing rule needs 0 < eta' < 1")
        kind = self.estimator[0] if self.estimator else None
        if kind not in EXACT_ESTIMATORS + SAMPLED_ESTIMATORS:
            raise ConfigError(f"unknown estimator {kind!r}")
        if kind in SAMPLED_ESTIMATORS:
            n = self.estimator[1] if len(self.estimator) > 1 else None
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ConfigError(f"the {kind} estimator needs a sample count n >= 1, got {n!r}")
        if self.L is not None:
            L = np.array(self.L, dtype=object)  # a ragged L gets a wrong shape, not a numpy error
            if L.shape != (self.d, self.d) or not np.all(np.isfinite(L.astype(float))):
                raise ConfigError(f"L must be a finite {self.d} x {self.d} matrix, got {self.L!r}")
            L = self.matrix_L()
            if not _unimodular(L):
                raise ConfigError(f"L must have |det L| = 1, got det L = {np.linalg.det(L):.15g}")
            region = fy.duplicate_region(L)
            if region.kind == "torus":
                widths = np.asarray(self.A_hi) - np.asarray(self.A_lo)
                periods = np.abs(np.asarray(region.period_basis, dtype=float)).sum(axis=0)
                if np.any(widths > periods + 1e-9):
                    object.__setattr__(
                        self,
                        "region_warning",
                        "A exceeds one duplicate-free cell; the integral counts orbit points with multiplicity",
                    )

    def matrix_L(self) -> Optional[np.ndarray]:
        return None if self.L is None else np.asarray(self.L, dtype=float)

    def level_at(self, t: float) -> float:
        base = self.target.T
        if self.T_rule[0] == "constant":
            return base
        return max(base, math.exp(self.d * t * self.T_rule[1]))


@dataclass(frozen=True)
class ExperimentResult:
    t: float
    T: float
    Q: float
    estimate: float
    predicted: Optional[float]
    abs_error: Optional[float]
    rel_error: Optional[float]
    farey_count_used: int
    wall_time: float
    degenerate: bool = False


def box_volume(lo, hi) -> float:
    return float(np.prod(np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)))


# ---------------------------------------------------------------------------
# lattice classification
# ---------------------------------------------------------------------------


def lattice_kind(L) -> tuple:
    """(kind, scale): 'lattice' covers identity and integer unimodular L
    (same primitive point set); 'diag' carries the top-left entry."""
    if L is None:
        return ("lattice", 1.0)
    Lf = np.asarray(L, dtype=float)
    d = Lf.shape[0]
    if np.allclose(Lf, np.round(Lf), atol=1e-12) and _unimodular(Lf):
        return ("lattice", 1.0)
    if d == 2 and abs(Lf[0, 1]) < 1e-15 and abs(Lf[1, 0]) < 1e-15 and abs(Lf[0, 0] * Lf[1, 1] - 1.0) < 1e-12:
        return ("diag", float(Lf[0, 0]))
    return ("general", 0.0)


def _unimodular(Lf: np.ndarray) -> bool:
    return abs(abs(np.linalg.det(Lf)) - 1.0) < 1e-9


def _is_unit_cell(lo, hi) -> bool:
    return np.allclose(lo, 0.0, atol=1e-15) and np.allclose(hi, 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# stable-box window estimators
# ---------------------------------------------------------------------------


def _strip_points(s_lo: float, s_hi: float, scale: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced p/q, 1 <= q <= m, with p/(scale*q) in the strip (s_lo, s_hi]
    as floats decide it, floor(fl(fl(q*scale)*s_lo)) < p <= floor(fl(fl(q*scale)*s_hi)),
    as int64 columns (p, q) sorted by q, then p.

    Each float product is within two roundings of q*scale*s, so every such
    p/q lies in the exact bounds scale*s widened by fy.rounding_slack, and a
    Farey walk lists the members of F_m there, about 0.3 scale w m^2 + 2 for
    a strip of width w; the float test keeps the ones it admits.
    """
    b_lo, b_hi = (Fraction(scale) * Fraction(s) for s in (s_lo, s_hi))
    p, q = fy.farey_between(b_lo - fy.rounding_slack(b_lo), b_hi + fy.rounding_slack(b_hi), m)
    f = q * scale
    keep = (np.floor(f * s_lo) < p) & (p <= np.floor(f * s_hi))
    p, q = p[keep], q[keep]
    order = np.lexsort((p, q))
    return p[order], q[order]


def exact_window_stable_d2(target: tg.StableSection, L, lo: float, hi: float, t: float) -> tuple[float, int]:
    """Exact integral of the stable-target indicator over [lo, hi] for d = 2.

    Windows of width eps e^{-2t} sit at the translated-Farey points with
    denominators below Q T^{-1/2}; interior windows are counted by a Moebius
    block sum over floor sums at the quotients (fy.count_farey_in_interval),
    boundary-straddling ones are listed by a Farey walk over each edge strip
    and clipped.  The denominator bound is checked against
    ENUM_BUDGET before any array is allocated (count_farey_in_interval, or
    _stable_raw_sum for a window narrower than one window width).
    """
    kind, a = lattice_kind(L)
    if kind == "general":
        raise ConfigError("closed-form window estimator needs identity/integer or diagonal L")
    q_cap = target.denominator_cap(t)
    scale = a * a
    m = int(math.floor(q_cap / a + 1e-9))
    if m < 1:
        return 0.0, 0
    w, c_off, _margin = _stable_window_shape(target, t)
    c_off = float(c_off[0])
    if hi - lo <= w:
        return _window_sum_stable_enumerated(target, L, np.array([lo]), np.array([hi]), t)
    u = lo + c_off + w / 2.0
    v = hi + c_off - w / 2.0
    n_mid = fy.count_farey_in_interval(m, u, v, scale=scale)
    # the edge strips (lo - w/2, u] and (v, hi + w/2], shifted by c_off, hold
    # the windows that straddle an end of [lo, hi]
    r = []
    for s_lo, s_hi in ((lo + c_off - w / 2.0, u), (v, hi + c_off + w / 2.0)):
        p, q = _strip_points(s_lo, s_hi, scale, m)
        r.append(p / (scale * q))
    r = np.concatenate(r)
    parts = _clipped_sides(r - c_off, w, lo, hi)
    # cumsum adds strictly left to right, in (strip, q, p) order, from w * n_mid
    total = np.cumsum(np.concatenate(([w * n_mid], parts)))[-1]
    return float(total), n_mid + int(parts.size)


def _stable_window_shape(target: tg.StableSection, t: float) -> tuple[float, np.ndarray, float]:
    """Window width w, center offset c_off and the margin w/2 + |c_off| by
    which a box must grow to hold every window that meets it."""
    d = target.d
    w = target.eps * math.exp(-d * t)
    c_off = np.asarray(target.ytilde, dtype=float) * math.exp(-d * t)
    return w, c_off, w / 2.0 + float(np.abs(c_off).max()) + 1e-15


def _stable_window_centers(target: tg.StableSection, L, lo: np.ndarray, hi: np.ndarray, t: float):
    """Sources, centers alpha' / alpha_d - c_off and width w of the windows
    that can meet [lo, hi], from fy.sequence_arrays over the box grown by
    the window margin."""
    d = target.d
    w, c_off, margin = _stable_window_shape(target, t)
    sources, alpha = fy.sequence_arrays(d, target.denominator_cap(t), L, (lo - margin, hi + margin))
    centers = alpha[:, : d - 1] / alpha[:, d - 1 :]
    centers -= c_off
    return sources, centers, w


def _clipped_sides(centers: np.ndarray, w: float, lo: float, hi: float, top: np.ndarray | None = None) -> np.ndarray:
    """Side of each interval of width w at the one-axis centers, clipped to
    [lo, hi]: min(c + w/2, hi) - max(c - w/2, lo), or 0 when negative.
    With top, the common part of intervals centered from centers to top:
    min(top + w/2, hi) - max(centers - w/2, lo)."""
    side = (centers if top is None else top) + w / 2.0
    np.minimum(side, hi, out=side)
    low = centers - w / 2.0
    np.maximum(low, lo, out=low)
    side -= low
    return np.clip(side, 0.0, None, out=side)


def _clipped_box_volumes(centers: np.ndarray, w: float, lo: np.ndarray, hi: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
    """Volume of each box of width w at the centers, clipped to [lo, hi]:
    the product of the clipped sides, axis by axis, for one or two sides
    the same bits as np.prod along the rows.  With top, rows like the
    centers', the common box of boxes centered from centers to top."""
    top = centers if top is None else top
    vol = _clipped_sides(centers[:, 0], w, lo[0], hi[0], top[:, 0])
    for a in range(1, centers.shape[1]):
        vol *= _clipped_sides(centers[:, a], w, lo[a], hi[a], top[:, a])
    return vol


def _stable_raw_sum(target: tg.StableSection, lo: np.ndarray, hi: np.ndarray, t: float) -> tuple[float, int]:
    """Summed clipped volume of the identity-L windows that can meet
    [lo, hi], and their number, with no per-window array.

    A window's volume is the product of its clipped sides, and each side
    depends on one p_i / q (_clipped_sides of p_i / q - c_off_i, the floats
    of _clipped_box_volumes on the window's center), so the sum over the
    primitive points of each denominator is a Moebius sum of per-axis side
    sums (K.farey_mobius_sums over the box grown by the window margin).
    """
    w, c_off, margin = _stable_window_shape(target, t)
    qmax = math.floor(target.denominator_cap(t))
    fy.check_budget(qmax, "denominator bound")  # however narrow the box, every q <= qmax is walked

    def sides(q, p):
        return [_clipped_sides(pi / qi - c, w, a, b) for qi, pi, c, a, b in zip(q, p, c_off, lo, hi)]

    return K.farey_mobius_sums(qmax, lo - margin, hi + margin, sides)


def _cluster_union_volume(centers: np.ndarray, w: float, lo: np.ndarray, hi: np.ndarray, *, pairs, raw: float | None = None) -> float:
    """Exact measure of the union of the boxes of width w at the centers,
    clipped to [lo, hi], in any dimension.  ``pairs`` holds the rows (u, v)
    of every two boxes that overlap, each pair once, either way round.
    ``raw``, when given, is the caller's float sum of their clipped volumes
    (_clipped_box_volumes(centers, w, lo, hi).sum()), the union's first
    term, which is then not computed again.

    Boxes have Helly number 2: some of them share a point exactly when each
    two of them overlap, that is when they form a clique of the pair graph,
    and what they share is again a box, from max(c) - w/2 to min(c) + w/2
    on every axis.  So inclusion-exclusion over the cliques is exact: the
    clipped volumes summed, then (-1)^{k+1} times the summed clipped volume
    of the common boxes of the k-cliques, k = 2, 3, ...  The k-sets are
    grown from the pairs, members ascending, each by every later neighbour
    of its largest member.  One that is not a clique has an empty common
    box, and one whose common box misses A has no superset that meets it,
    so keeping only the sets of positive clipped volume keeps exactly the
    cliques that count, each once.
    """
    n = centers.shape[0]
    u, v = pairs
    key = np.minimum(u, v)
    key *= n
    key += np.maximum(u, v)
    key.sort()
    first, later = np.divmod(key, n)
    del key
    # row a's later neighbours are later[starts[a] : starts[a + 1]], ascending
    starts = np.concatenate(([0], np.cumsum(np.bincount(first, minlength=n))))
    union = float(_clipped_box_volumes(centers, w, lo, hi).sum()) if raw is None else raw
    last = later  # the largest member of each listed set
    # each set's common box, from bottom - w/2 to top + w/2: the max and min of its centers
    # (take gathers rows several times faster than fancy indexing does)
    top = centers.take(later, axis=0)
    at_first = centers.take(first, axis=0)
    bottom = np.maximum(at_first, top)
    np.minimum(at_first, top, out=top)
    del first, at_first
    sign = -1.0
    while last.size:
        vol = _clipped_box_volumes(bottom, w, lo, hi, top=top)
        union += sign * float(vol.sum())
        # only a set that meets A and whose largest member has later neighbours
        # grows: keep those first, so the next level is built from fewer
        grow = np.flatnonzero((vol > 0) & (starts[last + 1] > starts[last]))
        del vol
        bottom, top, last = bottom.take(grow, axis=0), top.take(grow, axis=0), last[grow]
        n_next = starts[last + 1] - starts[last]
        fy.check_budget(int(n_next.sum()), "clique sets")  # c coincident boxes list 2^c - c - 1 sets
        grown = np.repeat(np.arange(last.size), n_next)
        last = later[np.repeat(starts[last], n_next) + fy._ramp(n_next)]
        at_last = centers.take(last, axis=0)
        bottom = np.maximum(bottom.take(grown, axis=0), at_last)
        top = np.minimum(top.take(grown, axis=0), at_last, out=at_last)
        sign = -sign
    return union


def _coverage_union(los: np.ndarray, his: np.ndarray) -> float:
    """Length of the union of the intervals [los, his]; one with his <= los
    is empty.

    A stable argsort ranks the 2k edges, a lower edge first at equal values
    so that touching intervals merge.  Each nonempty interval writes +1 at
    its lower rank and -1 at its upper one, a cumsum gives the cover count
    between edges, and each run of positive cover adds its length, left to
    right from 0.0 (cumsum adds strictly in order)."""
    k = los.size
    values = np.concatenate([los, his])
    order = np.argsort(values, kind="stable")
    edges = values[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(2 * k)
    live = np.flatnonzero(rank[k:] > rank[:k])
    cover = np.zeros(2 * k, np.min_scalar_type(-k - 1))
    cover[rank[live]] = 1
    cover[rank[k + live]] = -1
    np.cumsum(cover, dtype=cover.dtype, out=cover)
    # the count is 0 after the last edge, so its flips pair up as (start, end)
    runs = edges[np.flatnonzero(np.diff(cover > 0, prepend=False))]
    return float(np.cumsum(np.concatenate(([0.0], runs[1::2] - runs[::2])))[-1])


def _window_sum_stable_enumerated(target: tg.StableSection, L, lo: np.ndarray, hi: np.ndarray, t: float) -> tuple[float, int]:
    """Exact integral: the measure of the union of the windows clipped to A.

    For identity L, in any d, the predicted vol(box) Q^d / (d zeta(d))
    windows of the box A plus the margin of _stable_window_centers are
    checked against ENUM_BUDGET before any work, and the clipped volumes are
    summed per denominator by Moebius inversion (_stable_raw_sum), with no
    point, center or volume array; the count is checked against the budget
    too.  The overlapping window pairs come from one integer search over
    the box (farey.farey_window_pairs), ranked in the kernel's row order
    (farey.pair_graph), and centers are formed for their integer ends only;
    the sum adds the union of those windows less their own clipped volumes,
    summed once and passed to the union as its first term.
    A general L takes all centers from _stable_window_centers, one
    fy.sequence_arrays enumeration, searches them with
    farey.collision_pairs, and the sum is the union of all their windows.
    Either way _cluster_union_volume measures the union from the pairs, by
    inclusion-exclusion over the cliques, in any dimension.

    For d = 2 below the disjointness budget collisions cannot happen (a
    Farey-neighbor gap argument), so any detected pair is an internal error.
    For d >= 3 close window pairs are a real phenomenon at finite t even for
    small widths, so the union is computed instead.
    """
    d = target.d
    w, c_off, margin = _stable_window_shape(target, t)
    if L is not None:
        sources, centers, _w = _stable_window_centers(target, L, lo, hi, t)
        count = int(sources.shape[0])
        del sources  # only the count is needed; free it before the collision search
        u, v = fy.collision_pairs(centers, w)
        total, raw = 0.0, None  # the union below measures every window
    else:
        q_cap = target.denominator_cap(t)
        predicted = box_volume(lo - margin, hi + margin) * q_cap**d / (d * zeta(d))
        fy.check_budget(predicted, "predicted window enumeration")
        total, count = _stable_raw_sum(target, lo, hi, t)
        fy.check_budget(count, "window enumeration")
        nodes, u, v = fy.pair_graph(*fy.farey_window_pairs(math.floor(q_cap), lo - margin, hi + margin, w))
        centers = np.empty((nodes.shape[0], d - 1))
        for a in range(d - 1):  # column by column: a broadcast divide of (n, 2) by (n, 1) is slow
            np.divide(nodes[:, a], nodes[:, d - 1], out=centers[:, a])
        del nodes
        centers -= c_off
        raw = float(_clipped_box_volumes(centers, w, lo, hi).sum())
    if u.size and d == 2:
        raise DisjointnessError("stable windows overlap below the d=2 budget; this cannot happen")
    union = _cluster_union_volume(centers, w, lo, hi, pairs=(u, v), raw=raw)
    return (union if raw is None else total + (union - raw)), count


# ---------------------------------------------------------------------------
# spherical window estimators
# ---------------------------------------------------------------------------


def _spherical_radii(alpha_d: np.ndarray, q_cap: float, chart_radius: float, d: int, t: float) -> np.ndarray:
    """Window radius e^{-dt} tan(theta_max) in parameter space at each
    alpha_d, elementwise: the callers pass each distinct alpha_d of a run
    once and repeat its radius over the points that share it."""
    u = np.clip(alpha_d / q_cap, 0.0, 1.0)
    theta = np.minimum(np.arccos(u), chart_radius)
    return math.exp(-d * t) * np.tan(theta)


def window_sum_spherical(target: tg.SphericalSection, L, lo: np.ndarray, hi: np.ndarray, t: float) -> tuple[float, int]:
    """Integral of the spherical-target indicator: per-point windows whose
    radius couples the denominator to the chart through the cosine cutoff.

    d = 2 windows are merged exactly when they touch.  For d = 3 each disk
    is clipped to A exactly, but colliding disks (possible at finite t) are
    corrected only pairwise, by the lens area, and only when both sit
    inside A; triple overlaps are ignored.  That is not exact: at T = 3,
    radius 0.5, t = 2.6 on the unit square the sum is about 0.38% high.
    The lenses come from _spherical_windows: their candidate pairs from the
    exact integer search for identity L, from the float grid search on the
    centers for any other L.
    """
    d = target.d
    if d not in (2, 3):
        raise ConfigError("spherical window sums implemented for d in {2, 3}")
    kind, _a = lattice_kind(L)
    q_cap = target.denominator_cap(t)
    # with T at least 2 sin(radius), neighboring-denominator gaps dominate
    # the window radii and the per-denominator closed sum is exact
    if _is_unit_cell(lo, hi) and kind == "lattice" and d == 2 and target.T >= 2.0 * math.sin(target.chart.radius):
        qmax = int(math.floor(q_cap - 1e-12))
        if qmax < 1:
            return 0.0, 0
        fy.check_budget(qmax, "denominator bound")
        counts = K.phi_sieve(qmax)[1:].astype(float)
        radii = _spherical_radii(np.arange(1, qmax + 1, dtype=float), q_cap, target.chart.radius, d, t)
        return float(np.dot(counts, 2.0 * radii)), int(counts.sum())
    centers, radii, lenses = _spherical_windows(target, L, lo, hi, t)
    if centers.shape[0] == 0:
        return 0.0, 0
    if d == 2:
        los, his = np.maximum(centers - radii[:, None], lo), np.minimum(centers + radii[:, None], hi)
        return _coverage_union(los[:, 0], his[:, 0]), int(centers.shape[0])
    return _disk_window_sum(centers, radii, lo, hi, lenses), int(centers.shape[0])


def _spherical_windows(target: tg.SphericalSection, L, lo: np.ndarray, hi: np.ndarray, t: float):
    """Centers and radii of the windows that can reach the box: the points
    with alpha_d below the cutoff whose projection lies within the largest
    radius of it, and for d = 3 the lenses of _inside_lenses (None for
    d = 2).  Identity L takes the candidate pairs from the exact integer
    search (farey.farey_window_pairs) up to the largest integer below the
    cutoff, on the largest diameter; farey.pair_graph ranks their ends in
    the rows' (q, p) order, and the lenses are measured on the end disks
    only.  Any other L searches the float centers on the diameters
    (farey.collision_pairs).

    Identity L lists q ascending, so its rows with q < q_cap are a prefix,
    taken as a slice (any other L keeps its rows by a mask)."""
    d = target.d
    q_cap = target.denominator_cap(t)
    margin = target.candidate_radius(t)
    box = (lo - margin, hi + margin)
    alpha = fy.sequence_arrays(d, q_cap, L, box)[1]
    if L is None:
        alpha = alpha[: alpha[:, d - 1].searchsorted(q_cap)]
    else:
        alpha = alpha.compress(alpha[:, d - 1] < q_cap, axis=0)
    centers, radii = _spherical_disks(alpha, q_cap, target.chart.radius, d, t)
    if d == 2 or radii.size == 0:
        return centers, radii, None
    if L is not None:
        return centers, radii, _inside_lenses(centers, radii, lo, hi, pairs=fy.collision_pairs(centers, 2.0 * radii))
    nodes, u, v = fy.pair_graph(*fy.farey_window_pairs(math.ceil(q_cap) - 1, *box, 2.0 * float(radii.max())))
    return centers, radii, _inside_lenses(*_spherical_disks(nodes, q_cap, target.chart.radius, d, t), lo, hi, pairs=(u, v))


def _spherical_disks(alpha: np.ndarray, q_cap: float, chart_radius: float, d: int, t: float):
    """Centers alpha' / alpha_d and radii of the windows at the rows of
    alpha (p_1, ..., p_{d-1}, alpha_d).  Equal alpha_d come in runs (one
    per q for identity L, whose rows are in (q, p) order): _spherical_radii
    runs once per run, found where the column changes (np.unique would
    import numpy.ma), and each radius is repeated over its run."""
    ad = alpha[:, d - 1]
    runs = np.flatnonzero(np.diff(ad, prepend=0))  # where each run starts: every alpha_d is positive
    radii = np.repeat(_spherical_radii(ad[runs], q_cap, chart_radius, d, t), np.diff(runs, append=ad.size))
    centers = np.empty((ad.size, d - 1))
    for a in range(d - 1):
        np.divide(alpha[:, a], ad, out=centers[:, a])
    return centers, radii


def _disk_window_sum(centers: np.ndarray, radii: np.ndarray, lo, hi, lenses: np.ndarray) -> float:
    """Area of the disks inside the box less the lenses: the disk areas
    added left to right from 0.0, then the lenses subtracted in their order
    (cumsum adds strictly left to right; np.sum adds pairwise)."""
    return float(np.cumsum(np.concatenate(([0.0], _disk_box_areas(centers, radii, lo, hi), -lenses)))[-1])


def _inside_lenses(centers: np.ndarray, radii: np.ndarray, lo, hi, *, pairs) -> np.ndarray:
    """Lens area of each pair of meeting disks that both lie inside the box.

    pairs holds the candidate rows (u, v), each pair once, either way
    round, among them every pair of meeting disks (from _spherical_windows,
    the pair_graph ranks or collision_pairs).  They are tested as (i, j)
    with i < j, in (i, j) order.
    The distance is the BLAS dot of the difference with itself, the bits
    np.linalg.norm gives one pair."""
    n = centers.shape[0]
    i, j = pairs
    first, second = np.divmod(np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n)
    inside = np.ones(n, dtype=bool)
    for c, a0, a1 in zip(centers.T, lo, hi):
        inside &= c - radii >= a0
        inside &= c + radii <= a1
    keep = inside[first] & inside[second]
    first, second = first[keep], second[keep]
    diff = centers[first] - centers[second]
    dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    r1, r2 = radii[first], radii[second]
    meet = dist < r1 + r2
    return _lens_areas(dist[meet], r1[meet], r2[meet])


def _lens_areas(dist: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Intersection area of disks of radii r1, r2 at distance dist < r1 + r2:
    the smaller disk when one holds the other, else the two circular
    segments."""
    r = np.minimum(r1, r2)
    areas = math.pi * r * r
    cut = dist > np.abs(r1 - r2)
    d, p, q = dist[cut], r1[cut], r2[cut]
    a1 = _elementwise(math.acos, np.clip((d * d + p * p - q * q) / (2 * d * p), -1.0, 1.0))
    a2 = _elementwise(math.acos, np.clip((d * d + q * q - p * p) / (2 * d * q), -1.0, 1.0))
    kern = np.maximum(0.0, (-d + p + q) * (d + p - q) * (d - p + q) * (d + p + q))
    areas[cut] = p * p * a1 + q * q * a2 - 0.5 * np.sqrt(kern)
    return areas


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn of math applied to each entry.  libm's asin and acos, not numpy's
    own arcsin and arccos, which round differently on some inputs."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _disk_box_areas(centers: np.ndarray, radii: np.ndarray, lo, hi) -> np.ndarray:
    """Exact area of each disk inside the box (0 where r <= 0).

    A disk whose scaled distance to every side of the box is at least 1 gets
    r * r * pi.  Any other disk scales to the unit disk, whose part in the
    box is the signed sum of its four corner quadrants (_unit_corners),
    clamped at 0 and scaled back by r * r."""
    whole = radii > 0
    with np.errstate(all="ignore"):
        for c, a0, a1 in zip(centers.T, lo, hi):
            whole &= (a0 - c) / radii <= -1.0
            whole &= (c - a1) / radii <= -1.0
    areas = np.where(whole, radii * radii * math.pi, 0.0)
    edge = np.flatnonzero(~whole & (radii > 0))
    c, r = centers[edge], radii[edge]
    x1, y1 = (lo[0] - c[:, 0]) / r, (lo[1] - c[:, 1]) / r
    x2, y2 = (hi[0] - c[:, 0]) / r, (hi[1] - c[:, 1]) / r
    corner = _unit_corners(np.concatenate([x1, x2, x1, x2]), np.concatenate([y1, y1, y2, y2])).reshape(4, -1)
    areas[edge] = r * r * np.maximum(0.0, corner[0] - corner[1] - corner[2] + corner[3])
    return areas


_QUARTER_DISK = 0.5 * math.asin(1.0)  # _half_strip(1.0), a quarter of the unit disk


def _half_strip(x: np.ndarray) -> np.ndarray:
    """Signed area under the unit disk's upper half over [0, x], for x
    clamped to [-1, 1]."""
    x = np.clip(x, -1.0, 1.0)
    return 0.5 * (x * np.sqrt(np.maximum(0.0, 1.0 - x * x)) + _elementwise(math.asin, x))


def _unit_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Area of the unit disk in each quadrant {u >= a, v >= b}.

    With xb the half-length of the chord v = b: the part above the chord
    over [max(a, -xb), xb], plus, when b < 0, the lobes beyond the chord's
    ends, whose vertical chords lie wholly above v = b (each only right of
    a).  Each entry takes the same operations, in the same order, as the
    scalar one-corner formula the tests compare it with."""
    areas = np.zeros(a.shape)
    live = np.flatnonzero((a < 1.0) & (b < 1.0))
    a, b = np.maximum(a[live], -1.0), np.maximum(b[live], -1.0)
    xb = np.sqrt(np.maximum(0.0, 1.0 - b * b))
    p = np.maximum(a, -xb)
    total = np.zeros(a.shape)
    top = p < xb
    total[top] = (_half_strip(xb[top]) - _half_strip(p[top])) - b[top] * (xb[top] - p[top])
    pr = np.maximum(a, xb)
    right = (b < 0.0) & (pr < 1.0)
    total[right] += 2.0 * (_QUARTER_DISK - _half_strip(pr[right]))
    left = (b < 0.0) & (a < -xb)
    total[left] += 2.0 * (_half_strip(-xb[left]) - _half_strip(a[left]))
    areas[live] = total
    return areas


# ---------------------------------------------------------------------------
# sampling estimators
# ---------------------------------------------------------------------------


def _build_index(target, L, lo, hi, t):
    """The index of the sources in the target's alpha window whose points
    lie within the candidate radius of A, and the number of sequence points
    there with alpha_d <= alpha_cutoff(t)."""
    radius = target.candidate_radius(t)
    box = (lo - radius - 1e-12, hi + radius + 1e-12)
    return fy.window_index(target.d, target.alpha_cutoff(t), target.alpha_window(t), L=L, box=box)


def sampled_integral(target, L, lo, hi, t, points: np.ndarray) -> tuple[float, int]:
    """vol(A) times the fraction of sample points the dual predicate
    accepts, and the count of _build_index.  One index query finds the
    (sample, candidate) pairs of all samples, up to the top of the target's
    alpha window, its pre-mask total checked against ENUM_BUDGET, and one
    batched call tests them."""
    index, count = _build_index(target, L, lo, hi, t)
    pairs = index.near(points, target.candidate_radius(t), alpha_max=target.alpha_window(t)[1])
    pos, _found = tg.dual_hits(target, L, t, points, pairs[:, 0], pairs[:, 1], index)
    hits = np.count_nonzero(np.bincount(pairs[pos, 0]))  # the distinct samples hit; np.unique would import numpy.ma
    vol = box_volume(lo, hi)
    return vol * hits / len(points), count


def grid_points(lo, hi, n: int) -> np.ndarray:
    axes = [lo_i + (hi_i - lo_i) * (np.arange(n) + 0.5) / n for lo_i, hi_i in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------------


def predicted_limit(config: ExperimentConfig) -> Optional[float]:
    """Analytic value of T^{d-1} integral in the t -> infinity limit."""
    target = config.target
    vol_a = box_volume(config.A_lo, config.A_hi)
    record = target.measure()
    if record.value is None:
        return None
    return target.T ** (config.d - 1) * record.value * vol_a


def exact_integral(target, L, lo: np.ndarray, hi: np.ndarray, t: float, estimator: str = "auto") -> tuple[float, int]:
    """Exact integral over the box A = [lo, hi] of a section target's
    indicator, and the number of points used.

    "auto" takes the closed form for d = 2 stable targets with identity,
    integer or diagonal L, and the window sum otherwise; "exact-window"
    insists on the closed form and "window-sum" on the window sum.

    The d = 2 stable window sum over the full unit cell with such an L is
    the width times the exact point count: the window family is
    lattice-periodic and collision-free below the budget.
    """
    stable_d2 = isinstance(target, tg.StableSection) and target.d == 2
    if estimator == "exact-window" and not stable_d2:
        raise ConfigError("exact-window estimator is for d = 2 stable targets")
    kind, a = lattice_kind(L)
    if estimator == "exact-window" or (estimator == "auto" and stable_d2 and kind != "general"):
        return exact_window_stable_d2(target, L, float(lo[0]), float(hi[0]), t)
    if stable_d2 and kind != "general" and _is_unit_cell(lo, hi):
        n = fy.count_farey_in_interval(math.floor(target.denominator_cap(t) / a + 1e-9), 0.0, 1.0, scale=a * a)
        return _stable_window_shape(target, t)[0] * n, n
    if isinstance(target, tg.StableSection):
        return _window_sum_stable_enumerated(target, L, lo, hi, t)
    if isinstance(target, tg.SphericalSection):
        return window_sum_spherical(target, L, lo, hi, t)
    raise ConfigError("window sums cover stable and spherical section targets")


def estimate_integral(config: ExperimentConfig, target_t, t: float, t_index: int) -> tuple[float, int]:
    lo = np.asarray(config.A_lo, dtype=float)
    hi = np.asarray(config.A_hi, dtype=float)
    L = config.matrix_L()
    est = config.estimator[0]
    if est in EXACT_ESTIMATORS:
        return exact_integral(target_t, L, lo, hi, t, est)
    if est == "grid":
        return sampled_integral(target_t, L, lo, hi, t, grid_points(lo, hi, config.estimator[1]))
    rng = np.random.default_rng((config.seed, t_index))  # monte-carlo
    pts = rng.uniform(lo, hi, size=(config.estimator[1], config.d - 1))
    return sampled_integral(target_t, L, lo, hi, t, pts)


def _run_single(config: ExperimentConfig, t_index: int) -> ExperimentResult:
    t = float(config.t_schedule[t_index])
    T = config.level_at(t)
    target_t = tg.with_level(config.target, T)
    tic = time.perf_counter()
    integral, count = estimate_integral(config, target_t, t, t_index)
    wall = time.perf_counter() - tic
    estimate = T ** (config.d - 1) * integral
    predicted = predicted_limit(config)
    abs_err = rel_err = None
    if predicted is not None:
        abs_err = abs(estimate - predicted)
        rel_err = abs_err / abs(predicted) if predicted != 0 else math.inf
    return ExperimentResult(
        t=t,
        T=T,
        Q=math.exp((config.d - 1) * t),
        estimate=estimate,
        predicted=predicted,
        abs_error=abs_err,
        rel_error=rel_err,
        farey_count_used=count,
        wall_time=wall,
        degenerate=(estimate == 0.0),
    )


def sthe_run(config: ExperimentConfig, jobs: int = 1) -> list[ExperimentResult]:
    """One result row per scheduled flow time; rows are t-sorted and
    independent of the worker count."""
    indices = list(range(len(config.t_schedule)))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, and only a pool needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_single, [config] * len(indices), indices))
    else:
        results = [_run_single(config, i) for i in indices]
    return sorted(results, key=lambda r: r.t)


# ---------------------------------------------------------------------------
# section-hit averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarklofResult:
    empirical: float
    predicted: float
    n_total: int
    n_slab: int


def marklof_average(
    d: int,
    Q: float,
    s1: float = 0.0,
    s2: float = math.inf,
    L=None,
    A=None,
    sequence: str = "classical",
) -> MarklofResult:
    """Fraction of sequence points whose section depth falls in [s1, s2]
    (and whose position falls in A), against the exponential-depth law.

    The supported observables are products of a position-box indicator and a
    depth-slab indicator; the depth of a point with denominator alpha_d at
    time t is t - log(alpha_d)/(d-1), so slabs are denominator ranges.
    """
    if s2 < s1:
        raise ConfigError("need s1 <= s2")
    hi_q = Q * math.exp(-(d - 1) * s1)
    lo_q = 0.0 if math.isinf(s2) else Q * math.exp(-(d - 1) * s2)
    weight = math.exp(-d * (d - 1) * s1) - (0.0 if math.isinf(s2) else math.exp(-d * (d - 1) * s2))
    if sequence == "classical":
        if L is not None:
            raise ConfigError("classical sequence has no translation; pass sequence='translated'")
        n_total, _ = fy.count_farey(d, Q)
        if n_total == 0:
            raise HorolabError("no sequence points below Q")
        if A is None:
            n_slab = fy.count_farey(d, min(hi_q, Q))[0] - fy.count_farey(d, lo_q)[0]
            vol_a = 1.0
        else:
            lo, hi = (np.asarray(A[0], dtype=float), np.asarray(A[1], dtype=float))
            vol_a = box_volume(lo, hi)
            sources, alpha = fy.sequence_arrays(d, Q, box=(lo, hi))
            ad = alpha[:, d - 1]
            inside = np.all(alpha[:, : d - 1] / ad[:, None] < hi, axis=1)
            inside &= (ad > lo_q) & (ad <= min(hi_q, Q))
            n_slab = int(np.count_nonzero(inside))
        return MarklofResult(empirical=n_slab / n_total, predicted=vol_a * weight, n_total=n_total, n_slab=n_slab)
    if sequence == "translated":
        if A is None:
            raise ConfigError("translated averages need an explicit position box A")
        lo, hi = (np.asarray(A[0], dtype=float), np.asarray(A[1], dtype=float))
        sources, alpha = fy.translated_alpha_box_arrays(L if L is not None else np.eye(d), Q)
        n_total = int(sources.shape[0])
        if n_total == 0:
            raise HorolabError("no sequence points below Q")
        ad = alpha[:, d - 1]
        pts = alpha[:, : d - 1] / ad[:, None]
        sel = (ad > lo_q) & (ad <= min(hi_q, Q))
        sel &= np.all(pts >= lo, axis=1) & np.all(pts < hi, axis=1)
        n_slab = int(np.count_nonzero(sel))
        predicted = box_volume(lo, hi) * weight / d
        return MarklofResult(empirical=n_slab / n_total, predicted=predicted, n_total=n_total, n_slab=n_slab)
    raise ConfigError(f"unknown sequence flavor {sequence!r}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    results: tuple
    slope: Optional[float]
    final_rel_error: Optional[float]
    tolerance: Optional[float]
    passed: Optional[bool]
    degenerate: bool


def convergence_report(results, tolerance: float = None) -> ConvergenceReport:
    """Fit the error decay over the schedule (no slope below two nonzero
    errors) and apply the pass tolerance to the last row."""
    if not results:
        raise HorolabError("need at least one result to report convergence")
    rows = sorted(results, key=lambda r: r.t)
    ts = [r.t for r in rows if r.rel_error not in (None, 0.0)]
    errs = [r.rel_error for r in rows if r.rel_error not in (None, 0.0)]
    slope = None
    if len(ts) >= 2:
        slope = float(np.polyfit(ts, np.log(errs), 1)[0])
    final = rows[-1].rel_error
    passed = None
    if tolerance is not None and final is not None:
        passed = bool(final <= tolerance)
    return ConvergenceReport(
        results=tuple(rows),
        slope=slope,
        final_rel_error=final,
        tolerance=tolerance,
        passed=passed,
        degenerate=any(r.degenerate for r in rows),
    )


def write_results_csv(results, fh) -> None:
    fh.write("t,T,Q,estimate,predicted,rel_error,count,seconds\n")
    for r in results:
        pred = "nan" if r.predicted is None else f"{r.predicted:.15g}"
        rel = "nan" if r.rel_error is None else f"{r.rel_error:.15g}"
        fh.write(
            f"{r.t:.15g},{r.T:.15g},{r.Q:.15g},{r.estimate:.15g},{pred},{rel},{r.farey_count_used},{r.wall_time:.3f}\n"
        )
