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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels as K
from . import farey as fy
from . import targets as tg
from .errors import ConfigError, DisjointnessError, HorolabError, ResourceLimitError

ENUM_BUDGET = 30_000_000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


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
    region_warning: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.A_lo) != self.d - 1 or len(self.A_hi) != self.d - 1:
            raise ConfigError("A bounds must have length d-1")
        if any(h <= l for l, h in zip(self.A_lo, self.A_hi)):
            raise ConfigError("A must have positive volume")
        if not all(np.isfinite(self.A_lo)) or not all(np.isfinite(self.A_hi)):
            raise ConfigError("A must be bounded")
        if self.T_rule[0] == "growing" and not 0 < self.T_rule[1] < 1:
            raise ConfigError("growing rule needs 0 < eta' < 1")
        if self.T_rule[0] not in ("constant", "growing"):
            raise ConfigError(f"unknown T rule {self.T_rule[0]!r}")
        if self.L is not None:
            region = fy.duplicate_region(self.matrix_L())
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
    if np.allclose(Lf, np.round(Lf), atol=1e-12) and abs(abs(np.linalg.det(Lf)) - 1.0) < 1e-9:
        return ("lattice", 1.0)
    if d == 2 and abs(Lf[0, 1]) < 1e-15 and abs(Lf[1, 0]) < 1e-15 and abs(Lf[0, 0] * Lf[1, 1] - 1.0) < 1e-12:
        return ("diag", float(Lf[0, 0]))
    return ("general", 0.0)


def _is_unit_cell(lo, hi) -> bool:
    return np.allclose(lo, 0.0, atol=1e-15) and np.allclose(hi, 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# stable-box window estimators
# ---------------------------------------------------------------------------


def _count_prefix(d: int, qmax: int) -> int:
    if qmax < 1:
        return 0
    if d == 2:
        return int(K.phi_sieve(qmax)[1:].sum())
    return int(K.jordan_sieve(qmax, d - 1)[1:].sum())


def exact_window_stable_d2(target: tg.StableSection, L, lo: float, hi: float, t: float) -> tuple[float, int]:
    """Exact integral of the stable-target indicator over [lo, hi] for d = 2.

    Windows of width eps e^{-2t} sit at the translated-Farey points with
    denominators below Q T^{-1/2}; interior windows are counted by a Moebius
    prefix scan, boundary-straddling ones are enumerated and clipped.
    """
    kind, a = lattice_kind(L)
    if kind == "general":
        raise ConfigError("closed-form window estimator needs identity/integer or diagonal L")
    q_cap = math.exp(t) * target.T ** (-0.5)
    scale = 1.0 if kind == "lattice" else a * a
    m = int(math.floor(q_cap / (1.0 if kind == "lattice" else a) + 1e-9))
    w = target.eps * math.exp(-2.0 * t)
    c_off = float(target.ytilde[0]) * math.exp(-2.0 * t)
    if hi - lo <= w or m < 1:
        return _window_sum_stable_enumerated(target, L, np.array([lo]), np.array([hi]), t)
    u = lo + c_off + w / 2.0
    v = hi + c_off - w / 2.0
    mu = K.mobius_sieve(m)
    n_mid = fy.count_farey_in_interval(m, u, v, scale=scale, mu=mu)
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


def _stable_window_centers(target: tg.StableSection, L, lo: np.ndarray, hi: np.ndarray, t: float):
    d = target.d
    w = target.eps * math.exp(-d * t)
    c_off = np.asarray(target.ytilde, dtype=float) * math.exp(-d * t)
    q_cap = math.exp((d - 1) * t) * target.T ** (-(d - 1) / d)
    margin = w / 2.0 + float(np.abs(c_off).max()) + 1e-15
    box = (lo - margin, hi + margin)
    if L is None:
        sources, alpha = fy.farey_arrays(d, q_cap, box=box)
    else:
        sources, alpha = fy.translated_arrays(L, q_cap, box)
    if sources.shape[0] > ENUM_BUDGET:
        raise ResourceLimitError("window enumeration over budget", ENUM_BUDGET)
    if sources.shape[0] == 0:
        return sources, np.empty((0, d - 1)), w
    centers = alpha[:, : d - 1] / alpha[:, d - 1 :] - c_off
    return sources, centers, w


def _clipped_box_volumes(centers: np.ndarray, w: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    clipped = np.clip(np.minimum(centers + w / 2.0, hi) - np.maximum(centers - w / 2.0, lo), 0.0, None)
    return np.prod(clipped, axis=1)


def _merge_length(intervals: np.ndarray) -> float:
    """Total length of a union of (lo, hi) intervals."""
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


_UNION_CELLS = 1 << 21  # grid cells per batched step; bounds each step's arrays to tens of MiB


def _cluster_union_volume(centers: np.ndarray, w: float, lo: np.ndarray, hi: np.ndarray, *, sizes=None) -> float:
    """Exact measure of the union of the congruent boxes of width w at the
    centers, clipped to [lo, hi], in one or two dimensions.

    ``sizes`` splits the rows into consecutive clusters and the result is
    the sum of the clusters' unions; by default all rows form one cluster.
    Each cluster is measured on the grid of its own clipped box edges: k
    boxes give 2k edges per axis, hence (2k-1)^dim cells, and a cell counts
    once if it lies inside any box.  All clusters of one size are measured
    together as one (m, k, dim) array, a few million cells at a time.
    """
    n, dim = centers.shape
    if dim not in (1, 2):
        raise ConfigError("window unions implemented for one and two parameter dimensions")
    sizes = np.array([n]) if sizes is None else np.asarray(sizes, dtype=np.int64)
    los = np.maximum(centers - w / 2.0, lo)
    his = np.minimum(centers + w / 2.0, hi)
    starts = np.cumsum(sizes) - sizes
    total = 0.0
    for k in np.unique(sizes):
        first = starts[sizes == k]
        step = max(1, _UNION_CELLS // (2 * int(k) - 1) ** dim)
        for c in range(0, first.size, step):
            rows = first[c : c + step, None] + np.arange(k)
            total += _grid_union(los[rows], his[rows])
    return float(total)


def _grid_union(los: np.ndarray, his: np.ndarray) -> float:
    """Summed union measure of m clusters of k boxes, given as (m, k, dim)
    corner arrays; a box with his < los on some axis is empty."""
    edges = np.sort(np.concatenate([los, his], axis=1), axis=1)
    widths = np.diff(edges, axis=1)
    # inside[c, i, b, a]: cell i of axis a in cluster c lies within box b on that axis
    inside = (los[:, None] <= edges[:, :-1, None]) & (edges[:, 1:, None] <= his[:, None])
    if los.shape[2] == 1:
        return float((widths[..., 0] * inside[..., 0].any(axis=2)).sum())
    cover = np.matmul(inside[..., 0].astype(float), inside[..., 1].astype(float).transpose(0, 2, 1)) > 0
    return float(np.einsum("ci,cij,cj->", widths[..., 0], cover, widths[..., 1]))


def _window_sum_stable_enumerated(target: tg.StableSection, L, lo: np.ndarray, hi: np.ndarray, t: float) -> tuple[float, int]:
    """Exact integral: clipped window volumes, corrected by the union of each
    collision cluster.

    The raw sum of all clipped windows comes first, and its volume array is
    freed before clustering, which keeps peak memory down.  The clustered
    windows then replace their raw sum by their exact union, measured in
    one batched call over all clusters.

    For d = 2 below the disjointness budget collisions cannot happen (a
    Farey-neighbor gap argument), so any detected pair is an internal error.
    For d >= 3 close window pairs are a real phenomenon at finite t even for
    small widths, so the union is computed instead.
    """
    d = target.d
    sources, centers, w = _stable_window_centers(target, L, lo, hi, t)
    if centers.shape[0] == 0:
        return 0.0, 0
    total = float(_clipped_box_volumes(centers, w, lo, hi).sum())
    clusters = fy.collision_clusters(centers, w)
    if clusters and d == 2:
        raise DisjointnessError("stable windows overlap below the d=2 budget; this cannot happen")
    if clusters:
        clustered = centers[np.concatenate(clusters)]
        union = _cluster_union_volume(clustered, w, lo, hi, sizes=[m.size for m in clusters])
        total += union - float(_clipped_box_volumes(clustered, w, lo, hi).sum())
    return total, int(sources.shape[0])


def stable_window_overlap(target: tg.StableSection, L, lo, hi, t: float):
    """First colliding window pair below the cutoff, or None.  Exposes the
    raw disjointness question the budget constant is about.

    The pair is the first by enumeration index (i, j), i < j, whose windows
    are closer than w in sup-norm, returned as two source tuples.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    sources, centers, w = _stable_window_centers(target, L, lo, hi, t)
    clusters = fy.collision_clusters(centers, w)
    if not clusters:
        return None
    # the smallest colliding index heads the first cluster; a cluster is only
    # connected, so its partner is the first member it touches, not the next
    members = clusters[0]
    touch = np.all(np.abs(centers[members[1:]] - centers[members[0]]) < w, axis=1)
    partner = members[1:][np.argmax(touch)]
    return tuple(int(v) for v in sources[members[0]]), tuple(int(v) for v in sources[partner])


def window_sum_stable(target: tg.StableSection, L, lo: np.ndarray, hi: np.ndarray, t: float) -> tuple[float, int]:
    """Exact integral of the stable-target indicator over the box A.

    d = 2 over the full unit cell reduces to width times the exact point
    count (the window family is lattice-periodic and collision-free below
    the budget); everything else enumerates windows and measures the union.
    """
    d = target.d
    kind, a = lattice_kind(L)
    w = target.eps * math.exp(-d * t)
    q_cap = math.exp((d - 1) * t) * target.T ** (-(d - 1) / d)
    if _is_unit_cell(lo, hi) and d == 2:
        if kind == "lattice":
            n = _count_prefix(d, int(math.floor(q_cap + 1e-9)))
            return w ** (d - 1) * n, n
        if kind == "diag":
            m = int(math.floor(q_cap / a + 1e-9))
            if m < 1:
                return 0.0, 0
            n = fy.count_farey_in_interval(m, 0.0, 1.0, scale=a * a)
            return w * n, n
    return _window_sum_stable_enumerated(target, L, lo, hi, t)


# ---------------------------------------------------------------------------
# spherical window estimators
# ---------------------------------------------------------------------------


def _spherical_radii(alpha_d: np.ndarray, q_cap: float, chart_radius: float, d: int, t: float) -> np.ndarray:
    """Per-point window radius e^{-dt} tan(theta_max) in parameter space."""
    u = np.clip(alpha_d / q_cap, 0.0, 1.0)
    theta = np.minimum(np.arccos(u), chart_radius)
    return math.exp(-d * t) * np.tan(theta)


def window_sum_spherical(target: tg.SphericalSection, L, lo: np.ndarray, hi: np.ndarray, t: float) -> tuple[float, int]:
    """Integral of the spherical-target indicator: per-point windows whose
    radius couples the denominator to the chart through the cosine cutoff.

    d = 2 windows are merged exactly when they touch; for d = 3 colliding
    disks (possible at finite t) are corrected pairwise by the lens area
    when they sit inside A.
    """
    d = target.d
    kind, _a = lattice_kind(L)
    q_cap = math.exp((d - 1) * t) * target.T ** (-(d - 1) / d)
    # with T at least 2 sin(radius), neighboring-denominator gaps dominate
    # the window radii and the per-denominator closed sum is exact
    if _is_unit_cell(lo, hi) and kind == "lattice" and d == 2 and target.T >= 2.0 * math.sin(target.chart.radius):
        qmax = int(math.floor(q_cap - 1e-12))
        if qmax < 1:
            return 0.0, 0
        counts = K.phi_sieve(qmax)[1:].astype(float)
        radii = _spherical_radii(np.arange(1, qmax + 1, dtype=float), q_cap, target.chart.radius, d, t)
        return float(np.dot(counts, 2.0 * radii)), int(counts.sum())
    margin = math.exp(-d * t) * math.tan(target.chart.radius)
    box = (lo - margin, hi + margin)
    if L is None:
        sources, alpha = fy.farey_arrays(d, q_cap, box=box)
    else:
        sources, alpha = fy.translated_arrays(L, q_cap, box)
    if sources.shape[0] > ENUM_BUDGET:
        raise ResourceLimitError("window enumeration over budget", ENUM_BUDGET)
    if sources.shape[0] == 0:
        return 0.0, 0
    ad = alpha[:, d - 1]
    keep = ad < q_cap
    sources, alpha, ad = sources[keep], alpha[keep], ad[keep]
    centers = alpha[:, : d - 1] / ad[:, None]
    radii = _spherical_radii(ad, q_cap, target.chart.radius, d, t)
    if d == 2:
        intervals = np.stack([np.maximum(centers[:, 0] - radii, lo[0]), np.minimum(centers[:, 0] + radii, hi[0])], axis=1)
        return _merge_length(intervals), int(centers.shape[0])
    if d == 3:
        # cumsum adds strictly left to right (np.sum adds pairwise): the sequential sum from 0.0
        total = np.cumsum(np.append(0.0, _disk_box_areas(centers, radii, lo, hi)))[-1]
        inside = np.all(centers - radii[:, None] >= lo, axis=1) & np.all(centers + radii[:, None] <= hi, axis=1)
        for members in fy.collision_clusters(centers, 2.0 * radii):
            a_i, b_i = np.triu_indices(members.size, 1)
            for i, j in zip(members[a_i], members[b_i]):
                if inside[i] and inside[j]:
                    total -= _lens_area(float(np.linalg.norm(centers[i] - centers[j])), radii[i], radii[j])
        return float(total), int(centers.shape[0])
    raise ConfigError("spherical window sums implemented for d in {2, 3}")


def _disk_box_areas(centers: np.ndarray, radii: np.ndarray, lo, hi) -> np.ndarray:
    """_circle_box_area of each disk (0 where r <= 0).  A disk whose scaled
    distance to every side of the box is at least 1 gets r * r * pi
    directly, which is the scalar formula's value there bit for bit."""
    with np.errstate(all="ignore"):
        scaled = np.concatenate([lo - centers, centers - hi], axis=1) / radii[:, None]
    whole = (radii > 0) & np.all(scaled <= -1.0, axis=1)
    areas = np.where(whole, radii * radii * math.pi, 0.0)
    for i in np.flatnonzero(~whole & (radii > 0)):
        areas[i] = _circle_box_area(centers[i, 0], centers[i, 1], radii[i], lo, hi)
    return areas


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


# ---------------------------------------------------------------------------
# sampling estimators
# ---------------------------------------------------------------------------


def _build_index(target, L, lo, hi, t):
    d = target.d
    radius = tg._candidate_radius(target, t)
    amax = tg._alpha_cutoff(target, t)
    box = (lo - radius - 1e-12, hi + radius + 1e-12)
    if L is None:
        return fy.farey_index(d, amax, box=box)
    return fy.farey_index(d, amax, L=L, box=box)


def sampled_integral(target, L, lo, hi, t, points: np.ndarray) -> tuple[float, int]:
    """vol(A) times the fraction of sample points the dual predicate accepts;
    the candidates near all samples are tested in one batched call."""
    index = _build_index(target, L, lo, hi, t)
    radius = tg._candidate_radius(target, t)
    amax = tg._alpha_cutoff(target, t)
    near = [index.near(x, radius, alpha_max=amax) for x in points]
    si = np.repeat(np.arange(len(points)), [c.size for c in near])
    pos, _found = tg.dual_hits(target, L, t, points, si, np.concatenate(near), index)
    hits = np.unique(si[pos]).size
    vol = box_volume(lo, hi)
    return vol * hits / len(points), len(index)


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
    record = tg.measure_formula(target)
    if record.value is None:
        return None
    return target.T ** (config.d - 1) * record.value * vol_a


def estimate_integral(config: ExperimentConfig, target_t, t: float, t_index: int) -> tuple[float, int]:
    lo = np.asarray(config.A_lo, dtype=float)
    hi = np.asarray(config.A_hi, dtype=float)
    L = config.matrix_L()
    est = config.estimator[0]
    if est == "auto":
        est = "exact-window" if (isinstance(target_t, tg.StableSection) and config.d == 2) else "window-sum"
    if est == "exact-window":
        if not isinstance(target_t, tg.StableSection) or config.d != 2:
            raise ConfigError("exact-window estimator is for d = 2 stable targets")
        return exact_window_stable_d2(target_t, L, float(lo[0]), float(hi[0]), t)
    if est == "window-sum":
        if isinstance(target_t, tg.StableSection):
            return window_sum_stable(target_t, L, lo, hi, t)
        if isinstance(target_t, tg.SphericalSection):
            return window_sum_spherical(target_t, L, lo, hi, t)
        raise ConfigError("window sums cover stable and spherical section targets")
    if est == "grid":
        return sampled_integral(target_t, L, lo, hi, t, grid_points(lo, hi, int(config.estimator[1])))
    if est == "monte-carlo":
        rng = np.random.default_rng((config.seed, t_index))
        pts = rng.uniform(lo, hi, size=(int(config.estimator[1]), config.d - 1))
        return sampled_integral(target_t, L, lo, hi, t, pts)
    raise ConfigError(f"unknown estimator {est!r}")


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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_single, [config] * len(indices), indices))
    else:
        results = [_run_single(config, i) for i in indices]
    return sorted(results, key=lambda r: r.t)


def sthe_exact_stable(d: int, A, eps: float, ytilde, T: float, t: float, L=None) -> float:
    """Exact integral over A of the stable-target indicator (unscaled)."""
    target = tg.StableSection(d=d, T=T, eps=eps, ytilde=tuple(np.atleast_1d(ytilde).tolist()))
    lo = np.atleast_1d(np.asarray(A[0], dtype=float))
    hi = np.atleast_1d(np.asarray(A[1], dtype=float))
    if d == 2 and lattice_kind(L)[0] != "general":
        val, _n = exact_window_stable_d2(target, L, float(lo[0]), float(hi[0]), t)
        return val
    val, _n = window_sum_stable(target, L, lo, hi, t)
    return val


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
        n_total = _count_prefix(d, int(math.floor(Q)))
        if n_total == 0:
            raise HorolabError("no sequence points below Q")
        if A is None:
            n_slab = _count_prefix(d, int(math.floor(min(hi_q, Q)))) - _count_prefix(d, int(math.floor(lo_q)))
            vol_a = 1.0
        else:
            lo, hi = (np.asarray(A[0], dtype=float), np.asarray(A[1], dtype=float))
            vol_a = box_volume(lo, hi)
            sources, alpha = fy.farey_arrays(d, Q, box=(lo, hi))
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
        if sources.shape[0] > ENUM_BUDGET:
            raise ResourceLimitError("translated enumeration over budget", ENUM_BUDGET)
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
    """Fit the error decay over the schedule and apply the pass tolerance."""
    if len(results) < 2:
        raise HorolabError("need at least two results to report convergence")
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
