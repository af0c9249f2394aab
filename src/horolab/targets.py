"""Shrinking targets: algebraic descriptions, membership predicates, closed
form measures, and disjointness constants.

The dual predicate tests the transpose-inverse of the horosphere point by
proximity to a translated-Farey point at scale e^{-dt}; the direct predicate
enumerates a thin lattice slab and tests the horosphere point itself.  The
two accept different parameters x, but for stable boxes both hit a fraction
of A that tends to the target measure, so the direct one is an independent
oracle for the hit rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import farey as fy
from .algebra import BOUNDARY_ATOL, cd_lower, h0, zeta
from .coords import (
    Chart,
    chart_matrix,
    chart_point_from_offset,
    chart_points_from_offsets,
    grenier_reduce,
    hrd_coords,
)
from .errors import (
    ConfigError,
    DisjointnessError,
    HorolabError,
    UnsupportedDimensionError,
)

# ---------------------------------------------------------------------------
# target specifications
# ---------------------------------------------------------------------------

CAP_RTOL = 1e-12  # so a cap rounded below an integer, e^{log 5} = 4.999999999999999, admits it


class _Target:
    """What the four target kinds share: the section denominator cap, which
    is also the candidates' alpha_d cutoff for targets on the section, and
    the source test that applies it."""

    def denominator_cap(self, t: float) -> float:
        """The cap e^{(d-1)t} T^{-(d-1)/d} on the denominators alpha_d of the
        section points at flow time t."""
        d = self.d
        return math.exp((d - 1) * t) * self.T ** (-(d - 1) / d)

    def alpha_cutoff(self, t: float) -> float:
        """The largest alpha_d the section admits, the cap widened by
        CAP_RTOL as the source test widens it: every stable path, exact or
        sampled, reads its denominator bound here."""
        return self.denominator_cap(t) * (1 + CAP_RTOL)

    def alpha_window(self, t: float) -> tuple[float, float]:
        """The alpha_d range (lo, hi), hi <= alpha_cutoff(t), of the sources
        that can pass the source test: all of it up to the cutoff."""
        return 0.0, self.alpha_cutoff(t)

    def source_mask(self, L, t: float, index: fy.FareyIndex, ci: np.ndarray, chart: dict) -> tuple[np.ndarray, dict]:
        """Mask of the index points ci that pass the section cap, c = cos|z|
        on a chart and 1 otherwise, and the chart data of those kept."""
        keep = index.alpha_d[ci] <= self.denominator_cap(t) * chart.get("c", 1.0) * (1 + CAP_RTOL)
        return keep, {key: v[keep] for key, v in chart.items()}


class _StableThickening:
    """Thickened by the stable box of width eps at ytilde."""

    def _check_thickening(self) -> None:
        # 0 < eps < the disjointness budget, and ytilde, by default the origin, of length d-1
        if self.eps <= 0:
            raise HorolabError("eps must be positive")
        if self.ytilde is None:
            object.__setattr__(self, "ytilde", (0.0,) * (self.d - 1))
        if len(self.ytilde) != self.d - 1:
            raise HorolabError("ytilde must have length d-1")
        budget = disjointness_budget(self.d, self.T)
        if self.eps >= budget:
            raise DisjointnessError(f"eps={self.eps} not below the disjointness budget {budget}")

    def candidate_radius(self, t: float) -> float:
        return math.exp(-self.d * t) * (np.abs(np.asarray(self.ytilde)).max() + self.eps / 2.0 + 1e-9)

    def offset_mask(self, xt: np.ndarray) -> tuple[np.ndarray, dict]:
        """Mask of the offsets xt (n, d-1) in the half-open stable box, and no chart data."""
        y = np.asarray(self.ytilde)
        return np.all(xt >= y - self.eps / 2.0 - BOUNDARY_ATOL, axis=1) & np.all(xt < y + self.eps / 2.0, axis=1), {}


class _ChartThickening:
    """Thickened along a hemispherical sphere chart."""

    def _check_thickening(self) -> None:
        if not self.chart.hemispherical:
            raise HorolabError("spherical targets need a hemispherical chart, radius below pi/2")
        if self.chart.dim != self.d:
            raise HorolabError(f"chart dimension {self.chart.dim} is not d = {self.d}")

    def candidate_radius(self, t: float) -> float:
        return math.exp(-self.d * t) * math.tan(self.chart.radius)

    def offset_mask(self, xt: np.ndarray) -> tuple[np.ndarray, dict]:
        """Mask of the offsets xt (n, d-1) in the chart image, and the chart data "z" and "c" = cos|z|."""
        z, ok = chart_points_from_offsets(self.chart, xt)
        return ok, {"z": z, "c": np.cos(np.linalg.norm(z, axis=1))}


@dataclass(frozen=True, kw_only=True)
class StableSection(_Target, _StableThickening):
    """Section at level T thickened by the stable box of width eps at ytilde."""

    d: int
    T: float = 1.0
    eps: float
    ytilde: tuple = None

    def __post_init__(self):
        if self.T < 1:
            raise HorolabError(f"section level T must be >= 1, got {self.T}")
        self._check_thickening()

    def measure(self) -> MeasureRecord:
        d = self.d
        value = self.eps ** (d - 1) / (d * zeta(d) * self.T ** (d - 1))
        return MeasureRecord(value=value, T=self.T, ratio_exponent=d - 1, method="closed")


@dataclass(frozen=True, kw_only=True)
class SphericalSection(_Target, _ChartThickening):
    """Section at level T thickened along a hemispherical chart."""

    d: int
    T: float = 2.0
    chart: Chart

    def __post_init__(self):
        if self.T <= h0(self.d):
            raise HorolabError(f"spherical targets need T > {h0(self.d)}, got {self.T}")
        self._check_thickening()

    def measure(self) -> MeasureRecord:
        d = self.d
        if d == 2:
            value = self.chart.domain_volume / (2.0 * zeta(2) * self.T)
            return MeasureRecord(value=value, T=self.T, ratio_exponent=d - 1, method="closed")
        if d == 3:
            # the quadrature's integral in closed form: int_0^tan r 2 pi rho (1 + rho^2)^{-3/2} drho
            # = 2 pi (1 - cos r), with 1 - cos r = 2 sin^2(r/2) free of cancellation
            value = 4.0 * math.pi * math.sin(self.chart.radius / 2.0) ** 2 / (3.0 * zeta(3) * self.T**2)
            return MeasureRecord(value=value, T=self.T, ratio_exponent=d - 1, method="closed")
        value = spherical_measure_quadrature(self.chart, self.T, d)
        return MeasureRecord(value=value, T=self.T, ratio_exponent=d - 1, method="quadrature")


class _GrenierHeights(_Target):
    """Flowed coordinate boxes: heights set by the lower bounds alphas, a
    source test on section coordinates, and a closed-form measure for d = 2
    only."""

    def _check_heights(self) -> None:
        d = self.d
        if len(self.alphas) != d - 1 or len(self.gammas) != d - 1:
            raise HorolabError("alphas/gammas must have length d-1")
        if any(g < a for a, g in zip(self.alphas, self.gammas)):
            raise HorolabError("gammas must dominate alphas")
        if self.ktilde is not None and len(self.ktilde) != 2:
            raise HorolabError(f"ktilde must be an angle pair (lo, hi) or None, got {self.ktilde!r}")

    @property
    def T_minus(self) -> float:
        return float(np.prod([self.alphas[self.d - 1 - k] ** (2 * (self.d - k) / self.d) for k in range(1, self.d)]))

    @property
    def T0(self) -> float:
        return self.T_minus ** (self.d / (2.0 * (self.d - 1)))

    def alpha_cutoff(self, t: float) -> float:
        """The alpha_d cutoff e^{d-1} above the cap at T0: it fixes the
        sequence points a sampled row counts, while alpha_window fixes the
        candidates it tests."""
        # the flow shift moves the entry level to T0
        d = self.d
        return math.exp((d - 1) * t) * (self.T0 / self.T) ** ((d - 1) / d) * math.exp((d - 1) * 1.0)

    def source_mask(self, L, t: float, index: fy.FareyIndex, ci: np.ndarray, chart: dict) -> tuple[np.ndarray, dict]:
        """The section coordinates of each distinct candidate, from one
        stacked reduction, in the box (_in_box); the witness data are
        "coords" and, on a chart, "z"."""
        d = self.d
        if d not in (2, 3):
            raise UnsupportedDimensionError("coordinate-box membership needs d in {2, 3}")
        cand, row = np.unique(ci, return_inverse=True)
        s = t - np.log(index.alpha_d[cand]) / (d - 1) - self._s_shift
        _gamma, coords = grenier_reduce(_h_part(index.sources[cand], L), s)
        keep = self._in_box(coords.ys[row], coords.x[row], coords.kprime[row], chart)
        witness = {"coords": [coords.row(r) for r in row[keep]]}
        if "z" in chart:
            witness["z"] = chart["z"][keep]
        return keep, witness

    def measure(self) -> MeasureRecord:
        if self.d != 2:
            return MeasureRecord(value=None, T=self.T, ratio_exponent=self.d - 1, method="ratio-only",
                                 detail="absolute coordinate-box measure unavailable for d >= 3")
        return MeasureRecord(value=self._measure_d2(), T=self.T, ratio_exponent=1, method="closed")


@dataclass(frozen=True, kw_only=True)
class GrenierBoxStable(_GrenierHeights, _StableThickening):
    """Flowed coordinate box in the fundamental domain, thickened by a stable
    box; K' constraint given as an angle interval for d = 3 (None = all)."""

    d: int
    alphas: tuple
    gammas: tuple
    beta_lo: tuple = None  # strict-upper x_ij bounds, row-major tuples
    beta_hi: tuple = None
    ktilde: Optional[tuple] = None
    T: float = 1.0
    eps: float
    ytilde: tuple = None

    def __post_init__(self):
        self._check_heights()
        if any(a < 1 for a in self.alphas):
            raise HorolabError("lower bounds alphas must be >= 1 (lower height >= 1)")
        if self.beta_lo is None:
            object.__setattr__(self, "beta_lo", _default_beta(self.d, low=True))
        if self.beta_hi is None:
            object.__setattr__(self, "beta_hi", _default_beta(self.d, low=False))
        if self.T < self.T0:
            raise HorolabError(f"flow level T must be >= T0 = {self.T0}")
        self._check_thickening()

    @property
    def _s_shift(self) -> float:
        return math.log(self.T / self.T0) / self.d

    def alpha_window(self, t: float) -> tuple[float, float]:
        """The alpha_d range of the sources whose heights can lie in the box,
        in closed form.  The reduced heights have prod_k y_k^k = e^{d(d-1)s}
        (the inner block has determinant one), s = t - log(alpha_d)/(d-1)
        - _s_shift, and the box holds that product in
        [prod (alpha_k - tol)^k, prod gamma_k^k].  Widened by _WINDOW_MARGIN
        for the rounding of the reduction, and cut at alpha_cutoff(t)."""
        d = self.d
        base = (d - 1) * (t - self._s_shift)
        log_lo = sum(k * math.log(a - BOUNDARY_ATOL) for k, a in enumerate(self.alphas, 1))
        log_hi = sum(k * math.log(g) for k, g in enumerate(self.gammas, 1))
        return (math.exp(base - log_hi / d) * (1 - _WINDOW_MARGIN),
                min(math.exp(base - log_lo / d) * (1 + _WINDOW_MARGIN), self.alpha_cutoff(t)))

    def _in_box(self, ys, x, kprime, chart) -> np.ndarray:
        # heights, the beta window and, for d = 3, the K' angle
        d = self.d
        iu, ju = np.triu_indices(d, 1)
        keep = _in_boxes(ys, self.alphas, self.gammas)
        keep &= np.all((np.asarray(self.beta_lo) - BOUNDARY_ATOL <= x[:, iu, ju])
                       & (x[:, iu, ju] <= np.asarray(self.beta_hi) + BOUNDARY_ATOL), axis=1)
        if d == 3:
            keep &= _angle_in(self.ktilde, _kprime_angle(kprime))
        return keep

    def _measure_d2(self) -> float:
        blo, bhi = self.beta_lo[0], self.beta_hi[0]
        # the height h = y_1 enters through the section parametrization as
        # h = y^2, so the weight y^{-d} dy/y integrates to (1/a - 1/g)/2;
        # the x box in [0, 1/2] lifts to two mirror copies on the unit
        # x torus (the reduction folds signs), hence the factor 2
        base = (
            min(2.0 * (bhi - blo), 1.0)
            * (1.0 / self.alphas[0] - 1.0 / self.gammas[0])
            / (2.0 * zeta(2))
            * self.eps
        )
        return base * (self.T0 / self.T) ** (self.d - 1)


@dataclass(frozen=True, kw_only=True)
class GrenierBoxSpherical(_GrenierHeights, _ChartThickening):
    """Coordinate box with sphere-chart thickening; y-bounds are modulated by
    the chart point through the rank-one Cholesky diagonal."""

    d: int
    alphas: tuple
    gammas: tuple
    chart: Chart
    ktilde: Optional[tuple] = None
    T: float = None  # None = T0

    def __post_init__(self):
        d = self.d
        self._check_heights()
        self._check_thickening()
        if self.T_minus <= h0(d) ** (2.0 * (d - 1) / d):
            raise HorolabError("lower height too small for spherical thickening")
        if self.T is None:
            object.__setattr__(self, "T", self.T0)
        if self.T < self.T0:
            raise HorolabError(f"flow level T must be >= T0 = {self.T0}")

    _s_shift = 0.0  # T enters through the height scales instead

    def _in_box(self, ys, x, kprime, chart) -> np.ndarray:
        # heights scaled by the chart point; for d = 3 by the recovered inner rotation, with its K' angle
        d = self.d
        if d == 2:
            c = chart["c"]
            return _in_boxes(ys, self.alphas, self.gammas, (self.T / (c * c * self.T_minus))[:, None])
        einv, c, _v, zp = chart_matrix(self.chart, chart["z"])
        ktilde, b = _recover_inner_rotation(kprime, einv[:, : d - 1, d - 1], c, zp, einv[:, : d - 1, : d - 1])
        beta = np.diagonal(b, axis1=1, axis2=2)[:, ::-1]  # (beta_1, ..., beta_{d-1})
        scales = np.stack([beta[:, 1] / beta[:, 0], beta[:, 0] * self.T / (c * self.T0)], axis=1)
        return _angle_in(self.ktilde, _kprime_angle(ktilde)) & _in_boxes(ys, self.alphas, self.gammas, scales)

    def _measure_d2(self) -> float:
        return (
            self.T_minus
            * (1.0 / self.alphas[0] - 1.0 / self.gammas[0])
            * self.chart.domain_volume
            / (2.0 * zeta(2) * self.T)
        )


# relative widening of the closed-form alpha_d window, far above the
# rounding of the reduction and of the determinant of its inner block
_WINDOW_MARGIN = 1e-6

# the config "kind" of each target class
KINDS = {
    "stable": StableSection,
    "spherical": SphericalSection,
    "grenier-stable": GrenierBoxStable,
    "grenier-spherical": GrenierBoxSpherical,
}


def _default_beta(d: int, low: bool) -> tuple:
    # canonical fundamental-domain bounds: first-row entries in [0, 1/2] for
    # even d, symmetric [-1/2, 1/2] otherwise
    vals = []
    for i in range(d):
        for j in range(i + 1, d):
            if low:
                vals.append(0.0 if (d % 2 == 0 and i == 0) else -0.5)
            else:
                vals.append(0.5)
    return tuple(vals)


@dataclass(frozen=True)
class MembershipWitness:
    farey: fy.TranslatedFareyPoint
    s: float
    xt: tuple
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def disjointness_budget(d: int, T: float) -> float:
    """Stable-direction box width C_d T below which windows are disjoint
    away from the cusp.

    For d = 2 no two windows overlap.  For d = 3 and L = I two windows can
    overlap only if both sources are cusp sources (see
    ``algebra.cd_lower``); Farey neighbours 1/(q q') apart on a coordinate
    line give such overlaps for any eps once t is large enough.
    """
    if T < 1:
        raise HorolabError("budget defined for T >= 1")
    return cd_lower(d) * T


def _box_contains(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    # half-open [lo, hi), lower bound inclusive with absolute tolerance
    return bool(np.all(x >= lo - BOUNDARY_ATOL) and np.all(x < hi))


def complete_to_unimodular(p) -> np.ndarray:
    """Integer matrix with determinant one whose bottom row is the primitive
    vector p.

    Works in exact integer arithmetic: gcd column operations drive p to a
    standard basis vector while the inverse transform is tracked row-wise.
    """
    vec = [int(v) for v in p]
    d = len(vec)
    v = [[1 if i == j else 0 for j in range(d)] for i in range(d)]  # inverse transform
    while True:
        nz = [j for j, x in enumerate(vec) if x != 0]
        if not nz:
            raise HorolabError("zero vector cannot be completed")
        if len(nz) == 1:
            break
        nz.sort(key=lambda j: abs(vec[j]))
        j0, j1 = nz[0], nz[1]
        qq = vec[j1] // vec[j0]
        vec[j1] -= qq * vec[j0]
        v[j0] = [a + qq * b for a, b in zip(v[j0], v[j1])]
    j = next(j for j, x in enumerate(vec) if x != 0)
    if abs(vec[j]) != 1:
        raise HorolabError("vector is not primitive")
    if j != d - 1:
        v[j], v[d - 1] = v[d - 1], v[j]
        v[j] = [-a for a in v[j]]
        vec[j], vec[d - 1] = 0, vec[j]
    if vec[d - 1] == -1:
        v[d - 1] = [-a for a in v[d - 1]]
        v[0] = [-a for a in v[0]]
    from .algebra import integer_det

    if integer_det(np.array(v, dtype=object)) == -1:
        v[0] = [-a for a in v[0]]
    gamma = np.array(v, dtype=np.int64)
    if gamma[d - 1].tolist() != [int(x) for x in p]:
        raise HorolabError("completion failed to reproduce the bottom row")
    return gamma


def _complete_stack(p: np.ndarray) -> np.ndarray:
    """complete_to_unimodular for a stack of primitive vectors (n, d): the
    same gcd steps in the same tie order, in int64, with vectors that are
    done sitting out.

    The determinant stays one throughout (row additions, and sign changes
    two rows at a time), so the scalar version's sign fix never fires and
    is left out here.
    """
    p = np.asarray(p, dtype=np.int64)
    vec = p.copy()
    n, d = vec.shape
    if not np.all(vec.any(axis=1)):
        raise HorolabError("zero vector cannot be completed")
    v = np.broadcast_to(np.eye(d, dtype=np.int64), (n, d, d)).copy()  # inverse transform
    unset = np.iinfo(np.int64).max
    while True:
        live = np.flatnonzero(np.count_nonzero(vec, axis=1) > 1)
        if live.size == 0:
            break
        lv = vec[live]
        order = np.argsort(np.where(lv != 0, np.abs(lv), unset), axis=1, kind="stable")
        j0, j1 = order[:, 0], order[:, 1]
        a0 = lv[np.arange(live.size), j0]
        qq = lv[np.arange(live.size), j1] // a0
        vec[live, j1] -= qq * a0
        v[live, j0] += qq[:, None] * v[live, j1]
    rows = np.arange(n)
    j = np.argmax(vec != 0, axis=1)
    unit = vec[rows, j]
    if np.any(np.abs(unit) != 1):
        raise HorolabError("vector is not primitive")
    # move the unit entry to slot d-1: swap rows j and d-1, negating the one moved up
    sw = np.flatnonzero(j != d - 1)
    moved = v[sw, j[sw]].copy()
    v[sw, j[sw]] = -v[sw, d - 1]
    v[sw, d - 1] = moved
    neg = unit == -1
    v[neg, d - 1] *= -1
    v[neg, 0] *= -1
    if not np.array_equal(v[:, d - 1], p):
        raise HorolabError("completion failed to reproduce the bottom row")
    return v


def _h_part(source, L) -> np.ndarray:
    """Parabolic part of gamma @ transpose-inverse(L) for the coset attached
    to a primitive source vector; a stack of sources (n, d) gives a stack."""
    source = np.asarray(source)
    gamma = (complete_to_unimodular(source) if source.ndim == 1 else _complete_stack(source)).astype(float)
    if L is not None:
        gamma = gamma @ np.linalg.inv(np.asarray(L, dtype=float)).T
    return hrd_coords(gamma).m_h


def _kprime_angle(k: np.ndarray):
    return np.arctan2(k[..., 1, 0], k[..., 0, 0])


def _angle_in(interval, theta):
    """Whether theta lies in the angle interval, mod 2 pi (None = all);
    an array of angles gives a mask."""
    if interval is None:
        return True
    lo, hi = interval
    width = (theta - lo) % (2 * math.pi)
    return width <= (hi - lo) + BOUNDARY_ATOL


def _recover_inner_rotation(kprime: np.ndarray, w: np.ndarray, c, zprime: np.ndarray, a_block: np.ndarray):
    """Invert the rotation-factor map: from the reduced K' block recover the
    free SO(d-1) parameter and the triangular diagonal it generates.  Stacked
    arguments (leading axis n) are inverted matrix by matrix."""
    c = np.asarray(c)[..., None, None]
    m0 = a_block - w[..., :, None] * zprime[..., None, :]
    gram = np.eye(w.shape[-1]) + w[..., :, None] * w[..., None, :] / (c * c)
    s_mat = kprime @ np.linalg.inv(gram) @ np.swapaxes(kprime, -1, -2)
    b = np.swapaxes(np.linalg.cholesky(np.linalg.inv(s_mat)), -1, -2)
    ktilde = b @ kprime @ np.linalg.inv(m0)
    return ktilde, b


# ---------------------------------------------------------------------------
# dual membership
# ---------------------------------------------------------------------------


def _test_candidate(target, L, x: np.ndarray, t: float, point: np.ndarray, alpha_d: float, source) -> Optional[dict]:
    d = target.d
    q_denom = math.exp((d - 1) * t)
    s = t - math.log(alpha_d) / (d - 1)
    xt = math.exp(d * t) * (point - x)
    if isinstance(target, StableSection):
        if alpha_d > q_denom * target.T ** (-(d - 1) / d) * (1 + 1e-12):
            return None
        y = np.asarray(target.ytilde)
        if _box_contains(xt, y - target.eps / 2.0, y + target.eps / 2.0):
            return {"s": s, "xt": xt}
        return None
    if isinstance(target, SphericalSection):
        z = chart_point_from_offset(target.chart, xt)
        if z is None:
            return None
        c = math.cos(float(np.linalg.norm(z)))
        if alpha_d > q_denom * target.T ** (-(d - 1) / d) * c * (1 + 1e-12):
            return None
        return {"s": s, "xt": xt, "z": z, "c": c}
    if isinstance(target, GrenierBoxStable):
        if d not in (2, 3):
            raise UnsupportedDimensionError("coordinate-box membership needs d in {2, 3}")
        y = np.asarray(target.ytilde)
        if not _box_contains(xt, y - target.eps / 2.0, y + target.eps / 2.0):
            return None
        m_h = _h_part(source, L)
        s_shift = s - math.log(target.T / target.T0) / d
        _gamma, coords = grenier_reduce(m_h, s_shift)
        if not _coords_in_box(coords, target.alphas, target.gammas, target.beta_lo, target.beta_hi, d):
            return None
        if d == 3 and not _angle_in(target.ktilde, _kprime_angle(coords.kprime)):
            return None
        return {"s": s, "xt": xt, "coords": coords}
    if isinstance(target, GrenierBoxSpherical):
        if d not in (2, 3):
            raise UnsupportedDimensionError("coordinate-box membership needs d in {2, 3}")
        z = chart_point_from_offset(target.chart, xt)
        if z is None:
            return None
        einv, c, _v, zp = chart_matrix(target.chart, z)
        m_h = _h_part(source, L)
        _gamma, coords = grenier_reduce(m_h, s)
        if d == 2:
            scale = target.T / (c * c * target.T_minus)
            lo = (target.alphas[0] * scale,)
            hi = (target.gammas[0] * scale,)
            if not (lo[0] - BOUNDARY_ATOL <= coords.ys[0] < hi[0]):
                return None
            return {"s": s, "xt": xt, "z": z, "coords": coords}
        a_block = einv[: d - 1, : d - 1]
        w = einv[: d - 1, d - 1]
        ktilde, b = _recover_inner_rotation(coords.kprime, w, c, zp, a_block)
        if not _angle_in(target.ktilde, _kprime_angle(ktilde)):
            return None
        beta = np.diag(b)[::-1]  # (beta_1, ..., beta_{d-1})
        scale1 = beta[1] / beta[0]
        scale2 = beta[0] * target.T / (c * target.T0)
        if not (target.alphas[0] * scale1 - BOUNDARY_ATOL <= coords.ys[0] < target.gammas[0] * scale1):
            return None
        if not (target.alphas[1] * scale2 - BOUNDARY_ATOL <= coords.ys[1] < target.gammas[1] * scale2):
            return None
        return {"s": s, "xt": xt, "z": z, "coords": coords}
    raise TypeError(f"unknown target {type(target)!r}")


def _coords_in_box(coords, alphas, gammas, beta_lo, beta_hi, d: int) -> bool:
    for k in range(d - 1):
        if not (alphas[k] - BOUNDARY_ATOL <= coords.ys[k] < gammas[k]):
            return False
    idx = 0
    for i in range(d):
        for j in range(i + 1, d):
            if not (beta_lo[idx] - BOUNDARY_ATOL <= coords.x[i, j] <= beta_hi[idx] + BOUNDARY_ATOL):
                return False
            idx += 1
    return True


def dual_hits(target, L, t: float, x: np.ndarray, si: np.ndarray, ci: np.ndarray,
              index: fy.FareyIndex) -> tuple[np.ndarray, dict]:
    """Batched dual membership over (sample, candidate) pairs.

    Pair k tests sample x[si[k]] against index point ci[k] and decides as
    _test_candidate does: the target's offset test on the renormalized
    offsets, then its source test on the pairs that pass.

    Returns the positions of the accepted pairs, in pair order, and their
    witness data: "s" and "xt", and by target kind "z", "c" and "coords"
    (GrenierCoords), each indexed like the positions.  For d = 2 stable
    boxes one sample with two accepted pairs raises DisjointnessError.
    """
    if t < 0:
        raise HorolabError("flow time t must be >= 0")
    d = target.d
    xt = math.exp(d * t) * (index.points[ci] - x[si])
    ok, chart = target.offset_mask(xt)
    pos = np.flatnonzero(ok)
    keep, found = target.source_mask(L, t, index, ci[pos], {key: v[pos] for key, v in chart.items()})
    pos = pos[keep]
    if not chart and d == 2 and pos.size > 1:
        # a Farey-neighbor gap argument makes this impossible below the
        # d = 2 budget; seeing it means the predicate itself is broken
        twice = np.bincount(si[pos]) > 1
        if np.any(twice):
            raise DisjointnessError(f"two stable witnesses found at x={x[int(np.argmax(twice))].tolist()}, t={t} for d=2")
    found.update(s=t - np.log(index.alpha_d[ci[pos]]) / (d - 1), xt=xt[pos])
    return pos, found


def _in_boxes(ys: np.ndarray, alphas, gammas, scale=1.0) -> np.ndarray:
    """Rows of ys (n, d-1) with alpha_k scale - tol <= y_k < gamma_k scale;
    scale broadcasts against ys."""
    return np.all((np.asarray(alphas) * scale - BOUNDARY_ATOL <= ys) & (ys < np.asarray(gammas) * scale), axis=1)


def member_dual(target, L, x, t: float, index: fy.FareyIndex = None) -> Optional[MembershipWitness]:
    """Dual membership: does the transpose-inverse horosphere point at
    parameter x, flow time t, land in the target?

    Witnesses are translated-Farey sources; the one with the smallest
    alpha_d is returned.  For d = 2 stable boxes below the disjointness
    budget there is at most one, and finding two raises; for d = 3 two cusp
    sources can both hit, and the witness then carries their count as
    ``extra["multiplicity"]``.  This is dual_hits for one sample, over the
    candidates index.near gives up to the top of the target's alpha
    window; without an index one is built over that window and the box of
    the candidate radius around x.
    """
    if t < 0:
        raise HorolabError("flow time t must be >= 0")
    d = target.d
    x = np.atleast_1d(np.asarray(x, dtype=float))
    radius = target.candidate_radius(t)
    alo, ahi = target.alpha_window(t)
    if index is None:
        index = fy.farey_index(d, ahi, L=L, box=(x - radius, x + radius), alpha_lo=alo)
    cand = index.near(x, radius, alpha_max=ahi)[:, 1]
    pos, found = dual_hits(target, L, t, x[None, :], np.zeros(cand.size, dtype=np.intp), cand, index)
    if pos.size == 0:
        return None
    k = int(np.argmin(index.alpha_d[cand[pos]]))  # the first smallest alpha_d, in candidate order
    extra = {key: found[key][k] for key in ("z", "c", "coords") if key in found}
    if pos.size > 1:
        # for d >= 3 distinct section sheets closer than the nominal budget
        # can genuinely meet near the tip; report the multiplicity
        extra["multiplicity"] = int(pos.size)
    return MembershipWitness(farey=index.record(int(cand[pos[k]])), s=float(found["s"][k]),
                             xt=tuple(found["xt"][k].tolist()), extra=extra)


# ---------------------------------------------------------------------------
# direct membership (independent oracle, stable boxes only)
# ---------------------------------------------------------------------------


def member_direct(target: StableSection, L, x, t: float) -> Optional[MembershipWitness]:
    """Direct membership of the horosphere point itself: the first primitive
    lattice row a = nL, in the lexicographic order of n, with
    0 < u = a'.x + a_d <= delta and the renormalized offset inside the
    stable box.  For every L the candidates are the n with
    n [L[:, :d-1] | L (x, 1)] = (a', u) in [-bound, bound]^{d-1} x [0, delta]."""
    if not isinstance(target, StableSection):
        raise ConfigError("direct membership is implemented for stable section targets only")
    if t < 0:
        raise HorolabError("flow time t must be >= 0")
    d = target.d
    x = np.atleast_1d(np.asarray(x, dtype=float))
    delta = math.exp(-(d - 1) * t) * target.T ** (-(d - 1) / d)
    sup_b = max(map(abs, target.ytilde)) + target.eps / 2.0
    # a witness has |xt| <= sup_b and u <= delta, so |a'| = |xt| u e^{dt} stays below this
    bound = math.ceil(sup_b * math.exp(t) * target.T ** (-(d - 1) / d)) + 2
    Lf = np.eye(d) if L is None else np.asarray(L, dtype=float)
    C = Lf.copy()
    C[:, -1] += Lf[:, :-1] @ x
    sources = fy.lattice_points(C, np.array([-bound] * (d - 1) + [0.0]), np.array([bound] * (d - 1) + [delta + 1e-15]))
    a = sources.astype(float) @ Lf
    u = a[:, : d - 1] @ x + a[:, d - 1]
    ok = (u > 0) & (u <= delta + 1e-15)
    if not ok.any():  # a thin slab often holds no primitive row
        return None
    return _slab_witness(target, t, sources[ok], a[ok, : d - 1], u[ok])


def _slab_witness(target, t: float, sources: np.ndarray, aprime: np.ndarray, u: np.ndarray) -> Optional[MembershipWitness]:
    """The first slab row whose renormalized offset lies in the stable box:
    the rows are primitive sources, the first d-1 entries of their images
    and their offsets u in the slab."""
    d = target.d
    with np.errstate(over="ignore"):  # a subnormal offset u gives an inf offset, which misses the box
        xt = math.exp(-d * t) * aprime / u[:, None]
    inside, _chart = target.offset_mask(xt)
    if not np.any(inside):
        return None
    idx = int(np.argmax(inside))
    y_d = math.exp((d - 1) * t) * float(u[idx])
    return MembershipWitness(
        farey=fy.TranslatedFareyPoint(
            source=tuple(int(v) for v in sources[idx]),
            alpha_prime=tuple(math.exp(-t) * aprime[idx]),
            alpha_d=y_d,
            point=tuple(xt[idx]),
        ),
        s=-math.log(y_d) / (d - 1),
        xt=tuple(xt[idx]),
    )


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureRecord:
    value: Optional[float]  # Haar measure of the target at its own T (None = unavailable)
    T: float
    ratio_exponent: float  # mu(target at T) / mu(target at T0) = (T0/T)^ratio_exponent
    method: str
    detail: str = ""


def spherical_measure_quadrature(chart: Chart, T: float, d: int) -> float:
    """Independent quadrature of the section-with-chart volume integral: the
    parabolic factor integrates to one, leaving the offset variable and the
    explicit exponential depth weight."""
    from scipy import integrate  # slow to import, and only this oracle uses it

    if d == 2:
        xmax = math.tan(chart.radius)

        def smin(xt):
            c = 1.0 / math.sqrt(1.0 + xt * xt)
            return math.log(T * c ** (-d / (d - 1.0))) / d

        val, _err = integrate.dblquad(
            lambda s, xt: (d - 1) * math.exp(-d * (d - 1) * s),
            -xmax,
            xmax,
            smin,
            lambda xt: smin(xt) + 20.0,
        )
        return val / zeta(d)
    if d == 3:
        rmax = math.tan(chart.radius)

        def smin(rho):
            c = 1.0 / math.sqrt(1.0 + rho * rho)
            return math.log(T * c ** (-d / (d - 1.0))) / d

        val, _err = integrate.dblquad(
            lambda s, rho: (d - 1) * 2.0 * math.pi * rho * math.exp(-d * (d - 1) * s),
            0.0,
            rmax,
            smin,
            lambda rho: smin(rho) + 10.0,
        )
        return val / zeta(d)
    raise UnsupportedDimensionError("quadrature oracle implemented for d in {2, 3}")


# ---------------------------------------------------------------------------
# disjointness sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointnessReport:
    d: int
    n_samples: int
    observed_min: float
    bound: float
    ok: bool


def disjointness_property_sample(d: int, n_samples: int, seed: int = 0) -> DisjointnessReport:
    """Sample reduced height-one parabolic elements and integer rows; the
    projected row norm stays above (3/4)^{(d-1)/2}, the constant behind the
    stable-translate disjointness budget.

    For d = 3 the sampled y_1 lies in [sqrt(3)/2, 4/3], away from the cusp.
    The bound fails in the cusp, where projected rows get arbitrarily short;
    that is where d = 3 windows below the budget can meet.
    """
    if d not in (2, 3):
        raise UnsupportedDimensionError("sampler implemented for d in {2, 3}")
    rng = np.random.default_rng(seed)
    bound = (3.0 / 4.0) ** ((d - 1) / 2.0)
    # the draws keep the order of a per-sample loop: element, then row
    draws = np.empty((n_samples, 1 if d == 2 else 5))
    n_vecs = np.empty((n_samples, d - 1), dtype=np.int64)
    for i in range(n_samples):
        if d == 2:
            draws[i, 0] = rng.uniform(-3, 3)
        else:
            draws[i, :3] = (rng.uniform(math.sqrt(3) / 2.0, 4.0 / 3.0), rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi))
            draws[i, 3:] = rng.uniform(-2, 2, size=2)
        n_vec = rng.integers(-5, 6, size=d - 1)
        while not np.any(n_vec):
            n_vec = rng.integers(-5, 6, size=d - 1)
        n_vecs[i] = n_vec
    m_h = np.broadcast_to(np.eye(d), (n_samples, d, d)).copy()
    if d == 2:
        m_h[:, 0, 1] = draws[:, 0]
    else:
        y1, xhat, ang = draws[:, 0], draws[:, 1], draws[:, 2]
        shear = np.broadcast_to(np.eye(2), (n_samples, 2, 2)).copy()
        shear[:, 0, 1] = xhat
        scale = np.zeros((n_samples, 2, 2))
        scale[:, 0, 0], scale[:, 1, 1] = np.sqrt(y1), 1.0 / np.sqrt(y1)
        rot = np.stack([np.cos(ang), -np.sin(ang), np.sin(ang), np.cos(ang)], axis=1).reshape(-1, 2, 2)
        m_h[:, :2, :2] = shear @ scale @ rot
        m_h[:, :2, 2] = draws[:, 3:]
    gamma, _coords = grenier_reduce(m_h, 0.0)
    m_hat = gamma.astype(float) @ m_h
    b_hat = m_hat[:, : d - 1, d - 1 :]
    rows = np.concatenate([n_vecs.astype(float), -(n_vecs[:, None, :].astype(float) @ b_hat)[:, 0]], axis=1)
    observed = float(np.linalg.norm((rows[:, None, :] @ m_hat)[:, 0], axis=1).min()) if n_samples else math.inf
    return DisjointnessReport(d=d, n_samples=n_samples, observed_min=observed, bound=bound,
                              ok=observed >= bound - 1e-9)


def with_level(target, T: float):
    """Copy of a target at a different shrinking level T."""
    return replace(target, T=T)
