"""Farey and translated-Farey sequences as primitive lattice points.

A point of the sequence attached to a unimodular L is a primitive integer
row vector (p_1, ..., p_{d-1}, q) pushed through the transpose-inverse of L,
giving (alpha', alpha_d) with alpha_d > 0; the projected point is
alpha'/alpha_d.  For L = I this is the classical Farey set p/q.

sequence_arrays is the one function that branches on L for the point set.
Every other point set, translated sequences and the slab of the direct
membership test alike, comes from one row walk, lattice_points.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _kernels as K
from ._kernels import _ramp
from .algebra import TOL, as_fraction_matrix, as_fraction_scalar, fraction_matrix_inverse, integer_det, swap_element, zeta
from .errors import HorolabError, InvalidDimensionError, ResourceLimitError


@dataclass(frozen=True)
class TranslatedFareyPoint:
    """One lattice point: integer source, its image, and the projected point."""

    source: tuple  # (p_1, ..., p_{d-1}, q), primitive
    alpha_prime: tuple
    alpha_d: float
    point: tuple

    @property
    def d(self) -> int:
        return len(self.source)


@dataclass(frozen=True)
class DuplicateRegion:
    """Parameter region free of repeated orbit points: all of R^{d-1}, or a
    torus whose period lattice rows are ``period_basis``."""

    kind: str  # "all" or "torus"
    period_basis: Optional[np.ndarray] = None


_FINE = 16  # cells on key axis 1 per cell on key axis 0


class FareyIndex:
    """Immutable array-backed point set in (alpha_d, source) order.

    Rows that already come in that order, as the identity-L kernels emit
    them ((q, p) order), are kept as they are; others are sorted once.  The
    projected points are bucketed on a grid of about n cells along axis 0
    when d = 2, or about sqrt(n) along axis 0 and _FINE times as many along
    axis 1 when d >= 3, so that a cell holds O(1) points on average, and
    held sorted by their int64 row-major cell key for near().
    """

    def __init__(self, d: int, sources: np.ndarray, alpha: np.ndarray):
        cols = [alpha[:, d - 1], *(sources[:, j] for j in range(d - 1))]
        if not _rows_ascend(cols):
            order = np.lexsort(cols[::-1])
            sources, alpha = sources.take(order, axis=0), alpha.take(order, axis=0)
        self.d = d
        self.sources = sources
        self.alpha = alpha
        self.alpha_d = alpha[:, d - 1]
        self.points = alpha[:, : d - 1] / self.alpha_d[:, None]
        n, k = len(self), min(d - 1, 2)
        # column by column: a reduction along axis 0 of a narrow array is slow
        self._lo = np.array([self.points[:, a].min() if n else 0.0 for a in range(k)])
        extent = np.array([self.points[:, a].max() if n else 0.0 for a in range(k)]) - self._lo
        # no finer than 2^-30 of the coordinates, so rounding moves a cell id by under one
        scale = np.maximum(np.abs(self._lo), np.abs(self._lo + extent))
        cell = np.maximum(extent / ((n if k == 1 else math.isqrt(n)) + 1.0) / [1.0, _FINE][:k], 2.0**-30 * scale)
        self._cell = np.where(cell > 0, cell, 1.0)
        self._spans = np.floor(extent / self._cell) + 1.0
        keys = np.zeros(n, np.int64)
        for a in range(k):
            keys *= int(self._spans[a])
            keys += np.floor((self.points[:, a] - self._lo[a]) / self._cell[a]).astype(np.int64)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def __len__(self) -> int:
        return self.sources.shape[0]

    def near(self, xs, radius: float, alpha_max: float = None) -> np.ndarray:
        """The (sample, index) pairs with point index within sup-distance
        radius of xs[sample] (and alpha_d <= alpha_max when it is given),
        as an (n, 2) int64 array ordered by sample, then index.  xs is an
        (m, d-1) batch of samples; one point is the batch of one.

        Each sample's box, widened by one cell on each side of axis 1, is a
        range of cell keys per axis-0 cell it spans; one searchsorted finds
        them all.  Their total length is checked against ENUM_BUDGET before any
        pair is gathered, and the gathered pairs are then held to the exact
        tests x_0 - r <= p_0 <= x_0 + r and |p_i - x_i| <= r (i >= 1).
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != self.d - 1:
            raise InvalidDimensionError(f"samples need {self.d - 1} coordinates, got {xs.shape[1]}")
        k = self._lo.size
        # Axis 0 needs no widening: its exact test compares p_0 with the same
        # floats x_0 -+ r the cell ids come from, and rounding is monotone.
        # |p_1 - x_1| <= r rounds otherwise, so axis 1 is widened by a cell.
        widen = np.array([0.0, 1.0])[:k]
        # float cell ids, clipped so that a box off the grid, or NaN, is empty
        first = np.fmax(np.fmin(np.floor((xs[:, :k] - radius - self._lo) / self._cell) - widen, self._spans), 0.0)
        last = np.fmin(np.fmax(np.floor((xs[:, :k] + radius - self._lo) / self._cell) + widen, -1.0), self._spans - 1.0)
        first, last = first.astype(np.int64), last.astype(np.int64)
        live, base = first[:, -1:] <= last[:, -1:], 0
        if k == 2:
            # one key range per (sample, axis-0 cell), the cells past a sample's last masked
            width = max(int((last[:, 0] - first[:, 0]).max(initial=-1)) + 1, 0)
            check_budget(xs.shape[0] * width, "cell ranges of the sample candidates")
            c0 = first[:, :1] + np.arange(width)
            live = live & (c0 <= last[:, :1])
            base = c0 * int(self._spans[1])
        lo_key, hi_key = base + first[:, -1:], base + last[:, -1:]
        start, stop = np.searchsorted(self._keys, np.stack([lo_key, hi_key + 1]))
        counts = np.where(live, stop - start, 0).ravel()
        check_budget(int(counts.sum()), "sample candidates")
        sample = np.repeat(np.arange(xs.shape[0]), counts.reshape(xs.shape[0], -1).sum(axis=1))
        idx = self._order[np.repeat(start.ravel(), counts) + _ramp(counts)]
        x0 = xs[sample, 0]
        keep = (self.points[idx, 0] >= x0 - radius) & (self.points[idx, 0] <= x0 + radius)
        for a in range(1, self.d - 1):
            keep &= np.abs(self.points[idx, a] - xs[sample, a]) <= radius
        if alpha_max is not None:
            keep &= self.alpha_d[idx] <= alpha_max
        # sample-major, index ascending within a sample
        n = max(len(self), 1)
        return np.stack(np.divmod(np.sort(sample[keep] * n + idx[keep]), n), axis=1)

    def record(self, i: int) -> TranslatedFareyPoint:
        return TranslatedFareyPoint(
            source=tuple(int(v) for v in self.sources[i]),
            alpha_prime=tuple(float(v) for v in self.alpha[i, : self.d - 1]),
            alpha_d=float(self.alpha_d[i]),
            point=tuple(float(v) for v in self.points[i]),
        )


ENUM_BUDGET = 30_000_000


def check_budget(n: float, what: str) -> None:
    """Raise before a sieve or an enumeration of n items is allocated when
    n, a count or a float bound, exceeds ENUM_BUDGET or is NaN."""
    if not n <= ENUM_BUDGET:
        raise ResourceLimitError(f"{what} {n} over budget", ENUM_BUDGET)


def _check_q(Q: float) -> None:
    if Q < 1:
        raise HorolabError(f"denominator bound Q must be >= 1, got {Q}")


def _unit_box(d: int):
    return np.zeros(d - 1), np.ones(d - 1)


def _grid_bound(qmax: int, lo: np.ndarray, hi: np.ndarray) -> float:
    """Upper bound on the candidates the kernels test for 0 < q <= qmax:
    sum_q prod_i (q l_i + 1) with l_i = max(hi_i - lo_i, 0), in closed form.

    The product is a polynomial sum_k c_k q^k, and the power sums
    S_k = sum_{q <= qmax} q^k follow exactly, in integers, from
    (qmax + 1)^{k+1} - 1 = sum_{j <= k} C(k + 1, j) S_j.
    """
    coef = [1.0]  # c_0, c_1, ... of prod_i (l_i q + 1)
    for l in np.maximum(hi - lo, 0.0):
        coef = [a + float(l) * b for a, b in zip(coef + [0.0], [0.0] + coef)]
    sums = []
    for k in range(len(coef)):
        rest = (qmax + 1) ** (k + 1) - 1 - sum(math.comb(k + 1, j) * sums[j] for j in range(k))
        sums.append(rest // (k + 1))
    return sum(c * s for c, s in zip(coef, sums))


def _checked_grid(d: int, Q: float, box, q_first: int = 1):
    """(qmax, lo, hi) of the identity-L Farey points with
    q_first <= q <= Q and p/q in the box (the unit box by default), once Q,
    d and the candidate grid of those denominators have been checked; the
    grid is refused above ENUM_BUDGET before any kernel runs."""
    _check_q(Q)
    if d < 2:
        raise InvalidDimensionError(f"d must be >= 2, got {d}")
    if box is None:
        lo, hi = _unit_box(d)
    else:
        lo, hi = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    qmax = int(math.floor(Q))
    bound = _grid_bound(qmax, lo, hi) - _grid_bound(q_first - 1, lo, hi)
    check_budget(bound, "Farey candidate grid")
    return qmax, lo, hi


def farey_arrays(d: int, Q: float, box=None, q_first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Primitive (p, q) with q_first <= q <= Q and p/q in the closed box (the
    unit box by default), in the kernels' (q, p) order, checked by
    _checked_grid before the kernel runs.

    Returns (sources, sources): for L = I the images are the int64 sources.
    """
    qmax, lo, hi = _checked_grid(d, Q, box, q_first)
    # one kernel for every d; d = 2 and 3 call it through the names perfbench traces
    if d == 2:
        sources = K.farey_d2(qmax, float(lo[0]), float(hi[0]), q_first)
    elif d == 3:
        sources = K.farey_d3(qmax, float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]), q_first)
    else:
        sources = K.farey_points(qmax, lo, hi, q_first)
    return sources, sources


def enumerate_farey(d: int, Q: float) -> list[TranslatedFareyPoint]:
    """Classical sequence: p/q in [0, 1)^{d-1}, primitive (p, q), 0 < q <= Q.

    Sorted lexicographically by (q, p).
    """
    _check_q(Q)
    sources, alpha = sequence_arrays(d, Q)
    keep = np.all(sources[:, : d - 1] < sources[:, d - 1 :], axis=1)  # half-open: p_i < q
    idx = FareyIndex(d, sources.compress(keep, axis=0), alpha.compress(keep, axis=0))
    return [idx.record(i) for i in range(len(idx))]


def lattice_points(C: np.ndarray, clo, chi) -> np.ndarray:
    """Primitive integer rows n whose image n @ C (C a float invertible
    matrix) can lie in the box [clo, chi], in lexicographic order.

    The rows n_1, ..., n_{d-1} run over the integer box around the preimage
    corners, inflated by 1; n_d over one range per row, where every image
    coordinate can lie in its side, a hair wider than the float ends.  The
    row count, then the summed range lengths, are checked against
    ENUM_BUDGET before either is allocated."""
    M = np.linalg.inv(C)  # the preimage corners span center @ M +- halfwidth @ |M|
    mid, spread = (chi + clo) / 2 @ M, (chi - clo) / 2 @ np.abs(M)
    plo, phi = (np.floor(mid - spread) - 1).tolist(), (np.ceil(mid + spread) + 1).tolist()
    check_budget(math.prod(b - a + 1 for a, b in zip(plo[:-1], phi[:-1])), "preimage box rows")
    axes = [np.arange(a, b + 1) for a, b in zip(plo[:-1], phi[:-1])]
    lo, hi = plo[-1], phi[-1]
    sides = list(zip(clo.tolist(), chi.tolist()))
    lower, upper = np.empty((2, math.prod(a.size for a in axes)))  # each row's n_d range
    lower[:], upper[:] = lo, hi
    # coordinate j bounds n_d to (side - s_j) / c_j; for c_j = 0 that is all of
    # it or none, or 0/0 on the side's edge, a NaN that fmax and fmin pass over,
    # and a subnormal c_j can send an end to infinity
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for side, (*col, c) in zip(sides, (C + 0.0).T.tolist()):  # + 0.0 turns -0.0 into 0.0
            s = axes[0] * col[0]  # the rows' partial images in this coordinate, row-major
            for a, cij in zip(axes[1:], col[1:]):
                s = np.add.outer(s, a * cij).ravel()
            ends = np.subtract.outer(side if c >= 0 else side[::-1], s) / c
            np.fmax(lower, ends[0], out=lower)
            np.fmin(upper, ends[1], out=upper)
    # a hair relative to the largest |n_d| of the box, then clipped one past
    # it, so that an end near +-1e17 (an entry of C that should be 0) or an
    # infinite one never reaches the cast
    hair = 1e-9 * (1 + max(-lo, hi))
    first = np.ceil(np.minimum(lower - hair, hi + 1))
    last = np.floor(np.maximum(upper + hair, lo - 1))
    check_budget(float(np.add.reduce(np.maximum(last - first + 1, 0))), "preimage box")
    return K.primitive_box([*plo[:-1], first], [*phi[:-1], last])


def _lattice_images(L, alo, ahi) -> tuple[np.ndarray, np.ndarray]:
    """Primitive sources whose images alpha = p @ L^{-T} can lie in the box
    [alo, ahi], with those images, for the caller to filter."""
    L = np.asarray(L)
    tLinv = np.asarray((fraction_matrix_inverse(L) if L.dtype == object else np.linalg.inv(L)).T, dtype=float)
    sources = lattice_points(tLinv, alo, ahi)
    return sources, sources.astype(float) @ tLinv


def translated_arrays(L, Q: float, box) -> tuple[np.ndarray, np.ndarray]:
    """Primitive lattice points through the transpose-inverse of L.

    Enumerates the integer sources whose images can lie in the bounding box
    of the admissible cone, then filters; this makes the enumeration
    provably exhaustive.  Q below 1 is allowed: under a general L an image
    alpha_d can lie in (0, 1).
    """
    d = np.asarray(L).shape[0]
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise HorolabError("translated enumeration needs a bounded box")
    # bounding box of {alpha : 0 < alpha_d <= Q, lo*alpha_d <= alpha' <= hi*alpha_d},
    # widened to the filter's tolerance 1e-12
    alo = np.append(np.minimum(lo - 1e-12, 0.0) * (Q + 1e-12), 0.0)
    ahi = np.append(np.maximum(hi + 1e-12, 0.0) * (Q + 1e-12), Q + 1e-12)
    sources, alpha = _lattice_images(L, alo, ahi)
    ad = alpha[:, d - 1]
    keep = (ad > 0) & (ad <= Q + 1e-12)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(d - 1):
            x = alpha[:, a] / ad
            keep &= x >= lo[a] - 1e-12
            keep &= x <= hi[a] + 1e-12
    return sources.compress(keep, axis=0), alpha.compress(keep, axis=0)


def translated_alpha_box_arrays(L, Q: float) -> tuple[np.ndarray, np.ndarray]:
    """Primitive lattice points with the image vector itself confined to
    [0, Q]^{d-1} x (0, Q] (the canonical finite subsets of the translated
    sequence; their count grows like Q^d / zeta(d))."""
    _check_q(Q)
    d = np.asarray(L).shape[0]
    sources, alpha = _lattice_images(L, np.full(d, -1e-9), np.full(d, Q + 1e-9))
    keep = (alpha[:, d - 1] > 0) & np.all(alpha <= Q + 1e-9, axis=1) & np.all(alpha >= -1e-9, axis=1)
    return sources.compress(keep, axis=0), alpha.compress(keep, axis=0)


def sequence_arrays(d: int, Q: float, L=None, box=None, alpha_lo: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Sources and images of the sequence attached to L (None: identity)
    with alpha_lo <= alpha_d <= Q and projected point in the closed box (the
    unit box by default), their candidates checked against ENUM_BUDGET before
    any is listed.  The one branch on L: identity L takes farey_arrays from
    q = ceil(alpha_lo), empty for Q < 1; any other L the row walk."""
    if L is not None:
        sources, alpha = translated_arrays(L, Q, _unit_box(d) if box is None else box)
        if alpha_lo > 0:
            keep = alpha[:, d - 1] >= alpha_lo
            sources, alpha = sources.compress(keep, axis=0), alpha.compress(keep, axis=0)
    elif Q < 1:
        sources = alpha = np.empty((0, d), np.int64)
    else:
        sources, alpha = farey_arrays(d, Q, box=box, q_first=max(math.ceil(alpha_lo), 1))
    return sources, alpha


def farey_index(d: int, Q: float, L=None, box=None, alpha_lo: float = 0.0) -> FareyIndex:
    """Array index of the points of sequence_arrays."""
    return FareyIndex(d, *sequence_arrays(d, Q, L=L, box=box, alpha_lo=alpha_lo))


def count_farey_arrays(d: int, Q: float, box=None) -> int:
    """len(farey_arrays(d, Q, box)) without listing the points: the
    per-denominator Moebius count of K.farey_mobius_sums over the kernels'
    own ranges, once _checked_grid has passed; 0 for Q < 1."""
    if Q < 1:
        return 0
    return K.farey_mobius_sums(*_checked_grid(d, Q, box))[1]


def window_index(d: int, Q: float, window, L=None, box=None) -> tuple[FareyIndex, int]:
    """The index of the points of sequence_arrays(d, Q, L, box) with alpha_d
    in window = (lo, hi), and the number of all those points.

    Identity L counts them per denominator (count_farey_arrays, whose grid
    budget check runs first) and lists only the denominators of the window;
    any other L takes the one row walk up to Q and keeps the window's."""
    lo, hi = window
    if L is None:
        count = count_farey_arrays(d, Q, box)
        return farey_index(d, min(hi, Q), box=box, alpha_lo=lo), count
    sources, alpha = sequence_arrays(d, Q, L=L, box=box)
    keep = (alpha[:, d - 1] >= lo) & (alpha[:, d - 1] <= hi)
    return FareyIndex(d, sources.compress(keep, axis=0), alpha.compress(keep, axis=0)), sources.shape[0]


def count_farey(d: int, Q: float) -> tuple[int, float]:
    """Exact count of the classical sequence and its large-Q prediction.

    The exact count is a Jordan-totient sieve sum (J_1 is Euler's phi), and
    0 when Q < 1; the prediction is Q^d / (d zeta(d)).
    """
    if d < 2:
        raise InvalidDimensionError(f"d must be >= 2, got {d}")
    qmax = int(math.floor(Q))
    exact = 0
    if qmax >= 1:
        check_budget(qmax, "sieve length")
        exact = int(K.jordan_sieve(qmax, d - 1)[1:].sum())
    return exact, Q**d / (d * zeta(d))


def count_farey_in_interval(Q: float, u: float, v: float, scale: float = 1.0) -> int:
    """d = 2 only: number of reduced p/q with q <= Q (0 when Q < 1) that the
    floats admit, floor(fl(fl(q*scale)*u)) < p <= floor(fl(fl(q*scale)*v)):
    the points p/(scale*q) in (u, v] up to rounding.

    Moebius inversion turned inside out: with P(k) the number of pairs
    (p, q), q <= k, that the floats admit (a floor-sum prefix), the count is
    the sum over e <= m = floor(Q) of mu(e) P(m // e).  m // e takes about
    2 sqrt(m) distinct values, each on a block of consecutive e, so the sum
    is one integer dot product of the blocks' Moebius sums with P at the
    block values.  Those sums are differences of the Mertens function at the
    sorted quotients, O(m^{2/3}) work; P comes from floor sums at the same
    quotients only (_floor_prefix), with no length-m array.
    """
    m = int(math.floor(Q))
    if m < 1:
        return 0
    check_budget(m, "sieve length")
    ends, mertens = K.mertens_quotients(m)
    return int(np.dot(np.diff(mertens, prepend=0), _interval_prefix(u, v, scale, m, m // ends)))


def _interval_prefix(u: float, v: float, scale: float, m: int, n: np.ndarray) -> np.ndarray:
    """K.floor_diff_prefix(u, v, m, scale)[n] for int64 n in 0..m; the whole
    parts (floor(scale*v) - floor(scale*u)) n (n + 1) / 2 are taken together,
    so no term is larger than that prefix."""
    (fu, ru), (fv, rv) = (_floor_prefix(x, scale, m, n) for x in (u, v))
    return (fv - fu) * (n * (n + 1) // 2) + (rv - ru)


def rounding_slack(x: Fraction) -> Fraction:
    """The larger of 4 eps |x| and 2^-1074.

    A float product fl(fl(k*scale)*s) is within two roundings of k x,
    x = scale*s: under 4 eps relative, or 2^-1074 absolute below the normal
    range, so within k times this of k x.  An integer j between the two
    therefore has j/k within this of x.
    """
    return max(Fraction(4 * np.finfo(float).eps) * abs(x), Fraction(1, 2**1074))


_CHUNK = 1 << 16  # multiples per step of the rounding check in _floor_prefix


def _floor_prefix(x: float, scale: float, m: int, n: np.ndarray) -> tuple[int, np.ndarray]:
    """(floor(X), R) for X = scale*x taken exactly, where R[i] is the sum over
    1 <= k <= n[i] of floor(fl(fl(k*scale)*x)) - floor(X) k, for int64 n in 0..m.

    With a/b the left neighbour of X in F_m no member of F_m lies in
    (a/b, X], so floor(k X) = floor(k a / b) for every k <= m, and that part
    of R is K.floor_sums.  The float floor differs from floor(k X) only where
    an integer j lies between the two, so j/k is within s = rounding_slack(X)
    of X and k is a multiple of the denominator q of a member p/q of F_m
    there.  Those multiples k = t q are evaluated with the same float
    expression, _CHUNK at a time, and the differences added by a cumsum;
    floor(k X) - t p = floor(t (q X - p)) is one integer over a chunk unless
    X is large.  While s m < 1/2, two members are more than 1/m apart, so no
    k is a multiple of both; each k is off by at most one; and X's own
    multiples, k X < 2^53, are exact.  Near a small q without being on it
    (scale = fl(sqrt 2)^2, say) the check is O(m / q).
    """
    X = Fraction(scale) * Fraction(x)
    whole = math.floor(X)
    (a, b), _ = farey_neighbours(X, m)
    a -= whole * b
    out = K.floor_sums(n, a, b)
    s = rounding_slack(X)
    # about 1.2 s m^2 members lie in the window, at some 20 us each; past
    # s m = 5e-4, well inside the s m < 1/2 the members need, a check of
    # every k, as the multiples of 0/1 at some 15 ns each, is cheaper
    wide = s * m > 5e-4
    for p, q in [(0, 1)] if wide else zip(*(c.tolist() for c in farey_between(X - s, X + s, m))):
        c = q * X - p
        if c == 0:
            continue
        for lo in range(1, m // q + 1, _CHUNK):
            t = np.arange(lo, min(m // q + 1, lo + _CHUNK), dtype=np.int64)
            k = t * q
            f = k * scale
            f *= x
            g = np.floor(f, out=f).astype(np.int64)
            g -= t * p
            e = math.floor(lo * c)
            if e != math.floor(int(t[-1]) * c):
                e = k * a // b + whole * k - t * p  # floor(t c) for each t
            off = np.flatnonzero(g != e)
            out += np.concatenate(([0], np.cumsum((g - e)[off])))[np.searchsorted(k[off], n, side="right")]
    return whole, out


def farey_neighbours(x: Fraction, m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The consecutive members l <= x < r of F_m, the reduced fractions p/q
    with 1 <= q <= m on the whole line, as (p, q) pairs.

    A Stern-Brocot descent from floor(x)/1 and (floor(x) + 1)/1: while the
    mediant of l and r has denominator <= m it lies between them, and the
    end on its side of x moves towards the other as many mediant steps as
    stay on that side and within F_m, all at once.  That takes O(log m)
    steps, like Euclid's algorithm on x.
    """
    n, d = x.numerator, x.denominator
    lp, lq, rp, rq = n // d, 1, n // d + 1, 1
    while lq + rq <= m:
        gap_l, gap_r = n * lq - d * lp, d * rp - n * rq  # d q (x - l) >= 0, d q (r - x) > 0
        if (lp + rp) * d <= n * (lq + rq):
            j = min(gap_l // gap_r, (m - lq) // rq)
            lp, lq = lp + j * rp, lq + j * rq
        else:
            j = (m - rq) // lq if gap_l == 0 else min((gap_r - 1) // gap_l, (m - rq) // lq)
            rp, rq = rp + j * lp, rq + j * lq
    return (lp, lq), (rp, rq)


def farey_between(a: Fraction, b: Fraction, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The members p/q of F_m with a <= p/q <= b, increasing, as int64
    columns (p, q): a walk from the neighbours of a by the next-term
    recurrence of consecutive Farey fractions h/k < h'/k', whose successor
    is (z h' - h)/(z k' - k) with z = (k + m) // k' (Graham, Knuth and
    Patashnik, Concrete Mathematics, 4.5).  The walk is one step per
    fraction listed.
    """
    (hp, hq), (kp, kq) = farey_neighbours(a, m)
    ps, qs = ([hp], [hq]) if Fraction(hp, hq) == a <= b else ([], [])
    while Fraction(kp, kq) <= b:
        ps.append(kp)
        qs.append(kq)
        z = (hq + m) // kq
        hp, hq, kp, kq = kp, kq, z * kp - hp, z * kq - hq
    return np.array(ps, dtype=np.int64), np.array(qs, dtype=np.int64)


def _exact_or_float(L) -> np.ndarray:
    """L as a Fraction matrix when every entry is exactly rational, else as floats."""
    L = np.asarray(L)
    try:
        return as_fraction_matrix(L)
    except (TypeError, ValueError):
        return L.astype(float)


def _block_period(M: np.ndarray, d: int) -> Optional[np.ndarray]:
    """A^{-1}/det(A) for the top-left (d-1)-block A of M, or None if it is
    singular: in Fractions for a Fraction matrix, else in floats."""
    A = M[: d - 1, : d - 1]
    if M.dtype == object:
        det = Fraction(integer_det(A))
        return None if det == 0 else fraction_matrix_inverse(A) / det
    det = float(np.linalg.det(A))
    return None if abs(det) < 1e-12 else np.linalg.inv(A) / det


def duplicate_region(L, assume_generic: bool = False) -> DuplicateRegion:
    """Necessary-condition lattice for repeated orbit points of the translated
    horosphere parameter.

    For generic L the region is all of R^{d-1}.  Otherwise the translation
    offsets s with L n_-(s) L^{-1} integral are confined to the row lattice
    A^{-1}/det(A) built from the top-left block A of the transpose of L (with
    a signed-swap fallback when that block is singular).  This is conservative:
    actual duplicates may form a proper sublattice.
    """
    if assume_generic:
        return DuplicateRegion(kind="all")
    tL = _exact_or_float(L).T
    d = tL.shape[0]
    # j = d is the identity swap, the first attempt
    for M in [tL] + [tL @ swap_element(j, d).astype(tL.dtype) for j in range(1, d)]:
        basis = _block_period(M, d)
        if basis is not None:
            return DuplicateRegion(kind="torus", period_basis=np.asarray(basis, dtype=float))
    raise HorolabError("no signed swap produced an invertible block; L cannot be unimodular")


def is_gamma_duplicate(L, s, tol: float = None) -> bool:
    """True iff translating the horosphere parameter by s lands on the same
    orbit point: L n_-(s) L^{-1} must be an integer matrix (determinant is
    automatically one)."""
    if tol is None:
        tol = TOL
    M = _exact_or_float(L)
    d = M.shape[0]
    s = np.atleast_1d(s)
    svec = [as_fraction_scalar(x) for x in s]
    if M.dtype == object and None not in svec:
        n_minus = np.identity(d, dtype=object)
        n_minus[: d - 1, d - 1] = svec
        G = M @ n_minus @ fraction_matrix_inverse(M)
        return all(Fraction(g).denominator == 1 for g in G.flat)
    Lf = M.astype(float)
    n_minus = np.eye(d)
    n_minus[: d - 1, d - 1] = np.asarray(s, dtype=float)
    G = Lf @ n_minus @ np.linalg.inv(Lf)
    return bool(np.all(np.abs(G - np.round(G)) <= tol * max(1.0, np.abs(G).max())))


_CELL_SLACK = 1.0 + 2.0**-20  # cells a hair wider than max w
_MAX_SPAN = 2**30  # cells per axis: a computed cell coordinate is then off by under 2^-22 cell
_MAX_KEYS = 2**53  # product of the padded spans: float64 keys stay exact integers


def _cell_keys(points: np.ndarray, max_w: float):
    """Row-major int64 keys of the cells (wider than max_w) holding the
    points, and the key step of each axis.

    Cell ids run from 1 to span - 2 on each axis, so id +- 1 never wraps
    into another row and a key names exactly one cell.  Where a span would
    pass _MAX_SPAN, or their product _MAX_KEYS, the cell is doubled until
    none does; a wider cell only adds candidate pairs.
    """
    # column by column: a reduction along axis 0 of a narrow array is slow
    lo = np.array([points[:, a].min() for a in range(points.shape[1])])
    extent = np.array([points[:, a].max() for a in range(points.shape[1])]) - lo
    if not np.all(np.isfinite(extent)):
        raise HorolabError("collision_pairs needs finite points")
    # starting no finer than extent / _MAX_SPAN keeps extent / cell finite
    cell = max(max_w * _CELL_SLACK, float(extent.max()) / _MAX_SPAN)
    while True:
        spans = np.floor(extent / cell) + 3.0
        if spans.max() <= _MAX_SPAN and float(np.prod(spans)) <= _MAX_KEYS:
            break
        cell *= 2.0
    steps = np.append(np.cumprod(spans[:0:-1])[::-1], 1.0)
    # column by column, each id floor((x_a - lo_a) / cell) + 1 times its step:
    # the sum is the row-major key, an exact integer below _MAX_KEYS
    keys = None
    for a in range(points.shape[1]):
        ids = points[:, a] - lo[a]
        ids /= cell
        np.floor(ids, out=ids)
        ids += 1.0
        ids *= steps[a]
        keys = ids if keys is None else np.add(keys, ids, out=keys)
    return keys.astype(np.int64), steps.astype(np.int64)


def _rows_ascend(keys: list) -> bool:
    """True when the rows are in lexicographic order of the key columns,
    the first key most significant; ties count as in order."""
    tied = np.ones(max(keys[0].size - 1, 0), dtype=bool)
    for key in keys:
        if np.any(tied & (key[1:] < key[:-1])):
            return False
        tied &= key[1:] == key[:-1]
    return True


def _block_pairs(start_i, n_i, start_j, n_j):
    """Index pairs (start_i[k] + a, start_j[k] + b), a < n_i[k], b < n_j[k],
    block by block, a major."""
    m = n_i * n_j
    link = np.repeat(np.arange(m.size), m)
    a, b = np.divmod(_ramp(m), n_j[link])
    return start_i[link] + a, start_j[link] + b


def _cell_pair_rows(order, starts, counts, ci, cj):
    """All (row of cell ci, row of cell cj) pairs over the cell pairs (ci, cj)."""
    a, b = _block_pairs(starts[ci], counts[ci], starts[cj], counts[cj])
    return order[a], order[b]


def collision_clusters(points: np.ndarray, w) -> list[np.ndarray]:
    """Clusters of close points: the connected components of the close pairs
    of collision_pairs (component_clusters).  Each cluster is sorted, and
    the clusters are ordered by their smallest member.

    No window sum needs clusters: the stable union and the spherical
    lenses read the pairs of collision_pairs themselves.  The A8
    disjointness checks take the clusters, and perfbench's tracer times
    this function by name.
    """
    pi, pj = collision_pairs(points, w)
    if pi.size == 0:
        return []
    members, sizes = component_clusters(pi, pj)
    cuts = np.cumsum(sizes)[:-1].tolist()
    return [members[a:b] for a, b in zip([0] + cuts, cuts + [members.size])]


def collision_pairs(points: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """Close pairs of rows (i, j), each once: a pair is close when its
    sup-norm gap is below (w_i + w_j)/2, with w one width for all points or
    one per point.

    For boxes of width w this is exactly "the boxes overlap", so the box
    caller, the stable window sum under L != I (identity L takes its pairs
    from farey_window_pairs), passes the box width; the pairs are then the
    edges of the graph whose cliques are the sets of boxes with a common
    point.  The one disk
    caller, the lens step of a spherical window sum under L != I, passes
    diameters: two disks meet only if their centers are this close, and it
    checks the exact disk test on the pairs (identity L takes its lens
    pairs from farey_window_pairs instead).

    Single-grid search: every gap of a close pair is below max w, so on a
    grid of cells a hair wider than that its two points share a cell or lie
    in cells that touch on every axis.  One stable sort by cell key gives
    the same-cell pairs.  Each pair of touching cells is found once, from
    the cell with the smaller key: the next cell on the last axis is the
    next distinct key, and for each forward offset on the other axes one
    searchsorted finds the (at most three) cells it reaches.  The candidate
    pairs those cells hold are counted against ENUM_BUDGET before any is
    listed, and the strict test above keeps the close ones.

    The points may be C- or Fortran-ordered; every pass over them reads
    one column at a time.
    """
    n = points.shape[0]
    none = np.empty(0, np.int64), np.empty(0, np.int64)
    if n < 2:
        return none
    dim = points.shape[1]
    w_arr = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    max_w = float(w_arr.max())
    if not max_w > 0:  # NaN widths close no pair either
        return none
    keys, steps = _cell_keys(points, max_w)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    del keys
    starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    m = starts.size
    # the distinct keys, then three sentinels that end every look-ahead
    cells = np.full(m + 3, np.iinfo(np.int64).max)
    cells[:m] = sk[starts]
    del sk
    head = cells[:m]
    counts = np.diff(np.append(starts, n))
    # touching cell pairs (ci, cj), ci < cj
    ci_chunks = [np.flatnonzero(head[1:] == head[:-1] + 1)]
    cj_chunks = [ci_chunks[0] + 1]
    for prefix in itertools.product((-1, 0, 1), repeat=dim - 1):
        if prefix <= (0,) * (dim - 1):
            continue  # only forward offsets: the first nonzero entry is +1
        delta = int(np.dot(prefix, steps[:-1]))
        pos = np.searchsorted(head, head + (delta - 1))
        reach = head + (delta + 1)
        ci = np.flatnonzero(cells[pos] <= reach)
        for k in range(3):
            if k:
                ci = ci[cells[pos[ci] + k] <= reach[ci]]
            ci_chunks.append(ci)
            cj_chunks.append(pos[ci] + k)
    ci, cj = np.concatenate(ci_chunks), np.concatenate(cj_chunks)
    shared = counts[counts >= 2]
    check_budget(int((shared * (shared - 1) // 2).sum() + np.dot(counts[ci], counts[cj])), "collision candidate pairs")
    pi_chunks, pj_chunks = [], []
    for c in np.flatnonzero(np.bincount(shared)):  # the distinct counts, ascending; np.unique would import numpy.ma
        rows = order[starts[counts == c][:, None] + np.arange(c)]
        a, b = np.triu_indices(int(c), 1)
        pi_chunks.append(rows[:, a].ravel())
        pj_chunks.append(rows[:, b].ravel())
    pi, pj = _cell_pair_rows(order, starts, counts, ci, cj)
    pi = np.concatenate(pi_chunks + [pi])
    pj = np.concatenate(pj_chunks + [pj])
    thr = 0.5 * (w_arr[pi] + w_arr[pj])
    hit = np.abs(points[pi, 0] - points[pj, 0]) < thr
    for a in range(1, dim):
        hit &= np.abs(points[pi, a] - points[pj, a]) < thr
    return pi[hit], pj[hit]


def component_clusters(u: np.ndarray, v: np.ndarray):
    """Connected components of the edges (u, v) between integer nodes, over
    the nodes on some edge: all members in one array, cluster by cluster
    (each ascending, the clusters ordered by their smallest member), and
    the cluster sizes."""
    if u.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    nodes, ends = np.unique(np.concatenate([u, v]), return_inverse=True)
    label = _component_labels(nodes.size, ends[: u.size], ends[u.size :])
    order = np.argsort(label, kind="stable")
    members = nodes[order]
    cuts = np.flatnonzero(label[order[1:]] != label[order[:-1]]) + 1
    return members, np.diff(np.concatenate(([0], cuts, [members.size])))


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label of each of n nodes under the edges (u, v): the smallest node of
    its connected component.

    Root hooking and pointer jumping: label[x] <= x always names a node of
    x's component, and a root is a node with label[x] == x.  Each round the
    larger root of every edge whose roots differ is hooked under the
    smaller (np.minimum.at keeps the least offer), then label = label[label]
    runs until every node points at a root.  Every hook lowers a root's
    label, so the rounds end, and then all nodes of a component share one
    root.  Its smallest node can point only at itself, so that root is it.
    """
    label = np.arange(n)
    while True:
        ru, rv = label[u], label[v]
        split = ru != rv
        if not split.any():
            return label
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(label, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _pair_blocks(rows: np.ndarray, pair: np.ndarray, n_pairs: int):
    """Start and length, within rows, of each pair's block; pair[rows]
    ascends."""
    counts = np.bincount(pair[rows], minlength=n_pairs)
    return np.cumsum(counts) - counts, counts


def _inverse_mod(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b^{-1} mod a for coprime arrays (0 where a == 1): the extended Euclid
    algorithm on all entries at once, s * b = r (mod a) all along."""
    r0, r1 = a.copy(), b % a
    s0, s1 = np.zeros_like(a), np.ones_like(a)
    while r1.any():
        live = r1 != 0
        quot = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - quot * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - quot * s1, 0)
    return s0 % a


def _axis_solutions(q, q2, g, inv, kmax, lo: float, hi: float):
    """One axis of farey_window_pairs: every (pair, k, p, p') with
    q' p - q p' = g k, |k| <= kmax and p, p' in the kernel's ranges
    ceil(lo q) .. floor(hi q) for q and q'.  Rows come pair by pair, k and
    then p ascending.

    With a = q/g and b = q'/g, p' = (b p - k)/a is an integer iff
    p = k b^{-1} (mod a), and it lies in range iff p does in
    ceil((a lo' + k)/b) .. floor((a hi' + k)/b).
    """
    a, b = q // g, q2 // g
    p_lo, p_hi = np.ceil(lo * q).astype(np.int64), np.floor(hi * q).astype(np.int64)
    p2_lo, p2_hi = np.ceil(lo * q2).astype(np.int64), np.floor(hi * q2).astype(np.int64)
    # g k = q' p - q p' is confined by the two ranges as well
    k_lo = np.maximum(-kmax, -((q * p2_hi - q2 * p_lo) // g))
    k_hi = np.minimum(kmax, (q2 * p_hi - q * p2_lo) // g)
    n_k = np.maximum(k_hi - k_lo + 1, 0)
    check_budget(int(n_k.sum()), "window pair residues")
    pair = np.repeat(np.arange(q.size), n_k)
    k = np.repeat(k_lo, n_k) + _ramp(n_k)
    a, b = a[pair], b[pair]
    first = np.maximum(p_lo[pair], -((-(a * p2_lo[pair] + k)) // b))
    last = np.minimum(p_hi[pair], (a * p2_hi[pair] + k) // b)
    first += (k * inv[pair] - first) % a
    n_p = np.maximum((last - first) // a + 1, 0)
    check_budget(int(n_p.sum()), "window pair candidates")
    link = np.repeat(np.arange(k.size), n_p)
    p = first[link] + a[link] * _ramp(n_p)
    k = k[link]
    return pair[link], k, p, (b[link] * p - k) // a[link]


def _candidate_rows(axes, n_pairs: int):
    """Rows into each axis' solutions of every candidate of
    farey_window_pairs: per (q, q'), the combinations with some k != 0.

    Part j holds k = 0 on the axes before j, k != 0 on axis j and any k on
    the axes after it; the parts come in order of j.  A part is grown one
    axis at a time, block by block of (q, q'), so its rows stay grouped by
    pair; a pair that some axis leaves empty joins nothing, so no stage
    outgrows the part.  All parts' sizes are checked against ENUM_BUDGET
    before any is built."""
    parts = []
    for j, (_pair, k, *_) in enumerate(axes):
        rows = [np.flatnonzero(ax[1] == 0) for ax in axes[:j]] + [np.flatnonzero(k != 0)]
        rows += [np.arange(ax[1].size) for ax in axes[j + 1 :]]
        parts.append((rows, [_pair_blocks(r, ax[0], n_pairs) for r, ax in zip(rows, axes)]))
    sizes = (np.prod([c for _start, c in blocks], axis=0, dtype=float).sum() for _rows, blocks in parts)
    check_budget(float(sum(sizes)), "window pair candidates")
    out = [[] for _ in axes]
    for rows, blocks in parts:
        (start, n), idx = blocks[0], [rows[0]]
        n = n * np.logical_and.reduce([c > 0 for _start, c in blocks])
        for r, (start_r, n_r) in zip(rows[1:], blocks[1:]):
            a, b = _block_pairs(start, n, start_r, n_r)
            idx = [i[a] for i in idx] + [r[b]]
            del a, b
            n = n * n_r
            start = np.cumsum(n) - n
        for o, i in zip(out, idx):
            o.append(i)
    del n, start  # the last part's counts: freed before the concatenation peaks
    return tuple(np.concatenate(o) for o in out)


def farey_window_pairs(m: int, lo, hi, w: float):
    """Pairs of primitive sources whose windows of width w overlap: (p, q)
    and (p', q') with 0 < q <= q' <= m, each p_i in the kernel's range
    ceil(lo_i q) .. floor(hi_i q), and |q' p_i - q p'_i| < w q q' on every
    axis, i.e. sup |p/q - p'/q'| < w, on any number d - 1 >= 1 of parameter axes.

    Returned as (first, second, radix): each source (p_1, ..., p_{d-1}, q)
    is one int64 key, its offsets from the lows of q, p_1, ... in mixed
    radix, radix = ((low, span) of q, of p_1, ...), so keys ascend in
    (q, p) order and pair_rows decodes them.  first and second hold the
    keys of the two ends, the first of each pair the smaller.

    The search follows the pairs, not the points.  The cross differences
    D_i = q' p_i - q p'_i are integers and some D_i is nonzero, so only
    (q, q') with w q q' > 1 can hold a pair; they are listed as one integer
    range of q' per q.  On each axis D_i = g k with g = gcd(q, q') and
    |k| <= K, the largest k with g k < w q q' (exactly: a float quotient
    near an integer is settled with Fraction(w)), and each k is a linear
    congruence for p_i (_axis_solutions).  The axes combine as a product
    per (q, q') over the combinations with some k != 0 (_candidate_rows);
    both ends must be primitive.  The integer work is done once per axis
    solution, not per candidate: g_i = gcd(q, p_i) and the key's digit
    term of p_i (q's goes with the first axis).  gcd(q, p_1, ..., p_{d-1})
    = gcd(g_1, ..., g_{d-1}), so a candidate gathers whether each g_i is 1
    and one key term per axis, and np.gcd runs only where every g_i
    exceeds 1.  Each array's size is checked against
    ENUM_BUDGET before it is allocated, and the radix, from the solutions'
    own q and p ranges, is refused past int64 before any key is built.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = lo.size
    m = int(m)
    check_budget(m, "denominator bound")
    empty = np.empty(0, np.int64), np.empty(0, np.int64), ((0, 1),) * (dim + 1)
    # w q q' <= w m^2 <= 1 leaves no pair (for w m^2 a hair above 1 in exact
    # arithmetic, only q = q' = m >= 2 passes, and it needs w m > 1)
    if m < 1 or not w * m * m > 1:
        return empty
    qs = np.arange(1, m + 1, dtype=np.int64)
    # q' > 1/(w q); the floor of the float quotient may admit one q' too many
    start = np.maximum(qs, np.floor(np.minimum(1.0 / (w * qs), m + 1.0)).astype(np.int64))
    n_q2 = np.maximum(m - start + 1, 0)
    check_budget(int(n_q2.sum()), "window pair denominators")
    q = np.repeat(qs, n_q2)
    q2 = np.repeat(start, n_q2) + _ramp(n_q2)
    del qs, start, n_q2
    g = np.gcd(q, q2)
    quot = w * (q * q2).astype(float) / g
    kmax = np.floor(quot)
    near = np.abs(quot - np.rint(quot)) <= 1e-15 * quot
    if near.any():
        wf = Fraction(w)
        for i in np.flatnonzero(near):
            n = int(np.rint(quot[i]))
            kmax[i] = n if int(g[i]) * n < wf * (int(q[i]) * int(q2[i])) else n - 1
    # k = 0 on every axis is no pair: a (q, q') with K = 0 holds none
    live = kmax > 0
    q, q2, g, kmax = q[live], q2[live], g[live], kmax[live].astype(np.int64)
    del quot, near, live
    inv = _inverse_mod(q2 // g, q // g)
    axes = [_axis_solutions(q, q2, g, inv, kmax, float(lo[i]), float(hi[i])) for i in range(dim)]
    del g, inv, kmax
    rows = _candidate_rows(axes, q.size)
    if rows[0].size == 0:
        return empty
    # each end's columns q, p_1, ...: q over the (q, q'), p_i over axis i's solutions
    ends = [[q, *(ax[2] for ax in axes)], [q2, *(ax[3] for ax in axes)]]
    lows = [int(min(a.min(), b.min())) for a, b in zip(*ends)]
    spans = [int(max(a.max(), b.max())) - low + 1 for (a, b), low in zip(zip(*ends), lows)]
    if math.prod(spans) > 2**63:
        raise ResourceLimitError(f"pair end keys span {math.prod(spans)} values, over int64", 2**63)
    radix = tuple(zip(lows, spans))
    solution_pair = [ax[0] for ax in axes]
    del axes, q, q2
    keep, terms = np.ones(rows[0].size, dtype=bool), []
    for q_end, *ps in ends:
        # once per axis solution: g_i = gcd(q, p_i) and the key's digit term
        # of p_i (and of q, on the first axis)
        gs, parts = [], []
        for i, (pair, p) in enumerate(zip(solution_pair, ps)):
            qa = q_end[pair]
            gs.append(np.gcd(qa, p))
            term = p - lows[i + 1]
            if i == 0:
                qa -= lows[0]
                qa *= spans[1]
                term += qa
            term *= math.prod(spans[i + 2 :])
            parts.append(term)
        terms.append(parts)
        # gcd(q, p_1, ..., p_{d-1}) = gcd(g_1, ..., g_{d-1}): primitive where
        # some g_i is 1, else by the gcd of them all
        primitive = (gs[0] == 1).take(rows[0])
        for i in range(1, dim):
            primitive |= (gs[i] == 1).take(rows[i])
        rest = np.flatnonzero(~primitive)
        g = gs[0].take(rows[0][rest])
        for i in range(1, dim):
            g = np.gcd(g, gs[i].take(rows[i][rest]))
        primitive[rest] = g == 1
        del g, rest
        keep &= primitive
    del ends, q_end, ps, gs, primitive
    # the key of each candidate's ends: one gathered term per axis
    keys = []
    for parts in terms:
        key = parts[0].take(rows[0])
        for part, r in zip(parts[1:], rows[1:]):
            key += part.take(r)
        keys.append(key)
    del rows, terms
    # q <= q' by construction, so key order is the (q, p) order: for q == q'
    # each pair comes in both orders, and this keeps the one with p < p'
    keep &= keys[0] < keys[1]
    return keys[0][keep], keys[1][keep], radix


def pair_rows(keys: np.ndarray, radix) -> np.ndarray:
    """The sources (p_1, ..., p_{d-1}, q) of pair-end keys in the mixed
    radix of farey_window_pairs, as an (n, d) int64 array."""
    d = len(radix)
    rows = np.empty((keys.size, d), np.int64)
    rest = keys.copy()
    for j in range(d - 1, 0, -1):
        low, span = radix[j]
        np.remainder(rest, span, out=rows[:, j - 1])
        rows[:, j - 1] += low
        rest //= span
    rest += radix[0][0]
    rows[:, d - 1] = rest
    return rows


def pair_graph(first: np.ndarray, second: np.ndarray, radix):
    """The pairs of pair-end keys (first[k], second[k]) of
    farey_window_pairs as a graph: the distinct sources
    (p_1, ..., p_{d-1}, q), ranked by (q, p_1, ..., p_{d-1}), and the two
    ranks of each pair.

    The ranks follow the row order of the enumeration kernels, so the
    stable window union sums the clipped volumes in the kernels' order,
    which keeps A3's bits, and the d = 3 spherical lens step takes its
    pairs in the (i, j) order of the listed disks.  The keys are ranked as
    np.unique would with return_inverse, but with fewer copies alive at
    once, and only the distinct keys are decoded.  When every key leaves b
    bits free, b the bit length of 2n - 1 (prod(spans) * 2^b <= 2^63), one
    in-place sort of the words key << b | position orders keys and
    positions together; wider keys take an argsort and a gather.  Equal
    keys share a rank, so both give the same arrays.
    """
    n = first.size
    keys = np.concatenate([first, second])
    bits = (2 * n - 1).bit_length()
    if math.prod(span for _low, span in radix) << bits <= 1 << 63:
        order = np.arange(2 * n, dtype=np.int64)
        keys <<= bits
        keys |= order
        keys.sort()
        np.bitwise_and(keys, (1 << bits) - 1, out=order)
        keys >>= bits
    else:
        order = np.argsort(keys)
        keys = keys[order]
    new = np.ones(2 * n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    distinct = keys[new]
    del keys
    rank = np.empty(2 * n, np.int64)
    rank[order] = np.cumsum(new) - 1
    del order, new
    return pair_rows(distinct, radix), rank[:n], rank[n:]


def points_to_csv(points: Sequence[TranslatedFareyPoint], fh) -> None:
    """Columns: q, p_1..p_{d-1}, x_1..x_{d-1} (15 significant digits)."""
    if not points:
        fh.write("")
        return
    d = points[0].d
    writer = csv.writer(fh)
    writer.writerow(["q"] + [f"p_{i+1}" for i in range(d - 1)] + [f"x_{i+1}" for i in range(d - 1)])
    for pt in points:
        row = [pt.source[-1]] + list(pt.source[:-1]) + [f"{x:.15g}" for x in pt.point]
        writer.writerow(row)
