"""Farey and translated-Farey sequences as primitive lattice points.

A point of the sequence attached to a unimodular L is a primitive integer
row vector (p_1, ..., p_{d-1}, q) pushed through the transpose-inverse of L,
giving (alpha', alpha_d) with alpha_d > 0; the projected point is
alpha'/alpha_d.  For L = I this is the classical Farey set p/q.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _kernels as K
from .algebra import TOL, as_fraction_matrix, fraction_matrix_inverse, integer_det, swap_element, zeta
from .errors import HorolabError, InvalidDimensionError


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


class FareyIndex:
    """Immutable array-backed point set, sorted by (alpha_d, source)."""

    def __init__(self, d: int, sources: np.ndarray, alpha: np.ndarray):
        order = np.lexsort(tuple(sources[:, j] for j in reversed(range(d - 1))) + (alpha[:, d - 1],))
        self.d = d
        self.sources = sources[order]
        self.alpha = alpha[order]
        self.alpha_d = self.alpha[:, d - 1]
        self.points = self.alpha[:, : d - 1] / self.alpha_d[:, None]
        self._x0_order = np.argsort(self.points[:, 0], kind="stable") if len(self.points) else np.empty(0, np.int64)
        self._x0_sorted = self.points[self._x0_order, 0] if len(self.points) else np.empty(0)

    def __len__(self) -> int:
        return self.sources.shape[0]

    def near(self, x, radius: float, alpha_max: float = None) -> np.ndarray:
        """Indices of points within sup-distance radius of x (binary search
        on the first coordinate, then a mask on the rest)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo = int(np.searchsorted(self._x0_sorted, x[0] - radius, side="left"))
        hi = int(np.searchsorted(self._x0_sorted, x[0] + radius, side="right"))
        idx = self._x0_order[lo:hi]
        if self.d > 2 and idx.size:
            mask = np.all(np.abs(self.points[idx][:, 1:] - x[1:]) <= radius, axis=1)
            idx = idx[mask]
        if alpha_max is not None and idx.size:
            idx = idx[self.alpha_d[idx] <= alpha_max]
        return idx

    def record(self, i: int) -> TranslatedFareyPoint:
        return TranslatedFareyPoint(
            source=tuple(int(v) for v in self.sources[i]),
            alpha_prime=tuple(float(v) for v in self.alpha[i, : self.d - 1]),
            alpha_d=float(self.alpha_d[i]),
            point=tuple(float(v) for v in self.points[i]),
        )


def _check_q(Q: float) -> None:
    if Q < 1:
        raise HorolabError(f"denominator bound Q must be >= 1, got {Q}")


def _unit_box(d: int):
    return np.zeros(d - 1), np.ones(d - 1)


def farey_arrays(d: int, Q: float, box=None) -> tuple[np.ndarray, np.ndarray]:
    """Primitive (p, q) with 0 < q <= Q and p/q in the closed box.

    Returns (sources, alpha) where for L = I alpha equals the source floats.
    """
    _check_q(Q)
    if box is None:
        lo, hi = _unit_box(d)
    else:
        lo, hi = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    qmax = int(math.floor(Q))
    if d == 2:
        qs, ps = K.farey_d2(qmax, float(lo[0]), float(hi[0]))
        sources = np.stack([ps, qs], axis=1)
    elif d == 3:
        qs, p1, p2 = K.farey_d3(qmax, float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
        sources = np.stack([p1, p2, qs], axis=1)
    else:
        if d < 2:
            raise InvalidDimensionError(f"d must be >= 2, got {d}")
        rows = []
        for q in range(1, qmax + 1):
            axes = [np.arange(math.ceil(lo[i] * q), math.floor(hi[i] * q) + 1, dtype=np.int64) for i in range(d - 1)]
            if any(a.size == 0 for a in axes):
                continue
            grids = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            g = np.gcd.reduce(np.abs(pts), axis=1)
            g = np.gcd(g, q)
            pts = pts[g == 1]
            rows.append(np.concatenate([pts, np.full((pts.shape[0], 1), q, dtype=np.int64)], axis=1))
        sources = np.concatenate(rows, axis=0) if rows else np.empty((0, d), np.int64)
    return sources, sources.astype(float)


def enumerate_farey(d: int, Q: float) -> list[TranslatedFareyPoint]:
    """Classical sequence: p/q in [0, 1)^{d-1}, primitive (p, q), 0 < q <= Q.

    Sorted lexicographically by (q, p).
    """
    sources, alpha = farey_arrays(d, Q, box=_unit_box(d))
    # the closed-box kernels include p_i = q; drop them for the half-open box
    keep = np.all(sources[:, : d - 1] < sources[:, d - 1 :], axis=1)
    sources = sources[keep]
    order = np.lexsort(tuple(sources[:, j] for j in reversed(range(d - 1))) + (sources[:, d - 1],))
    out = []
    for i in order:
        src = tuple(int(v) for v in sources[i])
        q = float(src[-1])
        out.append(
            TranslatedFareyPoint(
                source=src,
                alpha_prime=tuple(float(v) for v in src[:-1]),
                alpha_d=q,
                point=tuple(v / q for v in src[:-1]),
            )
        )
    return out


def _transpose_inverse(L: np.ndarray) -> np.ndarray:
    if L.dtype == object:
        return fraction_matrix_inverse(L).T
    return np.linalg.inv(L).T


def translated_arrays(L, Q: float, box, include_upper: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Primitive lattice points through the transpose-inverse of L.

    Enumerates integer sources in the preimage of the bounding box of the
    admissible cone (image box mapped back through the transpose of L,
    inflated by 1 in sup-norm), then filters; this makes the enumeration
    provably exhaustive.
    """
    _check_q(Q)
    L = np.asarray(L)
    d = L.shape[0]
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise HorolabError("translated enumeration needs a bounded box")
    tLinv = _transpose_inverse(L)
    tLinv_f = tLinv.astype(float) if tLinv.dtype == object else tLinv
    # bounding box of {alpha : 0 < alpha_d <= Q, lo*alpha_d <= alpha' <= hi*alpha_d}
    alo = np.append(np.minimum(lo * Q, 0.0), 0.0)
    ahi = np.append(np.maximum(hi * Q, 0.0), Q)
    corners = np.array(np.meshgrid(*zip(alo, ahi), indexing="ij")).reshape(d, -1).T
    tL = np.asarray(L, dtype=float).T
    pre = corners @ tL  # alpha = p @ tLinv  <=>  p = alpha @ tL
    plo = np.floor(pre.min(axis=0)) - 1
    phi = np.ceil(pre.max(axis=0)) + 1
    sources = K.primitive_box(plo, phi)
    if sources.shape[0] == 0:
        return np.empty((0, d), np.int64), np.empty((0, d), float)
    alpha = sources.astype(float) @ tLinv_f
    ad = alpha[:, d - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        pts = alpha[:, : d - 1] / ad[:, None]
    keep = (ad > 0) & (ad <= Q + 1e-12)
    keep &= np.all(pts >= lo - 1e-12, axis=1) & np.all(pts <= hi + 1e-12, axis=1)
    if not include_upper:
        keep &= np.all(pts < hi, axis=1)
    return sources[keep], alpha[keep]


def translated_alpha_box_arrays(L, Q: float) -> tuple[np.ndarray, np.ndarray]:
    """Primitive lattice points with the image vector itself confined to
    [0, Q]^{d-1} x (0, Q] (the canonical finite subsets of the translated
    sequence; their count grows like Q^d / zeta(d))."""
    _check_q(Q)
    L = np.asarray(L)
    d = L.shape[0]
    tLinv = _transpose_inverse(L)
    tLinv_f = tLinv.astype(float) if tLinv.dtype == object else tLinv
    alo = np.zeros(d)
    ahi = np.full(d, float(Q))
    corners = np.array(np.meshgrid(*zip(alo, ahi), indexing="ij")).reshape(d, -1).T
    tL = np.asarray(L, dtype=float).T
    pre = corners @ tL
    plo = np.floor(pre.min(axis=0)) - 1
    phi = np.ceil(pre.max(axis=0)) + 1
    sources = K.primitive_box(plo, phi)
    if sources.shape[0] == 0:
        return np.empty((0, d), np.int64), np.empty((0, d), float)
    alpha = sources.astype(float) @ tLinv_f
    keep = (alpha[:, d - 1] > 0) & np.all(alpha <= Q + 1e-9, axis=1) & np.all(alpha >= -1e-9, axis=1)
    return sources[keep], alpha[keep]


def enumerate_translated_farey(L, Q: float, box, include_upper: bool = True) -> list[TranslatedFareyPoint]:
    """Point records for the sequence attached to L, sorted by (alpha_d, source)."""
    sources, alpha = translated_arrays(L, Q, box, include_upper=include_upper)
    d = sources.shape[1] if sources.size else np.asarray(L).shape[0]
    idx = FareyIndex(d, sources, alpha)
    return [idx.record(i) for i in range(len(idx))]


def farey_index(d: int, Q: float, L=None, box=None, include_upper: bool = True) -> FareyIndex:
    """Array index of points; identity L uses the per-denominator kernels."""
    if L is None:
        sources, alpha = farey_arrays(d, Q, box=box)
        if not include_upper:
            hi = np.ones(d - 1) if box is None else np.asarray(box[1], dtype=float)
            keep = np.all(sources[:, : d - 1].astype(float) < hi * sources[:, d - 1 :].astype(float), axis=1)
            sources, alpha = sources[keep], alpha[keep]
        return FareyIndex(d, sources, alpha)
    if box is None:
        box = _unit_box(np.asarray(L).shape[0])
    sources, alpha = translated_arrays(L, Q, box, include_upper=include_upper)
    return FareyIndex(np.asarray(L).shape[0], sources, alpha)


def count_farey(d: int, Q: float) -> tuple[int, float]:
    """Exact count of the classical sequence and its large-Q prediction.

    The exact count is a Jordan-totient sieve sum (J_1 is Euler's phi), the
    prediction Q^d / (d zeta(d)).
    """
    _check_q(Q)
    if d < 2:
        raise InvalidDimensionError(f"d must be >= 2, got {d}")
    qmax = int(math.floor(Q))
    if d == 2:
        exact = int(K.phi_sieve(qmax)[1:].sum())
    else:
        exact = int(K.jordan_sieve(qmax, d - 1)[1:].sum())
    return exact, Q**d / (d * zeta(d))


def count_farey_in_interval(Q: float, u: float, v: float, scale: float = 1.0, mu: np.ndarray = None) -> int:
    """d = 2 only: number of points p/(scale*q) in (u, v] with q <= Q.

    Moebius inversion turned inside out: the inner floor sums do not depend
    on the divisor, so the whole count is a weighted prefix-sum scan.
    """
    _check_q(Q)
    m = int(math.floor(Q))
    if mu is None:
        mu = K.mobius_sieve(m)
    prefix = K.floor_diff_prefix(u, v, m, scale)
    total = 0
    for e in range(1, m + 1):
        if mu[e]:
            total += int(mu[e]) * int(prefix[m // e])
    return total


def _block_period(M_frac: np.ndarray, d: int) -> Optional[np.ndarray]:
    """A^{-1}/det(A) for the top-left (d-1)-block, or None if singular."""
    A = M_frac[: d - 1, : d - 1]
    if d == 2:
        det = A[0, 0]
        if det == 0:
            return None
        basis = np.empty((1, 1), dtype=object)
        basis[0, 0] = 1 / (det * det)
        return basis
    det = Fraction(integer_det_fraction(A))
    if det == 0:
        return None
    return fraction_matrix_inverse(A) / det


def integer_det_fraction(A: np.ndarray) -> Fraction:
    """Exact determinant of a small Fraction matrix (Laplace expansion)."""
    n = A.shape[0]
    if n == 1:
        return Fraction(A[0, 0])
    if n == 2:
        return Fraction(A[0, 0]) * Fraction(A[1, 1]) - Fraction(A[0, 1]) * Fraction(A[1, 0])
    total = Fraction(0)
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += (-1) ** j * Fraction(A[0, j]) * integer_det_fraction(minor)
    return total


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
    L = np.asarray(L)
    d = L.shape[0]
    try:
        M = as_fraction_matrix(L)
        exact = True
    except (TypeError, ValueError):
        M = L.astype(float)
        exact = False
    tL = M.T
    basis = _block_period_any(tL, d, exact)
    if basis is not None:
        return DuplicateRegion(kind="torus", period_basis=np.asarray(basis, dtype=float))
    for j in range(1, d + 1):
        shifted = tL @ swap_element(j, d).astype(tL.dtype if not exact else object)
        basis = _block_period_any(shifted, d, exact)
        if basis is not None:
            return DuplicateRegion(kind="torus", period_basis=np.asarray(basis, dtype=float))
    raise HorolabError("no signed swap produced an invertible block; L cannot be unimodular")


def _block_period_any(M, d: int, exact: bool):
    if exact:
        return _block_period(M, d)
    A = np.asarray(M, dtype=float)[: d - 1, : d - 1]
    det = float(np.linalg.det(A))
    if abs(det) < 1e-12:
        return None
    return np.linalg.inv(A) / det


def is_gamma_duplicate(L, s, tol: float = None) -> bool:
    """True iff translating the horosphere parameter by s lands on the same
    orbit point: L n_-(s) L^{-1} must be an integer matrix (determinant is
    automatically one)."""
    if tol is None:
        tol = TOL
    from .algebra import as_fraction_scalar

    L = np.asarray(L)
    d = L.shape[0]
    s = np.atleast_1d(s)
    try:
        M = as_fraction_matrix(L)
        svec = [as_fraction_scalar(x) for x in s]
        exact = all(v is not None for v in svec)
    except TypeError:
        exact = False
    if exact:
        n_minus = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                n_minus[i, j] = Fraction(1) if i == j else Fraction(0)
        for i in range(d - 1):
            n_minus[i, d - 1] = svec[i]
        G = M @ n_minus @ fraction_matrix_inverse(M)
        return all(Fraction(G[i, j]).denominator == 1 for i in range(d) for j in range(d))
    try:
        Lf = L.astype(float)
    except ValueError:
        Lf = as_fraction_matrix(L).astype(float)
    n_minus = np.eye(d)
    n_minus[: d - 1, d - 1] = np.asarray(s, dtype=float)
    G = Lf @ n_minus @ np.linalg.inv(Lf)
    return bool(np.all(np.abs(G - np.round(G)) <= tol * max(1.0, np.abs(G).max())))


def collision_clusters(points: np.ndarray, w) -> list[np.ndarray]:
    """Clusters of close points: a pair is close when its sup-norm gap is
    below (w_i + w_j)/2, with w one width for all points or one per point.

    For boxes of width w this is exactly "the boxes overlap", so box callers
    pass the box width.  Disk callers must pass diameters: two disks meet
    only if their centers are this close, and the caller checks the exact
    disk test on the pairs of each cluster.

    Offset-grid bucketing: cells of size 2*max_w on all 2^{dim} offset grids
    catch every close pair; connected components of the close pairs are the
    clusters.  Each cluster is sorted, and the clusters are ordered by their
    smallest member.
    """
    # imported on first use, which keeps csgraph out of `import horolab`
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = points.shape[0]
    if n < 2:
        return []
    dim = points.shape[1]
    w_arr = np.broadcast_to(np.asarray(w, dtype=float), (n,)).astype(float)
    cell = 2.0 * float(w_arr.max())
    if cell <= 0:
        return []
    pair_chunks = []
    offsets = np.array(np.meshgrid(*([[0.0, 0.5]] * dim), indexing="ij")).reshape(dim, -1).T
    for off in offsets:
        ids = np.floor(points / cell + off).astype(np.int64)
        keys = ids[:, 0].copy()
        for j in range(1, dim):
            keys = keys * 2_000_003 + ids[:, j]
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sk)) + 1))
        counts = np.diff(np.append(starts, sk.size))
        for c in np.unique(counts[counts >= 2]):
            rows = order[starts[counts == c][:, None] + np.arange(c)]
            a, b = np.triu_indices(int(c), 1)
            pair_chunks.append(np.stack([rows[:, a].ravel(), rows[:, b].ravel()], axis=1))
    if not pair_chunks:
        return []
    pairs = np.concatenate(pair_chunks, axis=0)
    pairs = np.sort(pairs, axis=1)
    pairs = np.unique(pairs[:, 0] * np.int64(n) + pairs[:, 1])
    pi, pj = pairs // n, pairs % n
    thr = 0.5 * (w_arr[pi] + w_arr[pj])
    hit = np.all(np.abs(points[pi] - points[pj]) < thr[:, None], axis=1)
    pi, pj = pi[hit], pj[hit]
    if pi.size == 0:
        return []
    # the graph spans only the points in some close pair
    nodes, ends = np.unique(np.concatenate([pi, pj]), return_inverse=True)
    graph = coo_matrix((np.ones(pi.size), (ends[: pi.size], ends[pi.size :])), shape=(nodes.size, nodes.size))
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(nodes[order], np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(groups, key=lambda g: int(g[0]))


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
