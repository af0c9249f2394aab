"""Matrix decompositions and coordinates on the section.

Contents: the NAK (Iwasawa) factorization, the parabolic/last-row coordinate
split with parity prefixes, first-order vs full section coordinates with the
cusp height, exact Grenier-domain reduction for ambient dimension 2 and 3,
the rank-one reverse Cholesky factor, and the exponential sphere chart with
its antipode and rotation-factor machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algebra import diagonal_flow
from .errors import BoundaryError, HorolabError, UnsupportedDimensionError


# ---------------------------------------------------------------------------
# NAK factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IwasawaNAK:
    n: np.ndarray  # unit upper triangular
    a: np.ndarray  # positive diagonal, det 1
    k: np.ndarray  # special orthogonal


def _upper_times_orthogonal(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor m = U k with U upper triangular (positive diagonal) and k
    orthogonal.  Rows are orthonormalized from the bottom up, so the last
    row of k is the normalized last row of m.  A stack (n, d, d) is factored
    matrix by matrix."""
    d = m.shape[-1]
    j = np.eye(d)[::-1]
    q, r = np.linalg.qr(np.swapaxes(j @ m @ j, -1, -2))
    sgn = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sgn[sgn == 0] = 1.0
    q = q * sgn[..., None, :]
    r = sgn[..., :, None] * r
    return j @ np.swapaxes(r, -1, -2) @ j, j @ np.swapaxes(q, -1, -2) @ j


def iwasawa(m: np.ndarray) -> IwasawaNAK:
    """Unique n a k factorization of a unimodular matrix."""
    m = np.asarray(m, dtype=float)
    det = float(np.linalg.det(m))
    if abs(det) < 1e-12:
        raise HorolabError("matrix is singular; no NAK factorization")
    u, k = _upper_times_orthogonal(m)
    diag = np.diag(u).copy()
    n = u / diag[None, :]
    return IwasawaNAK(n=n, a=np.diag(diag), k=k)


# ---------------------------------------------------------------------------
# parabolic / last-row coordinates
# ---------------------------------------------------------------------------

PREFIX_NONE = "none"
PREFIX_MINUS_IDENTITY = "minus-identity"
PREFIX_TILDE_REFLECTION = "tilde-reflection"


@dataclass(frozen=True)
class HRdCoords:
    m_h: np.ndarray
    y: np.ndarray  # length d, last entry positive
    prefix: str  # an array of prefix names for a stack


def prefix_matrix(prefix: str, d: int) -> np.ndarray:
    if prefix == PREFIX_NONE:
        return np.eye(d)
    if prefix == PREFIX_MINUS_IDENTITY:
        return -np.eye(d)
    if prefix == PREFIX_TILDE_REFLECTION:
        out = np.eye(d)
        out[d - 2, d - 2] = -1.0
        out[d - 1, d - 1] = -1.0
        return out
    raise ValueError(f"unknown prefix {prefix!r}")


def last_row_matrix(y) -> np.ndarray:
    """The block matrix carrying a last row y (y_d > 0) and the compensating
    homothety on the first d-1 axes; a stack of rows (n, d) gives a stack of
    matrices."""
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    if np.any(y[..., d - 1] <= 0):
        raise ValueError("last component must be positive")
    out = np.eye(d) * (y[..., d - 1] ** (-1.0 / (d - 1)))[..., None, None]
    out[..., d - 1, : d - 1] = y[..., : d - 1]
    out[..., d - 1, d - 1] = y[..., d - 1]
    return out


def hrd_coords(m: np.ndarray) -> HRdCoords:
    """Split m = prefix * m_h * M_y with m_h in the parabolic subgroup H and
    y the last row of m sign-normalized to y_d > 0.

    A stack (n, d, d) is split matrix by matrix: the fields then carry a
    leading axis and prefix is an array of prefix names.

    Raises BoundaryError when the last entry vanishes (a measure-zero set
    where the split degenerates); callers should count such hits, not mask
    them.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[-1]
    stack = m.reshape(-1, d, d)
    y = stack[:, d - 1].copy()
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    if np.any(np.abs(y[:, d - 1]) < 1e-12 * scale):
        raise BoundaryError("last entry of the bottom row vanishes")
    flip = y[:, d - 1] < 0
    flip_prefix = PREFIX_MINUS_IDENTITY if d % 2 == 0 else PREFIX_TILDE_REFLECTION
    p = np.where(flip[:, None, None], prefix_matrix(flip_prefix, d), np.eye(d))
    y[flip] = -y[flip]
    m_h = p @ stack @ np.linalg.inv(last_row_matrix(y))
    if not _bottom_row_is_ed(m_h):
        raise HorolabError("parabolic part has a malformed bottom row")
    m_h[:, d - 1] = np.eye(d)[d - 1]
    prefix = np.where(flip, flip_prefix, PREFIX_NONE)
    if m.ndim == 2:
        return HRdCoords(m_h=m_h[0], y=y[0], prefix=str(prefix[0]))
    return HRdCoords(m_h=m_h, y=y, prefix=prefix)


# ---------------------------------------------------------------------------
# section coordinates and Grenier reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrenierCoords:
    """Section coordinates; a stacked result carries a leading axis on every
    field (ys then is an (n, d-1) array, height an (n,) array)."""

    x: np.ndarray  # d x d, strictly upper entries meaningful
    ys: tuple  # (y_1, ..., y_{d-1}), positive
    height: float
    kprime: np.ndarray  # (d-1) x (d-1) orthogonal block

    def row(self, i: int) -> "GrenierCoords":
        """Coordinates of matrix i of a stacked result."""
        return GrenierCoords(x=self.x[i], ys=tuple(float(v) for v in self.ys[i]), height=float(self.height[i]),
                             kprime=self.kprime[i])


def _bottom_row_is_ed(m: np.ndarray) -> bool:
    """Whether every matrix of m (one, or a stack) has bottom row e_d, to
    1e-7 relative to the larger of its largest entry and one."""
    d = m.shape[-1]
    bottom = m[..., d - 1, :]
    return bool(np.all(np.abs(bottom - np.eye(d)[d - 1]).max(axis=-1) <= 1e-7 * np.maximum(np.abs(bottom).max(axis=-1), 1.0)))


def _require_parabolic(m_h: np.ndarray) -> int:
    m_h = np.asarray(m_h, dtype=float)
    d = m_h.shape[-1]
    if not _bottom_row_is_ed(m_h):
        raise HorolabError("matrix is not in the parabolic subgroup H")
    b_det = np.linalg.det(m_h[..., : d - 1, : d - 1])
    if np.any(np.abs(b_det - 1.0) > 1e-7 * np.maximum(1.0, np.abs(b_det))):
        raise HorolabError("upper block of an H element must have determinant one")
    return d


def section_coords(m_h: np.ndarray, s) -> GrenierCoords:
    """Full coordinates (x_ij, y_l, height, rotation) of the section point
    m_h followed by flow time s.

    The height depends only on s: it equals exp(2 (d-1) s).  The remaining
    coordinates come from the inner triangular factor of the upper block.
    A stack m_h (n, d, d) with s of shape (n,) gives stacked coordinates.
    """
    m_h = np.asarray(m_h, dtype=float)
    d = _require_parabolic(m_h)
    stack = m_h.reshape(-1, d, d)
    n = stack.shape[0]
    s = np.broadcast_to(np.asarray(s, dtype=float), (n,))
    if d > 2:
        z, k = _upper_times_orthogonal(stack[:, : d - 1, : d - 1])
    else:
        z, k = np.ones((n, 1, 1)), np.ones((n, 1, 1))
    tail = np.exp(-(d - 1) * s)
    u = np.zeros((n, d, d))
    u[:, : d - 1, : d - 1] = np.exp(s)[:, None, None] * z
    u[:, : d - 1, d - 1] = tail[:, None] * stack[:, : d - 1, d - 1]
    u[:, d - 1, d - 1] = tail
    diag = np.diagonal(u, axis1=1, axis2=2)
    coords = GrenierCoords(x=u / diag[:, None, :], ys=diag[:, :-1] / diag[:, 1:], height=diag[:, d - 1] ** (-2.0),
                           kprime=k)
    return coords.row(0) if m_h.ndim == 2 else coords


def _gauss_reduce_upper_half_plane(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reduce each x + iy into the classical fundamental domain (|x| <= 1/2,
    x^2 + y^2 >= 1) and return the integer words (n, 2, 2) that do it.

    Each point takes the steps of the scalar loop: translate by the nearest
    integer, invert while inside the unit circle, stop once outside."""
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    g = np.broadcast_to(np.eye(2, dtype=np.int64), (x.size, 2, 2)).copy()
    live = np.arange(x.size)
    for _ in range(10_000):
        if live.size == 0:
            return g
        n = np.floor(x[live] + 0.5)
        xl, yl = x[live] - n, y[live]
        g[live, 0] -= n.astype(np.int64)[:, None] * g[live, 1]  # [[1, -n], [0, 1]] @ g
        r2 = xl * xl + yl * yl
        inv = r2 < 1.0 - 1e-15
        x[live] = np.where(inv, -xl / r2, xl)
        y[live] = np.where(inv, yl / r2, yl)
        live = live[inv]
        g[live] = g[live][:, ::-1] * np.array([[-1], [1]])  # [[0, -1], [1, 0]] @ g
    raise HorolabError("upper-half-plane reduction did not terminate")


def grenier_reduce(m_h: np.ndarray, s) -> tuple[np.ndarray, GrenierCoords]:
    """Move a section point into the box-shaped fundamental domain.

    Returns the integer matrix gamma (determinant +-1, bottom row e_d) doing
    the move and the reduced coordinates: all y_k^2 >= 3/4, |x_ij| <= 1/2,
    and for d = 2 additionally x >= 0 via a sign flip.  Only ambient d in
    {2, 3} is implemented; the inner block reduction in higher rank is out of
    scope.

    A stack m_h (n, d, d) with s of shape (n,) (or one s for all) is reduced
    in one pass; gamma and the coordinates then carry a leading axis.
    """
    m_h = np.asarray(m_h, dtype=float)
    d = _require_parabolic(m_h)
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"exact reduction implemented for d in {{2, 3}}, got d={d}")
    stack = m_h.reshape(-1, d, d)
    n = stack.shape[0]
    gamma = np.broadcast_to(np.eye(d, dtype=np.int64), (n, d, d)).copy()
    if d == 2:
        bval = stack[:, 0, 1]
        shift = np.floor(bval + 0.5)
        x = bval - shift
        flip = x < 0  # [[-1, 0], [0, 1]] @ [[1, -n], [0, 1]]
        gamma[:, 0, 0] = np.where(flip, -1, 1)
        gamma[:, 0, 1] = np.where(flip, shift, -shift)
        reduced = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
        reduced[:, 0, 1] = np.where(flip, -x, x)
        coords = section_coords(reduced, s)
        coords = replace(coords, kprime=np.where(flip[:, None, None], -coords.kprime, coords.kprime))
    else:
        z, _k = _upper_times_orthogonal(stack[:, :2, :2])
        gamma[:, :2, :2] = _gauss_reduce_upper_half_plane(z[:, 0, 1] / z[:, 1, 1], z[:, 0, 0] / z[:, 1, 1])
        reduced = gamma.astype(float) @ stack
        g_t = np.broadcast_to(np.eye(3, dtype=np.int64), (n, 3, 3)).copy()
        g_t[:, :2, 2] = -np.floor(reduced[:, :2, 2] + 0.5).astype(np.int64)
        gamma = g_t @ gamma
        coords = section_coords(g_t.astype(float) @ reduced, s)
    if m_h.ndim == 2:
        return gamma[0], coords.row(0)
    return gamma, coords


# ---------------------------------------------------------------------------
# reverse outer-product Cholesky
# ---------------------------------------------------------------------------


def reverse_cholesky(u) -> np.ndarray:
    """Upper triangular B with positive diagonal solving B B^T = I + u^T u.

    Closed form via tail sums t_j = 1 + sum_{m >= j} u_m^2:
    B[j,j] = sqrt(t_j / t_{j+1}) and B[i,j] = u_i u_j / sqrt(t_j t_{j+1}).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ell = u.size
    t = np.ones(ell + 1)
    t[:ell] = 1.0 + np.cumsum((u * u)[::-1])[::-1]
    b = np.zeros((ell, ell))
    col = u / np.sqrt(t[:ell] * t[1:])
    b += np.triu(np.outer(u, col), k=1)
    np.fill_diagonal(b, np.sqrt(t[:ell] / t[1:]))
    return b


def reverse_cholesky_recursive(u) -> np.ndarray:
    """Same factor as reverse_cholesky, computed by peeling the last row and
    column of the running symmetric block: C -> D - r^T r / beta^2."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ell = u.size
    c = np.eye(ell) + np.outer(u, u)
    b = np.zeros((ell, ell))
    for n in range(ell - 1, 0, -1):
        beta = math.sqrt(c[n, n])
        r = c[n, :n].copy()
        b[n, n] = beta
        b[:n, n] = r / beta
        c = c[:n, :n] - np.outer(r, r) / (beta * beta)
    b[0, 0] = math.sqrt(c[0, 0])
    return b


# ---------------------------------------------------------------------------
# sphere chart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """Exponential chart on the sphere: an open ball of the given radius in
    R^{d-1} mapped through the rotation pairing the chart vector with the
    last coordinate axis.  Radii below pi/2 stay inside an open hemisphere."""

    dim: int
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.pi:
            raise ValueError("chart radius must lie in (0, pi)")
        if self.dim < 2:
            raise ValueError("chart needs ambient dimension >= 2")

    @property
    def hemispherical(self) -> bool:
        return self.radius < math.pi / 2

    @property
    def domain_volume(self) -> float:
        """Lebesgue volume of the chart ball (length 2r for d = 2, area
        pi r^2 for d = 3)."""
        r = self.radius
        if self.dim == 2:
            return 2.0 * r
        if self.dim == 3:
            return math.pi * r * r
        k = self.dim - 1
        return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * r**k


def chart_matrix(chart: Chart, z) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Rotation E(z)^{-1} together with the scalars it is built from.

    Returns (Einv, c, v, zprime) where the bottom row of Einv is (v, c),
    c = cos|z|, v = sin|z| z/|z| and zprime = v/c.  A stack of chart vectors
    (n, d-1) gives every result with a leading axis.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape[-1] != chart.dim - 1:
        raise ValueError(f"chart vector must have length {chart.dim - 1}")
    theta = np.linalg.norm(z, axis=-1)
    if np.any(theta >= chart.radius):
        raise HorolabError(f"|z| = {np.max(theta)} outside the chart ball of radius {chart.radius}")
    d = chart.dim
    origin = theta < 1e-300  # E(z) is the identity there
    u = np.where(origin[..., None], 0.0, z / np.where(origin, 1.0, theta)[..., None])
    c = np.where(origin, 1.0, np.cos(theta))
    if np.any(np.abs(c) < 1e-300):
        raise HorolabError("chart point sits on the equator; zprime undefined")
    v = np.sin(theta)[..., None] * u
    einv = np.broadcast_to(np.eye(d), theta.shape + (d, d)).copy()
    einv[..., : d - 1, : d - 1] -= (1.0 - c)[..., None, None] * (u[..., :, None] * u[..., None, :])
    einv[..., : d - 1, d - 1] = -v
    einv[..., d - 1, : d - 1] = v
    einv[..., d - 1, d - 1] = c
    return einv, (float(c) if z.ndim == 1 else c), v, v / c[..., None]


def chart_points_from_offsets(chart: Chart, xt) -> tuple[np.ndarray, np.ndarray]:
    """Invert zprime row by row: the chart vectors z with v(z)/c(z) = xt for
    offsets xt (..., d-1), and the mask of offsets inside the (hemispherical)
    chart image.  Rows outside the image keep a z outside the chart ball."""
    if not chart.hemispherical:
        raise HorolabError("offset inversion assumes a hemispherical chart")
    xt = np.asarray(xt, dtype=float)
    rho = np.linalg.norm(xt, axis=-1)
    theta = np.arctan(rho)
    scale = np.divide(theta, rho, out=np.zeros_like(rho), where=rho >= 1e-300)
    return scale[..., None] * xt, theta < chart.radius


def chart_point_from_offset(chart: Chart, xt) -> Optional[np.ndarray]:
    """Invert zprime: the unique chart vector z with v(z)/c(z) = xt, or None
    when xt falls outside the (hemispherical) chart image."""
    z, inside = chart_points_from_offsets(chart, np.atleast_1d(xt))
    return z if inside else None


def antipode(chart: Chart, z) -> Optional[np.ndarray]:
    """Chart vector whose sphere point is the negation of that of z, if the
    chart is large enough to contain it (never, for radii below pi/2)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    theta = float(np.linalg.norm(z))
    if theta >= chart.radius:
        raise HorolabError("z outside the chart ball")
    if theta < 1e-300:
        return None  # the antipode sits at radius pi, outside any valid chart
    ap = -(math.pi - theta) / theta * z
    if float(np.linalg.norm(ap)) < chart.radius:
        return ap
    return None


def rotation_factor(ktilde: np.ndarray, z, chart: Chart) -> np.ndarray:
    """Orthogonal factor B^{-1} ktilde (A - w^T zprime) of the rotated chart
    block; injective in ktilde for fixed z."""
    ktilde = np.asarray(ktilde, dtype=float)
    d = ktilde.shape[0] + 1
    if d < 3:
        raise UnsupportedDimensionError("rotation factor needs ambient d >= 3")
    einv, c, _v, zp = chart_matrix(chart, z)
    if c <= 0:
        raise HorolabError("chart point outside the open hemisphere")
    a = einv[: d - 1, : d - 1]
    w = einv[: d - 1, d - 1]
    b = reverse_cholesky((w @ ktilde.T) / c)
    return np.linalg.solve(b, ktilde @ (a - np.outer(w, zp)))


def associated_element_height_check(chart: Chart, z, z_ap, m_h: np.ndarray, s: float) -> tuple[HRdCoords, float, float]:
    """Carry a section point across an antipodal chart pair and compare cusp
    heights; they agree, since the connecting rotation normalizes into the
    parabolic subgroup."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    z_ap = np.atleast_1d(np.asarray(z_ap, dtype=float))
    einv_z, c_z, v_z, _ = chart_matrix(chart, z)
    einv_ap, c_ap, v_ap, _ = chart_matrix(chart, z_ap)
    if not (abs(c_ap + c_z) <= 1e-9 and np.all(np.abs(v_ap + v_z) <= 1e-9)):
        raise HorolabError("second argument is not the antipode of the first")
    d = _require_parabolic(m_h)
    p = np.asarray(m_h, dtype=float) @ diagonal_flow(-s, d)
    q = p @ einv_z @ einv_ap.T
    rec = hrd_coords(q)
    if not np.all(np.abs(rec.y[: d - 1]) <= 1e-9 * max(1.0, abs(rec.y[d - 1]))):
        raise HorolabError("carried point left the section")
    height_p = math.exp(2.0 * (d - 1) * s)
    height_q = float(rec.y[d - 1]) ** (-2.0)
    return rec, height_p, height_q
