"""Core matrix arithmetic for SL(d): flows, unipotents, and scalar constants.

Matrices are plain float64 numpy arrays (integer ones int64 or Python-int
object arrays when exactness matters).  Everything here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidDimensionError

# relative tolerance of the float matrix comparisons
TOL = 1e-9

# absolute tolerance for boundary comparisons of half-open target boxes
BOUNDARY_ATOL = 1e-12


def mat_close(a: np.ndarray, b: np.ndarray, tol: float = None) -> bool:
    """Relative max-norm comparison with scale set by the larger operand."""
    if tol is None:
        tol = TOL
    scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).max() <= tol * scale


def diagonal_flow(t: float, d: int) -> np.ndarray:
    """diag(e^{-t}, ..., e^{-t}, e^{(d-1)t}); contracts the first d-1 axes."""
    if d < 2:
        raise InvalidDimensionError(f"d must be >= 2, got {d}")
    out = np.eye(d) * math.exp(-t)
    out[d - 1, d - 1] = math.exp((d - 1) * t)
    return out


def unipotent_stable(xt) -> np.ndarray:
    """n_plus: identity with the vector xt filling the bottom-left row block."""
    xt = np.atleast_1d(np.asarray(xt, dtype=float))
    d = xt.size + 1
    out = np.eye(d)
    out[d - 1, : d - 1] = xt
    return out


def unipotent_unstable(x) -> np.ndarray:
    """n_minus: identity with the vector x as the top-right column block."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size + 1
    out = np.eye(d)
    out[: d - 1, d - 1] = x
    return out


def conjugate_flow_identity(T: float, T0: float, xt) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the renormalization identity relating n_plus(xt) to a
    flow-conjugated n_plus((T0/T) xt).  They agree entrywise to ~1e-12."""
    if T <= 0 or T0 <= 0:
        raise ValueError(f"T and T0 must be positive, got T={T}, T0={T0}")
    xt = np.atleast_1d(np.asarray(xt, dtype=float))
    d = xt.size + 1
    lhs = unipotent_stable(xt)
    r = math.log(T / T0) / d
    rhs = diagonal_flow(r, d) @ unipotent_stable((T0 / T) * xt) @ diagonal_flow(-r, d)
    return lhs, rhs


_ZETA_CACHE: dict[int, float] = {}


def zeta(d: int) -> float:
    """Riemann zeta at an integer argument >= 2.

    Partial sum to N plus the Euler-Maclaurin tail
    N^{1-d}/(d-1) - N^{-d}/2 + d N^{-d-1}/12, whose error is below 1e-16
    for N = 10^5 and any d >= 2.
    """
    if d < 2:
        raise InvalidDimensionError(f"zeta(d) needs d >= 2, got {d}")
    if d in _ZETA_CACHE:
        return _ZETA_CACHE[d]
    n = 100_000
    s = float(np.sum(np.arange(1, n + 1, dtype=float) ** (-float(d))))
    tail = n ** (1 - d) / (d - 1) - 0.5 * n ** (-d) + d * n ** (-d - 1) / 12.0
    _ZETA_CACHE[d] = s + tail
    return _ZETA_CACHE[d]


def h0(d: int) -> float:
    """Height threshold below which spherical thickenings may self-intersect;
    for d = 2 the Farey-gap bound of experiments.window_sum_spherical."""
    if d < 2:
        raise InvalidDimensionError(f"d must be >= 2, got {d}")
    if d == 2:
        return 1.0
    return math.sqrt(d) * (4.0 / 3.0) ** ((d - 1) / 2.0)


def cd_lower(d: int) -> float:
    """Lower bound for the stable-direction disjointness constant C_d.

    Below C_d T the stable windows of distinct sources never overlap for
    d = 2 (Farey-neighbour gap).  For d = 3 and L = I they overlap only
    between cusp sources: sources (p, q) whose row lattice q Z^2 + Z p,
    scaled by 1/sqrt(q), has minimum below (3/4)^{(d-1)/2}, the row-norm
    bound this constant is built from.
    """
    if d < 2:
        raise InvalidDimensionError(f"d must be >= 2, got {d}")
    if d == 2:
        return 1.0
    return (3.0 / 4.0) ** ((d - 1) / 2.0) / math.sqrt(d)


@dataclass(frozen=True)
class Constants:
    """Bundle of the scalar constants attached to a dimension."""

    d: int
    zeta_d: float
    h0: float
    cd_lower: float

    @classmethod
    def for_dim(cls, d: int) -> "Constants":
        return cls(d=d, zeta_d=zeta(d), h0=h0(d), cd_lower=cd_lower(d))


def swap_element(i: int, d: int) -> np.ndarray:
    """Determinant-one signed swap of rows i and d (1-based), identity if i == d.

    Row i picks up the old row d; row d picks up minus the old row i.
    """
    if not 1 <= i <= d:
        raise IndexError(f"need 1 <= i <= d, got i={i}, d={d}")
    s = np.eye(d, dtype=np.int64)
    if i == d:
        return s
    s[i - 1, i - 1] = 0
    s[d - 1, d - 1] = 0
    s[i - 1, d - 1] = 1
    s[d - 1, i - 1] = -1
    return s


def integer_det(m: np.ndarray) -> int | Fraction:
    """Exact determinant of an integer or Fraction matrix (Bareiss, in
    Fractions); an integral value comes back as an int."""
    a = [[x if isinstance(x, Fraction) else Fraction(int(x)) for x in row] for row in np.asarray(m)]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    det = sign * a[n - 1][n - 1]
    return det.numerator if det.denominator == 1 else det


def as_fraction_scalar(x) -> Fraction | None:
    """Exact Fraction for ints, Fractions, strings like '3/2' and integral
    floats; None for anything not exactly rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            return None
    if isinstance(x, (float, np.floating)):
        return Fraction(int(x)) if float(x).is_integer() else None
    return None


def as_fraction_matrix(m) -> np.ndarray:
    """Object-dtype matrix of Fractions; raises TypeError when an entry is
    not exactly rational (non-integral floats stay on the float path)."""
    rows = []
    for row in m:
        out_row = []
        for x in row:
            f = as_fraction_scalar(x)
            if f is None:
                raise TypeError(f"entry {x!r} is not exactly rational")
            out_row.append(f)
        rows.append(out_row)
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def fraction_matrix_inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse of an object-dtype Fraction matrix (Gauss-Jordan)."""
    n = m.shape[0]
    a = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pval = a[col][col]
        a[col] = [x / pval for x in a[col]]
        inv[col] = [x / pval for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = inv[i][j]
    return out
