import os
from pathlib import Path

# one BLAS thread, as perfbench runs: set before numpy loads OpenBLAS.  The
# batched 0/1 matmul of the tests' union oracle gives the same values either way
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import strategies as st


def pytest_configure(config):
    # interpreters the tests start import the same checkout as the suite
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])


def random_unimodular(rng, d):
    """Random determinant-one matrix: normalized gaussian entries, with a row
    swap to fix the sign."""
    m = rng.normal(size=(d, d))
    det = np.linalg.det(m)
    m /= abs(det) ** (1.0 / d)
    if np.linalg.det(m) < 0:
        m[[0, 1]] = m[[1, 0]]
    return m


@st.composite
def shear_products(draw, d, shear=1.0, stretch=2.0):
    """Unimodular d x d float L: a product of up to three elementary shears
    with entries in [-shear, shear] and a diagonal factor with entries in
    [1/stretch, stretch], the last one fixing the determinant."""
    L = np.eye(d)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        E = np.eye(d)
        E[i, j] = draw(st.floats(-shear, shear, allow_subnormal=False))
        L = L @ E
    scale = [draw(st.floats(1.0 / stretch, stretch)) for _ in range(d - 1)]
    return L @ np.diag([*scale, 1.0 / np.prod(scale)])


def random_special_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
