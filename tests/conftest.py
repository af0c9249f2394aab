import os
from pathlib import Path

import numpy as np
import pytest


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


def random_special_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
