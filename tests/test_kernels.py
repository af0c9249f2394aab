import math

import numpy as np
import pytest

from horolab import _kernels as K


def brute_phi(n):
    return [0] + [sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1) for q in range(1, n + 1)]


def brute_mobius(n):
    out = [0] * (n + 1)
    for q in range(1, n + 1):
        m, val, square_free = q, 1, True
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    square_free = False
                    break
                val = -val
            p += 1
        if not square_free:
            out[q] = 0
        else:
            out[q] = -val if m > 1 else val
    out[1] = 1
    return out


def test_phi_sieve_values():
    assert K.phi_sieve(30).tolist() == brute_phi(30)


def test_mobius_sieve_values():
    assert K.mobius_sieve(30).tolist() == brute_mobius(30)


def test_jordan_sieve_values():
    j2 = K.jordan_sieve(20, 2)
    for q in range(1, 21):
        want = sum(1 for a in range(q) for b in range(q) if math.gcd(math.gcd(a, b), q) == 1)
        assert j2[q] == want
    assert np.array_equal(K.jordan_sieve(40, 1), K.phi_sieve(40))


def test_floor_diff_prefix():
    got = K.floor_diff_prefix(0.15, 0.85, 25, 1.0)
    acc = 0
    for m in range(26):
        acc += math.floor(0.85 * m) - math.floor(0.15 * m)
        assert got[m] == acc


def test_farey_kernels_match_each_other():
    qs, ps = K.farey_d2(12, 0.0, 1.0)
    want = [(p, q) for q in range(1, 13) for p in range(0, q + 1) if math.gcd(p, q) == 1]
    assert sorted(zip(ps.tolist(), qs.tolist())) == sorted(want)
    qs3, p1, p2 = K.farey_d3(5, 0.0, 1.0, 0.0, 1.0)
    want3 = [
        (a, b, q)
        for q in range(1, 6)
        for a in range(0, q + 1)
        for b in range(0, q + 1)
        if math.gcd(math.gcd(a, b), q) == 1
    ]
    assert sorted(zip(p1.tolist(), p2.tolist(), qs3.tolist())) == sorted(want3)


def test_primitive_box():
    got = K.primitive_box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    want = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if math.gcd(a, b) == 1]
    assert sorted(map(tuple, got.tolist())) == sorted(want)


@pytest.mark.skipif(K.NUMBA_IMPLS is None, reason="numba not importable")
def test_backends_agree():
    nb, npy = K.NUMBA_IMPLS, K.NUMPY_IMPLS
    assert np.array_equal(nb["phi_sieve"](200), npy["phi_sieve"](200))
    assert np.array_equal(nb["mobius_sieve"](200), npy["mobius_sieve"](200))
    assert np.array_equal(nb["jordan_sieve"](100, 2), npy["jordan_sieve"](100, 2))
    assert np.array_equal(nb["floor_diff_prefix"](0.1, 0.9, 50, 2.0), npy["floor_diff_prefix"](0.1, 0.9, 50, 2.0))
    a = nb["farey_d2"](20, 0.2, 0.8)
    b = npy["farey_d2"](20, 0.2, 0.8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    a3 = nb["farey_d3"](8, 0.0, 1.0, 0.1, 0.9)
    b3 = npy["farey_d3"](8, 0.0, 1.0, 0.1, 0.9)
    assert all(np.array_equal(x, y) for x, y in zip(a3, b3))
    pa = nb["primitive_box"](np.array([-4.0, -2.0]), np.array([4.0, 2.0]))
    pb = npy["primitive_box"](np.array([-4.0, -2.0]), np.array([4.0, 2.0]))
    assert sorted(map(tuple, pa.tolist())) == sorted(map(tuple, pb.tolist()))


def test_backend_env_selection():
    import os
    import subprocess
    import sys

    # the import path is the parent's; only the backend variable is under test
    env = {"PATH": "/usr/bin:/bin", "HOROLAB_BACKEND": "numpy", "PYTHONPATH": os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", "import horolab._kernels as K; print(K.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "numpy"
