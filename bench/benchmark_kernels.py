#!/usr/bin/env python3
"""Time the hot kernels, the d = 2 interval count built on them, and the
A3 collision search.

Run:  python3 bench/benchmark_kernels.py [--repeat N]

Each case prints the best of N wall-clock runs.
"""

import argparse
import math
import time

import numpy as np

from horolab import _kernels as K
from horolab import farey


def a3_centers():
    """The d = 3 Farey centers at Q = 299 and the A3 window width 0.2 e^{-8.55}."""
    _sources, alpha = farey.farey_arrays(3, 299)
    return alpha[:, :2] / alpha[:, 2:], 0.2 * math.exp(-8.55)


def timed(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        tic = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - tic)
    return best


CASES = [
    ("phi_sieve(5e6)", "phi_sieve", (5_000_000,)),
    ("mobius_sieve(5e6)", "mobius_sieve", (5_000_000,)),
    ("jordan_sieve(1e6, 2)", "jordan_sieve", (1_000_000, 2)),
    ("floor_diff_prefix(1e6)", "floor_diff_prefix", (0.123, 0.877, 1_000_000, 1.0)),
    ("farey_d2(4000)", "farey_d2", (4000, 0.0, 1.0)),
    ("farey_d3(250)", "farey_d3", (250, 0.0, 1.0, 0.0, 1.0)),
    ("primitive_box(+-150)", "primitive_box", (np.array([-150.0, -150.0, -150.0]), np.array([150.0, 150.0, 150.0]))),
    # the interior count of the t = 15.5 exact-window row (A = [0.1, 0.7], T = 2, eps = 0.2)
    (
        "count_farey_in_interval(3811092)",
        "count_farey_in_interval",
        (3_811_092, 0.1 + 0.1 * math.exp(-31.0), 0.7 - 0.1 * math.exp(-31.0)),
    ),
    # the A3 collision search; a callable builds its arguments when the case runs
    ("collision_clusters(A3)", "collision_clusters", a3_centers),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'case':32s} {'seconds':>10s}")
    for label, name, fargs in CASES:
        fn = getattr(K, name, None) or getattr(farey, name)
        fargs = fargs() if callable(fargs) else fargs
        print(f"{label:32s} {timed(fn, *fargs, repeat=args.repeat):9.3f}s")


if __name__ == "__main__":
    main()
