#!/usr/bin/env python3
"""Time the hot kernels, the d = 2 interval count built on them, the d = 4
Farey enumeration, the A3 collision searches and clipped window volumes, the
whole A3 window sum, the d = 3 spherical window sum of perfbench's d3-window
workload with its clipped disk areas, and the d = 2 interval union.

Run:  python3 bench/benchmark_kernels.py [--repeat N]

Each case prints the best of N wall-clock runs.
"""

import argparse
import math
import time

import numpy as np

from horolab import _kernels as K
from horolab import experiments, farey
from horolab.coords import Chart
from horolab.targets import SphericalSection, StableSection


def a3_centers():
    """The A3 window centers over the unit square (T = 1, eps = 0.2,
    t = 2.85, so q <= e^{5.7} and w = 0.2 e^{-8.55}), in the Fortran order
    that _stable_window_centers gives the window sum."""
    target = StableSection(d=3, T=1.0, eps=0.2)
    _sources, centers, w = experiments._stable_window_centers(target, None, np.zeros(2), np.ones(2), 2.85)
    return centers, w


def a3_pair_search():
    """The A3 integer pair search: the denominator cap, the unit square grown
    by the window margin, and w, as the window sum passes them."""
    target = StableSection(d=3, T=1.0, eps=0.2)
    w, _c_off, margin = experiments._stable_window_shape(target, 2.85)
    return math.floor(target.denominator_cap(2.85)), np.full(2, -margin), np.full(2, 1.0 + margin), w


def a3_clipped():
    return (*a3_centers(), np.zeros(2), np.ones(2))


def a3_window_sum():
    """The A3 row's arguments to the enumerated stable window sum."""
    return StableSection(d=3, T=1.0, eps=0.2), None, np.zeros(2), np.ones(2), 2.85


def d3_spherical_row():
    """The d3-window spherical row's arguments to window_sum_spherical
    (T = 3, radius 0.5, t = 2.6, unit square)."""
    target = SphericalSection(d=3, T=3.0, chart=Chart(dim=3, radius=0.5))
    return target, None, np.zeros(2), np.ones(2), 2.6


def d3_spherical_disks():
    """That row's 190,609 disks, clipped to the unit square."""
    target, L, lo, hi, t = d3_spherical_row()
    return (*experiments._spherical_windows(target, L, lo, hi, t), lo, hi)


def random_intervals(n=400_000):
    """n seeded random intervals starting in [0, 1]; in lo order, about two
    in five start inside the union of those before them."""
    rng = np.random.default_rng(0)
    lo = rng.uniform(0.0, 1.0, size=n)
    return (np.stack([lo, lo + rng.exponential(0.5 / n, size=n)], axis=1),)


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
    ("_farey_columns(d = 4, 40)", "_farey_columns", (4, 40, None)),
    ("primitive_box(+-150)", "primitive_box", (np.array([-150.0, -150.0, -150.0]), np.array([150.0, 150.0, 150.0]))),
    # the interior count of the t = 15.5 exact-window row (A = [0.1, 0.7], T = 2, eps = 0.2)
    (
        "count_farey_in_interval(3811092)",
        "count_farey_in_interval",
        (3_811_092, 0.1 + 0.1 * math.exp(-31.0), 0.7 - 0.1 * math.exp(-31.0)),
    ),
    # the A3 collision searches and window volumes; a callable builds its arguments when the case runs
    ("farey_window_pairs(A3)", "farey_window_pairs", a3_pair_search),
    ("collision_clusters(A3)", "collision_clusters", a3_centers),
    ("_clipped_box_volumes(A3)", "_clipped_box_volumes", a3_clipped),
    ("window_sum(A3)", "_window_sum_stable_enumerated", a3_window_sum),
    ("window_sum_spherical(d3-window)", "window_sum_spherical", d3_spherical_row),
    ("_disk_box_areas(d3-window)", "_disk_box_areas", d3_spherical_disks),
    ("_merge_length(400k)", "_merge_length", random_intervals),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'case':32s} {'seconds':>10s}")
    for label, name, fargs in CASES:
        fn = getattr(K, name, None) or getattr(farey, name, None) or getattr(experiments, name)
        fargs = fargs() if callable(fargs) else fargs
        print(f"{label:32s} {timed(fn, *fargs, repeat=args.repeat):9.3f}s")


if __name__ == "__main__":
    main()
