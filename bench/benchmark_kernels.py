#!/usr/bin/env python3
"""Time the hot kernels, the d = 2 interval count built on them with its
Mertens values and floor sums (also over the unit cell), the d = 2
exact-window row at t = 15.5, the d = 4 Farey enumeration, the primitive
points of a box and the translated sequence of the d = 3 translated
window sum at t = 2.4, the A3 collision searches (the integer pair
search, which every identity-L window sum calls, and the float grid
search collision_pairs, which the general-L window sums call), the
ranking of their pair ends, the clipped window volumes and their Moebius
raw sum, the whole A3 window sum and the same row at t = 3.2 (with
ENUM_BUDGET raised for that call, since no perfbench workload reaches that
depth), the d = 4 pair search and window sum
at t = 1.5 (no perfbench workload reaches d = 4), the d = 3 spherical
window sum of perfbench's d3-window workload with its clipped disk
areas, the integer search for its lens pairs and its lens step on the
disks at their ends, the clique union of the A3 windows on some
collision pair (given their summed clipped volume, as the window sum
passes it), and the Moebius count of the sources up to the cutoff, the
index build over the alpha window, the one batched candidate query, the
batched dual predicate and the whole sampled estimate of perfbench's
d3-membership row.

Run:  python3 bench/benchmark_kernels.py [--repeat N]

Each case prints the best of N wall-clock runs, the minor page faults of
one more run (the ru_minflt delta: pages the process touched for the first
time, or again after the allocator gave them back), and, from one more run
under tracemalloc, the peak of the memory it allocates (MiB).  A case's
arguments are built anew before each of these runs, outside it, since
pair_graph and the clique union rewrite their arrays in place.  The script
leaves glibc's malloc thresholds as the library sees them, not as the CLI
sets them.
"""

import argparse
import math
import resource
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from horolab import _kernels as K
from horolab import experiments, farey
from horolab.coords import Chart
from horolab.targets import GrenierBoxStable, SphericalSection, StableSection, dual_hits


def row_floor_sums():
    """The floor sums of the t = 15.5 exact-window row at its upper end: the
    quotients m // k and the left F_m neighbour a/b of v."""
    m = 3_811_092
    ends, _mertens = K.mertens_quotients(m)
    (a, b), _right = farey.farey_neighbours(Fraction(0.7 - 0.1 * math.exp(-31.0)), m)
    return m // ends, a, b


def a3_centers():
    """The A3 window centers over the unit square (T = 1, eps = 0.2,
    t = 2.85, so q <= e^{5.7} and w = 0.2 e^{-8.55}), as
    _stable_window_centers gives them."""
    target = StableSection(d=3, T=1.0, eps=0.2)
    _sources, centers, w = experiments._stable_window_centers(target, None, np.zeros(2), np.ones(2), 2.85)
    return centers, w


def a3_pair_search():
    """The A3 integer pair search: the denominator cap, the unit square grown
    by the window margin, and w, as the window sum passes them."""
    target = StableSection(d=3, T=1.0, eps=0.2)
    w, _c_off, margin = experiments._stable_window_shape(target, 2.85)
    return math.floor(target.denominator_cap(2.85)), np.full(2, -margin), np.full(2, 1.0 + margin), w


def a3_pairs():
    """The A3 collision pairs as the window sum passes them to the union:
    the centers of the pair ends in rank order, the two ranks of each pair,
    w, the unit square and the summed clipped volume of those windows."""
    m, box_lo, box_hi, w = a3_pair_search()
    ends, radix = farey.farey_window_pairs(m, box_lo, box_hi, w)
    nodes, u, v = farey.pair_graph(ends, radix)
    _w, c_off, _margin = experiments._stable_window_shape(StableSection(d=3, T=1.0, eps=0.2), 2.85)
    centers = farey.pair_centers(nodes, radix)
    centers -= c_off
    lo, hi = np.zeros(2), np.ones(2)
    return centers, u, v, w, lo, hi, float(experiments._clipped_box_volumes(centers, w, lo, hi).sum())


def a3_pair_ends():
    """The A3 pair search's (2, n) array of pair-end keys and their radix, as
    pair_graph takes them."""
    return farey.farey_window_pairs(*a3_pair_search())


def d4_window_sum():
    """The d = 4 row's arguments to the enumerated stable window sum (T = 1,
    eps = 0.2, t = 1.5, unit cube)."""
    return StableSection(d=4, T=1.0, eps=0.2), None, np.zeros(3), np.ones(3), 1.5


def d4_pair_search():
    """That row's integer pair search: the denominator cap, the unit cube
    grown by the window margin, and w, as the window sum passes them."""
    target, _L, lo, hi, t = d4_window_sum()
    w, _c_off, margin = experiments._stable_window_shape(target, t)
    return math.floor(target.denominator_cap(t)), lo - margin, hi + margin, w


def a3_clipped():
    return (*a3_centers(), np.zeros(2), np.ones(2))


# the unipotent L with last row (sqrt2 - 1, sqrt3 - 1, 1) of the A3-translated row
A3_TRANSLATED_L = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, 1.0]])


def a3_translated_arrays():
    """translated_arrays' arguments in the d = 3 translated window sum at
    t = 2.4 (T = 1, eps = 0.2, unit square, A3_TRANSLATED_L): the
    denominator cap and the unit square grown by the window margin."""
    target = StableSection(d=3, T=1.0, eps=0.2)
    _w, _c_off, margin = experiments._stable_window_shape(target, 2.4)
    return A3_TRANSLATED_L, target.denominator_cap(2.4), (np.full(2, -margin), np.full(2, 1.0 + margin))


def a3_window_sum():
    """The A3 row's arguments to the enumerated stable window sum."""
    return StableSection(d=3, T=1.0, eps=0.2), None, np.zeros(2), np.ones(2), 2.85


def a3_deep_window_sum():
    """The A3 row at t = 3.2, 1,425,840 pairs."""
    return StableSection(d=3, T=1.0, eps=0.2), None, np.zeros(2), np.ones(2), 3.2


def raised_budget_window_sum(*args):
    """The enumerated stable window sum with ENUM_BUDGET raised to 10^9 for
    the call: past t of about 3.0 the A3 row's predicted window count
    passes the default budget, though the sum holds no per-window array."""
    budget, farey.ENUM_BUDGET = farey.ENUM_BUDGET, 10**9
    try:
        return experiments._window_sum_stable_enumerated(*args)
    finally:
        farey.ENUM_BUDGET = budget


def a3_raw_sum():
    """The A3 row's arguments to the Moebius sum of its clipped window volumes."""
    return StableSection(d=3, T=1.0, eps=0.2), np.zeros(2), np.ones(2), 2.85


def d3_spherical_row():
    """The d3-window spherical row's arguments to window_sum_spherical
    (T = 3, radius 0.5, t = 2.6, unit square)."""
    target = SphericalSection(d=3, T=3.0, chart=Chart(dim=3, radius=0.5))
    return target, None, np.zeros(2), np.ones(2), 2.6


def d3_spherical_disks():
    """That row's 190,609 disks, clipped to the unit square."""
    target, L, lo, hi, t = d3_spherical_row()
    centers, radii, _lenses = experiments._spherical_windows(target, L, lo, hi, t)
    return centers, radii, lo, hi


def d3_spherical_pair_search():
    """farey_window_pairs' arguments on that row: the largest integer below
    the cutoff, the unit square grown by the candidate radius, and the
    largest diameter."""
    target, L, lo, hi, t = d3_spherical_row()
    margin = target.candidate_radius(t)
    _centers, radii, _lenses = experiments._spherical_windows(target, L, lo, hi, t)
    return math.ceil(target.denominator_cap(t)) - 1, lo - margin, hi + margin, 2.0 * float(radii.max())


def d3_spherical_lenses():
    """The disks at the ranked ends of that search, the unit square and the
    pairs of ranks, as the lens step takes them."""
    target, _L, lo, hi, t = d3_spherical_row()
    ends, radix = farey.farey_window_pairs(*d3_spherical_pair_search())
    nodes, u, v = farey.pair_graph(ends, radix)
    centers, radii = experiments._spherical_disks(farey.pair_rows(nodes, radix), target.denominator_cap(t), target.chart.radius, 3, t)
    return centers, radii, lo, hi, (u, v)


D3_MEMBERSHIP = GrenierBoxStable(d=3, alphas=(1.0, 1.0), gammas=(2.0, 2.0), T=1.0, eps=0.2), 1.5


def d3_membership_build():
    """The d3-membership row's index arguments (coordinate box with alphas 1,
    gammas 2, T = 1, eps = 0.2, t = 1.5, unit square)."""
    target, t = D3_MEMBERSHIP
    return target, None, np.zeros(2), np.ones(2), t


def d3_membership_points():
    """That row's 4,000 uniform samples as sthe-run draws them at seed 0."""
    return np.random.default_rng((0, 0)).uniform(0.0, 1.0, size=(4000, 2))


def d3_membership_count():
    """count_farey_arrays' arguments on that row: d, the alpha cutoff and
    the unit square grown by the candidate radius, as _build_index passes
    them."""
    target, t = D3_MEMBERSHIP
    radius = target.candidate_radius(t)
    return target.d, target.alpha_cutoff(t), (np.full(2, -radius - 1e-12), np.full(2, 1.0 + radius + 1e-12))


def d3_membership_query():
    """That row's index, its samples, the candidate radius and the top of
    the alpha window."""
    target, t = D3_MEMBERSHIP
    index, _count = experiments._build_index(*d3_membership_build())
    return index, d3_membership_points(), target.candidate_radius(t), target.alpha_window(t)[1]


def d3_membership_row():
    """sampled_integral's arguments on that row."""
    return (*d3_membership_build(), d3_membership_points())


def d3_membership_pairs():
    """dual_hits' arguments on that row: the target, its samples and the
    (sample, candidate) pairs of their batched query."""
    target, t = D3_MEMBERSHIP
    index, points, radius, amax = d3_membership_query()
    pairs = index.near(points, radius, alpha_max=amax)
    return target, None, t, points, pairs[:, 0], pairs[:, 1], index


def timed(fn, make, repeat=3):
    """Best wall-clock seconds of repeat calls of fn, each on new arguments
    from make()."""
    best = float("inf")
    for _ in range(repeat):
        args = make()
        tic = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - tic)
    return best


def minor_faults(fn, make):
    """Minor page faults that one call of fn takes."""
    args = make()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn(*args)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def peak_mib(fn, make):
    """Peak MiB that one call of fn allocates, by tracemalloc."""
    args = make()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


CASES = [
    ("phi_sieve(5e6)", "phi_sieve", (5_000_000,)),
    ("mobius_sieve(5e6)", "mobius_sieve", (5_000_000,)),
    ("jordan_sieve(1e6, 2)", "jordan_sieve", (1_000_000, 2)),
    ("floor_diff_prefix(1e6)", "floor_diff_prefix", (0.123, 0.877, 1_000_000, 1.0)),
    ("farey_d2(4000)", "farey_d2", (4000, 0.0, 1.0)),
    ("farey_d3(250)", "farey_d3", (250, 0.0, 1.0, 0.0, 1.0)),
    ("farey_arrays(d = 4, 40)", "farey_arrays", (4, 40)),
    ("primitive_box(+-150)", "primitive_box", (np.array([-150.0, -150.0, -150.0]), np.array([150.0, 150.0, 150.0]))),
    ("translated_arrays(t = 2.4)", "translated_arrays", a3_translated_arrays),
    # the interior count of the t = 15.5 exact-window row (A = [0.1, 0.7], T = 2, eps = 0.2),
    # the Mertens values it takes its Moebius block sums from, the floor sums at
    # their quotients, the unit cell at the same m, and the whole row
    ("mertens_quotients(3811092)", "mertens_quotients", (3_811_092,)),
    ("floor_sums(t = 15.5 quotients)", "floor_sums", row_floor_sums),
    ("count_farey_in_interval(3811092, 0, 1)", "count_farey_in_interval", (3_811_092, 0.0, 1.0)),
    (
        "count_farey_in_interval(3811092)",
        "count_farey_in_interval",
        (3_811_092, 0.1 + 0.1 * math.exp(-31.0), 0.7 - 0.1 * math.exp(-31.0)),
    ),
    ("exact_window_stable_d2(t = 15.5)", "exact_window_stable_d2", (StableSection(d=2, T=2.0, eps=0.2), None, 0.1, 0.7, 15.5)),
    # the A3 collision searches and window volumes; a callable builds its arguments when the case runs
    ("farey_window_pairs(A3)", "farey_window_pairs", a3_pair_search),
    ("collision_pairs(A3)", "collision_pairs", a3_centers),
    ("pair_graph(A3)", "pair_graph", a3_pair_ends),
    ("_clipped_box_volumes(A3)", "_clipped_box_volumes", a3_clipped),
    ("_stable_raw_sum(A3)", "_stable_raw_sum", a3_raw_sum),
    ("window_sum(A3)", "_window_sum_stable_enumerated", a3_window_sum),
    ("window_sum(A3, t = 3.2)", raised_budget_window_sum, a3_deep_window_sum),
    ("farey_window_pairs(d = 4, t = 1.5)", "farey_window_pairs", d4_pair_search),
    ("window_sum(d = 4, t = 1.5)", "_window_sum_stable_enumerated", d4_window_sum),
    ("window_sum_spherical(d3-window)", "window_sum_spherical", d3_spherical_row),
    ("_disk_box_areas(d3-window)", "_disk_box_areas", d3_spherical_disks),
    ("spherical pairs(d3-window)", "farey_window_pairs", d3_spherical_pair_search),
    (
        "_inside_lenses(d3-window)",
        lambda centers, radii, lo, hi, pairs: experiments._inside_lenses(centers, radii, lo, hi, pairs=pairs),
        d3_spherical_lenses,
    ),
    (
        "_cluster_union_volume(A3)",
        lambda centers, u, v, w, lo, hi, raw: experiments._cluster_union_volume(centers, w, lo, hi, pairs=(u, v), raw=raw),
        a3_pairs,
    ),
    ("count_farey_arrays(d3-membership)", "count_farey_arrays", d3_membership_count),
    ("_build_index(d3-membership)", "_build_index", d3_membership_build),
    (
        "FareyIndex.near(d3-membership)",
        lambda index, points, radius, amax: index.near(points, radius, alpha_max=amax),
        d3_membership_query,
    ),
    ("dual_hits(d3-membership)", dual_hits, d3_membership_pairs),
    ("sampled_integral(d3-membership)", "sampled_integral", d3_membership_row),
]


def resolve(name):
    """A case's function: itself when callable, else the attribute of that
    name in _kernels, farey or experiments, the first that has it."""
    return name if callable(name) else getattr(K, name, None) or getattr(farey, name, None) or getattr(experiments, name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'case':40s} {'seconds':>10s} {'faults':>8s} {'peak MiB':>10s}")
    for label, name, fargs in CASES:
        fn = resolve(name)
        make = fargs if callable(fargs) else lambda fargs=fargs: fargs
        seconds = timed(fn, make, repeat=args.repeat)
        print(f"{label:40s} {seconds:9.3f}s {minor_faults(fn, make):8d} {peak_mib(fn, make):10.1f}")


if __name__ == "__main__":
    main()
