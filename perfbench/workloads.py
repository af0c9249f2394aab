"""Workload configs and row checks for the sthe-run benchmark.

Each workload is a list of `sthe-run` YAML configs.  Seed 0 gives exactly
the configs whose results.csv data columns are stored in reference.json;
other seeds draw small offsets that change the work per pass by a few
percent.  The smoke size runs the same code paths in seconds.
"""

from __future__ import annotations

import math
import random

# why each workload is in the benchmark, and which layers it stresses
WHY = {
    "d3-window": "d = 3 exact window sums: window union and collision clustering dominate and set peak RSS",
    "d2-count": "d = 2 exact-window rows: sieves and Moebius scans, no clustering, union or membership",
    "d3-membership": "d = 3 Monte Carlo over a coordinate box: per-sample member_dual and grenier_reduce",
}
WORKLOADS = tuple(WHY)

UNIT_SQUARE = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def configs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The YAML documents one pass runs, in order."""
    smoke = size == "smoke"
    rng = random.Random(seed)
    if workload == "d3-window":
        ytilde = [0.0, 0.0] if seed == 0 else [rng.uniform(-0.05, 0.05) for _ in range(2)]
        return [
            {
                "d": 3,
                "target": {"kind": "stable", "T": 1.0, "eps": 0.2, "ytilde": ytilde},
                "A": UNIT_SQUARE,
                "t_schedule": [2.0 if smoke else 2.85],
                "estimator": {"kind": "window-sum"},
            },
            {
                "d": 3,
                "target": {"kind": "spherical", "T": 3.0, "radius": 0.5},
                "A": UNIT_SQUARE,
                "t_schedule": [2.0 if smoke else 2.6],
                "estimator": {"kind": "window-sum"},
            },
        ]
    if workload == "d2-count":
        lo, hi = 0.1, 0.7
        if seed != 0:
            lo += rng.uniform(-0.05, 0.05)
            hi += rng.uniform(-0.05, 0.05)
        return [
            {
                "d": 2,
                "target": {"kind": "stable", "T": 2.0, "eps": 0.2},
                "A": {"lo": [lo], "hi": [hi]},
                "t_schedule": [8.0] if smoke else [14.0, 15.0, 15.5],
                "T_rule": {"kind": "constant"},
                "estimator": {"kind": "exact-window"},
            }
        ]
    if workload == "d3-membership":
        return [
            {
                "d": 3,
                "target": {"kind": "grenier-stable", "alphas": [1.0, 1.0], "gammas": [2.0, 2.0], "T": 1.0, "eps": 0.2},
                "A": UNIT_SQUARE,
                "t_schedule": [1.5],
                "estimator": {"kind": "monte-carlo", "n": 50 if smoke else 4000},
                "seed": seed,
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")


# acceptance tolerance of an exact row against the analytic limit
EXACT_TOLERANCE = {("stable", 3): 0.05, ("stable", 2): 0.02, ("spherical", 3): 0.02}
REL_TOL = 1e-12
DATA_COLUMNS = ("t", "T", "Q", "estimate", "predicted", "rel_error", "count")


def _float_matches(value: str, ref: str, absolute: bool) -> bool:
    a, b = float(value), float(ref)
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= REL_TOL * (1.0 if absolute else abs(b))


def check_row(doc: dict, row: dict, ref_row: dict | None) -> list[str]:
    """Problems with one results.csv row; empty when the row is correct.

    ref_row holds the reference data columns (seed 0 only).  Estimates and
    the other float columns agree to 1e-12 relative (rel_error, a difference
    of nearly equal numbers, to 1e-12 absolute); count agrees exactly.
    """
    problems = []
    if ref_row is not None:
        for col in DATA_COLUMNS:
            if col == "count":
                ok = row[col] == ref_row[col]
            else:
                ok = _float_matches(row[col], ref_row[col], absolute=(col == "rel_error"))
            if not ok:
                problems.append(f"{col}={row[col]} differs from reference {ref_row[col]}")
    estimate = float(row["estimate"])
    if doc["estimator"]["kind"] == "monte-carlo":
        vol = math.prod(h - l for l, h in zip(doc["A"]["lo"], doc["A"]["hi"]))
        if not 0.0 <= estimate <= vol:
            problems.append(f"Monte Carlo estimate {estimate} outside [0, vol(A)={vol}]")
    else:
        tol = EXACT_TOLERANCE[(doc["target"]["kind"], doc["d"])]
        rel = float(row["rel_error"])
        if not rel <= tol:
            problems.append(f"rel_error {rel} above the acceptance tolerance {tol}")
    return problems
