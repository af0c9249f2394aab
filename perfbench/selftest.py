"""Self-test of the benchmark's own checks, at a smoke size that runs in seconds.

    python3 perfbench/selftest.py

For each workload at seed 0 and smoke size (d = 3 rows at t = 2.0, the
d = 2 row at t = 8, Monte Carlo with n = 50):
  - every row matches reference.json, so error_rate is 0;
  - with one reference value perturbed, error_rate is above 0;
  - a traced run reports a nonzero self_s for every layer the workload uses.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import sys

import workloads
from run import HERE, run_benchmark

# layers each workload calls at smoke size; the others must read zero calls
USED = {
    "d3-window": (
        "cli.main", "experiments.estimate_integral", "experiments._stable_window_centers",
        "experiments._window_sum_stable_enumerated", "experiments._cluster_union_volume",
        "experiments.window_sum_spherical", "farey.farey_arrays", "farey.collision_clusters", "kernels.farey_d3",
    ),
    "d2-count": (
        "cli.main", "experiments.estimate_integral", "experiments.exact_window_stable_d2",
        "farey.count_farey_in_interval", "kernels.mobius_sieve", "kernels.floor_diff_prefix",
    ),
    "d3-membership": (
        "cli.main", "experiments.estimate_integral", "experiments.sampled_integral", "farey.farey_index",
        "farey.farey_arrays", "farey.FareyIndex.near", "kernels.farey_d3", "targets.member_dual",
        "targets._test_candidate", "coords.grenier_reduce",
    ),
}


def main() -> int:
    reference = json.loads((HERE / "reference.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        clean = run_benchmark(workload, 0, 0, False, size="smoke", reference=reference)
        expect(clean["failed"] == 0, f"{workload}: rows match the reference (error_rate {clean['error_rate']})")

        perturbed = copy.deepcopy(reference)
        row = perturbed["smoke"][workload][0][0]
        row["estimate"] = repr(float(row["estimate"]) * (1 + 1e-9) + 1e-300)
        bad = run_benchmark(workload, 0, 0, False, size="smoke", reference=perturbed)
        expect(bad["error_rate"] > 0, f"{workload}: a perturbed reference estimate raises error_rate ({bad['error_rate']})")

        traced = run_benchmark(workload, 0, 0, True, size="smoke", reference=reference)
        metrics = {k: m["value"] for k, m in traced["metrics"].items()}
        for layer in USED[workload]:
            expect(metrics[f"{layer}.self_s"] > 0, f"{workload}: {layer}.self_s = {metrics[f'{layer}.self_s']:.3g} > 0")
        idle = [k for k, v in metrics.items() if k.endswith(".calls") and v and k[: -len(".calls")] not in USED[workload]]
        expect(not idle, f"{workload}: no other layer is called {idle}")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
