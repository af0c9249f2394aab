"""End-to-end and per-layer benchmark of `horolab sthe-run`.

    python3 perfbench/run.py --workload d3-window --seed 0 --seconds 25 --trace 0

Workloads (workloads.py): d3-window, d2-count, d3-membership.  A pass runs
all of a workload's configs through `horolab.cli.main(["sthe-run", ...])` in
a fresh interpreter with HOROLAB_BACKEND=numpy and --jobs 1; passes run one
after another until --seconds have elapsed (at least one pass).  Every row of
results.csv is checked (workloads.check_row); a row that fails its check or
raises counts in error_rate.

--trace 0 reports, as medians over the run:
  wall_s       seconds of one pass, all sthe-run calls included
  peak_rss_mb  peak RSS of the pass's interpreter
  setup_s      interpreter start until horolab is imported and the configs
               parsed; the run also starts SETUPS interpreters that only set up
wall_s and setup_s are reference seconds: the host's speed drifts by up to
1.8x within minutes, so each pass samples it with passrun.SpeedProbe and its
measured time, less the probes' own, is scaled to a host on which one probe
takes passrun.REF_PROBE_S.  The seconds as measured are printed and recorded
as wall_raw_s and setup_raw_s, beside the probes' speed factor.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py (medians over traced passes), with trace.overhead_s,
the traced minus the untraced median wall time.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics (those BENCHMARK.json
lists for the mode).  The full record
(environment, passes, row problems) is written to perfbench-out/, where
report.py reads it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
SETUPS = 3
DEADLINE_S = 170.0


def unit(metric: str) -> str:
    if metric == "wall_speed":
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_out"):
        return "bytes-computed"
    if metric.endswith(("collision_deficit", "candidate_yield")):
        return "ratio"
    return "MiB" if metric == "peak_rss_mb" else "count"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


class Run:
    """One benchmark invocation: its directory, configs and passes."""

    def __init__(self, workload: str, seed: int, size: str, tag: str):
        self.start = time.monotonic()
        self.workload, self.seed, self.size = workload, seed, size
        self.docs = workloads.configs(workload, seed, size)
        self.dir = OUT / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_paths = []
        for i, doc in enumerate(self.docs):
            path = self.dir / f"config{i}.yaml"
            path.write_text(json.dumps(doc))  # JSON is YAML; floats keep every digit
            self.config_paths.append(str(path))
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("HOROLAB_")}
        self.env.update(
            HOROLAB_BACKEND="numpy",
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, mode: str, probe: bool):
        """Run passrun.py once; its result dict, or None if it failed."""
        self.count += 1
        stem = self.dir / f"pass{self.count}"
        spec = {
            "src": str(ROOT / "src"),
            "configs": self.config_paths,
            "out": str(stem),
            "result": str(stem) + ".json",
            "spans": str(stem) + ".spans.json",
            "mode": mode,
            "probe": probe,
        }
        spec_path = Path(str(stem) + ".spec.json")
        log_path = Path(str(stem) + ".log")
        spec["launched"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "passrun.py"), str(spec_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=log,
            )
            try:
                proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                print(f"pass {self.count} ({mode}) timed out", file=sys.stderr)
            finally:  # on a timeout or an interrupt, never leave the pass running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            print(f"pass {self.count} ({mode}) exited {proc.returncode}:\n{log_path.read_text()[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        if result["backend"] != "numpy":
            raise SystemExit(f"pass ran the {result['backend']} backend, not numpy")
        result["spans"] = spec["spans"] if mode == "trace" else None
        return result

    def check(self, result, reference) -> tuple[int, list[str]]:
        """(rows attempted, problems) for one pass; a failed pass fails all its rows."""
        rows_expected = [len(doc["t_schedule"]) for doc in self.docs]
        if result is None:
            return sum(rows_expected), ["pass failed"] * sum(rows_expected)
        problems = []
        for i, (doc, outcome, n_rows) in enumerate(zip(self.docs, result["configs"], rows_expected)):
            if outcome["error"] is not None or outcome["exit_code"] != 0:
                why = outcome["error"] or f"sthe-run exited {outcome['exit_code']}"
                problems += [f"config {i}: {why.strip().splitlines()[-1]}"] * n_rows
                continue
            with open(Path(outcome["out"]) / "results.csv") as fh:
                rows = list(csv.DictReader(fh))
            problems += [f"config {i}: row missing"] * (n_rows - len(rows))
            for j, row in enumerate(rows[:n_rows]):
                ref_row = reference[self.size][self.workload][i][j] if self.seed == 0 else None
                for problem in workloads.check_row(doc, row, ref_row):
                    problems.append(f"config {i} row {j}: {problem}")
                    break
        return sum(rows_expected), problems


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", reference=None) -> dict:
    """Run passes for `seconds` and return the full record."""
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{size}-{os.getpid()}"
    run = Run(workload, seed, size, tag)
    setups, passes, problems, attempted = [], [], [], 0
    if not trace:
        for _ in range(SETUPS):
            result = run.spawn("setup", probe=True)
            if result is None:
                raise SystemExit("set-up failed")
            setups.append(result)
    begin = time.monotonic()
    while not passes or (time.monotonic() - begin < seconds and run.remaining() > 0):
        modes = ("pass", "trace") if trace else ("pass",)
        for mode in modes:
            result = run.spawn(mode, probe=not trace)
            n, found = run.check(result, reference)
            attempted += n
            problems += found
            passes.append({"mode": mode, "result": result})
            if result is None:
                break
        if passes[-1]["result"] is None:
            break
    ok = {mode: [p["result"] for p in passes if p["mode"] == mode and p["result"] is not None] for mode in ("pass", "trace")}
    failed = len(problems)
    if trace:
        per_pass = [layer_metrics(json.loads(Path(r["spans"]).read_text())["spans"], r["wall_s"]) for r in ok["trace"]]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in (per_pass[0] if per_pass else {})}
        if ok["pass"] and ok["trace"]:
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in ok["trace"]) - statistics.median(r["wall_s"] for r in ok["pass"])
            )
    else:
        setups += ok["pass"]
        metrics = {}
        if ok["pass"]:
            metrics["wall_s"] = statistics.median(r["wall_probe"]["ref_s"] for r in ok["pass"])
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok["pass"])
            metrics["wall_raw_s"] = statistics.median(r["wall_s"] for r in ok["pass"])
            metrics["wall_speed"] = statistics.median(r["wall_probe"]["speed"] for r in ok["pass"])
        metrics["setup_s"] = statistics.median(r["setup_probe"]["ref_s"] for r in setups)
        metrics["setup_raw_s"] = statistics.median(r["setup_s"] for r in setups)
    first = next((r for r in ok["pass"] + ok["trace"]), None)
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "seconds": seconds,
        "configs": run.docs,
        "env": {
            "backend": first and first["backend"],
            "jobs": 1,
            "python": first and first["python"],
            "numpy": first and first["numpy"],
            "scipy": first and first["scipy"],
            "git_sha": _git_sha(ROOT),
            "src_sha256": _source_digest(ROOT / "src"),
            "nproc": os.cpu_count(),
        },
        "passes": [{"mode": p["mode"], **{k: (p["result"] or {}).get(k)
                                          for k in ("setup_s", "setup_probe", "wall_s", "wall_probe", "cpu_s", "peak_rss_mb")}}
                   for p in passes],
        "setup_samples": [{k: r[k] for k in ("setup_s", "setup_probe")} for r in setups],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    if trace and ok["trace"]:
        kept = OUT / f"{tag}.spans.json"
        shutil.move(ok["trace"][-1]["spans"], kept)
        record["spans"] = {"path": str(kept.relative_to(ROOT)), "wall_s": ok["trace"][-1]["wall_s"]}
    shutil.rmtree(run.dir, ignore_errors=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # unwinds into spawn's cleanup
    if not (ROOT / "src" / "horolab" / "__init__.py").is_file():
        print(f"error: no horolab source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"passes {len(record['passes'])}  why: {workloads.WHY[record['workload']]}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in record["passes"] if p["wall_s"] is not None)
    print(f"pass wall seconds ({', '.join(p['mode'] for p in record['passes'])}): {walls}")
    for name, m in record["metrics"].items():
        print(f"{name:52s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':52s} {record['error_rate']:>16.6g} ratio ({record['failed']} of {record['attempted']} rows)")
    # the last line carries the metrics BENCHMARK.json lists for this mode
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in listed if m["name"] in record["metrics"]},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
