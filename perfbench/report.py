"""Print or compare benchmark records that run.py writes to perfbench-out/.

    python3 perfbench/report.py RECORD.json            one record; a traced record gets its
                                                       per-layer self times derived again from its spans
    python3 perfbench/report.py BASE.json NEW.json     end-to-end medians side by side

Two records are compared only when they ran the same workload, in the same
trace mode, on the same backend.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT
from tracing import layer_metrics


def show(record: dict) -> None:
    env = record["env"]
    print(f"{record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  passes {len(record['passes'])}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"error_rate {record['error_rate']:.6g} ({record['failed']} of {record['attempted']} rows)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    if not record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{name:20s} {m['value']:>14.6g} {m['unit']}")
        return
    spans = json.loads((ROOT / record["spans"]["path"]).read_text())["spans"]
    derived = layer_metrics(spans, record["spans"]["wall_s"])
    print(f"one traced pass, wall {record['spans']['wall_s']:.4g} s; self time by layer:")
    self_times = {k[: -len(".self_s")]: v for k, v in derived.items() if k.endswith(".self_s")}
    for layer, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        if value:
            print(f"  {layer:45s} {value:>10.4g} s")
    for name in ("trace.overhead_s", "trace.unattributed_s"):
        value = record["metrics"].get(name, {}).get("value", derived.get(name))
        print(f"{name:47s} {value:>10.4g} s")


def compare(base: dict, new: dict) -> int:
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} {base[key]!r} vs {new[key]!r}", file=sys.stderr)
            return 2
    if base["env"]["backend"] != new["env"]["backend"]:
        print(f"refusing to compare: backend {base['env']['backend']} vs {new['env']['backend']}", file=sys.stderr)
        return 2
    print(f"{base['workload']}: base {base['env']['src_sha256'][:12]}  new {new['env']['src_sha256'][:12]}")
    for name, m in base["metrics"].items():
        if name in new["metrics"]:
            b, n = m["value"], new["metrics"][name]["value"]
            change = f"{(n - b) / b:+.1%}" if b else "-"
            print(f"{name:52s} {b:>12.6g} {n:>12.6g} {change:>8s} {m['unit']}")
    return 0


def main(argv) -> int:
    records = [json.loads(Path(p).read_text()) for p in argv]
    if len(records) == 1:
        show(records[0])
        return 0
    if len(records) == 2:
        return compare(*records)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
