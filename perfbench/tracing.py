"""Layer spans recorded from outside the program.

`install` swaps module attributes of horolab for timing wrappers; nothing in
the package itself changes.  Each call becomes a span [name, start, end,
parent id, counters] kept in memory and written once when the pass ends.
Counting work done after a call (for example the raw window volume behind
the collision deficit) is itself a span named TRACE, so it is charged to
neither the layer nor its caller.

Helpers called 1e5 to 1e6 times per pass (_circle_box_area, _unit_corner,
_merge_length) stay unwrapped; their time is their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

TRACE = "trace.bookkeeping"
KERNELS = ("phi_sieve", "mobius_sieve", "jordan_sieve", "floor_diff_prefix", "farey_d2", "farey_d3", "primitive_box")


def _kernel_counts(out, args):
    arrays = out if isinstance(out, tuple) else (out,)
    return {"items": int(arrays[0].shape[0]), "bytes_out": int(sum(a.nbytes for a in arrays))}


def _overlap(out, args):
    from horolab import experiments  # imported in the pass only; run.py imports this module without horolab

    centers, w, lo, hi = args
    raw = float(experiments._clipped_box_volumes(centers, w, lo, hi).sum())
    return {"overlap": raw - out, "max_cluster": int(centers.shape[0])}


# (module[:class], attribute, span name, counters(result, args) or None)
LAYERS = [
    ("horolab.cli", "main", "cli.main", None),
    ("horolab.experiments", "estimate_integral", "experiments.estimate_integral", None),
    ("horolab.experiments", "exact_window_stable_d2", "experiments.exact_window_stable_d2", None),
    ("horolab.experiments", "_stable_window_centers", "experiments._stable_window_centers",
     lambda out, args: {"points": int(out[0].shape[0])}),
    ("horolab.experiments", "_window_sum_stable_enumerated", "experiments._window_sum_stable_enumerated",
     lambda out, args: {"window_sum": float(out[0])}),
    ("horolab.experiments", "_cluster_union_volume", "experiments._cluster_union_volume", _overlap),
    ("horolab.experiments", "window_sum_spherical", "experiments.window_sum_spherical", None),
    ("horolab.experiments", "sampled_integral", "experiments.sampled_integral", None),
    ("horolab.farey", "farey_arrays", "farey.farey_arrays", lambda out, args: {"points": int(out[0].shape[0])}),
    ("horolab.farey", "collision_clusters", "farey.collision_clusters",
     lambda out, args: {"clusters": len(out), "members": int(sum(m.size for m in out))}),
    ("horolab.farey", "count_farey_in_interval", "farey.count_farey_in_interval", None),
    ("horolab.farey", "farey_index", "farey.farey_index", lambda out, args: {"points": len(out)}),
    ("horolab.farey:FareyIndex", "near", "farey.FareyIndex.near", lambda out, args: {"candidates": int(out.size)}),
    *[("horolab._kernels", k, f"kernels.{k}", _kernel_counts) for k in KERNELS],
    ("horolab.targets", "member_dual", "targets.member_dual", lambda out, args: {"hits": int(out is not None)}),
    ("horolab.targets", "_test_candidate", "targets._test_candidate",
     lambda out, args: {"accepted": int(out is not None)}),
    # targets binds grenier_reduce by name at import, so the binding there is the one to swap
    ("horolab.targets", "grenier_reduce", "coords.grenier_reduce", None),
]


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters is not None:
                book = [TRACE, clock(), 0.0, stack[-1], None]
                span[4] = counters(out, args)
                book[2] = clock()
                spans.append(book)
            return out

        return traced

    def install(self) -> None:
        for owner_name, attr, name, counters in LAYERS:
            module, _, cls = owner_name.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counters))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# metrics reported per layer; self_s is the span durations minus the time their child spans cover
LAYER_METRICS = {
    "cli.main": ("self_s",),
    "experiments.estimate_integral": ("calls", "self_s"),
    "experiments.exact_window_stable_d2": ("self_s",),
    "experiments._stable_window_centers": ("self_s", "points"),
    "experiments._window_sum_stable_enumerated": ("self_s",),
    "experiments._cluster_union_volume": ("calls", "self_s"),
    "experiments.window_sum_spherical": ("self_s",),
    "experiments.sampled_integral": ("self_s",),
    "farey.farey_arrays": ("calls", "self_s", "points"),
    "farey.collision_clusters": ("self_s", "clusters", "members"),
    "farey.count_farey_in_interval": ("calls", "self_s"),
    "farey.farey_index": ("self_s", "points"),
    "farey.FareyIndex.near": ("calls", "self_s", "candidates"),
    **{f"kernels.{k}": ("calls", "self_s", "items", "bytes_out") for k in KERNELS},
    "targets.member_dual": ("calls", "self_s", "hits"),
    "targets._test_candidate": ("calls", "self_s", "accepted"),
    "coords.grenier_reduce": ("calls", "self_s"),
}


def layer_metrics(spans: list, pass_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed 'layer.metric'."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    max_cluster = 0
    top = 0.0
    for i, (name, start, end, parent, span_counts) in enumerate(spans):
        if parent < 0:
            top += end - start
        if name == TRACE:
            continue
        calls[name] += 1
        self_s[name] += (end - start) - covered[i]
        for key, value in (span_counts or {}).items():
            if key == "max_cluster":
                max_cluster = max(max_cluster, value)
            else:
                counts[name, key] += value
    out = {}
    for layer, metrics in LAYER_METRICS.items():
        for metric in metrics:
            if metric == "calls":
                out[f"{layer}.calls"] = calls[layer]
            elif metric == "self_s":
                out[f"{layer}.self_s"] = self_s[layer]
            else:
                out[f"{layer}.{metric}"] = int(counts[layer, metric])
    overlap = counts["experiments._cluster_union_volume", "overlap"]
    raw = counts["experiments._window_sum_stable_enumerated", "window_sum"] + overlap
    out["experiments.max_cluster"] = max_cluster
    out["experiments.collision_deficit"] = overlap / raw if raw else 0.0
    tested = calls["targets._test_candidate"]
    out["targets.candidate_yield"] = counts["targets._test_candidate", "accepted"] / tested if tested else 0.0
    out["trace.unattributed_s"] = pass_wall_s - top
    return out
