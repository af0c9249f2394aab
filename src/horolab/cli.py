"""Command-line front end.

Subcommands: farey, decompose, cholesky, membership, volumes, duplicates,
sthe-run, marklof-check, disjointness-sample.  Config files are YAML with
rational literals written as strings like "3/2"; those are parsed exactly.
Numeric output carries 15 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from . import coords, experiments, farey, targets
from .errors import ConfigError, HorolabError


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _scalar(value):
    """Numbers pass through; strings like '3/2' become exact Fractions."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as exc:
            raise ConfigError(f"cannot parse numeric literal {value!r}") from exc
    return value


def parse_vector(text: str) -> list:
    return [_scalar(v.strip()) for v in text.split(",") if v.strip()]


def parse_matrix(text: str) -> np.ndarray:
    if text.startswith("@"):
        doc = yaml.safe_load(Path(text[1:]).read_text())
        rows = [[_scalar(v) for v in row] for row in doc]
    else:
        rows = [parse_vector(row) for row in text.split(";")]
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def _round15(x):
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.15g}")
    if isinstance(x, np.ndarray):
        return _round15(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_round15(v) for v in x]
    if isinstance(x, dict):
        return {k: _round15(v) for k, v in x.items()}
    return x


def _emit(obj, fh=None) -> None:
    json.dump(_round15(obj), fh or sys.stdout, indent=2, sort_keys=True)
    (fh or sys.stdout).write("\n")


def _matrix_json(m: np.ndarray):
    return [[float(v) for v in row] for row in np.asarray(m, dtype=float)]


# ---------------------------------------------------------------------------
# target / config construction
# ---------------------------------------------------------------------------


def target_from_dict(d: int, doc: dict):
    """The target a config document describes.  "kind" picks the class in
    targets.KINDS; each field of that class but d is read from the key of
    its name, or from "radius" for a chart.  A key left out takes the
    field's default, and a required key left out or a key that names no
    field is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"target takes a mapping, got {doc!r}")
    kind = doc.get("kind")
    if kind not in targets.KINDS:
        raise ConfigError(f"unknown target kind {kind!r}")
    cls = targets.KINDS[kind]
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name != "d"}
    keys = {name: "radius" if hints[name] is coords.Chart else name for name in fields}
    _known_keys(f"{kind} target", doc, ("kind", *keys.values()))

    def number(key, value):
        try:
            return float(_scalar(value))
        except TypeError:
            raise ConfigError(f"{kind} target key {key!r} takes a number, got {value!r}") from None

    kwargs = {}
    for name, key in keys.items():
        hint, value = hints[name], doc.get(key)
        if value is None:
            if fields[name].default is dataclasses.MISSING:
                raise ConfigError(f"{kind} target needs {key!r}")
        elif hint is coords.Chart:
            kwargs[name] = coords.Chart(dim=d, radius=number(key, value))
        elif tuple in (hint, *typing.get_args(hint)):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{kind} target key {key!r} takes a list, got {value!r}")
            kwargs[name] = tuple(number(f"{key}[{i}]", v) for i, v in enumerate(value))
        else:
            kwargs[name] = number(key, value)
    return cls(d=d, **kwargs)


def _numbers(what: str, doc) -> tuple:
    """The floats of doc, when it is a list of numbers; else a ConfigError."""
    if isinstance(doc, (list, tuple)) and all(isinstance(_scalar(v), (int, float, Fraction)) for v in doc):
        return tuple(float(_scalar(v)) for v in doc)
    raise ConfigError(f"{what} takes a list of numbers, got {doc!r}")


def _known_keys(what: str, doc, keys) -> dict:
    """doc, when it is a mapping whose every key is in keys; else a
    ConfigError that names the first other key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} takes a mapping, got {doc!r}")
    unknown = sorted(map(str, set(doc) - set(keys)))
    if unknown:
        raise ConfigError(f"{what} has no key {unknown[0]!r}; its keys are {sorted(keys)}")
    return doc


def _l_from_config(doc, d: int):
    if doc is None or doc == "identity":
        return None
    if isinstance(doc, dict):
        a2 = float(_scalar(_known_keys("L", doc, ("diag_a2",))["diag_a2"]))
        a = math.sqrt(a2)
        if d != 2:
            raise ConfigError("diag_a2 shorthand is for d = 2")
        return ((a, 0.0), (0.0, 1.0 / a))
    if not isinstance(doc, (list, tuple)):
        raise ConfigError(f"L takes 'identity', a diag_a2 mapping or a list of rows, got {doc!r}")
    return tuple(_numbers("a row of L", row) for row in doc)


CONFIG_KEYS = ("d", "target", "A", "L", "t_schedule", "T_rule", "estimator", "seed", "tolerance")


def _integer(key: str, value) -> int:
    """An integral config number (an int, an integral float or a literal
    like "4000"), else a ConfigError."""
    v = _scalar(value)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    elif isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key {key!r} takes an integer, got {value!r}")
    return v


def config_from_dict(doc: dict) -> experiments.ExperimentConfig:
    """The run a config document describes; a key that CONFIG_KEYS does not
    name, a key that its A, T_rule, estimator or {diag_a2} L document does
    not take, a required key left out or a non-integral d, n or seed is a
    ConfigError."""
    _known_keys("config", doc, CONFIG_KEYS)
    try:
        d = _integer("d", doc["d"])
        a_doc = _known_keys("A", doc.get("A", {"lo": [0.0] * (d - 1), "hi": [1.0] * (d - 1)}), ("lo", "hi"))
        # eta_prime belongs to the growing rule only, n to the sampled estimators only
        rule_doc = _known_keys("T_rule", doc.get("T_rule", {"kind": "constant"}), ("kind", "eta_prime"))
        rule = (rule_doc["kind"],)
        if rule == ("growing",):
            rule += (float(_scalar(rule_doc["eta_prime"])),)
        _known_keys(f"{rule[0]} T_rule", rule_doc, ("kind", "eta_prime")[: len(rule)])
        est_doc = doc.get("estimator", {"kind": "auto"})
        if isinstance(est_doc, str):
            est_doc = {"kind": est_doc}
        est = (_known_keys("estimator", est_doc, ("kind", "n"))["kind"],)
        if est[0] in experiments.SAMPLED_ESTIMATORS:
            est += (_integer("n", est_doc["n"]),)
        _known_keys(f"{est[0]} estimator", est_doc, ("kind", "n")[: len(est)])
        return experiments.ExperimentConfig(
            d=d,
            target=target_from_dict(d, doc["target"]),
            A_lo=_numbers("A lo", a_doc["lo"]),
            A_hi=_numbers("A hi", a_doc["hi"]),
            t_schedule=_numbers("t_schedule", doc["t_schedule"]),
            L=_l_from_config(doc.get("L"), d),
            T_rule=rule,
            estimator=est,
            seed=_integer("seed", doc.get("seed", 0)),
            tolerance=float(_scalar(doc["tolerance"])) if "tolerance" in doc else None,
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing the key {exc.args[0]!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _translation(args):
    """The --L matrix, None when it is not given; a ConfigError unless it is
    d x d for the --d given."""
    if not args.L:
        return None
    L = parse_matrix(args.L)
    if L.shape != (args.d, args.d):
        raise ConfigError(f"--L is a {L.shape[0]}x{L.shape[1]} matrix but --d is {args.d}")
    return L


def _cmd_farey(args) -> int:
    L = _translation(args)
    box = None
    if args.box:
        vals = [float(v) for v in parse_vector(args.box)]
        if len(vals) != 2 * (args.d - 1):
            raise ConfigError(f"--box takes {2 * (args.d - 1)} values for d = {args.d}, got {len(vals)}")
        box = (vals[: args.d - 1], vals[args.d - 1 :])
    if L is None and box is None:
        pts = farey.enumerate_farey(args.d, args.Q)
    else:
        idx = farey.farey_index(args.d, args.Q, L, box)
        pts = [idx.record(i) for i in range(len(idx))]
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        farey.points_to_csv(pts, out)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_decompose(args) -> int:
    m = parse_matrix(args.matrix)
    nak = coords.iwasawa(m)
    doc = {"n": _matrix_json(nak.n), "a": _matrix_json(nak.a), "k": _matrix_json(nak.k)}
    try:
        rec = coords.hrd_coords(m)
        d = m.shape[0]
        s = -math.log(float(rec.y[d - 1])) / (d - 1)
        sec = coords.section_coords(rec.m_h, s)
        doc.update(
            {
                "y": [float(v) for v in rec.y],
                "prefix": rec.prefix,
                "x": _matrix_json(sec.x),
                "ys": [float(v) for v in sec.ys],
                "height": sec.height,
                "kprime": _matrix_json(sec.kprime),
            }
        )
    except HorolabError as exc:
        doc.update({"y": None, "prefix": None, "x": None, "ys": None, "height": None, "kprime": None,
                    "boundary": str(exc)})
    _emit(doc)
    return 0


def _cmd_cholesky(args) -> int:
    u = np.array([float(v) for v in parse_vector(args.u)], dtype=float)
    b = coords.reverse_cholesky(u)
    target = np.eye(u.size) + np.outer(u, u)
    residual = float(np.abs(b @ b.T - target).max())
    _emit({"B": _matrix_json(b), "residual": residual, "det_squared": float(np.linalg.det(b)) ** 2,
           "one_plus_norm_sq": 1.0 + float(u @ u)})
    return 0


def _cmd_membership(args) -> int:
    doc = yaml.safe_load(Path(args.target).read_text())
    target = target_from_dict(args.d, doc)
    L = _translation(args)
    x = [float(v) for v in parse_vector(args.x)]
    fn = targets.member_direct if args.direct else targets.member_dual
    witness = fn(target, L, x, args.t)
    if witness is None:
        print("none")
        return 0
    _emit(
        {
            "source": list(witness.farey.source),
            "alpha_prime": list(witness.farey.alpha_prime),
            "alpha_d": witness.farey.alpha_d,
            "point": list(witness.farey.point),
            "s": witness.s,
            "xt": list(witness.xt),
            "extra": {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in witness.extra.items()
                      if k in ("z", "c")},
        }
    )
    return 0


def _cmd_volumes(args) -> int:
    # each kind reads one of the two thickness options; the other is no key of it
    key = {"stable": "eps", "spherical": "radius"}[args.target]
    tgt = target_from_dict(args.d, {"kind": args.target, "T": args.T, key: getattr(args, key)})
    record = dataclasses.asdict(tgt.measure())
    del record["detail"]
    _emit({"target": args.target, **record})
    return 0


def _cmd_duplicates(args) -> int:
    region = farey.duplicate_region(_translation(args), assume_generic=args.assume_generic)
    _emit(
        {
            "kind": region.kind,
            "period_basis": None if region.period_basis is None else _matrix_json(region.period_basis),
        }
    )
    return 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cmd_sthe_run(args) -> int:
    doc = yaml.safe_load(Path(args.config).read_text())
    config = config_from_dict(doc)
    results = experiments.sthe_run(config, jobs=args.jobs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "results.csv"
    with open(csv_path, "w") as fh:
        experiments.write_results_csv(results, fh)
    report = experiments.convergence_report(results, tolerance=config.tolerance)
    summary = {
        "rows": len(results),
        "final_rel_error": report.final_rel_error,
        "slope": report.slope,
        "tolerance": config.tolerance,
        "passed": report.passed,
        "degenerate": report.degenerate,
        "region_warning": config.region_warning or None,
    }
    summary_path = outdir / "summary.json"
    with open(summary_path, "w") as fh:
        _emit(summary, fh)
    manifest = {
        "version": "1",
        "command": "sthe-run",
        "config": doc,
        "seed": config.seed,
        "outputs": [csv_path.name, summary_path.name],
        "checksums": {csv_path.name: _sha256(csv_path), summary_path.name: _sha256(summary_path)},
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(summary)
    if args.check and report.passed is False:
        return 1
    return 0


def _cmd_marklof_check(args) -> int:
    s1 = math.log(args.Tprime) / args.d
    res = experiments.marklof_average(args.d, args.Q, s1=s1)
    rel = abs(res.empirical - res.predicted) / res.predicted
    _emit({**dataclasses.asdict(res), "rel_error": rel})
    return 1 if args.tol is not None and rel > args.tol else 0


def _cmd_disjointness_sample(args) -> int:
    report = targets.disjointness_property_sample(args.d, args.n, seed=args.seed)
    _emit(dataclasses.asdict(report))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horolab",
        description="Farey lattice enumeration, SL(d) decompositions, shrinking-target "
        "membership tests and equidistribution experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("farey", help="enumerate (translated) Farey points as CSV: q,p_i,x_i columns")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--Q", type=float, required=True, help="denominator bound")
    p.add_argument("--L", help="translation matrix, 'a,b;c,d' with rationals like 1/2, or @file")
    p.add_argument("--box", help="lo...,hi... bounds for the projected points")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_farey)

    p = sub.add_parser("decompose", help="NAK factors plus section coordinates as JSON")
    p.add_argument("--matrix", required=True, help="'a,b;c,d' or @file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("cholesky", help="rank-one reverse Cholesky factor")
    p.add_argument("--u", required=True, help="comma-separated vector")
    p.set_defaults(fn=_cmd_cholesky)

    p = sub.add_parser("membership", help="shrinking-target membership witness or 'none'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--target", required=True, help="YAML target spec file")
    p.add_argument("--x", required=True, help="parameter point, comma-separated")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--L", help="translation matrix")
    p.add_argument("--direct", action="store_true", help="use the direct slab test (stable boxes)")
    p.set_defaults(fn=_cmd_membership)

    p = sub.add_parser("volumes", help="closed-form target measures")
    p.add_argument("--target", required=True, choices=["stable", "spherical"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--radius", type=float, default=0.5)
    p.set_defaults(fn=_cmd_volumes)

    p = sub.add_parser("duplicates", help="duplicate-free parameter region for a translation")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--assume-generic", action="store_true")
    p.set_defaults(fn=_cmd_duplicates)

    p = sub.add_parser("sthe-run", help="run an equidistribution sweep from a YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="sthe-out")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--check", action="store_true", help="exit 1 when the tolerance fails")
    p.set_defaults(fn=_cmd_sthe_run)

    p = sub.add_parser("marklof-check", help="section-hit fraction against the depth law")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--Q", type=float, required=True)
    p.add_argument("--Tprime", type=float, required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(fn=_cmd_marklof_check)

    p = sub.add_parser("disjointness-sample", help="sampled lower bound behind the disjointness budget")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_disjointness_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HorolabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
