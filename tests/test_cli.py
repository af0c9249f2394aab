import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from horolab import cli, coords, targets
from horolab.errors import ConfigError, HorolabError


def run_cli(argv):
    return cli.main(argv)


def test_farey_rows(capsys):
    assert run_cli(["farey", "--d", "2", "--Q", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "q,p_1,x_1"
    assert len(out) == 5  # header + 4 points


def test_farey_translated_rational(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    assert run_cli(["farey", "--d", "2", "--Q", "1", "--L", "1,0;1,1", "--out", str(path)]) == 0
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 3


def test_cholesky_output(capsys):
    assert run_cli(["cholesky", "--u", "1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-12
    assert abs(doc["B"][0][0] - math.sqrt(1.5)) <= 1e-12
    assert abs(doc["det_squared"] - doc["one_plus_norm_sq"]) <= 1e-12


def test_volumes_value(capsys):
    assert run_cli(["volumes", "--target", "stable", "--d", "2", "--T", "2", "--eps", "0.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"] - 0.0303964) <= 1e-6


def test_duplicates_rational(capsys):
    assert run_cli(["duplicates", "--d", "2", "--L", "1,0;1/2,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "torus" and doc["period_basis"] == [[1.0]]


@pytest.mark.parametrize("d, Q, box", [(2, "30", ["0.1", "0.7"]), (3, "9", ["0.1", "0.2", "0.6", "0.9"])])
def test_farey_box_rows_are_the_full_rows_in_the_box(capsys, d, Q, box):
    # inside the open unit box the --box rows are the unboxed rows whose point
    # lies in the box, in the same order
    assert run_cli(["farey", "--d", str(d), "--Q", Q]) == 0
    full = capsys.readouterr().out.splitlines()
    assert run_cli(["farey", "--d", str(d), "--Q", Q, "--box", ",".join(box)]) == 0
    boxed = capsys.readouterr().out.splitlines()
    lo, hi = [float(v) for v in box[: d - 1]], [float(v) for v in box[d - 1 :]]

    def inside(row):
        q, p = int(row[0]), [int(v) for v in row[1:d]]
        return all(a * q <= v <= b * q for v, a, b in zip(p, lo, hi))

    want = [row for row in full[1:] if inside(row.split(","))]
    assert boxed[0] == full[0] and boxed[1:] == want and len(want) > 10


@pytest.mark.parametrize("argv", [
    ["farey", "--d", "3", "--Q", "5", "--L", "1,0;1/2,1"],
    ["farey", "--d", "2", "--Q", "5", "--L", "1,0,0;0,1,0;0,0,1"],
    ["farey", "--d", "2", "--Q", "5", "--box", "0.1,0.2,0.6,0.9"],
    ["duplicates", "--d", "3", "--L", "1,0;1/2,1"],
    ["duplicates", "--d", "2", "--L", "1,0,0;1/2,1,0;0,0,1"],
    ["membership", "--d", "2", "--target", "TARGET", "--x", "0.5", "--t", "1", "--L", "1,0,0;0,1,0;0,0,1"],
])
def test_d_must_match_the_translation_and_box(capsys, tmp_path, argv):
    spec = tmp_path / "target.yaml"
    spec.write_text("kind: stable\nT: 1\neps: 0.2\n")
    argv = [str(spec) if a == "TARGET" else a for a in argv]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "but --d is" in err or "values for d =" in err


def test_decompose_keys(capsys):
    assert run_cli(["decompose", "--matrix", "2,1;1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("n", "a", "k", "x", "ys", "height", "kprime", "y", "prefix"):
        assert key in doc
    assert doc["prefix"] == "none"
    assert doc["y"] == [1.0, 1.0]


def test_membership_witness_and_none(capsys, tmp_path):
    spec = tmp_path / "target.yaml"
    spec.write_text("kind: stable\nT: 1\neps: 0.2\nytilde: [0]\n")
    assert run_cli(["membership", "--d", "2", "--target", str(spec), "--x", "0.5", "--t", "4.6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == [1, 2]
    spec2 = tmp_path / "t2.yaml"
    spec2.write_text("kind: stable\nT: 2600\neps: 0.2\nytilde: [0]\n")
    assert run_cli(["membership", "--d", "2", "--target", str(spec2), "--x", "0.5", "--t", "4.60517"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_membership_direct_flag(capsys, tmp_path):
    spec = tmp_path / "target.yaml"
    spec.write_text("kind: stable\nT: 1\neps: 0.5\nytilde: [0]\n")
    assert run_cli(["membership", "--d", "2", "--target", str(spec), "--x", "0", "--t", "0", "--direct"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == [0, 1]


def test_marklof_check_exit_codes(capsys):
    assert run_cli(["marklof-check", "--d", "2", "--Q", "10000", "--Tprime", "2", "--tol", "0.005"]) == 0
    capsys.readouterr()
    assert run_cli(["marklof-check", "--d", "2", "--Q", "50", "--Tprime", "2", "--tol", "1e-9"]) == 1


def test_disjointness_sample_cli(capsys):
    assert run_cli(["disjointness-sample", "--d", "2", "--n", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["observed_min"] >= 1.0 - 1e-9


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "horolab.cli", "farey", "--nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_bad_config_value_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "target.yaml"
    spec.write_text("kind: stable\nT: 1\neps: not-a-number\n")
    code = run_cli(["membership", "--d", "2", "--target", str(spec), "--x", "0.5", "--t", "1"])
    assert code == 2


def test_direct_membership_of_a_spherical_target_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "target.yaml"
    spec.write_text("kind: spherical\nT: 2\nradius: 0.5\n")
    code = run_cli(["membership", "--d", "2", "--target", str(spec), "--x", "0.5", "--t", "1", "--direct"])
    assert code == 2 and "stable" in capsys.readouterr().err


def test_missing_target_key_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "target.yaml"
    spec.write_text("kind: stable\nT: 1\n")
    assert run_cli(["membership", "--d", "2", "--target", str(spec), "--x", "0.5", "--t", "1"]) == 2
    assert "'eps'" in capsys.readouterr().err
    cfg = sthe_config(tmp_path, target={"kind": "stable", "T": 2})
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'eps'" in capsys.readouterr().err
    doc = yaml.safe_load(sthe_config(tmp_path).read_text())
    del doc["t_schedule"]
    cfg.write_text(yaml.safe_dump(doc))
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'t_schedule'" in capsys.readouterr().err



ROOT = Path(__file__).resolve().parents[1]


def readme_config():
    """The experiment config document the README shows."""
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1))


@pytest.mark.parametrize("key, value, message", [
    ("estimater", {"kind": "grid", "n": 20}, "'estimater'"),
    ("tolerence", 0.02, "'tolerence'"),
    ("estimator", {"kind": "grid", "n": 2.7}, "'n' takes an integer"),
    ("estimator", {"kind": "monte-carlo", "n": "5/2"}, "'n' takes an integer"),
    ("estimator", {"kind": "grid", "n": True}, "'n' takes an integer"),
    ("d", 2.5, "'d' takes an integer"),
    ("seed", 0.5, "'seed' takes an integer"),
    ("estimator", {"kind": "exact-window", "n": 200, "sead": 1}, "estimator has no key 'sead'"),
    ("estimator", {"kind": "exact-window", "n": 200}, "exact-window estimator has no key 'n'"),
    ("T_rule", {"kind": "constant", "eta_prime": 0.2}, "constant T_rule has no key 'eta_prime'"),
    ("T_rule", {"kind": "growing", "eta_prime": 0.2, "eta": 0.1}, "T_rule has no key 'eta'"),
    ("A", {"lo": [0], "hi": [1], "l0": [0]}, "A has no key 'l0'"),
    ("A", [[0], [1]], "A takes a mapping"),
    ("L", {"diag_a2": "2", "diag_a3": "3"}, "L has no key 'diag_a3'"),
    ("L", {"a2": "2"}, "L has no key 'a2'"),
    ("L", [[1, 0], [0, 2]], r"\|det L\| = 1, got det L = 2"),
    ("L", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "finite 2 x 2 matrix"),
    ("L", 5, "L takes 'identity'"),
    ("t_schedule", 5, "t_schedule takes a list of numbers"),
    ("A", {"lo": 5, "hi": [1]}, "A lo takes a list of numbers"),
    ("target", "stable", "target takes a mapping"),
])
def test_config_rejects_unknown_keys_and_fractional_counts(key, value, message):
    # a misspelled key must not fall back to its default, and a fractional
    # sample count must not be truncated
    doc = readme_config()
    with pytest.raises(ConfigError, match=message):
        cli.config_from_dict({**doc, key: value})


def test_readme_and_benchmark_configs_parse():
    doc = readme_config()
    assert cli.config_from_dict(doc).estimator == ("exact-window",)
    for n in (200, 200.0, "200"):
        cfg = cli.config_from_dict({**doc, "estimator": {"kind": "grid", "n": n}})
        assert cfg.estimator == ("grid", 200) and type(cfg.estimator[1]) is int
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed, size in ((0, "full"), (3, "smoke")):
            for config in workloads.configs(workload, seed, size):
                cli.config_from_dict(config)


CHART2, CHART3 = coords.Chart(dim=2, radius=0.5), coords.Chart(dim=3, radius=0.5)


@pytest.mark.parametrize("d, doc, want", [
    (2, {"kind": "stable", "eps": 0.2}, targets.StableSection(d=2, T=1.0, eps=0.2, ytilde=(0.0,))),
    (3, {"kind": "stable", "T": "3/2", "eps": "1/5", "ytilde": ["1/100", -0.02]},
     targets.StableSection(d=3, T=1.5, eps=0.2, ytilde=(0.01, -0.02))),
    (2, {"kind": "spherical", "radius": 0.5}, targets.SphericalSection(d=2, T=2.0, chart=CHART2)),
    (3, {"kind": "spherical", "T": 3, "radius": "1/2"}, targets.SphericalSection(d=3, T=3.0, chart=CHART3)),
    (2, {"kind": "grenier-stable", "alphas": [1], "gammas": [4], "eps": 0.2},
     targets.GrenierBoxStable(d=2, alphas=(1.0,), gammas=(4.0,), beta_lo=None, beta_hi=None, ktilde=None, T=1.0,
                              eps=0.2, ytilde=(0.0,))),
    (3, {"kind": "grenier-stable", "alphas": [1, 1], "gammas": [2, "5/2"], "beta_lo": [-0.5, -0.5, -0.25],
         "beta_hi": [0.5, 0.5, 0.25], "ktilde": [0, 1], "T": 2, "eps": 0.2, "ytilde": [0.01, 0]},
     targets.GrenierBoxStable(d=3, alphas=(1.0, 1.0), gammas=(2.0, 2.5), beta_lo=(-0.5, -0.5, -0.25),
                              beta_hi=(0.5, 0.5, 0.25), ktilde=(0.0, 1.0), T=2.0, eps=0.2, ytilde=(0.01, 0.0))),
    (3, {"kind": "grenier-spherical", "alphas": [2, 2], "gammas": [6, 6], "radius": 0.5},
     targets.GrenierBoxSpherical(d=3, alphas=(2.0, 2.0), gammas=(6.0, 6.0), chart=CHART3, ktilde=None, T=None)),
    (2, {"kind": "grenier-spherical", "alphas": [1.5], "gammas": [6], "radius": 0.5, "ktilde": [0, 1], "T": 3},
     targets.GrenierBoxSpherical(d=2, alphas=(1.5,), gammas=(6.0,), chart=CHART2, ktilde=(0.0, 1.0), T=3.0)),
])
def test_target_from_dict_minimal_and_full_docs(d, doc, want):
    # the expected targets are the ones the per-kind constructors built
    # before the defaults moved onto the dataclass fields
    assert cli.target_from_dict(d, doc) == want


@pytest.mark.parametrize("d, doc, key", [
    (2, {"kind": "stable", "eps": 0.2, "Y_tilde": [0.3]}, "Y_tilde"),
    (2, {"kind": "stable", "eps": 0.2, "radius": 0.5}, "radius"),
    (3, {"kind": "spherical", "T": 3, "radius": 0.5, "eps": 0.2}, "eps"),
    (3, {"kind": "spherical", "T": 3, "radius": 0.5, "d": 3}, "d"),
])
def test_target_from_dict_rejects_unknown_keys(d, doc, key):
    with pytest.raises(ConfigError, match=repr(key)):
        cli.target_from_dict(d, doc)


def test_unknown_target_key_is_usage_error(capsys, tmp_path):
    # a misspelled optional key used to parse silently to its default
    cfg = sthe_config(tmp_path, target={"kind": "stable", "T": 2, "eps": 0.2, "Y_tilde": [0.3]})
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'Y_tilde'" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"kind": "grenier-stable", "alphas": [1, 1], "gammas": [2, 2], "eps": 0.2},
    {"kind": "grenier-spherical", "alphas": [2, 2], "gammas": [6, 6], "radius": 0.5},
])
def test_ktilde_must_be_a_pair(capsys, tmp_path, doc):
    cli.target_from_dict(3, {**doc, "ktilde": [0, 1]})
    doc = {**doc, "ktilde": [0.5]}
    with pytest.raises(HorolabError, match="ktilde must be an angle pair"):
        cli.target_from_dict(3, doc)
    cfg = sthe_config(tmp_path, d=3, target=doc, A={"lo": [0, 0], "hi": [1, 1]}, t_schedule=[1.0],
                      estimator={"kind": "monte-carlo", "n": 4})
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "ktilde must be an angle pair" in capsys.readouterr().err


def test_grenier_stable_ytilde_of_the_wrong_length_exits_2(capsys, tmp_path):
    # it used to broadcast over both offset axes and run to exit 0
    doc = {"kind": "grenier-stable", "alphas": [1, 1], "gammas": [2, 2], "eps": 0.2, "ytilde": [0.05]}
    cfg = sthe_config(tmp_path, d=3, target=doc, A={"lo": [0, 0], "hi": [1, 1]}, t_schedule=[1.0],
                      estimator={"kind": "monte-carlo", "n": 4})
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "ytilde must have length d-1" in capsys.readouterr().err


def test_tuple_target_key_takes_a_list():
    with pytest.raises(ConfigError, match="'ktilde' takes a list"):
        cli.target_from_dict(3, {"kind": "grenier-stable", "alphas": [1, 1], "gammas": [2, 2], "eps": 0.2, "ktilde": 0.5})


def test_volumes_reads_one_thickness_option(capsys):
    assert run_cli(["volumes", "--target", "spherical", "--d", "3", "--T", "3", "--radius", "0.5", "--eps", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "closed"


@pytest.mark.parametrize("doc, key", [
    ({"kind": "stable", "eps": [0.2]}, "'eps'"),
    ({"kind": "stable", "eps": {"value": 0.2}}, "'eps'"),
    ({"kind": "stable", "eps": 0.2, "ytilde": [[0.1]]}, "'ytilde[0]'"),
    ({"kind": "spherical", "T": 3, "radius": [0.5]}, "'radius'"),
])
def test_scalar_target_key_takes_a_number(capsys, tmp_path, doc, key):
    # a list or mapping once reached float() and ended sthe-run with a TypeError
    with pytest.raises(ConfigError, match=re.escape(f"{key} takes a number")):
        cli.target_from_dict(2, doc)
    cfg = sthe_config(tmp_path, target=doc, estimator={"kind": "window-sum"})
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{key} takes a number" in capsys.readouterr().err


SCIPY_PARTS = "('scipy.integrate', 'scipy.sparse', 'scipy.sparse.csgraph')"


def test_cli_import_leaves_scipy_integrate_and_csgraph_unloaded():
    code = f"import sys, horolab.cli; print(sorted(m for m in {SCIPY_PARTS} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_d3_window_sum_leaves_scipy_sparse_unloaded(tmp_path):
    # t = 1.8 has colliding windows, so the run labels collision clusters
    cfg = sthe_config(tmp_path, d=3, target={"kind": "stable", "T": 1, "eps": 0.2}, A={"lo": [0, 0], "hi": [1, 1]},
                      t_schedule=[1.8], estimator={"kind": "window-sum"})
    code = (f"import sys; from horolab import cli, farey; seen = []; run = farey._component_labels; "
            f"farey._component_labels = lambda *a: seen.append(run(*a)) or seen[-1]; "
            f"assert cli.main(['sthe-run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0; "
            f"print(sum(len(label) for label in seen), sorted(m for m in {SCIPY_PARTS} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    labelled, loaded = out.strip().splitlines()[-1].split(" ", 1)  # sthe-run prints its summary first
    assert int(labelled) > 0 and loaded == "[]"


def sthe_config(tmp_path, **overrides):
    doc = {
        "d": 2,
        "target": {"kind": "stable", "T": 2, "eps": 0.2, "ytilde": [0]},
        "A": {"lo": [0], "hi": [1]},
        "t_schedule": [5, 6],
        "T_rule": {"kind": "constant"},
        "estimator": {"kind": "exact-window"},
        "seed": 0,
        "tolerance": 0.05,
    }
    doc.update(overrides)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_sthe_run_outputs_and_manifest(capsys, tmp_path):
    cfg = sthe_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(out1), "--check"]) == 0
    capsys.readouterr()
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(out2), "--check"]) == 0
    capsys.readouterr()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "sthe-run" and "results.csv" in manifest["checksums"]

    def data_rows(p):
        rows = (p / "results.csv").read_text().strip().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]  # drop the timing column

    assert data_rows(out1) == data_rows(out2)


def test_sthe_run_tolerance_failure(capsys, tmp_path):
    cfg = sthe_config(tmp_path, tolerance=1e-9, t_schedule=[3, 4])
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--check"]) == 1


def test_sthe_run_over_budget_exits_2(capsys, tmp_path):
    # e^25 / sqrt(2) denominators: refused before any sieve is allocated
    cfg = sthe_config(tmp_path, t_schedule=[25])
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "over budget" in capsys.readouterr().err


def test_sthe_run_d3_window_sum_over_budget_exits_2(capsys, tmp_path):
    # about 1.9e20 predicted windows at t = 8: refused before any block is enumerated
    cfg = sthe_config(tmp_path, d=3, target={"kind": "stable", "T": 1, "eps": 0.2}, A={"lo": [0, 0], "hi": [1, 1]},
                      t_schedule=[8], estimator={"kind": "window-sum"})
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "over budget" in capsys.readouterr().err


def test_sthe_run_rational_literals_and_diag(capsys, tmp_path):
    cfg = sthe_config(tmp_path, L={"diag_a2": "2"}, t_schedule=[6])
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "d"), "--check"]) == 0
    doc = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert doc["passed"] and doc["region_warning"]


def test_sthe_run_jobs_match(tmp_path, capsys):
    cfg = sthe_config(tmp_path, t_schedule=[4, 5, 6])
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert run_cli(["sthe-run", "--config", str(cfg), "--out", str(tmp_path / "j2"), "--jobs", "3"]) == 0
    capsys.readouterr()
    rows1 = (tmp_path / "j1" / "results.csv").read_text().splitlines()
    rows2 = (tmp_path / "j2" / "results.csv").read_text().splitlines()
    assert [",".join(r.split(",")[:-1]) for r in rows1] == [",".join(r.split(",")[:-1]) for r in rows2]
