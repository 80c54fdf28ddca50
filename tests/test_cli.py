import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import layerfield
from layerfield import cli
from layerfield.cli import main
from layerfield.harmonic import HalfPlaneField
from layerfield.series import PlanarLayerConfig


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strip_config(**overrides):
    cfg = {
        "problem": "strip",
        "geometry": {"l": 0.5},
        "boundary": {"modes": [{"omega": 1.0, "A": 1.0, "phi": 0.0}]},
        "method": "series",
        "truncation": {"tol": 1e-10},
        "grid": {"x": [0.0, 0.5, 6], "y": [-1.0, 1.0, 5]},
    }
    cfg.update(overrides)
    return cfg


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_strip_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "strip.json", strip_config())
    out = tmp_path / "grid.csv"
    code, stdout, _ = run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,region,u"
    assert len(lines) == 1 + 6 * 5
    first = lines[1].split(",")
    assert first[2] == "1"
    assert float(first[3]) == pytest.approx(math.cos(-1.0), abs=1e-9)
    summary = json.loads(stdout)
    assert summary["problem"] == "strip" and summary["terms"] >= 1


def test_solve_deterministic_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "strip.json", strip_config())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out1)], capsys)[0] == 0
    assert run_cli(["solve", "--config", cfg, "--out", str(out2), "--threads", "4"], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_env_var_honoured(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAYERFIELD_THREADS", "3")
    cfg = write_config(tmp_path, "strip.json", strip_config())
    out1 = tmp_path / "env.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out1)], capsys)[0] == 0
    monkeypatch.delenv("LAYERFIELD_THREADS")
    out2 = tmp_path / "plain.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_rejects_unknown_fields(tmp_path, capsys):
    cfg = strip_config()
    cfg["geomtry"] = {"l": 0.5}
    path = write_config(tmp_path, "typo.json", cfg)
    code, _, err = run_cli(["solve", "--config", path], capsys)
    assert code == 2
    assert "geomtry" in err


def test_solve_validates_geometry(tmp_path, capsys):
    cfg = {
        "problem": "annulus",
        "geometry": {"R": 1.2},
        "boundary": {"modes": [{"n": 1}]},
        "grid": {"r": [0.7, 1.0, 4], "theta": [0.0, 6.28, 8]},
    }
    path = write_config(tmp_path, "bad.json", cfg)
    code, _, err = run_cli(["solve", "--config", path], capsys)
    assert code == 2


def test_solve_grid_must_stay_inside_region(tmp_path, capsys):
    cfg = strip_config(grid={"x": [0.0, 0.9, 5], "y": [-1.0, 1.0, 5]})
    path = write_config(tmp_path, "outside.json", cfg)
    code, _, _ = run_cli(["solve", "--config", path], capsys)
    assert code == 2


def test_solve_strict_escalates_slow_regime(capsys):
    # a config's boundary modes are summed per mode at any ladder length,
    # so only a field with boundary sources, summed image by image, reaches
    # the gate's escalation
    cfg = {"problem": "halfplane_coupled", "geometry": {"l": 0.01, "k": 0.01}}
    geo = PlanarLayerConfig(l=0.01, k=0.01)
    sources = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.0, 1.0)])
    assert cli._strict_regime_gate(cfg, geo, sources)
    err = capsys.readouterr().err
    assert "asymptotic" in err and json.loads(err)["j_needed"] > 1000
    assert not cli._strict_regime_gate(cfg, geo, HalfPlaneField(modes=[(1.0, 1.0, 0.0)]))


def test_solve_strict_passes_mode_field_in_thin_layer(tmp_path, capsys):
    # l=0.1, k=0.005: rho alone needs 2764 terms, the modes' e^{-2 l omega}
    # decay brings the ladder the series builds down to 125
    cfg = {
        "problem": "halfplane_coupled",
        "geometry": {"l": 0.1, "k": 0.005},
        "boundary": {"modes": [{"omega": 1.0}, {"omega": 3.0}]},
        "method": "series",
        "grid": {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]},
    }
    path = write_config(tmp_path, "thin.json", cfg)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["recommendation"] == "series"
    code, stdout, _ = run_cli(["solve", "--config", path, "--strict", "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0
    assert json.loads(stdout)["terms"] == rep["j_needed"] == 125


def test_regimes_counts_the_disk_ladder_the_series_builds(tmp_path, capsys):
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.99, "k": 0.01},
        "boundary": {"modes": [{"n": 2, "a": 0.5}, {"n": 5, "b": 0.25}]},
        "method": "series",
        "truncation": {"tol": 1e-10},
        "regime": {"tol": 1e-10, "threshold": 10},
        "grid": {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
    }
    path = write_config(tmp_path, "disk.json", cfg)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["j_needed"] > rep["threshold"] and rep["recommendation"] == "series"
    code, stdout, _ = run_cli(["solve", "--config", path, "--strict", "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0
    assert json.loads(stdout)["terms"] == rep["j_needed"]


def test_solve_convergence_failure_exit_code(tmp_path, capsys):
    cfg = {
        "problem": "halfplane_coupled",
        "geometry": {"l": 1e-4, "k": 1e-5},
        "boundary": {"modes": [{"omega": 1.0}]},
        "method": "series",
        "truncation": {"tol": 1e-300},
        "grid": {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]},
    }
    path = write_config(tmp_path, "hard.json", cfg)
    code, _, err = run_cli(["solve", "--config", path], capsys)
    assert code == 3


def test_solve_disk_regions_in_csv(tmp_path, capsys):
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.7, "k": 0.5},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "method": "series",
        "grid": {"r": [0.1, 0.99, 6], "theta": [0.0, 6.0, 5]},
    }
    path = write_config(tmp_path, "disk.json", cfg)
    out = tmp_path / "disk.csv"
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,theta,region,u"
    regions = {line.split(",")[2] for line in lines[1:]}
    assert regions == {"1", "2"}


def test_verify_series_passes_and_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, "strip.json", strip_config())
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    code, stdout, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["all_pass"] is True
    # round-trip: re-checking the solved grid reproduces the verdicts
    code, stdout, _ = run_cli(["verify", "--config", cfg, "--grid", str(out)], capsys)
    assert code == 0
    report2 = json.loads(stdout)
    assert report2["grid_matches"] is True
    assert {k: v["pass"] for k, v in report2["checks"].items()} == {
        k: v["pass"] for k, v in report["checks"].items()
    }


ROUNDTRIP = {
    "strip": ({"l": 0.37}, {"x": [0.0, 0.37, 7], "y": [-2.0, 2.0, 9]}),
    "halfplane_coupled": ({"l": 0.21, "k": 0.3, "a1": 1.0, "a2": 1.7}, {"x": [0.0, 1.3, 9], "y": [-2.0, 2.0, 9]}),
    "annulus": ({"R": 0.63}, {"r": [0.63, 1.0, 7], "theta": [0.0, 6.28, 9]}),
    "disk_coupled": ({"R": 0.71, "k": 3.0}, {"r": [0.0, 1.0, 9], "theta": [0.0, 6.28, 9]}),
}


@pytest.mark.parametrize("method", ["series", "asymptotic", "oracle", "identity"])
@pytest.mark.parametrize("problem", sorted(ROUNDTRIP))
def test_verify_grid_reproduces_every_route(tmp_path, capsys, problem, method):
    # solve evaluates whole layers of the grid at once, the re-check the
    # file's nodes one list at a time: both must give the same bits
    geometry, grid = ROUNDTRIP[problem]
    if problem in ("annulus", "disk_coupled"):
        modes = [{"n": 1, "a": 0.7, "b": 0.1}, {"n": 4, "a": -0.2, "b": 0.5}]
    else:
        modes = [{"omega": 1.3, "A": 0.7, "phi": 0.2}, {"omega": 3.1, "A": -0.4, "phi": 1.0}]
    cfg = {"problem": problem, "geometry": geometry, "grid": grid, "boundary": {"modes": modes}, "method": method}
    path = write_config(tmp_path, "rt.json", cfg)
    out = tmp_path / "rt.csv"
    assert run_cli(["solve", "--config", path, "--out", str(out)], capsys)[0] == 0
    _, stdout, _ = run_cli(["verify", "--config", path, "--grid", str(out)], capsys)
    assert json.loads(stdout)["grid_mismatches"] == 0


def test_verify_identity_method_fails_inner_boundary(tmp_path, capsys):
    cfg = write_config(tmp_path, "fake.json", strip_config(method="identity"))
    code, stdout, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 1
    report = json.loads(stdout)
    assert report["checks"]["boundary_mismatch"]["pass"] is False


def test_verify_zero_field_passes(tmp_path, capsys):
    cfg = strip_config()
    cfg["boundary"] = {"modes": [{"omega": 1.0, "A": 0.0}]}
    path = write_config(tmp_path, "zero.json", cfg)
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


def test_verify_coupled_disk_series(tmp_path, capsys):
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.7, "k": 0.5},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "method": "series",
        "truncation": {"tol": 1e-9},
        "grid": {"r": [0.1, 0.99, 5], "theta": [0.0, 6.0, 5]},
        "tolerances": {"pde_residual": 1e-4},
    }
    path = write_config(tmp_path, "disk.json", cfg)
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


@pytest.mark.parametrize(
    "cfg",
    [
        {"problem": "disk_coupled", "geometry": {"R": 0.999, "k": 0.05},
         "boundary": {"modes": [{"n": 1, "a": 1}]}, "method": "series"},
        {"problem": "halfplane_coupled", "geometry": {"l": 0.002, "k": 0.05},
         "boundary": {"modes": [{"omega": 1.0, "A": 1.0}]}, "method": "series"},
    ],
    ids=["disk-R0.999", "halfplane-l0.002"],
)
def test_verify_layer_thinner_than_four_stencil_steps(tmp_path, capsys, cfg):
    # the stencil step shrinks to an eighth of the layer, so every sample
    # span stays inside it; at the default 1e-3 the spans would invert
    path = write_config(tmp_path, "thin.json", cfg)
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


def test_compare_identical_methods_zero_diff(tmp_path, capsys):
    cfg = strip_config()
    del cfg["method"]
    cfg["methods"] = ["series", "series"]
    path = write_config(tmp_path, "cmp.json", cfg)
    code, stdout, _ = run_cli(["compare", "--config", path], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["max_abs_diff"]["series|series"] == 0.0


def test_compare_series_vs_oracle(tmp_path, capsys):
    cfg = strip_config()
    del cfg["method"]
    cfg["methods"] = ["series", "oracle"]
    cfg["grid"] = {"x": [0.05, 0.45, 6], "y": [-1.0, 1.0, 5]}
    path = write_config(tmp_path, "cmp.json", cfg)
    code, stdout, _ = run_cli(["compare", "--config", path, "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["max_abs_diff"]["series|oracle"] <= 1e-9
    table = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert table[0] == "x,y,u_series,u_oracle,absdiff_series_oracle"
    assert len(table) == 1 + 30


def test_compare_thickness_sweep_first_order(tmp_path, capsys):
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.96, "k": 0.05},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "methods": ["series", "asymptotic"],
        "truncation": {"tol": 1e-10},
        "grid": {"r": [0.1, 0.99, 6], "theta": [0.0, 6.28, 6]},
        "sweep": {"R": [0.98, 0.96, 0.92]},
    }
    path = write_config(tmp_path, "sweep.json", cfg)
    code, stdout, _ = run_cli(["compare", "--config", path], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert 0.7 <= summary["thickness_order"] <= 1.3
    assert len(summary["sweep"]["thickness"]) == 3


def test_compare_needs_two_methods(tmp_path, capsys):
    cfg = strip_config()
    del cfg["method"]
    cfg["methods"] = ["series"]
    path = write_config(tmp_path, "one.json", cfg)
    assert run_cli(["compare", "--config", path], capsys)[0] == 2


def test_regimes_examples(tmp_path, capsys):
    base = {
        "problem": "halfplane_coupled",
        "boundary": {"modes": [{"omega": 1.0}]},
        "grid": {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]},
    }
    # j_needed is the series' own term count; a mode field's ladder is
    # summed per mode, so even the slow (0.01, 0.01) one stays with the series
    for k, l in ((1.0, 1.0), (0.01, 0.01), (0.5, 1.0)):
        cfg = dict(base, geometry={"l": l, "k": k})
        path = write_config(tmp_path, f"reg_{k}.json", cfg)
        code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["recommendation"] == "series"
        code, stdout, _ = run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
        assert code == 0
        assert json.loads(stdout)["terms"] == rep["j_needed"]
    rep_k1 = dict(base, geometry={"l": 1.0, "k": 1.0})
    path = write_config(tmp_path, "k1.json", rep_k1)
    _, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    rep = json.loads(stdout)
    assert rep["rho"] == 0.0 and rep["j_needed"] == 1


def test_regimes_rejects_uncoupled_problem(tmp_path, capsys):
    path = write_config(tmp_path, "strip.json", strip_config())
    assert run_cli(["regimes", "--config", path], capsys)[0] == 2


def test_boundary_samples_disk(tmp_path, capsys):
    theta = np.arange(32) * 2 * math.pi / 32
    vals = np.cos(theta)
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(theta, vals)) + "\n")
    cfg = {
        "problem": "annulus",
        "geometry": {"R": 0.7},
        "boundary": {"samples": "trace.csv"},
        "method": "series",
        "grid": {"r": [0.7, 1.0, 5], "theta": [0.0, 6.0, 5]},
    }
    path = write_config(tmp_path, "ann.json", cfg)
    out = tmp_path / "ann.csv"
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    # spot value against the closed form
    rows = out.read_text().strip().splitlines()[1:]
    for row in rows:
        r, t, _, u = row.split(",")
        r, t, u = float(r), float(t), float(u)
        expected = (r - 0.49 / r) / 0.51 * math.cos(t) if r > 0.7 else 0.0
        assert abs(u - expected) <= 1e-8


def test_oracle_fd_solve_with_samples(tmp_path, capsys):
    ys = np.linspace(-3.0, 3.0, 201)
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(f"{float(y)!r},{math.cos(y)!r}" for y in ys) + "\n")
    cfg = {
        "problem": "strip",
        "geometry": {"l": 0.5},
        "boundary": {"samples": "trace.csv"},
        "method": "oracle",
        "grid": {"x": [0.0, 0.5, 9], "y": [-3.0, 3.0, 33]},
    }
    path = write_config(tmp_path, "fd.json", cfg)
    out = tmp_path / "fd.csv"
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().startswith("x,y,region,u")


def test_fd_strip_lateral_edges_follow_the_trace(tmp_path, capsys):
    # trace cos(y) on [-3, 3]: the exact solution is cos(y) sinh(l - x) / sinh(l); the lateral
    # edges carry the interpolant cos(+-3) (1 - x/l) instead of 0
    ys = np.linspace(-3.0, 3.0, 201)
    (tmp_path / "trace.csv").write_text("\n".join(f"{float(y)!r},{math.cos(y)!r}" for y in ys) + "\n")
    cfg = {"problem": "strip", "geometry": {"l": 0.5}, "boundary": {"samples": "trace.csv"},
           "method": "oracle", "grid": {"x": [0.0, 0.5, 9], "y": [-3.0, 3.0, 33]}}
    out = tmp_path / "fd.csv"
    code, _, _ = run_cli(["solve", "--config", write_config(tmp_path, "fd.json", cfg), "--out", str(out)], capsys)
    assert code == 0
    x, y, _, u = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    exact = np.cos(y) * np.sinh(0.5 - x) / math.sinh(0.5)
    edge = (x == 0.25) & (np.abs(y) == 3.0)
    assert edge.sum() == 2
    assert u[edge] == pytest.approx(0.5 * np.interp(3.0, ys, np.cos(ys)), abs=1e-12)
    assert np.max(np.abs(u - exact)) < 0.02


@pytest.mark.parametrize(
    "text, line",
    [("np.float64(0.0),np.float64(1.0)\n1.0,0.5\n2.0,0.3\n", 1),
     ("\nt,u\n0.0,1.0\n1.0,nan?\n2.0,0.3\n", 4)],
    ids=["numpy-repr", "bad-row-after-header"],
)
def test_fd_trace_with_a_non_numeric_row_exits_2(tmp_path, capsys, text, line):
    (tmp_path / "trace.csv").write_text(text)
    cfg = {"problem": "strip", "geometry": {"l": 0.5}, "boundary": {"samples": "trace.csv"},
           "method": "oracle", "grid": {"x": [0.0, 0.5, 5], "y": [0.0, 2.0, 5]}}
    code, _, err = run_cli(["solve", "--config", write_config(tmp_path, "fd.json", cfg),
                            "--out", str(tmp_path / "fd.csv")], capsys)
    assert code == 2
    assert f"line {line}:" in err


def test_console_script_entry():
    # the child must import the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(layerfield.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "layerfield.cli"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2  # argparse usage error: no subcommand


def annulus_config(modes):
    return {
        "problem": "annulus",
        "geometry": {"R": 0.7},
        "boundary": {"modes": modes},
        "grid": {"r": [0.7, 1.0, 4], "theta": [0.0, 6.0, 4]},
    }


def test_annulus_constant_mode_solve_and_verify(tmp_path, capsys):
    # boundary value 1: the Dirichlet profile is ln(r/R)/ln(1/R), not 0.  The
    # 5-point stencil's own truncation on ln r near r = R is ~1.1e-5, so the
    # pde check gets the stencil-level tolerance
    cfg = annulus_config([{"n": 0, "a": 1}])
    cfg["tolerances"] = {"pde_residual": 1e-4}
    path = write_config(tmp_path, "const.json", cfg)
    out = tmp_path / "const.csv"
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    for row in out.read_text().strip().splitlines()[1:]:
        r, _, _, u = map(float, row.split(","))
        assert abs(u - math.log(r / 0.7) / math.log(1 / 0.7)) <= 1e-15
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


def test_annulus_constant_mode_oracle_matches_series(tmp_path, capsys):
    cfg = {"problem": "annulus", "geometry": {"R": 0.5}, "boundary": {"modes": [{"n": 0, "a": 1}]},
           "grid": {"r": [0.5, 1.0, 11], "theta": [0.0, 6.0, 7]}}
    grids, tail_bound = {}, None
    for method in ("series", "oracle"):
        path = write_config(tmp_path, f"{method}.json", {**cfg, "method": method})
        out = tmp_path / f"{method}.csv"
        code, stdout, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
        assert code == 0
        if method == "series":
            tail_bound = json.loads(stdout)["tail_bound"]
        grids[method] = np.loadtxt(out, delimiter=",", skiprows=1)
    series, oracle = grids["series"], grids["oracle"]
    assert np.array_equal(series[:, :3], oracle[:, :3])
    # one rounding of ln(r/R)/ln(1/R) <= 1 apart, within the series' tail bound
    assert np.max(np.abs(series[:, 3] - oracle[:, 3])) <= tail_bound + 4 * np.finfo(float).eps
    assert oracle[-1, 3] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "cfg, env",
    [
        (strip_config(truncation={"J": "abc"}), None),
        (strip_config(truncation={"tol": "x"}), None),
        (strip_config(grid={"x": [0.0, 0.5, "a"], "y": [-1.0, 1.0, 5]}), None),
        (strip_config(boundary={"modes": [1]}), None),
        (annulus_config([{"n": -1}]), None),
        (strip_config(), "abc"),
        (strip_config(geometry={"l": True}), None),
        (strip_config(boundary={"modes": [{"omega": True}]}), None),
        (strip_config(truncation={"J": True}), None),
        ({**strip_config(problem="halfplane_coupled"), "geometry": {"l": 0.5, "k": True}}, None),
        (strip_config(truncation={"J": 2.5}), None),
        (annulus_config([{"n": 1.5}]), None),
        (strip_config(grid={"x": [0.0, 0.5, 5.5], "y": [-1.0, 1.0, 5]}), None),
    ],
    ids=[
        "J-text", "tol-text", "grid-count-text", "mode-not-object", "negative-n", "threads-env-text",
        "l-bool", "omega-bool", "J-bool", "k-bool", "J-fraction", "n-fraction", "grid-count-fraction",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, cfg, env):
    if env is not None:
        monkeypatch.setenv("LAYERFIELD_THREADS", env)
    path = write_config(tmp_path, "bad.json", cfg)
    code, _, err = run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2
    assert err.startswith("error: ")


def run_cli_traced(args, capsys):
    """Exit code, stderr and peak traced allocation of one CLI call."""
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, err = run_cli(args, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, err, peak


def test_huge_radial_mode_index_rejected_before_allocation(tmp_path, capsys):
    path = write_config(tmp_path, "huge.json", annulus_config([{"n": 100_000_000}]))
    code, err, peak = run_cli_traced(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2
    assert "radial mode n" in err
    assert peak < 10 * 2**20


#: one node over the cap; should the check go, a case costs a few 80 MB arrays, not more
OVER = 10_000_001


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("compare", strip_config(grid={"x": [0.0, 0.5, 3163], "y": [-1.0, 1.0, 3163]})),
        ("compare", strip_config(grid={"x": [0.0, 0.5, 1], "y": [-1.0, 1.0, OVER]})),
        ("compare", {**annulus_config([{"n": 1}]), "grid": {"r": [0.7, 1.0, OVER], "theta": [0.0, 6.0, 1]}}),
        ("solve", {**strip_config(method="oracle", boundary={"samples": "trace.csv"}),
                   "grid": {"x": [0.0, 0.5, 1], "y": [-1.0, 1.0, OVER]}}),
    ],
    ids=["square", "one-row", "one-column", "fd-samples"],
)
def test_huge_grid_rejected_before_allocation(tmp_path, capsys, command, cfg):
    (tmp_path / "trace.csv").write_text("-1.0,0.5\n0.0,1.0\n1.0,0.5\n")
    # compare writes no CSV without --out
    if command == "compare":
        cfg, out = {**cfg, "methods": ["identity", "identity"]}, []
    else:
        out = ["--out", str(tmp_path / "g.csv")]
    path = write_config(tmp_path, "huge.json", cfg)
    code, err, peak = run_cli_traced([command, "--config", path, *out], capsys)
    assert code == 2
    assert "nodes; at most 10000000" in err
    assert peak < 10 * 2**20


def test_huge_fd_grid_rejected_before_allocation(tmp_path, capsys):
    (tmp_path / "trace.csv").write_text("0.0,1.0\n3.0,0.5\n6.0,1.0\n")
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.5, "k": 0.5},
        "boundary": {"samples": "trace.csv"},
        "method": "oracle",
        "grid": {"r": [0.0, 1.0, 1], "theta": [0.0, 6.0, cli.MAX_GRID_NODES + 1]},
    }
    path = write_config(tmp_path, "huge_fd.json", cfg)
    code, err, peak = run_cli_traced(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2
    assert f"grid has {cli.MAX_GRID_NODES + 1} nodes; at most {cli.MAX_GRID_NODES} are allowed" in err
    assert peak < 10 * 2**20


def test_long_sweep_rejected_before_evaluation(tmp_path, capsys):
    # 1500 x 1500 nodes take 18 MB per route: rejection must come before the grid
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.96, "k": 0.05},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "methods": ["series", "asymptotic"],
        "grid": {"r": [0.0, 1.0, 1500], "theta": [0.0, 6.0, 1500]},
        "sweep": {"R": [0.99 - 1e-5 * i for i in range(1001)]},
    }
    path = write_config(tmp_path, "sweep.json", cfg)
    code, err, peak = run_cli_traced(["compare", "--config", path], capsys)
    assert code == 2
    assert "sweep.R lists 1001 values; at most 1000" in err
    assert peak < 10 * 2**20


def fd_trace_config(tmp_path, problem, geometry, grid):
    """A sample-backed FD solve config; the trace is cos(theta) (or cos(y))."""
    ts = np.linspace(-3.0, 3.0, 65) if problem == "strip" else np.linspace(0.0, 2.0 * math.pi, 65)[:-1]
    (tmp_path / "trace.csv").write_text("\n".join(f"{float(t)!r},{math.cos(t)!r}" for t in ts) + "\n")
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"samples": "trace.csv"},
           "method": "oracle", "grid": grid}
    return write_config(tmp_path, "fd.json", cfg)


@pytest.mark.parametrize(
    "problem, geometry, grid, axis",
    [
        ("annulus", {"R": 0.5}, {"r": [0.8, 0.9, 5], "theta": [1.0, 2.0, 8]}, "r"),
        ("annulus", {"R": 0.5}, {"r": [0.5, 1.0, 5], "theta": [1.0, 2.0, 8]}, "theta"),
        ("annulus", {"R": 0.5}, {"r": [0.5, 1.0, 5], "theta": [0.0, 6.0, 8]}, "theta"),
        ("disk_coupled", {"R": 0.5, "k": 0.5}, {"r": [0.0, 0.9, 8], "theta": [0.0, 2.0 * math.pi, 8]}, "r"),
        ("strip", {"l": 0.5}, {"x": [0.1, 0.5, 5], "y": [-1.0, 1.0, 5]}, "x"),
    ],
    ids=["annulus-r-and-theta", "annulus-theta", "annulus-theta-stop", "disk-r", "strip-x"],
)
def test_fd_grid_range_it_would_not_honour_exits_2(tmp_path, capsys, problem, geometry, grid, axis):
    path = fd_trace_config(tmp_path, problem, geometry, grid)
    out = tmp_path / "fd.csv"
    code, _, err = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 2
    assert f"grid axis {axis} must" in err
    assert not out.exists()


@pytest.mark.parametrize("stop", [2.0 * math.pi, 2.0 * math.pi * 7 / 8], ids=["2pi", "last-periodic-node"])
def test_fd_grid_over_the_whole_annulus_is_solved(tmp_path, capsys, stop):
    path = fd_trace_config(tmp_path, "annulus", {"R": 0.5}, {"r": [0.5, 1.0, 5], "theta": [0.0, stop, 8]})
    out = tmp_path / "fd.csv"
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    rows = [tuple(map(float, line.split(",")[:2])) for line in out.read_text().splitlines()[1:]]
    assert sorted({r for r, _ in rows}) == pytest.approx(np.linspace(0.5, 1.0, 5).tolist())
    assert sorted({t for _, t in rows}) == pytest.approx((np.arange(8) * 2.0 * math.pi / 8).tolist())


def test_coupled_disk_constant_mode_tail_bound_covers_the_error(tmp_path, capsys):
    # with rho != 1 the constant does not cancel in the ladder and decays
    # only like |rho|^j; the exact solution is 1 + r cos(theta) in both layers
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.5, "k": 0.5},
        "method": "series",
        "boundary": {"modes": [{"n": 0, "a": 1}, {"n": 1, "a": 1}]},
        "truncation": {"tol": 1e-10},
        "grid": {"r": [0.0, 1.0, 5], "theta": [0.0, 0.0, 1]},
    }
    path = write_config(tmp_path, "const_disk.json", cfg)
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    summary = json.loads(stdout)
    r0, _, _, u0 = map(float, out.read_text().splitlines()[1].split(","))
    assert r0 == 0.0
    assert abs(u0 - 1.0) <= summary["tail_bound"]
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert json.loads(stdout)["checks"]["boundary_mismatch"]["pass"] is True


def test_truncation_sup_bound_is_an_unknown_field(tmp_path, capsys):
    cfg = {
        "problem": "halfplane_coupled",
        "geometry": {"l": 0.1, "k": 0.02},
        "boundary": {"modes": [{"omega": 1.0}]},
        "method": "series",
        "truncation": {"tol": 1e-10, "sup_bound": 1e-12},
        "grid": {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]},
    }
    path = write_config(tmp_path, "sup.json", cfg)
    out = tmp_path / "g.csv"
    code, _, err = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 2
    assert "sup_bound" in err
    assert not out.exists()


def test_strip_with_no_modes_is_the_zero_solution(tmp_path, capsys):
    path = write_config(tmp_path, "empty.json", strip_config(boundary={"modes": []}))
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(["solve", "--config", path, "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(stdout)["tail_bound"] == 0.0
    assert np.all(np.loadtxt(out, delimiter=",", skiprows=1)[:, 3] == 0.0)


def _io_case(tmp_path, case):
    """Arguments of a run whose input or output cannot be read or written."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.csv").write_bytes(b"t,v\n0.0,1.0\n\xe9\n")
    disk = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.5, "k": 0.5},
        "method": "series",
        "grid": {"r": [0.0, 1.0, 3], "theta": [0.0, 1.0, 2]},
    }
    if case == "config-is-a-directory":
        return ["solve", "--config", str(tmp_path / "adir")]
    if case == "config-not-utf8":
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(strip_config()).encode().replace(b'"strip"', b'"strip\xe9"'))
        return ["solve", "--config", str(path)]
    if case == "output-is-a-directory":
        cfg = strip_config(output={"path": str(tmp_path / "adir")})
        return ["solve", "--config", write_config(tmp_path, "cfg.json", cfg)]
    samples = "adir" if case == "samples-is-a-directory" else "latin1.csv"
    cfg = {**disk, "boundary": {"samples": samples}}
    return ["solve", "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "g.csv")]


@pytest.mark.parametrize(
    "case",
    ["config-is-a-directory", "config-not-utf8", "output-is-a-directory", "samples-is-a-directory",
     "samples-not-utf8"],
)
def test_io_and_encoding_errors_exit_2(tmp_path, capsys, case):
    code, _, err = run_cli(_io_case(tmp_path, case), capsys)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("method", ["asymptotic", "oracle"])
@pytest.mark.parametrize(
    "literal",
    ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400, "1" + "0" * 5000],
    ids=["Infinity", "-Infinity", "NaN", "1e400", "int-401-digits", "int-5001-digits"],
)
def test_non_finite_config_number_exits_2(tmp_path, capsys, literal, method):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(strip_config(method=method)).replace('"l": 0.5', f'"l": {literal}'))
    out = tmp_path / "g.csv"
    code, _, err = run_cli(["solve", "--config", str(path), "--out", str(out)], capsys)
    assert code == 2
    assert f"must be finite floats, got {literal[:24]}" in err
    assert not out.exists()


def test_compare_sweep_rejects_repeated_thicknesses(tmp_path, capsys):
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.9, "k": 0.05},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "methods": ["series", "asymptotic"],
        "grid": {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
        "sweep": {"R": [0.9, 0.9, 0.9]},
    }
    path = write_config(tmp_path, "sweep.json", cfg)
    code, stdout, err = run_cli(["compare", "--config", path], capsys)
    assert code == 2
    assert stdout == ""
    assert "distinct" in err
