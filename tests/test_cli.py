import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import layerfield
from layerfield.cli import main


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


def test_solve_strict_escalates_slow_regime(tmp_path, capsys):
    cfg = {
        "problem": "halfplane_coupled",
        "geometry": {"l": 0.01, "k": 0.01},
        "boundary": {"modes": [{"omega": 1.0}]},
        "method": "series",
        "grid": {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]},
    }
    path = write_config(tmp_path, "slow.json", cfg)
    code, _, err = run_cli(["solve", "--config", path, "--strict", "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 4
    assert "asymptotic" in err
    # without --strict the solve still runs
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0


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
    for k, l, expect in ((1.0, 1.0, "series"), (0.01, 0.01, "asymptotic"), (0.5, 1.0, "series")):
        cfg = dict(base, geometry={"l": l, "k": k})
        path = write_config(tmp_path, f"reg_{k}.json", cfg)
        code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["recommendation"] == expect
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


@pytest.mark.parametrize(
    "cfg, env",
    [
        (strip_config(truncation={"J": "abc"}), None),
        (strip_config(truncation={"tol": "x"}), None),
        (strip_config(grid={"x": [0.0, 0.5, "a"], "y": [-1.0, 1.0, 5]}), None),
        (strip_config(boundary={"modes": [1]}), None),
        (annulus_config([{"n": -1}]), None),
        (strip_config(), "abc"),
    ],
    ids=["J-text", "tol-text", "grid-count-text", "mode-not-object", "negative-n", "threads-env-text"],
)
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, cfg, env):
    if env is not None:
        monkeypatch.setenv("LAYERFIELD_THREADS", env)
    path = write_config(tmp_path, "bad.json", cfg)
    code, _, err = run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_huge_radial_mode_index_rejected_before_allocation(tmp_path, capsys):
    import tracemalloc

    path = write_config(tmp_path, "huge.json", annulus_config([{"n": 100_000_000}]))
    tracemalloc.start()
    try:
        code, _, err = run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "radial mode n" in err
    assert peak < 10 * 2**20
