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
from layerfield.series import MAX_LADDER_TERMS, PlanarLayerConfig


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


def test_solve_strict_escalates_slow_regime(tmp_path, capsys, monkeypatch):
    # a config's boundary modes are summed per mode at any ladder length,
    # so only a field with boundary sources, summed image by image, reaches
    # the gate's escalation; no config builds one, so it is swapped in.  A
    # source behind the boundary (depth 0.1) bounds itself, as TailTol needs
    cfg = {
        "problem": "halfplane_coupled",
        "geometry": {"l": 0.01, "k": 0.01},
        "boundary": {"modes": [{"omega": 1.0}]},
        "method": "series",
        "grid": {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]},
    }
    path = write_config(tmp_path, "thin.json", cfg)
    out = tmp_path / "g.csv"
    sources = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.0, 1.0, 0.1)])
    monkeypatch.setattr(cli, "boundary_field", lambda *a, **k: sources)
    code, _, err = run_cli(["solve", "--config", path, "--strict", "--out", str(out)], capsys)
    assert code == 4 and not out.exists()
    assert "asymptotic" in err and json.loads(err)["j_needed"] > 1000
    monkeypatch.setattr(cli, "boundary_field", lambda *a, **k: HalfPlaneField(modes=[(1.0, 1.0, 0.0)]))
    assert run_cli(["solve", "--config", path, "--strict", "--out", str(out)], capsys)[0] == 0


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
        "grid": {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
    }
    path = write_config(tmp_path, "disk.json", cfg)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["j_needed"] > 10 and rep["recommendation"] == "series"
    code, stdout, _ = run_cli(["solve", "--config", path, "--strict", "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0
    assert json.loads(stdout)["terms"] == rep["j_needed"]


def test_regimes_and_strict_model_the_term_cap(tmp_path, capsys):
    # mode n = 1 at R = 0.99999, k = 1e-6 needs 1565606 terms, past
    # MAX_LADDER_TERMS, where the series exits 3; the asymptotic route solves it
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.99999, "k": 1e-6},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "method": "series",
        "grid": {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
    }
    path = write_config(tmp_path, "cap.json", cfg)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["j_needed"] > MAX_LADDER_TERMS and rep["recommendation"] == "asymptotic"
    out = tmp_path / "g.csv"
    code, _, err = run_cli(["solve", "--config", path, "--strict", "--out", str(out)], capsys)
    assert code == 4
    assert json.loads(err)["recommendation"] == "asymptotic" and not out.exists()
    path = write_config(tmp_path, "asym.json", {**cfg, "method": "asymptotic"})
    assert run_cli(["solve", "--config", path, "--strict", "--out", str(out)], capsys)[0] == 0


def test_regimes_and_strict_count_at_the_truncation_tolerance(tmp_path, capsys):
    # at truncation tol 1e-15 the series needs 107638 terms, past
    # MAX_LADDER_TERMS; a gate counting at 1e-10 (78856 terms) let it through to exit 3
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.9999, "k": 1e-4},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "method": "series",
        "truncation": {"tol": 1e-15},
        "grid": {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
    }
    path = write_config(tmp_path, "tight.json", cfg)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["tol"] == 1e-15 and rep["j_needed"] == 107638 and rep["recommendation"] == "asymptotic"
    code, _, err = run_cli(["solve", "--config", path, "--strict", "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 4 and json.loads(err)["j_needed"] == 107638


def test_regimes_and_strict_count_a_fixed_ladder_length(tmp_path, capsys):
    # with truncation.J the series builds J terms; a gate counting at the
    # default tail tolerance read 1565606 terms and exited 4 on this config
    cfg = {
        "problem": "disk_coupled",
        "geometry": {"R": 0.99999, "k": 1e-6},
        "boundary": {"modes": [{"n": 1, "a": 1.0}]},
        "method": "series",
        "truncation": {"J": 1000},
        "grid": {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
    }
    path = write_config(tmp_path, "fixed.json", cfg)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["j_needed"] == 1000 and rep["recommendation"] == "series"
    assert "tol" not in rep
    code, stdout, _ = run_cli(["solve", "--config", path, "--strict", "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0 and json.loads(stdout)["terms"] == 1000


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


@pytest.mark.parametrize("row", ["0.0,0.0,1", "0.0,abc,1,2", "0.0,0.0,1,0.5,9"],
                         ids=["three-fields", "non-numeric-y", "five-fields"])
def test_verify_grid_with_a_malformed_row_exits_2(tmp_path, capsys, row):
    cfg = write_config(tmp_path, "strip.json", strip_config())
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()
    lines[3] = row
    out.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["verify", "--config", cfg, "--grid", str(out)], capsys)
    assert code == 2
    assert f"{out}, line 4:" in err


def test_verify_grid_counts_each_row_whose_region_or_value_differs(tmp_path, capsys):
    cfg = write_config(tmp_path, "strip.json", strip_config())
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()
    for i, (region, value) in {3: (None, "0.5"), 5: ("2", None), 7: ("2", "0.50")}.items():
        x, y, old_region, old_value = lines[i].split(",")
        lines[i] = ",".join([x, y, region or old_region, value or old_value])
    lines[9] = lines[9].replace(",", ", ", 1)  # float() takes the space; the row still matches
    # blank lines and CRLF endings are not rows
    out.write_bytes(("\r\n".join(lines[:4] + [""] + lines[4:]) + "\r\n\r\n").encode())
    code, stdout, _ = run_cli(["verify", "--config", cfg, "--grid", str(out)], capsys)
    assert code == 1
    assert json.loads(stdout)["grid_mismatches"] == 3


#: a coupled disk whose solve writes 25 rows
DISK_25 = {"problem": "disk_coupled", "geometry": {"R": 0.7, "k": 3.0}, "method": "series",
           "boundary": {"modes": [{"n": 1, "a": 1.0}, {"n": 3, "b": 0.3}]},
           "grid": {"r": [0.0, 1.0, 5], "theta": [0.0, 6.0, 5]}}


@pytest.mark.parametrize("keep, code, message", [
    (lambda lines: [], 2, "has header '', not the solve header 'r,theta,region,u'"),
    (lambda lines: lines[:1], 2, "holds no data rows"),
    (lambda lines: lines[:3], 1, None),
    (lambda lines: ["x,y,region,u"], 2, "has header 'x,y,region,u', not the solve header 'r,theta,region,u'"),
], ids=["empty", "header-only", "two-of-25-rows", "planar-header"])
def test_verify_grid_fails_a_file_that_holds_no_grid(tmp_path, capsys, keep, code, message):
    # each of these files once passed with grid_mismatches 0
    cfg = write_config(tmp_path, "disk.json", DISK_25)
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 26
    out.write_text("".join(line + "\n" for line in keep(lines)))
    got, stdout, err = run_cli(["verify", "--config", cfg, "--grid", str(out)], capsys)
    assert got == code
    if code == 2:
        assert err == f"error: {out} {message}\n" and stdout == ""
    else:
        report = json.loads(stdout)
        assert report["grid_matches"] is False and report["grid_mismatches"] == 23


def test_verify_grid_counts_rows_beyond_the_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, "disk.json", DISK_25)
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()
    # two repeated rows match their nodes, but each is a row beyond the grid's 25
    out.write_text("\n".join(lines + lines[-2:]) + "\n")
    code, stdout, _ = run_cli(["verify", "--config", cfg, "--grid", str(out)], capsys)
    assert code == 1 and json.loads(stdout)["grid_mismatches"] == 2
    # without a grid block the row count is not checked
    no_grid = write_config(tmp_path, "nogrid.json", {k: v for k, v in DISK_25.items() if k != "grid"})
    code, stdout, _ = run_cli(["verify", "--config", no_grid, "--grid", str(out)], capsys)
    assert code == 0 and json.loads(stdout)["grid_mismatches"] == 0


@pytest.mark.parametrize("problem, geometry, modes, grid", [
    ("halfplane_coupled", {"l": 0.2, "k": 1.0}, [{"omega": 1.0}], {"x": [0.0, 1.0, 3], "y": [0.0, 1.0, 3]}),
    ("disk_coupled", {"R": 0.5, "k": 1.0}, [{"n": 1}], {"r": [0.0, 1.0, 3], "theta": [0.0, 6.0, 3]}),
])
def test_asymptotic_at_unit_contrast_exits_2(tmp_path, capsys, problem, geometry, modes, grid):
    # rho = 0 has no Robin parameter; the one-term series is exact there
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}, "method": "asymptotic", "grid": grid}
    code, _, err = run_cli(["solve", "--config", write_config(tmp_path, "k1.json", cfg),
                            "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2
    assert "series is exact" in err


ROUNDTRIP = {
    "strip": ({"l": 0.37}, {"x": [0.0, 0.37, 7], "y": [-2.0, 2.0, 9]}),
    "halfplane_coupled": ({"l": 0.21, "k": 0.3, "a2": 1.7}, {"x": [0.0, 1.3, 9], "y": [-2.0, 2.0, 9]}),
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
        {"problem": "halfplane_coupled", "geometry": {"l": 0.001, "k": 0.01},
         "boundary": {"modes": [{"omega": 1.0}]}, "method": "oracle"},
        {"problem": "disk_coupled", "geometry": {"R": 0.999, "k": 0.01},
         "boundary": {"modes": [{"n": 1}]}, "method": "oracle"},
        {"problem": "halfplane_coupled", "geometry": {"l": 0.001, "k": 1e-4},
         "boundary": {"modes": [{"omega": 1.0}]}, "method": "oracle"},
    ],
    ids=["disk-R0.999", "halfplane-l0.002", "oracle-halfplane-k0.01", "oracle-disk-k0.01", "oracle-halfplane-k1e-4"],
)
def test_verify_layer_thinner_than_four_stencil_steps(tmp_path, capsys, cfg):
    # the stencil step shrinks to an eighth of the layer, so every sample
    # span stays inside it; at the default 1e-3 the spans would invert.
    # At small k the closed form's 1 - rho e^(-s) must be t_k - rho expm1(-s),
    # or it cancels as rho nears 1 and the ring reads that rounding
    path = write_config(tmp_path, "thin.json", cfg)
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


def test_verify_thin_annulus_oracle_passes(tmp_path, capsys):
    # the ring runs on the twin x = ln(1/r), so no r near 1 is rounded on
    # the way to the stencil: pde_residual reads 5.7e-8, where it read 2.2e-5
    cfg = {"problem": "annulus", "geometry": {"R": 0.999}, "boundary": {"modes": [{"n": 1}]}, "method": "oracle"}
    path = write_config(tmp_path, "thin.json", cfg)
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["checks"]["pde_residual"]["value"] <= 1e-7


def test_verify_grid_memory_does_not_grow_with_the_file(tmp_path, capsys):
    # 200,000 rows, about 10 MB of text, which as lines and fields in
    # memory at once would take about 100 MB
    grid = {"x": [0.0, 0.5, 500], "y": [-1.0, 1.0, 400]}
    cfg = write_config(tmp_path, "big.json", strip_config(method="oracle", grid=grid))
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    code, _, peak = run_cli_traced(["verify", "--config", cfg, "--grid", str(out)], capsys)
    assert code == 0
    assert peak < 16 * 2**20


def test_compare_repeated_methods_exit_2(tmp_path, capsys):
    # n copies of one method would hold n + n(n-1)/2 grids, every added one a copy
    cfg = strip_config()
    del cfg["method"]
    cfg["methods"] = ["series", "oracle", "series"]
    path = write_config(tmp_path, "cmp.json", cfg)
    code, stdout, err = run_cli(["compare", "--config", path], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: compare methods must be distinct")


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



@pytest.mark.parametrize("k", [0.05, 3.0])
def test_sweep_keeps_the_half_plane_anisotropy(k):
    geo = PlanarLayerConfig(l=0.1, k=k, a2=4.0)
    swept, thickness = cli._sweep_geometry(geo, 0.05)
    assert (swept.l, thickness) == (0.05, 0.05)
    assert (swept.a2, swept.stretch) == (4.0, 0.25)
    assert swept.robin_h == pytest.approx(geo.robin_h, rel=1e-12)
    assert (swept.rho > 0) == (geo.rho > 0)

#: the coupled half-plane of README's problem table, with a2 = 4
ANISOTROPIC = {"problem": "halfplane_coupled", "geometry": {"l": 0.1, "k": 0.5, "a2": 4.0},
               "boundary": {"modes": [{"omega": 1.0}]}}


@pytest.mark.parametrize("method", ["series", "oracle", "asymptotic"])
def test_verify_checks_the_stated_anisotropic_flux(tmp_path, capsys, method):
    # k u1_x = a2 u2_x holds on every route; checked as k u1_x = u2_x, the
    # series and the oracle read flux_jump 0.62 and the asymptotic 0.35
    path = write_config(tmp_path, "aniso.json", {**ANISOTROPIC, "method": method})
    code, stdout, _ = run_cli(["verify", "--config", path], capsys)
    checks = json.loads(stdout)["checks"]
    assert checks["flux_jump"]["value"] <= 1e-15
    assert checks["pde_residual"]["pass"] and checks["value_jump"]["pass"]
    # the thin-layer route misses the boundary data by O(l)
    assert code == (1 if method == "asymptotic" else 0)


@pytest.mark.parametrize("key", ["a1", "lambda1", "lambda2"])
def test_half_plane_takes_only_l_k_and_a2(tmp_path, capsys, key):
    cfg = {**ANISOTROPIC, "geometry": {**ANISOTROPIC["geometry"], key: 1.0}}
    path = write_config(tmp_path, "extra.json", cfg)
    code, _, err = run_cli(["verify", "--config", path], capsys)
    assert code == 2
    assert f"unknown halfplane_coupled geometry field(s): ['{key}']" in err


def test_strip_oracle_at_large_omega_l(tmp_path, capsys):
    # w l = 1000: sinh(w l) overflows a float, and once raised OverflowError
    cfg = strip_config(boundary={"modes": [{"omega": 2000.0}]}, grid={"x": [0.25, 0.25, 1], "y": [0.0, 0.0, 1]})
    values = {}
    for method in ("series", "oracle"):
        path = write_config(tmp_path, f"{method}.json", {**cfg, "method": method})
        out = tmp_path / f"{method}.csv"
        assert run_cli(["solve", "--config", path, "--out", str(out)], capsys)[0] == 0
        values[method] = out.read_text().splitlines()[1]
    assert values["oracle"] == values["series"] == "0.25,0.0,1,7.124576406741286e-218"
    # the mean-value ring resolves w h = 2 at the default step
    code, stdout, _ = run_cli(["verify", "--config", write_config(tmp_path, "v.json", {**cfg, "method": "oracle"})],
                              capsys)
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


@pytest.mark.parametrize(
    "problem, geometry, sweep",
    [
        ("halfplane_coupled", {"l": 0.1, "k": 0.05}, {"l": [0.1, 0.05], "R": ["x", 7]}),
        ("disk_coupled", {"R": 0.96, "k": 0.05}, {"R": [0.98, 0.96], "l": [0.1, 0.05]}),
    ],
    ids=["halfplane-R", "disk-l"],
)
def test_sweep_takes_only_the_problem_thickness_key(tmp_path, capsys, problem, geometry, sweep):
    planar = problem == "halfplane_coupled"
    cfg = {
        "problem": problem,
        "geometry": geometry,
        "boundary": {"modes": [{"omega": 1.0}] if planar else [{"n": 1}]},
        "methods": ["series", "asymptotic"],
        "grid": {"x": [0.0, 1.0, 4], "y": [-1.0, 1.0, 4]} if planar else {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]},
        "sweep": sweep,
    }
    code, stdout, err = run_cli(["compare", "--config", write_config(tmp_path, "sweep.json", cfg)], capsys)
    assert code == 2
    assert stdout == ""
    assert f"unknown {problem} sweep field(s): ['{'R' if planar else 'l'}']" in err


#: a geometry block per problem with its interface set to a bad value
BAD_GEOMETRY_BLOCKS = {
    "strip": lambda bad: {"l": bad},
    "halfplane_coupled": lambda bad: {"l": bad, "k": 0.5},
    "annulus": lambda bad: {"R": bad},
    "disk_coupled": lambda bad: {"R": bad, "k": 0.5},
}
BAD_GEOMETRY_CASES = [(p, bad) for p in BAD_GEOMETRY_BLOCKS for bad in (math.nan, -0.5, 0, True)] + [
    (p, bad) for p in ("annulus", "disk_coupled") for bad in (1, 1.5)
]


@pytest.mark.parametrize("problem, bad", BAD_GEOMETRY_CASES)
def test_bad_interface_exits_2(tmp_path, capsys, problem, bad):
    radial = problem in ("annulus", "disk_coupled")
    cfg = {
        "problem": problem,
        "geometry": BAD_GEOMETRY_BLOCKS[problem](bad),
        "boundary": {"modes": [{"n": 1}] if radial else [{"omega": 1.0}]},
        "method": "oracle",
        "grid": {"r": [0.0, 1.0, 3], "theta": [0.0, 6.0, 3]} if radial else {"x": [0.0, 0.1, 3], "y": [0.0, 1.0, 3]},
    }
    out = tmp_path / "g.csv"
    code, _, err = run_cli(["solve", "--config", write_config(tmp_path, "bad.json", cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "problem, geometry, grid",
    [
        ("strip", {"l": 0.5}, {"x": [0.0, 0.5, 5], "y": [-1.0, 1.0, 5]}),
        ("annulus", {"R": 0.5}, {"r": [0.5, 1.0, 5], "theta": [0.0, 2.0 * math.pi, 8]}),
        # n_r = 9 puts r = R on both grids: the FD ring and a linspace node
        ("disk_coupled", {"R": 0.5, "k": 0.3}, {"r": [0.0, 1.0, 9], "theta": [0.0, 2.0 * math.pi, 8]}),
    ],
    ids=["strip", "annulus", "disk"],
)
def test_fd_and_oracle_csvs_share_header_and_regions(tmp_path, capsys, problem, geometry, grid):
    fd_out, oracle_out = tmp_path / "fd.csv", tmp_path / "oracle.csv"
    assert run_cli(["solve", "--config", fd_trace_config(tmp_path, problem, geometry, grid),
                    "--out", str(fd_out)], capsys)[0] == 0
    modes = [{"omega": 1.0}] if problem == "strip" else [{"n": 1}]
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}, "method": "oracle", "grid": grid}
    assert run_cli(["solve", "--config", write_config(tmp_path, "oracle.json", cfg),
                    "--out", str(oracle_out)], capsys)[0] == 0

    def regions(path):
        lines = path.read_text().splitlines()
        return lines[0], {float(row.split(",")[0]): row.split(",")[2] for row in lines[1:]}

    (fd_header, fd_regions), (oracle_header, oracle_regions) = regions(fd_out), regions(oracle_out)
    assert fd_header == oracle_header
    shared = set(fd_regions) & set(oracle_regions)
    assert len(shared) >= 2
    assert {p: fd_regions[p] for p in shared} == {p: oracle_regions[p] for p in shared}
    if problem == "disk_coupled":
        assert fd_regions[0.5] == "1" and fd_regions[0.0] == "2"


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


def test_sampled_disk_solves_with_the_terms_of_its_modes(tmp_path, capsys):
    # 256 samples of two modes on the benchmark's sampled disk: the projection
    # keeps no rounding-level constant mode, so the ladder is as long as the
    # one of the same modes given in the config
    theta = np.arange(256) * 2 * math.pi / 256
    vals = 0.35 * np.cos(theta) + 0.25 * np.sin(theta) - 0.1 * np.cos(2 * theta) + 0.3 * np.sin(2 * theta)
    (tmp_path / "trace.csv").write_text("".join(f"{t!r},{v!r}\n" for t, v in zip(theta.tolist(), vals.tolist())))
    base = {"problem": "disk_coupled", "geometry": {"R": 0.8, "k": 0.2}, "method": "series",
            "truncation": {"tol": 1e-10}, "grid": {"r": [0.0, 1.0, 5], "theta": [0.0, 6.0, 5]}}
    modes = [{"n": 1, "a": 0.35, "b": 0.25}, {"n": 2, "a": -0.1, "b": 0.3}]
    summaries = []
    for name, boundary in (("samples", {"samples": "trace.csv"}), ("modes", {"modes": modes})):
        path = write_config(tmp_path, f"{name}.json", {**base, "boundary": boundary})
        code, stdout, _ = run_cli(["solve", "--config", path, "--out", str(tmp_path / f"{name}.csv")], capsys)
        assert code == 0
        summaries.append(json.loads(stdout))
    sampled, configured = summaries
    # 28: the twin bounds sup|u| by sum hypot(a_n, b_n), not sum |a_n| + |b_n|
    assert sampled["terms"] == configured["terms"] == 28
    assert configured["tail_bound"] <= sampled["tail_bound"] <= configured["tail_bound"] + 1e-13


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
     ("\nt,u\n0.0,1.0\n1.0,nan?\n2.0,0.3\n", 4),
     ("0.0,1.0\n1.0,0.5,8\n2.0,0.3\n", 2)],
    ids=["numpy-repr", "bad-row-after-header", "three-columns"],
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


#: k = 1e-17 rounds rho = (1 - k)/(1 + k) to 1
TINY_K = {"problem": "disk_coupled", "geometry": {"R": 0.7, "k": 1e-17},
          "boundary": {"modes": [{"n": 0, "a": 1.0}, {"n": 1, "a": 1.0}]},
          "grid": {"r": [0.0, 1.0, 3], "theta": [0.0, 6.0, 3]}}


def annulus_config(modes):
    return {
        "problem": "annulus",
        "geometry": {"R": 0.7},
        "boundary": {"modes": modes},
        "grid": {"r": [0.7, 1.0, 4], "theta": [0.0, 6.0, 4]},
    }


def test_annulus_constant_mode_solve_and_verify(tmp_path, capsys):
    # boundary value 1: the Dirichlet profile is ln(r/R)/ln(1/R), not 0
    cfg = annulus_config([{"n": 0, "a": 1}])
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


@pytest.mark.parametrize("method", ["series", "asymptotic"])
def test_annulus_constant_mode_on_every_layered_route(tmp_path, capsys, method):
    # the thin layer takes the constant mode apart as the series does: its
    # exact profile, 0 at r = R, and a grid that verify re-checks bit for bit
    cfg = {**annulus_config([{"n": 0, "a": 0.5}, {"n": 2, "a": 0.3}]), "method": method}
    path = write_config(tmp_path, "const.json", cfg)
    out = tmp_path / "const.csv"
    assert run_cli(["solve", "--config", path, "--out", str(out)], capsys)[0] == 0
    rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
    assert [float(u) for r, _, _, u in rows if float(r) == 0.7] == [0.0] * 4
    _, stdout, _ = run_cli(["verify", "--config", path, "--grid", str(out)], capsys)
    assert json.loads(stdout)["grid_mismatches"] == 0


@pytest.mark.parametrize("omega", [0.0, -1.5])
@pytest.mark.parametrize("method", ["series", "asymptotic", "oracle", "identity"])
def test_planar_mode_omega_must_be_positive(tmp_path, capsys, omega, method):
    # a half-plane field takes w = 0, the constant mode of a disk field's
    # view on its twin; a planar config does not
    cfg = strip_config(boundary={"modes": [{"omega": omega}]}, method=method)
    code, _, err = run_cli(["solve", "--config", write_config(tmp_path, "omega.json", cfg)], capsys)
    assert code == 2 and "planar mode omega must be > 0" in err


@pytest.mark.parametrize("problem, geometry", [("annulus", {"R": 0.5}), ("disk_coupled", {"R": 0.5, "k": 0.5})])
def test_circle_fd_oracle_rejects_a_trace_that_is_not_one_uniform_period(tmp_path, capsys, problem, geometry):
    # two samples at 0 and 3 cover neither [0, 2*pi) nor a uniform grid; the
    # FD oracle interpolated linearly across 3 -> 2*pi and exited 0, where
    # the series exits 2 with the message of the same check
    (tmp_path / "trace.csv").write_text("0,1\n3,2\n")
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"samples": "trace.csv"}, "method": "oracle",
           "grid": {"r": [0.5 if problem == "annulus" else 0.0, 1.0, 9], "theta": [0.0, 2.0 * math.pi, 8]}}
    path = write_config(tmp_path, "partial.json", cfg)
    code, _, err = run_cli(["solve", "--config", path, "--out", str(tmp_path / "partial.csv")], capsys)
    assert code == 2
    assert "circle trace must be sampled on a uniform grid" in err


def test_annulus_repeated_constant_mode_verifies_in_a_thin_layer(tmp_path, capsys):
    # the ladder sums the field without its constant mode; carried through
    # the ladder and cancelled in F(p) - F(p*), it read pde_residual 1.66e-6
    cfg = {"problem": "annulus", "geometry": {"R": 0.99}, "method": "series",
           "boundary": {"modes": [{"n": 0, "a": 1}, {"n": 0, "a": 1}, {"n": 1, "a": 1, "b": -1}]}}
    code, stdout, _ = run_cli(["verify", "--config", write_config(tmp_path, "thin.json", cfg)], capsys)
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
    "command, cfg, message",
    [
        ("solve", strip_config(truncation={"J": "abc"}), None),
        ("solve", strip_config(truncation={"tol": "x"}), None),
        ("solve", strip_config(grid={"x": [0.0, 0.5, "a"], "y": [-1.0, 1.0, 5]}), None),
        ("solve", strip_config(boundary={"modes": [1]}), None),
        ("solve", annulus_config([{"n": -1}]), None),
        ("solve", strip_config(geometry={"l": True}), None),
        ("solve", strip_config(boundary={"modes": [{"omega": True}]}), None),
        ("solve", strip_config(truncation={"J": True}), None),
        ("solve", {**strip_config(problem="halfplane_coupled"), "geometry": {"l": 0.5, "k": True}}, None),
        ("solve", strip_config(truncation={"J": 2.5}), None),
        ("solve", annulus_config([{"n": 1.5}]), None),
        ("solve", strip_config(grid={"x": [0.0, 0.5, 5.5], "y": [-1.0, 1.0, 5]}), None),
        # the regime diagnostic counts at truncation.tol, and takes no tolerance of its own
        ("solve", strip_config(regime={"tol": 1e-10}), None),
        # nor a threshold: no config builds a field with sources, the only kind it reads
        ("solve", strip_config(regime={"threshold": 10}), None),
        # numbers a route or a check derives from the geometry: R^2 underflows
        # to 0, and residual_report's (a2/h)^2 overflows at a tiny l or a huge a2
        ("solve", {**annulus_config([{"n": 1}]), "geometry": {"R": 1e-300}, "method": "asymptotic",
                   "grid": {"r": [0.5, 1.0, 3], "theta": [0.0, 6.0, 3]}}, None),
        ("solve", {"problem": "disk_coupled", "geometry": {"R": 1e-300, "k": 0.5}, "method": "asymptotic",
                   "boundary": {"modes": [{"n": 1}]}, "grid": {"r": [0.0, 1.0, 3], "theta": [0.0, 6.0, 3]}}, None),
        ("verify", strip_config(geometry={"l": 1e-300}, method="oracle"), None),
        ("verify", {**strip_config(problem="halfplane_coupled"), "geometry": {"l": 0.1, "k": 0.5, "a2": 1e300}}, None),
        # (1 + |rho|) sup|u| = 2e308 is inf: the tail count has no finite bound to reach
        ("solve", strip_config(boundary={"modes": [{"omega": 1.0, "A": 1e308}]}), None),
        # n copies of one method would hold n + n(n-1)/2 grids
        ("compare", {**strip_config(), "methods": ["identity"] * 16}, None),
        # open() takes an int or a bool as a file descriptor: 1 and true wrote
        # the CSV into stdout and closed it, 2 into stderr with exit 0
        ("solve", strip_config(output={"path": 1}), "output.path must be a non-empty string, got 1"),
        ("solve", strip_config(output={"path": True}), "output.path must be a non-empty string, got True"),
        ("compare", {**strip_config(output={"path": 2}), "methods": ["series", "identity"]},
         "output.path must be a non-empty string, got 2"),
        ("verify", strip_config(output={"path": ["a"]}), "output.path must be a non-empty string, got ['a']"),
        ("regimes", {**strip_config(problem="halfplane_coupled", output={"path": ""}), "geometry": {"l": 0.5, "k": 0.5}},
         "output.path must be a non-empty string, got ''"),
        ("solve", strip_config(output={"path": None}), "output.path must be a non-empty string, got None"),
        # rho = (1 - k)/(1 + k) rounds to 1: each route failed by a side effect
        *(("solve", {**TINY_K, "method": method}, "k=1e-17 is too small: the ladder ratio rho = (1 - k)/(1 + k) rounds to 1")
          for method in ("series", "asymptotic", "oracle", "identity")),
    ],
    ids=[
        "J-text", "tol-text", "grid-count-text", "mode-not-object", "negative-n",
        "l-bool", "omega-bool", "J-bool", "k-bool", "J-fraction", "n-fraction", "grid-count-fraction",
        "regime-tol", "regime-threshold",
        "annulus-R-underflow", "disk-R-underflow", "l-underflow-verify", "a2-overflow-verify",
        "amplitude-overflow-series", "repeated-methods",
        "output-path-1", "output-path-true", "output-path-2", "output-path-list", "output-path-empty", "output-path-null",
        "tiny-k-series", "tiny-k-asymptotic", "tiny-k-oracle", "tiny-k-identity",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, command, cfg, message):
    path = write_config(tmp_path, "bad.json", cfg)
    code, out, err = run_cli([command, "--config", path, "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
    if message is not None:
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("cfg", [
    strip_config(boundary={"modes": [{"omega": 1.0, "A": 1e308}]}, method="oracle"),
    *({"problem": "disk_coupled", "geometry": {"R": 0.7, "k": 3.0}, "boundary": {"modes": [{"n": 1, "a": 1e308}]},
       "method": method, "grid": {"r": [0.0, 1.0, 5], "theta": [0.0, 6.0, 5]}} for method in ("series", "oracle")),
], ids=["strip-oracle", "disk-series", "disk-oracle"])
def test_verify_reports_a_field_near_the_float_range(tmp_path, capsys, cfg):
    # solve writes these finite; the ring sums of the unscaled residual
    # report overflowed, and verify exited 2 with no report
    path = write_config(tmp_path, "huge.json", cfg)
    assert run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)[0] == 0
    code, out, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert all(math.isfinite(check["value"]) for check in checks.values())
    assert not checks["pde_residual"]["pass"]  # rounding at 1e308 is far above 1e-6


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


def _sampled_disk_config(tmp_path, samples):
    theta = np.arange(samples) * (2 * math.pi / samples)
    (tmp_path / "trace.csv").write_text("".join(f"{t!r},{v!r}\n" for t, v in zip(theta.tolist(), np.cos(theta).tolist())))
    cfg = {"problem": "disk_coupled", "geometry": {"R": 0.5, "k": 0.5}, "boundary": {"samples": "trace.csv"},
           "method": "series", "grid": {"r": [0.0, 1.0, 3], "theta": [0.0, 6.0, 3]}}
    return write_config(tmp_path, "sampled.json", cfg)


@pytest.mark.parametrize("command", ["regimes", "solve"])
def test_sampled_circle_trace_over_the_mode_cap_exits_2(tmp_path, capsys, command):
    # 20003 samples project onto modes up to 10001, one over MAX_RADIAL_MODE
    path = _sampled_disk_config(tmp_path, 20_003)
    code, stdout, err = run_cli([command, "--config", path, "--out", str(tmp_path / "out")], capsys)
    assert code == 2 and stdout == ""
    assert f"over the cap of {cli.MAX_RADIAL_MODE}" in err
    assert not (tmp_path / "out").exists()


def test_sampled_circle_trace_at_the_mode_cap_is_accepted(tmp_path, capsys):
    path = _sampled_disk_config(tmp_path, 20_001)
    code, stdout, _ = run_cli(["regimes", "--config", path], capsys)
    assert code == 0
    assert json.loads(stdout)["recommendation"] == "series"


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
        cfg, out = {**cfg, "methods": ["identity", "series"]}, []
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


def strip_trace_config(tmp_path, y_window):
    """An FD strip solve from the trace cos(y) sampled on [-1, 1], on a grid over `y_window`."""
    ys = np.linspace(-1.0, 1.0, 81)
    (tmp_path / "trace.csv").write_text("\n".join(f"{float(y)!r},{math.cos(y)!r}" for y in ys) + "\n")
    cfg = {"problem": "strip", "geometry": {"l": 0.5}, "boundary": {"samples": "trace.csv"},
           "method": "oracle", "grid": {"x": [0.0, 0.5, 5], "y": [*y_window, 9]}}
    return write_config(tmp_path, "fd.json", cfg)


@pytest.mark.parametrize("y_window", [(-3.0, 3.0), (-1.0, 3.0), (-3.0, 1.0), (-1.0 - 2e-9, 1.0)])
def test_fd_strip_grid_beyond_the_trace_exits_2(tmp_path, capsys, y_window):
    # np.interp would extend the trace by its end values: u(0, -3) = cos(-1)
    out = tmp_path / "fd.csv"
    code, _, err = run_cli(["solve", "--config", strip_trace_config(tmp_path, y_window), "--out", str(out)], capsys)
    assert code == 2
    assert "beyond the trace window" in err
    assert not out.exists()


@pytest.mark.parametrize("y_window", [(-1.0, 1.0), (-0.5, 0.25), (-1.0 - 5e-10, 1.0 + 5e-10)])
def test_fd_strip_grid_inside_the_trace_solves(tmp_path, capsys, y_window):
    out = tmp_path / "fd.csv"
    code, _, _ = run_cli(["solve", "--config", strip_trace_config(tmp_path, y_window), "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 5 * 9


@pytest.mark.parametrize("block", [{"sweep": {"l": [0.1, 0.05]}}, {"methods": ["series", "oracle"]}],
                         ids=["sweep", "methods"])
@pytest.mark.parametrize("command", ["solve", "verify", "regimes"])
def test_compare_blocks_exit_2_on_other_commands(tmp_path, capsys, command, block):
    cfg = {**strip_config(problem="halfplane_coupled", geometry={"l": 0.1, "k": 0.5}), **block}
    out = tmp_path / "out"
    code, stdout, err = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)], capsys)
    assert code == 2
    assert f"{command} reads no {next(iter(block))} block" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["verify", "compare", "regimes"])
def test_planar_samples_are_read_only_by_the_fd_solve(tmp_path, capsys, command):
    # the config already names method oracle; only solve reads the trace
    with open(strip_trace_config(tmp_path, (-1.0, 1.0))) as fh:
        cfg = json.load(fh)
    if command == "compare":
        cfg["methods"] = [cfg.pop("method"), "series"]
    if command == "regimes":  # the diagnostic takes only the coupled problems
        cfg.update(problem="halfplane_coupled", geometry={"l": 0.5, "k": 0.5})
    code, stdout, err = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg)], capsys)
    assert code == 2 and stdout == ""
    assert "read only by solve with method 'oracle' on the strip" in err


@pytest.mark.parametrize("method", ["asymptotic", "oracle"])
def test_k_whose_rho_rounds_to_minus_one_still_solves(tmp_path, capsys, method):
    # rho = -1 is h = 0: the series refuses it, these two routes do not
    path = write_config(tmp_path, "huge.json", {**TINY_K, "geometry": {"R": 0.7, "k": 1e17}, "method": method,
                                                "boundary": {"modes": [{"n": 1, "a": 1.0}]}})
    assert run_cli(["solve", "--config", path, "--out", str(tmp_path / "g.csv")], capsys)[0] == 0


THIN = {
    "halfplane_coupled": ({"l": 0.1, "k": 0.3}, [{"omega": 1.0, "A": 0.6}, {"omega": 3.0, "A": -0.4, "phi": 0.5}],
                          {"x": [0.0, 1.0, 9], "y": [-1.0, 1.0, 7]}),
    "disk_coupled": ({"R": 0.9, "k": 0.3}, [{"n": 1, "a": 0.6}, {"n": 3, "a": -0.2, "b": 0.3}],
                     {"r": [0.0, 1.0, 9], "theta": [0.0, 6.0, 7]}),
    "strip": ({"l": 0.1}, [{"omega": 1.0}], {"x": [0.0, 0.1, 5], "y": [-1.0, 1.0, 5]}),
}


@pytest.mark.parametrize("problem", sorted(THIN))
def test_asymptotic_layer2_bound_is_printed(tmp_path, capsys, problem):
    geometry, modes, grid = THIN[problem]
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}, "grid": grid}
    code, stdout, _ = run_cli(["solve", "--config", write_config(tmp_path, "asym.json", {**cfg, "method": "asymptotic"}),
                               "--out", str(tmp_path / "asym.csv")], capsys)
    assert code == 0
    summary = json.loads(stdout)
    out = tmp_path / "cmp.csv"
    code, stdout, _ = run_cli(["compare", "--config", write_config(tmp_path, "cmp.json",
                               {**cfg, "methods": ["series", "asymptotic"]}), "--out", str(out)], capsys)
    assert code == 0
    compared = json.loads(stdout)
    assert set(compared["bounds"]) == {"series"}
    if problem == "strip":
        # the strip's thin-layer route carries no bound
        assert "layer2_bound" not in summary and "layer2_bounds" not in compared
        return
    geo = cli.geometry_config(cfg)
    bound = cli.build_solution(cfg, "asymptotic", cli.boundary_field(cfg, geo), geo, cli.truncation_policy(cfg)).bound
    assert summary["layer2_bound"] == compared["layer2_bounds"]["asymptotic"] == bound > 0
    assert set(compared["layer2_bounds"]) == {"asymptotic"}
    # it bounds the route's deviation from the series over layer 2, which
    # compare's CSV holds node by node, within the series' own tail bound
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    layer2 = geo.in_layer2(rows[:, 0])
    assert layer2.any() and np.max(rows[layer2, 4]) <= bound + compared["bounds"]["series"]
