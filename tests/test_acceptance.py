"""Acceptance suite: one test per exit criterion, one printed verdict each.

Every expected value is either a direct consequence of the definitions or
was computed with the independent oracles in this repository (geometric
closed forms, brute-force partial sums, finite-difference solves) and
frozen here.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import json
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from layerfield import (
    DiskField,
    Geometry,
    HalfPlaneField,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    bernoulli,
    fd_annulus,
    fd_disk_coupled,
    fd_strip,
    geometric_tail_terms,
    mode_exact,
    residual_report,
    series_solution,
)
from layerfield.asymptotics import (
    ExpProfile,
    disk_small_contrast,
    em_ray_sum,
    halfplane_small_contrast,
    log_sum_bound,
    ray_sum_bound,
)
from layerfield.asymptotics.links import _planar_link, _radial_link
from layerfield.cli import main as cli_main

MODE = HalfPlaneField.single_mode(1.0)


def _verdict(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# -----------------------------------------------------------------------------
# 1. strip series equals the separated-variables solution
# -----------------------------------------------------------------------------


def test_criterion_1_strip_mode_closed_form():
    ok = True
    for l in (0.3, 0.5, 1.0):
        series = series_solution(Geometry("strip", l), MODE, TailTol(1e-12))
        exact = mode_exact(Geometry("strip", l), [(1.0, 1.0, 0.0)])
        xs = np.linspace(0.05 * l, 0.95 * l, 20)
        ys = np.linspace(-1.0, 1.0, 20)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        got = series.value(X, Y)
        want = exact.value(X, Y)
        rel = np.max(np.abs(got - want) / np.abs(want))
        ok = ok and rel <= 1e-10
    _verdict("criterion 1: strip series vs sinh closed form (rel 1e-10)", ok)


# -----------------------------------------------------------------------------
# 2. annulus series equals the power-ratio solution
# -----------------------------------------------------------------------------


def test_criterion_2_annulus_mode_closed_form():
    R = 0.7
    ok = True
    for n in (1, 2, 5):
        series = series_solution(Geometry("annulus", R), DiskField.single_mode(n), TailTol(1e-12))
        exact = mode_exact(Geometry("annulus", R), [(n, 1.0, 0.0)])
        rs = np.linspace(R + 0.05 * (1 - R), 1 - 0.05 * (1 - R), 20)
        # keep |cos(n t)| well away from zero so the relative error is meaningful
        ts = (np.arange(20) % 5) * (2 * math.pi / (5 * n)) + 0.05 / n
        Rg, Tg = np.meshgrid(rs, ts, indexing="ij")
        got = series.value(Rg, Tg)
        want = exact.value(Rg, Tg)
        scale = np.max(np.abs(want))
        mask = np.abs(want) >= 1e-3 * scale
        rel = np.max(np.abs(got[mask] - want[mask]) / np.abs(want[mask]))
        absolute = np.max(np.abs(got - want))
        ok = ok and rel <= 1e-10 and absolute <= 1e-10 * scale
    _verdict("criterion 2: annulus series vs power-ratio closed form (rel 1e-10)", ok)


# -----------------------------------------------------------------------------
# 3. coupling exactness on mode inputs
# -----------------------------------------------------------------------------


def test_criterion_3_coupling_exactness():
    ok = True
    for k in (0.1, 0.5, 2.0, 10.0):
        planar = series_solution(PlanarLayerConfig(l=0.3, k=k), MODE, TailTol(5e-10))
        rep = residual_report(planar, MODE)
        ok = ok and rep.boundary_mismatch <= 1e-8
        ok = ok and rep.value_jump <= 1e-8 and rep.flux_jump <= 1e-8
        disk = series_solution(RadialLayerConfig(R=0.7, k=k), DiskField.single_mode(1), TailTol(5e-10))
        repd = residual_report(disk, DiskField.single_mode(1))
        ok = ok and repd.boundary_mismatch <= 1e-8
        ok = ok and repd.value_jump <= 1e-8 and repd.flux_jump <= 1e-8
    _verdict("criterion 3: coupled boundary/value/flux defects <= 1e-8 for k in {0.1,0.5,2,10}", ok)


# -----------------------------------------------------------------------------
# 4. Euler-Maclaurin pin test (fixes the (2k)! denominator)
# -----------------------------------------------------------------------------


def test_criterion_4_euler_maclaurin_pin():
    exact = 1.0 / (1.0 - math.exp(-0.1))
    errs = [abs(em_ray_sum(ExpProfile(1.0), 0.1, k) - exact) for k in (0, 1, 2)]
    ok = abs(em_ray_sum(ExpProfile(1.0), 0.1, 2) - exact) <= 1e-8
    ok = ok and errs[0] > errs[1] > errs[2]
    ok = ok and errs[0] == pytest.approx(8.33e-3, rel=0.02)
    ok = ok and errs[1] == pytest.approx(1.39e-6, rel=0.02)
    ok = ok and errs[2] <= 1e-9  # measured 3.31e-10, order of B_6 h^5 / 6!
    _verdict("criterion 4: ray expansion pins 1/(1-e^-0.1) to 1e-8 with monotone orders", ok)


# -----------------------------------------------------------------------------
# 5. variation bounds hold for every declared case, and the low-contrast
#    planar assessment dominates the measured asymptotic deviation
# -----------------------------------------------------------------------------


def _exp_cos_sum(c):
    return (1.0 / (1.0 - np.exp((1j - 1.0) * c))).real


def _lorentz_sum(c):
    return 0.5 + math.pi / (2.0 * c) / math.tanh(math.pi / c)


def test_criterion_5_variation_bounds():
    cases_ok = 0
    planar_cases = [
        (lambda x: np.exp(-np.asarray(x, dtype=float)), 1.0, lambda c: 1.0 / (1.0 - math.exp(-c))),
        (
            lambda x: np.exp(-np.asarray(x, dtype=float)) * np.cos(np.asarray(x, dtype=float)),
            0.5,
            _exp_cos_sum,
        ),
        (lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2), math.pi / 2, _lorentz_sum),
    ]
    for fn, integral, ladder in planar_cases:
        for l in (0.05, 0.1, 0.5):
            gap = abs(integral - 2 * l * ladder(2 * l))
            if gap <= ray_sum_bound(fn, l) * (1 + 1e-6):
                cases_ok += 1
    for p in (1, 2, 3):
        for R in (0.8, 0.9, 0.95):
            gap = abs(1.0 / p - math.log(1.0 / R**2) / (1.0 - R ** (2 * p)))
            if gap <= log_sum_bound(lambda x, p=p: np.asarray(x, dtype=float) ** p, R) * (1 + 1e-6):
                cases_ok += 1
    ok = cases_ok == 18

    # low-contrast planar assessment dominates |asymptotic - series| pointwise
    base = PlanarLayerConfig(l=0.01, k=0.05)
    h = base.robin_h
    rng = np.random.default_rng(12)
    for l in (0.005, 0.01, 0.02):
        rho = math.exp(2 * h * l)
        cfg = PlanarLayerConfig(l=l, k=(1 - rho) / (1 + rho))
        approx = halfplane_small_contrast(MODE, cfg)
        series = series_solution(cfg, MODE, TailTol(1e-12))
        for _ in range(50):
            x = rng.uniform(l, l + 1.0)
            y = rng.uniform(-2.0, 2.0)
            dev = abs(float(approx.u2_value(x, y)) - float(series.u2_value(x, y)))
            ok = ok and dev <= approx.bound_at(x) * (1 + 1e-6) + 1e-13
    _verdict("criterion 5: 18/18 variation bounds hold; planar assessment dominates", ok)


# -----------------------------------------------------------------------------
# 6. Bernoulli numbers exact in rational arithmetic
# -----------------------------------------------------------------------------


def test_criterion_6_bernoulli_exact():
    known = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    ok = all(bernoulli(n) == v for n, v in known.items())
    ok = ok and all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))
    for m in range(1, 13):
        ok = ok and sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0
    _verdict("criterion 6: B_0..B_12 exact, odd entries vanish, recurrence holds", ok)


# -----------------------------------------------------------------------------
# 7. first-order-in-thickness accuracy of the thin-layer approximations
# -----------------------------------------------------------------------------


def _planar_sweep_error(l, h):
    rho = math.exp(2 * h * l)
    cfg = PlanarLayerConfig(l=l, k=(1 - rho) / (1 + rho))
    approx = halfplane_small_contrast(MODE, cfg)
    series = series_solution(cfg, MODE, TailTol(1e-12))
    ys = np.linspace(-1.0, 1.0, 7)
    worst = 0.0
    for x in l * np.linspace(0.05, 0.95, 10):
        worst = max(worst, float(np.max(np.abs(approx.u1_value(x, ys) - series.u1_value(x, ys)))))
    for x in l + np.linspace(0.02, 1.0, 10):
        worst = max(worst, float(np.max(np.abs(approx.u2_value(x, ys) - series.u2_value(x, ys)))))
    return worst


def _disk_sweep_error(R, h):
    rho = R ** (2 * h)
    cfg = RadialLayerConfig(R=R, k=(1 - rho) / (1 + rho))
    field = DiskField.single_mode(1)
    approx = disk_small_contrast(field, cfg)
    series = series_solution(cfg, field, TailTol(1e-12))
    ts = np.linspace(0.0, 2 * math.pi, 9)
    worst = 0.0
    for r in R + (1 - R) * np.linspace(0.05, 0.95, 10):
        worst = max(worst, float(np.max(np.abs(approx.u1_value(r, ts) - series.u1_value(r, ts)))))
    for r in R * np.linspace(0.3, 0.95, 10):
        worst = max(worst, float(np.max(np.abs(approx.u2_value(r, ts) - series.u2_value(r, ts)))))
    return worst


def test_criterion_7_thickness_order():
    # the thin-shell family holds the Robin parameter h fixed; k = 0.05 anchors
    # h at the middle thickness and covaries along the sweep
    h_planar = PlanarLayerConfig(l=0.01, k=0.05).robin_h
    ls = np.array([0.005, 0.01, 0.02])
    errs_p = [_planar_sweep_error(l, h_planar) for l in ls]
    slope_p = float(np.polyfit(np.log(ls), np.log(errs_p), 1)[0])

    h_disk = RadialLayerConfig(R=0.96, k=0.05).robin_h
    thick = np.array([0.02, 0.04, 0.08])
    errs_d = [_disk_sweep_error(1.0 - t, h_disk) for t in thick]
    slope_d = float(np.polyfit(np.log(thick), np.log(errs_d), 1)[0])

    ok = 0.7 <= slope_p <= 1.3 and 0.7 <= slope_d <= 1.3
    _verdict(
        f"criterion 7: thickness order planar={slope_p:.3f}, disk={slope_d:.3f} in [0.7, 1.3]",
        ok,
    )


# -----------------------------------------------------------------------------
# 8. Robin and Neumann link identities
# -----------------------------------------------------------------------------


def test_criterion_8_link_identities():
    planar = HalfPlaneField(modes=[(1.0, 1.0, 0.0), (0.5, 2.0, 0.3)])
    disk = DiskField(np.array([0.0, 1.0, 0.5]), np.array([0.0, 0.2, 0.0]))
    rng = np.random.default_rng(2)
    pp = rng.uniform([0.02, -2.0], [2.0, 2.0], (100, 2))
    dp = rng.uniform([0.05, 0.0], [0.98, 2 * math.pi], (100, 2))

    h = -1.5
    u3 = _planar_link(planar, h)
    u2 = _planar_link(planar, 0.0)  # minus the Neumann companion
    hd = 1.5
    u3d = _radial_link(disk, hd)
    u2d = _radial_link(disk, 0.0)

    closed = max(
        max(abs(u3.deriv_x(x, y) + h * u3.value(x, y) + planar.value(x, y)) for x, y in pp),
        max(abs(u2.deriv_x(x, y) + planar.value(x, y)) for x, y in pp),
        max(abs(u3d.radial_derivative(r, t) + hd * u3d.value(r, t) - disk.value(r, t)) for r, t in dp),
        max(abs(u2d.radial_derivative(r, t) - disk.value(r, t)) for r, t in dp),
    )

    step = 1e-5
    fd = 0.0
    for x, y in pp:
        dx3 = (u3.value(x + step, y) - u3.value(x - step, y)) / (2 * step)
        dx2 = (u2.value(x + step, y) - u2.value(x - step, y)) / (2 * step)
        fd = max(fd, abs(dx3 + h * u3.value(x, y) + planar.value(x, y)))
        fd = max(fd, abs(dx2 + planar.value(x, y)))
    for r, t in dp:
        l03 = r * (u3d.value(r + step, t) - u3d.value(r - step, t)) / (2 * step)
        l02 = r * (u2d.value(r + step, t) - u2d.value(r - step, t)) / (2 * step)
        fd = max(fd, abs(l03 + hd * u3d.value(r, t) - disk.value(r, t)))
        fd = max(fd, abs(l02 - disk.value(r, t)))

    ok = closed <= 1e-8 and fd <= 1e-6
    _verdict(
        f"criterion 8: link identities closed-form {closed:.2e} <= 1e-8, fd {fd:.2e} <= 1e-6",
        ok,
    )


# -----------------------------------------------------------------------------
# 9. finite-difference oracle convergence and series agreement
# -----------------------------------------------------------------------------


def test_criterion_9_fd_convergence():
    # strip
    exact = mode_exact(Geometry("strip", 0.5), [(1.0, 1.0, 0.0)])
    errs = []
    grids = []
    for nx, ny in ((17, 65), (33, 129)):
        gs = fd_strip(np.cos, 0.5, (-3.0, 3.0), nx, ny, lateral_fn=exact.value)
        X, Y = np.meshgrid(gs.axes[0], gs.axes[1], indexing="ij")
        errs.append(float(np.max(np.abs(gs.values - exact.value(X, Y)))))
        grids.append(gs)
    ratio_strip = errs[0] / errs[1]
    series = series_solution(Geometry("strip", 0.5), MODE, TailTol(1e-12))
    gs = grids[-1]
    X, Y = np.meshgrid(gs.axes[0], gs.axes[1], indexing="ij")
    series_vs_fd_strip = float(np.max(np.abs(gs.values - series.value(X, Y))))
    ok = 3.2 <= ratio_strip <= 4.8 and series_vs_fd_strip <= errs[-1] * 1.01 + 1e-12

    # annulus
    aexact = mode_exact(Geometry("annulus", 0.7), [(1, 1.0, 0.0)])
    errs = []
    for nr, nt in ((17, 64), (33, 128)):
        gs = fd_annulus(np.cos, 0.7, nr, nt)
        Rg, Tg = np.meshgrid(gs.axes[0], gs.axes[1], indexing="ij")
        errs.append(float(np.max(np.abs(gs.values - aexact.value(Rg, Tg)))))
        agrid = gs
    ratio_ann = errs[0] / errs[1]
    aseries = series_solution(Geometry("annulus", 0.7), DiskField.single_mode(1), TailTol(1e-12))
    Rg, Tg = np.meshgrid(agrid.axes[0], agrid.axes[1], indexing="ij")
    series_vs_fd_ann = float(np.max(np.abs(agrid.values - aseries.value(Rg, Tg))))
    ok = ok and 3.2 <= ratio_ann <= 4.8 and series_vs_fd_ann <= errs[-1] * 1.01 + 1e-12

    # coupled disk
    cfg = RadialLayerConfig(R=0.7, k=0.5)
    dexact = mode_exact(cfg, [(1, 1.0, 0.0)])
    errs = []
    for nr, nt in ((20, 64), (40, 128)):
        gs = fd_disk_coupled(np.cos, cfg, nr, nt)
        radii, theta = gs.axes
        iface = gs.meta["interface_index"]
        vals = np.empty_like(gs.values)
        for i, r in enumerate(radii):
            fn = dexact.u2_value if i < iface else dexact.u1_value
            vals[i, :] = fn(r, theta)
        errs.append(float(np.max(np.abs(gs.values - vals))))
        dgrid = gs
    ratio_disk = errs[0] / errs[1]
    dseries = series_solution(cfg, DiskField.single_mode(1), TailTol(1e-12))
    radii, theta = dgrid.axes
    iface = dgrid.meta["interface_index"]
    vals = np.empty_like(dgrid.values)
    for i, r in enumerate(radii):
        fn = dseries.u2_value if i < iface else dseries.u1_value
        vals[i, :] = fn(r, theta)
    series_vs_fd_disk = float(np.max(np.abs(dgrid.values - vals)))
    ok = ok and 3.2 <= ratio_disk <= 4.8 and series_vs_fd_disk <= errs[-1] * 1.01 + 1e-12

    _verdict(
        "criterion 9: fd refinement ratios "
        f"strip={ratio_strip:.2f}, annulus={ratio_ann:.2f}, disk={ratio_disk:.2f} in [3.2, 4.8]; "
        "series within fd error",
        ok,
    )


# -----------------------------------------------------------------------------
# 10. regime diagnostic consistent with actual series termination
# -----------------------------------------------------------------------------


def test_criterion_10_regime_consistency(tmp_path, capsys):
    ok = True
    for problem, geom in (
        ("halfplane_coupled", {"l": 0.3, "k": 0.3}),
        ("halfplane_coupled", {"l": 0.3, "k": 2.0}),
        ("halfplane_coupled", {"l": 0.1, "k": 0.8}),
        ("disk_coupled", {"R": 0.7, "k": 0.5}),
        ("disk_coupled", {"R": 0.9, "k": 5.0}),
    ):
        boundary = (
            {"modes": [{"omega": 1.0}]}
            if problem == "halfplane_coupled"
            else {"modes": [{"n": 1, "a": 1.0}]}
        )
        grid = (
            {"x": [0.0, 0.5, 4], "y": [-1.0, 1.0, 4]}
            if problem == "halfplane_coupled"
            else {"r": [0.1, 0.99, 4], "theta": [0.0, 6.0, 4]}
        )
        cfg = {
            "problem": problem,
            "geometry": geom,
            "boundary": boundary,
            "method": "series",
            "truncation": {"tol": 1e-10},
            "grid": grid,
        }
        path = tmp_path / f"{problem}_{geom['k']}.json"
        path.write_text(json.dumps(cfg))
        code = cli_main(["regimes", "--config", str(path)])
        regimes = json.loads(capsys.readouterr().out)
        ok = ok and code == 0
        if regimes["recommendation"] != "series":
            continue
        rho = regimes["rho"]
        predicted = geometric_tail_terms(rho, 1e-10, 1.0) if rho != 0 else 1
        out = tmp_path / "g.csv"
        code = cli_main(["solve", "--config", str(path), "--out", str(out)])
        summary = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and summary["terms"] <= predicted + 1
    _verdict("criterion 10: series solves end within the predicted term count (+1)", ok)
