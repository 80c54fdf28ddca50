import math

import numpy as np
import pytest

from layerfield import (
    ArbiterInsufficientError,
    DiskField,
    Geometry,
    HalfPlaneField,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    ValidationError,
    brute_series,
    disk_coupled,
    fd_annulus,
    fd_disk_coupled,
    fd_strip,
    halfplane_coupled,
    mode_exact,
    residual_report,
    strip_dirichlet,
)

MODE = HalfPlaneField.single_mode(1.0)
DISK1 = DiskField.single_mode(1)


# --- brute series ----------------------------------------------------------------


def test_brute_series_geometric_ladder():
    res = brute_series(lambda j: (1 / 3) ** j * math.exp(-0.2 * j), rho=1 / 3, J=60)
    exact = 1.0 / (1.0 - (1.0 / 3.0) * math.exp(-0.2))
    assert res.value == pytest.approx(exact, abs=1e-12)
    assert res.tail_bound <= 1e-28
    assert res.terms == 60


def test_brute_series_rho_zero_single_term():
    res = brute_series(lambda j: 5.0 if j == 0 else math.nan, rho=0.0, tol=1e-10)
    assert res.value == 5.0 and res.terms == 1 and res.tail_bound == 0.0


def test_brute_series_arbiter_insufficient():
    with pytest.raises(ArbiterInsufficientError):
        brute_series(lambda j: 0.99**j, rho=0.99, cap=1000)


def test_brute_series_doubling_within_tail():
    term = lambda j: 0.6**j
    a = brute_series(term, rho=0.6, J=40)
    b = brute_series(term, rho=0.6, J=80)
    assert abs(a.value - b.value) <= a.tail_bound


# --- closed-form mode solutions ----------------------------------------------------


def test_mode_exact_strip_value():
    sol = mode_exact("strip", [(1.0, 1.0, 0.0)], l=0.5)
    assert sol.value(0.25, 0.0) == pytest.approx(math.sinh(0.25) / math.sinh(0.5))
    assert sol.value(0.25, 0.0) == pytest.approx(0.4847718146, abs=1e-9)


def test_mode_exact_annulus_value():
    sol = mode_exact("annulus", [(1, 1.0, 0.0)], R=0.7)
    assert sol.value(0.85, 0.0) == pytest.approx((0.85 - 0.49 / 0.85) / 0.51)


def test_mode_exact_disk_homogeneous():
    cfg = RadialLayerConfig(R=0.7, k=1.0)
    sol = mode_exact("disk_coupled", [(1, 1.0, 0.0)], config=cfg)
    assert sol.u1_value(0.9, 0.3) == pytest.approx(0.9 * math.cos(0.3))
    assert sol.u2_value(0.4, 0.3) == pytest.approx(0.4 * math.cos(0.3))


def test_mode_exact_constant_disk_mode_is_one():
    r1, r2 = np.linspace(0.7, 1.0, 5), np.linspace(0.0, 0.7, 5)
    for k in (0.05, 0.5, 1.0, 20.0):
        sol = mode_exact("disk_coupled", [(0, 1.0, 0.0)], config=RadialLayerConfig(R=0.7, k=k))
        # 1 - rho loses about log2(1/k) bits to cancellation at small k
        assert np.max(np.abs(sol.u1_value(r1, 0.3) - 1.0)) <= 1e-14
        assert np.max(np.abs(sol.u2_value(r2, 0.3) - 1.0)) <= 1e-14
        assert np.all(sol.u1_deriv(r1, 0.3) == 0.0) and np.all(sol.u2_deriv(r2, 0.3) == 0.0)


def test_mode_exact_rejects_negative_radial_mode():
    with pytest.raises(ValidationError):
        mode_exact("disk_coupled", [(-1, 1.0, 0.0)], config=RadialLayerConfig(R=0.7, k=0.5))


# --- finite-difference solvers -----------------------------------------------------


def _strip_fd_error(nx, ny):
    exact = mode_exact("strip", [(1.0, 1.0, 0.0)], l=0.5)
    gs = fd_strip(
        lambda y: math.cos(y),
        0.5,
        (-3.0, 3.0),
        nx,
        ny,
        lateral_fn=lambda x, y: float(exact.value(x, y)),
    )
    X, Y = np.meshgrid(gs.axes[0], gs.axes[1], indexing="ij")
    return float(np.max(np.abs(gs.values - exact.value(X, Y))))


def test_fd_strip_second_order_convergence():
    e1 = _strip_fd_error(17, 65)
    e2 = _strip_fd_error(33, 129)
    assert 3.2 <= e1 / e2 <= 4.8


def test_fd_strip_zero_data():
    gs = fd_strip(lambda y: 0.0, 0.5, (-2.0, 2.0), 9, 17)
    assert np.max(np.abs(gs.values)) == 0.0


def test_fd_strip_linear_profile_for_constant_data():
    gs = fd_strip(lambda y: 1.0, 0.5, (-6.0, 6.0), 17, 97, lateral_fn=lambda x, y: 1.0 - x / 0.5)
    x = gs.axes[0]
    mid = gs.values[:, 48]
    assert np.max(np.abs(mid - (1.0 - x / 0.5))) <= 1e-10


def _annulus_fd_error(nr, nt):
    exact = mode_exact("annulus", [(1, 1.0, 0.0)], R=0.7)
    gs = fd_annulus(lambda t: math.cos(t), 0.7, nr, nt)
    Rg, Tg = np.meshgrid(gs.axes[0], gs.axes[1], indexing="ij")
    return float(np.max(np.abs(gs.values - exact.value(Rg, Tg))))


def test_fd_annulus_second_order_convergence():
    e1 = _annulus_fd_error(17, 64)
    e2 = _annulus_fd_error(33, 128)
    assert 3.2 <= e1 / e2 <= 4.8


def test_fd_annulus_zero_and_log_profile():
    gs = fd_annulus(lambda t: 0.0, 0.7, 9, 16)
    assert np.max(np.abs(gs.values)) == 0.0
    # constant outer data relaxes to the radial log-harmonic profile
    gs = fd_annulus(lambda t: 1.0, 0.5, 65, 16)
    r = gs.axes[0]
    expected = np.log(r / 0.5) / math.log(1 / 0.5)
    assert np.max(np.abs(gs.values - expected[:, None])) <= 2e-5


def _disk_fd_error(nr, nt):
    cfg = RadialLayerConfig(R=0.7, k=0.5)
    exact = mode_exact("disk_coupled", [(1, 1.0, 0.0)], config=cfg)
    gs = fd_disk_coupled(lambda t: math.cos(t), cfg, nr, nt)
    radii, theta = gs.axes
    iface = gs.meta["interface_index"]
    vals = np.empty_like(gs.values)
    for i, r in enumerate(radii):
        fn = exact.u2_value if i < iface else exact.u1_value
        vals[i, :] = fn(r, theta)
    return float(np.max(np.abs(gs.values - vals)))


def test_fd_disk_coupled_second_order_convergence():
    e1 = _disk_fd_error(20, 64)
    e2 = _disk_fd_error(40, 128)
    assert 3.2 <= e1 / e2 <= 4.8


def test_fd_disk_coupled_homogeneous_matches_single_region():
    cfg = RadialLayerConfig(R=0.5, k=1.0)
    gs = fd_disk_coupled(lambda t: math.cos(t), cfg, 24, 48)
    radii, theta = gs.axes
    # k = 1 removes the interface: the exact solution is r cos(theta)
    exact = radii[:, None] * np.cos(theta[None, :])
    assert np.max(np.abs(gs.values - exact)) <= 2e-3


def test_fd_disk_coupled_zero_data():
    cfg = RadialLayerConfig(R=0.7, k=0.5)
    gs = fd_disk_coupled(lambda t: 0.0, cfg, 16, 16)
    assert np.max(np.abs(gs.values)) == 0.0


def test_grid_solution_csv(tmp_path):
    gs = fd_strip(lambda y: math.cos(y), 0.5, (-1.0, 1.0), 5, 5)
    path = tmp_path / "grid.csv"
    gs.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,region,u"
    assert len(lines) == 1 + 25


# --- residual report ----------------------------------------------------------------


def test_residual_report_series_solution():
    cfg = RadialLayerConfig(R=0.7, k=0.5)
    sol = disk_coupled(DISK1, cfg, TailTol(1e-10))
    rep = residual_report(sol, DISK1)
    assert rep.pde_residual <= 1e-5
    assert rep.boundary_mismatch <= 1e-8
    assert rep.value_jump <= 1e-8
    assert rep.flux_jump <= 1e-8
    assert all(v > 0 for v in rep.samples.values())


def test_residual_report_mode_exact_is_clean():
    cfg = PlanarLayerConfig(l=0.3, k=0.5)
    exact = mode_exact("halfplane_coupled", [(1.0, 1.0, 0.0)], config=cfg)
    rep = residual_report(exact, MODE)
    assert rep.boundary_mismatch <= 1e-12
    assert rep.value_jump <= 1e-12
    assert rep.flux_jump <= 1e-12
    assert rep.pde_residual <= 1e-6  # stencil truncation only


def test_residual_report_flux_by_finite_differences():
    cfg = PlanarLayerConfig(l=0.3, k=0.5)
    sol = halfplane_coupled(MODE, cfg, TailTol(1e-10))
    rep = residual_report(sol, MODE, flux="fd")
    assert rep.flux_jump <= 1e-6


def test_residual_report_flags_wrong_solution():
    # the untransformed model field is not the strip solution
    class Fake:
        geometry = Geometry("strip", 0.5)
        tail_bound = None

        def u1_value(self, x, y):
            return MODE.value(x, y)

    rep = residual_report(Fake(), MODE)
    assert rep.boundary_mismatch >= 0.1  # u(l, y) = e^-l, nowhere near 0
    assert rep.pde_residual <= 1e-6


def test_residual_report_strip_series():
    sol = strip_dirichlet(MODE, 0.4, TailTol(1e-11))
    rep = residual_report(sol, MODE)
    assert rep.pde_residual <= 1e-6
    assert rep.boundary_mismatch <= 1e-9
