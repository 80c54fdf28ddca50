import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerfield import oracle
from layerfield import (
    ArbiterInsufficientError,
    DiskField,
    Geometry,
    HalfPlaneField,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    ValidationError,
    brute_series,
    fd_annulus,
    fd_disk_coupled,
    fd_strip,
    mode_exact,
    residual_report,
    series_solution,
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


def test_brute_series_counts_apart_from_the_series(monkeypatch):
    # the arbiter must not count with the code it arbitrates, nor hold it
    def refuse(*args):
        raise AssertionError("brute_series called the series' term count")

    monkeypatch.setattr("layerfield.series.geometric_tail_terms", refuse)
    assert not {"geometric_tail_terms", "MAX_LADDER_TERMS"} & set(vars(oracle))
    res = brute_series(lambda j: 0.5**j, rho=0.5, tol=1e-8)
    assert res.terms == 28 and res.tail_bound <= 1e-8
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_brute_series_doubling_within_tail():
    term = lambda j: 0.6**j
    a = brute_series(term, rho=0.6, J=40)
    b = brute_series(term, rho=0.6, J=80)
    assert abs(a.value - b.value) <= a.tail_bound


# --- closed-form mode solutions ----------------------------------------------------


def test_mode_exact_strip_value():
    sol = mode_exact(Geometry("strip", 0.5), [(1.0, 1.0, 0.0)])
    assert sol.value(0.25, 0.0) == pytest.approx(math.sinh(0.25) / math.sinh(0.5))
    assert sol.value(0.25, 0.0) == pytest.approx(0.4847718146, abs=1e-9)


def test_mode_exact_annulus_value():
    sol = mode_exact(Geometry("annulus", 0.7), [(1, 1.0, 0.0)])
    assert sol.value(0.85, 0.0) == pytest.approx((0.85 - 0.49 / 0.85) / 0.51)


def test_mode_exact_disk_homogeneous():
    cfg = RadialLayerConfig(R=0.7, k=1.0)
    sol = mode_exact(cfg, [(1, 1.0, 0.0)])
    assert sol.u1_value(0.9, 0.3) == pytest.approx(0.9 * math.cos(0.3))
    assert sol.u2_value(0.4, 0.3) == pytest.approx(0.4 * math.cos(0.3))


def test_mode_exact_constant_disk_mode_is_one():
    r1, r2 = np.linspace(0.7, 1.0, 5), np.linspace(0.0, 0.7, 5)
    for k in (1e-4, 0.05, 0.5, 1.0, 20.0):
        sol = mode_exact(RadialLayerConfig(R=0.7, k=k), [(0, 1.0, 0.0)])
        # the constant mode is A in both layers, r = 0 included
        assert np.all(sol.u1_value(r1, 0.3) == 1.0) and np.all(sol.u2_value(r2, 0.3) == 1.0)
        assert np.all(sol.u1_deriv(r1, 0.3) == 0.0) and np.all(sol.u2_deriv(r2, 0.3) == 0.0)


def test_mode_exact_rejects_negative_radial_mode():
    with pytest.raises(ValidationError):
        mode_exact(RadialLayerConfig(R=0.7, k=0.5), [(-1, 1.0, 0.0)])


# --- finite-difference solvers -----------------------------------------------------


def _strip_fd_error(nx, ny):
    exact = mode_exact(Geometry("strip", 0.5), [(1.0, 1.0, 0.0)])
    gs = fd_strip(
        np.cos,
        0.5,
        (-3.0, 3.0),
        nx,
        ny,
        lateral_fn=exact.value,
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
    exact = mode_exact(Geometry("annulus", 0.7), [(1, 1.0, 0.0)])
    gs = fd_annulus(np.cos, 0.7, nr, nt)
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
    exact = mode_exact(cfg, [(1, 1.0, 0.0)])
    gs = fd_disk_coupled(np.cos, cfg, nr, nt)
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
    gs = fd_disk_coupled(np.cos, cfg, 24, 48)
    radii, theta = gs.axes
    # k = 1 removes the interface: the exact solution is r cos(theta)
    exact = radii[:, None] * np.cos(theta[None, :])
    assert np.max(np.abs(gs.values - exact)) <= 2e-3


def test_fd_disk_coupled_zero_data():
    cfg = RadialLayerConfig(R=0.7, k=0.5)
    gs = fd_disk_coupled(lambda t: 0.0, cfg, 16, 16)
    assert np.max(np.abs(gs.values)) == 0.0


def test_grid_solution_csv(tmp_path):
    gs = fd_strip(np.cos, 0.5, (-1.0, 1.0), 5, 5)
    path = tmp_path / "grid.csv"
    gs.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,region,u"
    assert len(lines) == 1 + 25


def test_mode_exact_needs_a_geometry():
    with pytest.raises(ValidationError):
        mode_exact("strip", [(1.0, 1.0, 0.0)])


@pytest.mark.parametrize("bad", [math.nan, -0.5, 0.0, True])
def test_fd_strip_refuses_a_bad_width(bad):
    with pytest.raises(ValidationError):
        fd_strip(np.cos, bad, (-1.0, 1.0), 5, 5)


@pytest.mark.parametrize("bad", [math.nan, -0.5, 0.0, True, 1.0, 1.5])
def test_fd_annulus_refuses_a_bad_radius(bad):
    with pytest.raises(ValidationError):
        fd_annulus(np.cos, bad, 5, 8)


def test_fd_disk_coupled_refuses_another_geometry():
    with pytest.raises(ValidationError):
        fd_disk_coupled(np.cos, Geometry("annulus", 0.5), 8, 8)


@pytest.mark.parametrize("R, n_r", [(0.75, 392), (0.2, 57), (0.1, 106), (0.05, 211), (0.5, 8), (0.8, 300)])
def test_fd_disk_interface_ring_is_at_R_in_layer_1(tmp_path, R, n_r):
    # on all pairs but (0.5, 8) and (0.8, 300), m_in steps of R / m_in
    # sum to 1 ulp below R
    gs = fd_disk_coupled(np.cos, RadialLayerConfig(R=R, k=0.5), n_r, 8)
    inner = gs.meta["interface_index"]
    assert gs.axes[0][inner] == R
    gs.to_csv(tmp_path / "disk.csv")
    row = (tmp_path / "disk.csv").read_text().splitlines()[1 + 8 * inner].split(",")
    assert (float(row[0]), row[2]) == (R, "1")


# --- residual report ----------------------------------------------------------------


def test_residual_report_series_solution():
    cfg = RadialLayerConfig(R=0.7, k=0.5)
    sol = series_solution(cfg, DISK1, TailTol(1e-10))
    rep = residual_report(sol, DISK1)
    assert rep.pde_residual <= 1e-6
    assert rep.boundary_mismatch <= 1e-8
    assert rep.value_jump <= 1e-8
    assert rep.flux_jump <= 1e-8


def test_residual_report_mode_exact_is_clean():
    cfg = PlanarLayerConfig(l=0.3, k=0.5)
    exact = mode_exact(cfg, [(1.0, 1.0, 0.0)])
    rep = residual_report(exact, MODE)
    assert rep.boundary_mismatch <= 1e-12
    assert rep.value_jump <= 1e-12
    assert rep.flux_jump <= 1e-12
    assert rep.pde_residual <= 1e-6


def test_residual_report_flux_by_finite_differences():
    cfg = PlanarLayerConfig(l=0.3, k=0.5)
    sol = series_solution(cfg, MODE, TailTol(1e-10))
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
    sol = series_solution(Geometry("strip", 0.4), MODE, TailTol(1e-11))
    rep = residual_report(sol, MODE)
    assert rep.pde_residual <= 1e-6
    assert rep.boundary_mismatch <= 1e-9


@pytest.mark.parametrize("geometry, field", [
    (RadialLayerConfig(R=0.7, k=3.0), lambda amplitude: DiskField.single_mode(1, amplitude)),
    (PlanarLayerConfig(l=0.3, k=0.5), lambda amplitude: HalfPlaneField.single_mode(1.0, amplitude)),
], ids=["disk", "half-plane"])
def test_residual_report_holds_a_field_near_the_float_range(geometry, field):
    # each check is made on u / 2^1024 and reported times 2^1024, where the
    # unscaled ring sums overflowed.  A power of two scales a fixed-length
    # ladder and every check exactly, so the report is that of the field
    # 2^-1000 as large, times 2^1000
    huge, small = field(1e308), field(1e308 * 2.0**-1000)
    reports = [residual_report(series_solution(geometry, f, MaxTerms(40)), f) for f in (huge, small)]
    checks = ("pde_residual", "boundary_mismatch", "value_jump", "flux_jump")
    got, expected = ([getattr(report, name) for name in checks] for report in reports)
    assert all(map(math.isfinite, got))
    assert got == [math.ldexp(value, 1000) for value in expected]


def _plus_square(solution, c):
    """`solution` plus c x^2 in every layer; on the disk, whose ring runs on
    the twin, its twin view plus c x^2 with x = ln(1/r)."""
    if solution.geometry.radial:
        names = ("geometry", "u1_value", "u2_value", "u1_deriv", "u2_deriv")
        twin = _plus_square(solution.on_twin(), c)
        return SimpleNamespace(**{name: getattr(solution, name) for name in names}, on_twin=lambda: twin)
    return SimpleNamespace(
        geometry=solution.geometry,
        u1_value=lambda x, y: solution.u1_value(x, y) + c * np.square(x),
        u2_value=lambda x, y: solution.u2_value(x, y) + c * np.square(x),
        u1_deriv=solution.u1_deriv,
        u2_deriv=solution.u2_deriv,
    )


@pytest.mark.parametrize(
    "geometry, modes, laplacian",
    [
        (Geometry("annulus", 0.5), [(1, 1.0, 0.0)], 2.0),
        (RadialLayerConfig(R=0.5, k=3.0), [(1, 1.0, 0.0)], 2.0),
        (Geometry("strip", 0.5), [(1.0, 3.0, 0.0)], 2.0),
        # layer 2 solves a2^2 u_xx + u_yy = 0, so c x^2 reads 2 c a2^2 there
        (PlanarLayerConfig(l=0.3, k=0.5, a2=2.0), [(1.0, 3.0, 0.0)], 8.0),
    ],
    ids=["annulus-twin-x2", "disk-twin-x2", "strip-x2", "halfplane-a2-x2"],
)
def test_residual_report_reads_the_operator_of_a_non_harmonic_field(geometry, modes, laplacian):
    # the exact solution plus c x^2: the mean-value ring is exact on x^2,
    # so pde_residual is the added operator value, c times `laplacian`
    c = 1e-2
    rep = residual_report(_plus_square(mode_exact(geometry, modes), c), MODE)
    assert rep.pde_residual == pytest.approx(laplacian * c, rel=1e-6)


@pytest.mark.parametrize("R", [0.005, 0.02, 0.1])
@pytest.mark.parametrize("k", [0.5, 3.0])
@pytest.mark.parametrize("route", ["series", "oracle"])
def test_fd_flux_holds_on_a_small_core(R, k, route):
    # the one-sided differences run in x on the twin, where the core r < R
    # is the unbounded layer 2, so the step no longer shrinks with R
    cfg = RadialLayerConfig(R=R, k=k)
    sol = series_solution(cfg, DISK1, TailTol(1e-12)) if route == "series" else mode_exact(cfg, [(1, 1.0, 0.0)])
    flux_jump = residual_report(sol, DISK1, flux="fd").flux_jump
    assert math.isfinite(flux_jump) and flux_jump <= 1e-8


def _disk_coefficients(modes):
    """The cos and sin coefficients of the disk field with boundary modes (n, a, b), a_0 = 2 a."""
    a, b = np.zeros(9), np.zeros(9)
    for n, ca, sa in modes:
        a[n] += 2.0 * ca if n == 0 else ca
        b[n] += sa
    return a, b


@settings(max_examples=40, deadline=None)
@example(problem="disk_coupled", thickness=1e-3, k=1e-3, modes=[(1, 1.0, 0.0)])
@given(
    problem=st.sampled_from(["annulus", "disk_coupled"]),
    thickness=st.floats(1e-3, 0.7),
    k=st.floats(1e-4, 20.0),
    modes=st.lists(
        st.tuples(st.integers(0, 8), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1, max_size=3, unique_by=lambda mode: mode[0],
    ),
)
def test_closed_forms_are_harmonic_in_thin_layers(problem, thickness, k, modes):
    # on a field scaled to sup|u0| = 1 the ring on the twin reads rounding:
    # 4 eps / h^2 is 6e-8 at 1 - R = 1e-3 (h = l/8), times up to about
    # n |theta| from the rounded phase n theta; 400 derandomized draws read
    # <= 7.7e-7 (n = 6).  The example reads 5.7e-8 only while the closed
    # form keeps 1 - rho e^(-s) as t_k - rho expm1(-s): as written, it
    # cancels as rho nears 1 and reads 5.3e-6
    modes = [(n, a, b if n else 0.0) for n, a, b in modes]
    sup = DiskField(*_disk_coefficients(modes)).sup_bound()
    assume(sup > 1e-3)
    modes = [(n, a / sup, b / sup) for n, a, b in modes]
    R = 1.0 - thickness
    geometry = Geometry("annulus", R) if problem == "annulus" else RadialLayerConfig(R=R, k=k)
    rep = residual_report(mode_exact(geometry, modes), DiskField(*_disk_coefficients(modes)))
    assert rep.pde_residual <= 1e-6


@settings(max_examples=40, deadline=None)
@example(problem="halfplane_coupled", thickness=1e-3, k=1e-3, modes=[(1.0, 1.0, 0.0)])
@given(
    problem=st.sampled_from(["strip", "halfplane_coupled"]),
    thickness=st.floats(1e-3, 0.7),
    k=st.floats(1e-4, 20.0),
    modes=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 8.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=3
    ),
)
def test_planar_closed_forms_are_harmonic_in_thin_layers(problem, thickness, k, modes):
    # the plane's sibling of the test above, on the strip and the coupled
    # half-plane themselves; 400 derandomized draws read <= 2.3e-7, and the
    # example 8.5e-8 (9.8e-6 with 1 - rho e^(-s) as written)
    sup = HalfPlaneField(modes).sup_bound()
    assume(sup > 1e-3)
    modes = [(a / sup, w, p) for a, w, p in modes]
    geometry = Geometry("strip", thickness) if problem == "strip" else PlanarLayerConfig(l=thickness, k=k)
    rep = residual_report(mode_exact(geometry, modes), HalfPlaneField(modes))
    assert rep.pde_residual <= 1e-6
