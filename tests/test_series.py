import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import (
    BoundaryTrace,
    CapabilityError,
    ConvergenceError,
    DiskField,
    Geometry,
    HalfPlaneField,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    ValidationError,
    convergence_diagnostic,
    disk_from_boundary,
    geometric_tail_terms,
    mode_exact,
    series_solution,
)
from layerfield.series import MAX_LADDER_TERMS

MODE = HalfPlaneField.single_mode(1.0)
DISK1 = DiskField.single_mode(1)


def test_config_validation():
    with pytest.raises(ValidationError):
        PlanarLayerConfig(l=-1.0, k=0.5)
    with pytest.raises(ValidationError):
        RadialLayerConfig(R=1.2, k=0.5)
    cfg = PlanarLayerConfig(l=0.5, k=0.5)
    assert cfg.rho == pytest.approx(1.0 / 3.0)
    assert cfg.robin_h == pytest.approx(math.log(1.0 / 3.0) / 1.0)
    with pytest.raises(ValidationError):
        PlanarLayerConfig(l=0.5, k=1.0).robin_h


#: a coupling ratio for the coupled kinds, none for the strip and the annulus
KIND_K = {"strip": None, "halfplane_coupled": 0.5, "annulus": None, "disk_coupled": 0.5}
RADIAL_KINDS = ("annulus", "disk_coupled")
#: interfaces no kind accepts, and those only a radial kind refuses
BAD_INTERFACES = [math.nan, -0.5, 0.0, True]
BAD_RADII = [1.0, 1.5]
BAD_GEOMETRIES = [(kind, bad) for kind in KIND_K for bad in BAD_INTERFACES] + [
    (kind, bad) for kind in RADIAL_KINDS for bad in BAD_RADII
]


@pytest.mark.parametrize("kind, bad", BAD_GEOMETRIES)
def test_geometry_rejects_a_bad_interface(kind, bad):
    with pytest.raises(ValidationError):
        Geometry(kind, bad, KIND_K[kind])


@pytest.mark.parametrize("kind", list(KIND_K))
def test_geometry_axes_and_domain(kind):
    geo = Geometry(kind, 0.4, KIND_K[kind])
    radial = kind in RADIAL_KINDS
    assert geo.axes == (("r", "theta") if radial else ("x", "y"))
    assert geo.radial == radial and geo.coupled == (KIND_K[kind] is not None)
    assert geo.domain == {
        "strip": (0.0, 0.4), "halfplane_coupled": (0.0, math.inf), "annulus": (0.4, 1.0), "disk_coupled": (0.0, 1.0),
    }[kind]


def test_geometry_takes_k_on_the_coupled_problems_only():
    with pytest.raises(ValidationError):
        Geometry("strip", 0.5, 0.5)
    with pytest.raises(ValidationError):
        Geometry("disk_coupled", 0.5)
    with pytest.raises(ValidationError):
        Geometry("wedge", 0.5)
    assert Geometry("strip", 1.5).interface == 1.5  # a planar interface may exceed 1


@pytest.mark.parametrize("kind", ["strip", "annulus", "disk_coupled"])
def test_geometry_takes_a2_on_the_coupled_half_plane_only(kind):
    with pytest.raises(ValidationError, match="only the coupled half-plane"):
        Geometry(kind, 0.4, KIND_K[kind], a2=2.0)
    assert Geometry("halfplane_coupled", 0.4, 0.5, a2=2.0).stretch == 0.5


@pytest.mark.parametrize("build, kind, args", [
    (lambda: PlanarLayerConfig(l=0.2, k=0.3), "halfplane_coupled", (0.2, 0.3, 1.0)),
    (lambda: PlanarLayerConfig(l=0.2, k=0.3, a2=2.0), "halfplane_coupled", (0.2, 0.3, 2.0)),
    (lambda: RadialLayerConfig(R=0.8, k=3.0), "disk_coupled", (0.8, 3.0, 1.0)),
])
def test_named_coupled_configs_are_the_geometry(build, kind, args):
    # the one problem record: no subclass and no .l or .R alias of its interface
    geo = build()
    assert type(geo) is Geometry
    assert (geo.kind, geo.interface, geo.k, geo.a2) == (kind, *args)
    assert not hasattr(geo, "l") and not hasattr(geo, "R")


def test_radial_robin_parameter_sign():
    cfg = RadialLayerConfig(R=0.9, k=0.5)
    # rho in (0,1) and R < 1 make h positive
    assert cfg.robin_h > 0
    assert cfg.interface ** (2 * cfg.robin_h) == pytest.approx(cfg.rho)


def test_geometric_tail_terms_examples():
    assert geometric_tail_terms(0.0, 1e-8, 1.0) == 1
    assert geometric_tail_terms(0.5, 1e-8, 1.0) == 28
    j = geometric_tail_terms(0.99, 1e-8, 1.0)
    assert j == 2292
    # defining minimality: J works, J-1 does not
    assert 0.99**j / 0.01 <= 1e-8 < 0.99 ** (j - 1) / 0.01
    with pytest.raises(ValidationError):
        geometric_tail_terms(1.0, 1e-8, 1.0)


def test_geometric_tail_terms_minimality_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = rng.uniform(0.01, 0.995)
        tol = 10.0 ** rng.uniform(-12, -2)
        M = 10.0 ** rng.uniform(-1, 2)
        j = geometric_tail_terms(rho, tol, M)
        assert M * rho**j / (1 - rho) <= tol
        if j > 1:
            assert M * rho ** (j - 1) / (1 - rho) > tol


# --- strip ------------------------------------------------------------------


def test_strip_boundary_telescoping():
    sol = series_solution(Geometry("strip", 0.4), MODE, TailTol(1e-11))
    ys = np.linspace(-2, 2, 50)
    assert np.max(np.abs(sol.value(0.0, ys) - MODE.value(0.0, ys))) <= sol.tail_bound
    assert np.max(np.abs(sol.value(0.4, ys))) <= sol.tail_bound


def test_strip_matches_separated_solution():
    l = 0.5
    sol = series_solution(Geometry("strip", l), MODE, TailTol(1e-12))
    exact = mode_exact(Geometry("strip", l), [(1.0, 1.0, 0.0)])
    assert exact.value(0.25, 0.0) == pytest.approx(math.sinh(0.25) / math.sinh(0.5))
    xs = np.linspace(0.02, 0.48, 12)
    ys = np.linspace(-1, 1, 9)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert np.max(np.abs(sol.value(X, Y) - exact.value(X, Y))) <= 10 * sol.tail_bound


def test_strip_monotone_truncation():
    l = 0.4
    exact = mode_exact(Geometry("strip", l), [(1.0, 1.0, 0.0)])
    point = (0.17, 0.6)
    devs = []
    for j in range(1, 14):
        sol = series_solution(Geometry("strip", l), MODE, MaxTerms(j))
        devs.append(abs(float(sol.value(*point)) - float(exact.value(*point))))
    for a, b in zip(devs, devs[1:]):
        assert b <= a * (1 + 1e-12) + 1e-16


def test_disk_monotone_truncation():
    cfg = RadialLayerConfig(R=0.8, k=0.3)
    exact = mode_exact(cfg, [(1, 1.0, 0.0)])
    point = (0.9, 0.7)
    devs = []
    for j in range(1, 14):
        sol = series_solution(cfg, DISK1, MaxTerms(j))
        devs.append(abs(float(sol.u1_value(*point)) - float(exact.u1_value(*point))))
    for a, b in zip(devs, devs[1:]):
        assert b <= a * (1 + 1e-12) + 1e-16


def test_strip_tailtol_needs_modes():
    src = HalfPlaneField(sources=[(0.0, 1.0)])
    with pytest.raises(CapabilityError):
        series_solution(Geometry("strip", 0.3), src, TailTol(1e-8))
    # but a fixed term count works
    sol = series_solution(Geometry("strip", 0.3), src, MaxTerms(200))
    assert abs(float(sol.value(0.3, 0.5))) <= 1e-3


def test_tailtol_unreachable_raises():
    with pytest.raises(ConvergenceError) as exc:
        series_solution(PlanarLayerConfig(l=1e-4, k=1e-5), MODE, TailTol(1e-300))
    assert exc.value.achieved is not None


# --- coupled half-plane ------------------------------------------------------


def test_halfplane_k1_reduces_to_model():
    cfg = PlanarLayerConfig(l=0.3, k=1.0)
    sol = series_solution(cfg, MODE, TailTol(1e-12))
    assert sol.terms == 1
    ys = np.linspace(-1, 1, 7)
    assert np.max(np.abs(sol.u1_value(0.2, ys) - MODE.value(0.2, ys))) == 0.0
    # the u2 argument rebasing (x-l)+l costs one ulp
    assert np.max(np.abs(sol.u2_value(0.9, ys) - MODE.value(0.9, ys))) <= 1e-15


@pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 10.0])
def test_halfplane_boundary_telescoping(k):
    cfg = PlanarLayerConfig(l=0.3, k=k)
    sol = series_solution(cfg, MODE, TailTol(1e-10))
    ys = np.linspace(-2, 2, 50)
    assert np.max(np.abs(sol.u1_value(0.0, ys) - MODE.value(0.0, ys))) <= sol.tail_bound


@pytest.mark.parametrize("k", [0.25, 0.5, 2.0])
def test_halfplane_matches_geometric_closed_form(k):
    cfg = PlanarLayerConfig(l=0.3, k=k)
    sol = series_solution(cfg, MODE, TailTol(1e-11))
    exact = mode_exact(cfg, [(1.0, 1.0, 0.0)])
    ys = np.linspace(-1, 1, 7)
    for x in np.linspace(0.02, 0.28, 6):
        assert np.max(np.abs(sol.u1_value(x, ys) - exact.u1_value(x, ys))) <= 10 * sol.tail_bound
    for x in np.linspace(0.32, 1.5, 6):
        assert np.max(np.abs(sol.u2_value(x, ys) - exact.u2_value(x, ys))) <= 10 * sol.tail_bound


def test_halfplane_coupling_conditions_on_modes():
    # value continuity and k-weighted flux continuity at the interface
    for k in (0.1, 0.5, 2.0, 10.0):
        cfg = PlanarLayerConfig(l=0.25, k=k)
        sol = series_solution(cfg, MODE, TailTol(1e-10))
        ys = np.linspace(-2, 2, 50)
        vj = np.max(np.abs(sol.u1_value(cfg.interface, ys) - sol.u2_value(cfg.interface, ys)))
        fj = np.max(np.abs(k * sol.u1_deriv(cfg.interface, ys) - sol.u2_deriv(cfg.interface, ys)))
        assert vj <= 10 * 1e-10
        assert fj <= 10 * 1e-10


def test_halfplane_anisotropic_stretch():
    cfg = PlanarLayerConfig(l=0.3, k=0.5, a2=0.5)
    sol = series_solution(cfg, MODE, TailTol(1e-11))
    exact = mode_exact(cfg, [(1.0, 1.0, 0.0)])
    ys = np.linspace(-1, 1, 5)
    for x in (0.4, 0.8):
        assert np.max(np.abs(sol.u2_value(x, ys) - exact.u2_value(x, ys))) <= 1e-9
    # interface conditions still hold with the stretched argument
    vj = np.max(np.abs(sol.u1_value(cfg.interface, ys) - sol.u2_value(cfg.interface, ys)))
    assert vj <= 1e-9


# --- coupled disk -------------------------------------------------------------


def test_disk_k1_reduces_to_model():
    cfg = RadialLayerConfig(R=0.7, k=1.0)
    sol = series_solution(cfg, DISK1, TailTol(1e-12))
    ts = np.linspace(0, 2 * math.pi, 9)
    assert np.max(np.abs(sol.u1_value(0.85, ts) - DISK1.value(0.85, ts))) == 0.0
    assert np.max(np.abs(sol.u2_value(0.3, ts) - DISK1.value(0.3, ts))) == 0.0


@pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 10.0])
def test_disk_boundary_telescoping(k):
    cfg = RadialLayerConfig(R=0.7, k=k)
    sol = series_solution(cfg, DISK1, TailTol(1e-10))
    ts = np.linspace(0, 2 * math.pi, 50)
    assert np.max(np.abs(sol.u1_value(1.0, ts) - DISK1.value(1.0, ts))) <= sol.tail_bound


@pytest.mark.parametrize("n,k", [(1, 0.5), (2, 0.25), (3, 4.0)])
def test_disk_matches_geometric_closed_form(n, k):
    field = DiskField.single_mode(n)
    cfg = RadialLayerConfig(R=0.7, k=k)
    sol = series_solution(cfg, field, TailTol(1e-11))
    exact = mode_exact(cfg, [(n, 1.0, 0.0)])
    ts = np.linspace(0, 2 * math.pi, 9)
    for r in np.linspace(0.72, 0.99, 5):
        assert np.max(np.abs(sol.u1_value(r, ts) - exact.u1_value(r, ts))) <= 1e-9
    for r in np.linspace(0.05, 0.68, 5):
        assert np.max(np.abs(sol.u2_value(r, ts) - exact.u2_value(r, ts))) <= 1e-9


def test_disk_coupling_conditions_on_modes():
    for k in (0.1, 0.5, 2.0, 10.0):
        cfg = RadialLayerConfig(R=0.7, k=k)
        sol = series_solution(cfg, DISK1, TailTol(1e-10))
        ts = np.linspace(0, 2 * math.pi, 50)
        vj = np.max(np.abs(sol.u1_value(cfg.interface, ts) - sol.u2_value(cfg.interface, ts)))
        fj = np.max(
            np.abs(k * sol.u1_deriv(cfg.interface, ts) - sol.u2_deriv(cfg.interface, ts))
        )
        assert vj <= 10 * 1e-10
        assert fj <= 10 * 1e-10


# --- annulus -------------------------------------------------------------------


def test_annulus_boundary_conditions():
    sol = series_solution(Geometry("annulus", 0.7), DISK1, TailTol(1e-11))
    ts = np.linspace(0, 2 * math.pi, 50)
    assert np.max(np.abs(sol.value(0.7, ts))) <= sol.tail_bound
    assert np.max(np.abs(sol.value(1.0, ts) - DISK1.value(1.0, ts))) <= sol.tail_bound


def test_annulus_closed_form_point():
    sol = series_solution(Geometry("annulus", 0.7), DISK1, TailTol(1e-12))
    expected = (0.85 - 0.49 / 0.85) / (1 - 0.49)
    assert float(sol.value(0.85, 0.0)) == pytest.approx(expected, abs=1e-11)
    assert expected == pytest.approx(0.5363321799, abs=1e-9)


def test_annulus_constant_mode_log_profile():
    # boundary value c = 1 (coefficient 2): u = c ln(r/R)/ln(1/R), r du/dr = c/ln(1/R)
    const = DiskField.single_mode(0, 2.0)
    sol = series_solution(Geometry("annulus", 0.7), const, TailTol(1e-10))
    assert sol.tail_bound == 0.0
    rs = np.linspace(0.7, 1.0, 7)
    assert np.max(np.abs(sol.value(rs, 1.0) - np.log(rs / 0.7) / math.log(1 / 0.7))) <= 1e-15
    assert np.max(np.abs(sol.deriv(rs, 1.0) - 1.0 / math.log(1 / 0.7))) <= 1e-15
    assert float(sol.value(0.7, 1.0)) == 0.0
    # mixed data: the log profile rides on top of the ladder for the other modes
    mixed = DiskField(np.array([2.0, 1.0]), np.array([0.0, 0.0]))
    sol = series_solution(Geometry("annulus", 0.7), mixed, TailTol(1e-12))
    exact = mode_exact(Geometry("annulus", 0.7), [(1, 1.0, 0.0)])
    want = exact.value(rs, 1.0) + np.log(rs / 0.7) / math.log(1 / 0.7)
    assert np.max(np.abs(sol.value(rs, 1.0) - want)) <= 1e-11


# --- regimes -------------------------------------------------------------------


#: a boundary source: its ladder is summed image by image and does not decay
SOURCE = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.0, 1.0)])
#: a field with boundary sources has no sup bound of its own; the policy gives it
SOURCE_TOL = TailTol(1e-10, sup_bound=1.0)


def test_convergence_diagnostic_examples():
    rep = convergence_diagnostic(PlanarLayerConfig(l=1.0, k=1.0), SOURCE, SOURCE_TOL)
    assert (rep.rho, rep.j_needed, rep.recommendation) == (0.0, 1, "series")
    rep = convergence_diagnostic(PlanarLayerConfig(l=0.01, k=0.01), SOURCE, SOURCE_TOL)
    assert rep.rho == pytest.approx(0.9802, abs=1e-4)
    assert rep.recommendation == "asymptotic"
    # the same thin layer with a mode field costs the same at any length
    assert convergence_diagnostic(PlanarLayerConfig(l=0.01, k=0.01), MODE).recommendation == "series"
    rep = convergence_diagnostic(PlanarLayerConfig(l=1.0, k=0.5), SOURCE, SOURCE_TOL)
    assert rep.rho == pytest.approx(1.0 / 3.0)
    assert rep.recommendation == "series"


def test_convergence_diagnostic_threshold_configurable():
    cfg = PlanarLayerConfig(l=0.01, k=0.01)
    j = convergence_diagnostic(cfg, SOURCE, SOURCE_TOL).j_needed
    assert convergence_diagnostic(cfg, SOURCE, SOURCE_TOL, threshold=j).recommendation == "series"
    assert convergence_diagnostic(cfg, SOURCE, SOURCE_TOL, threshold=j - 1).recommendation == "asymptotic"


def test_convergence_diagnostic_counts_the_ladder_the_series_builds():
    planar = PlanarLayerConfig(l=0.1, k=0.005)
    modes = HalfPlaneField(modes=[(1.0, 1.0, 0.0), (0.5, 3.0, 0.2)])
    rep = convergence_diagnostic(planar, field=modes, threshold=10)
    assert rep.j_needed == series_solution(planar, modes, TailTol(1e-10)).terms
    assert rep.j_needed > 10 and rep.recommendation == "series"
    radial = RadialLayerConfig(R=0.95, k=0.02)
    disk = DiskField.single_mode(3, 0.5, 0.5)
    rep = convergence_diagnostic(radial, disk, TailTol(1e-8))
    assert rep.j_needed == series_solution(radial, disk, TailTol(1e-8)).terms
    assert rep.recommendation == "series"
    # a constant mode decays only like |rho|^j on the coupled disk
    constant = DiskField([2.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5])
    rep = convergence_diagnostic(radial, constant, TailTol(1e-8))
    assert rep.j_needed == series_solution(radial, constant, TailTol(1e-8)).terms
    assert rep.j_needed > convergence_diagnostic(radial, disk, TailTol(1e-8)).j_needed
    zero = DiskField([0.0])
    assert convergence_diagnostic(radial, field=zero).j_needed == series_solution(radial, zero, TailTol(1e-10)).terms == 1


def test_convergence_diagnostic_counts_the_annulus_ladder_without_its_constant_mode():
    # the series sums the annulus ladder without the constant mode, which
    # enters as its exact log profile; the diagnostic counts that ladder
    annulus = Geometry("annulus", 0.9)
    field = DiskField([2.0, 1.0])
    rep = convergence_diagnostic(annulus, field)
    assert rep.j_needed == series_solution(annulus, field, TailTol(1e-10)).terms == 121
    assert rep.recommendation == "series"


def test_projected_disk_counts_the_ladder_of_its_modes():
    # the benchmark's sampled disk: a two-mode trace on 256 points counts the
    # ladder of its two modes, not the |rho|-ratio ladder of a rounding-level a_0
    theta = np.arange(256) * 2 * math.pi / 256
    modes = DiskField([0.0, 0.35, -0.1], [0.0, 0.25, 0.3])
    projected = disk_from_boundary(BoundaryTrace(theta, modes.value(1.0, theta)), 127)
    geometry = RadialLayerConfig(R=0.8, k=0.2)
    sol = series_solution(geometry, projected, TailTol(1e-10))
    ref = series_solution(geometry, modes, TailTol(1e-10))
    # 28: the twin bounds sup|u| by sum hypot(a_n, b_n), not sum |a_n| + |b_n|
    assert sol.terms == ref.terms == 28
    assert sol.tail_bound == pytest.approx(ref.tail_bound + projected.dropped_mass, rel=1e-12)
    exact = mode_exact(geometry, [(1, 0.35, 0.25), (2, -0.1, 0.3)])
    ts = np.linspace(0.0, 2 * math.pi, 13)
    r1, r2 = np.linspace(0.8, 1.0, 7)[:, None], np.linspace(0.0, 0.8, 7)[:, None]
    err = max(np.max(np.abs(sol.u1_value(r1, ts) - exact.u1_value(r1, ts))),
              np.max(np.abs(sol.u2_value(r2, ts) - exact.u2_value(r2, ts))))
    assert err <= sol.tail_bound + 1e-11


@pytest.mark.parametrize("k", [0.3, 3.0])
def test_coupled_disk_centre_on_every_route(k):
    # r = 0 is x = inf on the twin, where only the constant mode is left
    from layerfield import LayeredSolution
    from layerfield.asymptotics import thin_layer_solution

    field = DiskField([0.8, 1.0, 0.0, -0.2], [0.0, 0.5, 0.0, 0.3])
    modes = [(0, 0.4, 0.0), (1, 1.0, 0.5), (3, -0.2, 0.3)]
    geometry, unit = RadialLayerConfig(R=0.7, k=k), RadialLayerConfig(R=0.7, k=1.0)
    ts = np.linspace(0.0, 2 * math.pi, 9)
    exact = mode_exact(geometry, modes).u2_value(0.0, ts)
    series = series_solution(geometry, field, TailTol(1e-13))
    assert np.max(np.abs(series.u2_value(0.0, ts) - exact)) <= 1e-13
    thin = thin_layer_solution(geometry, field)
    assert np.all(np.isfinite(thin.u2_value(0.0, ts)))
    if k < 1:
        assert np.max(np.abs(thin.u2_value(0.0, ts) - exact)) <= thin.bound_at(0.0)
    # the identity route is the model field, which k = 1 solves
    identity = LayeredSolution(unit, unit.on_twin(field), 0.0)
    assert np.max(np.abs(identity.u2_value(0.0, ts) - mode_exact(unit, modes).u2_value(0.0, ts))) <= 1e-15
    for route in (series, thin, identity):
        assert np.all(route.u2_deriv(0.0, ts) == 0.0)


def test_convergence_diagnostic_sends_slow_source_ladders_to_asymptotics():
    cfg = PlanarLayerConfig(l=0.01, k=0.01)
    sources = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.0, 1.0)])
    rep = convergence_diagnostic(cfg, sources, SOURCE_TOL)
    assert rep.j_needed > 1000 and rep.recommendation == "asymptotic"
    assert convergence_diagnostic(cfg, sources, SOURCE_TOL, threshold=10_000).recommendation == "series"


def test_source_ladder_is_capped_under_a_fixed_term_count():
    # the J * S source images are built one by one; past the cap the
    # series refuses before building any, as it does at a tolerance
    J = MAX_LADDER_TERMS + 1
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as exc:
        series_solution(Geometry("strip", 0.1), SOURCE, MaxTerms(J))
    assert time.perf_counter() - start < 1.0
    assert exc.value.needed == J and exc.value.terms == MAX_LADDER_TERMS
    rep = convergence_diagnostic(PlanarLayerConfig(l=0.1, k=0.5), SOURCE, MaxTerms(J))
    assert (rep.j_needed, rep.recommendation, rep.tol) == (J, "asymptotic", None)
    # a ladder of modes costs the same at any length, so it takes any J
    assert series_solution(Geometry("strip", 0.1), MODE, MaxTerms(J)).terms == J


planar_geometries = st.builds(
    lambda l, a2, k: PlanarLayerConfig(l=l, k=k, a2=a2),
    st.floats(0.005, 0.5), st.floats(0.5, 4.0), st.one_of(st.floats(1e-4, 0.99), st.floats(1.01, 1e4)),
)
radial_geometries = st.builds(
    lambda R, k: RadialLayerConfig(R=R, k=k),
    st.floats(0.5, 0.9999), st.one_of(st.floats(1e-4, 0.99), st.floats(1.01, 1e4)),
)
policies = st.one_of(st.builds(TailTol, st.floats(1e-14, 1e-6)), st.builds(MaxTerms, st.integers(1, 10**6)))


@st.composite
def coupled_problems(draw):
    """A coupled geometry with a field of 1-3 modes on it."""
    geometry = draw(st.one_of(planar_geometries, radial_geometries))
    if geometry.radial:
        n = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3))
        a = np.zeros(max(n) + 1)
        a[n] = 1.0
        return geometry, DiskField(a)
    omegas = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3))
    return geometry, HalfPlaneField(modes=[(1.0, w, 0.0) for w in omegas])


@given(coupled_problems(), policies)
@settings(max_examples=80, deadline=None)
def test_convergence_diagnostic_reports_the_series_count(problem, trunc):
    geometry, field = problem
    rep = convergence_diagnostic(geometry, field, trunc)
    if rep.recommendation == "series":
        assert rep.j_needed == series_solution(geometry, field, trunc).terms
    else:
        with pytest.raises(ConvergenceError) as exc:
            series_solution(geometry, field, trunc)
        assert exc.value.needed == rep.j_needed


@pytest.mark.parametrize(
    "problem, geometry, x_stop", [("strip", {"l": 0.3}, 0.3), ("halfplane_coupled", {"l": 0.3, "k": 0.4}, 0.6)]
)
def test_mode_ladder_of_a_quadrillion_terms_solves_at_once(tmp_path, capsys, problem, geometry, x_stop):
    # a mode ladder costs the same at any J; only a field with sources walks
    # its images, so J = 10^15 must not loop over them
    import json

    from layerfield.cli import evaluate_grid, geometry_config, main

    modes = [{"omega": 1.0, "A": 1.0, "phi": 0.2}, {"omega": 2.5, "A": -0.4}]
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}, "method": "series",
           "truncation": {"J": 10**15}, "grid": {"x": [0.0, x_stop, 3], "y": [-1.0, 1.0, 3]}}
    path, out = tmp_path / "huge_j.json", tmp_path / "huge_j.csv"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = main(["solve", "--config", str(path), "--out", str(out)])
    assert code == 0 and time.perf_counter() - start < 5.0
    summary = json.loads(capsys.readouterr().out)
    assert summary["terms"] == 10**15
    u = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3].reshape(3, 3)
    exact = mode_exact(geometry_config(cfg), [(m["A"], m["omega"], m.get("phi", 0.0)) for m in modes])
    want = evaluate_grid(exact, problem, np.linspace(0.0, x_stop, 3), np.linspace(-1.0, 1.0, 3))
    assert np.max(np.abs(u - want)) <= summary["tail_bound"] + 1e-11
