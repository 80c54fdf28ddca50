import math

import numpy as np
import pytest

from layerfield import (
    CapabilityError,
    ConvergenceError,
    DiskField,
    HalfPlaneField,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    ValidationError,
    annulus_dirichlet,
    convergence_diagnostic,
    disk_coupled,
    geometric_tail_terms,
    halfplane_coupled,
    mode_exact,
    strip_dirichlet,
)

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


def test_config_conductivity_consistency():
    PlanarLayerConfig(l=0.5, k=0.5, lambda1=1.0, lambda2=2.0)
    with pytest.raises(ValidationError):
        PlanarLayerConfig(l=0.5, k=0.6, lambda1=1.0, lambda2=2.0)


def test_radial_robin_parameter_sign():
    cfg = RadialLayerConfig(R=0.9, k=0.5)
    # rho in (0,1) and R < 1 make h positive
    assert cfg.robin_h > 0
    assert cfg.R ** (2 * cfg.robin_h) == pytest.approx(cfg.rho)


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
    sol = strip_dirichlet(MODE, 0.4, TailTol(1e-11))
    ys = np.linspace(-2, 2, 50)
    assert np.max(np.abs(sol.value(0.0, ys) - MODE.value(0.0, ys))) <= sol.tail_bound
    assert np.max(np.abs(sol.value(0.4, ys))) <= sol.tail_bound


def test_strip_matches_separated_solution():
    l = 0.5
    sol = strip_dirichlet(MODE, l, TailTol(1e-12))
    exact = mode_exact("strip", [(1.0, 1.0, 0.0)], l=l)
    assert exact.value(0.25, 0.0) == pytest.approx(math.sinh(0.25) / math.sinh(0.5))
    xs = np.linspace(0.02, 0.48, 12)
    ys = np.linspace(-1, 1, 9)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert np.max(np.abs(sol.value(X, Y) - exact.value(X, Y))) <= 10 * sol.tail_bound


def test_strip_monotone_truncation():
    l = 0.4
    exact = mode_exact("strip", [(1.0, 1.0, 0.0)], l=l)
    point = (0.17, 0.6)
    devs = []
    for j in range(1, 14):
        sol = strip_dirichlet(MODE, l, MaxTerms(j))
        devs.append(abs(float(sol.value(*point)) - float(exact.value(*point))))
    for a, b in zip(devs, devs[1:]):
        assert b <= a * (1 + 1e-12) + 1e-16


def test_disk_monotone_truncation():
    cfg = RadialLayerConfig(R=0.8, k=0.3)
    exact = mode_exact("disk_coupled", [(1, 1.0, 0.0)], config=cfg)
    point = (0.9, 0.7)
    devs = []
    for j in range(1, 14):
        sol = disk_coupled(DISK1, cfg, MaxTerms(j))
        devs.append(abs(float(sol.u1_value(*point)) - float(exact.u1_value(*point))))
    for a, b in zip(devs, devs[1:]):
        assert b <= a * (1 + 1e-12) + 1e-16


def test_strip_tailtol_needs_modes():
    src = HalfPlaneField(sources=[(0.0, 1.0)])
    with pytest.raises(CapabilityError):
        strip_dirichlet(src, 0.3, TailTol(1e-8))
    # but a fixed term count works
    sol = strip_dirichlet(src, 0.3, MaxTerms(200))
    assert abs(float(sol.value(0.3, 0.5))) <= 1e-3


def test_tailtol_unreachable_raises():
    with pytest.raises(ConvergenceError) as exc:
        halfplane_coupled(MODE, PlanarLayerConfig(l=1e-4, k=1e-5), TailTol(1e-300))
    assert exc.value.achieved is not None


# --- coupled half-plane ------------------------------------------------------


def test_halfplane_k1_reduces_to_model():
    cfg = PlanarLayerConfig(l=0.3, k=1.0)
    sol = halfplane_coupled(MODE, cfg, TailTol(1e-12))
    assert sol.terms == 1
    ys = np.linspace(-1, 1, 7)
    assert np.max(np.abs(sol.u1_value(0.2, ys) - MODE.value(0.2, ys))) == 0.0
    # the u2 argument rebasing (x-l)+l costs one ulp
    assert np.max(np.abs(sol.u2_value(0.9, ys) - MODE.value(0.9, ys))) <= 1e-15


@pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 10.0])
def test_halfplane_boundary_telescoping(k):
    cfg = PlanarLayerConfig(l=0.3, k=k)
    sol = halfplane_coupled(MODE, cfg, TailTol(1e-10))
    ys = np.linspace(-2, 2, 50)
    assert np.max(np.abs(sol.u1_value(0.0, ys) - MODE.value(0.0, ys))) <= sol.tail_bound


@pytest.mark.parametrize("k", [0.25, 0.5, 2.0])
def test_halfplane_matches_geometric_closed_form(k):
    cfg = PlanarLayerConfig(l=0.3, k=k)
    sol = halfplane_coupled(MODE, cfg, TailTol(1e-11))
    exact = mode_exact("halfplane_coupled", [(1.0, 1.0, 0.0)], config=cfg)
    ys = np.linspace(-1, 1, 7)
    for x in np.linspace(0.02, 0.28, 6):
        assert np.max(np.abs(sol.u1_value(x, ys) - exact.u1_value(x, ys))) <= 10 * sol.tail_bound
    for x in np.linspace(0.32, 1.5, 6):
        assert np.max(np.abs(sol.u2_value(x, ys) - exact.u2_value(x, ys))) <= 10 * sol.tail_bound


def test_halfplane_coupling_conditions_on_modes():
    # value continuity and k-weighted flux continuity at the interface
    for k in (0.1, 0.5, 2.0, 10.0):
        cfg = PlanarLayerConfig(l=0.25, k=k)
        sol = halfplane_coupled(MODE, cfg, TailTol(1e-10))
        ys = np.linspace(-2, 2, 50)
        vj = np.max(np.abs(sol.u1_value(cfg.l, ys) - sol.u2_value(cfg.l, ys)))
        fj = np.max(np.abs(k * sol.u1_deriv(cfg.l, ys) - sol.u2_deriv(cfg.l, ys)))
        assert vj <= 10 * 1e-10
        assert fj <= 10 * 1e-10


def test_halfplane_anisotropic_stretch():
    cfg = PlanarLayerConfig(l=0.3, k=0.5, a1=2.0, a2=1.0)
    sol = halfplane_coupled(MODE, cfg, TailTol(1e-11))
    exact = mode_exact("halfplane_coupled", [(1.0, 1.0, 0.0)], config=cfg)
    ys = np.linspace(-1, 1, 5)
    for x in (0.4, 0.8):
        assert np.max(np.abs(sol.u2_value(x, ys) - exact.u2_value(x, ys))) <= 1e-9
    # interface conditions still hold with the stretched argument
    vj = np.max(np.abs(sol.u1_value(cfg.l, ys) - sol.u2_value(cfg.l, ys)))
    assert vj <= 1e-9


# --- coupled disk -------------------------------------------------------------


def test_disk_k1_reduces_to_model():
    cfg = RadialLayerConfig(R=0.7, k=1.0)
    sol = disk_coupled(DISK1, cfg, TailTol(1e-12))
    ts = np.linspace(0, 2 * math.pi, 9)
    assert np.max(np.abs(sol.u1_value(0.85, ts) - DISK1.value(0.85, ts))) == 0.0
    assert np.max(np.abs(sol.u2_value(0.3, ts) - DISK1.value(0.3, ts))) == 0.0


@pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 10.0])
def test_disk_boundary_telescoping(k):
    cfg = RadialLayerConfig(R=0.7, k=k)
    sol = disk_coupled(DISK1, cfg, TailTol(1e-10))
    ts = np.linspace(0, 2 * math.pi, 50)
    assert np.max(np.abs(sol.u1_value(1.0, ts) - DISK1.value(1.0, ts))) <= sol.tail_bound


@pytest.mark.parametrize("n,k", [(1, 0.5), (2, 0.25), (3, 4.0)])
def test_disk_matches_geometric_closed_form(n, k):
    field = DiskField.single_mode(n)
    cfg = RadialLayerConfig(R=0.7, k=k)
    sol = disk_coupled(field, cfg, TailTol(1e-11))
    exact = mode_exact("disk_coupled", [(n, 1.0, 0.0)], config=cfg)
    ts = np.linspace(0, 2 * math.pi, 9)
    for r in np.linspace(0.72, 0.99, 5):
        assert np.max(np.abs(sol.u1_value(r, ts) - exact.u1_value(r, ts))) <= 1e-9
    for r in np.linspace(0.05, 0.68, 5):
        assert np.max(np.abs(sol.u2_value(r, ts) - exact.u2_value(r, ts))) <= 1e-9


def test_disk_coupling_conditions_on_modes():
    for k in (0.1, 0.5, 2.0, 10.0):
        cfg = RadialLayerConfig(R=0.7, k=k)
        sol = disk_coupled(DISK1, cfg, TailTol(1e-10))
        ts = np.linspace(0, 2 * math.pi, 50)
        vj = np.max(np.abs(sol.u1_value(cfg.R, ts) - sol.u2_value(cfg.R, ts)))
        fj = np.max(
            np.abs(k * sol.u1_deriv(cfg.R, ts) - sol.u2_deriv(cfg.R, ts))
        )
        assert vj <= 10 * 1e-10
        assert fj <= 10 * 1e-10


# --- annulus -------------------------------------------------------------------


def test_annulus_boundary_conditions():
    sol = annulus_dirichlet(DISK1, 0.7, TailTol(1e-11))
    ts = np.linspace(0, 2 * math.pi, 50)
    assert np.max(np.abs(sol.value(0.7, ts))) <= sol.tail_bound
    assert np.max(np.abs(sol.value(1.0, ts) - DISK1.value(1.0, ts))) <= sol.tail_bound


def test_annulus_closed_form_point():
    sol = annulus_dirichlet(DISK1, 0.7, TailTol(1e-12))
    expected = (0.85 - 0.49 / 0.85) / (1 - 0.49)
    assert float(sol.value(0.85, 0.0)) == pytest.approx(expected, abs=1e-11)
    assert expected == pytest.approx(0.5363321799, abs=1e-9)


def test_annulus_constant_mode_log_profile():
    # boundary value c = 1 (coefficient 2): u = c ln(r/R)/ln(1/R), r du/dr = c/ln(1/R)
    const = DiskField.single_mode(0, 2.0)
    sol = annulus_dirichlet(const, 0.7, TailTol(1e-10))
    assert sol.tail_bound == 0.0
    rs = np.linspace(0.7, 1.0, 7)
    assert np.max(np.abs(sol.value(rs, 1.0) - np.log(rs / 0.7) / math.log(1 / 0.7))) <= 1e-15
    assert np.max(np.abs(sol.deriv(rs, 1.0) - 1.0 / math.log(1 / 0.7))) <= 1e-15
    assert float(sol.value(0.7, 1.0)) == 0.0
    # mixed data: the log profile rides on top of the ladder for the other modes
    mixed = DiskField(np.array([2.0, 1.0]), np.array([0.0, 0.0]))
    sol = annulus_dirichlet(mixed, 0.7, TailTol(1e-12))
    exact = mode_exact("annulus", [(1, 1.0, 0.0)], R=0.7)
    want = exact.value(rs, 1.0) + np.log(rs / 0.7) / math.log(1 / 0.7)
    assert np.max(np.abs(sol.value(rs, 1.0) - want)) <= 1e-11


# --- regimes -------------------------------------------------------------------


#: a boundary source: its ladder is summed image by image and does not decay
SOURCE = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.0, 1.0)])


def test_convergence_diagnostic_examples():
    rep = convergence_diagnostic(PlanarLayerConfig(l=1.0, k=1.0), SOURCE)
    assert (rep.rho, rep.j_needed, rep.recommendation) == (0.0, 1, "series")
    rep = convergence_diagnostic(PlanarLayerConfig(l=0.01, k=0.01), SOURCE)
    assert rep.rho == pytest.approx(0.9802, abs=1e-4)
    assert rep.recommendation == "asymptotic"
    # the same thin layer with a mode field costs the same at any length
    assert convergence_diagnostic(PlanarLayerConfig(l=0.01, k=0.01), MODE).recommendation == "series"
    rep = convergence_diagnostic(PlanarLayerConfig(l=1.0, k=0.5), SOURCE)
    assert rep.rho == pytest.approx(1.0 / 3.0)
    assert rep.recommendation == "series"


def test_convergence_diagnostic_threshold_configurable():
    cfg = PlanarLayerConfig(l=0.01, k=0.01)
    j = convergence_diagnostic(cfg, SOURCE).j_needed
    assert convergence_diagnostic(cfg, SOURCE, threshold=j).recommendation == "series"
    assert convergence_diagnostic(cfg, SOURCE, threshold=j - 1).recommendation == "asymptotic"


def test_convergence_diagnostic_counts_the_ladder_the_series_builds():
    planar = PlanarLayerConfig(l=0.1, k=0.005)
    modes = HalfPlaneField(modes=[(1.0, 1.0, 0.0), (0.5, 3.0, 0.2)])
    rep = convergence_diagnostic(planar, field=modes, threshold=10)
    assert rep.j_needed == halfplane_coupled(modes, planar, TailTol(1e-10)).terms
    assert rep.j_needed > 10 and rep.recommendation == "series"
    radial = RadialLayerConfig(R=0.95, k=0.02)
    disk = DiskField.single_mode(3, 0.5, 0.5)
    rep = convergence_diagnostic(radial, disk, tol=1e-8)
    assert rep.j_needed == disk_coupled(disk, radial, TailTol(1e-8)).terms
    assert rep.recommendation == "series"
    # a constant mode decays only like |rho|^j on the coupled disk
    constant = DiskField([2.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5])
    rep = convergence_diagnostic(radial, constant, tol=1e-8)
    assert rep.j_needed == disk_coupled(constant, radial, TailTol(1e-8)).terms
    assert rep.j_needed > convergence_diagnostic(radial, disk, tol=1e-8).j_needed
    zero = DiskField([0.0])
    assert convergence_diagnostic(radial, field=zero).j_needed == disk_coupled(zero, radial, TailTol(1e-10)).terms == 1


def test_convergence_diagnostic_sends_slow_source_ladders_to_asymptotics():
    cfg = PlanarLayerConfig(l=0.01, k=0.01)
    sources = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.0, 1.0)])
    rep = convergence_diagnostic(cfg, field=sources)
    assert rep.j_needed > 1000 and rep.recommendation == "asymptotic"
    assert convergence_diagnostic(cfg, field=sources, threshold=10_000).recommendation == "series"
