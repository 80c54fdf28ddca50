import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from layerfield import (
    DiskField,
    Geometry,
    HalfPlaneField,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    SolvabilityError,
    TailTol,
    ValidationError,
    mode_exact,
    series_solution,
)
from layerfield.asymptotics import disk_small_contrast, halfplane_small_contrast, thin_layer_solution
from layerfield.asymptotics.links import _planar_link, _radial_link

PLANAR = HalfPlaneField(modes=[(1.0, 1.0, 0.0), (0.5, 2.0, 0.3)])
DISK = DiskField(np.array([0.0, 1.0, 0.5]), np.array([0.0, 0.2, 0.0]))


def _planar_points(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform([0.01, -2.0], [2.0, 2.0], (n, 2))


def _disk_points(n=100, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform([0.05, 0.0], [0.99, 2 * math.pi], (n, 2))


def test_planar_robin_identity_closed_form():
    h = -1.0
    u3 = _planar_link(PLANAR, h)
    worst = max(
        abs(u3.deriv_x(x, y) + h * u3.value(x, y) + PLANAR.value(x, y))
        for x, y in _planar_points()
    )
    assert worst <= 1e-8


def test_planar_robin_identity_fd_derivative():
    h = -2.5
    u3 = _planar_link(PLANAR, h)
    step = 1e-5
    worst = 0.0
    for x, y in _planar_points(100, seed=2):
        dx = (u3.value(x + step, y) - u3.value(x - step, y)) / (2 * step)
        worst = max(worst, abs(dx + h * u3.value(x, y) + PLANAR.value(x, y)))
    assert worst <= 1e-6


def test_planar_robin_mode_rescaling():
    # a frequency-1 mode with h = -1 is halved
    u3 = _planar_link(HalfPlaneField.single_mode(1.0), -1.0)
    assert u3.value(0.7, 0.4) == pytest.approx(0.5 * math.exp(-0.7) * math.cos(0.4))


def test_planar_robin_quadrature_fallback_with_sources():
    field = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.5, 0.3)])
    u3 = _planar_link(field, -2.0)
    for x, y in _planar_points(10, seed=3):
        resid = u3.deriv_x(x, y) + (-2.0) * u3.value(x, y) + field.value(x, y)
        assert abs(resid) <= 1e-8  # derivative comes from the identity itself
    # spot check the integral against the mode closed form
    pure = _planar_link(HalfPlaneField(modes=[(1.0, 1.0, 0.0)]), -2.0)
    src = HalfPlaneField(sources=[(0.5, 0.3)])
    val, _ = integrate.quad(lambda e: math.exp(-2.0 * e) * src.value(1.0 + e, 0.2), 0, np.inf)
    assert u3.value(1.0, 0.2) == pytest.approx(pure.value(1.0, 0.2) + val, rel=1e-8)


SOURCED = HalfPlaneField(modes=[(1.0, 1.0, 0.3)], sources=[(0.2, 0.7), (-0.5, -0.4)])
#: (x, y): at x = 1e-3 on and between the sources, inside and beyond a thin
#: layer, and at -h*x >= 1000 for both h below
SOURCE_POINTS = [(1e-3, 0.2), (1e-3, -0.5), (1e-3, -0.1), (0.03, 1.0), (1.0, -3.0), (500.0, 0.2), (2500.0, 7.0)]


def quad_companion(h, x, y):
    """int_0^inf e^(h e) u(x + e, y) de by adaptive quadrature, split at e = 1."""
    f = lambda e: math.exp(h * e) * SOURCED.value(x + e, y)
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400)[0] for a, b in ((0.0, 1.0), (1.0, math.inf)))


@pytest.mark.parametrize("h", [-2.0, -25.0])
def test_source_companion_matches_quadrature(h):
    u3 = _planar_link(SOURCED, h)
    for x, y in SOURCE_POINTS:
        ref = quad_companion(h, x, y)
        assert abs(u3.value(x, y) - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("h", [-2.0, -25.0])
def test_source_companion_obeys_the_robin_identity_by_central_differences(h):
    # d/dx u3 + h u3 + u = 0, with d/dx from values alone; measured <= 3.3e-9
    u3 = _planar_link(SOURCED, h)
    for x, y in SOURCE_POINTS:
        step = 1e-4 * x
        dx = (u3.value(x + step, y) - u3.value(x - step, y)) / (2 * step)
        u, v = SOURCED.value(x, y), u3.value(x, y)
        assert abs(dx + h * v + u) <= 1e-7 * (abs(u) + abs(h * v))


def test_source_companion_is_finite_and_warns_nothing():
    x = np.array([0.0, 1e-3, 0.05, 1.0, 50.0, 500.0, 5e3, 5e4])[:, None]
    y = np.array([-100.0, -0.4, 0.21, 3.0, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (-2.0, -25.0):
            u3 = _planar_link(SOURCED, h)
            assert np.all(np.isfinite(u3.value(x, y))) and np.all(np.isfinite(u3.deriv_x(x[1:], y)))
            assert isinstance(u3.value(0.5, 0.2), float)


def test_planar_neumann_identity():
    # the Neumann companion u2, with d/dx u2 = u, is minus the link at h = 0
    u2 = _planar_link(PLANAR, 0.0)
    worst = max(abs(-u2.deriv_x(x, y) - PLANAR.value(x, y)) for x, y in _planar_points())
    assert worst <= 1e-10
    mode = HalfPlaneField.single_mode(1.0)
    # at w = 1 the Neumann companion is -u, so the link is u itself
    assert _planar_link(mode, 0.0).value(0.3, 0.1) == pytest.approx(mode.value(0.3, 0.1))
    with pytest.raises(ValidationError):
        _planar_link(HalfPlaneField(sources=[(0.0, 1.0)]), 0.0)


def test_disk_robin_identity_closed_form():
    h = 1.5
    u3 = _radial_link(DISK, h)
    worst = max(
        abs(u3.radial_derivative(r, t) + h * u3.value(r, t) - DISK.value(r, t))
        for r, t in _disk_points()
    )
    assert worst <= 1e-8


def test_disk_robin_identity_fd_derivative():
    h = 0.8
    u3 = _radial_link(DISK, h)
    step = 1e-5
    worst = 0.0
    for r, t in _disk_points(100, seed=5):
        l0 = r * (u3.value(r + step, t) - u3.value(r - step, t)) / (2 * step)
        worst = max(worst, abs(l0 + h * u3.value(r, t) - DISK.value(r, t)))
    assert worst <= 1e-6


def test_disk_robin_mode_rescaling():
    u3 = _radial_link(DiskField.single_mode(2), 1.0)
    assert u3.value(0.5, 0.0) == pytest.approx(0.25 / 3.0)


def test_disk_neumann_identity_and_solvability():
    u2 = _radial_link(DISK, 0.0)
    worst = max(abs(u2.radial_derivative(r, t) - DISK.value(r, t)) for r, t in _disk_points())
    assert worst <= 1e-10
    n1 = _radial_link(DiskField.single_mode(1), 0.0)
    assert n1.value(0.6, 0.9) == pytest.approx(DiskField.single_mode(1).value(0.6, 0.9))
    with pytest.raises(SolvabilityError):
        _radial_link(DiskField.single_mode(0, 2.0), 0.0)


def test_zero_fields_map_to_zero():
    zero_p = HalfPlaneField(modes=[(0.0, 1.0, 0.0)])
    assert _planar_link(zero_p, -1.0).value(0.5, 0.5) == 0.0
    assert _planar_link(zero_p, 0.0).value(0.5, 0.5) == 0.0
    zero_d = DiskField.single_mode(1, cos_amp=0.0)
    assert _radial_link(zero_d, 1.0).value(0.5, 0.5) == 0.0
    assert _radial_link(zero_d, 0.0).value(0.5, 0.5) == 0.0


# --- thin-layer approximators --------------------------------------------------


MODE = HalfPlaneField.single_mode(1.0)
DISK1 = DiskField.single_mode(1)


def test_halfplane_small_contrast_bounded_by_assessment():
    cfg = PlanarLayerConfig(l=0.01, k=0.05)
    approx = halfplane_small_contrast(MODE, cfg)
    series = series_solution(cfg, MODE, TailTol(1e-12))
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(cfg.l, cfg.l + 1.5)
        y = rng.uniform(-2.0, 2.0)
        dev = abs(float(approx.solution.u2_value(x, y)) - float(series.u2_value(x, y)))
        assert dev <= approx.bound_at(x, y) * (1 + 1e-6) + 1e-14
    assert approx.bound > 0


def test_halfplane_small_contrast_layer2_follows_anisotropic_stretch():
    # layer 2 is evaluated at the stretched argument (a1/a2)(x - l) + l, as
    # in the series; without it the deviation is 0.17, four times the bound
    cfg = PlanarLayerConfig(l=0.01, k=0.02, a1=1.0, a2=2.0)
    approx = halfplane_small_contrast(MODE, cfg)
    series = series_solution(cfg, MODE, TailTol(1e-12))
    xs = cfg.l + np.linspace(0.0, 1.5, 31)[:, None]
    ys = np.linspace(-2.0, 2.0, 21)
    dev = np.max(np.abs(approx.solution.u2_value(xs, ys) - series.u2_value(xs, ys)))
    assert dev <= approx.bound


def test_halfplane_bound_covers_the_interface_across_from_sources():
    # the deviation peaks at the source ordinates (0.842 at y = 0.2), which
    # a bound probing one mode period alone misses (it read 0.296)
    field = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.2, 1.0), (-0.5, 1.0)])
    cfg = PlanarLayerConfig(l=0.05, k=0.1)
    approx = thin_layer_solution(cfg, field)
    series = series_solution(cfg, field, TailTol(1e-10, sup_bound=100))
    ys = np.linspace(-1.0, 1.0, 401)
    xs = np.full_like(ys, cfg.l)
    dev = np.max(np.abs(approx.solution.value(xs, ys) - series.value(xs, ys)))
    assert dev > 0.8
    assert approx.bound >= dev


def test_halfplane_small_contrast_thickness_scaling():
    base = PlanarLayerConfig(l=0.01, k=0.05)
    h = base.robin_h
    errs = []
    for l in (0.01, 0.005):
        rho = math.exp(2 * h * l)
        cfg = PlanarLayerConfig(l=l, k=(1 - rho) / (1 + rho))
        approx = halfplane_small_contrast(MODE, cfg)
        series = series_solution(cfg, MODE, TailTol(1e-12))
        ys = np.linspace(-1, 1, 7)
        worst = 0.0
        for x in np.concatenate([l * np.linspace(0.05, 0.95, 8), l + np.linspace(0.02, 1.0, 8)]):
            fn_a = approx.solution.u1_value if x <= l else approx.solution.u2_value
            fn_s = series.u1_value if x <= l else series.u2_value
            worst = max(worst, float(np.max(np.abs(fn_a(x, ys) - fn_s(x, ys)))))
        errs.append(worst)
    assert 1.5 <= errs[0] / errs[1] <= 2.7


def test_halfplane_large_contrast_vs_series():
    base = PlanarLayerConfig(l=0.01, k=20.0)
    h = base.robin_h
    errs = []
    for l in (0.01, 0.005):
        rho = -math.exp(2 * h * l)
        cfg = PlanarLayerConfig(l=l, k=(1 - rho) / (1 + rho))
        approx = thin_layer_solution(cfg, MODE)
        series = series_solution(cfg, MODE, TailTol(1e-12))
        ys = np.linspace(-1, 1, 7)
        worst = 0.0
        for x in np.concatenate([l * np.linspace(0.05, 0.95, 8), l + np.linspace(0.02, 1.0, 8)]):
            fn_a = approx.solution.u1_value if x <= l else approx.solution.u2_value
            fn_s = series.u1_value if x <= l else series.u2_value
            worst = max(worst, float(np.max(np.abs(fn_a(x, ys) - fn_s(x, ys)))))
        errs.append(worst)
    # frozen from the brute-series runs: errors of order l, halving with l
    assert errs[0] <= 0.5
    assert 1.5 <= errs[0] / errs[1] <= 2.7


def test_halfplane_zero_field_maps_to_zero():
    zero = HalfPlaneField(modes=[(0.0, 1.0, 0.0)])
    cfg = PlanarLayerConfig(l=0.01, k=0.05)
    approx = halfplane_small_contrast(zero, cfg)
    assert approx.solution.u1_value(0.005, 0.3) == 0.0
    assert approx.solution.u2_value(0.5, 0.3) == 0.0
    assert approx.bound == 0.0


def test_contrast_branch_validation():
    with pytest.raises(ValidationError):
        halfplane_small_contrast(MODE, PlanarLayerConfig(l=0.01, k=2.0))
    with pytest.raises(ValidationError):
        disk_small_contrast(DISK1, RadialLayerConfig(R=0.96, k=2.0))


def test_strip_thin_layer_against_separated_solution():
    l = 0.05
    approx = thin_layer_solution(Geometry("strip", l), MODE).solution
    exact = mode_exact(Geometry("strip", l), [(1.0, 1.0, 0.0)])
    xs = np.linspace(0.1 * l, 0.9 * l, 15)
    rel = max(
        abs(float(approx.value(x, 0.0)) - float(exact.value(x, 0.0))) / abs(float(exact.value(x, 0.0)))
        for x in xs
    )
    # measured deviation is ~ l (4.84e-2 at l = 0.05); first-order in thickness
    assert rel <= 6e-2
    approx2 = thin_layer_solution(Geometry("strip", l / 2), MODE).solution
    exact2 = mode_exact(Geometry("strip", l / 2), [(1.0, 1.0, 0.0)])
    rel2 = max(
        abs(float(approx2.value(x, 0.0)) - float(exact2.value(x, 0.0)))
        / abs(float(exact2.value(x, 0.0)))
        for x in np.linspace(0.05 * l, 0.45 * l, 15)
    )
    assert 1.5 <= rel / rel2 <= 2.7


def test_strip_thin_layer_inner_edge_exactly_zero():
    approx = thin_layer_solution(Geometry("strip", 0.05), MODE).solution
    assert float(approx.value(0.05, 0.3)) == pytest.approx(0.0, abs=1e-15)
    zero = HalfPlaneField(modes=[(0.0, 1.0, 0.0)])
    assert float(thin_layer_solution(Geometry("strip", 0.05), zero).solution.value(0.02, 0.1)) == 0.0


def test_disk_small_contrast_bounded_by_assessment():
    cfg = RadialLayerConfig(R=0.98, k=0.05)
    approx = disk_small_contrast(DISK1, cfg)
    series = series_solution(cfg, DISK1, TailTol(1e-12))
    rng = np.random.default_rng(9)
    for _ in range(50):
        r = rng.uniform(0.1, cfg.R)
        t = rng.uniform(0.0, 2 * math.pi)
        dev = abs(float(approx.solution.u2_value(r, t)) - float(series.u2_value(r, t)))
        assert dev <= approx.bound_at(r, t) * (1 + 1e-6) + 1e-14


def test_disk_small_contrast_thickness_scaling():
    base = RadialLayerConfig(R=0.96, k=0.05)
    h = base.robin_h
    errs = []
    for R in (0.92, 0.96):
        rho = R ** (2 * h)
        cfg = RadialLayerConfig(R=R, k=(1 - rho) / (1 + rho))
        approx = disk_small_contrast(DISK1, cfg)
        series = series_solution(cfg, DISK1, TailTol(1e-12))
        ts = np.linspace(0, 2 * math.pi, 9)
        worst = 0.0
        for r in np.concatenate([R + (1 - R) * np.linspace(0.05, 0.95, 8), R * np.linspace(0.3, 0.95, 8)]):
            fn_a = approx.solution.u1_value if r >= R else approx.solution.u2_value
            fn_s = series.u1_value if r >= R else series.u2_value
            worst = max(worst, float(np.max(np.abs(fn_a(r, ts) - fn_s(r, ts)))))
        errs.append(worst)
    assert 1.5 <= errs[0] / errs[1] <= 2.7


def test_disk_large_contrast_vs_series():
    base = RadialLayerConfig(R=0.96, k=20.0)
    h = base.robin_h
    errs = []
    for R in (0.92, 0.96):
        rho = -(R ** (2 * h))
        cfg = RadialLayerConfig(R=R, k=(1 - rho) / (1 + rho))
        approx = thin_layer_solution(cfg, DISK1)
        series = series_solution(cfg, DISK1, TailTol(1e-12))
        ts = np.linspace(0, 2 * math.pi, 9)
        worst = 0.0
        for r in np.concatenate([R + (1 - R) * np.linspace(0.05, 0.95, 8), R * np.linspace(0.3, 0.95, 8)]):
            fn_a = approx.solution.u1_value if r >= R else approx.solution.u2_value
            fn_s = series.u1_value if r >= R else series.u2_value
            worst = max(worst, float(np.max(np.abs(fn_a(r, ts) - fn_s(r, ts)))))
        errs.append(worst)
    assert errs[1] <= 0.5
    assert 1.5 <= errs[0] / errs[1] <= 2.7


def test_annulus_thin_layer_against_mode_solution():
    R = 0.95
    approx = thin_layer_solution(Geometry("annulus", R), DISK1).solution
    exact = mode_exact(Geometry("annulus", R), [(1, 1.0, 0.0)])
    rs = np.linspace(R + 0.1 * (1 - R), 1 - 0.1 * (1 - R), 15)
    rel = max(
        abs(float(approx.value(r, 0.0)) - float(exact.value(r, 0.0))) / abs(float(exact.value(r, 0.0)))
        for r in rs
    )
    # measured deviation ~ (1 - R^2)/2 = 4.96e-2 at R = 0.95
    assert rel <= 6e-2
    R2 = 0.975
    approx2 = thin_layer_solution(Geometry("annulus", R2), DISK1).solution
    exact2 = mode_exact(Geometry("annulus", R2), [(1, 1.0, 0.0)])
    rel2 = max(
        abs(float(approx2.value(r, 0.0)) - float(exact2.value(r, 0.0)))
        / abs(float(exact2.value(r, 0.0)))
        for r in np.linspace(R2 + 0.1 * (1 - R2), 1 - 0.1 * (1 - R2), 15)
    )
    assert 1.5 <= rel / rel2 <= 2.7


def test_annulus_thin_layer_boundary_deviation_first_order():
    devs = []
    for R in (0.95, 0.975):
        approx = thin_layer_solution(Geometry("annulus", R), DISK1).solution
        devs.append(abs(float(approx.value(1.0, 0.0)) - float(DISK1.value(1.0, 0.0))))
    assert devs[0] <= 2 * (1 - 0.95)
    assert 1.5 <= devs[0] / devs[1] <= 2.7


def test_annulus_thin_layer_needs_mean_zero():
    with pytest.raises(SolvabilityError):
        thin_layer_solution(Geometry("annulus", 0.95), DiskField.single_mode(0, 2.0))
