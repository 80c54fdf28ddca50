import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import (
    BoundaryTrace,
    CapabilityError,
    DiskField,
    HalfPlaneField,
    RadialLayerConfig,
    TailTol,
    UndersamplingError,
    ValidationError,
    disk_from_boundary,
    series_solution,
)


def laplacian_residual(evaluator, p, step):
    """Five-point stencil residual u_xx + u_yy of evaluator(x, y) at p = (x, y)."""
    x, y = p
    xp, xm, yp, ym, f0 = (float(evaluator(x + dx, y + dy))
                          for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step), (0.0, 0.0)))
    return (xp + xm - 2.0 * f0 + yp + ym - 2.0 * f0) / step**2


def test_halfplane_eval_basics():
    f = HalfPlaneField.single_mode(1.0)
    assert f.value(0.0, 0.0) == pytest.approx(1.0)
    assert f.value(math.log(2.0), 0.0) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        HalfPlaneField(modes=[(1.0, -1.0, 0.0)])


def test_disk_eval_basics():
    d = DiskField.single_mode(2)
    assert d.value(0.5, 0.0) == pytest.approx(0.25)
    assert d.value(0.5, math.pi / 2) == pytest.approx(-0.25)


def test_disk_from_boundary_projects_modes():
    theta = np.arange(16) * 2 * math.pi / 16
    field = disk_from_boundary(BoundaryTrace(theta, np.cos(2 * theta)), 4)
    assert field.cos_coeffs[2] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert np.max(np.abs(field.cos_coeffs[mask])) <= 1e-12
    assert np.max(np.abs(field.sin_coeffs)) <= 1e-12


def test_disk_from_boundary_constant_uses_half_convention():
    theta = np.arange(16) * 2 * math.pi / 16
    field = disk_from_boundary(BoundaryTrace(theta, np.ones_like(theta)), 4)
    assert field.cos_coeffs[0] == pytest.approx(2.0)
    assert np.max(np.abs(field.cos_coeffs[1:])) <= 1e-12
    assert field.value(0.3, 1.0) == pytest.approx(1.0)


def test_disk_from_boundary_mixed_modes():
    theta = np.arange(32) * 2 * math.pi / 32
    field = disk_from_boundary(BoundaryTrace(theta, np.sin(theta) + np.cos(3 * theta)), 5)
    assert field.sin_coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert field.cos_coeffs[3] == pytest.approx(1.0, abs=1e-12)
    other = np.abs(np.concatenate([field.cos_coeffs[:3], field.cos_coeffs[4:], field.sin_coeffs[2:]]))
    assert np.max(other) <= 1e-12



@pytest.mark.parametrize("m", [15, 16, 33])
def test_disk_from_boundary_matches_direct_sums_off_zero_start(m):
    # the grid may start anywhere in [0, 2 pi): the FFT carries the phase e^(-i n t0)
    rng = np.random.default_rng(m)
    theta = 2.3 + np.arange(m) * 2 * math.pi / m
    values = rng.normal(size=m)
    n_max = (m - 1) // 2
    field = disk_from_boundary(BoundaryTrace(theta, values), n_max)
    n = np.arange(n_max + 1)[:, None]
    a = 2.0 / m * np.sum(values * np.cos(n * theta), axis=1)
    b = 2.0 / m * np.sum(values * np.sin(n * theta), axis=1)
    b[0] = 0.0
    assert np.max(np.abs(field.cos_coeffs - a)) <= 1e-13
    assert np.max(np.abs(field.sin_coeffs - b)) <= 1e-13

def test_band_limited_trace_projects_onto_exactly_its_modes():
    # the other 126 coefficients of the FFT are rounding: all are set to 0,
    # the constant mode included, and their mass is kept
    theta = 0.4 + np.arange(256) * 2 * math.pi / 256
    values = 0.6 * np.cos(theta) + 0.3 * np.cos(2 * theta) - 0.4 * np.sin(2 * theta)
    field = disk_from_boundary(BoundaryTrace(theta, values), 127)
    a, b = field.cos_coeffs, field.sin_coeffs
    assert np.flatnonzero(a).tolist() == [1, 2] and np.flatnonzero(b).tolist() == [2]
    # on the twin the slowest mode is w = 1: no constant mode sets the ladder's ratio
    view = field.half_plane()
    assert a[0] == 0.0 and [w for _, w, _ in view.modes] == [1.0, 2.0] and view.image_factor(0.5) == math.exp(-0.5)
    assert np.max(np.abs(np.array([a[1], a[2], b[2]]) - [0.6, 0.3, -0.4])) <= 1e-15
    assert 0.0 <= field.dropped_mass <= 126 * 256 * np.finfo(float).eps


def _unpruned_projection(trace, n_max):
    """Every FFT coefficient of a circle trace that starts at 0, rounding included."""
    c = 2.0 / trace.values.size * np.fft.rfft(trace.values)[: n_max + 1]
    return DiskField(c.real, np.concatenate([[0.0], -c.imag[1:]]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([64, 129, 256]),
    decay=st.floats(0.6, 2.0),
    R=st.floats(0.5, 0.95),
    k=st.one_of(st.floats(0.05, 0.8), st.floats(1.25, 20.0)),
)
def test_pruned_projection_stays_within_its_tail_bound(seed, m, decay, R, k):
    # a broadband trace whose coefficients fall through the rounding floor:
    # the pruned series lies within its tail bound, dropped mass included,
    # plus the unpruned series' own, of the unpruned series
    rng = np.random.default_rng(seed)
    n_max = (m - 1) // 2
    n = np.arange(n_max + 1)
    a, b = rng.normal(size=(2, n_max + 1)) * 10.0 ** (-decay * n)
    b[0] = 0.0
    theta = np.arange(m) * 2 * math.pi / m
    trace = BoundaryTrace(theta, DiskField(a, b).value(1.0, theta))
    pruned = disk_from_boundary(trace, n_max)
    unpruned = _unpruned_projection(trace, n_max)
    assert pruned.dropped_mass > 0.0
    geometry = RadialLayerConfig(R=R, k=k)
    sp = series_solution(geometry, pruned, TailTol(1e-10))
    su = series_solution(geometry, unpruned, TailTol(1e-10))
    assert sp.tail_bound >= pruned.dropped_mass
    ts = np.linspace(0.0, 2 * math.pi, 17)
    r1 = np.linspace(R, 1.0, 9)[:, None]
    r2 = np.linspace(0.0, R, 9)[:, None]
    gap = max(np.max(np.abs(sp.u1_value(r1, ts) - su.u1_value(r1, ts))),
              np.max(np.abs(sp.u2_value(r2, ts) - su.u2_value(r2, ts))))
    rounding = 64 * np.finfo(float).eps * unpruned.sup_bound()
    assert gap <= sp.tail_bound + su.tail_bound + rounding


def test_disk_from_boundary_undersampling():
    theta = np.arange(8) * 2 * math.pi / 8
    with pytest.raises(UndersamplingError):
        disk_from_boundary(BoundaryTrace(theta, np.cos(theta)), 4)


def test_disk_boundary_roundtrip_trig_polynomial():
    rng = np.random.default_rng(7)
    n_max = 5
    a = rng.normal(size=n_max + 1)
    b = rng.normal(size=n_max + 1)
    b[0] = 0.0
    src = DiskField(a, b)
    theta = np.arange(32) * 2 * math.pi / 32
    field = disk_from_boundary(BoundaryTrace(theta, src.value(1.0, theta)), n_max)
    probe = np.linspace(0, 2 * math.pi, 41)
    assert np.max(np.abs(field.value(1.0, probe) - src.value(1.0, probe))) <= 1e-10


def test_laplacian_residual_mode_fields():
    f = HalfPlaneField.single_mode(1.0)
    assert abs(laplacian_residual(f.value, (0.5, 0.3), 1e-3)) <= 1e-6
    d = DiskField.single_mode(1)
    fn = lambda x, y: d.value(np.hypot(x, y), np.arctan2(y, x))
    assert abs(laplacian_residual(fn, (0.35, 0.35), 1e-3)) <= 1e-6


def test_laplacian_residual_random_points_scaled_bound():
    rng = np.random.default_rng(11)
    f = HalfPlaneField(modes=[(1.0, 1.0, 0.2), (0.4, 2.5, 0.0)])
    step = 1e-3
    for _ in range(100):
        x, y = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
        # local scale of the fourth derivatives: sum |A| w^4 e^(-w x)
        scale = 1.0 * math.exp(-x) + 0.4 * 2.5**4 * math.exp(-2.5 * x)
        assert abs(laplacian_residual(f.value, (x, y), step)) <= 10 * step**2 * scale


def test_laplacian_residual_disk_random_points_scaled_bound():
    rng = np.random.default_rng(14)
    d = DiskField(np.array([0.3, 1.0, 0.0, 0.2]), np.array([0.0, 0.0, 0.5, 0.0]))
    fn = lambda x, y: d.value(np.hypot(x, y), np.arctan2(y, x))
    step = 1e-3
    for _ in range(100):
        r = rng.uniform(0.1, 0.95)
        t = rng.uniform(0.0, 2 * math.pi)
        x, y = r * math.cos(t), r * math.sin(t)
        # fourth derivatives of r^n harmonics scale like n^4 r^(n-4)
        scale = sum(
            (abs(a) + abs(b)) * n**4 * max(r - step, 0.05) ** max(n - 4, 0)
            for n, (a, b) in enumerate(zip(d.cos_coeffs, d.sin_coeffs))
            if n >= 1
        )
        assert abs(laplacian_residual(fn, (x, y), step)) <= 10 * step**2 * max(scale, 1.0)


def test_laplacian_residual_source_terms_are_harmonic():
    f = HalfPlaneField(sources=[(0.3, 1.0), (-1.0, -0.5)])
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0)
        assert abs(laplacian_residual(f.value, (x, y), 1e-4)) <= 1e-4


@pytest.mark.parametrize("depth", [-1e-3, math.inf, math.nan])
def test_source_depth_must_be_finite_and_nonnegative(depth):
    with pytest.raises(ValidationError):
        HalfPlaneField(sources=[(0.0, 1.0, depth)])


def test_source_at_depth_is_the_shifted_kernel_and_bounded_by_its_reach():
    deep = HalfPlaneField(modes=[(0.5, 2.0, 0.0)], sources=[(0.3, -2.0, 0.25), (1.0, 1.0)])
    shallow = HalfPlaneField(sources=[(0.3, -2.0)])
    x, y = np.array([[0.05], [0.1], [1.0]]), np.linspace(-1.0, 1.0, 5)
    rest = HalfPlaneField(modes=[(0.5, 2.0, 0.0)], sources=[(1.0, 1.0)])
    assert np.allclose(deep.value(x, y), shallow.value(x + 0.25, y) + rest.value(x, y), rtol=1e-14, atol=0.0)
    assert np.allclose(deep.deriv_x(x, y), shallow.deriv_x(x + 0.25, y) + rest.deriv_x(x, y), rtol=1e-14, atol=0.0)
    # |q|/(pi (x_min + d)) per source: the boundary source still has none at x = 0
    assert deep.sup_bound(0.5) == pytest.approx(0.5 * math.exp(-1.0) + 2.0 / (0.75 * math.pi) + 1.0 / (0.5 * math.pi))
    assert HalfPlaneField(sources=[(0.3, -2.0, 0.25)]).sup_bound() == pytest.approx(2.0 / (0.25 * math.pi))
    with pytest.raises(CapabilityError):
        deep.sup_bound()


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,value\n0.0,1.0\n0.5,2.0\n1.0,0.5\n")
    tr = BoundaryTrace.from_csv(path)
    assert tr.window == (0.0, 1.0)
    assert tr.values[1] == 2.0
    path2 = tmp_path / "noheader.csv"
    path2.write_text("0.0,1.0\n1.0,2.0\n")
    assert BoundaryTrace.from_csv(path2).abscissae[1] == 1.0
    with pytest.raises(ValidationError):
        BoundaryTrace(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_trace_csv_header_only_on_the_first_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n  t, value\n\n0.0,1.0\n1.0,2.0\n")
    assert BoundaryTrace.from_csv(path).values.tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "text, line",
    [
        ("np.float64(0.0),np.float64(1.0)\nnp.float64(1.0),np.float64(2.0)\n", 1),
        ("t1,u1\n0.0,1.0\n1.0,2.0\n", 1),
        ("t,u\nangle,value\n0.0,1.0\n1.0,2.0\n", 2),
        ("0.0,1.0\n1.0,2.0\n2.0,x\n", 3),
        ("t,u\n0.0,1.0\n\n1.0\n", 4),
        ("0.0,1.0\n1.0,2.0,8\n2.0,3.0\n", 2),
    ],
    ids=["numpy-repr", "digit-in-header", "second-header", "late-text", "one-column", "three-columns"],
)
def test_trace_csv_rejects_a_non_numeric_row_by_line(tmp_path, text, line):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"line {line}\\b"):
        BoundaryTrace.from_csv(path)
