import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from layerfield import (
    DiskField,
    Geometry,
    HalfPlaneField,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    ValidationError,
    mode_exact,
    series_solution,
)
from layerfield.asymptotics import disk_small_contrast, halfplane_small_contrast, thin_layer_solution
from layerfield.asymptotics import links
from layerfield.asymptotics.links import _planar_link

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


#: (zeta, e^zeta E1(zeta)), the second from 30-digit mpmath, rounded to a
#: complex: |zeta| from 1e-8 to 316 across Re(zeta) >= 0, on and a hair
#: either side of |zeta| = 3, where the series hands over to the continued
#: fraction, and at Re(zeta) >= 50, where e^zeta alone would overflow
EXP_E1 = [
    ((7.073720166770291e-10-9.974949866040544e-09j), (17.843465107342595+1.4999998130984384j)),
    ((7.648421872844885e-09-6.442176872376911e-09j), (17.843465227683126+0.6999998839609594j)),
    ((1e-08+0j), (17.843465267485485+0j)),
    ((7.648421872844885e-09+6.442176872376911e-09j), (17.843465227683126-0.6999998839609594j)),
    ((6.123233995736766e-25+1e-08j), (17.843465094758795-1.5707961383602458j)),
    ((7.073720166770291e-06-9.974949866040544e-05j), (8.633342424250351+1.499049696646962j)),
    ((7.648421872844885e-05-6.44217687237691e-05j), (8.633906596389677+0.6994329066860386j)),
    ((0.0001+0j), (8.634088070212725+0j)),
    ((7.648421872844885e-05+6.44217687237691e-05j), (8.633906596389677-0.6994329066860386j)),
    ((6.123233995736766e-21+0.0001j), (8.633281736041445-1.569833006471952j)),
    ((0.0007073720166770291-0.009974949866040545j), (4.04621008450899+1.4507951126009189j)),
    ((0.007648421872844885-0.00644217687237691j), (4.071001036730681+0.6726955924870556j)),
    ((0.01+0j), (4.078511443456426+0j)),
    ((0.007648421872844885+0.00644217687237691j), (4.071001036730681-0.6726955924870556j)),
    ((6.123233995736766e-19+0.01j), (4.043385827376735-1.5204392192982372j)),
    ((0.021221160500310872-0.29924849598121633j), (1.0167822792272654+0.9747899830349314j)),
    ((0.22945265618534655-0.1932653061713073j), (1.1789001018620229+0.4455981254655697j)),
    ((0.3+0j), (1.2225356050805856+0j)),
    ((0.22945265618534655+0.1932653061713073j), (1.1789001018620229-0.4455981254655697j)),
    ((1.8369701987210297e-17+0.3j), (0.99616666902224-1.0236235234606321j)),
    ((0.0707372016677029-0.9974949866040544j), (0.36699884578588365+0.594563273565439j)),
    ((0.7648421872844885-0.644217687237691j), (0.5485792921231756+0.2814986568943701j)),
    ((1+0j), (0.5963473623231941+0j)),
    ((0.7648421872844885+0.644217687237691j), (0.5485792921231756-0.2814986568943701j)),
    ((6.123233995736766e-17+1j), (0.3433779615564271-0.6214496242358133j)),
    ((0.17684300416925727-2.493737466510136j), (0.12276731095146318+0.3261265271025351j)),
    ((1.9121054682112213-1.6105442180942275j), (0.2650913910840126+0.16547552724262365j)),
    ((2.5+0j), (0.3035258364859841+0j)),
    ((1.9121054682112213+1.6105442180942275j), (0.2650913910840126-0.16547552724262365j)),
    ((1.5308084989341916e-16+2.5j), (0.1047069479513842-0.3375025813659948j)),
    ((0.7073720166770291-9.974949866040545j), (0.016119551611324397+0.09669811112322818j)),
    ((7.648421872844885-6.44217687237691j), (0.07417064699975572+0.05606746175525496j)),
    ((10+0j), (0.09156333393978808+0j)),
    ((7.648421872844885+6.44217687237691j), (0.07417064699975572-0.05606746175525496j)),
    ((6.123233995736766e-16+10j), (0.009488539016354814-0.09819103501017017j)),
    ((2.8294880667081164-39.89979946416218j), (0.0023784428921949973+0.02481948613769779j)),
    ((30.59368749137954-25.76870748950764j), (0.01900105234466613+0.01551566573824047j)),
    ((40+0j), (0.024404115079628575+0j)),
    ((30.59368749137954+25.76870748950764j), (0.01900105234466613-0.01551566573824047j)),
    ((2.4492935982947065e-15+40j), (0.00062268481026556-0.02496898012626847j)),
    ((22.352955726994118-315.2084157668812j), (0.00023375216966600859+0.0031551546863155255j)),
    ((241.69013118189835-203.57278916711036j), (0.00241865310766538+0.0020288493671160065j)),
    ((316+0j), (0.003154605329436161+0j)),
    ((241.69013118189835+203.57278916711036j), (0.00241865310766538-0.0020288493671160065j)),
    ((1.9349419426528182e-14+316j), (1.0013819154632676e-05-0.003164493587229976j)),
    ((1.836970198721028e-16-2.999999999999997j), (0.07922152116436419+0.291957710692079j)),
    ((1.8369701987210297e-16-3j), (0.07922152116436405+0.29195771069207876j)),
    ((1.836970198721032e-16-3.0000000000000036j), (0.07922152116436391+0.2919577106920785j)),
    ((2.090120128041494-2.1520682726985663j), (0.21540851910922457+0.16563924107599726j)),
    ((2.0901201280414963-2.1520682726985685j), (0.21540851910922437+0.16563924107599712j)),
    ((2.0901201280414985-2.1520682726985707j), (0.21540851910922418+0.165639241075997j)),
    ((2.999999999999997+0j), (0.2620837402553187+0j)),
    ((3+0j), (0.2620837402553185+0j)),
    ((3.0000000000000036+0j), (0.2620837402553182+0j)),
    ((2.9850124958340745+0.29950024994048413j), (0.2613586486607606-0.021364669432677796j)),
    ((2.9850124958340776+0.29950024994048446j), (0.26135864866076036-0.021364669432677782j)),
    ((2.985012495834081+0.2995002499404848j), (0.26135864866076014-0.021364669432677764j)),
    ((2.090120128041494+2.1520682726985663j), (0.21540851910922457-0.16563924107599726j)),
    ((2.0901201280414963+2.1520682726985685j), (0.21540851910922437-0.16563924107599712j)),
    ((2.0901201280414985+2.1520682726985707j), (0.21540851910922418-0.165639241075997j)),
    ((0.2122116050031085+2.99248495981216j), (0.09564020935371963-0.2828408581296714j)),
    ((0.2122116050031087+2.9924849598121632j), (0.09564020935371949-0.2828408581296712j)),
    ((0.21221160500310898+2.992484959812167j), (0.09564020935371934-0.2828408581296709j)),
    ((2.99+0.29j), (0.26111942140111516-0.020638795029937748j)),
    ((50+0j), (0.01961510993011487+0j)),
    ((50+250j), (0.000783363606854421-0.0038401375700837606j)),
    ((75-30j), (0.01138484433332586+0.004495322647499882j)),
    ((300+100j), (0.0029920358317528472-0.0009940514314734216j)),
    ((1000+0j), (0.0009990019940238808+0j)),
    ((50000+5000j), (1.9801592015846928e-05-1.9801196007609658e-06j)),
    ((0.06+59988j), (2.945622570729959e-10-1.6670000656962645e-05j)),
]


def test_exp_e1_matches_frozen_references():
    zeta, ref = (np.array(column) for column in zip(*EXP_E1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = links._exp_e1(zeta)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
    assert links._exp_e1(np.array([0j])).real[0] == math.inf


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


def _disk_link(field, h):
    """The disk's Robin companion at its h, as the planar one on the twin
    x = ln(1/r) at -h, read back at r: (value, r d/dr = -d/dx)."""
    u3 = _planar_link(field.half_plane(), -h)
    return (lambda r, t: u3.value(-np.log(r), t)), (lambda r, t: -u3.deriv_x(-np.log(r), t))


def test_disk_robin_identity_closed_form():
    h = 1.5
    value, radial_derivative = _disk_link(DISK, h)
    worst = max(abs(radial_derivative(r, t) + h * value(r, t) - DISK.value(r, t)) for r, t in _disk_points())
    assert worst <= 1e-8


def test_disk_robin_identity_fd_derivative():
    h = 0.8
    value = _disk_link(DISK, h)[0]
    step = 1e-5
    worst = 0.0
    for r, t in _disk_points(100, seed=5):
        l0 = r * (value(r + step, t) - value(r - step, t)) / (2 * step)
        worst = max(worst, abs(l0 + h * value(r, t) - DISK.value(r, t)))
    assert worst <= 1e-6


def test_disk_robin_mode_rescaling():
    value = _disk_link(DiskField.single_mode(2), 1.0)[0]
    assert value(0.5, 0.0) == pytest.approx(0.25 / 3.0)


def test_disk_neumann_identity():
    radial_derivative = _disk_link(DISK, 0.0)[1]
    worst = max(abs(radial_derivative(r, t) - DISK.value(r, t)) for r, t in _disk_points())
    assert worst <= 1e-10
    value = _disk_link(DiskField.single_mode(1), 0.0)[0]
    assert value(0.6, 0.9) == pytest.approx(DiskField.single_mode(1).value(0.6, 0.9))


def test_zero_fields_map_to_zero():
    zero_p = HalfPlaneField(modes=[(0.0, 1.0, 0.0)])
    assert _planar_link(zero_p, -1.0).value(0.5, 0.5) == 0.0
    assert _planar_link(zero_p, 0.0).value(0.5, 0.5) == 0.0
    zero_d = DiskField.single_mode(1, cos_amp=0.0)
    assert _disk_link(zero_d, 1.0)[0](0.5, 0.5) == 0.0
    assert _disk_link(zero_d, 0.0)[0](0.5, 0.5) == 0.0


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
        dev = abs(float(approx.u2_value(x, y)) - float(series.u2_value(x, y)))
        assert dev <= approx.bound_at(x) * (1 + 1e-6) + 1e-14
    assert approx.bound > 0


def test_halfplane_small_contrast_layer2_follows_anisotropic_stretch():
    # layer 2 is evaluated at the stretched argument (x - l)/a2 + l, as
    # in the series; without it the deviation is 0.17, four times the bound
    cfg = PlanarLayerConfig(l=0.01, k=0.02, a2=2.0)
    approx = halfplane_small_contrast(MODE, cfg)
    series = series_solution(cfg, MODE, TailTol(1e-12))
    xs = cfg.l + np.linspace(0.0, 1.5, 31)[:, None]
    ys = np.linspace(-2.0, 2.0, 21)
    dev = np.max(np.abs(approx.u2_value(xs, ys) - series.u2_value(xs, ys)))
    assert dev <= approx.bound


def test_halfplane_bound_at_is_taken_at_the_stretched_argument():
    # at a2 = 4 layer 2 decays four times slower in x: at x = 2 the
    # deviation is 0.0119, and the bound at x rather than outer(x) read 0.0053
    cfg = PlanarLayerConfig(l=0.01, k=0.02, a2=4.0)
    approx = halfplane_small_contrast(MODE, cfg)
    series = series_solution(cfg, MODE, TailTol(1e-12))
    ys = np.linspace(-math.pi, math.pi, 41)
    dev = np.max(np.abs(approx.u2_value(2.0, ys) - series.u2_value(2.0, ys)))
    assert dev > 0.011
    assert dev <= approx.bound_at(2.0)


def test_halfplane_bound_covers_the_interface_across_from_sources():
    # the deviation peaks at the source ordinates (0.842 at y = 0.2), which
    # a bound probing one mode period alone misses (it read 0.296)
    field = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.2, 1.0), (-0.5, 1.0)])
    cfg = PlanarLayerConfig(l=0.05, k=0.1)
    approx = thin_layer_solution(cfg, field)
    series = series_solution(cfg, field, TailTol(1e-10, sup_bound=100))
    ys = np.linspace(-1.0, 1.0, 401)
    xs = np.full_like(ys, cfg.l)
    dev = np.max(np.abs(approx.value(xs, ys) - series.value(xs, ys)))
    assert dev > 0.8
    assert approx.bound >= dev


@pytest.mark.parametrize("k", [3.0, 20.0])
def test_sourced_thin_layer_at_large_contrast_is_the_two_image_link(k):
    # rho < 0: F = (u3(x) + rho u3(x + 2l))/(4l) with u3 the Robin companion,
    # reflected as F(x) - rho F(2l - x) in layer 1 and (1 - rho) F(outer(x)) in layer 2
    cfg = PlanarLayerConfig(l=0.05, k=k, a2=2.0)
    rho, s = cfg.rho, 2.0 * cfg.l
    assert rho < 0
    u3 = _planar_link(SOURCED, cfg.robin_h)
    F = lambda x, y: (u3.value(x, y) + rho * u3.value(x + s, y)) / (2.0 * s)
    dF = lambda x, y: (u3.deriv_x(x, y) + rho * u3.deriv_x(x + s, y)) / (2.0 * s)
    approx = thin_layer_solution(cfg, SOURCED)
    ys = np.linspace(-1.0, 1.0, 41)
    x1 = np.linspace(0.005, cfg.l, 10)[:, None]
    x2 = np.linspace(cfg.l, 2.0, 10)[:, None]
    outer = cfg.outer(x2)
    pairs = [
        (approx.u1_value(x1, ys), F(x1, ys) - rho * F(2 * cfg.l - x1, ys)),
        (approx.u1_deriv(x1, ys), dF(x1, ys) + rho * dF(2 * cfg.l - x1, ys)),
        (approx.u2_value(x2, ys), (1.0 - rho) * F(outer, ys)),
        (approx.u2_deriv(x2, ys), (1.0 - rho) / cfg.a2 * dF(outer, ys)),
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
            fn_a = approx.u1_value if x <= l else approx.u2_value
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
            fn_a = approx.u1_value if x <= l else approx.u2_value
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
    assert approx.u1_value(0.005, 0.3) == 0.0
    assert approx.u2_value(0.5, 0.3) == 0.0
    assert approx.bound == 0.0


def test_contrast_branch_validation():
    with pytest.raises(ValidationError):
        halfplane_small_contrast(MODE, PlanarLayerConfig(l=0.01, k=2.0))
    with pytest.raises(ValidationError):
        disk_small_contrast(DISK1, RadialLayerConfig(R=0.96, k=2.0))


def test_strip_thin_layer_against_separated_solution():
    l = 0.05
    approx = thin_layer_solution(Geometry("strip", l), MODE)
    exact = mode_exact(Geometry("strip", l), [(1.0, 1.0, 0.0)])
    xs = np.linspace(0.1 * l, 0.9 * l, 15)
    rel = max(
        abs(float(approx.value(x, 0.0)) - float(exact.value(x, 0.0))) / abs(float(exact.value(x, 0.0)))
        for x in xs
    )
    # measured deviation is ~ l (4.84e-2 at l = 0.05); first-order in thickness
    assert rel <= 6e-2
    approx2 = thin_layer_solution(Geometry("strip", l / 2), MODE)
    exact2 = mode_exact(Geometry("strip", l / 2), [(1.0, 1.0, 0.0)])
    rel2 = max(
        abs(float(approx2.value(x, 0.0)) - float(exact2.value(x, 0.0)))
        / abs(float(exact2.value(x, 0.0)))
        for x in np.linspace(0.05 * l, 0.45 * l, 15)
    )
    assert 1.5 <= rel / rel2 <= 2.7


def test_strip_thin_layer_inner_edge_exactly_zero():
    approx = thin_layer_solution(Geometry("strip", 0.05), MODE)
    assert float(approx.value(0.05, 0.3)) == pytest.approx(0.0, abs=1e-15)
    zero = HalfPlaneField(modes=[(0.0, 1.0, 0.0)])
    assert float(thin_layer_solution(Geometry("strip", 0.05), zero).value(0.02, 0.1)) == 0.0


def test_disk_small_contrast_bounded_by_assessment():
    cfg = RadialLayerConfig(R=0.98, k=0.05)
    approx = disk_small_contrast(DISK1, cfg)
    series = series_solution(cfg, DISK1, TailTol(1e-12))
    rng = np.random.default_rng(9)
    for _ in range(50):
        r = rng.uniform(0.1, cfg.R)
        t = rng.uniform(0.0, 2 * math.pi)
        dev = abs(float(approx.u2_value(r, t)) - float(series.u2_value(r, t)))
        assert dev <= approx.bound_at(r) * (1 + 1e-6) + 1e-14


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
            fn_a = approx.u1_value if r >= R else approx.u2_value
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
            fn_a = approx.u1_value if r >= R else approx.u2_value
            fn_s = series.u1_value if r >= R else series.u2_value
            worst = max(worst, float(np.max(np.abs(fn_a(r, ts) - fn_s(r, ts)))))
        errs.append(worst)
    assert errs[1] <= 0.5
    assert 1.5 <= errs[0] / errs[1] <= 2.7


def test_annulus_thin_layer_against_mode_solution():
    R = 0.95
    approx = thin_layer_solution(Geometry("annulus", R), DISK1)
    exact = mode_exact(Geometry("annulus", R), [(1, 1.0, 0.0)])
    rs = np.linspace(R + 0.1 * (1 - R), 1 - 0.1 * (1 - R), 15)
    rel = max(
        abs(float(approx.value(r, 0.0)) - float(exact.value(r, 0.0))) / abs(float(exact.value(r, 0.0)))
        for r in rs
    )
    # measured deviation ~ (1 - R^2)/2 = 4.96e-2 at R = 0.95
    assert rel <= 6e-2
    R2 = 0.975
    approx2 = thin_layer_solution(Geometry("annulus", R2), DISK1)
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
        approx = thin_layer_solution(Geometry("annulus", R), DISK1)
        devs.append(abs(float(approx.value(1.0, 0.0)) - float(DISK1.value(1.0, 0.0))))
    assert devs[0] <= 2 * (1 - 0.95)
    assert 1.5 <= devs[0] / devs[1] <= 2.7


def test_annulus_thin_layer_takes_the_constant_mode_as_its_log_profile():
    # the Neumann companion has no constant mode: it enters as the exact
    # profile c ln(r/R)/ln(1/R), as on the series, and vanishes at r = R
    R, c = 0.95, 0.7
    field = DiskField([2 * c, 1.0, -0.4], [0.0, 0.3, 0.2])
    mean_zero = DiskField([0.0, 1.0, -0.4], [0.0, 0.3, 0.2])
    geometry = Geometry("annulus", R)
    approx, rest = thin_layer_solution(geometry, field), thin_layer_solution(geometry, mean_zero)
    r, t = np.linspace(R, 1.0, 9)[:, None], np.linspace(0.0, 2 * math.pi, 13)
    profile = c * np.log(r / R) / math.log(1.0 / R)
    assert np.max(np.abs(approx.value(r, t) - rest.value(r, t) - profile)) <= 1e-14
    assert np.max(np.abs(approx.deriv(r, t) - rest.deriv(r, t) - c / math.log(1.0 / R))) <= 1e-12
    assert np.all(approx.value(R, t) == 0.0)


# --- the closed-form bound ------------------------------------------------------


def _estimated_bound(approx, field, probes):
    """(1 - rho) times the largest refinement estimate of the variation over the probes.

    The profile is e^(he) u(l + e, y) on the plane and e^h u(Re, theta)
    on the disk, each estimated on a nested grid, so each estimate is at
    most the variation itself.
    """
    geo = approx.geometry
    h, rho, p = geo.robin_h, geo.rho, geo.interface
    if geo.radial:
        tv = lambda q: links.total_variation(lambda e: e**h * field.value(p * e, q), 0.0, 1.0)
    else:
        window = links.ray_window(lambda e: np.exp(h * e), base=1.0 / abs(h))
        tv = lambda q: links.total_variation(lambda e: np.exp(h * e) * field.value(p + e, q), 0.0, window)
    return (1.0 - rho) * max(tv(q) for q in probes)


BOUND_PROPERTY = settings(max_examples=40, deadline=None)
amplitudes = st.floats(-1.0, 1.0)
low_contrasts = st.floats(0.02, 0.9)


@BOUND_PROPERTY
@given(
    modes=st.lists(st.tuples(amplitudes, st.floats(0.5, 3.0), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=3),
    sources=st.lists(st.tuples(st.floats(-2.0, 2.0), amplitudes), max_size=2),
    l=st.floats(0.01, 0.3),
    k=low_contrasts,
    a2=st.floats(0.5, 4.0),
)
def test_halfplane_bound_dominates_deviation_and_estimate(modes, sources, l, k, a2):
    field = HalfPlaneField(modes=modes, sources=sources)
    cfg = PlanarLayerConfig(l=l, k=k, a2=a2)
    approx = thin_layer_solution(cfg, field)
    series = series_solution(cfg, field, TailTol(1e-11, sup_bound=field.sup_bound(l) + 1e-300))
    ys = np.concatenate([np.linspace(-3.0, 3.0, 61), [t for t, _ in sources]])
    for x in l + np.array([0.0, 0.1, 0.5, 2.0]) * a2:
        dev = np.max(np.abs(approx.u2_value(x, ys) - series.u2_value(x, ys)))
        assert dev <= approx.bound_at(x) * (1 + 1e-9) + 2e-11
    w = min(w for _, w, _ in modes)
    probes = np.concatenate([np.linspace(0.0, 2 * math.pi / w, 61), [t for t, _ in sources]])
    assert _estimated_bound(approx, field, probes) <= approx.bound * (1 + 1e-9) + 1e-15


@BOUND_PROPERTY
@given(
    a=st.lists(amplitudes, min_size=1, max_size=7),
    b=st.lists(amplitudes, min_size=7, max_size=7),
    R=st.floats(0.5, 0.98),
    k=low_contrasts,
)
def test_disk_bound_dominates_deviation_and_estimate(a, b, R, k):
    field = DiskField(np.array(a), np.array([0.0] + b[1 : len(a)]))
    cfg = RadialLayerConfig(R=R, k=k)
    approx = thin_layer_solution(cfg, field)
    series = series_solution(cfg, field, TailTol(1e-11))
    ts = np.linspace(0.0, 2 * math.pi, 61)
    for r in R * np.array([0.1, 0.5, 0.9, 1.0]):
        dev = np.max(np.abs(approx.u2_value(r, ts) - series.u2_value(r, ts)))
        assert dev <= approx.bound_at(r) * (1 + 1e-9) + 2e-11
    assert _estimated_bound(approx, field, ts) <= approx.bound * (1 + 1e-9) + 1e-15


def test_bound_needs_no_variation_estimate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the thin-layer bound estimated a variation")

    for name in ("total_variation", "ray_total_variation", "ray_window"):
        monkeypatch.setattr(links, name, refuse)
    plane = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.2, 1.0)])
    assert thin_layer_solution(PlanarLayerConfig(l=0.1, k=0.02), plane).bound > 0
    assert thin_layer_solution(RadialLayerConfig(R=0.99, k=0.05), DISK).bound > 0
