"""Property tests: the per-mode ladder sums against image-by-image sums.

The series solutions sum each J-term image ladder in closed form per
mode.  Here the same ladders are written out term by term, and the
series values and exact derivatives must match them to rounding on all
four geometries; the values must also match the J = infinity closed
forms within the reported tail bound.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import (
    DiskField,
    Geometry,
    HalfPlaneField,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    mode_exact,
    series_solution,
)

PROPERTY = settings(max_examples=60, deadline=None)

unit = st.floats(-1.0, 1.0)
planar_modes = st.lists(
    st.tuples(unit, st.floats(0.2, 5.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=3
)
# boundary Poisson sources take the image-by-image path of the ladder
sources = st.lists(st.tuples(st.floats(-2.0, 2.0), unit), max_size=2)
# short ladders, where the truncation shows, are drawn as often as long ones
terms = st.one_of(st.integers(1, 8), st.integers(1, 400))
widths = st.floats(0.05, 2.0)
radii = st.floats(0.3, 0.95)
# k on both sides of 1 (rho of either sign), and k = 1 itself (rho = 0)
contrasts = st.one_of(st.floats(1.05, 20.0), st.floats(0.05, 0.95), st.just(1.0))


def radial_modes(n_min):
    return st.lists(st.tuples(st.integers(n_min, 8), unit, unit), min_size=1, max_size=3)


def disk_field(modes):
    """The disk field of boundary modes (n, a, b), mapped as the CLI maps them.

    n = 0 is the constant boundary value a: coefficient 2a, no sine part.
    """
    a = np.zeros(9)
    b = np.zeros(9)
    for n, ca, sa in modes:
        a[n] += ca if n else 2.0 * ca
        b[n] += sa if n else 0.0
    return DiskField(a, b)


def explicit_ladder(images, J):
    """Sum images(j) over j < J one image at a time.

    Returns the sum and the sum of the images' magnitudes, which bounds
    the ladder and sets the scale of its rounding error.
    """
    total = 0.0
    size = 0.0
    for j in range(J):
        for image in images(j):
            total = total + image
            size = size + np.abs(image)
    return total, size


def assert_matches_ladder(series, ladder):
    total, size = ladder
    assert np.all(np.abs(np.asarray(series) - total) <= 1e-13 * (size + 1.0))


PLANE_Y = np.linspace(-2.0, 2.0, 5)
DISK_THETA = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)


@PROPERTY
@given(modes=planar_modes, srcs=sources, l=widths, J=terms)
def test_strip_matches_explicit_ladder(modes, srcs, l, J):
    u0 = HalfPlaneField(modes, srcs)
    sol = series_solution(Geometry("strip", l), u0, MaxTerms(J))
    x = l * np.linspace(0.1, 1.0, 5)[:, None]  # sources are singular on x = 0
    s = 2.0 * l
    assert_matches_ladder(
        sol.value(x, PLANE_Y),
        explicit_ladder(lambda j: (u0.value(x + s * j, PLANE_Y), -u0.value(s - x + s * j, PLANE_Y)), J),
    )
    assert_matches_ladder(
        sol.deriv(x, PLANE_Y),
        explicit_ladder(lambda j: (u0.deriv_x(x + s * j, PLANE_Y), u0.deriv_x(s - x + s * j, PLANE_Y)), J),
    )


@PROPERTY
@given(modes=planar_modes, srcs=sources, l=widths, k=contrasts, J=terms)
def test_halfplane_matches_explicit_ladder(modes, srcs, l, k, J):
    u0 = HalfPlaneField(modes, srcs)
    cfg = PlanarLayerConfig(l=l, k=k)
    sol = series_solution(cfg, u0, MaxTerms(J))
    rho, s, w0 = cfg.rho, 2.0 * l, 2.0 * k / (k + 1.0)
    x1 = l * np.linspace(0.1, 1.0, 5)[:, None]
    x2 = l + np.linspace(0.0, 2.0, 5)[:, None]
    assert_matches_ladder(
        sol.u1_value(x1, PLANE_Y),
        explicit_ladder(
            lambda j: (
                rho**j * u0.value(x1 + s * j, PLANE_Y),
                -(rho ** (j + 1)) * u0.value(s - x1 + s * j, PLANE_Y),
            ),
            J,
        ),
    )
    assert_matches_ladder(
        sol.u1_deriv(x1, PLANE_Y),
        explicit_ladder(
            lambda j: (
                rho**j * u0.deriv_x(x1 + s * j, PLANE_Y),
                rho ** (j + 1) * u0.deriv_x(s - x1 + s * j, PLANE_Y),
            ),
            J,
        ),
    )
    assert_matches_ladder(
        sol.u2_value(x2, PLANE_Y),
        explicit_ladder(lambda j: (w0 * rho**j * u0.value(x2 + s * j, PLANE_Y),), J),
    )
    assert_matches_ladder(
        sol.u2_deriv(x2, PLANE_Y),
        explicit_ladder(lambda j: (w0 * rho**j * u0.deriv_x(x2 + s * j, PLANE_Y),), J),
    )


@PROPERTY
@given(modes=radial_modes(0), R=radii, J=terms)
def test_annulus_matches_explicit_ladder(modes, R, J):
    u0 = disk_field(modes)
    sol = series_solution(Geometry("annulus", R), u0, MaxTerms(J))
    r = np.linspace(R, 1.0, 5)[:, None]
    R2 = R * R
    # the constant mode c cancels in every ladder pair; the solution adds
    # its profile c ln(r/R)/ln(1/R), whose r d/dr is c/ln(1/R)
    c, log_R = u0.cos_coeffs[0] / 2.0, math.log(1.0 / R)
    total, size = explicit_ladder(
        lambda j: (u0.value(r * R2**j, DISK_THETA), -u0.value(R2 / r * R2**j, DISK_THETA)), J
    )
    profile = c * np.log(r / R) / log_R
    assert_matches_ladder(sol.value(r, DISK_THETA), (total + profile, size + np.abs(profile)))
    total, size = explicit_ladder(
        lambda j: (
            u0.radial_derivative(r * R2**j, DISK_THETA),
            u0.radial_derivative(R2 / r * R2**j, DISK_THETA),
        ),
        J,
    )
    assert_matches_ladder(sol.deriv(r, DISK_THETA), (total + c / log_R, size + abs(c / log_R)))


@PROPERTY
@given(modes=radial_modes(0), R=radii, k=contrasts, J=terms)
def test_disk_matches_explicit_ladder(modes, R, k, J):
    u0 = disk_field(modes)
    cfg = RadialLayerConfig(R=R, k=k)
    sol = series_solution(cfg, u0, MaxTerms(J))
    rho, R2, w0 = cfg.rho, R * R, 2.0 * k / (k + 1.0)
    r1 = np.linspace(R, 1.0, 5)[:, None]
    r2 = np.linspace(0.0, R, 5, endpoint=False)[:, None]
    assert_matches_ladder(
        sol.u1_value(r1, DISK_THETA),
        explicit_ladder(
            lambda j: (
                rho**j * u0.value(r1 * R2**j, DISK_THETA),
                -(rho ** (j + 1)) * u0.value(R2 / r1 * R2**j, DISK_THETA),
            ),
            J,
        ),
    )
    assert_matches_ladder(
        sol.u1_deriv(r1, DISK_THETA),
        explicit_ladder(
            lambda j: (
                rho**j * u0.radial_derivative(r1 * R2**j, DISK_THETA),
                rho ** (j + 1) * u0.radial_derivative(R2 / r1 * R2**j, DISK_THETA),
            ),
            J,
        ),
    )
    assert_matches_ladder(
        sol.u2_value(r2, DISK_THETA),
        explicit_ladder(lambda j: (w0 * rho**j * u0.value(r2 * R2**j, DISK_THETA),), J),
    )
    assert_matches_ladder(
        sol.u2_deriv(r2, DISK_THETA),
        explicit_ladder(lambda j: (w0 * rho**j * u0.radial_derivative(r2 * R2**j, DISK_THETA),), J),
    )


def assert_within_tail(series, exact, tail_bound):
    assert np.max(np.abs(np.asarray(series) - np.asarray(exact))) <= tail_bound + 1e-12


@PROPERTY
@given(modes=planar_modes, l=widths, k=contrasts, J=terms)
def test_planar_series_within_tail_of_closed_form(modes, l, k, J):
    u0 = HalfPlaneField(modes)
    x = l * np.linspace(0.0, 1.0, 5)[:, None]
    strip = series_solution(Geometry("strip", l), u0, MaxTerms(J))
    exact = mode_exact(Geometry("strip", l), modes)
    assert_within_tail(strip.value(x, PLANE_Y), exact.value(x, PLANE_Y), strip.tail_bound)

    cfg = PlanarLayerConfig(l=l, k=k)
    sol = series_solution(cfg, u0, MaxTerms(J))
    exact = mode_exact(cfg, modes)
    x2 = l + np.linspace(0.0, 2.0, 5)[:, None]
    assert_within_tail(sol.u1_value(x, PLANE_Y), exact.u1_value(x, PLANE_Y), sol.tail_bound)
    assert_within_tail(sol.u2_value(x2, PLANE_Y), exact.u2_value(x2, PLANE_Y), sol.tail_bound)


@PROPERTY
@given(modes=radial_modes(0), R=radii, k=contrasts, J=terms)
def test_radial_series_within_tail_of_closed_form(modes, R, k, J):
    u0 = disk_field(modes)
    r1 = np.linspace(R, 1.0, 5)[:, None]
    annulus = series_solution(Geometry("annulus", R), u0, MaxTerms(J))
    exact = mode_exact(Geometry("annulus", R), modes)
    assert_within_tail(annulus.value(r1, DISK_THETA), exact.value(r1, DISK_THETA), annulus.tail_bound)

    cfg = RadialLayerConfig(R=R, k=k)
    sol = series_solution(cfg, u0, MaxTerms(J))
    exact = mode_exact(cfg, modes)
    r2 = np.linspace(0.0, R, 5, endpoint=False)[:, None]
    assert_within_tail(sol.u1_value(r1, DISK_THETA), exact.u1_value(r1, DISK_THETA), sol.tail_bound)
    assert_within_tail(sol.u2_value(r2, DISK_THETA), exact.u2_value(r2, DISK_THETA), sol.tail_bound)
