"""Property tests: every route meets its interface conditions.

Whatever route builds it, a layered solution is c[F(p) - rho F(p*)] in
layer 1 and c(1 - rho) F(outer(p)) in layer 2, so value continuity,
k-weighted flux continuity and the zero on the inner boundary of the
strip and the annulus hold by construction, up to rounding.  A sign or
coefficient slip in any one route breaks them.  The routes are built
the way the CLI builds them, from a config.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield.cli import _DEFAULT_TOLS, boundary_field, build_solution, geometry_config, truncation_policy
from layerfield.oracle import residual_report

PROPERTY = settings(max_examples=40, deadline=None)
#: routes meeting both interface conditions; the identity route (the
#: untransformed field, a deliberately wrong candidate) meets value
#: continuity only
ROUTES = ("series", "asymptotic", "oracle")

unit = st.floats(-1.0, 1.0)
planar_modes = st.lists(
    st.fixed_dictionaries({"A": unit, "omega": st.floats(0.2, 5.0), "phi": st.floats(0.0, 2.0 * math.pi)}),
    min_size=1,
    max_size=3,
)
radial_modes = st.lists(
    st.fixed_dictionaries({"n": st.integers(1, 8), "a": unit, "b": unit}), min_size=1, max_size=3
)
widths = st.floats(0.05, 2.0)
radii = st.floats(0.3, 0.95)
# k on both sides of 1: the asymptotic route switches variant there
contrasts = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0))
anisotropies = st.floats(0.5, 4.0)

PLANE_Y = np.linspace(-2.0, 2.0, 9)
DISK_THETA = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)


def build(problem, geometry, modes, method):
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}, "method": method}
    geo = geometry_config(cfg)
    return build_solution(cfg, method, boundary_field(cfg, geo), geo, truncation_policy(cfg))


def sup(modes):
    """Sum of the boundary amplitudes: the scale of every value compared."""
    return sum(abs(m.get("A", 0.0)) + abs(m.get("a", 0.0)) + abs(m.get("b", 0.0)) for m in modes)


def jumps(sol, s, across, k, a2=1.0):
    """Value and flux jumps, the flux as README states it: k u1_x = a2 u2_x."""
    value = np.max(np.abs(sol.u1_value(s, across) - sol.u2_value(s, across)))
    flux = np.max(np.abs(k * sol.u1_deriv(s, across) - a2 * sol.u2_deriv(s, across)))
    return value, flux


@PROPERTY
@given(modes=planar_modes, l=widths, k=contrasts, a2=anisotropies)
def test_halfplane_routes_continuous_across_interface(modes, l, k, a2):
    tol = 1e-12 * (sup(modes) + 1.0)
    stretched = {"l": l, "k": k, "a2": a2}
    for method in ROUTES:
        assert max(jumps(build("halfplane_coupled", stretched, modes, method), l, PLANE_Y, k, a2)) <= tol, method
    identity = build("halfplane_coupled", stretched, modes, "identity")
    assert jumps(identity, l, PLANE_Y, k, a2)[0] <= tol
    for method in ROUTES:
        plain = build("halfplane_coupled", {"l": l, "k": k}, modes, method)
        assert max(jumps(plain, l, PLANE_Y, k)) <= tol, method


@PROPERTY
@given(modes=radial_modes, R=radii, k=contrasts)
def test_disk_routes_continuous_across_interface(modes, R, k):
    tol = 1e-12 * (sup(modes) + 1.0)
    for method in ROUTES:
        sol = build("disk_coupled", {"R": R, "k": k}, modes, method)
        assert max(jumps(sol, R, DISK_THETA, k)) <= tol, method
    identity = build("disk_coupled", {"R": R, "k": k}, modes, "identity")
    assert jumps(identity, R, DISK_THETA, k)[0] <= tol


@PROPERTY
@given(planar=planar_modes, radial=radial_modes, l=widths, R=radii)
def test_dirichlet_routes_vanish_on_inner_boundary(planar, radial, l, R):
    # relative to the amplitudes alone: the asymptotic route takes the
    # Robin ladder at h = 0, whose two images cancel on the inner edge
    for method in ROUTES:
        strip = build("strip", {"l": l}, planar, method)
        assert np.max(np.abs(strip.u1_value(l, PLANE_Y))) <= 1e-12 * sup(planar), method
        annulus = build("annulus", {"R": R}, radial, method)
        assert np.max(np.abs(annulus.u1_value(R, DISK_THETA))) <= 1e-12 * sup(radial), method


verify_planar_modes = st.lists(
    st.fixed_dictionaries({"A": unit, "omega": st.floats(0.5, 2.0), "phi": st.floats(0.0, 2.0 * math.pi)}),
    min_size=1,
    max_size=3,
)
verify_thicknesses = st.floats(0.02, 0.5)


@PROPERTY
@given(modes=verify_planar_modes, l=verify_thicknesses, k=contrasts, a2=anisotropies)
def test_halfplane_routes_pass_verify(modes, l, k, a2):
    # residual_report reads the operators and the flux condition from the
    # geometry; the thin-layer route misses the boundary data by O(l), so
    # it is held to the other three checks
    geometry = {"l": l, "k": k, "a2": a2}
    cfg = {"problem": "halfplane_coupled", "geometry": geometry, "boundary": {"modes": modes}}
    field = boundary_field(cfg, geometry_config(cfg))
    for method, checks in (("series", _DEFAULT_TOLS), ("oracle", _DEFAULT_TOLS),
                           ("asymptotic", ("pde_residual", "value_jump", "flux_jump"))):
        report = residual_report(build("halfplane_coupled", geometry, modes, method), field)
        for name in checks:
            assert getattr(report, name) <= _DEFAULT_TOLS[name], (method, name)


@PROPERTY
@given(
    planar=verify_planar_modes,
    radial=st.lists(
        # the constant mode n = 0 has no sine part
        st.fixed_dictionaries({"n": st.integers(0, 7), "a": unit, "b": unit}).map(
            lambda m: {**m, "b": 0.0} if m["n"] == 0 else m
        ),
        min_size=1,
        max_size=3,
    ),
    l=verify_thicknesses,
    R=st.floats(0.3, 0.97),
    k=contrasts,
    a2=anisotropies,
)
def test_series_and_oracle_pass_the_pde_check(planar, radial, l, R, k, a2):
    # on a correct solution the mean-value ring reads rounding alone, which
    # stays below verify's default pde_residual tolerance
    cases = (
        ("strip", {"l": l}, planar),
        ("halfplane_coupled", {"l": l, "k": k, "a2": a2}, planar),
        ("annulus", {"R": R}, radial),
        ("disk_coupled", {"R": R, "k": k}, radial),
    )
    for problem, geometry, modes in cases:
        cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}}
        field = boundary_field(cfg, geometry_config(cfg))
        for method in ("series", "oracle"):
            report = residual_report(build(problem, geometry, modes, method), field)
            assert report.pde_residual <= _DEFAULT_TOLS["pde_residual"], (problem, method)
