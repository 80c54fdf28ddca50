"""Property test: each closed-form oracle derivative is the derivative of its own value.

On all four problems the oracles' derivatives (d/dx on the plane, r d/dr
on the disk) must match a central difference of the oracle's value with
step 1e-6.  Over the drawn modes and geometries that difference errs by
about 1e-10 of the field's scale from rounding and by less from
truncation, so the test allows 1e-6 * (1 + max|u| + max|derivative|).
A sign or factor slip in any one profile moves the derivative by a
multiple of its own size and fails it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import Geometry, PlanarLayerConfig, RadialLayerConfig, mode_exact

PROPERTY = settings(max_examples=60, deadline=None)
STEP = 1e-6

unit = st.floats(-1.0, 1.0)
planar_modes = st.lists(
    st.tuples(unit, st.floats(0.2, 5.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=3
)
radial_modes = st.lists(st.tuples(st.integers(1, 8), unit, unit), min_size=1, max_size=3)
# the annulus also takes the constant mode n = 0, with its log profile
annulus_modes = st.lists(st.tuples(st.integers(0, 8), unit, unit), min_size=1, max_size=3)
widths = st.floats(0.05, 2.0)
radii = st.floats(0.3, 0.95)
# k on both sides of 1 (rho of either sign), and k = 1 itself (rho = 0)
contrasts = st.one_of(st.floats(1.05, 20.0), st.floats(0.05, 0.95), st.just(1.0))
anisotropies = st.floats(0.5, 4.0)

PLANE_Y = np.linspace(-2.0, 2.0, 5)
DISK_THETA = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
INSIDE = np.linspace(0.05, 0.95, 5)[:, None]


def assert_derivative(value, deriv, p, q, radial):
    d = deriv(p, q)
    central = (value(p + STEP, q) - value(p - STEP, q)) / (2.0 * STEP)
    if radial:
        central = p * central
    scale = 1.0 + np.max(np.abs(value(p, q))) + np.max(np.abs(d))
    assert np.max(np.abs(d - central)) <= 1e-6 * scale


@PROPERTY
@given(modes=planar_modes, l=widths, k=contrasts, a2=anisotropies)
def test_planar_oracle_derivatives(modes, l, k, a2):
    strip = mode_exact(Geometry("strip", l), modes)
    assert_derivative(strip.value, strip.deriv, l * INSIDE, PLANE_Y, radial=False)

    exact = mode_exact(PlanarLayerConfig(l=l, k=k, a2=a2), modes)
    assert_derivative(exact.u1_value, exact.u1_deriv, l * INSIDE, PLANE_Y, radial=False)
    assert_derivative(exact.u2_value, exact.u2_deriv, l + 2.0 * INSIDE, PLANE_Y, radial=False)


@PROPERTY
@given(modes=radial_modes, annulus_data=annulus_modes, R=radii, k=contrasts)
def test_radial_oracle_derivatives(modes, annulus_data, R, k):
    layer1 = R + (1.0 - R) * INSIDE
    annulus = mode_exact(Geometry("annulus", R), annulus_data)
    assert_derivative(annulus.value, annulus.deriv, layer1, DISK_THETA, radial=True)

    exact = mode_exact(RadialLayerConfig(R=R, k=k), modes)
    assert_derivative(exact.u1_value, exact.u1_deriv, layer1, DISK_THETA, radial=True)
    assert_derivative(exact.u2_value, exact.u2_deriv, R * INSIDE, DISK_THETA, radial=True)
