"""Property test: the FD oracle's error against the closed form falls at O(h^2).

On each FD problem, over drawn modes and geometries, the solve is run on
two grids, the second with every spacing halved, and the max error over
the nodes against `mode_exact` must fall by a factor in RATIO_BAND.
Measured over 60 to 150 random draws per problem at these grids, the factor
lies in [3.9, 4.0] on the strip and the annulus and in [3.4, 4.2] on the
disk, whose interface and centre rows reach 4 more slowly.  On the disk
R is drawn so that m_in = round(n_r R) doubles with n_r; then both ring
spacings, R/m_in and (1-R)/m_out, halve exactly, and they differ from
each other.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layerfield import Geometry, RadialLayerConfig, mode_exact
from layerfield.oracle import fd_annulus, fd_disk_coupled, fd_strip

PROPERTY = settings(max_examples=25, deadline=None)
RATIO_BAND = (3.2, 4.8)

amplitudes = st.floats(0.5, 1.5) | st.floats(-1.5, -0.5)
phases = st.floats(0.0, 2.0 * math.pi)
planar_modes = st.lists(st.tuples(amplitudes, st.floats(0.5, 3.0), phases), min_size=1, max_size=2)
radial_modes = st.lists(
    st.builds(lambda n, a, phi: (n, a * math.cos(phi), a * math.sin(phi)), st.integers(1, 4), amplitudes, phases),
    min_size=1,
    max_size=2,
)


def assert_second_order(errors):
    coarse, fine = errors
    assert RATIO_BAND[0] <= coarse / fine <= RATIO_BAND[1], errors


@PROPERTY
@given(planar_modes, st.floats(0.3, 1.0))
def test_fd_strip_error_falls_at_second_order(modes, l):
    exact = mode_exact(Geometry("strip", l), modes)
    errors = []
    for s in (2, 4):
        # dx = l / (8 s), dy = 1 / (8 s); exact data on every edge
        gs = fd_strip(lambda y: exact.value(0.0, y), l, (-1.0, 1.0), 8 * s + 1, 16 * s + 1,
                      lateral_fn=exact.value)
        x, y = np.meshgrid(*gs.axes, indexing="ij")
        errors.append(np.max(np.abs(gs.values - exact.value(x, y))))
    assert_second_order(errors)


@PROPERTY
@given(radial_modes, st.floats(0.3, 0.8))
def test_fd_annulus_error_falls_at_second_order(modes, R):
    exact = mode_exact(Geometry("annulus", R), modes)
    errors = []
    for s in (2, 4):
        gs = fd_annulus(lambda t: exact.value(1.0, t), R, 8 * s + 1, 32 * s)
        r, t = np.meshgrid(*gs.axes, indexing="ij")
        errors.append(np.max(np.abs(gs.values - exact.value(r, t))))
    assert_second_order(errors)


@PROPERTY
@given(radial_modes, st.floats(0.2, 0.8), st.floats(0.2, 5.0))
def test_fd_disk_coupled_error_falls_at_second_order(modes, R, k):
    assume(round(128 * R) == 2 * round(64 * R))
    cfg = RadialLayerConfig(R=R, k=k)
    exact = mode_exact(cfg, modes)
    errors = []
    for n_r in (64, 128):
        gs = fd_disk_coupled(lambda t: exact.u1_value(1.0, t), cfg, n_r, 2 * n_r)
        radii, theta = gs.axes
        inner = gs.meta["interface_index"]
        want = np.concatenate([exact.u2_value(radii[:inner, None], theta), exact.u1_value(radii[inner:, None], theta)])
        errors.append(np.max(np.abs(gs.values - want)))
    assert_second_order(errors)
