"""The transform FD solvers solve the very systems of a per-node assembly.

The reference solvers below assemble one Python tuple per interior node
and one list entry per nonzero, in the neighbour order i+1, i-1, j+1,
j-1, and solve that sparse system with SuperLU (scipy's `spsolve`).
Every case checks that the FD solver hands `oracle.spsolve` one system
of the reference's unknown count, and that its node values agree with
the reference's within 1e-12 * max|u|: the transform and the Thomas
sweep round differently from the LU factors.  The cases cover even and
odd n_y and n_theta, three or four known neighbours on one node (a 3x3
strip, lateral data), disk interfaces three rings from the centre
(R=0.05) and from the boundary (R=0.99), and coarse radial grids under
many theta modes.
"""

import math
from functools import partial

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from layerfield import oracle
from layerfield.oracle import GridSolution, fd_annulus, fd_disk_coupled, fd_strip
from layerfield.series import Geometry

TWO_PI = 2.0 * math.pi
STRIP, ANNULUS, DISK = (partial(Geometry, kind) for kind in ("strip", "annulus", "disk_coupled"))
#: agreement with the reference, relative to max|u|
RELATIVE_TOL = 1e-12


def _solve_sparse(rows, cols, data, rhs):
    n = rhs.size
    return scipy.sparse.linalg.spsolve(scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n)), rhs)


def reference_strip(boundary_fn, geometry, y_window, n_x, n_y, lateral_fn=None):
    y0, y1 = float(y_window[0]), float(y_window[1])
    x = np.linspace(0.0, geometry.interface, n_x)
    y = np.linspace(y0, y1, n_y)
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    u = np.zeros((n_x, n_y))
    u[0, :] = [float(boundary_fn(yy)) for yy in y]
    if lateral_fn is not None:
        u[:, 0] = [float(lateral_fn(xx, y0)) for xx in x]
        u[:, -1] = [float(lateral_fn(xx, y1)) for xx in x]
        u[0, :] = [float(boundary_fn(yy)) for yy in y]
        u[-1, :] = 0.0
    idx = -np.ones((n_x, n_y), dtype=int)
    interior = [(i, j) for i in range(1, n_x - 1) for j in range(1, n_y - 1)]
    for m, (i, j) in enumerate(interior):
        idx[i, j] = m
    rows, cols, data = [], [], []
    rhs = np.zeros(len(interior))
    cx, cy = 1.0 / dx**2, 1.0 / dy**2
    for m, (i, j) in enumerate(interior):
        rows.append(m)
        cols.append(m)
        data.append(-2.0 * (cx + cy))
        for (ii, jj, c) in ((i + 1, j, cx), (i - 1, j, cx), (i, j + 1, cy), (i, j - 1, cy)):
            if idx[ii, jj] >= 0:
                rows.append(m)
                cols.append(idx[ii, jj])
                data.append(c)
            else:
                rhs[m] -= c * u[ii, jj]
    sol = _solve_sparse(rows, cols, data, rhs)
    for m, (i, j) in enumerate(interior):
        u[i, j] = sol[m]
    return GridSolution(geometry, (x, y), u), rhs.size


def _polar_row(rows, cols, data, rhs, m, i_r, j, idx, known, r, dr, dth, n_theta, centre=False):
    cr = 1.0 / dr**2
    cc = 1.0 / (2.0 * r * dr)
    ct = 1.0 / (r**2 * dth**2)
    rows.append(m)
    cols.append(m)
    data.append(-2.0 * cr - 2.0 * ct)
    for (nbr, c) in (
        ((i_r + 1, j), cr + cc),
        ((i_r - 1, j), cr - cc),
        ((i_r, (j + 1) % n_theta), ct),
        ((i_r, (j - 1) % n_theta), ct),
    ):
        if centre and nbr[0] == 0:
            rows.append(m)
            cols.append(0)
            data.append(c)
        elif idx[nbr] >= 0:
            rows.append(m)
            cols.append(idx[nbr])
            data.append(c)
        else:
            rhs[m] -= c * known[nbr]


def reference_annulus(boundary_fn, geometry, n_r, n_theta):
    r = np.linspace(geometry.interface, 1.0, n_r)
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    dr = r[1] - r[0]
    dth = TWO_PI / n_theta
    u = np.zeros((n_r, n_theta))
    u[-1, :] = [float(boundary_fn(t)) for t in theta]
    idx = -np.ones((n_r, n_theta), dtype=int)
    interior = [(i, j) for i in range(1, n_r - 1) for j in range(n_theta)]
    for m, node in enumerate(interior):
        idx[node] = m
    rows, cols, data = [], [], []
    rhs = np.zeros(len(interior))
    for m, (i, j) in enumerate(interior):
        _polar_row(rows, cols, data, rhs, m, i, j, idx, u, r[i], dr, dth, n_theta)
    sol = _solve_sparse(rows, cols, data, rhs)
    for m, (i, j) in enumerate(interior):
        u[i, j] = sol[m]
    return GridSolution(geometry, (r, theta), u), rhs.size


def reference_disk(boundary_fn, geometry, n_r, n_theta):
    R, k = geometry.interface, geometry.k
    m_in = max(3, round(n_r * R))
    m_out = max(3, n_r - m_in)
    dr_in = R / m_in
    dr_out = (1.0 - R) / m_out
    radii = np.concatenate([np.arange(m_in) * dr_in, R + np.arange(m_out + 1) * dr_out])
    n_rad = radii.size
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    dth = TWO_PI / n_theta
    u = np.zeros((n_rad, n_theta))
    u[-1, :] = [float(boundary_fn(t)) for t in theta]
    idx = -np.ones((n_rad, n_theta), dtype=int)
    count = 1
    for i in range(1, n_rad - 1):
        for j in range(n_theta):
            idx[i, j] = count
            count += 1
    rows, cols, data = [0], [0], [1.0]
    rhs = np.zeros(count)
    for j in range(n_theta):
        rows.append(0)
        cols.append(idx[1, j])
        data.append(-1.0 / n_theta)
    for i in range(1, n_rad - 1):
        dr = dr_in if i <= m_in else dr_out
        for j in range(n_theta):
            m = idx[i, j]
            if i != m_in:
                _polar_row(rows, cols, data, rhs, m, i, j, idx, u, radii[i], dr, dth, n_theta, centre=True)
                continue
            f = k / (2.0 * dr_out)
            b = 1.0 / (2.0 * dr_in)
            for (node, c) in (
                ((i, j), -3.0 * f - 3.0 * b),
                ((i + 1, j), 4.0 * f),
                ((i + 2, j), -1.0 * f),
                ((i - 1, j), 4.0 * b),
                ((i - 2, j), -1.0 * b),
            ):
                if node[0] == n_rad - 1:
                    rhs[m] -= c * u[node]
                else:
                    rows.append(m)
                    cols.append(0 if node[0] == 0 else idx[node])
                    data.append(c)
    sol = _solve_sparse(rows, cols, data, rhs)
    u[0, :] = sol[0]
    for i in range(1, n_rad - 1):
        for j in range(n_theta):
            u[i, j] = sol[idx[i, j]]
    return GridSolution(geometry, (radii, theta), u), rhs.size


def trace(t):
    return np.cos(t) + 0.3 * np.sin(3.0 * t + 0.2) + 1.0 / 7.0


def lateral(x, y):
    return np.exp(-x) * np.cos(2.0 * y) + 0.1 * math.pi


CASES = {
    "strip-3x3": (fd_strip, reference_strip, (trace, STRIP(0.5), (-1.0, 1.0), 3, 3), {}),
    "strip-3x3-lateral": (fd_strip, reference_strip, (trace, STRIP(0.7), (-1.3, 0.9), 3, 3), {"lateral_fn": lateral}),
    "strip-lateral": (fd_strip, reference_strip, (trace, STRIP(0.5), (-2.0, 1.0), 9, 7), {"lateral_fn": lateral}),
    "strip-even-y": (fd_strip, reference_strip, (trace, STRIP(0.3), (-1.0, 2.0), 17, 4), {}),
    "strip-even-y-lateral": (fd_strip, reference_strip, (trace, STRIP(0.5), (-3.0, 3.0), 24, 40), {"lateral_fn": lateral}),
    "strip-odd-y": (fd_strip, reference_strip, (trace, STRIP(1.2), (-2.0, 2.0), 10, 33), {}),
    "annulus-3x8": (fd_annulus, reference_annulus, (trace, ANNULUS(0.6), 3, 8), {}),
    "annulus-odd-theta": (fd_annulus, reference_annulus, (trace, ANNULUS(0.32), 23, 9), {}),
    "annulus-even-theta": (fd_annulus, reference_annulus, (trace, ANNULUS(0.9), 40, 64), {}),
    "annulus-odd-theta-coarse-r": (fd_annulus, reference_annulus, (trace, ANNULUS(0.5), 5, 257), {}),
    "disk-nr8": (fd_disk_coupled, reference_disk, (trace, DISK(0.5, 0.3), 8, 8), {}),
    "disk-R0.32": (fd_disk_coupled, reference_disk, (trace, DISK(0.32, 0.3), 32, 8), {}),
    "disk-R0.99": (fd_disk_coupled, reference_disk, (trace, DISK(0.99, 0.2), 20, 12), {}),
    "disk-R0.05-k4-odd-theta": (fd_disk_coupled, reference_disk, (trace, DISK(0.05, 4.0), 20, 11), {}),
    "disk-odd-theta": (fd_disk_coupled, reference_disk, (trace, DISK(0.7, 2.5), 30, 45), {}),
    "disk-even-theta-coarse-r": (fd_disk_coupled, reference_disk, (trace, DISK(0.5, 0.3), 8, 256), {}),
    "disk-odd-theta-coarse-r": (fd_disk_coupled, reference_disk, (trace, DISK(0.3, 50.0), 8, 511), {}),
}


def _solve_recorded(monkeypatch, solver, args, kwargs):
    """Run one FD solve and return it with the systems it handed to oracle.spsolve."""
    seen = []
    solve = oracle.spsolve

    def recorder(system, rhs):
        seen.append(system)
        return solve(system, rhs)

    monkeypatch.setattr(oracle, "spsolve", recorder)
    gs = solver(*args, **kwargs)
    monkeypatch.setattr(oracle, "spsolve", solve)
    return gs, seen


@pytest.mark.parametrize("case", list(CASES))
def test_vectorised_assembly_matches_per_node_assembly(monkeypatch, case):
    solver, reference, args, kwargs = CASES[case]
    gs, seen = _solve_recorded(monkeypatch, solver, args, kwargs)
    ref, unknowns = reference(*args, **kwargs)
    assert len(seen) == 1
    assert seen[0].shape == (unknowns, unknowns)
    assert 0 < seen[0].nnz
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(gs.values - ref.values)) <= RELATIVE_TOL * scale
    for got, want in zip(gs.axes, ref.axes):
        assert got.tobytes() == want.tobytes()
