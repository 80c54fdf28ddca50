"""Closed-form solutions and CSV readers used to gate the CLI's output.

The formulas are written out here from the boundary-value problems, not
imported from the package, so a gate does not pass merely because the
code under test agrees with itself.  Planar modes are (A, omega, phi)
meaning A exp(-omega x) cos(omega y + phi) on the model field; radial
modes are (n, a, b) meaning r^n (a cos n theta + b sin n theta).
"""

from __future__ import annotations

import math

import numpy as np


def rho_of(k):
    return (1.0 - k) / (1.0 + k)


def line(modes, y):
    """Boundary data on x=0 of planar modes."""
    return sum(a * np.cos(w * y + p) for a, w, p in modes)


def circle(modes, t):
    """Boundary data on r=1 of radial modes."""
    return sum(a * np.cos(n * t) + b * np.sin(n * t) for n, a, b in modes)


def strip(modes, l, x, y):
    """u = u0 on x=0, u = 0 on x=l."""
    out = np.zeros(np.broadcast(x, y).shape)
    for a, w, p in modes:
        out += a * np.sinh(w * (l - x)) / math.sinh(w * l) * np.cos(w * y + p)
    return out


def halfplane(modes, l, k, x, y, layer):
    """Coupled half-plane with k u1_x = u2_x on x=l; layer is 1 or 2 per node."""
    rho = rho_of(k)
    out = np.zeros(np.broadcast(x, y).shape)
    for a, w, p in modes:
        amp = a / (1.0 - rho * math.exp(-2.0 * w * l))
        u1 = amp * (np.exp(-w * x) - rho * np.exp(-w * (2.0 * l - x)))
        u2 = amp * (1.0 - rho) * np.exp(-w * x)
        out += np.where(layer == 1, u1, u2) * np.cos(w * y + p)
    return out


def annulus(modes, R, r, t):
    """u = u0 on r=1, u = 0 on r=R, for modes n >= 1."""
    out = np.zeros(np.broadcast(r, t).shape)
    for n, a, b in modes:
        radial = (r**n - (R * R / r) ** n) / (1.0 - R ** (2 * n))
        out += radial * (a * np.cos(n * t) + b * np.sin(n * t))
    return out


def disk(modes, R, k, r, t, layer):
    """Coupled disk with k r u1_r = r u2_r on r=R; layer is 1 or 2 per node."""
    rho = rho_of(k)
    out = np.zeros(np.broadcast(r, t).shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, a, b in modes:
            denom = 1.0 - rho * R ** (2 * n)
            u1 = (r**n - rho * (R * R / np.where(r > 0, r, 1.0)) ** n) / denom
            u2 = (1.0 - rho) * r**n / denom
            out += np.where(layer == 1, u1, u2) * (a * np.cos(n * t) + b * np.sin(n * t))
    return out


def solution(problem, modes, geometry, c1, c2, layer):
    """Exact u at nodes (c1, c2) of the given problem."""
    if problem == "strip":
        return strip(modes, geometry["l"], c1, c2)
    if problem == "halfplane_coupled":
        return halfplane(modes, geometry["l"], geometry["k"], c1, c2, layer)
    if problem == "annulus":
        return annulus(modes, geometry["R"], c1, c2)
    return disk(modes, geometry["R"], geometry["k"], c1, c2, layer)


def read_grid_csv(path):
    """(header, c1, c2, region, u) of a `solve` output."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data[:, 0], data[:, 1], data[:, 2], data[:, 3]


def read_compare_csv(path):
    """Column name -> values of a `compare --out` table."""
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def layer_of(problem, geometry, c1):
    """Region code the CLI should write: 2 in the outer medium or the core."""
    if problem == "halfplane_coupled":
        return np.where(c1 <= geometry["l"], 1, 2)
    if problem == "disk_coupled":
        return np.where(c1 < geometry["R"], 2, 1)
    return np.ones(c1.shape, dtype=int)
