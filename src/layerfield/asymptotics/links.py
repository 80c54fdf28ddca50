"""Boundary-link companion fields and thin-layer approximate solutions.

The Robin companion of a model field integrates it against an
exponential (planar) or power-law (radial) kernel; on modes the link is
a plain rescaling of each coefficient.  The Neumann companion is the
decaying primitive.  The thin-layer approximators assemble those
companions into closed-form substitutes for the image-ladder solutions,
together with the rigorous variation bounds of the leading-order step.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import DivergentLinkError, SolvabilityError, ValidationError
from ..harmonic import DiskField, HalfPlaneField
from ..series import Geometry, LayeredSolution, PlanarLayerConfig, RadialLayerConfig
from .summation import quad, total_variation, ray_total_variation, ray_window


class _QuadratureRobinHalfPlane:
    """Robin companion of a source-bearing field, by direct quadrature."""

    def __init__(self, field: HalfPlaneField, h: float):
        self.field = field
        self.h = h

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(np.broadcast(x, y).shape)
        flat = out.reshape(-1)
        xs = np.broadcast_to(x, out.shape).reshape(-1)
        ys = np.broadcast_to(y, out.shape).reshape(-1)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            flat[i] = quad(
                lambda e: math.exp(self.h * e) * float(self.field.value(xi + e, yi)), 0.0, math.inf
            )
        return out if out.shape else float(out)

    def deriv_x(self, x, y):
        # d/dx of the link obeys  d/dx u3 = -h*u3 - u  exactly
        return -self.h * self.value(x, y) - self.field.value(x, y)

    def ladder(self, x, y, shift, ratio, terms, deriv=False):
        """sum_{j<terms} ratio^j u3(x + j*shift, y), or of d/dx u3, image by image."""
        fn = self.deriv_x if deriv else self.value
        x = np.asarray(x, dtype=float)
        return sum(ratio**j * fn(x + j * shift, y) for j in range(terms))


def robin_link_halfplane(field: HalfPlaneField, h: float):
    """Robin companion u3(x,y) = int_0^inf e^(he) u(x+e, y) de, h < 0.

    Satisfies d/dx u3 + h u3 + u = 0; a mode of frequency w maps to the
    same mode divided by (w - h).
    """
    if not (h < 0 and math.isfinite(h)):
        raise ValidationError("planar Robin link requires h < 0")
    if field.has_sources:
        return _QuadratureRobinHalfPlane(field, h)
    modes = []
    for a, w, p in field.modes:
        if w - h <= 0:
            raise DivergentLinkError(f"link integral diverges for mode frequency {w}")
        modes.append((a / (w - h), w, p))
    return HalfPlaneField(modes=modes)


def neumann_link_halfplane(field: HalfPlaneField) -> HalfPlaneField:
    """Neumann companion u2 with d/dx u2 = u everywhere; decaying modes only."""
    if field.has_sources:
        raise ValidationError("Neumann companion needs a decaying mode representation")
    return HalfPlaneField(modes=[(-a / w, w, p) for a, w, p in field.modes])


def robin_link_disk(field: DiskField, h: float) -> DiskField:
    """Radial Robin companion u3(r,t) = int_0^1 e^(h-1) u(r e, t) de, h > 0.

    Satisfies L0 u3 + h u3 - u = 0; mode n maps to itself over (n + h).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValidationError("radial Robin link requires h > 0")
    a = field.cos_coeffs
    b = field.sin_coeffs
    n = np.arange(a.size, dtype=float)
    if np.any(n + h <= 0):
        raise DivergentLinkError("link integral diverges for some mode")
    return DiskField(a / (n + h), b / np.where(n + h > 0, n + h, 1.0))


def neumann_link_disk(field: DiskField) -> DiskField:
    """Radial Neumann companion u2 with L0 u2 = u; needs mean-zero data."""
    a = field.cos_coeffs
    b = field.sin_coeffs
    if abs(a[0]) > 1e-12 * (field.sup_bound() + 1e-300):
        raise SolvabilityError(
            "Neumann companion needs mean-zero boundary data (zero constant mode)"
        )
    out_a = np.zeros_like(a)
    out_b = np.zeros_like(b)
    for n in range(1, a.size):
        out_a[n] = a[n] / n
        out_b[n] = b[n] / n
    return DiskField(out_a, out_b)


class ApproxResult:
    """Thin-layer approximation plus its pointwise assessment bound."""

    def __init__(self, solution, bound: float | None = None, bound_at: Callable | None = None):
        self.solution, self.bound, self.bound_at = solution, bound, bound_at


def _planar_bound_at(field: HalfPlaneField, rho: float, h: float):
    """Pointwise assessment (1-rho) * V(e^(he) u(x+e, y)) over e >= 0."""

    def bound(x, y):
        profile = lambda e: np.exp(h * np.asarray(e, float)) * field.value(x + np.asarray(e, float), y)
        window = ray_window(lambda e: np.exp(h * np.asarray(e, float)), base=1.0 / max(abs(h), 1e-9))
        return (1.0 - rho) * total_variation(profile, 0.0, window).value

    return bound


def _radial_bound_at(field: DiskField, rho: float, h: float):
    """Pointwise assessment (1-rho) * V(e^h u(r e, theta)) over e in [0, 1]."""

    def bound(r, theta):
        profile = lambda e: np.asarray(e, float) ** h * field.value(r * np.asarray(e, float), theta)
        return (1.0 - rho) * total_variation(profile, 0.0, 1.0).value

    return bound


def halfplane_small_contrast(field: HalfPlaneField, config: PlanarLayerConfig) -> ApproxResult:
    """Low-contrast (k < 1) thin-layer approximation of the coupled half-plane.

    u2 ~ (1 - rho)/(2l) * u3(outer(x),y) and u1 ~ (u3(x,y) - rho*u3(2l-x,y))/(2l),
    where u3 is the Robin companion at h = ln(rho)/(2l).  The returned
    bound is the variation assessment of the leading quadrature step,
    maximised along the interface; bound_at gives it pointwise.
    """
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    rho = config.rho
    h = config.robin_h
    u3 = robin_link_halfplane(field, h)
    sol = LayeredSolution(Geometry.of("halfplane_coupled", config), u3, 1.0 / (2 * config.l), rho)
    bound_at = _planar_bound_at(field, rho, h)
    probes = _planar_probes(field)
    bound = max(bound_at(config.l, y) for y in probes)
    return ApproxResult(solution=sol, bound=bound, bound_at=bound_at)


def halfplane_large_contrast(field: HalfPlaneField, config: PlanarLayerConfig) -> ApproxResult:
    """High-contrast (k > 1) variant via the even/odd ladder split.

    The transfer field is the two-term ladder u3(x,y) - |rho|*u3(x+2l,y),
    weighted by 1/(4l).
    """
    if not (config.k > 1.0):
        raise ValidationError("high-contrast approximation needs k > 1")
    h = config.robin_h  # ln|rho| / (2l) < 0
    u3 = robin_link_halfplane(field, h)
    geometry = Geometry.of("halfplane_coupled", config)
    return ApproxResult(solution=LayeredSolution(geometry, u3, 1.0 / (4 * config.l), config.rho, images=2))


def strip_thin_layer(field: HalfPlaneField, l: float) -> ApproxResult:
    """Thin-strip approximation u ~ (u2(2l-x,y) - u2(x,y)) / (2l)."""
    if l <= 0:
        raise ValidationError("strip width must be > 0")
    u2 = neumann_link_halfplane(field)
    return ApproxResult(solution=LayeredSolution(Geometry("strip", float(l)), u2, -1.0 / (2 * l), 1.0))


def disk_small_contrast(field: DiskField, config: RadialLayerConfig) -> ApproxResult:
    """Low-contrast (k < 1) thin-shell approximation of the coupled disk."""
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    rho = config.rho
    h = config.robin_h
    u3 = robin_link_disk(field, h)
    sol = LayeredSolution(Geometry.of("disk_coupled", config), u3, 1.0 / math.log(1.0 / config.R**2), rho)
    bound_at = _radial_bound_at(field, rho, h)
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    bound = max(bound_at(config.R, t) for t in thetas)
    return ApproxResult(solution=sol, bound=bound, bound_at=bound_at)


def disk_large_contrast(field: DiskField, config: RadialLayerConfig) -> ApproxResult:
    """High-contrast (k > 1) disk variant via the even/odd ladder split.

    The transfer field is the two-term ladder u3(r,t) - |rho|*u3(R^2 r,t),
    weighted by 1/(2 ln(1/R^2)).
    """
    if not (config.k > 1.0):
        raise ValidationError("high-contrast approximation needs k > 1")
    h = config.robin_h  # ln|rho| / (2 ln R) > 0
    u3 = robin_link_disk(field, h)
    c = 1.0 / (2 * math.log(1.0 / config.R**2))
    return ApproxResult(solution=LayeredSolution(Geometry.of("disk_coupled", config), u3, c, config.rho, images=2))


def annulus_thin_layer(field: DiskField, R: float) -> ApproxResult:
    """Thin-annulus approximation u ~ (u2(r,t) - u2(R^2/r,t)) / ln(1/R^2)."""
    if not (0.0 < R < 1.0):
        raise ValidationError("inner radius must lie in (0, 1)")
    u2 = neumann_link_disk(field)
    return ApproxResult(solution=LayeredSolution(Geometry("annulus", float(R)), u2, 1.0 / math.log(1.0 / R**2), 1.0))


def _planar_probes(field: HalfPlaneField):
    w = field.min_frequency
    if w is None:
        return np.linspace(-3.0, 3.0, 17)
    return np.linspace(0.0, 2 * math.pi / w, 17)
