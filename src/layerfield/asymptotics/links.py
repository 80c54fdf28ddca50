"""Boundary-link companion fields and thin-layer approximate solutions.

The Robin companion of a model field integrates it against an
exponential (planar) or power-law (radial) kernel; on modes the link is
a plain rescaling of each coefficient.  The Neumann companion is the
decaying primitive.  `thin_layer_solution` assembles the companion at
the geometry's Robin parameter into a closed-form substitute for the
image-ladder solution, with the rigorous variation bound of the
leading-order step where one is known.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import SolvabilityError, ValidationError
from ..harmonic import DiskField, HalfPlaneField
from ..series import Geometry, LayeredSolution, PlanarLayerConfig, RadialLayerConfig
# benchmarks/tracer.py times the variation estimators under these names,
# ray_total_variation included, though no route here calls it
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


def _planar_link(field: HalfPlaneField, h: float):
    """The field with mode w divided by (w - h), for h <= 0.

    A field with sources takes the quadrature companion; at h = 0 it has
    none, since its Neumann primitive need not decay.
    """
    if not field.has_sources:
        return HalfPlaneField(modes=[(a / (w - h), w, p) for a, w, p in field.modes])
    if h == 0.0:
        raise ValidationError("Neumann companion needs a decaying mode representation")
    return _QuadratureRobinHalfPlane(field, h)


def robin_link_halfplane(field: HalfPlaneField, h: float):
    """Robin companion u3(x,y) = int_0^inf e^(he) u(x+e, y) de, h < 0.

    Satisfies d/dx u3 + h u3 + u = 0; a mode of frequency w maps to the
    same mode divided by (w - h).
    """
    if not (h < 0 and math.isfinite(h)):
        raise ValidationError("planar Robin link requires h < 0")
    return _planar_link(field, h)


def neumann_link_halfplane(field: HalfPlaneField) -> HalfPlaneField:
    """Neumann companion u2 with d/dx u2 = u everywhere; decaying modes only.

    It is minus the field with mode w divided by w.
    """
    return HalfPlaneField(modes=[(-a, w, p) for a, w, p in _planar_link(field, 0.0).modes])


def _radial_link(field: DiskField, h: float) -> DiskField:
    """The field with mode n divided by (n + h), for h >= 0.

    At h = 0 this is the Neumann companion, which drops the constant
    mode and so needs it to vanish.
    """
    n = np.arange(field.cos_coeffs.size, dtype=float) + h
    if h == 0.0:
        if abs(field.cos_coeffs[0]) > 1e-12 * (field.sup_bound() + 1e-300):
            raise SolvabilityError(
                "Neumann companion needs mean-zero boundary data (zero constant mode)"
            )
        n[0] = math.inf
    return DiskField(field.cos_coeffs / n, field.sin_coeffs / n)


def robin_link_disk(field: DiskField, h: float) -> DiskField:
    """Radial Robin companion u3(r,t) = int_0^1 e^(h-1) u(r e, t) de, h > 0.

    Satisfies L0 u3 + h u3 - u = 0; mode n maps to itself over (n + h).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValidationError("radial Robin link requires h > 0")
    return _radial_link(field, h)


def neumann_link_disk(field: DiskField) -> DiskField:
    """Radial Neumann companion u2 with L0 u2 = u; needs mean-zero data."""
    return _radial_link(field, 0.0)


class ApproxResult:
    """Thin-layer approximation plus its assessment bound, computed when read.

    `bound_at(p, q)` is the pointwise bound and `bound` its maximum over
    the interface points `probes`; both are None where no bound is known.
    """

    def __init__(self, solution, bound_at: Callable | None = None, probes=()):
        self.solution, self.bound_at, self._probes = solution, bound_at, probes

    @cached_property
    def bound(self) -> float | None:
        if self.bound_at is None:
            return None
        return max(self.bound_at(self.solution.geometry.interface, q) for q in self._probes)


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


def thin_layer_solution(geometry: Geometry, field) -> ApproxResult:
    """The leading-order thin-layer solution of `field` on `geometry`.

    One formula serves every problem.  With the ladder step s = 2l on
    the plane and ln(1/R^2) on the disk, and the Robin parameter
    h = `geometry.robin_h` (|rho| = e^(hs) on the plane, e^(-hs) on the
    disk), the transfer field u3 is the field with mode w divided by
    (w - h), or mode n by (n + h).  It enters the `images`-term ladder
    with weight 1/(images*s), where images = 1 for rho > 0 and 2 for
    rho < 0 (the even/odd split of the alternating ladder).  On the strip
    and the annulus rho = 1 and h = 0, so u3 is the Neumann primitive.

    The variation bound, the assessment of the leading quadrature step
    maximised along the interface, and its pointwise form `bound_at` are
    known for the coupled problems at rho > 0 only; each is computed
    only when read or called.
    """
    h = geometry.robin_h
    rho = geometry.rho
    images = 1 if rho > 0 else 2
    if geometry.radial:
        s, u3 = math.log(1.0 / geometry.interface**2), _radial_link(field, h)
        bound_at, probes = _radial_bound_at(field, rho, h), np.linspace(0.0, 2 * math.pi, 17)
    else:
        s, u3 = 2.0 * geometry.interface, _planar_link(field, h)
        w = field.min_frequency
        bound_at = _planar_bound_at(field, rho, h)
        probes = np.linspace(-3.0, 3.0, 17) if w is None else np.linspace(0.0, 2 * math.pi / w, 17)
    solution = LayeredSolution(geometry, u3, 1.0 / (images * s), rho, images)
    if not (geometry.coupled and rho > 0):
        return ApproxResult(solution)
    return ApproxResult(solution, bound_at, probes)


def halfplane_small_contrast(field: HalfPlaneField, config: PlanarLayerConfig) -> ApproxResult:
    """Low-contrast (k < 1) thin-layer approximation of the coupled half-plane.

    u2 ~ (1 - rho)/(2l) * u3(outer(x),y) and u1 ~ (u3(x,y) - rho*u3(2l-x,y))/(2l),
    where u3 is the Robin companion at h = ln(rho)/(2l).  The returned
    bound is the variation assessment of the leading quadrature step,
    maximised along the interface; bound_at gives it pointwise.
    """
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    return thin_layer_solution(config, field)


def halfplane_large_contrast(field: HalfPlaneField, config: PlanarLayerConfig) -> ApproxResult:
    """High-contrast (k > 1) variant via the even/odd ladder split.

    The transfer field is the two-term ladder u3(x,y) - |rho|*u3(x+2l,y),
    weighted by 1/(4l).
    """
    if not (config.k > 1.0):
        raise ValidationError("high-contrast approximation needs k > 1")
    return thin_layer_solution(config, field)


def strip_thin_layer(field: HalfPlaneField, l: float) -> ApproxResult:
    """Thin-strip approximation u ~ (u3(x,y) - u3(2l-x,y)) / (2l), u3 the field with mode w over w."""
    return thin_layer_solution(Geometry("strip", l), field)


def disk_small_contrast(field: DiskField, config: RadialLayerConfig) -> ApproxResult:
    """Low-contrast (k < 1) thin-shell approximation of the coupled disk."""
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    return thin_layer_solution(config, field)


def disk_large_contrast(field: DiskField, config: RadialLayerConfig) -> ApproxResult:
    """High-contrast (k > 1) disk variant via the even/odd ladder split.

    The transfer field is the two-term ladder u3(r,t) - |rho|*u3(R^2 r,t),
    weighted by 1/(2 ln(1/R^2)).
    """
    if not (config.k > 1.0):
        raise ValidationError("high-contrast approximation needs k > 1")
    return thin_layer_solution(config, field)


def annulus_thin_layer(field: DiskField, R: float) -> ApproxResult:
    """Thin-annulus approximation u ~ (u2(r,t) - u2(R^2/r,t)) / ln(1/R^2)."""
    return thin_layer_solution(Geometry("annulus", R), field)
