"""Boundary-link companion fields and thin-layer approximate solutions.

The Robin companion of a model field integrates it against an
exponential (planar) or power-law (radial) kernel; on modes the link is
a plain rescaling of each coefficient, and a planar boundary source
maps to an exponential integral in closed form.  The Neumann companion
is the decaying primitive.  `thin_layer_solution` assembles the
companion at the geometry's Robin parameter into a closed-form
substitute for the image-ladder solution, with the rigorous variation
bound of the leading-order step where one is known.
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
from .summation import total_variation, ray_total_variation, ray_window

#: Re(zeta) from which e^zeta E1(zeta) is summed by Gauss-Laguerre: e^zeta
#: overflows from Re(zeta) ~ 710, and E1 underflows with it
_LAGUERRE_FROM = 50.0
#: Gauss-Laguerre nodes; 24 match e^zeta E1(zeta) to 3e-15 from Re(zeta) = 10 on
_LAGUERRE_NODES = 24


def _exp_e1(zeta):
    """e^zeta E1(zeta) elementwise, for Re(zeta) >= 0 (DLMF 6.2).

    It is int_0^inf e^-t / (zeta + t) dt: below Re(zeta) = 50 from scipy's
    complex `exp1`, imported here on first use so that mode-only runs
    never load scipy; above it by Gauss-Laguerre on that integral, where
    the plain product would be inf * 0.
    """
    from scipy.special import exp1

    zeta = np.asarray(zeta, dtype=complex)
    out = np.empty(zeta.shape, dtype=complex)
    far = zeta.real >= _LAGUERRE_FROM
    out[~far] = np.exp(zeta[~far]) * exp1(zeta[~far])
    if far.any():
        t, w = np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)
        out[far] = (w / (zeta[far][:, None] + t)).sum(axis=-1)
    return out


class _SourceRobinHalfPlane:
    """Robin companion of a field with boundary sources, in closed form.

    With z = x + i(y - t), a source (q/pi) x/|z|^2 = (q/pi) Re(1/z) has
    the companion (q/pi) Re[e^(-hz) E1(-hz)]; the modes are rescaled as
    on a mode-only field.
    """

    def __init__(self, field: HalfPlaneField, h: float):
        self.field = field
        self.h = h
        self.modes = _planar_link(HalfPlaneField(modes=field.modes), h)

    def value(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.array(self.modes.value(x, y), dtype=float)
        for t, q in self.field.sources:
            out += (q / math.pi) * _exp_e1(-self.h * (x + 1j * (y - t))).real
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

    A field with sources takes the closed-form companion; at h = 0 it
    has none, since its Neumann primitive need not decay.  The Neumann
    companion of a mode field, its decaying primitive, is minus the
    field at h = 0.
    """
    if not field.has_sources:
        return HalfPlaneField(modes=[(a / (w - h), w, p) for a, w, p in field.modes])
    if h == 0.0:
        raise ValidationError("Neumann companion needs a decaying mode representation")
    return _SourceRobinHalfPlane(field, h)


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
    maximised over interface probes (17 over a period of the slowest mode,
    and the ordinate of every boundary source), and its pointwise form
    `bound_at` are known for the coupled problems at rho > 0 only; each
    is computed only when read or called.
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
        # the deviation peaks on the interface across from a boundary source
        probes = np.concatenate([probes, [t for t, _ in field.sources]])
    solution = LayeredSolution(geometry, u3, 1.0 / (images * s), rho, images)
    if not (geometry.coupled and rho > 0):
        return ApproxResult(solution)
    return ApproxResult(solution, bound_at, probes)


# benchmarks/workloads.py reads `.bound` through the next two names; ROADMAP item 5 unpins them
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


def disk_small_contrast(field: DiskField, config: RadialLayerConfig) -> ApproxResult:
    """Low-contrast (k < 1) thin-shell approximation of the coupled disk."""
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    return thin_layer_solution(config, field)
