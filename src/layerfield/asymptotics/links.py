"""Boundary-link companion fields and thin-layer approximate solutions.

The Robin companion of a model field integrates it against an
exponential kernel; on modes the link is a plain rescaling of each
coefficient, and a boundary source maps to an exponential integral in
closed form, evaluated in numpy alone (`_exp_e1`), so no route needs
scipy.  The Neumann companion is the decaying primitive.
`thin_layer_solution` builds the companion at the Robin parameter of a
short ladder of the field on the geometry's half-plane twin, a
closed-form substitute for the image-ladder solution, with a
closed-form bound on its layer-2 deviation where one is known.
"""

from __future__ import annotations

import math

import numpy as np

from .. import _lazy_exports
from ..errors import ValidationError
from ..harmonic import DiskField, HalfPlaneField
from ..series import Geometry, LayeredSolution, PlanarLayerConfig, RadialLayerConfig, _twin_problem

# benchmarks/tracer.py times the variation estimators under these names,
# though no route calls any of them; they resolve on first use (PEP 562),
# so the asymptotic route does not load the summation engine.  ROADMAP
# item 5 unpins them
__getattr__ = _lazy_exports(globals(), dict.fromkeys(["total_variation", "ray_total_variation", "ray_window"],
                                                     ".summation"))[0]

#: terms of the power series, read for |zeta| < 3: the last adds below 3e-22
_SERIES_TERMS = 32
#: depth from which the continued fraction is evaluated backward, read for |zeta| >= 3
_FRACTION_DEPTH = 60


def _exp_e1(zeta):
    """e^zeta E1(zeta) elementwise, for Re(zeta) >= 0, in numpy alone.

    For |zeta| < 3 it is e^zeta times the power series
    E1(zeta) = -gamma - ln(zeta) - sum_k (-zeta)^k / (k k!) (DLMF 6.6.2);
    for |zeta| >= 3 the even continued fraction
    e^zeta E1(zeta) = 1/(zeta + 1 - 1^2/(zeta + 3 - 2^2/(zeta + 5 - ...)))
    (DLMF 6.9), evaluated backward from a fixed depth, which never forms
    e^zeta and so holds at any Re(zeta).  Over |zeta| in [1e-8, 316] both
    lie within 1e-13 relative of 30-digit references (tests/test_links.py).
    zeta = 0 gives an infinite real part.
    """
    zeta = np.asarray(zeta, dtype=complex)
    out = np.empty(zeta.shape, dtype=complex)
    near = np.abs(zeta) < 3.0
    z = zeta[near]
    term, total = np.ones_like(z), np.zeros_like(z)
    for k in range(1, _SERIES_TERMS + 1):
        term = term * -z / k
        total += term / k
    with np.errstate(divide="ignore", invalid="ignore"):
        out[near] = np.exp(z) * (-np.euler_gamma - np.log(z) - total)
    z = zeta[~near]
    tail = np.zeros_like(z)
    for k in range(_FRACTION_DEPTH, 0, -1):
        tail = k * k / (z + (2 * k + 1) - tail)
    out[~near] = 1.0 / (z + 1.0 - tail)
    return out


class _SourceRobinHalfPlane:
    """Robin companion of a field with boundary sources, in closed form.

    With z = x + d + i(y - t), a source (q/pi) (x + d)/|z|^2 =
    (q/pi) Re(1/z) at depth d has the companion (q/pi) Re[e^(-hz) E1(-hz)];
    the modes are rescaled as on a mode-only field.
    """

    def __init__(self, field: HalfPlaneField, h: float):
        self.field = field
        self.h = h
        self.modes = _planar_link(HalfPlaneField(modes=field.modes), h)

    def value(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.array(self.modes.value(x, y), dtype=float)
        for t, q, d in self.field.sources:
            out += (q / math.pi) * _exp_e1(-self.h * (x + d + 1j * (y - t))).real
        return out if out.shape else float(out)

    def deriv_x(self, x, y):
        # d/dx of the link obeys  d/dx u3 = -h*u3 - u  exactly
        return -self.h * self.value(x, y) - self.field.value(x, y)


def _planar_link(field: HalfPlaneField, h: float):
    """The field with mode w divided by (w - h), for h <= 0, and h < 0 for a constant mode (w = 0).

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


def thin_layer_solution(geometry: Geometry, field) -> LayeredSolution:
    """The leading-order thin-layer solution of `field` on `geometry`.

    One formula serves every problem, on its half-plane twin (see
    `Geometry`).  With the ladder step s = 2l and the Robin parameter
    h = ln|rho|/s of the twin, the transfer field is the Robin companion
    of the field's ladder of N images with ratio rho and weight 1/(N*s),
    where N = 1 for rho > 0 and 2 for rho < 0 (the even/odd split of the
    alternating ladder).  The companion divides mode w by (w - h), which
    is mode n by (n + h) with the disk's own h = -h, and it commutes with
    the ladder, so the ladder is built first.  On the strip and the
    annulus rho = 1 and h = 0, so the companion is the Neumann
    primitive; the constant mode enters apart, exactly (`_twin_problem`).

    At rho > 0 on the coupled problems the layer-2 deviation from the
    series is (1 - rho)|sum_j f(js) - (1/s) int f|, which is at most
    (1 - rho) V(f), the total variation of the profile
    f(e) = e^(he) u(X + e, y) on e >= 0 with X = outer(x) (DLMF 2.10).
    The variation of a sum is at most the sum of its terms' variations,
    and each term has one in closed form that holds for every y:
      - a mode's profile is monotone, so its variation is its end value,
        at most |A| e^(-wX), which is r^n hypot(a_n, b_n) on the disk
        and |a_0|/2 for its constant mode;
      - a source's at depth d, (|q|/pi) e^(he) u/(u^2 + c^2) with
        u = Y + e and Y = X + d, has the log-slope
        h + (c^2 - u^2)/(u(u^2 + c^2)), which changes sign once; its
        variation is f(0) <= 1/Y per unit |q|/pi when |c| <= Y, and at
        most 1/|c| - Y/(Y^2 + c^2) < 1/Y otherwise.
    That sum is `HalfPlaneField.sup_bound(X)`.  The solution's
    `bound_at(p)` is (1 - rho) times it, plus a projected field's
    `dropped_mass`, as the series' tail bound adds; `bound` is its value
    at the interface, the largest over layer 2.  On the strip, the
    annulus and at rho < 0 both are None.
    """
    twin, view, constant = _twin_problem(geometry, field)
    h, rho, s = twin.robin_h, twin.rho, twin.step
    images = 1 if rho > 0 else 2
    transfer = _planar_link(view.ladder(s, rho, images, 1.0 / (images * s)), h)
    dropped = getattr(field, "dropped_mass", 0.0)
    bound_at = lambda p: (1.0 - rho) * view.sup_bound(twin.outer(geometry.to_twin(p))) + dropped
    return LayeredSolution(geometry, transfer, rho, constant=constant,
                           bound_at=bound_at if twin.coupled and rho > 0 else None)


# benchmarks/workloads.py reads `.bound` through the next two names; ROADMAP item 5 unpins them
def halfplane_small_contrast(field: HalfPlaneField, config: PlanarLayerConfig) -> LayeredSolution:
    """Low-contrast (k < 1) thin-layer approximation of the coupled half-plane.

    u2 ~ (1 - rho)/(2l) * u3(outer(x),y) and u1 ~ (u3(x,y) - rho*u3(2l-x,y))/(2l),
    where u3 is the Robin companion at h = ln(rho)/(2l).  bound_at(x)
    bounds |u2 - series| at every y, in closed form; bound is its value
    at x = l (see `thin_layer_solution`).
    """
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    return thin_layer_solution(config, field)


def disk_small_contrast(field: DiskField, config: RadialLayerConfig) -> LayeredSolution:
    """Low-contrast (k < 1) thin-shell approximation of the coupled disk."""
    if not (0.0 < config.k < 1.0):
        raise ValidationError("low-contrast approximation needs 0 < k < 1")
    return thin_layer_solution(config, field)
