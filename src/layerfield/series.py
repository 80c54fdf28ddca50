"""Image-ladder solutions for the four layered geometries.

A known harmonic field is deformed into the solution of a coupled or
Dirichlet problem by summing weighted copies of itself at shifted,
reflected, or radially scaled arguments.  The ladder weight is the
reflection ratio rho = (1-k)/(1+k); truncation is controlled either by
an explicit term count or by a geometric tail tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, ConvergenceError, ValidationError
from .harmonic import DiskField, HalfPlaneField

#: hard cap on ladder terms when resolving a tail tolerance
MAX_LADDER_TERMS = 100_000


class PlanarLayerConfig:
    """Two-layer half-plane geometry: layer 1 on 0 < x < l, layer 2 beyond.

    k is the flux-coupling ratio at the interface.  When conductivities
    are supplied, k must equal (lambda1/lambda2)*(a2/a1).
    """

    def __init__(self, l: float, k: float, a1: float = 1.0, a2: float = 1.0,
                 lambda1: float | None = None, lambda2: float | None = None):
        for name, v in (("l", l), ("k", k), ("a1", a1), ("a2", a2)):
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive finite number")
        if (lambda1 is None) != (lambda2 is None):
            raise ValidationError("give both conductivities or neither")
        if lambda1 is not None:
            if lambda1 <= 0 or lambda2 <= 0:
                raise ValidationError("conductivities must be > 0")
            implied = (lambda1 / lambda2) * (a2 / a1)
            if abs(k - implied) > 1e-12 * max(1.0, abs(implied)):
                raise ValidationError(f"k={k} inconsistent with conductivities (implied {implied})")
        self.l, self.k, self.a1, self.a2 = l, k, a1, a2
        self.lambda1, self.lambda2 = lambda1, lambda2

    @property
    def rho(self) -> float:
        return (1.0 - self.k) / (1.0 + self.k)

    @property
    def robin_h(self) -> float:
        """Planar Robin parameter h with |rho| = exp(2*h*l); negative."""
        if self.rho == 0.0:
            raise ValidationError("Robin parameter undefined at k=1 (rho=0)")
        return math.log(abs(self.rho)) / (2.0 * self.l)


class RadialLayerConfig:
    """Coupled disk geometry: annulus R < r < 1 (layer 1) over a core r < R."""

    def __init__(self, R: float, k: float):
        if not (0.0 < R < 1.0):
            raise ValidationError("interface radius must lie in (0, 1)")
        if not (math.isfinite(k) and k > 0):
            raise ValidationError("coupling ratio k must be > 0")
        self.R, self.k = R, k

    @property
    def rho(self) -> float:
        return (1.0 - self.k) / (1.0 + self.k)

    @property
    def robin_h(self) -> float:
        """Radial Robin parameter h with |rho| = R^(2h); positive."""
        if self.rho == 0.0:
            raise ValidationError("Robin parameter undefined at k=1 (rho=0)")
        return math.log(abs(self.rho)) / (2.0 * math.log(self.R))


class MaxTerms:
    """Truncate the ladder after a fixed number of terms."""

    def __init__(self, J: int):
        if J < 1:
            raise ValidationError("term count must be >= 1")
        self.J = J


class TailTol:
    """Truncate once the geometric tail bound drops below tol.

    sup_bound bounds sup|u_model| along the image ladder for a field that
    has no bound of its own (one with boundary sources); it is not read
    for any other field.
    """

    def __init__(self, tol: float, sup_bound: float | None = None):
        if not (tol > 0):
            raise ValidationError("tail tolerance must be > 0")
        if sup_bound is not None and not (sup_bound > 0):
            raise ValidationError("sup bound must be > 0")
        self.tol, self.sup_bound = tol, sup_bound


def geometric_tail_terms(rho: float, tol: float, M: float) -> int:
    """Smallest J >= 1 with M*|rho|^J/(1-|rho|) <= tol."""
    r = abs(rho)
    if r >= 1:
        raise ValidationError("geometric ratio must satisfy |rho| < 1")
    if tol <= 0 or M <= 0:
        raise ValidationError("tol and M must be > 0")
    if r == 0:
        return 1

    def bound(j):
        return M * r**j / (1.0 - r)

    if bound(1) > tol:
        # log-space form avoids underflow of tol*(1-r)/M for extreme inputs
        target = math.log(tol) + math.log1p(-r) - math.log(M)
        j = max(1, math.ceil(target / math.log(r)))
    else:
        j = 1
    while j > 1 and bound(j - 1) <= tol:
        j -= 1
    while bound(j) > tol:
        j += 1
    return j


def _resolve_truncation(trunc, ratio: float, M: float | None):
    """Turn a truncation policy into (terms, tail_bound).

    `ratio` is the per-term geometric decay of the ladder term bounds and
    `M` the bound on the first term, both from `_ladder_bounds`; M is None
    when neither the field nor the policy bounds the field.
    """
    if isinstance(trunc, MaxTerms):
        if M is None or ratio >= 1.0:
            return trunc.J, math.inf
        return trunc.J, M * ratio**trunc.J / (1.0 - ratio)
    if isinstance(trunc, TailTol):
        if M == 0.0:
            return 1, 0.0  # identically zero ladder
        if ratio >= 1.0:
            raise CapabilityError(
                "tail control needs a geometrically decaying ladder; use MaxTerms"
            )
        if M is None:
            raise CapabilityError(
                "no automatic sup bound for this field; set TailTol.sup_bound or use MaxTerms"
            )
        j = geometric_tail_terms(ratio, trunc.tol, M)
        if j > MAX_LADDER_TERMS:
            achieved = M * ratio**MAX_LADDER_TERMS / (1.0 - ratio)
            raise ConvergenceError(
                f"tail tolerance {trunc.tol:.3e} needs {j} terms "
                f"(cap {MAX_LADDER_TERMS}, achievable bound {achieved:.3e})",
                achieved=achieved,
                terms=MAX_LADDER_TERMS,
            )
        return j, M * ratio**j / (1.0 - ratio)
    raise ValidationError(f"unknown truncation policy: {trunc!r}")


def _ladder_bounds(geometry: Geometry, field, trunc):
    """Geometric (ratio, M) of the ladder terms of `field` on `geometry`.

    ratio is |rho| times the slowest per-image decay among the field's
    components that do not cancel: on the disk the constant mode cancels
    in F(p) - rho*F(p*) only at rho = 1.  M = (1 + |rho|) sup|u_model|,
    from the field's own bound, or TailTol.sup_bound for a field with
    boundary sources, which has none.
    """
    rho = abs(geometry.rho)
    if geometry.radial:
        factor = field.image_factor(geometry.interface, constant=geometry.rho != 1.0)
    else:
        factor = field.image_factor(geometry.step)
    try:
        sup = field.sup_bound()
    except CapabilityError:
        sup = trunc.sup_bound if isinstance(trunc, TailTol) else None
    return rho * factor, None if sup is None else (1.0 + rho) * sup


class Geometry:
    """Where a problem's layers lie, in its own coordinate p.

    p is x on the plane and r on the disk; the second coordinate (y or
    theta) is never mapped.  Layer 1 is 0 <= x <= l (interface l) or
    R <= r <= 1 (interface R).  The coupled problems (k given) add
    layer 2 beyond the interface, x > l or r < R; the strip and the
    annulus have none.
    """

    def __init__(self, kind: str, interface: float, k: float | None = None,
                 a1: float = 1.0, a2: float = 1.0):
        self.kind, self.interface, self.k, self.a1, self.a2 = kind, interface, k, a1, a2

    @classmethod
    def of(cls, kind: str, config) -> "Geometry":
        """From a layer config, or from l / R for the strip and the annulus."""
        if kind == "halfplane_coupled":
            return cls(kind, config.l, config.k, config.a1, config.a2)
        if kind == "disk_coupled":
            return cls(kind, config.R, config.k)
        return cls(kind, float(config))

    @property
    def radial(self) -> bool:
        return self.kind in ("annulus", "disk_coupled")

    @property
    def coupled(self) -> bool:
        return self.k is not None

    @property
    def rho(self) -> float:
        """Ladder ratio: (1 - k)/(1 + k) when coupled, 1 on the strip and the annulus."""
        return (1.0 - self.k) / (1.0 + self.k) if self.coupled else 1.0

    @property
    def step(self) -> float:
        """Ladder step: the shift 2l on the plane, the scale R^2 on the disk."""
        return self.interface**2 if self.radial else 2.0 * self.interface

    @property
    def stretch(self) -> float:
        """d outer(p)/dp: a1/a2 on the plane, 1 on the disk."""
        return 1.0 if self.radial else self.a1 / self.a2

    def image(self, p):
        """Mirror 2l - x on the plane, Kelvin image R^2/r on the disk."""
        return self.interface**2 / p if self.radial else 2.0 * self.interface - p

    def outer(self, p):
        """Layer-2 argument: (a1/a2)(x - l) + l on the plane, r on the disk."""
        return p if self.radial else self.stretch * (p - self.interface) + self.interface

    def in_layer2(self, p):
        """Region test: True where p lies in layer 2."""
        p = np.asarray(p, dtype=float)
        if not self.coupled:
            return np.zeros(p.shape, dtype=bool)
        return p < self.interface if self.radial else p > self.interface


class LayeredSolution:
    """A layered solution built by any route, as one transfer field F.

    F is the `images`-term image ladder of `field` with ratio rho and
    the geometry's step (images=1 is the field itself).  With p* the
    mirror or Kelvin image of p:

        layer 1:  c*[F(p) - rho*F(p*)],   derivative c*[F'(p) + rho*F'(p*)]
        layer 2:  c*(1 - rho)*F(outer(p)), derivative times a1/a2 on the plane

    The derivative is d/dx on the plane and r d/dr on the disk.  The
    strip and the annulus take rho = 1, so they vanish on the interface;
    `log_coeff` adds log_coeff*ln(r/R) in layer 1, the annulus profile of
    a constant boundary mode, which cancels inside F(p) - F(p*).

    `tail_bound` is set for the truncated series only, and `terms` (the
    ladder length) is reported for those alone.
    """

    def __init__(self, geometry: Geometry, field, c: float, rho: float, images: int = 1,
                 tail_bound: float | None = None, log_coeff: float = 0.0):
        self.geometry = geometry
        self.field = field
        self.c = float(c)
        self.rho = float(rho)
        self.images = int(images)
        self.tail_bound = None if tail_bound is None else float(tail_bound)
        self.log_coeff = float(log_coeff)

    @property
    def terms(self):
        return self.images if self.tail_bound is not None else None

    def _transfer(self, p, q, deriv):
        return self.field.ladder(p, q, self.geometry.step, self.rho, self.images, deriv=deriv)

    def u1_value(self, p, q):
        p = np.asarray(p, dtype=float)
        image = self.geometry.image(p)
        out = self.c * (self._transfer(p, q, False) - self.rho * self._transfer(image, q, False))
        if self.log_coeff:
            out = out + self.log_coeff * np.log(p / self.geometry.interface)
        return out

    def u1_deriv(self, p, q):
        p = np.asarray(p, dtype=float)
        image = self.geometry.image(p)
        out = self.c * (self._transfer(p, q, True) + self.rho * self._transfer(image, q, True))
        return out + self.log_coeff if self.log_coeff else out

    def u2_value(self, p, q):
        outer = self.geometry.outer(np.asarray(p, dtype=float))
        return self.c * (1.0 - self.rho) * self._transfer(outer, q, False)

    def u2_deriv(self, p, q):
        outer = self.geometry.outer(np.asarray(p, dtype=float))
        return self.c * (1.0 - self.rho) * self.geometry.stretch * self._transfer(outer, q, True)

    # the strip and the annulus have layer 1 only
    value = u1_value
    deriv = u1_deriv


def series_solution(geometry: Geometry, field, trunc) -> LayeredSolution:
    """The truncated image-ladder solution of `field` on `geometry`.

    On the annulus the ladder cancels the constant mode c pair by pair,
    so it is added back as its exact profile c*ln(r/R)/ln(1/R).
    """
    if geometry.coupled and abs(geometry.rho) >= 1.0:
        raise ValidationError("reflection ratio must satisfy |rho| < 1")
    terms, tail = _resolve_truncation(trunc, *_ladder_bounds(geometry, field, trunc))
    log_coeff = 0.0
    if geometry.kind == "annulus":
        log_coeff = field.constant_coeff / 2.0 / math.log(1.0 / geometry.interface)
    return LayeredSolution(geometry, field, 1.0, geometry.rho, terms, tail, log_coeff)


def halfplane_coupled(field: HalfPlaneField, config: PlanarLayerConfig, trunc) -> LayeredSolution:
    """Deform a half-plane field into the coupled two-layer solution."""
    return series_solution(Geometry.of("halfplane_coupled", config), field, trunc)


def strip_dirichlet(field: HalfPlaneField, l: float, trunc) -> LayeredSolution:
    """Dirichlet strip solution built from an unweighted reflected ladder."""
    if l <= 0:
        raise ValidationError("strip width must be > 0")
    return series_solution(Geometry("strip", float(l)), field, trunc)


def disk_coupled(field: DiskField, config: RadialLayerConfig, trunc) -> LayeredSolution:
    """Deform a disk field into the coupled annulus-over-core solution."""
    return series_solution(Geometry.of("disk_coupled", config), field, trunc)


def annulus_dirichlet(field: DiskField, R: float, trunc) -> LayeredSolution:
    """Dirichlet annulus solution from the unweighted Kelvin ladder."""
    if not (0.0 < R < 1.0):
        raise ValidationError("inner radius must lie in (0, 1)")
    return series_solution(Geometry("annulus", float(R)), field, trunc)


class RegimeReport:
    """Series-vs-asymptotic advice for one geometry."""

    def __init__(self, rho: float, j_needed: int, tol: float, threshold: int, recommendation: str):
        self.rho, self.j_needed, self.tol = rho, j_needed, tol
        self.threshold, self.recommendation = threshold, recommendation


def convergence_diagnostic(config, field, tol: float = 1e-10, threshold: int = 1000) -> RegimeReport:
    """How many ladder terms the series needs at tolerance `tol`, and whether to bother.

    The count uses the (ratio, M) that the coupled series truncates with,
    for the boundary `field` on the layer `config`.  A ladder of modes is
    summed per mode, at the same cost for any count, so the
    recommendation is "asymptotic" only for a field with boundary
    sources, summed image by image, whose count exceeds `threshold`.
    Such a field has no sup bound at the boundary, so it is counted with
    sup 1.
    """
    kind = "halfplane_coupled" if isinstance(config, PlanarLayerConfig) else "disk_coupled"
    ratio, M = _ladder_bounds(Geometry.of(kind, config), field, TailTol(tol, sup_bound=1.0))
    j = 1 if M == 0.0 else geometric_tail_terms(ratio, tol, M)
    per_mode = not (isinstance(field, HalfPlaneField) and field.has_sources)
    rec = "asymptotic" if j > threshold and not per_mode else "series"
    return RegimeReport(rho=config.rho, j_needed=j, tol=tol, threshold=threshold, recommendation=rec)
