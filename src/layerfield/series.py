"""Image-ladder solutions for the four layered geometries.

A known harmonic field is deformed into the solution of a coupled or
Dirichlet problem by summing weighted copies of itself at shifted,
reflected, or radially scaled arguments.  The ladder weight is the
reflection ratio rho = (1-k)/(1+k); truncation is controlled either by
an explicit term count or by a geometric tail tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConvergenceError, ValidationError
from .harmonic import DiskField, HalfPlaneField, as_point2, as_polar

#: hard cap on ladder terms when resolving a tail tolerance
MAX_LADDER_TERMS = 100_000


@dataclass(frozen=True)
class PlanarLayerConfig:
    """Two-layer half-plane geometry: layer 1 on 0 < x < l, layer 2 beyond.

    k is the flux-coupling ratio at the interface.  When conductivities
    are supplied, k must equal (lambda1/lambda2)*(a2/a1).
    """

    l: float
    k: float
    a1: float = 1.0
    a2: float = 1.0
    lambda1: float | None = None
    lambda2: float | None = None

    def __post_init__(self):
        for name in ("l", "k", "a1", "a2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive finite number")
        if (self.lambda1 is None) != (self.lambda2 is None):
            raise ValidationError("give both conductivities or neither")
        if self.lambda1 is not None:
            if self.lambda1 <= 0 or self.lambda2 <= 0:
                raise ValidationError("conductivities must be > 0")
            implied = (self.lambda1 / self.lambda2) * (self.a2 / self.a1)
            if abs(self.k - implied) > 1e-12 * max(1.0, abs(implied)):
                raise ValidationError(
                    f"k={self.k} inconsistent with conductivities (implied {implied})"
                )

    @property
    def rho(self) -> float:
        return (1.0 - self.k) / (1.0 + self.k)

    @property
    def robin_h(self) -> float:
        """Planar Robin parameter h with |rho| = exp(2*h*l); negative."""
        if self.rho == 0.0:
            raise ValidationError("Robin parameter undefined at k=1 (rho=0)")
        return math.log(abs(self.rho)) / (2.0 * self.l)


@dataclass(frozen=True)
class RadialLayerConfig:
    """Coupled disk geometry: annulus R < r < 1 (layer 1) over a core r < R."""

    R: float
    k: float

    def __post_init__(self):
        if not (0.0 < self.R < 1.0):
            raise ValidationError("interface radius must lie in (0, 1)")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValidationError("coupling ratio k must be > 0")

    @property
    def rho(self) -> float:
        return (1.0 - self.k) / (1.0 + self.k)

    @property
    def robin_h(self) -> float:
        """Radial Robin parameter h with |rho| = R^(2h); positive."""
        if self.rho == 0.0:
            raise ValidationError("Robin parameter undefined at k=1 (rho=0)")
        return math.log(abs(self.rho)) / (2.0 * math.log(self.R))


@dataclass(frozen=True)
class MaxTerms:
    """Truncate the ladder after a fixed number of terms."""

    J: int

    def __post_init__(self):
        if self.J < 1:
            raise ValidationError("term count must be >= 1")


@dataclass(frozen=True)
class TailTol:
    """Truncate once the geometric tail bound drops below tol.

    sup_bound, when given, overrides the automatic bound on sup|u_model|
    along the image ladder (needed e.g. for fields with boundary sources).
    """

    tol: float
    sup_bound: float | None = None

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValidationError("tail tolerance must be > 0")
        if self.sup_bound is not None and not (self.sup_bound > 0):
            raise ValidationError("sup bound must be > 0")


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
    `M` the bound on the first term; M may be None when no automatic
    bound exists (then TailTol needs an explicit sup_bound).
    """
    if isinstance(trunc, MaxTerms):
        if M is None or ratio >= 1.0:
            return trunc.J, math.inf
        return trunc.J, M * ratio**trunc.J / (1.0 - ratio)
    if isinstance(trunc, TailTol):
        if M is not None and M == 0.0:
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


def _planar_ladder_bounds(field: HalfPlaneField, l: float, rho: float, trunc):
    """Geometric (ratio, M) for the planar ladders of one config."""
    sup = None
    if isinstance(trunc, TailTol) and trunc.sup_bound is not None:
        sup = trunc.sup_bound
    else:
        try:
            sup = field.sup_bound(0.0)
        except CapabilityError:
            sup = None
    decay = 1.0
    if not field.has_sources and field.min_frequency is not None:
        decay = math.exp(-2.0 * l * field.min_frequency)
    ratio = abs(rho) * decay
    M = None if sup is None else (1.0 + abs(rho)) * sup
    return ratio, M


class StripSolution:
    """Dirichlet strip field from the reflected image ladder.

    u(x,y) = sum_j [u0(x+2lj, y) - u0(2l-x+2lj, y)] on 0 < x < l, with
    u(0,y) = u0(0,y) by telescoping and u(l,y) = 0 by pairwise
    cancellation.
    """

    kind = "strip"

    def __init__(self, field, l, terms, tail_bound):
        self.field = field
        self.l = float(l)
        self.terms = int(terms)
        self.tail_bound = float(tail_bound)

    def _images(self, x, y, deriv):
        # d/dx of -u0(2l - x + s) is +u0_x, hence the flipped image sign
        s = 2.0 * self.l
        x = np.asarray(x, dtype=float)
        direct = self.field.ladder(x, y, s, 1.0, self.terms, deriv=deriv)
        image = self.field.ladder(s - x, y, s, 1.0, self.terms, deriv=deriv)
        return direct + image if deriv else direct - image

    def value(self, x, y):
        return self._images(x, y, deriv=False)

    def deriv_x(self, x, y):
        return self._images(x, y, deriv=True)

    def classify(self, p) -> str:
        p = as_point2(p)
        return "layer1" if 0.0 <= p.x <= self.l else "outside"

    def eval(self, p) -> float:
        p = as_point2(p)
        if self.classify(p) == "outside":
            raise ValidationError("point lies outside the strip")
        return float(self.value(p.x, p.y))


class PlanarLayeredSolution:
    """Coupled two-layer half-plane field.

    Layer 1 (0 < x < l) sums rho-weighted direct and reflected images;
    layer 2 (x > l) is the transmitted ladder scaled by 2k/(k+1), with
    the a1/a2 argument stretch applied beyond the interface.
    """

    kind = "halfplane_coupled"

    def __init__(self, field, config: PlanarLayerConfig, terms, tail_bound):
        self.field = field
        self.config = config
        self.terms = int(terms)
        self.tail_bound = float(tail_bound)

    def _images_u1(self, x, y, deriv):
        cfg = self.config
        s = 2.0 * cfg.l
        x = np.asarray(x, dtype=float)
        direct = self.field.ladder(x, y, s, cfg.rho, self.terms, deriv=deriv)
        image = self.field.ladder(s - x, y, s, cfg.rho, self.terms, deriv=deriv)
        refl_sign = 1.0 if deriv else -1.0
        return direct + refl_sign * cfg.rho * image

    def u1_value(self, x, y):
        return self._images_u1(x, y, deriv=False)

    def u1_deriv_x(self, x, y):
        return self._images_u1(x, y, deriv=True)

    def _images_u2(self, x, y, deriv):
        cfg = self.config
        stretch = cfg.a1 / cfg.a2
        base = stretch * (np.asarray(x, dtype=float) - cfg.l) + cfg.l
        ladder = self.field.ladder(base, y, 2.0 * cfg.l, cfg.rho, self.terms, deriv=deriv)
        out = 2.0 * cfg.k / (cfg.k + 1.0) * ladder
        return out * stretch if deriv else out

    def u2_value(self, x, y):
        return self._images_u2(x, y, deriv=False)

    def u2_deriv_x(self, x, y):
        return self._images_u2(x, y, deriv=True)

    def classify(self, p) -> str:
        p = as_point2(p)
        if p.x < 0:
            return "outside"
        return "layer1" if p.x <= self.config.l else "layer2"

    def eval(self, p) -> float:
        p = as_point2(p)
        region = self.classify(p)
        if region == "outside":
            raise ValidationError("point lies outside the coupled half-plane")
        fn = self.u1_value if region == "layer1" else self.u2_value
        return float(fn(p.x, p.y))


class DiskLayeredSolution:
    """Coupled disk field: annular layer over a core, Kelvin-image ladder."""

    kind = "disk_coupled"

    def __init__(self, field: DiskField, config: RadialLayerConfig, terms, tail_bound):
        self.field = field
        self.config = config
        self.terms = int(terms)
        self.tail_bound = float(tail_bound)

    def _sum_u1(self, r, theta, deriv):
        # r*d/dr of u0(c/r) is -(L0 u0)(c/r), hence the flipped image sign
        cfg = self.config
        R2 = cfg.R**2
        r = np.asarray(r, dtype=float)
        direct = self.field.ladder(r, theta, R2, cfg.rho, self.terms, deriv=deriv)
        image = self.field.ladder(R2 / r, theta, R2, cfg.rho, self.terms, deriv=deriv)
        image_sign = 1.0 if deriv else -1.0
        return direct + image_sign * cfg.rho * image

    def u1_value(self, r, theta):
        return self._sum_u1(r, theta, deriv=False)

    def u1_radial_derivative(self, r, theta):
        return self._sum_u1(r, theta, deriv=True)

    def _sum_u2(self, r, theta, deriv):
        cfg = self.config
        ladder = self.field.ladder(r, theta, cfg.R**2, cfg.rho, self.terms, deriv=deriv)
        return 2.0 * cfg.k / (cfg.k + 1.0) * ladder

    def u2_value(self, r, theta):
        return self._sum_u2(r, theta, deriv=False)

    def u2_radial_derivative(self, r, theta):
        return self._sum_u2(r, theta, deriv=True)

    def classify(self, p) -> str:
        p = as_polar(p)
        if p.r > 1.0 + 1e-12:
            return "outside"
        return "layer2" if p.r < self.config.R else "layer1"

    def eval(self, p) -> float:
        p = as_polar(p)
        region = self.classify(p)
        if region == "outside":
            raise ValidationError("point lies outside the unit disk")
        fn = self.u1_value if region == "layer1" else self.u2_value
        return float(fn(p.r, p.theta))


class AnnulusSolution:
    """Dirichlet annulus field from the Kelvin-image ladder.

    Vanishes on r=R by pairwise cancellation and telescopes to the model
    trace on r=1.  The constant boundary mode cancels identically inside
    each pair, so it contributes nothing (documented limitation: the true
    Dirichlet solution for constant data is the log-harmonic profile).
    """

    kind = "annulus"

    def __init__(self, field: DiskField, R, terms, tail_bound):
        self.field = field
        self.R = float(R)
        self.terms = int(terms)
        self.tail_bound = float(tail_bound)

    def _sum(self, r, theta, deriv):
        R2 = self.R**2
        r = np.asarray(r, dtype=float)
        direct = self.field.ladder(r, theta, R2, 1.0, self.terms, deriv=deriv)
        image = self.field.ladder(R2 / r, theta, R2, 1.0, self.terms, deriv=deriv)
        return direct + image if deriv else direct - image

    def value(self, r, theta):
        return self._sum(r, theta, deriv=False)

    def radial_derivative(self, r, theta):
        return self._sum(r, theta, deriv=True)

    def classify(self, p) -> str:
        p = as_polar(p)
        return "layer1" if self.R <= p.r <= 1.0 + 1e-12 else "outside"

    def eval(self, p) -> float:
        p = as_polar(p)
        if self.classify(p) == "outside":
            raise ValidationError("point lies outside the annulus")
        return float(self.value(p.r, p.theta))


def halfplane_coupled(field: HalfPlaneField, config: PlanarLayerConfig, trunc) -> PlanarLayeredSolution:
    """Deform a half-plane field into the coupled two-layer solution."""
    if abs(config.rho) >= 1.0:
        raise ValidationError("reflection ratio must satisfy |rho| < 1")
    ratio, M = _planar_ladder_bounds(field, config.l, config.rho, trunc)
    terms, tail = _resolve_truncation(trunc, ratio, M)
    return PlanarLayeredSolution(field, config, terms, tail)


def strip_dirichlet(field: HalfPlaneField, l: float, trunc) -> StripSolution:
    """Dirichlet strip solution built from an unweighted reflected ladder."""
    if l <= 0:
        raise ValidationError("strip width must be > 0")
    if field.has_sources or field.min_frequency is None:
        if isinstance(trunc, TailTol):
            raise CapabilityError(
                "tail control on the unweighted strip ladder needs a "
                "decaying mode representation; use MaxTerms"
            )
        ratio, M = 1.0, None
    else:
        ratio = math.exp(-2.0 * l * field.min_frequency)
        M = 2.0 * field.sup_bound(0.0)
    terms, tail = _resolve_truncation(trunc, ratio, M)
    return StripSolution(field, l, terms, tail)


def disk_coupled(field: DiskField, config: RadialLayerConfig, trunc) -> DiskLayeredSolution:
    """Deform a disk field into the coupled annulus-over-core solution."""
    if abs(config.rho) >= 1.0:
        raise ValidationError("reflection ratio must satisfy |rho| < 1")
    n_min = field.min_active_mode
    decay = config.R ** (2 * n_min) if n_min is not None else 1.0
    ratio = abs(config.rho) * decay
    if isinstance(trunc, TailTol) and trunc.sup_bound is not None:
        M = (1.0 + abs(config.rho)) * trunc.sup_bound
    else:
        M = (1.0 + abs(config.rho)) * field.sup_bound()
    terms, tail = _resolve_truncation(trunc, ratio, M)
    return DiskLayeredSolution(field, config, terms, tail)


def annulus_dirichlet(field: DiskField, R: float, trunc) -> AnnulusSolution:
    """Dirichlet annulus solution from the unweighted Kelvin ladder."""
    if not (0.0 < R < 1.0):
        raise ValidationError("inner radius must lie in (0, 1)")
    n_min = field.min_active_mode
    if n_min is None:
        # pure constant data: every ladder pair cancels exactly
        return AnnulusSolution(field, R, terms=1, tail_bound=0.0)
    ratio = R ** (2 * n_min)
    M = 2.0 * field.sup_bound()
    terms, tail = _resolve_truncation(trunc, ratio, M)
    return AnnulusSolution(field, R, terms, tail)


@dataclass(frozen=True)
class RegimeReport:
    """Series-vs-asymptotic advice for one geometry."""

    rho: float
    j_needed: int
    tol: float
    threshold: int
    recommendation: str


def convergence_diagnostic(config, tol: float = 1e-10, threshold: int = 1000, sup_bound: float = 1.0) -> RegimeReport:
    """How many ladder terms the geometry needs, and whether to bother.

    The recommendation flips to "asymptotic" when the pure-rho ladder
    needs more than `threshold` terms at tolerance `tol`.
    """
    rho = config.rho
    j = geometric_tail_terms(rho, tol, sup_bound)
    rec = "asymptotic" if j > threshold else "series"
    return RegimeReport(rho=rho, j_needed=j, tol=tol, threshold=threshold, recommendation=rec)
