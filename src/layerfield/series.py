"""Image-ladder solutions for the four layered geometries.

A known harmonic field is deformed into the solution of a coupled or
Dirichlet problem by summing weighted copies of itself at shifted and
reflected arguments.  The disk problems are solved as their half-plane
twins (`Geometry.twin`), so every route builds one ladder.  The ladder
weight is the reflection ratio rho = (1-k)/(1+k); truncation is
controlled either by an explicit term count or by a geometric tail
tolerance.  One function counts the ladder, for the series and for
`convergence_diagnostic` alike.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import CapabilityError, ConvergenceError, ValidationError
from .harmonic import HalfPlaneField

#: hard cap on ladder terms at a tail tolerance, and on a ladder of sources
MAX_LADDER_TERMS = 100_000


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


def _ladder_length(geometry: Geometry, field, trunc):
    """The (terms, tail_bound) of the ladder of `field` on the half-plane `geometry` under `trunc`.

    The terms decay at ratio |rho| times the field's slowest per-image
    decay, from M = (1 + |rho|) sup|u_model|; TailTol.sup_bound stands in
    for the sup of a field with boundary sources, which has none.  A
    tolerance, and a field with sources (summed image by image) under
    either policy, is capped at MAX_LADDER_TERMS; past it ConvergenceError
    carries the count it `needed`.  A field whose M is not finite is
    rejected, naming the boundary block.
    """
    rho = abs(geometry.rho)
    ratio = rho * field.image_factor(geometry.step)
    try:
        sup = field.sup_bound()
    except CapabilityError:
        sup = getattr(trunc, "sup_bound", None)
    M = None if sup is None else (1.0 + rho) * sup
    if M is not None and not math.isfinite(M):
        raise ValidationError(f"boundary values too large: the ladder's bound (1 + |rho|) sup|u| is {M!r}")

    def bound(j):
        return math.inf if M is None or ratio >= 1.0 else M * ratio**j / (1.0 - ratio)

    if isinstance(trunc, MaxTerms):
        j = trunc.J
    elif not isinstance(trunc, TailTol):
        raise ValidationError(f"unknown truncation policy: {trunc!r}")
    elif M == 0.0:
        return 1, 0.0  # identically zero ladder
    elif ratio >= 1.0:
        raise CapabilityError(
            "tail control needs a geometrically decaying ladder; use MaxTerms"
        )
    elif M is None:
        raise CapabilityError(
            "no automatic sup bound for this field; set TailTol.sup_bound or use MaxTerms"
        )
    else:
        j = geometric_tail_terms(ratio, trunc.tol, M)
    if j > MAX_LADDER_TERMS and (isinstance(trunc, TailTol) or getattr(field, "has_sources", False)):
        achieved = bound(MAX_LADDER_TERMS)
        raise ConvergenceError(
            f"the ladder needs {j} terms (cap {MAX_LADDER_TERMS}, achievable bound {achieved:.3e})",
            achieved=achieved,
            terms=MAX_LADDER_TERMS,
            needed=j,
        )
    return j, bound(j)


def _twin_problem(geometry: Geometry, field):
    """`geometry`'s twin, `field` on it, and the constant mode c a Dirichlet layer takes apart.

    On the strip and the annulus (rho = 1) F(x) - F(2l - x) cancels the
    constant mode, so the routes build the field without it, and c enters
    as its exact profile c(1 - x/l) (`LayeredSolution`), which is
    c ln(r/R)/ln(1/R) on the annulus.  On the coupled problems c is 0 and
    the constant mode goes through the ladder as any other.
    """
    view = geometry.on_twin(field)
    if geometry.coupled:
        return geometry.twin, view, 0.0
    constant = sum(a * math.cos(p) for a, w, p in view.modes if w == 0.0)
    return geometry.twin, HalfPlaneField([m for m in view.modes if m[1] > 0.0], view.sources), constant


#: each problem's coordinates: its layers are cut along the first, p
AXES = {
    "strip": ("x", "y"),
    "halfplane_coupled": ("x", "y"),
    "disk_coupled": ("r", "theta"),
    "annulus": ("r", "theta"),
}


def _positive(name, value) -> float:
    """`value` as a float, if it is a finite number > 0; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


class Geometry:
    """Where a problem's layers lie, in its own coordinate p, and what they solve.

    p is x on the plane and r on the disk; the second coordinate (y or
    theta) is never mapped.  Layer 1 is 0 <= x <= l (interface l) or
    R <= r <= 1 (interface R).  The coupled problems (k given) add
    layer 2 beyond the interface, x > l or r < R; the strip and the
    annulus have none.  `PlanarLayerConfig` and `RadialLayerConfig` build
    the coupled problems from their named parameters.

    Every layer solves Laplace's equation, except layer 2 of the coupled
    half-plane, which solves a2^2 u_xx + u_yy = 0.  The interface carries
    u1 = u2 and k u1_x = a2 u2_x on the plane, k r u1_r = r u2_r on the
    disk; a2 is 1 on every kind but the coupled half-plane.

    The routes solve every problem on its half-plane `twin`: itself on the
    plane, and on the disk the strip or coupled half-plane at l = ln(1/R),
    same k, under the conformal map x = ln(1/r), y = theta (`to_twin`).
    The map keeps Laplace's equation and the interface conditions, since
    r d/dr = -d/dx; r^n becomes e^(-nx) and the Kelvin image R^2/r the
    mirror 2l - x.

    Every problem is checked here: l > 0, R in (0, 1), and k and a2
    positive, all finite; only the coupled problems take k, and only the
    coupled half-plane takes an a2 other than 1.  So is every number the
    routes and `oracle.residual_report` derive from them: the ladder step
    (2l, or R^2 on the disk), its inverse and (a2/h)^2 for the
    `residual_step` h must be finite and non-zero, the Robin parameter
    finite, and the ladder ratio rho = (1 - k)/(1 + k) must not round to 1.
    """

    def __init__(self, kind: str, interface: float, k: float | None = None, a2: float = 1.0):
        if kind not in AXES:
            raise ValidationError(f"problem must be one of {tuple(AXES)}, got {kind!r}")
        self.kind, self.axes = kind, AXES[kind]
        self.interface = _positive(self.interface_key, interface)
        if self.radial and not self.interface < 1.0:
            raise ValidationError(f"R must lie in (0, 1), got {interface!r}")
        if (k is None) == (kind in ("halfplane_coupled", "disk_coupled")):
            raise ValidationError("the coupled problems, and only they, take a coupling ratio k")
        self.k = None if k is None else _positive("k", k)
        self.a2 = _positive("a2", a2)
        if self.a2 != 1.0 and kind != "halfplane_coupled":
            raise ValidationError(f"only the coupled half-plane takes an anisotropy a2, got {a2!r}")
        step, h = self.step, self.residual_step
        curvature = self.a2 / h if h else math.inf
        at = f"at {self.interface_key}={interface!r}"
        for what, value in (
            ("ladder step", step),
            ("inverse ladder step", 1.0 / step if step else math.inf),
            ("residual stencil's (a2/h)^2", curvature * curvature),
        ):
            if not (math.isfinite(value) and value != 0.0):
                raise ValidationError(f"the {what} is {value!r}, not a finite non-zero float, {at}")
        # rho = 1 (k below about 5.6e-17) leaves the layers uncoupled; rho = -1
        # (k >~ 1e16) is h = 0, which the series refuses by itself
        if self.coupled and self.rho == 1.0:
            raise ValidationError(f"k={k!r} is too small: the ladder ratio rho = (1 - k)/(1 + k) rounds to 1")
        if self.coupled and self.rho != 0.0 and not math.isfinite(self.robin_h):
            raise ValidationError(f"the Robin parameter h is {self.robin_h!r}, not finite, {at}")
        # np.log, as in to_twin, so that r = R maps to x = l exactly
        self.twin = (Geometry("halfplane_coupled" if self.coupled else "strip", -float(np.log(self.interface)), k)
                     if self.radial else self)

    @property
    def radial(self) -> bool:
        return self.axes[0] == "r"

    @property
    def coupled(self) -> bool:
        return self.k is not None

    @property
    def interface_key(self) -> str:
        """The config key of the interface: l on the plane, R on the disk."""
        return "R" if self.radial else "l"

    @property
    def domain(self) -> tuple:
        """The range of p: (0, l) or (0, inf) on the plane, (R, 1) or (0, 1) on the disk."""
        if self.radial:
            return (0.0 if self.coupled else self.interface, 1.0)
        return (0.0, math.inf if self.coupled else self.interface)

    @property
    def rho(self) -> float:
        """Ladder ratio: (1 - k)/(1 + k) when coupled, 1 on the strip and the annulus."""
        return (1.0 - self.k) / (1.0 + self.k) if self.coupled else 1.0

    @property
    def robin_h(self) -> float:
        """Robin parameter h with |rho| = exp(2hl) on the plane (h <= 0), R^(2h) on the disk (h >= 0).

        h is 0 on the strip and the annulus, where rho = 1.
        """
        if self.rho == 0.0:
            raise ValidationError("k=1 has rho=0; the series is exact, use it")
        if self.radial:
            return math.log(abs(self.rho)) / (2.0 * math.log(self.interface))
        return math.log(abs(self.rho)) / (2.0 * self.interface)

    @property
    def step(self) -> float:
        """Ladder step: 2l on the plane.  On the disk R^2, which nothing steps
        by (the routes and the oracle take the twin's 2 ln(1/R)); it is kept
        as a range check, so that R below about 1e-154 still exits 2."""
        return self.interface**2 if self.radial else 2.0 * self.interface

    @property
    def residual_step(self) -> float:
        """The stencil step of `oracle.residual_report`, which runs on the twin:
        1e-3, or an eighth of the twin's layer 1 (l, or ln(1/R) on the disk)
        if that is smaller, so that every sample sits at least two steps
        inside its layer (the twin's layer 2 is unbounded)."""
        return min(1e-3, float(self.to_twin(self.interface)) / 8.0)

    @property
    def stretch(self) -> float:
        """d outer(p)/dp: 1/a2, which is 1 on every kind but the coupled half-plane."""
        return 1.0 / self.a2

    def to_twin(self, p):
        """The map p -> x onto the twin: x = p on the plane, ln(1/r) on the disk (r = 0 maps to inf)."""
        with np.errstate(divide="ignore"):
            return -np.log(p) if self.radial else np.asarray(p, dtype=float)

    def on_twin(self, field):
        """`field` on the twin: itself on the plane, its half-plane view on the disk."""
        return field.half_plane() if self.radial else field

    def image(self, x):
        """Mirror 2l - x of a plane coordinate (the twin's, on the disk)."""
        return 2.0 * self.interface - x

    def outer(self, x):
        """Layer-2 argument (x - l)/a2 + l of a plane coordinate."""
        return self.stretch * (x - self.interface) + self.interface

    def in_layer2(self, p):
        """Region test: True where p lies in layer 2."""
        p = np.asarray(p, dtype=float)
        if not self.coupled:
            return np.zeros(p.shape, dtype=bool)
        return p < self.interface if self.radial else p > self.interface


def PlanarLayerConfig(l: float, k: float, a2: float = 1.0) -> Geometry:
    """The coupled half-plane's `Geometry`: layer 1 on 0 < x < l, layer 2 beyond.

    k couples the fluxes, k u1_x = a2 u2_x, and a2 is layer 2's
    anisotropy (see `Geometry`).  From conductivities, with
    lambda1 u1_x = lambda2 u2_x, k = (lambda1/lambda2) a2.
    """
    return Geometry("halfplane_coupled", l, k, a2)


def RadialLayerConfig(R: float, k: float) -> Geometry:
    """The coupled disk's `Geometry`: annulus R < r < 1 (layer 1) over a core r < R."""
    return Geometry("disk_coupled", R, k)


class LayeredSolution:
    """A layered solution built by any route from its transfer field F on the twin.

    p maps to x on the geometry's twin on entry (`Geometry.to_twin`); with
    the mirror x* = 2l - x of the twin's interface l:

        layer 1:  F(x) - rho*F(x*) + c(1 - x/l),  derivative F'(x) + rho*F'(x*) - c/l
        layer 2:  (1 - rho)*F(outer(x)),           derivative times stretch = 1/a2

    The derivative is d/dx on the plane, and r d/dr = -d/dx on the disk,
    so there its sign flips.  F is harmonic, so F(outer(x)) solves
    layer 2's equation, and at the geometry's rho, k*(1 + rho) = 1 - rho
    gives `Geometry`'s interface conditions for any F.  The strip and
    the annulus take rho = 1, so they vanish on the interface; c is the
    constant mode that F(x) - F(x*) cancels there (`_twin_problem`).

    The series sets `terms` (its ladder length J) and `tail_bound`.  The
    thin-layer route sets `bound_at(p)`, a bound on the layer-2
    deviation from the series at every point with first coordinate p,
    where one is known; `bound` is its value at the interface, where it
    is largest.  Each is None where it does not apply.
    """

    def __init__(self, geometry: Geometry, field, rho: float, *, terms: int | None = None,
                 tail_bound: float | None = None, constant: float = 0.0, bound_at=None):
        self.geometry = geometry
        self.field = field
        self.rho = float(rho)
        self.terms = terms
        self.tail_bound = None if tail_bound is None else float(tail_bound)
        self.constant = float(constant)
        self.bound_at = bound_at
        self.bound = None if bound_at is None else bound_at(geometry.interface)
        self._twin = geometry.twin
        self._sign = -1.0 if geometry.radial else 1.0

    def on_twin(self) -> LayeredSolution:
        """This solution on the geometry's twin, read in (x, y)."""
        return LayeredSolution(self._twin, self.field, self.rho, constant=self.constant)

    def u1_value(self, p, q):
        x = self.geometry.to_twin(p)
        out = self.field.value(x, q) - self.rho * self.field.value(self._twin.image(x), q)
        if self.constant:
            out = out + self.constant * (1.0 - x / self._twin.interface)
        return out

    def u1_deriv(self, p, q):
        x = self.geometry.to_twin(p)
        out = self.field.deriv_x(x, q) + self.rho * self.field.deriv_x(self._twin.image(x), q)
        if self.constant:
            out = out - self.constant / self._twin.interface
        return self._sign * out

    def u2_value(self, p, q):
        outer = self._twin.outer(self.geometry.to_twin(p))
        return (1.0 - self.rho) * self.field.value(outer, q)

    def u2_deriv(self, p, q):
        outer = self._twin.outer(self.geometry.to_twin(p))
        return self._sign * (1.0 - self.rho) * self._twin.stretch * self.field.deriv_x(outer, q)

    # the strip and the annulus have layer 1 only
    value = u1_value
    deriv = u1_deriv


def series_solution(geometry: Geometry, field, trunc) -> LayeredSolution:
    """The truncated image-ladder solution of `field` on `geometry`'s twin.

    The tail bound adds a projected field's `dropped_mass`: by the
    maximum principle the solution moves by at most that much when the
    dropped modes are put back.
    """
    if geometry.coupled and abs(geometry.rho) >= 1.0:
        raise ValidationError("reflection ratio must satisfy |rho| < 1")
    twin, view, constant = _twin_problem(geometry, field)
    terms, tail = _ladder_length(twin, view, trunc)
    ladder = view.ladder(twin.step, twin.rho, terms)
    return LayeredSolution(geometry, ladder, twin.rho, terms=terms,
                           tail_bound=tail + getattr(field, "dropped_mass", 0.0), constant=constant)


class RegimeReport:
    """Series-vs-asymptotic advice for one geometry; `tol` is None under MaxTerms."""

    def __init__(self, rho: float, j_needed: int, tol: float | None, recommendation: str):
        self.rho, self.j_needed, self.tol, self.recommendation = rho, j_needed, tol, recommendation


def convergence_diagnostic(geometry: Geometry, field, trunc=TailTol(1e-10), threshold: int = 1000) -> RegimeReport:
    """How many ladder terms the series builds under `trunc`, and whether to bother.

    `j_needed` is the series' count, or the count it needed where it
    refuses past the cap, and then the advice is "asymptotic".  A ladder
    of modes costs the same at any count, so otherwise only a field with
    sources, summed image by image, longer than `threshold` is sent there.
    """
    twin, field, _ = _twin_problem(geometry, field)
    try:
        j = _ladder_length(twin, field, trunc)[0]
        slow = j > threshold and field.has_sources
    except ConvergenceError as exc:
        j, slow = exc.needed, True
    return RegimeReport(geometry.rho, j, getattr(trunc, "tol", None), "asymptotic" if slow else "series")
