"""Euler-Maclaurin summation on arithmetic and logarithmic ladders.

The bridge between the image-ladder series and their thin-layer
approximations: a ladder sum over an arithmetic grid equals the integral
term plus half the first sample plus Bernoulli-weighted odd-derivative
corrections.  Logarithmic ladders (arguments r*R^(2j)) reduce to the
arithmetic case through the substitution x = exp(-t).  Weighted ladders
absorb the geometric weight into an exponential factor, which turns the
derivative corrections into powers of the shifted operator c + d/dx.

Alongside the expansions, this module carries the rigorous
total-variation error bounds for the zeroth-order (integral-only)
approximations and the refinement-based variation estimator they need.
"""

from __future__ import annotations

import math
from math import comb, factorial

import numpy as np

from ..errors import (
    CapabilityError,
    DivergentLinkError,
    EstimationError,
    ValidationError,
)
from .bernoulli import bernoulli

#: maximum number of Bernoulli correction terms
MAX_ORDER = 5

#: correction-order cap when derivatives come from finite differences
FD_ORDER_CAP = 3


def quad(fn, lo: float, hi: float) -> float:
    """Adaptive quadrature of fn over [lo, hi].

    scipy is imported here, on first use, so that mode-only runs never
    load it.
    """
    from scipy import integrate

    return integrate.quad(fn, lo, hi, limit=200)[0]


def _check_order(order: int, cap: int = MAX_ORDER):
    if not (0 <= order <= cap):
        raise ValidationError(f"correction order must lie in 0..{cap}")


def fd_weights(offsets, order: int):
    """Finite-difference weights for f^(order) on integer node offsets."""
    c = np.asarray(offsets, dtype=float)
    n = c.size
    if order >= n:
        raise ValidationError("need more nodes than the derivative order")
    rhs = np.zeros(n)
    rhs[order] = factorial(order)
    v = np.vander(c, n, increasing=True).T
    return np.linalg.solve(v, rhs)


class ExpProfile:
    """amp * exp(-rate * x) on the ray x >= 0, with closed-form calculus."""

    def __init__(self, rate: float, amp: float = 1.0):
        if not (rate > 0 and math.isfinite(rate) and math.isfinite(amp)):
            raise ValidationError("rate must be positive and finite")
        self.rate = float(rate)
        self.amp = float(amp)

    def __call__(self, x):
        return self.amp * np.exp(-self.rate * np.asarray(x, dtype=float))

    def derivative(self, x: float, order: int = 1) -> float:
        return self.amp * (-self.rate) ** order * math.exp(-self.rate * x)

    def integral(self) -> float:
        return self.amp / self.rate

    def weighted_integral(self, h: float, shift: float = 0.0) -> float:
        """Integral of exp(h*e) * f(shift + e) over e in [0, inf)."""
        if self.rate - h <= 0:
            raise DivergentLinkError("exponentially weighted integral diverges")
        return self.amp * math.exp(-self.rate * shift) / (self.rate - h)

    def lh_power(self, h: float, order: int, x: float) -> float:
        """(h + d/dx)^order applied to the profile, evaluated at x."""
        return (h - self.rate) ** order * float(self(x))


class SumProfile:
    """Finite sum of exponential profiles; closed forms term by term."""

    def __init__(self, parts):
        self.parts = list(parts)

    def __call__(self, x):
        return sum(p(x) for p in self.parts)

    def derivative(self, x, order=1):
        return sum(p.derivative(x, order) for p in self.parts)

    def integral(self):
        return sum(p.integral() for p in self.parts)

    def weighted_integral(self, h, shift=0.0):
        return sum(p.weighted_integral(h, shift) for p in self.parts)

    def lh_power(self, h, order, x):
        return sum(p.lh_power(h, order, x) for p in self.parts)


class PowerProfile:
    """amp * x^n on [0, 1]; the logarithmic ladder maps it to ExpProfile."""

    def __init__(self, n: float, amp: float = 1.0):
        if not (n >= 0 and math.isfinite(n) and math.isfinite(amp)):
            raise ValidationError("exponent must be >= 0 and finite")
        self.n = float(n)
        self.amp = float(amp)

    def __call__(self, x):
        return self.amp * np.asarray(x, dtype=float) ** self.n

    def log_substituted(self) -> ExpProfile:
        """Profile of f(exp(-t)) on the ray t >= 0."""
        if self.n <= 0:
            raise ValidationError(
                "constant profile has a divergent logarithmic-grid integral"
            )
        return ExpProfile(rate=self.n, amp=self.amp)

    def radial_weighted_integral(self, h: float, r: float) -> float:
        """Integral of e^(h-1) * f(r*e) over e in [0, 1]."""
        if self.n + h <= 0:
            raise DivergentLinkError("radially weighted integral diverges")
        return self.amp * r**self.n / (self.n + h)

    def radial_lh_power(self, h: float, order: int, r: float) -> float:
        """(h + r d/dr)^order applied to the profile, evaluated at r."""
        return (h + self.n) ** order * float(self(r))


class FuncProfile:
    """Plain-callable profile; quadrature and finite differences fill in.

    Derivatives are limited to order 5 and lose accuracy fast, so the
    correction-order cap for this representation is FD_ORDER_CAP.
    """

    def __init__(self, fn, integral=None, domain=(0.0, math.inf)):
        self.fn = fn
        self._integral = integral
        self.domain = (float(domain[0]), float(domain[1]))

    def __call__(self, x):
        return self.fn(x)

    def derivative(self, x: float, order: int = 1) -> float:
        if order == 0:
            return float(self.fn(x))
        if order > 5:
            raise CapabilityError("finite-difference derivatives capped at order 5")
        n_nodes = order + 3
        h = max(abs(x), 1.0) * (2e-16) ** (1.0 / (order + 2))
        lo = self.domain[0]
        offsets = np.arange(n_nodes) - (n_nodes - 1) / 2.0
        if x + offsets[0] * h < lo:
            offsets = np.arange(n_nodes, dtype=float)  # one-sided
        w = fd_weights(offsets, order)
        vals = np.array([float(self.fn(x + c * h)) for c in offsets])
        return float(np.dot(w, vals) / h**order)

    def integral(self) -> float:
        if self._integral is not None:
            return self._integral
        return quad(self.fn, self.domain[0], self.domain[1])

    def weighted_integral(self, h: float, shift: float = 0.0) -> float:
        return quad(lambda e: math.exp(h * e) * float(self.fn(shift + e)), 0.0, math.inf)

    def lh_power(self, h: float, order: int, x: float) -> float:
        if order > 2 * FD_ORDER_CAP - 1:
            raise CapabilityError(
                f"operator powers above {2 * FD_ORDER_CAP - 1} need a closed-form profile"
            )
        return sum(
            comb(order, i) * h ** (order - i) * self.derivative(x, i) for i in range(order + 1)
        )

    def radial_weighted_integral(self, h: float, r: float) -> float:
        if h <= 0:
            raise DivergentLinkError("radially weighted integral needs h > 0")
        # substitute e = u^(1/h): integrand becomes smooth at the origin
        return quad(lambda u: float(self.fn(r * u ** (1.0 / h))) / h, 0.0, 1.0)

    def radial_lh_power(self, h: float, order: int, r: float) -> float:
        if order > 2 * FD_ORDER_CAP - 1:
            raise CapabilityError(
                f"operator powers above {2 * FD_ORDER_CAP - 1} need a closed-form profile"
            )
        dr = 1e-4 * max(abs(r), 1.0)

        def apply(m, s):
            if m == 0:
                return float(self.fn(s))
            d = (apply(m - 1, s + dr) - apply(m - 1, s - dr)) / (2.0 * dr)
            return h * apply(m - 1, s) + s * d

        return apply(order, r)


def as_ray_profile(f):
    """Wrap a plain callable into a FuncProfile; pass profiles through."""
    if hasattr(f, "derivative") and hasattr(f, "integral"):
        return f
    if callable(f):
        return FuncProfile(f)
    raise ValidationError("profile must be callable")


def em_ray_sum(f, step: float, order: int = 2) -> float:
    """Euler-Maclaurin value of sum_{j>=0} f(j*step).

    (1/step) * integral_0^inf f  +  f(0)/2
      - sum_{k=1..order} B_2k step^(2k-1) / (2k)! * f^(2k-1)(0)

    The (2k)! denominator is pinned by the exponential-sum identity
    1/(1-e^(-z)) = 1/z + 1/2 + sum B_2k z^(2k-1)/(2k)!.
    """
    if step <= 0:
        raise ValidationError("step must be > 0")
    f = as_ray_profile(f)
    cap = FD_ORDER_CAP if isinstance(f, FuncProfile) else MAX_ORDER
    _check_order(order, cap)
    total = f.integral() / step + float(f(0.0)) / 2.0
    for k in range(1, order + 1):
        b = float(bernoulli(2 * k))
        total -= b * step ** (2 * k - 1) / factorial(2 * k) * f.derivative(0.0, 2 * k - 1)
    return total


def em_log_sum(f, R: float, order: int = 2) -> float:
    """Euler-Maclaurin value of sum_{j>=0} f(R^(2j)) for R in (0, 1).

    Equals the arithmetic-ladder expansion of g(t) = f(exp(-t)) with step
    ln(1/R^2); the leading term is the integral of f(x)/x over [0, 1].
    """
    if not (0.0 < R < 1.0):
        raise ValidationError("grid ratio R must lie in (0, 1)")
    if hasattr(f, "log_substituted"):
        g = f.log_substituted()
    else:
        f = as_ray_profile(f)
        probe = abs(float(f(1e-9)))
        scale = abs(float(f(1.0))) + 1e-30
        if probe > 1e-6 * scale:
            raise ValidationError(
                "integral of f(x)/x over [0,1] diverges; f must vanish at 0"
            )
        val = quad(lambda x: float(f(x)) / x, 0.0, 1.0)
        g = FuncProfile(lambda t: float(f(math.exp(-t))), integral=val)
    return em_ray_sum(g, math.log(1.0 / R**2), order)


class TVEstimate:
    """Total variation estimate from nested grid refinement."""

    def __init__(self, value: float, points: int, segments: int):
        if value < 0:
            raise ValidationError("total variation cannot be negative")
        self.value, self.points, self.segments = value, points, segments


def total_variation(fn, lower: float, upper: float, initial: int = 257,
                    rel_tol: float = 1e-3, max_points: int = 2**20) -> TVEstimate:
    """Sum of |successive differences| on a refinement-stabilised grid.

    Grids are nested (n -> 2n-1), so the estimate is non-decreasing;
    refinement stops once the relative change drops below rel_tol.
    """
    if upper <= lower:
        raise ValidationError("interval must have positive length")
    n = initial
    prev = None
    while n <= max_points:
        t = np.linspace(lower, upper, n)
        try:
            v = np.asarray(fn(t), dtype=float)
            if v.shape != t.shape:
                raise TypeError
        except (TypeError, ValueError):
            v = np.array([float(fn(ti)) for ti in t])
        d = np.diff(v)
        tv = float(np.sum(np.abs(d)))
        signs = np.sign(d[d != 0])
        segments = 1 + int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
        if prev is not None and abs(tv - prev) <= rel_tol * max(tv, 1e-300):
            return TVEstimate(value=tv, points=n, segments=segments)
        prev = tv
        n = 2 * n - 1
    raise EstimationError("total variation did not stabilise under refinement")


def ray_window(fn, base: float = 1.0, decay_tol: float = 1e-10, cap: float = 2.0**24) -> float:
    """Window [0, T] beyond which |f| is negligible relative to its scale."""
    probe = np.linspace(0.0, base, 33)
    try:
        scale = float(np.max(np.abs(np.asarray(fn(probe), dtype=float))))
    except (TypeError, ValueError):
        scale = max(abs(float(fn(t))) for t in probe)
    scale += 1e-300
    t = base
    while t < cap:
        tail = np.linspace(t, 2 * t, 33)
        try:
            m = float(np.max(np.abs(np.asarray(fn(tail), dtype=float))))
        except (TypeError, ValueError):
            m = max(abs(float(fn(s))) for s in tail)
        if m <= decay_tol * scale:
            return 2.0 * t
        t *= 2.0
    raise EstimationError("profile does not decay within the search window")


def ray_total_variation(fn, window: float | None = None) -> TVEstimate:
    """Total variation of a decaying profile on [0, inf), windowed."""
    T = window if window is not None else ray_window(fn)
    return total_variation(fn, 0.0, T)


def ray_sum_bound(fn, l: float, window: float | None = None) -> float:
    """Rigorous bound for |int_0^inf f - 2l * sum_j f(2lj)|: 2l * V(f)."""
    if l <= 0:
        raise ValidationError("step parameter must be > 0")
    return 2.0 * l * ray_total_variation(fn, window=window).value


def log_sum_bound(fn, R: float) -> float:
    """Bound for |int_0^1 f(x)/x dx - ln(1/R^2) sum_j f(R^(2j))|."""
    if not (0.0 < R < 1.0):
        raise ValidationError("grid ratio R must lie in (0, 1)")
    return math.log(1.0 / R**2) * total_variation(fn, 0.0, 1.0).value


def _weighted_corrections(f, h: float, x: float, step: float, order: int, alternating: bool) -> float:
    total = 0.0
    for k in range(1, order + 1):
        b = float(bernoulli(2 * k))
        factor = (2 ** (2 * k) - 1) if alternating else 1.0
        total += factor * b * step ** (2 * k - 1) / factorial(2 * k) * f.lh_power(h, 2 * k - 1, x)
    return total


def weighted_ray_asym(f, x: float, l: float, h: float, order: int = 2) -> float:
    """Expansion of sum_j rho^j f(x + 2lj) for rho = exp(2hl) in (0, 1).

    (1/2l) int_0^inf e^(h e) f(x+e) de + f(x)/2
      - sum_k B_2k (2l)^(2k-1)/(2k)! (h + d/dx)^(2k-1) f(x)
    """
    if l <= 0:
        raise ValidationError("half-spacing l must be > 0")
    f = as_ray_profile(f)
    cap = FD_ORDER_CAP - 1 if isinstance(f, FuncProfile) else MAX_ORDER
    _check_order(order, cap)
    lead = f.weighted_integral(h, x) / (2.0 * l) + float(f(x)) / 2.0
    return lead - _weighted_corrections(f, h, x, 2.0 * l, order, alternating=False)


def weighted_ray_asym_alt(f, x: float, l: float, h: float, order: int = 2) -> float:
    """Alternating variant: sum_j rho^j f(x+2lj) with rho = -exp(2hl).

    No integral term survives; the corrections carry (2^2k - 1) factors.
    """
    if l <= 0:
        raise ValidationError("half-spacing l must be > 0")
    f = as_ray_profile(f)
    cap = FD_ORDER_CAP - 1 if isinstance(f, FuncProfile) else MAX_ORDER
    _check_order(order, cap)
    return float(f(x)) / 2.0 - _weighted_corrections(f, h, x, 2.0 * l, order, alternating=True)


def _radial_corrections(f, h: float, r: float, step: float, order: int, alternating: bool) -> float:
    total = 0.0
    for k in range(1, order + 1):
        b = float(bernoulli(2 * k))
        factor = (2 ** (2 * k) - 1) if alternating else 1.0
        total += factor * b * step ** (2 * k - 1) / factorial(2 * k) * f.radial_lh_power(h, 2 * k - 1, r)
    return total


def _as_radial_profile(f):
    if hasattr(f, "radial_weighted_integral"):
        return f
    if callable(f):
        return FuncProfile(f, domain=(0.0, 1.0))
    raise ValidationError("profile must be callable")


def weighted_radial_asym(f, r: float, R: float, h: float, order: int = 2) -> float:
    """Expansion of sum_j rho^j f(r R^(2j)) for rho = R^(2h) in (0, 1).

    (1/s) int_0^1 e^(h-1) f(r e) de + f(r)/2
      + sum_k B_2k s^(2k-1)/(2k)! (h + r d/dr)^(2k-1) f(r),   s = ln(1/R^2)
    """
    if not (0.0 < R < 1.0):
        raise ValidationError("grid ratio R must lie in (0, 1)")
    f = _as_radial_profile(f)
    cap = FD_ORDER_CAP - 1 if isinstance(f, FuncProfile) else MAX_ORDER
    _check_order(order, cap)
    s = math.log(1.0 / R**2)
    lead = f.radial_weighted_integral(h, r) / s + float(f(r)) / 2.0
    return lead + _radial_corrections(f, h, r, s, order, alternating=False)


def weighted_radial_asym_alt(f, r: float, R: float, h: float, order: int = 2) -> float:
    """Alternating variant: sum_j rho^j f(r R^(2j)) with rho = -R^(2h)."""
    if not (0.0 < R < 1.0):
        raise ValidationError("grid ratio R must lie in (0, 1)")
    f = _as_radial_profile(f)
    cap = FD_ORDER_CAP - 1 if isinstance(f, FuncProfile) else MAX_ORDER
    _check_order(order, cap)
    s = math.log(1.0 / R**2)
    return float(f(r)) / 2.0 + _radial_corrections(f, h, r, s, order, alternating=True)
