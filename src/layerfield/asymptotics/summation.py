"""Euler-Maclaurin summation on an exponential mode, and variation bounds.

The bridge between the image-ladder series and their thin-layer
approximations: a ladder sum over an arithmetic grid equals the integral
term plus half the first sample plus Bernoulli-weighted odd-derivative
corrections.  On a mode every image ladder, weighted or logarithmic, is
a plain exponential ladder, so `em_ray_sum` on an `ExpProfile` serves
them all (the mapping is in the `asymptotics` docstring).

Alongside the expansion, this module carries the total-variation error
bounds for the zeroth-order (integral-only) approximation of a general
profile, and the refinement-based variation estimator they need.  The
thin-layer routes do not use them: on mode data each variation has a
closed form (see `links.thin_layer_solution`).  Nothing here loads scipy.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np

from ..errors import EstimationError, ValidationError
from .bernoulli_numbers import bernoulli

#: maximum number of Bernoulli correction terms
MAX_ORDER = 5


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


def em_ray_sum(f, step: float, order: int = 2) -> float:
    """Euler-Maclaurin value of sum_{j>=0} f(j*step).

    f is a profile with closed-form `integral()` and `derivative(x, order)`,
    such as ExpProfile:

    (1/step) * integral_0^inf f  +  f(0)/2
      - sum_{k=1..order} B_2k step^(2k-1) / (2k)! * f^(2k-1)(0)

    The (2k)! denominator is pinned by the exponential-sum identity
    1/(1-e^(-z)) = 1/z + 1/2 + sum B_2k z^(2k-1)/(2k)!.
    """
    if step <= 0:
        raise ValidationError("step must be > 0")
    if not (callable(f) and hasattr(f, "integral") and hasattr(f, "derivative")):
        raise ValidationError("profile needs closed-form integral() and derivative(); use ExpProfile")
    if not (0 <= order <= MAX_ORDER):
        raise ValidationError(f"correction order must lie in 0..{MAX_ORDER}")
    total = f.integral() / step + float(f(0.0)) / 2.0
    for k in range(1, order + 1):
        b = float(bernoulli(2 * k))
        total -= b * step ** (2 * k - 1) / factorial(2 * k) * f.derivative(0.0, 2 * k - 1)
    return total


def total_variation(fn, lower: float, upper: float, initial: int = 257,
                    rel_tol: float = 1e-3, max_points: int = 2**20) -> float:
    """Sum of |successive differences| on a refinement-stabilised grid.

    fn takes the grid as one array and returns its values.  Grids are
    nested (n -> 2n-1), so the estimate is non-decreasing; refinement
    stops once the relative change drops below rel_tol.
    """
    if upper <= lower:
        raise ValidationError("interval must have positive length")
    n = initial
    prev = None
    while n <= max_points:
        d = np.diff(np.asarray(fn(np.linspace(lower, upper, n)), dtype=float))
        tv = float(np.sum(np.abs(d)))
        if prev is not None and abs(tv - prev) <= rel_tol * max(tv, 1e-300):
            return tv
        prev = tv
        n = 2 * n - 1
    raise EstimationError("total variation did not stabilise under refinement")


def ray_window(fn, base: float = 1.0, decay_tol: float = 1e-10, cap: float = 2.0**24) -> float:
    """Window [0, T] beyond which |f| is negligible relative to its scale.

    fn takes an array of points and returns its values.
    """
    scale = float(np.max(np.abs(fn(np.linspace(0.0, base, 33))))) + 1e-300
    t = base
    while t < cap:
        if np.max(np.abs(fn(np.linspace(t, 2 * t, 33)))) <= decay_tol * scale:
            return 2.0 * t
        t *= 2.0
    raise EstimationError("profile does not decay within the search window")


def ray_total_variation(fn, window: float | None = None) -> float:
    """Total variation of a decaying profile on [0, inf), windowed."""
    T = window if window is not None else ray_window(fn)
    return total_variation(fn, 0.0, T)


def ray_sum_bound(fn, l: float, window: float | None = None) -> float:
    """Rigorous bound for |int_0^inf f - 2l * sum_j f(2lj)|: 2l * V(f)."""
    if l <= 0:
        raise ValidationError("step parameter must be > 0")
    return 2.0 * l * ray_total_variation(fn, window=window)


def log_sum_bound(fn, R: float) -> float:
    """Bound for |int_0^1 f(x)/x dx - ln(1/R^2) sum_j f(R^(2j))|."""
    if not (0.0 < R < 1.0):
        raise ValidationError("grid ratio R must lie in (0, 1)")
    return math.log(1.0 / R**2) * total_variation(fn, 0.0, 1.0)
