"""Harmonic model fields and their pointwise transforms.

Two concrete representations are used throughout the package: decaying
cosine modes (optionally with boundary point sources) on the right
half-plane, and finite Fourier sums on the unit disk.  Both evaluate
exactly on arrays, expose exact first derivatives (d/dx on the plane,
r d/dr on the disk) and sum their own image ladders per mode.  The
module also reads sampled boundary traces, projects circle traces onto
disk modes, extends planar traces by the Poisson integral, and provides
a five-point stencil residual as a harmonicity check.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CapabilityError,
    StencilError,
    UndersamplingError,
    ValidationError,
    WindowTooSmallError,
)

TWO_PI = 2.0 * math.pi


def _xy(p):
    """An (x, y) pair as two finite floats."""
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError("point coordinates must be finite")
    return x, y


def geometric_weights(ratio: float, decay, terms: int) -> np.ndarray:
    """G(q, J) = sum_{j<J} q^j elementwise, for q = ratio * exp(-decay).

    For q > 0 the sum is expm1(J log q) / expm1(log q), with log q taken
    as log(ratio) - decay so that it stays accurate as q approaches 1;
    q = 1 gives J.  For q <= 0 the plain (1 - q^J) / (1 - q) is stable.
    """
    decay = np.asarray(decay, dtype=float)
    if ratio > 0:
        log_q = math.log(ratio) - decay
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(log_q == 0.0, float(terms), np.expm1(terms * log_q) / np.expm1(log_q))
    q = ratio * np.exp(-decay)
    return (1.0 - q**terms) / (1.0 - q)


class HalfPlaneField:
    """Harmonic field on the right half-plane.

    u(x, y) = sum_m A_m exp(-w_m x) cos(w_m y + phi_m)
            + sum_s (q_s / pi) x / (x^2 + (y - t_s)^2)

    Every mode frequency must be strictly positive; that makes each term
    harmonic, decaying along x, and integrable against the half-plane
    Poisson kernel.  The source terms are Poisson kernels anchored at
    boundary points t_s.
    """

    def __init__(self, modes=(), sources=()):
        modes = [(float(a), float(w), float(p)) for (a, w, p) in modes]
        sources = [(float(t), float(q)) for (t, q) in sources]
        for a, w, p in modes:
            if not (math.isfinite(a) and math.isfinite(w) and math.isfinite(p)):
                raise ValidationError("mode parameters must be finite")
            if w <= 0:
                raise ValidationError("mode frequency must be > 0")
        for t, q in sources:
            if not (math.isfinite(t) and math.isfinite(q)):
                raise ValidationError("source parameters must be finite")
        self._amp = np.array([m[0] for m in modes], dtype=float)
        self._omega = np.array([m[1] for m in modes], dtype=float)
        self._phase = np.array([m[2] for m in modes], dtype=float)
        self._src_t = np.array([s[0] for s in sources], dtype=float)
        self._src_q = np.array([s[1] for s in sources], dtype=float)

    @classmethod
    def single_mode(cls, frequency, amplitude=1.0, phase=0.0):
        return cls(modes=[(amplitude, frequency, phase)])

    @property
    def modes(self):
        return list(zip(self._amp, self._omega, self._phase))

    @property
    def sources(self):
        return list(zip(self._src_t, self._src_q))

    @property
    def has_sources(self) -> bool:
        return self._src_t.size > 0

    @property
    def min_frequency(self):
        """Smallest mode frequency, or None for a field with no modes."""
        return float(self._omega.min()) if self._omega.size else None

    def image_factor(self, shift: float) -> float:
        """Slowest per-image decay of this field's ladder with the given shift.

        Mode w decays by exp(-w*shift) per image; boundary sources do not
        decay (factor 1), and a field with nothing in it gives 0.
        """
        if self.has_sources:
            return 1.0
        return math.exp(-shift * self.min_frequency) if self._omega.size else 0.0

    def sup_bound(self, x_min=0.0) -> float:
        """Upper bound for |u| on the slab {x >= x_min}.

        For a pure mode sum this is sum |A_m| exp(-w_m x_min).  Source
        terms are bounded by |q|/(pi x_min), which blows up at the
        boundary, so a field with sources has no automatic bound there.
        """
        total = float(np.sum(np.abs(self._amp) * np.exp(-self._omega * x_min)))
        if self.has_sources:
            if x_min <= 0:
                raise CapabilityError(
                    "field with boundary sources is unbounded near x=0; "
                    "supply an explicit sup bound"
                )
            total += float(np.sum(np.abs(self._src_q)) / (math.pi * x_min))
        return total

    def _add_modes(self, out, x, y, amp, deriv):
        for a, w, p in zip(amp, self._omega, self._phase):
            if deriv:
                out += -w * a * np.exp(-w * x) * np.cos(w * y + p)
            else:
                out += a * np.exp(-w * x) * np.cos(w * y + p)

    def _add_sources(self, out, x, y, deriv, weight=1.0):
        for t, q in zip(self._src_t, self._src_q):
            c2 = (y - t) ** 2
            if deriv:
                denom = (x * x + c2) ** 2
                num = c2 - x * x
            else:
                denom = x * x + c2
                num = x
            with np.errstate(divide="ignore", invalid="ignore"):
                kernel = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), np.nan)
            out += (weight * q / math.pi) * kernel

    def _evaluate(self, x, y, deriv):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        self._add_modes(out, x, y, self._amp, deriv)
        self._add_sources(out, x, y, deriv)
        return out if out.shape else float(out)

    def value(self, x, y):
        """Evaluate at scalar or array coordinates (no domain check)."""
        return self._evaluate(x, y, deriv=False)

    def deriv_x(self, x, y):
        """Exact partial derivative in x."""
        return self._evaluate(x, y, deriv=True)

    def ladder(self, x, y, shift, ratio, terms, deriv=False):
        """Image ladder sum_{j<terms} ratio^j u(x + j*shift, y), or of du/dx.

        The j-th image of a mode is the mode itself times q^j with
        q = ratio*exp(-w*shift), so the mode part is one mode sum with
        every amplitude scaled by the geometric sum over j: its cost does
        not grow with `terms`.  Boundary sources have no such shortcut
        and are summed image by image.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        weights = geometric_weights(ratio, self._omega * shift, terms)
        self._add_modes(out, x, y, self._amp * weights, deriv)
        if self.has_sources:
            w = 1.0
            for j in range(terms):
                self._add_sources(out, x + j * shift, y, deriv, w)
                w *= ratio
        return out if out.shape else float(out)


class DiskField:
    """Finite Fourier sum on the unit disk.

    u(r, theta) = a0/2 + sum_{n=1..N} r^n (a_n cos n theta + b_n sin n theta)

    Harmonic by construction: every term is a harmonic polynomial.  The
    trace at r=1 is the trigonometric polynomial with the same
    coefficients.
    """

    def __init__(self, cos_coeffs, sin_coeffs=None):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float)).copy()
        if sin_coeffs is None:
            b = np.zeros_like(a)
        else:
            b = np.atleast_1d(np.asarray(sin_coeffs, dtype=float)).copy()
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
            raise ValidationError("coefficient arrays must be 1-D and of equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValidationError("coefficients must be finite")
        if b.size and b[0] != 0.0:
            raise ValidationError("sine coefficient of order zero must be 0")
        self._a = a
        self._b = b

    @classmethod
    def single_mode(cls, n, cos_amp=1.0, sin_amp=0.0):
        if n < 0:
            raise ValidationError("mode index must be >= 0")
        a = np.zeros(n + 1)
        b = np.zeros(n + 1)
        if n == 0:
            a[0] = cos_amp
            if sin_amp:
                raise ValidationError("constant mode has no sine component")
        else:
            a[n] = cos_amp
            b[n] = sin_amp
        return cls(a, b)

    @property
    def cos_coeffs(self):
        return self._a.copy()

    @property
    def sin_coeffs(self):
        return self._b.copy()

    @property
    def degree(self) -> int:
        return self._a.size - 1

    @property
    def constant_coeff(self) -> float:
        return float(self._a[0])

    def image_factor(self, R: float, constant: bool = True) -> float:
        """Slowest per-image decay of this field's Kelvin ladder with interface R.

        Mode n decays by R^(2n) per image.  The constant mode (factor 1)
        counts only when `constant` is set; a field with nothing active
        gives 0.
        """
        active = (self._a != 0.0) | (self._b != 0.0)
        if not constant:
            active[:1] = False
        n = np.flatnonzero(active)
        return R ** (2 * int(n[0])) if n.size else 0.0

    def sup_bound(self) -> float:
        """Upper bound for |u| on the closed unit disk."""
        return float(abs(self._a[0]) / 2 + np.sum(np.abs(self._a[1:])) + np.sum(np.abs(self._b[1:])))

    def _mode_sum(self, r, theta, a, b, deriv):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.full(np.broadcast(r, theta).shape, 0.0 if deriv else a[0] / 2.0)
        for n in range(1, a.size):
            if a[n] == 0.0 and b[n] == 0.0:
                continue
            rn = n * r**n if deriv else r**n
            out += rn * (a[n] * np.cos(n * theta) + b[n] * np.sin(n * theta))
        return out if out.shape else float(out)

    def value(self, r, theta):
        return self._mode_sum(r, theta, self._a, self._b, deriv=False)

    def radial_derivative(self, r, theta):
        """Radial scaling derivative r * du/dr, exact on Fourier modes."""
        return self._mode_sum(r, theta, self._a, self._b, deriv=True)

    def ladder(self, r, theta, scale, ratio, terms, deriv=False):
        """Image ladder sum_{j<terms} ratio^j u(scale^j r, theta), or of r du/dr.

        Mode n picks up q = ratio*scale^n per image, so the ladder is one
        Fourier sum with every coefficient scaled by the geometric sum
        over j: its cost does not grow with `terms`.
        """
        if not scale > 0:
            raise ValidationError("ladder scale must be > 0")
        decay = -math.log(scale) * np.arange(self._a.size)
        weights = geometric_weights(ratio, decay, terms)
        return self._mode_sum(r, theta, self._a * weights, self._b * weights, deriv)


class BoundaryTrace:
    """Sampled boundary values over a closed window of abscissae."""

    def __init__(self, abscissae, values):
        t = np.asarray(abscissae, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValidationError("trace needs matching 1-D abscissae and values")
        if t.size < 2:
            raise ValidationError("trace needs at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("trace samples must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("trace abscissae must be strictly increasing")
        self.abscissae = t
        self.values = v

    @property
    def window(self):
        return float(self.abscissae[0]), float(self.abscissae[-1])

    @classmethod
    def from_csv(cls, path):
        """Read a two-column CSV (abscissa, value).

        The first non-empty line may be a header if it has no digit in it;
        any other row that is not two numbers is rejected with its line
        number.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(number, line.strip()) for number, line in enumerate(fh, start=1) if line.strip()]
        if lines and not any(c.isdigit() for c in lines[0][1]):
            lines = lines[1:]  # header
        rows = []
        for number, line in lines:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise ValidationError(f"expected two columns in {path!s}, line {number}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValidationError(f"non-numeric row in {path!s}, line {number}: {line!r}") from None
        if len(rows) < 2:
            raise ValidationError(f"no usable samples in {path!s}")
        t, v = zip(*rows)
        return cls(np.array(t), np.array(v))


def _check_halfplane_decay(trace: BoundaryTrace):
    """Reject traces that grow toward the window ends.

    Growth at the ends breaks the tail estimate of the Poisson integral
    (the data must stay bounded by its mid-window scale).
    """
    v = np.abs(trace.values)
    n = v.size
    edge = max(n // 10, 1)
    outer = max(v[:edge].max(), v[-edge:].max())
    mid = v[n // 4 : max(n // 4 + 1, 3 * n // 4)].max()
    if outer > mid * (1.0 + 1e-9) + 1e-300:
        raise ValidationError(
            "boundary trace grows toward the window ends; "
            "it must stay bounded for the half-plane extension"
        )


class PoissonEval(NamedTuple):
    value: float
    tail_bound: float


def halfplane_poisson_eval(trace: BoundaryTrace, p, tol=1e-6) -> PoissonEval:
    """Harmonic extension of boundary samples to the point p = (x, y), x > 0.

    Trapezoid rule for (1/pi) * integral of x f(t) / (x^2 + (y-t)^2)
    over the trace window, plus a rigorous bound for the omitted tail
    assuming |f| stays below its edge magnitude outside the window.
    """
    x, y = _xy(p)
    if x <= 0:
        raise ValidationError("Poisson evaluation requires x > 0")
    _check_halfplane_decay(trace)
    t = trace.abscissae
    f = trace.values
    kernel = (x / math.pi) / (x**2 + (y - t) ** 2)
    value = float(np.trapezoid(kernel * f, t))
    edge = max(abs(f[0]), abs(f[-1]))
    lo, hi = trace.window
    left = 0.5 - math.atan((y - lo) / x) / math.pi
    right = 0.5 - math.atan((hi - y) / x) / math.pi
    tail = edge * (left + right)
    if tail > tol:
        raise WindowTooSmallError(
            f"window tail bound {tail:.3e} exceeds tolerance {tol:.3e}",
            tail_bound=tail,
        )
    return PoissonEval(value, tail)


def disk_from_boundary(trace: BoundaryTrace, n_max: int) -> DiskField:
    """Fourier projection of uniform circle samples onto disk modes 0..n_max.

    Needs M >= 2*n_max + 1 samples on a uniform grid covering [0, 2*pi).
    """
    if n_max < 0:
        raise ValidationError("mode cap must be >= 0")
    t = trace.abscissae
    v = trace.values
    m = t.size
    if m < 2 * n_max + 1:
        raise UndersamplingError(
            f"{m} samples cannot resolve modes up to {n_max}; need >= {2 * n_max + 1}"
        )
    spacing = TWO_PI / m
    d = np.diff(t)
    if not np.allclose(d, spacing, rtol=1e-8, atol=1e-10):
        raise ValidationError("circle trace must be sampled on a uniform grid")
    if not (-1e-9 <= t[0] < TWO_PI) or abs((t[-1] - t[0]) - (TWO_PI - spacing)) > 1e-8:
        raise ValidationError("circle trace must cover [0, 2*pi) exactly once")
    a = np.empty(n_max + 1)
    b = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        a[n] = 2.0 / m * float(np.sum(v * np.cos(n * t)))
        if n >= 1:
            b[n] = 2.0 / m * float(np.sum(v * np.sin(n * t)))
    return DiskField(a, b)


def laplacian_residual(evaluator: Callable, p, step: float, a: float = 1.0, inside=None) -> float:
    """Five-point stencil residual a^2*u_xx + u_yy at the point p = (x, y).

    `evaluator` is called as evaluator(x, y).  When `inside` is given,
    every stencil point must satisfy it or a StencilError is raised.
    """
    x, y = _xy(p)
    if step <= 0:
        raise ValidationError("stencil step must be > 0")
    pts = [
        (x + step, y),
        (x - step, y),
        (x, y + step),
        (x, y - step),
        (x, y),
    ]
    if inside is not None:
        for q in pts:
            if not inside(*q):
                raise StencilError(f"stencil point {q} leaves the evaluator's region")
    xp, xm, yp, ym, f0 = (float(evaluator(q[0], q[1])) for q in pts)
    return (a * a * (xp + xm - 2.0 * f0) + (yp + ym - 2.0 * f0)) / step**2
