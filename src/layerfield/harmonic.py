"""Harmonic model fields and their pointwise transforms.

Two concrete representations are used throughout the package: decaying
cosine modes (optionally with boundary point sources) on the right
half-plane, and finite Fourier sums on the unit disk.  Both evaluate
exactly on arrays.  A disk field has a half-plane view under
x = ln(1/r), y = theta, so only the half-plane field builds image
ladders (a rescaling per mode and deeper images per source) and exposes
an exact first derivative, d/dx, which is -r d/dr on the disk.  The module
also reads sampled boundary traces and projects circle traces onto disk
modes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, UndersamplingError, ValidationError

TWO_PI = 2.0 * math.pi


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
            + sum_s (q_s / pi) (x + d_s) / ((x + d_s)^2 + (y - t_s)^2)

    Every mode frequency must be >= 0.  A positive one makes its term
    harmonic, decaying along x, and integrable against the half-plane
    Poisson kernel; w = 0 is the constant mode A cos(phi) of a disk
    field's view (`DiskField.half_plane`).  The source terms are Poisson
    kernels anchored at the points (-d_s, t_s): a source is given as
    (t, q), on the boundary (d = 0), or as (t, q, d) at a depth d >= 0
    behind it.
    """

    def __init__(self, modes=(), sources=()):
        modes = [(float(a), float(w), float(p)) for (a, w, p) in modes]
        sources = [(float(t), float(q), float(d[0]) if d else 0.0) for (t, q, *d) in sources]
        for a, w, p in modes:
            if not (math.isfinite(a) and math.isfinite(w) and math.isfinite(p)):
                raise ValidationError("mode parameters must be finite")
            if w < 0:
                raise ValidationError("mode frequency must be >= 0")
        for t, q, d in sources:
            if not (math.isfinite(t) and math.isfinite(q) and math.isfinite(d) and d >= 0):
                raise ValidationError(f"source parameters must be finite, with depth >= 0, got {(t, q, d)!r}")
        self._amp = np.array([m[0] for m in modes], dtype=float)
        self._omega = np.array([m[1] for m in modes], dtype=float)
        self._phase = np.array([m[2] for m in modes], dtype=float)
        self._src_t = np.array([s[0] for s in sources], dtype=float)
        self._src_q = np.array([s[1] for s in sources], dtype=float)
        self._src_d = np.array([s[2] for s in sources], dtype=float)

    @classmethod
    def single_mode(cls, frequency, amplitude=1.0, phase=0.0):
        return cls(modes=[(amplitude, frequency, phase)])

    @property
    def modes(self):
        return list(zip(self._amp, self._omega, self._phase))

    @property
    def sources(self):
        """(t, q, d) of every source."""
        return list(zip(self._src_t, self._src_q, self._src_d))

    @property
    def has_sources(self) -> bool:
        return self._src_t.size > 0

    def image_factor(self, shift: float) -> float:
        """Slowest per-image decay of this field's ladder with the given shift.

        Mode w decays by exp(-w*shift) per image; boundary sources do not
        decay (factor 1), and a field with nothing in it gives 0.
        """
        if self.has_sources:
            return 1.0
        return math.exp(-shift * float(self._omega.min())) if self._omega.size else 0.0

    def sup_bound(self, x_min=0.0) -> float:
        """Upper bound for |u| on the slab {x >= x_min}.

        For a pure mode sum this is sum |A_m| exp(-w_m x_min).  A source
        at depth d is bounded by |q|/(pi (x_min + d)), which blows up at
        the boundary for d = 0, so a field with boundary sources has no
        automatic bound there.
        """
        total = float(np.sum(np.abs(self._amp) * np.array([np.exp(-w * x_min) if w else 1.0 for w in self._omega])))
        if self.has_sources:
            reach = x_min + self._src_d
            if np.any(reach <= 0):
                raise CapabilityError(
                    "field with boundary sources is unbounded near x=0; "
                    "supply an explicit sup bound"
                )
            total += float(np.sum(np.abs(self._src_q) / (math.pi * reach)))
        return total

    def _add_modes(self, out, x, y, deriv):
        for a, w, p in zip(self._amp, self._omega, self._phase):
            # the constant mode is A cos(phi) at x = inf (r = 0) too, where exp(-0*x) is nan
            decay = np.exp(-w * x) if w else 1.0
            if deriv:
                out += -w * a * decay * np.cos(w * y + p)
            else:
                out += a * decay * np.cos(w * y + p)

    def _add_sources(self, out, x, y, deriv):
        for t, q, d in zip(self._src_t, self._src_q, self._src_d):
            xd = x + d
            c2 = (y - t) ** 2
            if deriv:
                denom = (xd * xd + c2) ** 2
                num = c2 - xd * xd
            else:
                denom = xd * xd + c2
                num = xd
            with np.errstate(divide="ignore", invalid="ignore"):
                kernel = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), np.nan)
            out += (q / math.pi) * kernel

    def _evaluate(self, x, y, deriv):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        self._add_modes(out, x, y, deriv)
        self._add_sources(out, x, y, deriv)
        return out if out.shape else float(out)

    def value(self, x, y):
        """Evaluate at scalar or array coordinates (no domain check)."""
        return self._evaluate(x, y, deriv=False)

    def deriv_x(self, x, y):
        """Exact partial derivative in x."""
        return self._evaluate(x, y, deriv=True)

    def ladder(self, shift, ratio, terms, weight=1.0):
        """The image ladder weight * sum_{j<terms} ratio^j u(x + j*shift, y), as a field.

        The j-th image of a mode is the mode itself times q^j with
        q = ratio*exp(-w*shift), so each amplitude is scaled by
        weight * G(q, terms): the mode part costs the same at any
        `terms`.  A source's j-th image is a source at depth
        d + j*shift with charge weight * ratio^j * q, so their number
        grows with `terms`; without sources no j is walked.
        """
        weights = weight * geometric_weights(ratio, self._omega * shift, terms)
        sources = self.sources
        if sources:
            sources = [(t, weight * ratio**j * q, d + j * shift) for j in range(terms) for t, q, d in sources]
        return HalfPlaneField(zip(self._amp * weights, self._omega, self._phase), sources)


class DiskField:
    """Finite Fourier sum on the unit disk.

    u(r, theta) = a0/2 + sum_{n=1..N} r^n (a_n cos n theta + b_n sin n theta)

    Harmonic by construction: every term is a harmonic polynomial.  The
    trace at r=1 is the trigonometric polynomial with the same
    coefficients.  `dropped_mass` bounds how far that trace may lie from
    the data the field stands for: the sum over n of hypot(a_n, b_n) of
    what a projection set to 0 (see `disk_from_boundary`).  The routes add
    it to their bounds; a field built from this one (its half-plane view,
    a ladder, a companion) does not carry it.
    """

    def __init__(self, cos_coeffs, sin_coeffs=None, dropped_mass=0.0):
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
        if not (math.isfinite(dropped_mass) and dropped_mass >= 0):
            raise ValidationError(f"dropped mass must be finite and >= 0, got {dropped_mass!r}")
        self._a = a
        self._b = b
        self.dropped_mass = float(dropped_mass)

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

    def sup_bound(self) -> float:
        """Upper bound for |u| on the closed unit disk."""
        return float(abs(self._a[0]) / 2 + np.sum(np.abs(self._a[1:])) + np.sum(np.abs(self._b[1:])))

    def value(self, r, theta):
        a, b = self._a, self._b
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.full(np.broadcast(r, theta).shape, a[0] / 2.0)
        for n in range(1, a.size):
            if a[n] == 0.0 and b[n] == 0.0:
                continue
            out += r**n * (a[n] * np.cos(n * theta) + b[n] * np.sin(n * theta))
        return out if out.shape else float(out)

    def half_plane(self) -> HalfPlaneField:
        """This field on the half-plane twin x = ln(1/r), y = theta, as a field of active modes.

        r^n (a_n cos n theta + b_n sin n theta) = hypot(a_n, b_n) e^(-nx)
        cos(ny + phi_n) with phi_n = atan2(-b_n, a_n), so mode n has w = n;
        a_0/2 is the constant mode w = 0, |a_0|/2 cos(phi_0) with phi_0 = 0 or -pi.
        """
        n = np.flatnonzero((self._a != 0.0) | (self._b != 0.0))
        a, b = self._a[n], self._b[n]
        return HalfPlaneField(zip(np.where(n == 0, 0.5, 1.0) * np.hypot(a, b), n, np.arctan2(-b, a)))


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
            if len(parts) != 2:
                raise ValidationError(f"expected two columns in {path!s}, line {number}: {line!r}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValidationError(f"non-numeric row in {path!s}, line {number}: {line!r}") from None
        if len(rows) < 2:
            raise ValidationError(f"no usable samples in {path!s}")
        t, v = zip(*rows)
        return cls(np.array(t), np.array(v))


def check_circle_trace(trace: BoundaryTrace) -> None:
    """Reject a circle trace that is not one period sampled on a uniform grid.

    Its M samples must lie 2*pi/M apart and cover [0, 2*pi) exactly once,
    starting anywhere in it.
    """
    t = trace.abscissae
    spacing = TWO_PI / t.size
    if not np.allclose(np.diff(t), spacing, rtol=1e-8, atol=1e-10):
        raise ValidationError("circle trace must be sampled on a uniform grid")
    if not (-1e-9 <= t[0] < TWO_PI) or abs((t[-1] - t[0]) - (TWO_PI - spacing)) > 1e-8:
        raise ValidationError("circle trace must cover [0, 2*pi) exactly once")


def disk_from_boundary(trace: BoundaryTrace, n_max: int) -> DiskField:
    """Fourier projection of uniform circle samples onto disk modes 0..n_max.

    Needs M >= 2*n_max + 1 samples on a uniform grid covering [0, 2*pi)
    (`check_circle_trace`).  One FFT gives every coefficient.
    Every coefficient at or below the FFT's rounding floor M*eps*max|v|
    (Higham, Accuracy and Stability, 24.1) is set to 0, a_0 included,
    and the sum over n of hypot(a_n, b_n) of the zeroed parts is the
    field's `dropped_mass`: a band-limited trace projects onto its own
    modes, and rounding noise does not set the ladder's slowest ratio.
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
    check_circle_trace(trace)
    # sum_j v_j e^(-i n t_j) = e^(-i n t_0) * rfft(v)[n] on the uniform grid
    n = np.arange(n_max + 1)
    c = 2.0 / m * np.exp(-1j * n * t[0]) * np.fft.rfft(v)[: n_max + 1]
    a, b = c.real, -c.imag
    b[0] = 0.0
    floor = m * np.finfo(float).eps * np.max(np.abs(v))
    da, db = (np.where(np.abs(x) <= floor, x, 0.0) for x in (a, b))
    return DiskField(a - da, b - db, dropped_mass=float(np.sum(np.hypot(da, db))))
