"""Independent ground truth for the layered constructions.

Three unrelated routes are kept deliberately separate so they can
arbitrate each other: brute-force partial sums with geometric tail
bounds, closed-form single-mode solutions obtained by summing the image
ladders analytically, and fast-transform finite-difference solves of the
underlying boundary problems.  A residual report aggregates the checks
every candidate solution must pass: interior harmonicity, boundary
match, and interface value/flux continuity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArbiterInsufficientError, ValidationError
from .series import Geometry, RadialLayerConfig

TWO_PI = 2.0 * math.pi
#: most terms brute_series sums to reach a tail tolerance
BRUTE_CAP = 100_000


class BruteSum:
    """Partial sum with its geometric tail bound."""

    def __init__(self, value: float, tail_bound: float, terms: int):
        self.value, self.tail_bound, self.terms = value, tail_bound, terms


def brute_series(term, rho: float, M: float = 1.0, J: int | None = None,
                 tol: float = 1e-12, cap: int = BRUTE_CAP) -> BruteSum:
    """Direct partial sum of sum_j term(j) with |term(j)| <= M |rho|^j.

    Either a fixed term count J, or the first J >= 1 whose tail bound
    M |rho|^J / (1 - |rho|) is at most tol; that J must fit under `cap`
    or the arbiter refuses.  The count is made here, term by term, apart
    from the series' own.
    """
    r = abs(rho)
    if r >= 1:
        raise ValidationError("brute summation needs |rho| < 1")

    def tail(j):
        return 0.0 if r == 0.0 else M * r**j / (1.0 - r)

    if J is None:
        if not (tol > 0 and M > 0):
            raise ValidationError("tol and M must be > 0")
        if tail(cap) > tol:
            raise ArbiterInsufficientError(
                f"tail bound {tol:.3e} needs more than {cap} terms; achievable bound {tail(cap):.3e}",
                achieved=tail(cap),
                terms=cap,
            )
    total, j = 0.0, 0
    while (j < J) if J is not None else (j == 0 or tail(j) > tol):
        total += float(term(j))
        j += 1
    return BruteSum(value=total, tail_bound=tail(j), terms=j)


# ---------------------------------------------------------------------------
# closed-form single-mode solutions
# ---------------------------------------------------------------------------


class ModeExact:
    """Closed-form solution for boundary modes, summed mode by mode.

    Each method sums profile(p, *mode) * wave(q, *mode) over the modes,
    with p = x or r and q = y or theta.  `profiles` maps u1_value,
    u1_deriv and, on the coupled problems, u2_value and u2_deriv to the
    problem's closed-form profile.  Derivatives are d/dx on the plane
    and r d/dr on the disk.
    """

    def __init__(self, geometry: Geometry, modes, wave, profiles: dict):
        self.geometry = geometry
        self.modes = modes
        self.tail_bound = 0.0
        self._wave = wave
        self._profiles = profiles

    def _sum(self, name, p, q):
        profile = self._profiles[name]
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        out = np.zeros(np.broadcast(p, q).shape)
        for mode in self.modes:
            out += profile(p, *mode) * self._wave(q, *mode)
        return out if out.shape else float(out)

    def u1_value(self, p, q):
        return self._sum("u1_value", p, q)

    def u1_deriv(self, p, q):
        return self._sum("u1_deriv", p, q)

    def u2_value(self, p, q):
        return self._sum("u2_value", p, q)

    def u2_deriv(self, p, q):
        return self._sum("u2_deriv", p, q)

    value = u1_value
    deriv = u1_deriv


def _planar_wave(y, a, w, phi):
    return np.cos(w * y + phi)


def _radial_wave(theta, n, a, b):
    return a * np.cos(n * theta) + b * np.sin(n * theta)


def _strip_exact(modes, geometry: Geometry) -> ModeExact:
    """A cos(w y + phi) extends to A sinh(w (l - x)) cos(w y + phi) / sinh(w l).

    The ratio is written e^(-w x) expm1(-2 w (l - x)) / expm1(-2 w l),
    which stays finite at any w l, where sinh(w l) overflows past 710.
    """
    l = geometry.interface
    return ModeExact(geometry, modes, _planar_wave, {
        "u1_value": lambda x, a, w, _: (
            a * (np.expm1(-2.0 * w * (l - x)) / np.expm1(-2.0 * w * l)) * np.exp(-w * x)
        ),
        "u1_deriv": lambda x, a, w, _: (
            a * w * np.exp(-w * x) * (1.0 + np.exp(-2.0 * w * (l - x))) / np.expm1(-2.0 * w * l)
        ),
    })


def _planar_coupled_exact(modes, geometry: Geometry) -> ModeExact:
    """The coupled half-plane ladder summed geometrically: denominator 1 - rho e^(-2 l w)."""
    l, rho, stretch = geometry.interface, geometry.rho, geometry.stretch
    transmit = 2 * geometry.k / (geometry.k + 1)

    def denom(w):
        return 1.0 - rho * math.exp(-2.0 * l * w)

    return ModeExact(geometry, modes, _planar_wave, {
        "u1_value": lambda x, a, w, _: a / denom(w) * (np.exp(-w * x) - rho * np.exp(-w * (2 * l - x))),
        "u1_deriv": lambda x, a, w, _: a / denom(w) * w * (-np.exp(-w * x) - rho * np.exp(-w * (2 * l - x))),
        "u2_value": lambda x, a, w, _: transmit * a / denom(w) * np.exp(-w * (stretch * (x - l) + l)),
        "u2_deriv": lambda x, a, w, _: (
            -w * stretch * (transmit * a / denom(w)) * np.exp(-w * (stretch * (x - l) + l))
        ),
    })


def _radial_exact(modes, geometry: Geometry) -> ModeExact:
    """(r^n - rho (R^2/r)^n) / (1 - rho R^(2n)) per mode, and the transmitted r^n inside.

    rho = 1 is the annulus Dirichlet solution (r^n - (R^2/r)^n)/(1 - R^(2n)),
    whose constant mode n = 0 is ln(r/R)/ln(1/R), with r d/dr = 1/ln(1/R);
    otherwise the coupled disk ladder summed geometrically, where the
    constant mode is 1 in both layers.
    """
    R, rho = geometry.interface, geometry.rho
    log_constant = not geometry.coupled

    def denom(n):
        return 1.0 - rho * R ** (2 * n)

    def value(r, n, *_):
        if n == 0 and log_constant:
            return np.log(r / R) / math.log(1.0 / R)
        return (r**n - rho * (R**2 / r) ** n) / denom(n)

    def deriv(r, n, *_):
        if n == 0 and log_constant:
            return np.full(r.shape, 1.0 / math.log(1.0 / R))
        return n * (r**n + rho * (R**2 / r) ** n) / denom(n)

    profiles = {"u1_value": value, "u1_deriv": deriv}
    if geometry.coupled:
        transmit = 2 * geometry.k / (geometry.k + 1)
        profiles["u2_value"] = lambda r, n, *_: transmit * r**n / denom(n)
        profiles["u2_deriv"] = lambda r, n, *_: transmit * n * r**n / denom(n)
    return ModeExact(geometry, modes, _radial_wave, profiles)


def _radial_modes(modes):
    out = []
    for n, a, b in modes:
        if n < 0:
            raise ValidationError("radial mode solution needs n >= 0")
        out.append((int(n), float(a), float(b)))
    return out


def mode_exact(geometry: Geometry, modes) -> ModeExact:
    """Closed-form solution for single- or multi-mode boundary data on `geometry`.

    Planar modes are (amplitude, frequency, phase); radial modes are
    (n, cos_amp, sin_amp) with n >= 0, where n = 0 is the constant
    boundary value cos_amp.
    """
    if not isinstance(geometry, Geometry):
        raise ValidationError(f"mode_exact needs a Geometry, got {geometry!r}")
    if geometry.radial:
        return _radial_exact(_radial_modes(modes), geometry)
    modes = [(float(a), float(w), float(p)) for a, w, p in modes]
    if geometry.coupled:
        return _planar_coupled_exact(modes, geometry)
    return _strip_exact(modes, geometry)


# ---------------------------------------------------------------------------
# finite-difference solvers
# ---------------------------------------------------------------------------


class GridSolution:
    """Node values of a finite-difference solve on a structured grid of `geometry`."""

    def __init__(self, geometry: Geometry, axes: tuple, values: np.ndarray, spacings: tuple,
                 meta: dict | None = None):
        self.geometry, self.axes, self.values, self.spacings = geometry, axes, values, spacings
        self.meta = {} if meta is None else meta

    def to_csv(self, path):
        """Write the grid in the solve format, as the CLI's solve does."""
        from .gridcsv import write_solve_csv  # loaded by the commands that write a CSV

        write_solve_csv(path, self.geometry, *self.axes, self.values)


class ModeSystem:
    """An FD system split by a transform into one tridiagonal system per mode.

    Row i of mode m reads
    lower[i, m] x[i-1, m] + diag[i, m] x[i, m] + upper[i, m] x[i+1, m] = rhs[i, m];
    lower[0] and upper[-1] are unused.  `shape` is that of the grid
    system before the transform, one row per unknown node, and `nnz`
    counts the stored coefficients.
    """

    def __init__(self, lower, diag, upper, unknowns: int):
        self.lower, self.diag, self.upper = lower, diag, upper
        self.shape = (unknowns, unknowns)
        self.nnz = lower.size + diag.size + upper.size


def spsolve(system: ModeSystem, rhs):
    """Solve the tridiagonal systems of `system` for `rhs`, rows by modes.

    One Thomas sweep down the rows and back, each step one array
    operation over all modes.  It does not pivot: every row but the
    disk's flux row is diagonally dominant.  Every FD solve goes through
    here.
    """
    lower, diag, upper = system.lower, system.diag, system.upper
    ratio = np.empty(diag.shape)
    x = np.empty(rhs.shape, dtype=rhs.dtype)
    ratio[0] = upper[0] / diag[0]
    x[0] = rhs[0] / diag[0]
    for i in range(1, diag.shape[0]):
        pivot = diag[i] - lower[i] * ratio[i - 1]
        ratio[i] = upper[i] / pivot
        x[i] = (rhs[i] - lower[i] * x[i - 1]) / pivot
    for i in range(diag.shape[0] - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


def _dst1(v):
    """DST-I along the last axis, from the rfft of the odd extension.

    Entry p is sum_n v[n] sin(pi (p+1) (n+1) / (K+1)) for K = v.shape[-1];
    applying it twice multiplies by (K+1)/2.
    """
    zero = np.zeros(v.shape[:-1] + (1,))
    odd = np.concatenate([zero, v, zero, -v[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1:v.shape[-1] + 1]


def fd_strip(boundary_fn, l: float, y_window, n_x: int, n_y: int, lateral_fn=None) -> GridSolution:
    """5-point solve of the strip Dirichlet problem, by a DST-I in y.

    boundary_fn(y) supplies the data on x=0; the x=l side is 0; lateral
    edges default to 0 (use lateral_fn for data that does not decay in y).
    Both are called once, on the node arrays: boundary_fn(y) and
    lateral_fn(x, y_edge) for each lateral edge.
    """
    geometry = Geometry("strip", l)
    if n_x < 3 or n_y < 3:
        raise ValidationError("need at least a 3x3 grid")
    y0, y1 = float(y_window[0]), float(y_window[1])
    x = np.linspace(0.0, l, n_x)
    y = np.linspace(y0, y1, n_y)
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    u = np.zeros((n_x, n_y))
    if lateral_fn is not None:
        u[:, 0] = lateral_fn(x, y0)
        u[:, -1] = lateral_fn(x, y1)
    u[0, :] = boundary_fn(y)
    u[-1, :] = 0.0

    # u is still zero inside, so the neighbour sums are the known edge terms
    cx, cy = 1.0 / dx**2, 1.0 / dy**2
    rhs = -(cx * (u[2:, 1:-1] + u[:-2, 1:-1]) + cy * (u[1:-1, 2:] + u[1:-1, :-2]))
    # the y neighbours of DST mode p sum to 2 cos(pi p / (n_y-1)) times it
    wave = np.sin(np.pi * np.arange(1, n_y - 1) / (2 * (n_y - 1))) ** 2
    side = np.broadcast_to(cx, rhs.shape)
    system = ModeSystem(side, np.broadcast_to(-2.0 * cx - 4.0 * cy * wave, rhs.shape), side, rhs.size)
    u[1:-1, 1:-1] = _dst1(spsolve(system, _dst1(rhs))) * (2.0 / (n_y - 1))
    return GridSolution(geometry, (x, y), u, (dx, dy))


def _theta_waves(n_theta):
    """sin^2(pi m / n_theta) for the rfft modes m: the theta neighbours of
    mode m sum to 2 cos(2 pi m / n_theta) = 2 - 4 sin^2(pi m / n_theta) times it."""
    return np.sin(np.pi * np.arange(n_theta // 2 + 1) / n_theta) ** 2


def _polar_rows(ring, dr, dth, wave):
    """Lower, diagonal and upper per-mode coefficients of the polar 5-point rows at radii `ring`."""
    ring = ring[:, None]
    cr = 1.0 / dr**2
    cc = 1.0 / (2.0 * ring * dr)
    ct = 1.0 / (np.float_power(ring, 2) * dth**2)
    return cr - cc, -2.0 * cr - 4.0 * ct * wave, cr + cc


def fd_annulus(boundary_fn, R: float, n_r: int, n_theta: int) -> GridSolution:
    """Polar 5-point solve of the annulus Dirichlet problem, by an rfft in theta.

    boundary_fn(theta) on r=1, called once on the theta nodes; zero data
    on r=R, periodic in theta.
    """
    geometry = Geometry("annulus", R)
    if n_r < 3 or n_theta < 8:
        raise ValidationError("need n_r >= 3, n_theta >= 8")
    r = np.linspace(R, 1.0, n_r)
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    dr = r[1] - r[0]
    dth = TWO_PI / n_theta
    u = np.zeros((n_r, n_theta))
    u[-1, :] = boundary_fn(theta)

    # rows: rings 1..n_r-2
    lower, diag, upper = np.broadcast_arrays(*_polar_rows(r[1:-1], dr, dth, _theta_waves(n_theta)))
    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[-1] = -upper[-1] * np.fft.rfft(u[-1])
    sol = spsolve(ModeSystem(lower, diag, upper, (n_r - 2) * n_theta), rhs)
    u[1:-1] = np.fft.irfft(sol, n=n_theta, axis=1)
    return GridSolution(geometry, (r, theta), u, (dr, dth))


def fd_disk_coupled(boundary_fn, config: RadialLayerConfig, n_r: int, n_theta: int) -> GridSolution:
    """Two-region polar solve of the coupled disk problem, by an rfft in theta.

    Value continuity holds by sharing the interface unknowns; the flux
    row enforces k * du/dr(R+) = du/dr(R-) with one-sided second-order
    differences.  The r=0 row uses the discrete mean-value property.
    boundary_fn(theta) on r=1 is called once on the theta nodes.  The
    interface ring is at r = R exactly.
    """
    if not isinstance(config, RadialLayerConfig):
        raise ValidationError("config must be a RadialLayerConfig")
    if n_r < 8 or n_theta < 8:
        raise ValidationError("need n_r >= 8 and n_theta >= 8")
    R, k = config.R, config.k
    m_in = max(3, round(n_r * R))
    m_out = max(3, n_r - m_in)
    dr_in = R / m_in
    dr_out = (1.0 - R) / m_out
    radii = np.concatenate([np.arange(m_in) * dr_in, R + np.arange(m_out + 1) * dr_out])
    n_rad = radii.size  # index of interface is m_in, boundary is n_rad-1
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    dth = TWO_PI / n_theta
    u = np.zeros((n_rad, n_theta))
    u[-1, :] = boundary_fn(theta)

    # rows: the centre, then rings 1..n_rad-2; row 0 holds the rfft of a
    # ring of centre values, n_theta u(0) in mode 0 and nothing elsewhere
    wave = _theta_waves(n_theta)
    lower, diag, upper = (np.zeros((n_rad - 1, wave.size)) for _ in range(3))
    # centre: the mean-value property over the first ring, mode 0 only
    diag[0] = 1.0
    upper[0, 0] = -1.0
    for lo, hi, dr in ((1, m_in, dr_in), (m_in + 1, n_rad - 1, dr_out)):
        lower[lo:hi], diag[lo:hi], upper[lo:hi] = _polar_rows(radii[lo:hi], dr, dth, wave)
    # flux matching row: k * forward(R+) - backward(R-) = 0; its entries
    # -b at ring m_in-2 and -f at m_in+2 are eliminated with the rows of
    # rings m_in-1 and m_in+1, whose right-hand sides are zero
    f = k / (2.0 * dr_out)
    b = 1.0 / (2.0 * dr_in)
    below = b / lower[m_in - 1]
    above = f / upper[m_in + 1]
    lower[m_in] = 4.0 * b + below * diag[m_in - 1]
    diag[m_in] = -3.0 * f - 3.0 * b + below * upper[m_in - 1] + above * lower[m_in + 1]
    upper[m_in] = 4.0 * f + above * diag[m_in + 1]

    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[-1] = -upper[-1] * np.fft.rfft(u[-1])
    sol = spsolve(ModeSystem(lower, diag, upper, 1 + (n_rad - 2) * n_theta), rhs)
    u[0] = sol[0, 0].real / n_theta
    u[1:-1] = np.fft.irfft(sol[1:], n=n_theta, axis=1)
    return GridSolution(config, (radii, theta), u, (dr_in, dr_out, dth), {"interface_index": m_in})


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------


class ErrorReport:
    """Maxima of the defect checks over a sample plan."""

    def __init__(self, pde_residual: float, boundary_mismatch: float, value_jump: float, flux_jump: float):
        self.pde_residual, self.boundary_mismatch = pde_residual, boundary_mismatch
        self.value_jump, self.flux_jump = value_jump, flux_jump


def _fd_weights(offsets):
    """Finite-difference weights for f' on the node offsets (a transposed Vandermonde solve)."""
    n = offsets.size
    rhs = np.zeros(n)
    rhs[1] = 1.0
    return np.linalg.solve(np.vander(offsets, n, increasing=True).T, rhs)


def _one_sided_dx(fn, x, y, step, side):
    """Fourth-order one-sided derivative at x, for every y, from nodes 5..9 steps inside.

    The offset keeps every sample strictly on one side of the interface.
    """
    offsets = np.array([5, 6, 7, 8, 9], dtype=float) * (1.0 if side > 0 else -1.0)
    w = _fd_weights(offsets)
    return w @ fn(x + offsets[:, None] * step, y) / step


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


#: points on each mean-value ring of residual_report; the ring mean of a
#: harmonic function is exact up to its terms of degree RING
RING = 32
#: the plastic number g, root of g^3 = g + 1, whose powers 1/g and 1/g^2
#: step the R2 sequence (Roberts 2018)
PLASTIC = 1.324717957244746


def _r2_plan(n):
    """n points of the R2 low-discrepancy sequence in the unit square, shape (2, n).

    Point i is frac(0.5 + i/g^k) in coordinate k = 1, 2: deterministic, and
    spread evenly over the square at any n.
    """
    steps = np.array([1.0 / PLASTIC, 1.0 / PLASTIC**2])[:, None]
    return (0.5 + steps * np.arange(n)) % 1.0


def residual_report(solution, boundary_field, flux: str = "auto") -> ErrorReport:
    """Check a candidate solution against its defining conditions.

    The solution's `geometry` says where its layers lie and what they
    solve: Laplace's equation, a2^2 u_xx + u_yy = 0 in the coupled
    half-plane's layer 2, and u1 = u2, k u1_x = a2 u2_x at the interface
    (k r u1_r = r u2_r on the disk).  Each check is one array call per
    layer over 50 samples, placed by the R2 sequence (`_r2_plan`) over
    each layer's span, and over the boundary and the interface by its
    second coordinate.  The PDE residual is the discrete
    mean-value property, 4 (ring mean - centre) / rho^2, on a ring of
    RING points of radius rho = h about each sample, given as Cartesian
    offsets (mapped back to polar coordinates on the disk).  Layer 2 of
    the half-plane takes the ring in its stretched coordinate: x offsets
    h cos(t), y offsets (h/a2) sin(t).  The step h is the geometry's
    `residual_step`, so that every sample sits at least two steps inside
    its layer.  flux: "auto"
    uses the solution's exact derivatives u1_deriv and u2_deriv; "fd"
    takes one-sided fourth-order differences five steps away from the
    interface instead.
    """
    n_samples = 50
    unit_p, unit_q = _r2_plan(n_samples)
    geo = solution.geometry
    s = geo.interface
    h = geo.residual_step

    # the ring's points, then the centre
    angles = TWO_PI * np.arange(RING) / RING
    cos = np.append(np.cos(angles), 0.0)[:, None]
    sin = np.append(np.sin(angles), 0.0)[:, None]
    if geo.radial:
        across, edge = (0.0, TWO_PI), 1.0
        spans = [(s + 2 * h, 1.0 - 2 * h), (2 * h, s - 2 * h)]

        def stencil(fn, r, t, dx, dy):
            x = r * np.cos(t) + dx
            y = r * np.sin(t) + dy
            return fn(np.hypot(x, y), np.arctan2(y, x))
    else:
        across, edge = (-1.0, 1.0), 0.0
        spans = [(2 * h, s - 2 * h), (s + 2 * h, s + 2.0)]

        def stencil(fn, x, y, dx, dy):
            return fn(x + dx, y + dy)

    layers = [(solution.u1_value, 1.0)]
    if geo.coupled:
        layers.append((solution.u2_value, geo.a2))
    qs = across[0] + (across[1] - across[0]) * unit_q
    pde = 0.0
    for (lo, hi), (fn, a) in zip(spans, layers):
        values = stencil(fn, lo + (hi - lo) * unit_p, qs, h * cos, (h / a) * sin)
        pde = max(pde, _max_abs(4.0 * (a / h) ** 2 * (values[:-1].mean(axis=0) - values[-1])))
    bmis = _max_abs(solution.u1_value(edge, qs) - boundary_field.value(edge, qs))

    if not geo.coupled:
        return ErrorReport(
            pde_residual=pde,
            boundary_mismatch=max(bmis, _max_abs(solution.u1_value(s, qs))),
            value_jump=0.0,
            flux_jump=0.0,
        )

    vjump = _max_abs(solution.u1_value(s, qs) - solution.u2_value(s, qs))
    # Geometry's flux condition k u1_x = a2 u2_x, divided by a2
    weight = geo.k * geo.stretch
    if flux == "fd":
        # layer 1 lies above the interface on the disk, below it on the
        # plane; r d/dr is the radial flux
        side, scale = (1, s) if geo.radial else (-1, 1.0)
        fjump = _max_abs(
            weight * scale * _one_sided_dx(solution.u1_value, s, qs, h, side=side)
            - scale * _one_sided_dx(solution.u2_value, s, qs, h, side=-side)
        )
    else:
        fjump = _max_abs(weight * solution.u1_deriv(s, qs) - solution.u2_deriv(s, qs))
    return ErrorReport(pde_residual=pde, boundary_mismatch=bmis, value_jump=vjump, flux_jump=fjump)
