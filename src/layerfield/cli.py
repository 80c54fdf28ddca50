"""Command-line front end.

Problems are described by a JSON config (fail-closed: unknown keys are
rejected), solved by the image-ladder series, the thin-layer
approximations, or the built-in oracles, and written out as grid CSV
plus JSON reports.

Exit codes: 0 ok, 1 verification failure, 2 validation error,
3 convergence failure, 4 regime warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .asymptotics import (
    annulus_thin_layer,
    disk_large_contrast,
    disk_small_contrast,
    halfplane_large_contrast,
    halfplane_small_contrast,
    strip_thin_layer,
)
from .errors import ConvergenceError, LayerFieldError, ValidationError
from .harmonic import BoundaryTrace, DiskField, HalfPlaneField, disk_from_boundary
from .oracle import fd_annulus, fd_disk_coupled, fd_strip, mode_exact, residual_report
from .series import (
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    annulus_dirichlet,
    convergence_diagnostic,
    disk_coupled,
    geometric_tail_terms,
    halfplane_coupled,
    strip_dirichlet,
)

TWO_PI = 2.0 * math.pi

PROBLEMS = ("strip", "halfplane_coupled", "disk_coupled", "annulus")
METHODS = ("series", "asymptotic", "oracle", "identity")
RADIAL = ("disk_coupled", "annulus")

_TOP_KEYS = {
    "problem", "geometry", "boundary", "method", "methods", "truncation",
    "grid", "sweep", "output", "tolerances", "regime",
}
_GEOMETRY_KEYS = {
    "strip": {"l"},
    "halfplane_coupled": {"l", "k", "a1", "a2", "lambda1", "lambda2"},
    "disk_coupled": {"R", "k"},
    "annulus": {"R"},
}
#: largest radial mode index accepted from a config; a disk field stores
#: dense coefficient arrays up to its highest index
MAX_RADIAL_MODE = 10_000

# pde_residual is dominated by 5-point stencil truncation at the default
# step (1e-3), not by solution error; the bound reflects that
_DEFAULT_TOLS = {
    "pde_residual": 1e-5,
    "boundary_mismatch": 1e-8,
    "value_jump": 1e-8,
    "flux_jump": 1e-8,
}


def _reject_unknown(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown {where} field(s): {sorted(unknown)}")


def _number(value, what, kind=float):
    """Convert a config value with `kind`, failing validation instead of raising."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    problem = cfg.get("problem")
    if problem not in PROBLEMS:
        raise ValidationError(f"problem must be one of {PROBLEMS}")
    geometry = cfg.get("geometry")
    if not isinstance(geometry, dict):
        raise ValidationError("config needs a geometry object")
    _reject_unknown(geometry, _GEOMETRY_KEYS[problem], f"{problem} geometry")
    boundary = cfg.get("boundary")
    if not isinstance(boundary, dict):
        raise ValidationError("config needs a boundary object")
    _reject_unknown(boundary, {"modes", "samples"}, "boundary")
    if ("modes" in boundary) == ("samples" in boundary):
        raise ValidationError("boundary needs exactly one of 'modes' or 'samples'")
    if "truncation" in cfg:
        _reject_unknown(cfg["truncation"], {"J", "tol", "sup_bound"}, "truncation")
    if "grid" in cfg:
        allowed = {"r", "theta"} if problem in RADIAL else {"x", "y"}
        _reject_unknown(cfg["grid"], allowed, "grid")
    if "sweep" in cfg:
        _reject_unknown(cfg["sweep"], {"l", "R"}, "sweep")
    if "tolerances" in cfg:
        _reject_unknown(cfg["tolerances"], set(_DEFAULT_TOLS), "tolerances")
    if "regime" in cfg:
        _reject_unknown(cfg["regime"], {"tol", "threshold"}, "regime")
    if "output" in cfg:
        _reject_unknown(cfg["output"], {"path"}, "output")
    return cfg


def geometry_config(cfg):
    problem = cfg["problem"]
    g = cfg["geometry"]
    if problem == "strip":
        l = g.get("l")
        if not (isinstance(l, (int, float)) and l > 0):
            raise ValidationError("strip geometry needs l > 0")
        return float(l)
    if problem == "annulus":
        R = g.get("R")
        if not (isinstance(R, (int, float)) and 0 < R < 1):
            raise ValidationError("annulus geometry needs R in (0, 1)")
        return float(R)
    if problem == "halfplane_coupled":
        return PlanarLayerConfig(
            l=g.get("l", 0.0),
            k=g.get("k", 0.0),
            a1=g.get("a1", 1.0),
            a2=g.get("a2", 1.0),
            lambda1=None if g.get("lambda1") is None else _number(g["lambda1"], "lambda1"),
            lambda2=None if g.get("lambda2") is None else _number(g["lambda2"], "lambda2"),
        )
    return RadialLayerConfig(R=_number(g.get("R", 0.0), "R"), k=_number(g.get("k", 0.0), "k"))


def _planar_modes(raw):
    if not isinstance(raw, list):
        raise ValidationError("boundary modes must be a list")
    modes = []
    for m in raw:
        _reject_unknown(m, {"omega", "A", "phi"}, "planar mode")
        if "omega" not in m:
            raise ValidationError("planar mode needs omega")
        modes.append((
            _number(m.get("A", 1.0), "planar mode A"),
            _number(m["omega"], "planar mode omega"),
            _number(m.get("phi", 0.0), "planar mode phi"),
        ))
    return modes


def _radial_modes(raw):
    if not isinstance(raw, list):
        raise ValidationError("boundary modes must be a list")
    modes = []
    for m in raw:
        _reject_unknown(m, {"n", "a", "b"}, "radial mode")
        if "n" not in m:
            raise ValidationError("radial mode needs n")
        n = _number(m["n"], "radial mode n", int)
        if not 0 <= n <= MAX_RADIAL_MODE:
            raise ValidationError(f"radial mode n must lie in [0, {MAX_RADIAL_MODE}], got {n}")
        modes.append((
            n,
            _number(m.get("a", 1.0), "radial mode a"),
            _number(m.get("b", 0.0), "radial mode b"),
        ))
    return modes


def boundary_field(cfg, config_dir="."):
    """Build the model field from the boundary block."""
    problem = cfg["problem"]
    boundary = cfg["boundary"]
    if "modes" in boundary:
        if problem in RADIAL:
            modes = _radial_modes(boundary["modes"])
            n_max = max(n for n, _, _ in modes) if modes else 0
            a = np.zeros(n_max + 1)
            b = np.zeros(n_max + 1)
            for n, ca, sa in modes:
                if n == 0:
                    a[0] += 2.0 * ca  # constant boundary value ca -> coefficient 2*ca
                    if sa:
                        raise ValidationError("constant mode has no sine part")
                else:
                    a[n] += ca
                    b[n] += sa
            return DiskField(a, b)
        return HalfPlaneField(modes=_planar_modes(boundary["modes"]))
    path = boundary["samples"]
    if not os.path.isabs(path):
        path = os.path.join(config_dir, path)
    trace = BoundaryTrace.from_csv(path)
    if problem in RADIAL:
        n_max = (trace.abscissae.size - 1) // 2
        return disk_from_boundary(trace, n_max)
    raise ValidationError(
        "planar sample-backed boundaries are supported via method='oracle' only; "
        "use modes for the series and asymptotic methods"
    )


def truncation_policy(cfg):
    t = cfg.get("truncation", {})
    if "J" in t and "tol" in t:
        raise ValidationError("truncation takes either J or tol, not both")
    if "J" in t:
        return MaxTerms(_number(t["J"], "truncation J", int))
    sup = t.get("sup_bound")
    return TailTol(
        _number(t.get("tol", 1e-10), "truncation tol"),
        sup_bound=None if sup is None else _number(sup, "truncation sup_bound"),
    )


def _modes_for_oracle(cfg):
    if "modes" not in cfg["boundary"]:
        raise ValidationError("the closed-form oracle needs mode boundary data")
    if cfg["problem"] in RADIAL:
        return _radial_modes(cfg["boundary"]["modes"])
    return _planar_modes(cfg["boundary"]["modes"])


class IdentitySolution:
    """The untransformed model field presented as a candidate solution."""

    def __init__(self, field, problem, geo):
        self.field = field
        self.kind = problem
        self._geo = geo
        self.tail_bound = None
        if problem == "strip":
            self.l = geo
        elif problem == "annulus":
            self.R = geo
        else:
            self.config = geo

    def value(self, a, b):
        return self.field.value(a, b)

    def deriv_x(self, a, b):
        return self.field.deriv_x(a, b)

    def radial_derivative(self, a, b):
        return self.field.radial_derivative(a, b)

    u1_value = value
    u2_value = value

    def u1_deriv_x(self, a, b):
        return self.field.deriv_x(a, b)

    u2_deriv_x = u1_deriv_x

    def u1_radial_derivative(self, a, b):
        return self.field.radial_derivative(a, b)

    u2_radial_derivative = u1_radial_derivative

    def classify(self, p):
        from .harmonic import as_point2, as_polar

        if self.kind == "strip":
            return "layer1" if 0 <= as_point2(p).x <= self.l else "outside"
        if self.kind == "annulus":
            return "layer1" if self.R <= as_polar(p).r <= 1 + 1e-12 else "outside"
        if self.kind == "halfplane_coupled":
            x = as_point2(p).x
            if x < 0:
                return "outside"
            return "layer1" if x <= self.config.l else "layer2"
        r = as_polar(p).r
        if r > 1 + 1e-12:
            return "outside"
        return "layer2" if r < self.config.R else "layer1"


def build_solution(cfg, method, field, geo, trunc):
    """Assemble the evaluator for one (problem, method) pair."""
    problem = cfg["problem"]
    if method == "identity":
        return IdentitySolution(field, problem, geo)
    if method == "series":
        if problem == "strip":
            return strip_dirichlet(field, geo, trunc)
        if problem == "annulus":
            return annulus_dirichlet(field, geo, trunc)
        if problem == "halfplane_coupled":
            return halfplane_coupled(field, geo, trunc)
        return disk_coupled(field, geo, trunc)
    if method == "asymptotic":
        if problem == "strip":
            return strip_thin_layer(field, geo).solution
        if problem == "annulus":
            return annulus_thin_layer(field, geo).solution
        if problem == "halfplane_coupled":
            if geo.k == 1.0:
                raise ValidationError("k=1 has rho=0; the series is exact, use it")
            res = halfplane_small_contrast(field, geo) if geo.k < 1 else halfplane_large_contrast(field, geo)
            return res.solution
        if geo.k == 1.0:
            raise ValidationError("k=1 has rho=0; the series is exact, use it")
        res = disk_small_contrast(field, geo) if geo.k < 1 else disk_large_contrast(field, geo)
        return res.solution
    if method == "oracle":
        modes = _modes_for_oracle(cfg)
        if problem == "strip":
            return mode_exact("strip", modes, l=geo)
        if problem == "annulus":
            return mode_exact("annulus", modes, R=geo)
        if problem == "halfplane_coupled":
            return mode_exact("halfplane_coupled", modes, config=geo)
        return mode_exact("disk_coupled", modes, config=geo)
    raise ValidationError(f"method must be one of {METHODS}")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _axis(triple, name):
    if (not isinstance(triple, (list, tuple))) or len(triple) != 3:
        raise ValidationError(f"grid axis {name} must be [start, stop, count]")
    start = _number(triple[0], f"grid axis {name} start")
    stop = _number(triple[1], f"grid axis {name} stop")
    count = _number(triple[2], f"grid axis {name} count", int)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"grid axis {name} must have finite ends")
    if count < 1 or stop < start:
        raise ValidationError(f"grid axis {name} must have stop >= start and count >= 1")
    return np.linspace(start, stop, count)


def build_grid(cfg, geo):
    problem = cfg["problem"]
    grid = cfg.get("grid")
    if grid is None:
        raise ValidationError("config needs a grid for this command")
    eps = 1e-9
    if problem in RADIAL:
        r = _axis(grid.get("r"), "r")
        theta = _axis(grid.get("theta"), "theta")
        if r[0] < -eps or r[-1] > 1.0 + eps:
            raise ValidationError("grid radius must stay inside the unit disk")
        if problem == "annulus" and r[0] < geo - eps:
            raise ValidationError("annulus grid must keep r >= R")
        return r, theta
    x = _axis(grid.get("x"), "x")
    y = _axis(grid.get("y"), "y")
    if x[0] < -eps:
        raise ValidationError("grid must keep x >= 0")
    if problem == "strip":
        l = geo
        if x[-1] > l + eps:
            raise ValidationError("strip grid must keep x <= l")
    return x, y


def _region_code(solution, problem, c1):
    if problem == "strip" or problem == "annulus":
        return "1"
    if problem == "halfplane_coupled":
        return "1" if c1 <= solution.config.l else "2"
    return "2" if c1 < solution.config.R else "1"


def _row_values(solution, problem, c1, axis2):
    if problem == "strip":
        return solution.value(c1, axis2)
    if problem == "annulus":
        return solution.value(c1, axis2)
    if problem == "halfplane_coupled":
        fn = solution.u1_value if c1 <= solution.config.l else solution.u2_value
        return fn(c1, axis2)
    fn = solution.u2_value if c1 < solution.config.R else solution.u1_value
    return fn(c1, axis2)


def evaluate_grid(solution, problem, axis1, axis2, threads=1):
    """Values on the tensor grid, rows split across threads, assembled in order."""
    rows = [None] * axis1.size

    def work(i):
        rows[i] = np.atleast_1d(np.asarray(_row_values(solution, problem, float(axis1[i]), axis2), dtype=float))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(axis1.size)))
    else:
        for i in range(axis1.size):
            work(i)
    return np.vstack(rows)


def write_grid_csv(path, problem, solution, axis1, axis2, values):
    header = "r,theta,region,u" if problem in RADIAL else "x,y,region,u"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, c1 in enumerate(axis1):
            region = _region_code(solution, problem, float(c1))
            for j, c2 in enumerate(axis2):
                fh.write(f"{float(c1)!r},{float(c2)!r},{region},{float(values[i, j])!r}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _thread_count(args):
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("LAYERFIELD_THREADS")
    return max(1, _number(env, "LAYERFIELD_THREADS", int)) if env else 1


def _out_path(cfg, args, default):
    if args.out:
        return args.out
    if "output" in cfg and "path" in cfg["output"]:
        return cfg["output"]["path"]
    return default


def _regime_diagnostic(cfg, geo):
    reg = cfg.get("regime", {})
    return convergence_diagnostic(
        geo,
        tol=_number(reg.get("tol", 1e-10), "regime tol"),
        threshold=_number(reg.get("threshold", 1000), "regime threshold", int),
    )


def _strict_regime_gate(cfg, geo, args):
    diag = _regime_diagnostic(cfg, geo)
    if diag.recommendation != "series":
        print(
            json.dumps(
                {
                    "error": "regime warning escalated",
                    "rho": diag.rho,
                    "j_needed": diag.j_needed,
                    "recommendation": diag.recommendation,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return True
    return False


def cmd_solve(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    method = cfg.get("method", "series")
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}")
    if args.strict and method == "series" and problem in ("halfplane_coupled", "disk_coupled"):
        if _strict_regime_gate(cfg, geo, args):
            return 4
    if method == "oracle" and "samples" in cfg["boundary"]:
        return _solve_fd(cfg, args, geo)
    field = boundary_field(cfg, config_dir=os.path.dirname(os.path.abspath(args.config)))
    trunc = truncation_policy(cfg)
    solution = build_solution(cfg, method, field, geo, trunc)
    axis1, axis2 = build_grid(cfg, geo)
    values = evaluate_grid(solution, problem, axis1, axis2, threads=_thread_count(args))
    out = _out_path(cfg, args, "grid.csv")
    write_grid_csv(out, problem, solution, axis1, axis2, values)
    summary = {"problem": problem, "method": method, "rows": int(values.size), "output": out}
    if getattr(solution, "tail_bound", None) not in (None, float("inf")):
        summary["tail_bound"] = solution.tail_bound
    if hasattr(solution, "terms"):
        summary["terms"] = solution.terms
    print(json.dumps(summary, sort_keys=True))
    return 0


def _solve_fd(cfg, args, geo) -> int:
    """FD fallback for sample-backed boundaries."""
    problem = cfg["problem"]
    path = cfg["boundary"]["samples"]
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(args.config)), path)
    trace = BoundaryTrace.from_csv(path)
    grid = cfg.get("grid")
    if grid is None:
        raise ValidationError("config needs a grid for this command")
    if problem == "strip":
        x = _axis(grid.get("x"), "x")
        y = _axis(grid.get("y"), "y")
        fn = lambda yy: float(np.interp(yy, trace.abscissae, trace.values))
        gs = fd_strip(fn, geo, (y[0], y[-1]), x.size, y.size)
    elif problem == "annulus":
        r = _axis(grid.get("r"), "r")
        theta = _axis(grid.get("theta"), "theta")
        fn = lambda t: float(np.interp(t % TWO_PI, trace.abscissae, trace.values, period=TWO_PI))
        gs = fd_annulus(fn, geo, r.size, theta.size)
    elif problem == "disk_coupled":
        r = _axis(grid.get("r"), "r")
        theta = _axis(grid.get("theta"), "theta")
        fn = lambda t: float(np.interp(t % TWO_PI, trace.abscissae, trace.values, period=TWO_PI))
        gs = fd_disk_coupled(fn, geo, r.size, theta.size)
    else:
        raise ValidationError("no bounded-domain oracle for the coupled half-plane")
    out = _out_path(cfg, args, "grid.csv")
    gs.to_csv(out)
    print(json.dumps({"problem": problem, "method": "oracle", "output": out}, sort_keys=True))
    return 0


def _sweep_points(problem, geo):
    """Relative sample plan reused across a thickness sweep."""
    if problem == "halfplane_coupled":
        x1 = geo.l * np.linspace(0.05, 0.95, 10)
        x2 = geo.l + np.linspace(0.02, 1.0, 10)
        ys = np.linspace(-1.0, 1.0, 7)
        return ("planar", x1, x2, ys)
    R = geo.R
    r1 = R + (1.0 - R) * np.linspace(0.05, 0.95, 10)
    r2 = R * np.linspace(0.3, 0.95, 10)
    ts = np.linspace(0.0, TWO_PI, 9)
    return ("radial", r1, r2, ts)


def _max_diff_layered(sa, sb, plan):
    tag, c1a, c1b, c2 = plan
    m = 0.0
    for c1 in c1a:
        va = np.asarray(sa.u1_value(c1, c2), dtype=float)
        vb = np.asarray(sb.u1_value(c1, c2), dtype=float)
        m = max(m, float(np.max(np.abs(va - vb))))
    for c1 in c1b:
        va = np.asarray(sa.u2_value(c1, c2), dtype=float)
        vb = np.asarray(sb.u2_value(c1, c2), dtype=float)
        m = max(m, float(np.max(np.abs(va - vb))))
    return m


def _sweep_geometry(problem, geo, value):
    """Same Robin parameter h, new thickness; k follows from the relation."""
    h = geo.robin_h
    sign = 1.0 if geo.rho > 0 else -1.0
    if problem == "halfplane_coupled":
        l = _number(value, "sweep l")
        rho = sign * math.exp(2.0 * h * l)
        k = (1.0 - rho) / (1.0 + rho)
        return PlanarLayerConfig(l=l, k=k), l
    R = _number(value, "sweep R")
    rho = sign * R ** (2.0 * h)
    k = (1.0 - rho) / (1.0 + rho)
    return RadialLayerConfig(R=R, k=k), 1.0 - R


def cmd_compare(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    methods = cfg.get("methods")
    if not isinstance(methods, list) or len(methods) < 2:
        raise ValidationError("compare needs a methods list with at least two entries")
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}")
    field = boundary_field(cfg, config_dir=os.path.dirname(os.path.abspath(args.config)))
    trunc = truncation_policy(cfg)
    axis1, axis2 = build_grid(cfg, geo)
    threads = _thread_count(args)

    solutions = [build_solution(cfg, m, field, geo, trunc) for m in methods]
    grids = [evaluate_grid(s, problem, axis1, axis2, threads=threads) for s in solutions]

    summary = {"problem": problem, "methods": methods, "grid_points": int(grids[0].size)}
    diffs = {}
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            key = f"{methods[i]}|{methods[j]}"
            diffs[key] = float(np.max(np.abs(grids[i] - grids[j])))
    summary["max_abs_diff"] = diffs
    bounds = {}
    for m, s in zip(methods, solutions):
        tb = getattr(s, "tail_bound", None)
        if tb is not None and math.isfinite(tb):
            bounds[m] = tb
    if bounds:
        summary["bounds"] = bounds

    if "sweep" in cfg:
        if sorted(methods) != ["asymptotic", "series"]:
            raise ValidationError("a thickness sweep compares exactly [series, asymptotic]")
        if problem not in ("halfplane_coupled", "disk_coupled"):
            raise ValidationError("thickness sweeps apply to the coupled problems")
        key = "l" if problem == "halfplane_coupled" else "R"
        values = cfg["sweep"].get(key)
        if not isinstance(values, list) or len(values) < 2:
            raise ValidationError(f"sweep.{key} must list at least two values")
        thicknesses, errs, ks = [], [], []
        for v in values:
            sub_geo, thickness = _sweep_geometry(problem, geo, v)
            plan = _sweep_points(problem, sub_geo)
            s_series = build_solution(cfg, "series", field, sub_geo, trunc)
            s_asym = build_solution(cfg, "asymptotic", field, sub_geo, trunc)
            thicknesses.append(thickness)
            ks.append(sub_geo.k)
            errs.append(_max_diff_layered(s_series, s_asym, plan))
        slope = float(np.polyfit(np.log(thicknesses), np.log(errs), 1)[0])
        summary["sweep"] = {"thickness": thicknesses, "k": ks, "max_abs_diff": errs}
        summary["thickness_order"] = slope

    out = _out_path(cfg, args, None)
    if out:
        _write_compare_csv(out, problem, methods, axis1, axis2, grids)
        summary["output"] = out
    print(json.dumps(summary, sort_keys=True))
    return 0


def _write_compare_csv(path, problem, methods, axis1, axis2, grids):
    cols = "r,theta" if problem in RADIAL else "x,y"
    names = ",".join(f"u_{m}" for m in methods)
    pair_names = []
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            pair_names.append(f"absdiff_{methods[i]}_{methods[j]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{cols},{names},{','.join(pair_names)}\n")
        for i, c1 in enumerate(axis1):
            for j, c2 in enumerate(axis2):
                vals = [g[i, j] for g in grids]
                pairs = []
                for a in range(len(methods)):
                    for b in range(a + 1, len(methods)):
                        pairs.append(abs(vals[a] - vals[b]))
                row = [repr(float(c1)), repr(float(c2))]
                row += [repr(float(v)) for v in vals]
                row += [repr(float(p)) for p in pairs]
                fh.write(",".join(row) + "\n")


def cmd_verify(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    method = cfg.get("method", "series")
    field = boundary_field(cfg, config_dir=os.path.dirname(os.path.abspath(args.config)))
    trunc = truncation_policy(cfg)
    solution = build_solution(cfg, method, field, geo, trunc)
    report = residual_report(solution, field)
    tols = dict(_DEFAULT_TOLS)
    tols.update({k: _number(v, f"tolerances {k}") for k, v in cfg.get("tolerances", {}).items()})
    checks = {}
    all_pass = True
    for name in ("pde_residual", "boundary_mismatch", "value_jump", "flux_jump"):
        value = getattr(report, name)
        ok = value <= tols[name]
        checks[name] = {"value": value, "tol": tols[name], "pass": ok}
        all_pass = all_pass and ok

    result = {"problem": problem, "method": method, "checks": checks, "all_pass": all_pass}

    if args.grid:
        mismatches = _check_grid_file(args.grid, solution, problem)
        result["grid_matches"] = mismatches == 0
        result["grid_mismatches"] = mismatches
        all_pass = all_pass and mismatches == 0
        result["all_pass"] = all_pass

    out = _out_path(cfg, args, None)
    text = json.dumps(result, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if all_pass else 1


def _check_grid_file(path, solution, problem) -> int:
    """Re-evaluate the solution at a solve output's nodes; count mismatches."""
    mismatches = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            c1s, c2s, region, us = line.split(",")
            c1, c2, u = float(c1s), float(c2s), float(us)
            if region == "outside":
                continue
            if problem in ("strip", "annulus"):
                v = float(solution.value(c1, c2))
            elif problem == "halfplane_coupled":
                fn = solution.u1_value if region == "1" else solution.u2_value
                v = float(fn(c1, c2))
            else:
                fn = solution.u1_value if region == "1" else solution.u2_value
                v = float(fn(c1, c2))
            if repr(v) != us:
                mismatches += 1
    return mismatches


def cmd_regimes(cfg, args) -> int:
    problem = cfg["problem"]
    if problem not in ("halfplane_coupled", "disk_coupled"):
        raise ValidationError("the regime diagnostic applies to the coupled problems")
    geo = geometry_config(cfg)
    diag = _regime_diagnostic(cfg, geo)
    result = {
        "problem": problem,
        "rho": diag.rho,
        "j_needed": diag.j_needed,
        "tol": diag.tol,
        "threshold": diag.threshold,
        "recommendation": diag.recommendation,
    }
    out = _out_path(cfg, args, None)
    text = json.dumps(result, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerfield",
        description="Layered-medium harmonic fields: series, asymptotics, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("compare", cmd_compare),
        ("verify", cmd_verify),
        ("regimes", cmd_regimes),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON problem config")
        p.add_argument("--out", help="output path (overrides config output.path)")
        p.add_argument("--strict", action="store_true", help="escalate regime warnings to exit 4")
        p.add_argument("--threads", type=int, default=None,
                       help="grid-evaluation threads (default: LAYERFIELD_THREADS or 1)")
        if name == "verify":
            p.add_argument("--grid", help="previously solved grid CSV to re-check")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, LayerFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
