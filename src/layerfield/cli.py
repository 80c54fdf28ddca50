"""Command-line front end.

Problems are described by a JSON config (fail-closed: unknown keys are
rejected), solved by the image-ladder series, the thin-layer
approximations, or the built-in oracles, and written out as grid CSV
plus JSON reports.

Exit codes: 0 ok, 1 verification failure, 2 validation or I/O error,
3 convergence failure, 4 regime warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from itertools import repeat

import numpy as np

from .errors import ConvergenceError, LayerFieldError, ValidationError
from .harmonic import BoundaryTrace, DiskField, HalfPlaneField, check_circle_trace, disk_from_boundary
from .series import (
    AXES,
    Geometry,
    LayeredSolution,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    TailTol,
    convergence_diagnostic,
    series_solution,
)

TWO_PI = 2.0 * math.pi


def _from_oracle(name):
    """oracle.`name`, behind a module-level name of its own: the oracle
    loads on the first call, so only `verify`, `method: oracle` and the
    finite-difference solves pay for its import, and a tracer can wrap
    the name where the commands look it up."""

    def call(*args, **kwargs):
        from . import oracle

        return getattr(oracle, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


fd_annulus, fd_disk_coupled, fd_strip, mode_exact, residual_report = map(
    _from_oracle, ("fd_annulus", "fd_disk_coupled", "fd_strip", "mode_exact", "residual_report")
)

PROBLEMS = tuple(AXES)
METHODS = ("series", "asymptotic", "oracle", "identity")

_TOP_KEYS = {
    "problem", "geometry", "boundary", "method", "methods", "truncation",
    "grid", "sweep", "output", "tolerances",
}
_GEOMETRY_KEYS = {
    "strip": {"l"},
    "halfplane_coupled": {"l", "k", "a2"},
    "disk_coupled": {"R", "k"},
    "annulus": {"R"},
}
#: largest radial mode index accepted from a config; a disk field stores
#: dense coefficient arrays up to its highest index
MAX_RADIAL_MODE = 10_000
#: largest number of grid nodes accepted from a config; a grid holds one
#: value per node and route
MAX_GRID_NODES = 10_000_000
#: largest number of thicknesses in a compare sweep; each builds and
#: evaluates two solutions
MAX_SWEEP_VALUES = 1_000

_DEFAULT_TOLS = {
    "pde_residual": 1e-6,
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
    """Convert a config value with `kind`, failing validation instead of raising.

    A JSON boolean is not a number, and an integer field takes no
    fraction: int(2.5) would silently truncate it to 2.
    """
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and number != value:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return number


def _non_finite(text):
    raise ValidationError(f"config numbers must be finite floats, got {text[:24]}")


def _finite(kind):
    """A JSON number parser that rejects literals no float holds, such as 1e400 or 10**400."""
    def parse(text):
        try:
            number = kind(text)
            if math.isfinite(float(number)):
                return number
        except (OverflowError, ValueError):  # int() refuses over 4300 digits
            pass
        _non_finite(text)

    return parse


def _strict_json(report, indent=None) -> str:
    """`report` as JSON text with sorted keys.

    JSON has no inf or nan, so a report holding one fails validation
    instead of printing a literal no JSON parser reads.
    """
    try:
        return json.dumps(report, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValidationError(
            "the report holds a number that is not finite; the config's values are beyond this route's range"
        ) from None


def _finite_grid(values, what):
    """`values`, if every node is finite; a CSV of inf or nan answers nothing."""
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise ValidationError(
            f"{what} is not finite at {bad} of {values.size} grid nodes; "
            "the config's values are beyond this route's range"
        )
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh, parse_constant=_non_finite, parse_float=_finite(float), parse_int=_finite(int))
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
        _reject_unknown(cfg["truncation"], {"J", "tol"}, "truncation")
    if "grid" in cfg:
        _reject_unknown(cfg["grid"], AXES[problem], "grid")
    if "sweep" in cfg:
        _reject_unknown(cfg["sweep"], {"l", "R"}, "sweep")
    if "tolerances" in cfg:
        _reject_unknown(cfg["tolerances"], set(_DEFAULT_TOLS), "tolerances")
    if "output" in cfg:
        _reject_unknown(cfg["output"], {"path"}, "output")
        path = cfg["output"].get("path")
        # open() would take an int or a bool as a file descriptor
        if "path" in cfg["output"] and not (isinstance(path, str) and path):
            raise ValidationError(f"output.path must be a non-empty string, got {path!r}")
    return cfg


def geometry_config(cfg):
    problem = cfg["problem"]
    g = cfg["geometry"]
    if problem == "strip":
        return Geometry(problem, g.get("l"))
    if problem == "annulus":
        return Geometry(problem, g.get("R"))
    if problem == "halfplane_coupled":
        return PlanarLayerConfig(l=g.get("l"), k=g.get("k"), a2=g.get("a2", 1.0))
    return RadialLayerConfig(R=g.get("R"), k=g.get("k"))


def _planar_modes(raw):
    if not isinstance(raw, list):
        raise ValidationError("boundary modes must be a list")
    modes = []
    for m in raw:
        _reject_unknown(m, {"omega", "A", "phi"}, "planar mode")
        if "omega" not in m:
            raise ValidationError("planar mode needs omega")
        omega = _number(m["omega"], "planar mode omega")
        if not omega > 0:
            raise ValidationError(f"planar mode omega must be > 0, got {omega!r}")
        modes.append((_number(m.get("A", 1.0), "planar mode A"), omega, _number(m.get("phi", 0.0), "planar mode phi")))
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


def boundary_field(cfg, geo, config_dir="."):
    """Build the model field on `geo` from the boundary block."""
    boundary = cfg["boundary"]
    if "modes" in boundary:
        if geo.radial:
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
    if geo.radial:
        n_max = (trace.abscissae.size - 1) // 2
        if n_max > MAX_RADIAL_MODE:
            raise ValidationError(
                f"a circle trace of {trace.abscissae.size} samples projects onto modes up to {n_max}, "
                f"over the cap of {MAX_RADIAL_MODE} (at most {2 * MAX_RADIAL_MODE + 2} samples)"
            )
        return disk_from_boundary(trace, n_max)
    raise ValidationError(
        "planar sample-backed boundaries are read only by solve with method 'oracle' "
        "on the strip (its finite-difference solve); give boundary modes instead"
    )


def truncation_policy(cfg):
    t = cfg.get("truncation", {})
    if "J" in t and "tol" in t:
        raise ValidationError("truncation takes either J or tol, not both")
    if "J" in t:
        return MaxTerms(_number(t["J"], "truncation J", int))
    return TailTol(_number(t.get("tol", 1e-10), "truncation tol"))


def build_solution(cfg, method, field, geo, trunc):
    """Assemble the evaluator for one (problem, method) pair."""
    if method == "identity":
        # the untransformed model field: F = u0 on the twin, with rho = 0
        return LayeredSolution(geo, geo.on_twin(field), 0.0)
    if method == "series":
        return series_solution(geo, field, trunc)
    if method == "asymptotic":
        # imported here, so that only the asymptotic route loads it
        from .asymptotics.links import thin_layer_solution

        return thin_layer_solution(geo, field)
    if method == "oracle":
        if "modes" not in cfg["boundary"]:
            raise ValidationError("the closed-form oracle needs mode boundary data")
        modes = (_radial_modes if geo.radial else _planar_modes)(cfg["boundary"]["modes"])
        return mode_exact(geo, modes)
    raise ValidationError(f"method must be one of {METHODS}")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _axis(triple, name):
    """(start, stop, count) of a grid axis, validated but not yet allocated."""
    if (not isinstance(triple, (list, tuple))) or len(triple) != 3:
        raise ValidationError(f"grid axis {name} must be [start, stop, count]")
    start = _number(triple[0], f"grid axis {name} start")
    stop = _number(triple[1], f"grid axis {name} stop")
    count = _number(triple[2], f"grid axis {name} count", int)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"grid axis {name} must have finite ends")
    if count < 1 or stop < start:
        raise ValidationError(f"grid axis {name} must have stop >= start and count >= 1")
    return start, stop, count


def _grid_spec(cfg, geo):
    """The config grid's two axes as (start, stop, count), with their node count bounded."""
    grid = cfg.get("grid")
    if grid is None:
        raise ValidationError("config needs a grid for this command")
    axes = [_axis(grid.get(name), name) for name in geo.axes]
    nodes = axes[0][2] * axes[1][2]
    if nodes > MAX_GRID_NODES:
        raise ValidationError(f"grid has {nodes} nodes; at most {MAX_GRID_NODES} are allowed")
    return axes


def build_grid(cfg, geo):
    """The config grid's two axes, allocated once their node count is bounded, within the domain."""
    axis1, axis2 = (np.linspace(*axis) for axis in _grid_spec(cfg, geo))
    lo, hi = geo.domain
    eps = 1e-9
    if axis1[0] < lo - eps or axis1[-1] > hi + eps:
        raise ValidationError(f"grid axis {geo.axes[0]} must stay in [{lo!r}, {hi!r}]")
    return axis1, axis2


def _layered_values(solution, p, q):
    """The solution at rows p: u1_value on the layer-1 rows, u2_value on the layer-2 rows.

    Row i holds the values at (p[i], q) for a 1-D q shared by every row,
    or at (p[i], q[i]) for a q of shape (p.size, 1).  The rows of each
    layer are evaluated in one broadcast call.
    """
    layer2 = solution.geometry.in_layer2(p)
    values = np.empty((p.size, q.shape[-1]))
    for rows, fn in ((~layer2, solution.u1_value), (layer2, solution.u2_value)):
        if rows.any():
            values[rows] = fn(p[rows, None], q if q.ndim == 1 else q[rows])
    return values


def evaluate_grid(solution, problem, axis1, axis2):
    """Values on the tensor grid axis1 x axis2, rows along axis1; `problem` is not read.

    A mode is evaluated once per row and once per column, not once per node.
    """
    return _layered_values(solution, axis1, axis2)


def write_grid_csv(path, problem, solution, axis1, axis2, values):
    """Write a solve's grid in the solve format of `solution.geometry`; `problem` is not read."""
    from .gridcsv import write_solve_csv  # loaded by the commands that write a CSV

    write_solve_csv(path, solution.geometry, axis1, axis2, values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _out_path(cfg, args, default):
    if args.out:
        return args.out
    if "output" in cfg and "path" in cfg["output"]:
        return cfg["output"]["path"]
    return default


def _config_dir(args):
    return os.path.dirname(os.path.abspath(args.config))


def cmd_solve(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    method = cfg.get("method", "series")
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}")
    if method == "oracle" and "samples" in cfg["boundary"]:
        return _solve_fd(cfg, args, geo)
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
    trunc = truncation_policy(cfg)
    if args.strict and method == "series" and geo.coupled:
        diag = convergence_diagnostic(geo, field, trunc)
        if diag.recommendation != "series":
            escalated = {
                "error": "regime warning escalated",
                "rho": diag.rho,
                "j_needed": diag.j_needed,
                "recommendation": diag.recommendation,
            }
            print(_strict_json(escalated), file=sys.stderr)
            return 4
    solution = build_solution(cfg, method, field, geo, trunc)
    axis1, axis2 = build_grid(cfg, geo)
    values = _finite_grid(evaluate_grid(solution, problem, axis1, axis2), f"the {method} solution")
    out = _out_path(cfg, args, "grid.csv")
    write_grid_csv(out, problem, solution, axis1, axis2, values)
    summary = {"problem": problem, "method": method, "rows": int(values.size), "output": out}
    if getattr(solution, "tail_bound", None) not in (None, float("inf")):
        summary["tail_bound"] = solution.tail_bound
    if getattr(solution, "terms", None) is not None:
        summary["terms"] = solution.terms
    if getattr(solution, "bound", None) is not None:
        summary["layer2_bound"] = solution.bound
    print(_strict_json(summary))
    return 0


def _check_fd_span(geo, spec):
    """Reject grid ranges the FD solve would not honour.

    The FD solvers solve on the whole domain of p (x in [0, l], r in
    [R, 1] or r in [0, 1]), and on the periodic theta nodes 2*pi*j/n,
    taking only the node counts of those axes; the strip's y window is
    honoured.
    """
    (start, stop, _), (t_start, t_stop, t_count) = spec
    eps = 1e-9
    name, (lo, hi) = geo.axes[0], geo.domain
    if abs(start - lo) > eps or abs(stop - hi) > eps:
        raise ValidationError(f"the FD oracle solves on {name} in [{lo!r}, {hi!r}]; grid axis {name} must span it")
    if geo.radial and (
        abs(t_start) > eps
        or min(abs(t_stop - TWO_PI), abs(t_stop - TWO_PI * (t_count - 1) / t_count)) > eps
    ):
        raise ValidationError(
            "the FD oracle solves on the periodic theta nodes 2*pi*j/n; "
            "grid axis theta must start at 0 and stop at 2*pi or 2*pi*(n-1)/n"
        )


def _solve_fd(cfg, args, geo) -> int:
    """FD fallback for sample-backed boundaries."""
    if not geo.radial and geo.coupled:
        raise ValidationError("no bounded-domain oracle for the coupled half-plane")
    spec = _grid_spec(cfg, geo)
    _check_fd_span(geo, spec)
    path = cfg["boundary"]["samples"]
    if not os.path.isabs(path):
        path = os.path.join(_config_dir(args), path)
    trace = BoundaryTrace.from_csv(path)
    axis1, axis2 = (np.linspace(*axis) for axis in spec)
    if geo.radial:
        check_circle_trace(trace)
        fn = lambda t: np.interp(t % TWO_PI, trace.abscissae, trace.values, period=TWO_PI)
        if geo.coupled:
            gs = fd_disk_coupled(fn, geo, axis1.size, axis2.size)
        else:
            gs = fd_annulus(fn, geo.interface, axis1.size, axis2.size)
    else:
        (lo, hi), (y0, y1, _) = trace.window, spec[1]
        if y0 < lo - 1e-9 or y1 > hi + 1e-9:
            raise ValidationError(f"grid axis y spans [{y0!r}, {y1!r}], beyond the trace window [{lo!r}, {hi!r}]")
        fn = lambda yy: np.interp(yy, trace.abscissae, trace.values)
        # the lateral edges carry the harmonic f(y_edge) (1 - x/l), which
        # meets the trace at x = 0 and the zero side at x = l
        lateral = lambda xx, yy: fn(yy) * (1.0 - xx / geo.interface)
        gs = fd_strip(fn, geo.interface, (axis2[0], axis2[-1]), axis1.size, axis2.size, lateral_fn=lateral)
    _finite_grid(gs.values, "the finite-difference solution")
    out = _out_path(cfg, args, "grid.csv")
    gs.to_csv(out)
    print(_strict_json({"problem": cfg["problem"], "method": "oracle", "output": out}))
    return 0


def _sweep_points(geo):
    """Relative sample plan reused across a thickness sweep: (rows of both layers, columns)."""
    if not geo.radial:
        x1 = geo.l * np.linspace(0.05, 0.95, 10)
        x2 = geo.l + np.linspace(0.02, 1.0, 10)
        return np.concatenate([x1, x2]), np.linspace(-1.0, 1.0, 7)
    R = geo.R
    r1 = R + (1.0 - R) * np.linspace(0.05, 0.95, 10)
    r2 = R * np.linspace(0.3, 0.95, 10)
    return np.concatenate([r1, r2]), np.linspace(0.0, TWO_PI, 9)


def _max_diff_layered(sa, sb, plan):
    """Largest |sa - sb| over the plan's rows, one call per layer and solution."""
    return float(np.max(np.abs(_layered_values(sa, *plan) - _layered_values(sb, *plan))))


def _sweep_geometry(geo, value):
    """Same Robin parameter h, new thickness; k follows from the relation.

    A half-plane keeps its a2.
    """
    h = geo.robin_h
    sign = 1.0 if geo.rho > 0 else -1.0
    if not geo.radial:
        rho = sign * math.exp(2.0 * h * value)
        k = (1.0 - rho) / (1.0 + rho)
        return PlanarLayerConfig(l=value, k=k, a2=geo.a2), value
    rho = sign * value ** (2.0 * h)
    k = (1.0 - rho) / (1.0 + rho)
    return RadialLayerConfig(R=value, k=k), 1.0 - value


def _sweep_values(cfg, geo, methods):
    """The distinct l or R values of the config's compare sweep, as floats, or None without one."""
    if "sweep" not in cfg:
        return None
    if sorted(methods) != ["asymptotic", "series"]:
        raise ValidationError("a thickness sweep compares exactly [series, asymptotic]")
    if not geo.coupled:
        raise ValidationError("thickness sweeps apply to the coupled problems")
    key = geo.interface_key
    _reject_unknown(cfg["sweep"], {key}, f"{geo.kind} sweep")
    values = cfg["sweep"].get(key)
    if not isinstance(values, list) or len(values) < 2:
        raise ValidationError(f"sweep.{key} must list at least two values")
    if len(values) > MAX_SWEEP_VALUES:
        raise ValidationError(f"sweep.{key} lists {len(values)} values; at most {MAX_SWEEP_VALUES} are allowed")
    values = [_number(v, f"sweep {key}") for v in values]
    if len(set(values)) < len(values):
        raise ValidationError(f"sweep.{key} must list distinct thicknesses")
    return values


def cmd_compare(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    methods = cfg.get("methods")
    if not isinstance(methods, list) or len(methods) < 2:
        raise ValidationError("compare needs a methods list with at least two entries")
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}")
    if len(set(methods)) < len(methods):
        # n copies of one method would hold n + n(n-1)/2 grids
        raise ValidationError(f"compare methods must be distinct, got {methods}")
    sweep = _sweep_values(cfg, geo, methods)
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
    trunc = truncation_policy(cfg)
    axis1, axis2 = build_grid(cfg, geo)

    solutions = [build_solution(cfg, m, field, geo, trunc) for m in methods]
    grids = [
        _finite_grid(evaluate_grid(s, problem, axis1, axis2), f"the {m} solution") for m, s in zip(methods, solutions)
    ]

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
    layer2_bounds = {m: s.bound for m, s in zip(methods, solutions) if getattr(s, "bound", None) is not None}
    if layer2_bounds:
        summary["layer2_bounds"] = layer2_bounds

    if sweep is not None:
        thicknesses, errs, ks = [], [], []
        for v in sweep:
            sub_geo, thickness = _sweep_geometry(geo, v)
            plan = _sweep_points(sub_geo)
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
        summary["output"] = out
    text = _strict_json(summary)  # before the CSV, so a report that fails writes none
    if out:
        _write_compare_csv(out, geo, methods, axis1, axis2, grids)
    print(text)
    return 0


def _write_compare_csv(path, geo, methods, axis1, axis2, grids):
    cols = ",".join(geo.axes)
    names = ",".join(f"u_{m}" for m in methods)
    pairs = [(a, b) for a in range(len(methods)) for b in range(a + 1, len(methods))]
    pair_names = ",".join(f"absdiff_{methods[a]}_{methods[b]}" for a, b in pairs)
    diffs = [np.abs(grids[a] - grids[b]) for a, b in pairs]
    from .gridcsv import write_grid

    write_grid(path, f"{cols},{names},{pair_names}", axis1, axis2, grids + diffs)


def cmd_verify(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    method = cfg.get("method", "series")
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
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
        nodes = math.prod(count for _, _, count in _grid_spec(cfg, geo)) if "grid" in cfg else None
        mismatches = _check_grid_file(args.grid, solution, nodes=nodes)
        result["grid_matches"] = mismatches == 0
        result["grid_mismatches"] = mismatches
        all_pass = all_pass and mismatches == 0
        result["all_pass"] = all_pass

    out = _out_path(cfg, args, None)
    text = _strict_json(result, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if all_pass else 1


def _check_grid_file(path, solution, nodes=None) -> int:
    """Re-evaluate the solution at a solve output's nodes; count the rows
    whose region code or value differs.

    A value matches when the file holds its repr, so the check shares no
    code with the CSV writer.  The header must be the solve header of the
    solution's geometry and at least one data row must follow, or the
    file is rejected.  The coordinate columns are parsed as whole arrays;
    a data row that is not four fields with numeric coordinates is
    rejected with its line number.  Given the grid's node count `nodes`,
    each row missing from it or extra to it counts as one more mismatch.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        text = fh.read()
    expected = ",".join(solution.geometry.axes) + ",region,u"
    if header != expected:
        raise ValidationError(f"{path!s} has header {header!r}, not the solve header {expected!r}")
    rows = [line for line in map(str.strip, text.split("\n")) if line]
    if not rows:
        raise ValidationError(f"{path!s} holds no data rows")
    fields = ",".join(rows).split(",")
    try:
        if set(map(str.count, rows, repeat(","))) != {3}:
            raise ValueError("a row without four fields")
        p, q = _floats(fields[0::4]), _floats(fields[1::4])
    except ValueError:
        number, line = _first_malformed_row(text)
        raise ValidationError(
            f"expected four fields with numeric coordinates in {path!s}, line {number}: {line!r}"
        ) from None
    values = _layered_values(solution, p, q[:, None])[:, 0]
    regions = np.where(solution.geometry.in_layer2(p), "2", "1").tolist()
    pairs = zip(fields[2::4], fields[3::4], regions, map(repr, values.tolist()))
    mismatches = sum(got != region or written != value for got, written, region, value in pairs)
    return mismatches + (abs(len(rows) - nodes) if nodes is not None else 0)


def _floats(texts):
    """The numbers in a column of texts as an array; each distinct text is
    parsed once, since a grid repeats every coordinate along the other axis."""
    parsed = {text: float(text) for text in set(texts)}
    return np.fromiter(map(parsed.__getitem__, texts), float, len(texts))


def _first_malformed_row(text):
    """(line number, text) of the first data row that is not four fields
    with numeric coordinates; the header is line 1."""
    for number, line in enumerate(text.split("\n"), start=2):
        row = line.strip().split(",")
        if row == [""]:
            continue
        try:
            c1, c2, _, _ = row
            float(c1), float(c2)
        except ValueError:
            return number, line.strip()
    raise AssertionError("every row parses")


def cmd_regimes(cfg, args) -> int:
    problem = cfg["problem"]
    geo = geometry_config(cfg)
    if not geo.coupled:
        raise ValidationError("the regime diagnostic applies to the coupled problems")
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
    diag = convergence_diagnostic(geo, field, truncation_policy(cfg))
    result = {
        "problem": problem,
        "rho": diag.rho,
        "j_needed": diag.j_needed,
        "recommendation": diag.recommendation,
    }
    if diag.tol is not None:
        result["tol"] = diag.tol
    out = _out_path(cfg, args, None)
    text = _strict_json(result, indent=2)
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
                       help="accepted for compatibility; grid evaluation uses no threads")
        if name == "verify":
            p.add_argument("--grid", help="previously solved grid CSV to re-check")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        ignored = sorted({"sweep", "methods"} & set(cfg)) if args.command != "compare" else []
        if ignored:
            raise ValidationError(f"{args.command} reads no {' or '.join(ignored)} block; only compare does")
        # no command warns on inf or nan: each checks what it writes and prints
        with np.errstate(all="ignore"):
            return args.fn(cfg, args)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, LayerFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """Process entry of the `layerfield` script and of `python -m layerfield.cli`.

    Moves every object the imports built to the collector's permanent
    generation (`gc.freeze`) before the command runs, so the cyclic
    collector never walks that heap again, neither during the command
    nor while the interpreter shuts down; the collector stays enabled
    for what the command allocates.  `main` itself leaves the collector
    as it finds it, for callers that run commands in a process of their
    own.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
