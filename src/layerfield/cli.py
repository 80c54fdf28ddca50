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
from itertools import chain, combinations, islice

import numpy as np

from .errors import ConvergenceError, LayerFieldError, ValidationError
from .harmonic import BoundaryTrace, DiskField, HalfPlaneField, check_circle_trace, disk_from_boundary
from .harmonic import parse_rows, read_lines
from .series import (
    AXES,
    Geometry,
    LayeredSolution,
    MaxTerms,
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
#: longest boundary mode list accepted from a config, one entry per radial
#: index; building a field costs about 50 us per planar mode
MAX_BOUNDARY_MODES = MAX_RADIAL_MODE + 1
#: largest config file accepted, in bytes; it is read whole before parsing,
#: and a larger one no further than this
MAX_CONFIG_BYTES = 16 * 2**20
#: largest number of grid nodes accepted from a config; a grid holds one
#: value per node and route
MAX_GRID_NODES = 10_000_000
#: largest number of thicknesses in a compare sweep; each builds and
#: evaluates two solutions
MAX_SWEEP_VALUES = 1_000
#: largest number of modes times grid nodes accepted from a config; grid
#: evaluation sums every mode at every node, about 2 s at the cap
MAX_MODE_NODES = 10**9
#: largest number of modes times compare sweep values accepted from a config;
#: each value solves every mode by two routes, about 2 s at the cap
MAX_SWEEP_MODES = 30_000

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

    Only a JSON number is a number: kind() would also read a string such
    as "1e400" or "5", and a JSON boolean is an int to Python.  An
    integer field takes no fraction: int(2.5) would silently truncate it
    to 2.
    """
    try:
        number = kind(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None
    except (ValueError, OverflowError):
        number = None
    if number is None:
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


def _unique_keys(pairs):
    """A JSON object's pairs as a dict, failing validation on a repeated key
    instead of keeping its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """The config at `path`: at most MAX_CONFIG_BYTES of UTF-8 JSON text,
    with finite numbers, no key repeated in an object and no nesting
    deeper than the JSON decoder takes, and the problem's blocks checked."""
    text = bytearray()
    with open(path, "rb") as fh:
        # 64 KiB at a time, since read(n) allocates all n bytes at once
        for block in islice(iter(lambda: fh.read(2**16), b""), MAX_CONFIG_BYTES // 2**16 + 1):
            text += block
    if len(text) > MAX_CONFIG_BYTES:
        raise ValidationError(f"config is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        cfg = json.loads(text.decode("utf-8"), object_pairs_hook=_unique_keys, parse_constant=_non_finite,
                         parse_float=_finite(float), parse_int=_finite(int))
    except RecursionError:
        raise ValidationError("config is nested deeper than the JSON decoder takes") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    problem = cfg.get("problem")
    if problem not in PROBLEMS:
        raise ValidationError(f"problem must be one of {PROBLEMS}")
    for block, allowed, where in (("geometry", _GEOMETRY_KEYS[problem], f"{problem} geometry"),
                                  ("boundary", {"modes", "samples"}, "boundary")):
        if not isinstance(cfg.get(block), dict):
            raise ValidationError(f"config needs a {block} object")
        _reject_unknown(cfg[block], allowed, where)
    if ("modes" in cfg["boundary"]) == ("samples" in cfg["boundary"]):
        raise ValidationError("boundary needs exactly one of 'modes' or 'samples'")
    optional = {"truncation": {"J", "tol"}, "grid": AXES[problem], "sweep": {"l", "R"},
                "tolerances": _DEFAULT_TOLS, "output": {"path"}}
    for block, allowed in optional.items():
        if block in cfg:
            _reject_unknown(cfg[block], allowed, block)
    for block, key in (("boundary", "samples"), ("output", "path")):
        given = cfg.get(block, {})
        # open() would take an int or a bool as a file descriptor
        if key in given and not (isinstance(given[key], str) and given[key]):
            raise ValidationError(f"{block}.{key} must be a non-empty string, got {given[key]!r}")
    return cfg


def geometry_config(cfg):
    problem, g = cfg["problem"], cfg["geometry"]
    return Geometry(problem, g.get("R" if AXES[problem][0] == "r" else "l"), g.get("k"), g.get("a2", 1.0))


def _modes(raw, radial):
    """The boundary modes as (n, a, b) on the disk or (A, omega, phi) on the plane.

    A mode's first key, its index n or frequency omega, is required; the
    other two default to an amplitude of 1 and a phase or sine part of 0.
    """
    if not isinstance(raw, list):
        raise ValidationError("boundary modes must be a list")
    if len(raw) > MAX_BOUNDARY_MODES:
        raise ValidationError(f"boundary modes lists {len(raw)} modes; at most {MAX_BOUNDARY_MODES} are allowed")
    kind, keys = ("radial", ("n", "a", "b")) if radial else ("planar", ("omega", "A", "phi"))
    modes = []
    for m in raw:
        _reject_unknown(m, keys, f"{kind} mode")
        if keys[0] not in m:
            raise ValidationError(f"{kind} mode needs {keys[0]}")
        index = _number(m[keys[0]], f"{kind} mode {keys[0]}", int if radial else float)
        if radial and not 0 <= index <= MAX_RADIAL_MODE:
            raise ValidationError(f"radial mode n must lie in [0, {MAX_RADIAL_MODE}], got {index}")
        if not radial and not index > 0:
            raise ValidationError(f"planar mode omega must be > 0, got {index!r}")
        amplitude = _number(m.get(keys[1], 1.0), f"{kind} mode {keys[1]}")
        phase = _number(m.get(keys[2], 0.0), f"{kind} mode {keys[2]}")
        modes.append((index, amplitude, phase) if radial else (amplitude, index, phase))
    return modes


def _read_trace(cfg, config_dir):
    """The boundary block's sampled trace; a relative path is read from `config_dir`."""
    return BoundaryTrace.from_csv(os.path.join(config_dir, cfg["boundary"]["samples"]))


def boundary_field(cfg, geo, config_dir="."):
    """Build the model field on `geo` from the boundary block."""
    boundary = cfg["boundary"]
    if "modes" in boundary:
        modes = _modes(boundary["modes"], geo.radial)
        if geo.radial:
            n_max = max(n for n, _, _ in modes) if modes else 0
            a, b = np.zeros((2, n_max + 1))
            for n, ca, sa in modes:
                if n == 0 and sa:
                    raise ValidationError("constant mode has no sine part")
                a[n] += 2.0 * ca if n == 0 else ca  # constant boundary value ca -> coefficient 2*ca
                b[n] += sa
            return DiskField(a, b)
        return HalfPlaneField(modes=modes)
    trace = _read_trace(cfg, config_dir)
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
        return mode_exact(geo, _modes(cfg["boundary"]["modes"], geo.radial))
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


def _grid_spec(cfg, geo, field=None):
    """The config grid's two axes as (start, stop, count), with their node count
    bounded, and with it the work of evaluating the modes of `field` there."""
    grid = cfg.get("grid")
    if grid is None:
        raise ValidationError("config needs a grid for this command")
    axes = [_axis(grid.get(name), name) for name in geo.axes]
    nodes = axes[0][2] * axes[1][2]
    if nodes > MAX_GRID_NODES:
        raise ValidationError(f"grid has {nodes} nodes; at most {MAX_GRID_NODES} are allowed")
    modes = 0 if field is None else len(geo.on_twin(field).modes)
    if modes * nodes > MAX_MODE_NODES:
        raise ValidationError(
            f"{modes} boundary modes on {nodes} grid nodes are {modes * nodes} mode evaluations; "
            f"at most {MAX_MODE_NODES} are allowed"
        )
    return axes


def build_grid(cfg, geo, field):
    """The config grid's two axes, allocated once their node count and the
    evaluations of `field` on them are bounded, within the domain."""
    axis1, axis2 = (np.linspace(*axis) for axis in _grid_spec(cfg, geo, field))
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
    return args.out or cfg.get("output", {}).get("path", default)


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
            print(_strict_json({"error": "regime warning escalated", **_verdict(diag)}), file=sys.stderr)
            return 4
    solution = build_solution(cfg, method, field, geo, trunc)
    axis1, axis2 = build_grid(cfg, geo, field)
    values = _finite_grid(evaluate_grid(solution, problem, axis1, axis2), f"the {method} solution")
    out = _out_path(cfg, args, "grid.csv")
    write_grid_csv(out, problem, solution, axis1, axis2, values)
    summary = {"problem": problem, "method": method, "rows": int(values.size), "output": out, **_bounds(solution)}
    print(_strict_json(summary))
    return 0


def _bounds(solution):
    """The bounds and ladder length that `solution` states, under the keys of
    a solve summary: tail_bound, unless it is infinite, terms and layer2_bound."""
    stated = {"tail_bound": getattr(solution, "tail_bound", None), "terms": getattr(solution, "terms", None),
              "layer2_bound": getattr(solution, "bound", None)}
    if stated["tail_bound"] == math.inf:
        del stated["tail_bound"]
    return {key: value for key, value in stated.items() if value is not None}


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
    trace = _read_trace(cfg, _config_dir(args))
    axis1, axis2 = (np.linspace(*axis) for axis in spec)
    if geo.radial:
        check_circle_trace(trace)
        fn = lambda t: np.interp(t % TWO_PI, trace.abscissae, trace.values, period=TWO_PI)
        gs = (fd_disk_coupled if geo.coupled else fd_annulus)(fn, geo, axis1.size, axis2.size)
    else:
        (lo, hi), (y0, y1, _) = trace.window, spec[1]
        if y0 < lo - 1e-9 or y1 > hi + 1e-9:
            raise ValidationError(f"grid axis y spans [{y0!r}, {y1!r}], beyond the trace window [{lo!r}, {hi!r}]")
        fn = lambda yy: np.interp(yy, trace.abscissae, trace.values)
        # the lateral edges carry the harmonic f(y_edge) (1 - x/l), which
        # meets the trace at x = 0 and the zero side at x = l
        lateral = lambda xx, yy: fn(yy) * (1.0 - xx / geo.interface)
        gs = fd_strip(fn, geo, (axis2[0], axis2[-1]), axis1.size, axis2.size, lateral_fn=lateral)
    _finite_grid(gs.values, "the finite-difference solution")
    out = _out_path(cfg, args, "grid.csv")
    gs.to_csv(out)
    print(_strict_json({"problem": cfg["problem"], "method": "oracle", "output": out}))
    return 0


def _sweep_points(geo):
    """Relative sample plan reused across a thickness sweep: (rows of both layers, columns)."""
    s = geo.interface
    if not geo.radial:
        x1 = s * np.linspace(0.05, 0.95, 10)
        x2 = s + np.linspace(0.02, 1.0, 10)
        return np.concatenate([x1, x2]), np.linspace(-1.0, 1.0, 7)
    r1 = s + (1.0 - s) * np.linspace(0.05, 0.95, 10)
    r2 = s * np.linspace(0.3, 0.95, 10)
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
    rho = sign * (value ** (2.0 * h) if geo.radial else math.exp(2.0 * h * value))
    k = (1.0 - rho) / (1.0 + rho)
    return Geometry(geo.kind, value, k, geo.a2), (1.0 - value if geo.radial else value)


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
    if any(m not in METHODS for m in methods):
        raise ValidationError(f"method must be one of {METHODS}")
    if len(set(methods)) < len(methods):
        # n copies of one method would hold n + n(n-1)/2 grids
        raise ValidationError(f"compare methods must be distinct, got {methods}")
    sweep = _sweep_values(cfg, geo, methods)
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
    modes = len(geo.on_twin(field).modes)
    if sweep is not None and modes * len(sweep) > MAX_SWEEP_MODES:
        raise ValidationError(f"{modes} modes times {len(sweep)} sweep values exceed {MAX_SWEEP_MODES} mode solves")
    trunc = truncation_policy(cfg)
    axis1, axis2 = build_grid(cfg, geo, field)

    solutions = [build_solution(cfg, m, field, geo, trunc) for m in methods]
    grids = [
        _finite_grid(evaluate_grid(s, problem, axis1, axis2), f"the {m} solution") for m, s in zip(methods, solutions)
    ]

    summary = {"problem": problem, "methods": methods, "grid_points": int(grids[0].size)}
    summary["max_abs_diff"] = {
        f"{a}|{b}": float(np.max(np.abs(ga - gb))) for (a, ga), (b, gb) in combinations(zip(methods, grids), 2)
    }
    stated = [_bounds(s) for s in solutions]
    for key, name in (("tail_bound", "bounds"), ("layer2_bound", "layer2_bounds")):
        per_method = {m: bounds[key] for m, bounds in zip(methods, stated) if key in bounds}
        if per_method:
            summary[name] = per_method

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
    pairs = list(combinations(zip(methods, grids), 2))
    names = [*geo.axes, *(f"u_{m}" for m in methods), *(f"absdiff_{a}_{b}" for (a, _), (b, _) in pairs)]
    from .gridcsv import write_grid

    write_grid(path, ",".join(names), axis1, axis2, grids + [np.abs(ga - gb) for (_, ga), (_, gb) in pairs])


def cmd_verify(cfg, args) -> int:
    geo = geometry_config(cfg)
    method = cfg.get("method", "series")
    tols = {**_DEFAULT_TOLS, **{k: _number(v, f"tolerances {k}") for k, v in cfg.get("tolerances", {}).items()}}
    for name, tol in tols.items():
        if not tol > 0:
            raise ValidationError(f"tolerances {name} must be > 0, got {tol!r}")
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
    trunc = truncation_policy(cfg)
    solution = build_solution(cfg, method, field, geo, trunc)
    report = residual_report(solution, field)
    checks = {}
    for name, tol in tols.items():
        value = getattr(report, name)
        checks[name] = {"value": value, "tol": tol, "pass": value <= tol}
    all_pass = all(check["pass"] for check in checks.values())

    result = {"problem": cfg["problem"], "method": method, "checks": checks, "all_pass": all_pass}

    if args.grid:
        nodes = math.prod(count for _, _, count in _grid_spec(cfg, geo, field)) if "grid" in cfg else None
        mismatches = _check_grid_file(args.grid, solution, nodes=nodes)
        all_pass = all_pass and mismatches == 0
        result.update(grid_matches=mismatches == 0, grid_mismatches=mismatches, all_pass=all_pass)

    _report(cfg, args, result)
    return 0 if all_pass else 1


def _report(cfg, args, result):
    """Print `result` as indented JSON, and write the same text to the output path if there is one."""
    out = _out_path(cfg, args, None)
    text = _strict_json(result, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _check_grid_file(path, solution, nodes=None) -> int:
    """Re-evaluate the solution at a solve output's nodes; count the rows
    whose region code or value differs.

    A value matches when the file holds its repr, so the check shares no
    code with the CSV writer.  The header must be the solve header of the
    solution's geometry and at least one data row must follow, or the
    file is rejected.  The file is read a block at a time (`read_lines`),
    and each block is checked before the next is read, so memory does not
    grow with the file.  A block's coordinate columns are parsed as whole
    arrays; a data row that is not four fields with numeric coordinates is
    rejected with its line number.  Given the grid's node count `nodes`,
    each row missing from it or extra to it counts as one more mismatch.
    """
    expected = ",".join(solution.geometry.axes) + ",region,u"
    count = mismatches = 0
    with open(path, "r", encoding="utf-8") as fh:
        blocks = read_lines(fh)
        _, lines = next(blocks, (1, [""]))
        header = lines[0].strip()
        if header != expected:
            raise ValidationError(f"{path!s} has header {header!r}, not the solve header {expected!r}")
        for number, lines in chain([(2, lines[1:])], blocks):
            fields, p, q = parse_rows(lines, number, 4, f"expected four fields with numeric coordinates in {path!s}")
            values = _layered_values(solution, p, q[:, None])[:, 0]
            regions = np.where(solution.geometry.in_layer2(p), "2", "1").tolist()
            pairs = zip(fields[2::4], fields[3::4], regions, map(repr, values.tolist()))
            mismatches += sum(got != region or written != value for got, written, region, value in pairs)
            count += p.size
    if not count:
        raise ValidationError(f"{path!s} holds no data rows")
    return mismatches + (abs(count - nodes) if nodes is not None else 0)


def _verdict(diag):
    """What the regime diagnostic `diag` says: the ladder ratio, its length and the route to take."""
    return {"rho": diag.rho, "j_needed": diag.j_needed, "recommendation": diag.recommendation}


def cmd_regimes(cfg, args) -> int:
    geo = geometry_config(cfg)
    if not geo.coupled:
        raise ValidationError("the regime diagnostic applies to the coupled problems")
    field = boundary_field(cfg, geo, config_dir=_config_dir(args))
    diag = convergence_diagnostic(geo, field, truncation_policy(cfg))
    result = {"problem": cfg["problem"], **_verdict(diag)}
    if diag.tol is not None:
        result["tol"] = diag.tol
    _report(cfg, args, result)
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
    except (LayerFieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
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
