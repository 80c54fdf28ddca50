"""The three workloads: their inputs, their CLI invocations and their gates.

A workload is a fixed list of CLI invocations (ops).  The seed draws the
mode amplitudes and phases and the sampled boundary traces; mode indices,
frequencies, geometries and grid sizes are fixed because they set the
cost.  Amplitudes are normalised so that the sup bound of every boundary
field is 1, which keeps the ladder term counts J the same for every seed.
The CLI sees only the files written here.

Every op carries a gate, a function of its result that returns
(ok, data).  `data` holds the measured error next to what it was allowed,
and findings that are recorded but not gated.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import exact

TWO_PI = 2.0 * math.pi
#: allowance for rounding in a ladder or closed form whose sup bound is 1
ROUNDOFF = 1e-11
#: the README's thickness-order claim for the first-order asymptotics
ORDER_RANGE = (0.7, 1.3)
#: finite-difference discretisation tolerance per problem, with the window
#: it applies in; the strip's zero lateral edges make it wrong near |y|=3
FD_TOLERANCE = {"disk_coupled": 2e-3, "annulus": 2e-3, "strip": 5e-3}
STRIP_FD_WINDOW = 2.0

STRIP = {"l": 0.5}
HALFPLANE = {"l": 0.1, "k": 0.02}
ANNULUS = {"R": 0.9}
THIN_DISK = {"R": 0.99, "k": 0.05}
PLANAR_OMEGAS = {"strip": (1.0, 2.0), "halfplane_coupled": (1.0, 3.0)}
RADIAL_NS = (1, 3)
SWEEP_R = [0.995, 0.99, 0.98, 0.96, 0.92]
SAMPLED_DISK = {"R": 0.8, "k": 0.2}
SAMPLED_ANNULUS = {"R": 0.7}
SAMPLED_NS = (1, 2)
CIRCLE_SAMPLES = 256
LINE_SAMPLES = 401
LINE_WINDOW = (-3.0, 3.0)

WORKLOADS = ("closed_forms", "thin_ladder", "sampled_boundary")


@dataclass
class Op:
    """One CLI invocation and the gate on its result."""

    id: str
    command: str
    config: str
    args: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    nodes: int = 0
    gate: Callable = None
    threads: int = 1

    def argv(self):
        return [self.command, "--config", self.config, *self.args]


@dataclass
class Result:
    op: Op
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    samples: list


class Context:
    """What gates share within a run: the work directory, the values of
    earlier ops of the pass, and bounds computed by the package itself."""

    def __init__(self, work: Path, src: Path):
        self.work = work
        self.src = src
        self.values = {}
        self._bounds = {}

    def library(self):
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        import layerfield

        return layerfield

    def asymptotic_bound(self, key, make):
        """The route's own `bound`, computed once per run by `make(layerfield)`."""
        if key not in self._bounds:
            self._bounds[key] = float(make(self.library()))
        return self._bounds[key]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _planar_modes(rng, omegas):
    weights = [rng.uniform(0.5, 1.5) for _ in omegas]
    total = sum(weights)
    return [(w / total, om, rng.uniform(0.0, TWO_PI)) for w, om in zip(weights, omegas)]


def _radial_modes(rng, ns):
    modes = []
    for n in ns:
        amp, phase = rng.uniform(0.5, 1.5), rng.uniform(0.0, TWO_PI)
        modes.append((n, amp * math.cos(phase), amp * math.sin(phase)))
    total = sum(abs(a) + abs(b) for _, a, b in modes)
    return [(n, a / total, b / total) for n, a, b in modes]


def _mode_json(problem, modes):
    if problem in ("strip", "halfplane_coupled"):
        return [{"A": a, "omega": w, "phi": p} for a, w, p in modes]
    return [{"n": n, "a": a, "b": b} for n, a, b in modes]


def _grid(problem, n1, n2, r0=0.0):
    if problem == "strip":
        return {"x": [0.0, STRIP["l"], n1], "y": [-3.0, 3.0, n2]}
    if problem == "halfplane_coupled":
        return {"x": [0.0, 1.0, n1], "y": [-3.0, 3.0, n2]}
    return {"r": [r0, 1.0, n1], "theta": [0.0, TWO_PI, n2]}


def _write_config(work, name, cfg):
    (work / name).write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return name


def _write_trace(work, name, t, v):
    lines = ["t,u"] + [f"{a!r},{b!r}" for a, b in zip(t.tolist(), v.tolist())]
    (work / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _summary(res):
    return json.loads(res.stdout)


class GateError(Exception):
    """An output that breaks the op's contract."""


def _check(cond, message):
    if not cond:
        raise GateError(message)


def _grid_values(ctx, problem, geometry, out, shape):
    header, c1, c2, region, u = exact.read_grid_csv(ctx.work / out)
    want = "r,theta,region,u" if problem in ("annulus", "disk_coupled") else "x,y,region,u"
    _check(header == want, f"header {header!r}")
    _check(u.size == shape[0] * shape[1], f"{u.size} rows, expected {shape[0] * shape[1]}")
    _check(np.all(np.isfinite(u)), "non-finite value")
    layer = exact.layer_of(problem, geometry, c1)
    _check(np.array_equal(region.astype(int), layer), "region codes disagree with the geometry")
    return c1, c2, layer, u


def solve_gate(route, problem, geometry, modes, out, shape, bound_key=None, bound_fn=None):
    """series and oracle: within the printed tail bound of the closed form.
    asymptotic: layer 2 within the route's own bound where one exists."""

    def gate(res, ctx):
        _check(res.code == 0, f"exit {res.code}")
        summary = _summary(res)
        c1, c2, layer, u = _grid_values(ctx, problem, geometry, out, shape)
        ctx.values[res.op.id] = u
        err = np.abs(u - exact.solution(problem, modes, geometry, c1, c2, layer))
        if route != "asymptotic":
            allowed = summary.get("tail_bound", 0.0) + ROUNDOFF
            data = {"max_err": float(err.max()), "allowed": allowed, "terms": summary.get("terms")}
            return bool(err.max() <= allowed), data
        data = {f"max_err_layer{i}": float(err[layer == i].max()) for i in (1, 2) if np.any(layer == i)}
        if bound_fn is None:
            return True, data
        bound = ctx.asymptotic_bound(bound_key, bound_fn)
        data["bound"] = bound
        return bool(data["max_err_layer2"] <= bound), data

    return gate


def fd_gate(problem, geometry, modes, out):
    """FD oracle: within the stated discretisation tolerance of the closed form."""

    def gate(res, ctx):
        _check(res.code == 0, f"exit {res.code}")
        _, c1, c2, region, u = exact.read_grid_csv(ctx.work / out)
        _check(np.all(np.isfinite(u)), "non-finite value")
        layer = exact.layer_of(problem, geometry, c1)
        _check(np.array_equal(region.astype(int), layer), "region codes disagree with the geometry")
        err = np.abs(u - exact.solution(problem, modes, geometry, c1, c2, layer))
        if problem == "strip":
            err = err[np.abs(c2) < STRIP_FD_WINDOW]
        tol = FD_TOLERANCE[problem]
        return bool(err.max() <= tol), {"max_err": float(err.max()), "allowed": tol, "rows": int(u.size)}

    return gate


def pair_gate(asym_id, oracle_id):
    """compare's max_abs_diff equals the one between the two solve outputs."""

    def gate(res, ctx):
        _check(res.code == 0, f"exit {res.code}")
        got = _summary(res)["max_abs_diff"]["asymptotic|oracle"]
        want = float(np.max(np.abs(ctx.values[asym_id] - ctx.values[oracle_id])))
        return abs(got - want) <= ROUNDOFF, {"max_abs_diff": got, "from_solve_csvs": want}

    return gate


def series_compare_gate(problem, geometry, modes, out, shape, bound_key, bound_fn, sweep=False):
    """compare [series, asymptotic] --out: series within its tail bound,
    asymptotic layer 2 within its bound, and the sweep's thickness order."""

    def gate(res, ctx):
        _check(res.code == 0, f"exit {res.code}")
        summary = _summary(res)
        cols = exact.read_compare_csv(ctx.work / out)
        names = list(cols)
        c1, c2 = cols[names[0]], cols[names[1]]
        _check(c1.size == shape[0] * shape[1], f"{c1.size} rows, expected {shape[0] * shape[1]}")
        layer = exact.layer_of(problem, geometry, c1)
        want = exact.solution(problem, modes, geometry, c1, c2, layer)
        series_err = float(np.max(np.abs(cols["u_series"] - want)))
        asym_err = np.abs(cols["u_asymptotic"] - want)
        allowed = summary["bounds"]["series"] + ROUNDOFF
        bound = ctx.asymptotic_bound(bound_key, bound_fn)
        data = {
            "series_max_err": series_err,
            "series_allowed": allowed,
            "asym_max_err_layer1": float(asym_err[layer == 1].max()),
            "asym_max_err_layer2": float(asym_err[layer == 2].max()),
            "asym_bound": bound,
        }
        ok = series_err <= allowed and data["asym_max_err_layer2"] <= bound
        if sweep:
            order = summary["thickness_order"]
            data["thickness_order"] = order
            ok = ok and ORDER_RANGE[0] <= order <= ORDER_RANGE[1]
        return bool(ok), data

    return gate


def verify_gate(grid=False):
    """Boundary, value and flux checks pass at the default tolerances; the
    exit code matches the printed verdict; pde_residual is data only."""

    def gate(res, ctx):
        report = _summary(res)
        checks = report["checks"]
        verdict = all(c["pass"] for c in checks.values())
        if grid:
            verdict = verdict and report["grid_mismatches"] == 0
        _check(report["all_pass"] == verdict, "all_pass disagrees with the checks")
        _check(res.code == (0 if verdict else 1), f"exit {res.code} with all_pass={verdict}")
        data = {"pde_residual": checks["pde_residual"]["value"], "pde_pass": checks["pde_residual"]["pass"]}
        ok = all(checks[name]["pass"] for name in ("boundary_mismatch", "value_jump", "flux_jump"))
        if grid:
            data["grid_mismatches"] = report["grid_mismatches"]
            ok = ok and report["grid_mismatches"] == 0
        return bool(ok), data

    return gate


def regimes_gate(geometry):
    def gate(res, ctx):
        _check(res.code == 0, f"exit {res.code}")
        report = _summary(res)
        ok = (
            abs(report["rho"] - exact.rho_of(geometry["k"])) <= 1e-12
            and isinstance(report["j_needed"], int)
            and report["j_needed"] >= 1
            and report["recommendation"] in ("series", "asymptotic")
        )
        return bool(ok), {"j_needed": report["j_needed"], "recommendation": report["recommendation"]}

    return gate


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _disk_field(lf, modes):
    n_max = max(n for n, _, _ in modes)
    a, b = np.zeros(n_max + 1), np.zeros(n_max + 1)
    for n, ca, sb in modes:
        a[n], b[n] = ca, sb
    return lf.DiskField(a, b)


def _disk_bound(modes, geometry):
    return lambda lf: lf.disk_small_contrast(
        _disk_field(lf, modes), lf.RadialLayerConfig(R=geometry["R"], k=geometry["k"])
    ).bound


def _halfplane_bound(modes, geometry):
    return lambda lf: lf.halfplane_small_contrast(
        lf.HalfPlaneField(modes=modes), lf.PlanarLayerConfig(l=geometry["l"], k=geometry["k"])
    ).bound


def _projected_bound(trace_path, geometry):
    def make(lf):
        trace = lf.BoundaryTrace.from_csv(trace_path)
        field = lf.disk_from_boundary(trace, (trace.abscissae.size - 1) // 2)
        return lf.disk_small_contrast(field, lf.RadialLayerConfig(R=geometry["R"], k=geometry["k"])).bound

    return make


def _closed_forms(rng, work):
    problems = {
        "strip": (STRIP, _planar_modes(rng, PLANAR_OMEGAS["strip"])),
        "halfplane_coupled": (HALFPLANE, _planar_modes(rng, PLANAR_OMEGAS["halfplane_coupled"])),
        "annulus": (ANNULUS, _radial_modes(rng, RADIAL_NS)),
        "disk_coupled": (THIN_DISK, _radial_modes(rng, RADIAL_NS)),
    }
    bounds = {
        "halfplane_coupled": _halfplane_bound(problems["halfplane_coupled"][1], HALFPLANE),
        "disk_coupled": _disk_bound(problems["disk_coupled"][1], THIN_DISK),
    }
    shape = (300, 300)
    ops, bases = [], {}
    for problem, (geometry, modes) in problems.items():
        bases[problem] = base = {
            "problem": problem,
            "geometry": geometry,
            "boundary": {"modes": _mode_json(problem, modes)},
            "grid": _grid(problem, *shape, r0=geometry.get("R", 0.0) if problem == "annulus" else 0.0),
        }
        for route in ("asymptotic", "oracle"):
            cfg = _write_config(work, f"{problem}.{route}.json", {**base, "method": route})
            out = f"{problem}.{route}.csv"
            bound_fn = bounds.get(problem) if route == "asymptotic" else None
            gate = solve_gate(route, problem, geometry, modes, out, shape, problem, bound_fn)
            ops.append(Op(f"solve.{route}.{problem}", "solve", cfg, ["--out", out], [out],
                          shape[0] * shape[1], gate))
    for problem in ("halfplane_coupled", "disk_coupled"):
        cfg = _write_config(work, f"{problem}.compare.json",
                            {**bases[problem], "methods": ["asymptotic", "oracle"]})
        ops.append(Op(f"compare.{problem}", "compare", cfg,
                      gate=pair_gate(f"solve.asymptotic.{problem}", f"solve.oracle.{problem}")))
    for problem in ("strip", "halfplane_coupled"):
        ops.append(Op(f"verify.oracle.{problem}", "verify", f"{problem}.oracle.json", gate=verify_gate()))
    for problem in ("halfplane_coupled", "disk_coupled"):
        ops.append(Op(f"regimes.{problem}", "regimes", f"{problem}.oracle.json",
                      gate=regimes_gate(problems[problem][0])))
    return ops


def _thin_ladder(rng, work):
    disk_modes = _radial_modes(rng, RADIAL_NS)
    plane_modes = _planar_modes(rng, PLANAR_OMEGAS["halfplane_coupled"])
    disk_bound = _disk_bound(disk_modes, THIN_DISK)

    def config(name, problem, geometry, modes, shape, **extra):
        return _write_config(work, name, {
            "problem": problem, "geometry": geometry, "method": "series",
            "boundary": {"modes": _mode_json(problem, modes)},
            "truncation": {"tol": 1e-10}, "grid": _grid(problem, *shape), **extra,
        })

    ops = []
    for name, problem, geometry, modes, shape, threads in (
        ("disk", "disk_coupled", THIN_DISK, disk_modes, (300, 300), None),
        ("halfplane", "halfplane_coupled", HALFPLANE, plane_modes, (300, 300), 2),
        ("disk20", "disk_coupled", THIN_DISK, disk_modes, (20, 20), None),
    ):
        cfg = config(f"{name}.json", problem, geometry, modes, shape)
        out = f"{name}.csv"
        args = ["--out", out] + (["--threads", str(threads)] if threads else [])
        ops.append(Op(f"solve.series.{name}", "solve", cfg, args, [out], shape[0] * shape[1],
                      solve_gate("series", problem, geometry, modes, out, shape), threads or 1))
    ops.append(Op("verify.series.disk20", "verify", "disk20.json", ["--grid", "disk20.csv"],
                  gate=verify_gate(grid=True)))
    cfg = config("sweep.json", "disk_coupled", THIN_DISK, disk_modes, (100, 100),
                 methods=["series", "asymptotic"], sweep={"R": SWEEP_R})
    ops.append(Op("compare.sweep.disk", "compare", cfg, ["--out", "sweep.csv"], ["sweep.csv"],
                  gate=series_compare_gate("disk_coupled", THIN_DISK, disk_modes, "sweep.csv", (100, 100),
                                           "disk", disk_bound, sweep=True)))
    return ops


def _sampled_boundary(rng, work):
    t = np.arange(CIRCLE_SAMPLES) * (TWO_PI / CIRCLE_SAMPLES)
    disk_modes = _radial_modes(rng, SAMPLED_NS)
    annulus_modes = _radial_modes(rng, SAMPLED_NS)
    line_modes = _planar_modes(rng, PLANAR_OMEGAS["strip"])
    y = np.linspace(*LINE_WINDOW, LINE_SAMPLES)
    traces = {
        "disk": _write_trace(work, "disk.trace.csv", t, exact.circle(disk_modes, t)),
        "annulus": _write_trace(work, "annulus.trace.csv", t, exact.circle(annulus_modes, t)),
        "strip": _write_trace(work, "strip.trace.csv", y, exact.line(line_modes, y)),
    }
    ops = []
    for name, problem, geometry, modes, shape in (
        ("disk", "disk_coupled", SAMPLED_DISK, disk_modes, (300, 300)),
        ("annulus", "annulus", SAMPLED_ANNULUS, annulus_modes, (200, 200)),
        ("strip", "strip", STRIP, line_modes, (200, 200)),
    ):
        cfg = _write_config(work, f"{name}.fd.json", {
            "problem": problem, "geometry": geometry, "method": "oracle",
            "boundary": {"samples": traces[name]},
            "grid": _grid(problem, *shape, r0=geometry.get("R", 0.0) if problem == "annulus" else 0.0),
        })
        out = f"{name}.fd.csv"
        ops.append(Op(f"solve.fd.{name}", "solve", cfg, ["--out", out], [out], shape[0] * shape[1],
                      fd_gate(problem, geometry, modes, out)))
    series_cfg = _write_config(work, "disk.series.json", {
        "problem": "disk_coupled", "geometry": SAMPLED_DISK, "method": "series",
        "methods": ["series", "asymptotic"], "boundary": {"samples": traces["disk"]},
        "truncation": {"tol": 1e-10}, "grid": _grid("disk_coupled", 100, 100),
    })
    bound = _projected_bound(str(work / traces["disk"]), SAMPLED_DISK)
    ops.append(Op("compare.projected.disk", "compare", series_cfg, ["--out", "projected.csv"], ["projected.csv"],
                  gate=series_compare_gate("disk_coupled", SAMPLED_DISK, disk_modes, "projected.csv", (100, 100),
                                           "projected", bound)))
    # every end-to-end metric must be measured on every workload, so this
    # workload verifies too: the closed form and the series on the FD disk's
    # geometry and modes.  One verify alone is mostly import and too short
    # to time steadily; the series on the projection would take about 30 s
    # in residual_report
    for route in ("oracle", "series"):
        verify_cfg = _write_config(work, f"disk.{route}.verify.json", {
            "problem": "disk_coupled", "geometry": SAMPLED_DISK, "method": route,
            "boundary": {"modes": _mode_json("disk_coupled", disk_modes)},
            **({"truncation": {"tol": 1e-10}} if route == "series" else {}),
        })
        ops.append(Op(f"verify.{route}.disk", "verify", verify_cfg, gate=verify_gate()))
    return ops


def build(name, seed, work):
    """Write the workload's inputs into `work` and return its ops in order."""
    rng = random.Random(f"{name}:{seed}")
    return {"closed_forms": _closed_forms, "thin_ladder": _thin_ladder,
            "sampled_boundary": _sampled_boundary}[name](rng, work)
