"""The CLI contract holds under adversarial configs.

A valid config of each problem takes one mutation: a key dropped,
added or repeated in its object, a number swapped for a bool, a string, a list, 0, a negative,
+-1e+-300, a subnormal or a 300-digit integer, a count set to 10^9,
output.path swapped for a bool, a number, an empty string or a list, or
the boundary modes swapped for a drawn trace file: a valid one, one that
is not a uniform period, a header alone, a malformed row or a line over
the reader's chunk.
Every command then runs it in-process.  Each run must exit 0, 2, 3 or 4
(1 only from `verify`, with every check finite), print strict JSON, and
end within a fixed time and traced-memory peak.  A solved grid file,
cut or altered, must fail `verify --grid`.  Sampled boundaries keep the
same contract: odd circle traces and a strip trace shorter than the grid
run through every command that reads a trace.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield.cli import MAX_RADIAL_MODE, METHODS, main
from layerfield.harmonic import LINE_CHUNK

PLANAR = [{"omega": 1.3, "A": 0.7, "phi": 0.2}, {"omega": 3.1, "A": -0.4}]
RADIAL = [{"n": 1, "a": 0.7, "b": 0.1}, {"n": 3, "a": -0.2}]
VALID = {
    "strip": ({"l": 0.4}, PLANAR, {"x": [0.0, 0.4, 4], "y": [-1.0, 1.0, 4]}),
    "halfplane_coupled": ({"l": 0.2, "k": 0.3, "a2": 2.0}, PLANAR, {"x": [0.0, 1.0, 4], "y": [-1.0, 1.0, 4]}),
    "annulus": ({"R": 0.6}, RADIAL, {"r": [0.6, 1.0, 4], "theta": [0.0, 6.0, 4]}),
    "disk_coupled": ({"R": 0.7, "k": 3.0}, RADIAL, {"r": [0.0, 1.0, 4], "theta": [0.0, 6.0, 4]}),
}
COMMANDS = ("solve", "verify", "compare", "regimes")
#: what a number may be swapped for
SWAPS = [True, False, "1", [1.0], 0, 0.0, -1, -0.5, 1e300, -1e300, 1e308, 1e-300, -1e-300, 5e-324, 10**300]
#: keys a mutation may add: unknown ones, and known ones in the wrong place
ADDED = ["extra", "a1", "J", "sweep", "methods", "regime"]
COUNT = 10**9
#: what output.path may be swapped for: open() takes an int or a bool as a file descriptor
PATH_SWAPS = [True, False, 0, 1, 2, -1, 1.5, "", ["a"], {"path": "x"}, None]
#: stands for a file in the run's temporary directory
OUT = "<tmp>/out"
#: a key that starts with this is written as the key after it, a second time in its object
REPEAT = "repeat-of:"
#: per run: wall time, and tracemalloc's peak
SECONDS = 10.0
PEAK_BYTES = 64 * 2**20


def base_config(problem, method):
    geometry, modes, grid = VALID[problem]
    return {
        "problem": problem,
        "geometry": dict(geometry),
        "boundary": {"modes": copy.deepcopy(modes)},
        "method": method,
        "truncation": {"tol": 1e-10},
        "tolerances": {"pde_residual": 1e-6},
        "grid": copy.deepcopy(grid),
        "output": {"path": OUT},
    }


def nodes(node, path=()):
    """(path, value) of every node below the top."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(path):
    return path[-1] == "n" or (path[0] == "grid" and path[-1] == 2) or path == ("truncation",)


def _rows(abscissae):
    return "".join(f"{t!r},{math.cos(t)!r}\n" for t in abscissae)


def _samples(count, circle):
    """`count` evenly spaced abscissae over one period of the circle, or over [-1, 1] on a line."""
    return [2.0 * math.pi * j / count if circle else -1.0 + 2.0 * j / (count - 1) for j in range(count)]


#: the text of each trace file a mutation may name in boundary.samples,
#: given whether the problem reads a circle
TRACE_FILES = {
    "uniform": lambda circle: "t,u\n" + _rows(_samples(32, circle)),
    "non-uniform": lambda circle: _rows(t + 0.05 * math.sin(3.0 * t) for t in _samples(32, circle)),
    "repeated-abscissa": lambda circle: _rows(_samples(32, circle)[:1] + _samples(32, circle)),
    "header-only": lambda circle: "t,u\n",
    "three-columns": lambda circle: "0.0,1.0\n0.5,1.0,2.0\n1.0,0.5\n",
    "non-numeric": lambda circle: "0.0,1.0\n0.5,one\n1.0,0.5\n",
    "over-the-chunk": lambda circle: "0.0,1.0\n0.5," + "1" * LINE_CHUNK + "\n1.0,0.5\n",
}


def with_trace(cfg, trace):
    """`cfg` with its boundary modes swapped for the trace file `trace`, on a
    grid the finite-difference solve honours."""
    grid = TRACE_GRIDS.get(cfg["problem"], cfg["grid"])
    return {**cfg, "boundary": {"samples": f"{trace}.csv"}, "grid": copy.deepcopy(grid)}


@st.composite
def mutated(draw, problem):
    cfg = base_config(problem, draw(st.sampled_from(METHODS)))
    every = list(nodes(cfg))
    kind = draw(st.sampled_from(["drop", "add", "swap", "count", "path", "samples", "repeat"]))
    if kind == "path":
        cfg["output"]["path"] = draw(st.sampled_from(PATH_SWAPS))
        return cfg
    if kind == "repeat":
        target = draw(st.sampled_from([cfg] + [v for _, v in every if isinstance(v, dict)]))
        # not the top-level method, which compare swaps for a methods list
        key = draw(st.sampled_from(sorted(set(target) - ({"method"} if target is cfg else set()))))
        target[REPEAT + key] = target[key]
        return cfg
    if kind == "samples":
        return with_trace(cfg, draw(st.sampled_from(sorted(TRACE_FILES))))
    if kind == "drop":
        path = draw(st.sampled_from([p for p, _ in every]))
    elif kind == "add":
        path = draw(st.sampled_from([()] + [p for p, v in every if isinstance(v, dict)]))
    elif kind == "swap":
        path = draw(st.sampled_from([p for p, v in every if is_number(v)]))
    else:
        path = draw(st.sampled_from([p for p, _ in every if is_count(p)]))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "add":
        target = parent[path[-1]] if path else cfg
        target[draw(st.sampled_from(ADDED))] = 1.0
    elif kind == "swap":
        parent[path[-1]] = draw(st.sampled_from(SWAPS))
    else:
        parent[path[-1]] = {"J": COUNT} if path == ("truncation",) else COUNT
    return cfg


def for_command(cfg, command, tmp):
    """The config `command` reads: compare takes a methods list instead of a
    method, and an output path stands for a file of its own in `tmp`."""
    cfg = json.loads(json.dumps(cfg).replace(json.dumps(OUT), json.dumps(os.path.join(tmp, f"{command}.out"))))
    if command != "compare" or cfg.get("method") not in METHODS:
        return cfg
    method = cfg.pop("method")
    cfg["methods"] = [method, "identity" if method != "identity" else "series"]
    return cfg


def reject_constant(text):
    raise AssertionError(f"stdout is not strict JSON: {text}")


def run(argv):
    """Exit code, stdout, stderr, seconds and traced peak of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), err.getvalue(), seconds, peak


def keeps_the_contract(problem, cfg):
    """Run `cfg` through every command in a directory of its own, with the
    trace file it names, and check each run's exit code, output, time and peak."""
    with tempfile.TemporaryDirectory() as tmp:
        grid = os.path.join(tmp, "grid.csv")
        if "samples" in cfg.get("boundary", {}):
            name = cfg["boundary"]["samples"]
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(TRACE_FILES[name[:-len(".csv")]](problem in CIRCLE_PROBLEMS))
        for command in COMMANDS:
            path = os.path.join(tmp, f"{command}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(for_command(cfg, command, tmp)).replace(json.dumps(REPEAT)[:-1], '"'))
            argv = [command, "--config", path]
            if command == "solve":
                argv += ["--out", grid]
            elif command == "verify" and os.path.exists(grid):
                argv += ["--grid", grid]
            code, out, err, seconds, peak = run(argv)
            where = (command, cfg, code, err)
            assert code in (0, 2, 3, 4) or (code == 1 and command == "verify"), where
            assert seconds <= SECONDS and peak <= PEAK_BYTES, (where, seconds, peak)
            # a repeated key is refused wherever it is, not read as its last value
            assert code == 2 or REPEAT not in json.dumps(cfg), where
            if code in (2, 3):
                assert err.startswith(("error: ", "convergence failure: ")) and out == "", where
                continue
            report = json.loads(out, parse_constant=reject_constant)
            if code == 1:
                assert all(math.isfinite(check["value"]) for check in report["checks"].values()), where


@pytest.mark.parametrize("problem", sorted(VALID))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_mutated_config_keeps_the_contract(problem, data):
    keeps_the_contract(problem, data.draw(mutated(problem)))


@pytest.mark.parametrize("method", ["series", "oracle"])
@pytest.mark.parametrize("trace", sorted(TRACE_FILES))
@pytest.mark.parametrize("problem", sorted(VALID))
def test_every_trace_file_of_the_grammar_keeps_the_contract(problem, trace, method):
    # the oracle method on a trace is the finite-difference solve
    keeps_the_contract(problem, with_trace(base_config(problem, method), trace))


def _change_one_value(lines):
    x, y, region, value = lines[4].split(",")
    lines[4] = ",".join([x, y, region, "1.5" if value != "1.5" else "2.5"])
    return lines


#: (what is done to the solved file's lines, exit code, grid_mismatches)
GRID_MUTATIONS = {
    "empty": (lambda lines: [], 2, None),
    "header-only": (lambda lines: lines[:1], 2, None),
    "row-dropped": (lambda lines: lines[:5] + lines[6:], 1, 1),
    "value-changed": (_change_one_value, 1, 1),
    "wrong-header": (lambda lines: ["a,b,region,u"] + lines[1:], 2, None),
}


@pytest.mark.parametrize("mutation", sorted(GRID_MUTATIONS))
@pytest.mark.parametrize("problem", sorted(VALID))
def test_every_mutated_grid_file_fails_verify(problem, mutation):
    change, expected, mismatches = GRID_MUTATIONS[mutation]
    with tempfile.TemporaryDirectory() as tmp:
        path, grid = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "grid.csv")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**base_config(problem, "series"), "output": {}}, fh)
        assert run(["solve", "--config", path, "--out", grid])[0] == 0
        with open(grid, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(grid, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in change(lines))
        code, out, err, _, _ = run(["verify", "--config", path, "--grid", grid])
    assert code == expected, (err, out)
    if code == 2:
        assert err.startswith(f"error: {grid} ") and out == ""
    else:
        assert json.loads(out, parse_constant=reject_constant)["grid_mismatches"] == mismatches


def _circle(count, start=0.0, stop=2.0 * math.pi):
    """`count` evenly spaced abscissae over [start, stop)."""
    return [start + (stop - start) * j / count for j in range(count)]


#: sampled boundary traces as (the abscissae of their rows, the problems that read them)
CIRCLE_PROBLEMS = ("annulus", "disk_coupled")
TRACES = {
    "circle-non-uniform": ([t + 0.05 * math.sin(3.0 * t) for t in _circle(32)], CIRCLE_PROBLEMS),
    "circle-repeated-abscissa": (sorted(_circle(32) + [math.pi]), CIRCLE_PROBLEMS),
    "circle-header-only": ([], CIRCLE_PROBLEMS),
    "circle-partial-period": (_circle(32, stop=math.pi), CIRCLE_PROBLEMS),
    "circle-over-the-mode-cap": (_circle(2 * MAX_RADIAL_MODE + 3), CIRCLE_PROBLEMS),
    "strip-shorter-than-the-grid": ([-0.5 + j / 40 for j in range(41)], ("strip",)),
}
#: grids the finite-difference solves honour: the whole domain in x or
#: r, and the periodic theta nodes
TRACE_GRIDS = {
    "strip": {"x": [0.0, 0.4, 4], "y": [-1.0, 1.0, 4]},
    "annulus": {"r": [0.6, 1.0, 8], "theta": [0.0, 2.0 * math.pi * 7 / 8, 8]},
    "disk_coupled": {"r": [0.0, 1.0, 8], "theta": [0.0, 2.0 * math.pi * 7 / 8, 8]},
}
#: (command, extra arguments, config changes) of each run over a trace
TRACE_RUNS = [
    ("solve", [], {"method": "oracle"}),
    ("solve", [], {"method": "series"}),
    ("solve", ["--strict"], {"method": "series"}),
    ("compare", [], {"methods": ["series", "asymptotic"], "sweep": {"R": [0.6, 0.7], "l": [0.2, 0.4]}}),
    ("regimes", [], {"method": "series"}),
]


def _trace_config(problem, changes):
    cfg = {**base_config(problem, "series"), "boundary": {"samples": "trace.csv"}, "output": {}}
    cfg["grid"] = copy.deepcopy(TRACE_GRIDS[problem])
    cfg.update(copy.deepcopy(changes))
    if "sweep" in cfg:
        del cfg["method"]
        # each problem sweeps its own thickness key
        cfg["sweep"] = {key: value for key, value in cfg["sweep"].items() if key in cfg["geometry"]}
    return cfg


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_every_odd_trace_keeps_the_contract(trace):
    abscissae, problems = TRACES[trace]
    for problem in problems:
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "trace.csv"), "w", encoding="utf-8") as fh:
                fh.write("t,u\n" + "".join(f"{t!r},{math.cos(t)!r}\n" for t in abscissae))
            for command, extra, changes in TRACE_RUNS:
                path = os.path.join(tmp, f"{command}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(_trace_config(problem, changes), fh)
                argv = [command, "--config", path, *extra]
                if command == "solve":
                    argv += ["--out", os.path.join(tmp, "grid.csv")]
                code, out, err, seconds, peak = run(argv)
                where = (problem, argv, changes, code, err)
                assert code in (0, 2, 3, 4), where
                assert seconds <= SECONDS and peak <= PEAK_BYTES, (where, seconds, peak)
                if code in (2, 3):
                    assert err.startswith(("error: ", "convergence failure: ")) and out == "", where
                elif code == 4:
                    assert out == "" and json.loads(err, parse_constant=reject_constant), where
                else:
                    json.loads(out, parse_constant=reject_constant)
