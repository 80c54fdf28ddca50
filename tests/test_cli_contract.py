"""The CLI contract holds under adversarial configs.

A valid config of each problem takes one mutation: a key dropped or
added, a number swapped for a bool, a string, a list, 0, a negative,
+-1e+-300, a subnormal or a 300-digit integer, a count set to 10^9, or
output.path swapped for a bool, a number, an empty string or a list.
Every command then runs it in-process.  Each run must exit 0, 2, 3 or 4
(1 only from `verify`, with every check finite), print strict JSON, and
end within a fixed time and traced-memory peak.
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

from layerfield.cli import METHODS, main

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


@st.composite
def mutated(draw, problem):
    cfg = base_config(problem, draw(st.sampled_from(METHODS)))
    every = list(nodes(cfg))
    kind = draw(st.sampled_from(["drop", "add", "swap", "count", "path"]))
    if kind == "path":
        cfg["output"]["path"] = draw(st.sampled_from(PATH_SWAPS))
        return cfg
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


@pytest.mark.parametrize("problem", sorted(VALID))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_mutated_config_keeps_the_contract(problem, data):
    cfg = data.draw(mutated(problem))
    with tempfile.TemporaryDirectory() as tmp:
        grid = os.path.join(tmp, "grid.csv")
        for command in COMMANDS:
            path = os.path.join(tmp, f"{command}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(for_command(cfg, command, tmp), fh)
            argv = [command, "--config", path]
            if command == "solve":
                argv += ["--out", grid]
            elif command == "verify" and os.path.exists(grid):
                argv += ["--grid", grid]
            code, out, err, seconds, peak = run(argv)
            where = (command, cfg, code, err)
            assert code in (0, 2, 3, 4) or (code == 1 and command == "verify"), where
            assert seconds <= SECONDS and peak <= PEAK_BYTES, (where, seconds, peak)
            if code in (2, 3):
                assert err.startswith(("error: ", "convergence failure: ")) and out == "", where
                continue
            report = json.loads(out, parse_constant=reject_constant)
            if code == 1:
                assert all(math.isfinite(check["value"]) for check in report["checks"].values()), where
