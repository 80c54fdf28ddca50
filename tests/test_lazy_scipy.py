"""No run of the package needs scipy.

Each case runs in a fresh interpreter in which a `sys.meta_path` finder
makes every import of scipy raise, because a module imported by an
earlier test stays in this process's sys.modules.  The cases cover the
import, every command on every problem and route, the finite-difference
solves from samples, and the closed-form companion of boundary sources.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import layerfield

METHODS = ["series", "asymptotic", "oracle", "identity"]
CASES = {
    "strip": ({"l": 0.37}, {"x": [0.0, 0.37, 5], "y": [-2.0, 2.0, 5]}),
    "halfplane_coupled": ({"l": 0.21, "k": 0.3}, {"x": [0.0, 1.3, 5], "y": [-2.0, 2.0, 5]}),
    "annulus": ({"R": 0.63}, {"r": [0.63, 1.0, 5], "theta": [0.0, 6.28, 5]}),
    "disk_coupled": ({"R": 0.71, "k": 3.0}, {"r": [0.0, 1.0, 5], "theta": [0.0, 6.28, 5]}),
}

#: blocks scipy, runs its argument, checks that scipy stayed blocked, then
#: prints the scipy modules the process has loaded
CHILD = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this run: {name}")

sys.meta_path.insert(0, NoScipy())
exec(sys.argv[1])
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy imported despite the block")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_child(code, cwd):
    # the child must import the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(layerfield.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_calls(calls):
    """Child code running layerfield.cli.main on each argv, checking exit codes."""
    return (
        "from layerfield.cli import main\n"
        f"for argv, codes in {calls!r}:\n"
        "    code = main(argv)\n"
        "    assert code in codes, (argv, code)\n"
    )


@pytest.mark.parametrize("module", ["layerfield", "layerfield.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert run_child(f"import {module}", tmp_path) == []


@pytest.mark.parametrize("problem", sorted(CASES))
def test_mode_runs_load_no_scipy(tmp_path, problem):
    geometry, grid = CASES[problem]
    if problem in ("annulus", "disk_coupled"):
        modes = [{"n": 1, "a": 0.7, "b": 0.1}, {"n": 4, "a": -0.2, "b": 0.5}]
    else:
        modes = [{"omega": 1.3, "A": 0.7, "phi": 0.2}, {"omega": 3.1, "A": -0.4, "phi": 1.0}]
    base = {"problem": problem, "geometry": geometry, "grid": grid, "boundary": {"modes": modes}}
    calls = []
    for method in METHODS:
        (tmp_path / f"{method}.json").write_text(json.dumps({**base, "method": method}))
        calls.append((["solve", "--config", f"{method}.json", "--out", f"{method}.csv"], [0]))
        # a route may fail a check (identity misses the inner boundary): exit 1
        calls.append((["verify", "--config", f"{method}.json", "--grid", f"{method}.csv"], [0, 1]))
    (tmp_path / "compare.json").write_text(json.dumps({**base, "methods": METHODS}))
    calls.append((["compare", "--config", "compare.json", "--out", "compare.csv"], [0]))
    if problem in ("halfplane_coupled", "disk_coupled"):
        calls.append((["regimes", "--config", "series.json"], [0]))
    assert run_child(cli_calls(calls), tmp_path) == []


@pytest.mark.parametrize("problem", ["strip", "annulus", "disk_coupled"])
def test_fd_solve_from_samples_loads_no_scipy(tmp_path, problem):
    if problem == "strip":
        ts = [-3.0 + 0.03 * i for i in range(201)]
        geometry, grid = {"l": 0.5}, {"x": [0.0, 0.5, 9], "y": [-3.0, 3.0, 17]}
    else:
        ts = [2.0 * math.pi * i / 100 for i in range(100)]  # one period, as a circle trace must be
        r0 = 0.6 if problem == "annulus" else 0.0
        geometry = {"R": 0.6} if problem == "annulus" else {"R": 0.6, "k": 0.4}
        grid = {"r": [r0, 1.0, 9], "theta": [0.0, 2.0 * math.pi, 16]}
    lines = [f"{t!r},{1.0 / (1.0 + t * t)!r}" for t in ts]
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"samples": "trace.csv"},
           "method": "oracle", "grid": grid}
    (tmp_path / "fd.json").write_text(json.dumps(cfg))
    loaded = run_child(cli_calls([(["solve", "--config", "fd.json", "--out", "fd.csv"], [0])]), tmp_path)
    assert loaded == []
    header = "x,y,region,u" if problem == "strip" else "r,theta,region,u"
    assert (tmp_path / "fd.csv").read_text().startswith(header + "\n")


def test_source_bearing_asymptotic_runs_without_scipy(tmp_path):
    # the closed-form companion of a boundary source, in both layers, values
    # and x-derivatives, at the ladder of one image (k < 1) and of two (k > 1)
    code = (
        "import numpy as np\n"
        "from layerfield import HalfPlaneField, PlanarLayerConfig\n"
        "from layerfield.asymptotics import thin_layer_solution\n"
        "field = HalfPlaneField(modes=[(1.0, 1.0, 0.0)], sources=[(0.5, 0.3), (-0.2, -0.1, 0.05)])\n"
        "y = np.linspace(-2.0, 2.0, 9)\n"
        "for k in (0.5, 3.0):\n"
        "    sol = thin_layer_solution(PlanarLayerConfig(l=0.1, k=k), field)\n"
        "    for fn, x in ((sol.u1_value, 0.05), (sol.u1_deriv, 0.05), (sol.u2_value, 0.3), (sol.u2_deriv, 0.3)):\n"
        "        assert np.all(np.isfinite(fn(x, y))), fn\n"
    )
    assert run_child(code, tmp_path) == []
