"""A CLI process loads only what its command runs.

`layerfield` resolves its exported names on first use, the CLI imports
the asymptotics only on the asymptotic route, and no module builds its
classes with `dataclasses`.  Module checks run in fresh interpreters,
because a module imported by an earlier test stays in this process's
sys.modules.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import layerfield
from layerfield import cli

#: runs its argument, then prints the modules the process has loaded beyond
#: the CLI's own third-party and standard-library imports
CHILD = """
import json, sys
import argparse, numpy
base = set(sys.modules)
exec(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - base)))
"""

#: modules a CLI process loads only for a command that needs them
ON_DEMAND = ("layerfield.asymptotics", "layerfield.gridcsv", "dataclasses", "fractions")

CASES = {
    "strip": ({"l": 0.37}, {"x": [0.0, 0.37, 5], "y": [-2.0, 2.0, 5]}),
    "halfplane_coupled": ({"l": 0.21, "k": 0.3}, {"x": [0.0, 1.3, 5], "y": [-2.0, 2.0, 5]}),
    "annulus": ({"R": 0.63}, {"r": [0.63, 1.0, 5], "theta": [0.0, 6.28, 5]}),
    "disk_coupled": ({"R": 0.71, "k": 3.0}, {"r": [0.0, 1.0, 5], "theta": [0.0, 6.28, 5]}),
}


def run_child(code, cwd):
    """The JSON lines `code` prints in a fresh interpreter, then the modules it loaded."""
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
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_loads_nothing_on_demand(tmp_path):
    loaded = run_child("import layerfield.cli", tmp_path)[-1]
    assert "layerfield.cli" in loaded
    assert [m for m in loaded if m.startswith(ON_DEMAND)] == []


def test_package_import_loads_no_submodule(tmp_path):
    loaded = run_child("import layerfield", tmp_path)[-1]
    assert [m for m in loaded if m.startswith("layerfield.")] == []


@pytest.mark.parametrize("problem", sorted(CASES))
def test_only_the_asymptotic_route_loads_the_asymptotics(tmp_path, problem):
    geometry, grid = CASES[problem]
    if problem in ("annulus", "disk_coupled"):
        modes = [{"n": 1, "a": 0.7, "b": 0.1}, {"n": 4, "a": -0.2, "b": 0.5}]
    else:
        modes = [{"omega": 1.3, "A": 0.7, "phi": 0.2}, {"omega": 3.1, "A": -0.4, "phi": 1.0}]
    base = {"problem": problem, "geometry": geometry, "grid": grid, "boundary": {"modes": modes}}
    calls = []
    for method in ("series", "oracle", "identity", "asymptotic"):
        (tmp_path / f"{method}.json").write_text(json.dumps({**base, "method": method}))
        calls.append((["solve", "--config", f"{method}.json", "--out", f"{method}.csv"], [0]))
    # a route may fail a check (the 5-point residual on the annulus): exit 1
    calls.insert(3, (["verify", "--config", "series.json"], [0, 1]))
    if problem in ("halfplane_coupled", "disk_coupled"):
        calls.insert(3, (["regimes", "--config", "series.json"], [0]))
    code = (
        "import contextlib, io\n"
        "from layerfield.cli import main\n"
        f"for argv, codes in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    assert code in codes, (argv, code)\n"
        "    print(json.dumps([m for m in sys.modules if m.startswith('layerfield.asymptotics')]))\n"
    )
    *per_call, _ = run_child(code, tmp_path)
    assert per_call[:-1] == [[]] * (len(calls) - 1)
    assert "layerfield.asymptotics" in per_call[-1]



def test_residual_report_loads_no_asymptotics(tmp_path):
    # the oracle shares no code with the routes it checks, on either flux path
    code = (
        "from layerfield import (DiskField, HalfPlaneField, PlanarLayerConfig, RadialLayerConfig,\n"
        "                        TailTol, residual_report, series_solution)\n"
        "u0 = HalfPlaneField.single_mode(frequency=1.0)\n"
        "d0 = DiskField.single_mode(2)\n"
        "for sol, field in ((series_solution(PlanarLayerConfig(l=0.3, k=0.5), u0, TailTol(1e-10)), u0),\n"
        "                   (series_solution(RadialLayerConfig(R=0.7, k=3.0), d0, TailTol(1e-10)), d0)):\n"
        "    for flux in ('auto', 'fd'):\n"
        "        assert residual_report(sol, field, flux=flux).flux_jump < 1e-6\n"
    )
    loaded = run_child(code, tmp_path)[-1]
    assert "layerfield.oracle" in loaded
    assert [m for m in loaded if m.startswith(ON_DEMAND)] == []

def _run_commands(calls):
    """Child code that runs each CLI call, checks its exit code, then prints
    the modules the process has loaded."""
    return (
        "import contextlib, io\n"
        "from layerfield.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
    )


def _disk_configs(tmp_path):
    """A sampled-disk compare config and a mode series config on the coupled disk."""
    theta = [2 * math.pi * j / 64 for j in range(64)]
    (tmp_path / "trace.csv").write_text("".join(f"{t!r},{math.cos(t) + 0.5 * math.sin(2 * t)!r}\n" for t in theta))
    base = {"problem": "disk_coupled", "geometry": {"R": 0.8, "k": 0.2},
            "grid": {"r": [0.0, 1.0, 5], "theta": [0.0, 6.28, 5]}}
    sampled = {**base, "boundary": {"samples": "trace.csv"}, "methods": ["series", "asymptotic"]}
    modes = {**base, "boundary": {"modes": [{"n": 1, "a": 0.7}, {"n": 3, "b": 0.2}]}, "method": "series"}
    (tmp_path / "sampled.json").write_text(json.dumps(sampled))
    (tmp_path / "modes.json").write_text(json.dumps(modes))


def test_compare_solve_and_regimes_load_no_oracle_and_no_fractions(tmp_path):
    # the oracle loads only for verify, method oracle and the FD solves; the
    # Bernoulli numbers' fractions only when one is computed
    _disk_configs(tmp_path)
    calls = [
        ["compare", "--config", "sampled.json", "--out", "compare.csv"],
        ["solve", "--config", "modes.json", "--out", "solve.csv"],
        ["regimes", "--config", "modes.json"],
    ]
    loaded = run_child(_run_commands(calls), tmp_path)[-1]
    assert "layerfield.asymptotics" in loaded
    assert [m for m in loaded if m in ("layerfield.oracle", "fractions")] == []


@pytest.mark.parametrize("problem", sorted(CASES))
def test_the_asymptotic_route_loads_no_summation_engine(tmp_path, problem):
    # the route needs only links; the tracer's names in links resolve on first use
    geometry, grid = CASES[problem]
    if problem in ("annulus", "disk_coupled"):
        modes = [{"n": 1, "a": 0.7, "b": 0.1}, {"n": 4, "a": -0.2, "b": 0.5}]
    else:
        modes = [{"omega": 1.3, "A": 0.7, "phi": 0.2}, {"omega": 3.1, "A": -0.4, "phi": 1.0}]
    base = {"problem": problem, "geometry": geometry, "grid": grid, "boundary": {"modes": modes}}
    (tmp_path / "solve.json").write_text(json.dumps({**base, "method": "asymptotic"}))
    (tmp_path / "compare.json").write_text(json.dumps({**base, "methods": ["series", "asymptotic"]}))
    calls = [
        ["solve", "--config", "solve.json", "--out", "solve.csv"],
        ["compare", "--config", "compare.json", "--out", "compare.csv"],
    ]
    loaded = run_child(_run_commands(calls), tmp_path)[-1]
    assert "layerfield.asymptotics.links" in loaded
    unwanted = ("layerfield.asymptotics.summation", "layerfield.asymptotics.bernoulli_numbers", "fractions")
    assert [m for m in loaded if m in unwanted] == []


def test_an_export_resolves_to_itself_after_its_submodule_loads(tmp_path):
    # importing a submodule binds its name on the package; no export may be
    # shadowed by it, whichever is loaded first
    code = (
        "import layerfield.asymptotics.summation, layerfield.asymptotics.links\n"
        "import layerfield, layerfield.asymptotics as asymptotics\n"
        "names = [n for n in asymptotics.__all__ if not callable(getattr(asymptotics, n))]\n"
        "names += [n for n in layerfield.__all__ if not callable(getattr(layerfield, n))]\n"
        "print(json.dumps([names, asymptotics.bernoulli(2) == layerfield.bernoulli(2)]))\n"
    )
    (shadowed, same), _ = run_child(code, tmp_path)
    assert shadowed == [] and same


def test_verify_loads_no_numpy_random(tmp_path):
    _disk_configs(tmp_path)
    calls = [
        ["solve", "--config", "modes.json", "--out", "solve.csv"],
        ["verify", "--config", "modes.json", "--grid", "solve.csv"],
    ]
    loaded = run_child(_run_commands(calls), tmp_path)[-1]
    assert "layerfield.oracle" in loaded
    assert [m for m in loaded if m.startswith("numpy.random")] == []


def test_every_export_resolves(tmp_path):
    code = (
        "import layerfield\n"
        "missing = [n for n in layerfield.__all__ if getattr(layerfield, n, None) is None]\n"
        "unlisted = sorted(set(layerfield.__all__) - set(dir(layerfield)))\n"
        "try:\n"
        "    layerfield.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps([missing, unlisted, unknown]))\n"
    )
    (missing, unlisted, unknown), _ = run_child(code, tmp_path)
    assert missing == [] and unlisted == [] and unknown == "AttributeError"
    assert len(layerfield.__all__) == len(set(layerfield.__all__)) > 0


def test_cli_calls_its_entry_points_through_its_globals(tmp_path, monkeypatch):
    # a tracer wraps the entry points where the CLI looks them up
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    spy("residual_report")
    spy("fd_strip")
    modes = {"modes": [{"omega": 1.0, "A": 1.0}]}
    (tmp_path / "modes.json").write_text(json.dumps({"problem": "strip", "geometry": {"l": 0.5}, "boundary": modes}))
    ys = [-3.0 + 0.05 * i for i in range(121)]
    (tmp_path / "trace.csv").write_text("".join(f"{y!r},{math.cos(y)!r}\n" for y in ys))
    fd = {"problem": "strip", "geometry": {"l": 0.5}, "boundary": {"samples": "trace.csv"},
          "method": "oracle", "grid": {"x": [0.0, 0.5, 5], "y": [-3.0, 3.0, 9]}}
    (tmp_path / "fd.json").write_text(json.dumps(fd))
    assert cli.main(["verify", "--config", str(tmp_path / "modes.json")]) == 0
    assert cli.main(["solve", "--config", str(tmp_path / "fd.json"), "--out", str(tmp_path / "fd.csv")]) == 0
    assert calls == ["residual_report", "fd_strip"]


#: prints [the collector's frozen object count, whether it is enabled]
GC_STATE = "import gc\nprint(json.dumps([gc.get_freeze_count(), gc.isenabled()]))\n"


def _regimes_config(tmp_path):
    geometry, grid = CASES["disk_coupled"]
    (tmp_path / "disk.json").write_text(json.dumps({"problem": "disk_coupled", "geometry": geometry, "grid": grid,
                                                     "boundary": {"modes": [{"n": 1, "a": 1.0}]}}))


def test_the_process_entry_freezes_the_import_heap(tmp_path):
    # `python -m layerfield.cli` and the console script run cli.run, which
    # moves the imports' objects out of the collector's reach and leaves
    # it enabled
    _regimes_config(tmp_path)
    code = (
        "import contextlib, io, runpy\n"
        "sys.argv = ['layerfield', 'regimes', '--config', 'disk.json']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('layerfield.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "    else:\n"
        "        raise AssertionError('the entry did not exit')\n"
    ) + GC_STATE
    (frozen, enabled), _ = run_child(code, tmp_path)
    assert frozen > 0 and enabled


def test_main_leaves_the_collector_as_it_finds_it(tmp_path):
    # tests, the benchmark's tracer and library users call main in a
    # process of their own
    _regimes_config(tmp_path)
    code = (
        "import contextlib, io\n"
        "import layerfield.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['regimes', '--config', 'disk.json']) == 0\n"
    ) + GC_STATE
    (frozen, enabled), _ = run_child(code, tmp_path)
    assert frozen == 0 and enabled
