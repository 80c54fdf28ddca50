"""The names the benchmark reaches into still resolve on the package.

benchmarks/tracer.py wraps each entry point of its ENTRY_POINTS, and
benchmarks/workloads.py calls `lf.<name>` on the package.  Both files are
only read here, never imported or run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import layerfield

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def tracer_entry_points():
    """(module, attribute path) of every ENTRY_POINTS row in tracer.py."""
    tree = ast.parse((BENCHMARKS / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("benchmarks/tracer.py has no ENTRY_POINTS list")


WORKLOAD_NAMES = sorted(set(re.findall(r"\blf\.(\w+)", (BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))))


@pytest.mark.parametrize("module, path", tracer_entry_points(), ids=lambda part: part)
def test_tracer_entry_point_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_workloads_call_the_package():
    assert WORKLOAD_NAMES


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_library_name_resolves(name):
    assert name in layerfield.__all__
    assert getattr(layerfield, name) is not None


#: one mode config per problem, in the shape `cli.build_solution` reads
SERIES_CONFIGS = {
    "strip": ({"l": 0.2}, [{"omega": 1.0}]),
    "halfplane_coupled": ({"l": 0.2, "k": 0.3}, [{"omega": 1.0}, {"omega": 2.5, "A": -0.4}]),
    "annulus": ({"R": 0.8}, [{"n": 0, "a": 1.0}, {"n": 1, "a": 1.0}]),
    "disk_coupled": ({"R": 0.8, "k": 3.0}, [{"n": 1, "a": 1.0}, {"n": 3, "b": 0.3}]),
}


@pytest.mark.parametrize("problem", sorted(SERIES_CONFIGS))
def test_series_solution_exposes_what_the_tracer_counts(problem):
    # tracer._grid_counts reads series.term_evals as terms x nodes x the
    # field's active modes, from `cos_coeffs` or a `modes` list; a renamed
    # attribute would not raise there, it would report 0
    from layerfield import cli

    geometry, modes = SERIES_CONFIGS[problem]
    cfg = {"problem": problem, "geometry": geometry, "boundary": {"modes": modes}}
    geo = cli.geometry_config(cfg)
    field = cli.boundary_field(cfg, geo, config_dir=".")
    solution = cli.build_solution(cfg, "series", field, geo, cli.truncation_policy(cfg))
    assert isinstance(solution.terms, int) and solution.terms >= 1
    # every transfer field is a field on the half-plane twin; the annulus
    # ladder sums no constant mode, which enters as its exact profile
    summed = [m for m in modes if not (problem == "annulus" and m.get("n") == 0)]
    assert isinstance(solution.field.modes, list) and len(solution.field.modes) == len(summed)
