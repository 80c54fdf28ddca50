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
