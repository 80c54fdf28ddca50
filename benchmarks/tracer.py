"""Run one CLI op with spans around the package's layer entry points.

Usage: python -X importtime benchmarks/tracer.py SRC SPANS_JSON OP_ID -- CLI_ARGS...

Imports layerfield.cli from SRC, replaces each entry point listed in
ENTRY_POINTS by a wrapper that records a span {name, start, end, parent,
op} plus the counts of that layer, calls layerfield.cli.main(CLI_ARGS)
and writes the spans to SPANS_JSON when main ends.  Spans stay in
memory until then.  An entry point the package no longer has, or whose
counts can no longer be read, is listed under "missing"; the benchmark
reports its metrics as not measured.  The exit code is main's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _active_modes(field):
    """Nonzero modes of a model field, or None for a field of another shape."""
    if hasattr(field, "cos_coeffs"):
        a, b = field.cos_coeffs, field.sin_coeffs
        return int(((a != 0) | (b != 0)).sum())
    modes = getattr(field, "modes", None)
    return len(modes) if modes is not None else None


def _build_counts(args, kwargs, result):
    terms = getattr(result, "terms", None)
    return {"terms": int(terms)} if args[1] == "series" and terms is not None else {}


def _grid_counts(args, kwargs, result):
    solution, _, axis1, axis2 = args[:4]
    counts = {"nodes": int(axis1.size * axis2.size)}
    terms, modes = getattr(solution, "terms", None), _active_modes(getattr(solution, "field", None))
    if terms is not None and modes is not None:
        counts["term_evals"] = int(terms) * counts["nodes"] * modes
    return counts


def _csv_counts(args, kwargs, result):
    return {"rows": int(args[5].size), "bytes": os.path.getsize(args[0])}


def _recheck_counts(args, kwargs, result):
    with open(args[0], "rb") as fh:
        return {"rows": sum(1 for line in fh if line.strip()) - 1}


def _spsolve_counts(args, kwargs, result):
    return {"unknowns": int(args[0].shape[0]), "nnz": int(args[0].nnz)}


def _project_counts(args, kwargs, result):
    return {"modes_active": _active_modes(result)}


#: (module, attribute path, span name, counts) for each traced layer.
#: Entry points are wrapped where their callers look them up.
ENTRY_POINTS = [
    ("layerfield.cli", "load_config", "cli.parse", None),
    ("layerfield.cli", "geometry_config", "cli.parse", None),
    ("layerfield.cli", "truncation_policy", "cli.parse", None),
    ("layerfield.cli", "build_solution", "build", _build_counts),
    ("layerfield.cli", "evaluate_grid", "grid.eval", _grid_counts),
    ("layerfield.cli", "write_grid_csv", "csv.write", _csv_counts),
    ("layerfield.oracle", "GridSolution.to_csv", "csv.fd_write", None),
    ("layerfield.cli", "residual_report", "residual.report", None),
    ("layerfield.cli", "fd_strip", "fd.total", None),
    ("layerfield.cli", "fd_annulus", "fd.total", None),
    ("layerfield.cli", "fd_disk_coupled", "fd.total", None),
    ("layerfield.oracle", "spsolve", "fd.spsolve", _spsolve_counts),
    ("layerfield.cli", "_check_grid_file", "verify.recheck", _recheck_counts),
    ("layerfield.harmonic", "BoundaryTrace.from_csv", "harmonic.trace_read", None),
    ("layerfield.cli", "disk_from_boundary", "harmonic.project", _project_counts),
    ("layerfield.asymptotics.links", "total_variation", "asym.tv", None),
    ("layerfield.asymptotics.links", "ray_total_variation", "asym.tv", None),
    ("layerfield.asymptotics.links", "ray_window", "asym.tv", None),
]


class Recorder:
    def __init__(self, op):
        self.op = op
        self.spans = []
        self.stack = []
        self.missing = []

    def wrap(self, module, path, name, counts):
        """Replace module.path by a recording wrapper; note it if absent."""
        owner_path, _, attr = f"{module}.{path}".rpartition(".")
        try:
            owner = importlib.import_module(owner_path)
        except ImportError:
            mod, _, cls = owner_path.rpartition(".")
            try:
                owner = getattr(importlib.import_module(mod), cls)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                return
        entry = f"{module}.{path}"
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(entry)
            return
        static = isinstance(owner, type) and isinstance(owner.__dict__.get(attr), (classmethod, staticmethod))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[1]}" if name == "build" else name
            span = {"name": span_name, "op": self.op, "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                try:
                    span.update(counts(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, OSError):
                    # the entry point's signature changed: its counts are
                    # not measured rather than wrong
                    if entry not in self.missing:
                        self.missing.append(entry)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def main():
    src, spans_path, op = sys.argv[1:4]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    recorder = Recorder(op)
    start = time.perf_counter()
    cli = importlib.import_module("layerfield.cli")
    imported = time.perf_counter()
    for entry in ENTRY_POINTS:
        recorder.wrap(*entry)
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        end = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op, "start": start, "imported": imported, "end": end,
                       "spans": recorder.spans, "missing": recorder.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
