"""layerfield: harmonic fields in two-layer planar and radial geometries.

A known harmonic field (decaying half-plane modes or a disk Fourier sum)
is deformed into the solution of a coupled two-layer problem or a thin
Dirichlet layer, either by summing the image ladder directly or, in thin
layers, by one leading-order formula: the companion field at the Robin
parameter h = `Geometry.robin_h` (each mode w divided by w - h, or n by
n + h), in a one- or two-term ladder weighted by the inverse layer
thickness.  The Euler-Maclaurin engine in `asymptotics` is one
primitive, `em_ray_sum` on an `ExpProfile`: on a mode the weighted image
ladder is an exponential ladder of rate w - h (or n + h), so
em_ray_sum(ExpProfile(rate), s, p) is its expansion to order p.  No
route calls it yet.  Everything is checkable against built-in
closed-form and finite-difference oracles.

The exported names are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the submodules that code needs.
"""

import importlib

__version__ = "0.1.0"

#: submodule defining each exported name
_EXPORTS = {
    **dict.fromkeys([
        "ExpProfile", "bernoulli", "disk_small_contrast",
        "em_ray_sum", "halfplane_small_contrast", "log_sum_bound", "ray_sum_bound",
        "thin_layer_solution", "total_variation"
    ], ".asymptotics"),
    **dict.fromkeys([
        "ArbiterInsufficientError", "CapabilityError", "CapacityError",
        "ConvergenceError", "EstimationError", "LayerFieldError",
        "SolvabilityError", "UndersamplingError", "ValidationError"
    ], ".errors"),
    **dict.fromkeys([
        "BoundaryTrace", "DiskField", "HalfPlaneField", "disk_from_boundary"
    ], ".harmonic"),
    **dict.fromkeys([
        "BruteSum", "ErrorReport", "GridSolution", "brute_series", "fd_annulus",
        "fd_disk_coupled", "fd_strip", "mode_exact", "residual_report"
    ], ".oracle"),
    **dict.fromkeys([
        "Geometry", "LayeredSolution", "MaxTerms", "PlanarLayerConfig",
        "RadialLayerConfig", "RegimeReport", "TailTol", "convergence_diagnostic",
        "geometric_tail_terms", "series_solution"
    ], ".series"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
