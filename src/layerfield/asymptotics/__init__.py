"""Thin-layer approximators and the Euler-Maclaurin summation engine.

Every thin-layer route is `thin_layer_solution`; the summation engine is
library-only until the higher-order terms use it.
"""

from .bernoulli import BernoulliTable, bernoulli
from .links import (
    ApproxResult,
    annulus_thin_layer,
    disk_large_contrast,
    disk_small_contrast,
    halfplane_large_contrast,
    halfplane_small_contrast,
    neumann_link_disk,
    neumann_link_halfplane,
    robin_link_disk,
    robin_link_halfplane,
    strip_thin_layer,
    thin_layer_solution,
)
from .summation import (
    ExpProfile,
    FuncProfile,
    PowerProfile,
    SumProfile,
    TVEstimate,
    em_log_sum,
    em_ray_sum,
    fd_weights,
    log_sum_bound,
    ray_sum_bound,
    ray_total_variation,
    total_variation,
    weighted_radial_asym,
    weighted_radial_asym_alt,
    weighted_ray_asym,
    weighted_ray_asym_alt,
)

__all__ = [
    "ApproxResult",
    "BernoulliTable",
    "ExpProfile",
    "FuncProfile",
    "PowerProfile",
    "SumProfile",
    "TVEstimate",
    "annulus_thin_layer",
    "bernoulli",
    "disk_large_contrast",
    "disk_small_contrast",
    "em_log_sum",
    "em_ray_sum",
    "fd_weights",
    "halfplane_large_contrast",
    "halfplane_small_contrast",
    "log_sum_bound",
    "neumann_link_disk",
    "neumann_link_halfplane",
    "ray_sum_bound",
    "ray_total_variation",
    "robin_link_disk",
    "robin_link_halfplane",
    "strip_thin_layer",
    "thin_layer_solution",
    "total_variation",
    "weighted_radial_asym",
    "weighted_radial_asym_alt",
    "weighted_ray_asym",
    "weighted_ray_asym_alt",
]
