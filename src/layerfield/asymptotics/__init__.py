"""Thin-layer approximators and the Euler-Maclaurin summation engine.

Every thin-layer route is `thin_layer_solution`.  The summation engine is
one primitive, `em_ray_sum` on an `ExpProfile`.  On a mode every weighted
image ladder is an exponential ladder, since rho^j e^(-w s j) =
e^(-(w - h) s j) on the plane (rate n + h on the disk).  With
E(rate, s) = em_ray_sum(ExpProfile(rate), s, p),
the order-p value of each ladder of amplitude A is

  sum_j rho^j A e^(-w(x + 2lj)), rho = e^(2hl):   A e^(-wx) E(w - h, 2l)
  the same at rho = -e^(2hl) (k > 1):             A e^(-wx) (2 E(w - h, 4l) - E(w - h, 2l))
  sum_j rho^j A (r R^(2j))^n, rho = R^(2h):       A r^n E(n + h, s), s = ln(1/R^2)
  the same at rho = -R^(2h):                      A r^n (2 E(n + h, 2s) - E(n + h, s))
  sum_j A R^(2jn):                                A E(n, s)

where the alternating forms split the ladder into its even and odd
images.  No route calls the engine yet: the higher-order terms will.
"""

from .bernoulli import bernoulli
from .links import (
    disk_small_contrast,
    halfplane_small_contrast,
    thin_layer_solution,
)
from .summation import (
    ExpProfile,
    em_ray_sum,
    log_sum_bound,
    ray_sum_bound,
    ray_total_variation,
    total_variation,
)

__all__ = [
    "ExpProfile",
    "bernoulli",
    "disk_small_contrast",
    "em_ray_sum",
    "halfplane_small_contrast",
    "log_sum_bound",
    "ray_sum_bound",
    "ray_total_variation",
    "thin_layer_solution",
    "total_variation",
]
