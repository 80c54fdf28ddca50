"""Thin-layer approximators and the Euler-Maclaurin summation engine.

Every thin-layer route is `thin_layer_solution`, on the problem's
half-plane twin.  The summation engine is one primitive, `em_ray_sum` on
an `ExpProfile`.  On a mode every weighted image ladder is an
exponential ladder, since rho^j e^(-w s j) = e^(-(w - h) s j).  With
E(rate, s) = em_ray_sum(ExpProfile(rate), s, p),
the order-p value of each ladder of amplitude A is

  sum_j rho^j A e^(-w(x + 2lj)), rho = e^(2hl):   A e^(-wx) E(w - h, 2l)
  the same at rho = -e^(2hl) (k > 1):             A e^(-wx) (2 E(w - h, 4l) - E(w - h, 2l))
  sum_j A e^(-w(x + 2lj)) (strip, rho = 1):       A e^(-wx) E(w, 2l)

where the alternating form splits the ladder into its even and odd
images.  The disk rows are these at l = ln(1/R), w = n and e^(-wx) = r^n:
the coupled disk's are the first two, the annulus's the last.  No route
calls the engine yet: the higher-order terms will.

The exported names are resolved on first use (PEP 562), as on the
package itself, so the asymptotic route, which needs only `links`, loads
neither the summation engine nor the Bernoulli numbers.  No submodule
shares the name of an export: importing a submodule binds its name on
the package, which would shadow the export.
"""

from .. import _lazy_exports

#: submodule defining each exported name
_EXPORTS = {
    "bernoulli": ".bernoulli_numbers",
    **dict.fromkeys(["disk_small_contrast", "halfplane_small_contrast", "thin_layer_solution"], ".links"),
    **dict.fromkeys([
        "ExpProfile", "em_ray_sum", "log_sum_bound", "ray_sum_bound", "ray_total_variation", "total_variation"
    ], ".summation"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
