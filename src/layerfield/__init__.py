"""layerfield: harmonic fields in two-layer planar and radial geometries.

A known harmonic field (decaying half-plane modes or a disk Fourier sum)
is deformed into the solution of a coupled two-layer problem or a thin
Dirichlet layer, either by summing the image ladder directly or, in the
thin-layer / high-contrast regimes where that series crawls, through
Euler-Maclaurin asymptotics built on Robin and Neumann companion fields.
Everything is checkable against built-in closed-form and
finite-difference oracles.
"""

from .asymptotics import (
    ApproxResult,
    BernoulliTable,
    ExpProfile,
    FuncProfile,
    PowerProfile,
    RobinParameter,
    SumProfile,
    TVEstimate,
    annulus_thin_layer,
    bernoulli,
    disk_large_contrast,
    disk_small_contrast,
    em_log_sum,
    em_ray_sum,
    halfplane_large_contrast,
    halfplane_small_contrast,
    log_sum_bound,
    neumann_link_disk,
    neumann_link_halfplane,
    ray_sum_bound,
    robin_link_disk,
    robin_link_halfplane,
    strip_thin_layer,
    total_variation,
    weighted_radial_asym,
    weighted_radial_asym_alt,
    weighted_ray_asym,
    weighted_ray_asym_alt,
)
from .errors import (
    ArbiterInsufficientError,
    CapabilityError,
    CapacityError,
    ConvergenceError,
    DivergentLinkError,
    EstimationError,
    LayerFieldError,
    SolvabilityError,
    StencilError,
    UndersamplingError,
    ValidationError,
    WindowTooSmallError,
)
from .harmonic import (
    BoundaryTrace,
    DiskField,
    HalfPlaneField,
    Point2,
    PolarPoint,
    disk_from_boundary,
    halfplane_poisson_eval,
    kelvin_argument,
    laplacian_residual,
    radial_derivative,
)
from .oracle import (
    BruteSum,
    ErrorReport,
    GridSolution,
    brute_series,
    fd_annulus,
    fd_disk_coupled,
    fd_strip,
    mode_exact,
    residual_report,
)
from .series import (
    Geometry,
    LayeredSolution,
    MaxTerms,
    PlanarLayerConfig,
    RadialLayerConfig,
    RegimeReport,
    TailTol,
    annulus_dirichlet,
    convergence_diagnostic,
    disk_coupled,
    geometric_tail_terms,
    halfplane_coupled,
    strip_dirichlet,
)

__version__ = "0.1.0"
