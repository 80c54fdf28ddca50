"""Exception types shared across the package."""


class LayerFieldError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LayerFieldError):
    """Input violates a documented precondition or invariant."""


class ConvergenceError(LayerFieldError):
    """A ladder needs more terms than its cap: `needed`, where `terms` were allowed."""

    def __init__(self, message, achieved=None, terms=None, needed=None):
        super().__init__(message)
        self.achieved = achieved
        self.terms = terms
        self.needed = needed


class ArbiterInsufficientError(ConvergenceError):
    """Brute-force summation cannot reach the tail bound it needs."""


class CapabilityError(LayerFieldError):
    """Requested operation needs an oracle the representation lacks."""


class SolvabilityError(ValidationError):
    """Boundary data violates a solvability constraint."""


class EstimationError(LayerFieldError):
    """A numeric estimate failed to stabilise under refinement."""


class UndersamplingError(ValidationError):
    """Too few boundary samples for the requested mode resolution."""


class CapacityError(LayerFieldError):
    """Requested index exceeds a precomputed table's capacity."""
