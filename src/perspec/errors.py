"""Exception hierarchy.

Validation problems (bad user input, profile hypothesis violations) are
distinguished from solver failures so the CLI can map them to different
exit codes.
"""


class PerspecError(Exception):
    """Base class for all package errors."""


class ValidationError(PerspecError):
    """Input outside its documented range, or a profile hypothesis fails."""


class DomainError(ValidationError):
    """Evaluation point outside the function's domain."""


class SolverError(PerspecError):
    """A numerical routine could not complete."""


class IntegrationError(SolverError):
    """Adaptive stepping failed; carries how far the integrator got."""

    def __init__(self, message, x_reached=None):
        super().__init__(message)
        self.x_reached = x_reached


class EigenvalueProximityError(SolverError):
    """The shift is numerically an eigenvalue; the construction degenerates."""


class GridMismatchError(SolverError):
    """Operands sampled on different grids."""
