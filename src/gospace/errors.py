"""Exception types shared across the package.

Grouped by where they arise: algebra construction, homogeneous-space
construction, catalog lookup, metric construction, and check-time numerics.
The CLI maps these onto exit codes.
"""


class GoSpaceError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(GoSpaceError):
    """Vector or matrix dimensions incompatible with the algebra or space."""


class DependentBasisError(GoSpaceError):
    """Supplied matrices are linearly dependent."""


class NonClosedError(GoSpaceError):
    """Commutator of supplied matrices leaves their span."""


class NonCompactError(GoSpaceError):
    """Negative Killing form is not positive definite."""


class NotSubalgebraError(GoSpaceError):
    """Supplied span is not closed under the bracket."""


class ReductivityError(GoSpaceError):
    """Orthogonal complement of the subalgebra is not an invariant complement."""


class UnknownSpecError(GoSpaceError):
    """Space identifier not in the catalog."""


class UnsupportedRankError(GoSpaceError):
    """Family parameters outside the supported range."""


class SpecFormatError(GoSpaceError):
    """Malformed space or metric string (bad syntax)."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class NonPositiveCoefficientError(GoSpaceError):
    """Linear-kind coefficients must be strictly positive."""


class InvalidProfileError(GoSpaceError):
    """Polynomial profile violates a positivity condition on [0, 1]."""


class NotStronglyConvexError(GoSpaceError):
    """Fundamental tensor fails positive definiteness somewhere."""


class ZeroVectorError(GoSpaceError):
    """Operation undefined at the zero vector."""


class BoundaryNondifferentiableError(GoSpaceError):
    """Metric data requested on a degenerate block where L is not C^2."""


class NotPositiveDefiniteError(GoSpaceError):
    """Computed fundamental tensor is not positive definite at this vector."""

