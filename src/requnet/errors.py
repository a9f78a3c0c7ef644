"""Exception types shared across the package.

Construction and evaluation errors subclass ValueError so callers that
treat them generically keep working; runtime failures of iterative or
factorization routines subclass RuntimeError.
"""


class DimensionMismatch(ValueError):
    """Shapes of matrices, biases, or inputs are incompatible."""


class EmptyNetwork(ValueError):
    """A network was constructed from an empty layer sequence."""


class NonFiniteEntry(ValueError):
    """A weight, bias, or matrix entry is NaN or infinite."""


class InvalidArgument(ValueError):
    """A scalar argument or an input document is outside its documented domain."""


class EmptyList(ValueError):
    """An operation requiring at least one network received none."""


class ConvergenceFailure(RuntimeError):
    """An iteration cap was reached before meeting the tolerance."""


class SingularSystem(RuntimeError):
    """A direct linear solve failed on a (numerically) singular matrix."""


class EmptySnapshotSet(ValueError):
    """Reduced-basis construction requires at least one snapshot."""
