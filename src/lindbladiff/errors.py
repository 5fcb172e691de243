"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: configuration/validation
problems exit with 2, numerical failures with 3.
"""


class LindbladiffError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(LindbladiffError):
    """Operands with incompatible shapes."""

    def __init__(self, what: str, shape_a, shape_b):
        super().__init__(f"{what}: shapes {tuple(shape_a)} and {tuple(shape_b)} are incompatible")
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)


class ValidationError(LindbladiffError):
    """Invalid input data: non-finite entries, broken invariants, bad config.

    ``path`` optionally carries a JSON-pointer-style location for config errors.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class IntegrationError(LindbladiffError):
    """Numerical failure inside the IVP solver (step underflow, max steps,
    non-finite state)."""


class GaugeDependenceError(LindbladiffError):
    """Eigenvector cotangent depends on the arbitrary within-cluster gauge
    (phase, or unitary rotation inside a degenerate cluster), so the pullback
    to the input matrix is ill-defined."""


class CostGradientError(LindbladiffError):
    """Supplied cost gradient failed the finite-difference consistency check;
    raised before any backward work is done."""


class ConditioningWarning(UserWarning):
    """Cross-checked derivative routes disagree more than expected; the
    underlying problem is likely ill-conditioned (near-degenerate spectrum)."""
