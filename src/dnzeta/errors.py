"""Exception types shared across the package, and its rule for input numbers."""

import sys


def _is_number(x) -> bool:
    """An int or a float, the numbers an input may give: bool is an int
    subclass, but true is not a length or a matrix entry, and an int past
    the largest double (JSON writes integers out in full) has no float."""
    return isinstance(x, float) or (
        isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
    )


class DnZetaError(Exception):
    """Base class for all package-specific errors."""


class PoleError(DnZetaError):
    """A special function was evaluated at (or too close to) a pole."""


class DomainError(DnZetaError):
    """Arguments lie outside the domain an algorithm is certified for."""


class BarnesZeroError(DnZetaError):
    """The Barnes G function vanishes at the requested point, so its
    logarithm is undefined.  Callers that expect zeros (e.g. determinant
    formulas with removable singularities) catch this and branch."""


class InvalidSequenceError(DnZetaError):
    """An eigenvalue sequence violates its declared invariants."""


class ConvergenceError(DnZetaError):
    """An iterative scheme failed to reach its target tolerance."""


class TruncationError(DnZetaError):
    """A finite-dimensional truncation is too small for the requested
    operation, so the result would carry an uncontrolled projection
    error.  Raised instead of silently returning a polluted matrix."""


class EnumerationBudgetError(DnZetaError):
    """A word enumeration built more words than its budget allows.

    Raised from inside the walk, once the words it has built pass the
    budget; the message names the requested depth.
    """
