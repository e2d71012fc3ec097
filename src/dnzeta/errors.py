"""Exception types shared across the package, and its rules for input numbers.

A number an input gives is an int or a float: bool is an int subclass,
but true is not a length or a matrix entry, and an int past the largest
double (JSON writes integers out in full) has no float.  _is_number
states that; _finite_real, _count and _finite_complex add what a scalar
input of the API needs, and each returns the value it checked or raises
DomainError.  _all_finite_real and _all_count say whether a whole column
of values passes _finite_real or _count, without a call per value.

The same rules bound what a result may hold: each number field of
DetReport, EvalResult, RegularizedDet and ZetaValue passes _finite_real
or _finite_complex, and each error bar passes _bar (finite and >= 0),
so a value that overflowed on the way is refused with DomainError where
the result is built, not tested again by each route that builds one.
"""

import math
import sys

_FLOAT_MAX = sys.float_info.max


def _is_number(x) -> bool:
    """An int or a float, as the module docstring says."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX)


def _refuse(name: str, rule: str, x) -> "DomainError":
    # str() of an int past 4300 digits raises, so no int past a double is shown whole
    shown = "an int past the largest double" if isinstance(x, int) and abs(x) > _FLOAT_MAX else repr(x)
    return DomainError(f"{name} must be {rule}, got {shown}")


def _finite_real(x, name: str, above: float | None = None) -> float:
    """x as a float: a number, finite, and greater than `above` if given."""
    if isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX):
        value = float(x)
        if math.isfinite(value) and (above is None or value > above):
            return value
    raise _refuse(name, "a finite real" + ("" if above is None else f" > {above:g}"), x)


def _bar(x, name: str) -> float:
    """x as a float: an error bar, a number that is finite and >= 0."""
    if isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)):
        if 0.0 <= x <= _FLOAT_MAX:
            return float(x)
    raise _refuse(name, "a finite real >= 0", x)


def _count(x, name: str, least: int) -> int:
    """x as an int: an int, not a bool, at least `least`, that a double can hold."""
    if isinstance(x, int) and not isinstance(x, bool) and least <= x <= _FLOAT_MAX:
        return x
    raise _refuse(name, f"an integer >= {least}", x)


def _all_finite_real(values, above: float) -> bool:
    """Whether _finite_real(x, name, above) takes every x of values: the rule
    checked on a whole column at once (type set, min, max)."""
    return set(map(type, values)) <= {float, int} and (
        not values or min(values) > above and max(values) <= _FLOAT_MAX and all(map(math.isfinite, values))
    )


def _all_count(values, least: int) -> bool:
    """Whether _count(x, name, least) takes every x of values, checked as a column."""
    return set(map(type, values)) <= {int} and (not values or least <= min(values) and max(values) <= _FLOAT_MAX)


def _finite_complex(x, name: str) -> complex:
    """x as a complex: a number or a complex, with finite real and imaginary parts."""
    if isinstance(x, (float, complex)) or (isinstance(x, int) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX):
        z = complex(x)
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    raise _refuse(name, "a finite number", x)


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
    budget; the message names the depth walked, and when the walk is the
    GroupPresentation screen, the screen and its generator count.
    """
