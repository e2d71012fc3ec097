"""Shared result types for determinant computations."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import _bar, _finite_real


@dataclass(frozen=True)
class DetReport:
    """Outcome of a determinant computation.

    value is det' itself; ratio is det' divided by the boundary length
    in the induced conformal boundary metric, the normalization in which
    the surface results are stated.  method records which pipeline
    produced the numbers; inputs echoes the defining parameters.  A
    value, ratio or error bar that left the float range is refused with
    DomainError.
    """

    value: float
    ratio: float
    method: str
    inputs: dict = field(default_factory=dict)
    error_estimate: float = 0.0

    _METHODS = ("closed_form", "zeta_pipeline", "theorem4_pipeline")

    def __post_init__(self) -> None:
        if self.method not in self._METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {self._METHODS}")
        _finite_real(self.value, "det'")
        _finite_real(self.ratio, "det' / boundary length")
        _bar(self.error_estimate, "the error bar of det'")
