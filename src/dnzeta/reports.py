"""Shared result types for determinant computations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DetReport:
    """Outcome of a determinant computation.

    value is det' itself; ratio is det' divided by the boundary length
    in the induced conformal boundary metric, the normalization in which
    the surface results are stated.  method records which pipeline
    produced the numbers; inputs echoes the defining parameters.
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
        if not (self.error_estimate >= 0.0 and math.isfinite(self.error_estimate)):
            raise ValueError("error_estimate must be finite and nonnegative")
