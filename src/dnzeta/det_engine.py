"""Determinant identities on hyperbolic surfaces with geodesic boundary.

Let chi be the Euler characteristic of the bordered surface, ell the
length of its geodesic boundary, M its double, and eta the constant
2 zeta'(-1) - 1/4 + log(2 pi)/2.  The identities assembled here:

  det'(Delta_M) = Z'_G(1) e^{-2 eta chi},

  det(Delta - lam(1-lam)) = Z_g0(lam) (e^{eta - ell(1-2 lam)/(8 chi)
      + lam(1-lam)} (2 pi)^{lam-1} / (G(lam)^2 Gamma(lam)))^{-chi},

  det'(N) / ell = -Z'_G(1) e^{ell/4} / (Z_g0(1)^2 2 pi chi),

  det S(lam) = [Z(1-lam)/Z(lam)] [(2 pi)^{1-2 lam} Gamma(lam) G(lam)^2
      / (Gamma(1-lam) G(1-lam)^2)]^{-chi},

plus the three closed cases of the normalized determinant det'(N)/ell
(disc, cylinder, negative chi via a supplied zeta limit) and the
renormalized 0-volume.  Selberg-type values at the spectral point
lam = 1 are caller-supplied positive numbers: producing them for a
doubled group needs analytic continuation, which is out of scope.
Assembly happens in log space; the one explicit sign (the leading
minus against chi < 0) is tracked separately.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .reports import DetReport
from .specfun import eta_constant, log_barnes_g, log_gamma

_LN_2PI = math.log(2.0 * math.pi)
# Smallest subnormal: the absolute rounding floor of a quotient that underflows.
_SUBNORMAL_ULP = math.ldexp(1.0, -1074)
# Largest x with math.exp(x) finite.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# 32-point Gauss-Legendre rule on [-1, 1] for the cylinder volume integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class SurfaceTopology:
    """Genus and boundary count of a compact oriented bordered surface."""

    genus: int
    boundary_components: int
    euler: int = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.genus, int) and self.genus >= 0):
            raise DomainError(f"genus must be a nonnegative integer, got {self.genus}")
        if not (isinstance(self.boundary_components, int) and self.boundary_components >= 1):
            raise DomainError(
                f"need at least one boundary component, got {self.boundary_components}"
            )
        object.__setattr__(
            self, "euler", 2 - 2 * self.genus - self.boundary_components
        )


@dataclass(frozen=True)
class HeatCoefficients:
    """Short-time heat trace coefficients of the Dirichlet Laplacian.

    Tr e^{-t Delta} = t^{-1}(a1 + a2 t^{1/2} + a3 t) + o(1).
    """

    topology: SurfaceTopology
    boundary_length: float

    def __post_init__(self) -> None:
        _require_positive(self.boundary_length, "boundary_length")

    @property
    def a1(self) -> float:
        return -self.topology.euler / 2.0

    @property
    def a2(self) -> float:
        return -self.boundary_length / (8.0 * math.sqrt(math.pi))

    @property
    def a3(self) -> float:
        return self.topology.euler / 6.0


def _require_positive(x, name: str) -> float:
    if not (isinstance(x, (int, float)) and x > 0.0 and math.isfinite(x)):
        raise DomainError(f"{name} must be positive and finite, got {x}")
    return float(x)


def _exp(log_value: float, name: str) -> float:
    """e^log_value, refused where it overflows a float."""
    if log_value > _LOG_FLOAT_MAX:
        raise DomainError(f"{name} = e^{log_value:.17g} overflows a float")
    return math.exp(log_value)


def zero_volume(topology: SurfaceTopology) -> float:
    """Renormalized volume -2 pi chi of the uniformized interior."""
    return -2.0 * math.pi * topology.euler


def _cylinder_volume_fit(ell: float):
    """Fit Vol(x > eps) = c0/eps + V + O(eps) on the hyperbolic cylinder.

    Funnel coordinates: metric dr^2 + cosh(r)^2 dtheta^2 with theta of
    period ell and boundary defining function x = 2 e^{-|r|}, so the
    region {x > eps} is |r| < log(2/eps).
    """
    eps_grid = np.array([0.2, 0.1, 0.05, 0.025])
    vols = []
    for eps in eps_grid:
        r_max = math.log(2.0 / eps)
        vols.append(r_max * float(np.dot(_GL_WEIGHTS, ell * np.cosh(r_max * _GL_NODES))))
    design = np.column_stack([1.0 / eps_grid, np.ones_like(eps_grid), eps_grid])
    coef, _, rank, _ = np.linalg.lstsq(design, np.array(vols), rcond=None)
    if rank < 3:
        raise ConvergenceError("volume expansion fit is rank-deficient")
    c0, v = float(coef[0]), float(coef[1])
    return c0, v


def zero_volume_cylinder_numeric(ell: float) -> float:
    """0-volume of the hyperbolic cylinder by quadrature plus fit.

    Computes Vol(x > eps) on an eps sequence, removes the c0/eps
    divergence by least squares, and returns the constant term V.
    chi = 0 forces V = 0; the numeric result stays within 1e-8.
    """
    ell = _require_positive(ell, "ell")
    _, v = _cylinder_volume_fit(ell)
    return v


def _log_functional_bracket(lam: complex) -> complex:
    """log[(2 pi)^{1-2 lam} Gamma(lam) G(lam)^2 / (Gamma(1-lam) G(1-lam)^2)]."""
    lam = complex(lam)
    out = (1.0 - 2.0 * lam) * _LN_2PI
    out += log_gamma(lam).value + 2.0 * log_barnes_g(lam).value
    out -= log_gamma(1.0 - lam).value + 2.0 * log_barnes_g(1.0 - lam).value
    return out


def functional_equation_rhs(
    lam: complex,
    topology: SurfaceTopology,
    log_z_at: Callable[[complex], complex],
) -> complex:
    """log det S(lam) from a log Selberg-zeta callback and topology.

    chi = 0 reduces to log Z(1-lam) - log Z(lam) with no gamma-factor
    bracket (so integer lam stays regular there); otherwise the bracket
    enters with exponent -chi.  Callback domain errors and gamma poles
    propagate unchanged.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"lambda must be finite, got {lam}")
    log_ratio = complex(log_z_at(1.0 - lam)) - complex(log_z_at(lam))
    chi = topology.euler
    if chi == 0:
        return log_ratio
    return log_ratio - chi * _log_functional_bracket(lam)


def theorem2_value(
    topology: SurfaceTopology,
    *,
    ell: float | None = None,
    supplied_limit: float | None = None,
) -> DetReport:
    """Normalized determinant det'(N)/ell(boundary) by topology case.

    Disc (chi = 1): 1.  Cylinder (chi = 0): ell/pi for geodesic length
    ell.  chi < 0: supplied_limit/chi, where the caller provides
    lim_{lam->0} (2 pi lam)^{chi-1} R(lam) from an external
    continuation; this module never continues zeta products itself.
    value and ratio coincide: topology alone does not fix the boundary
    length, so only the normalized determinant is determined.

    error_estimate bounds the rounding of the quotient relative to the
    inputs as given: |ratio| 2^-52 for ell/pi (pi rounded once, one
    division), |ratio| 2^-53 for the one division by chi, 0 for chi = 1,
    plus 2^-1074 for a quotient that underflows to a subnormal.
    """
    chi = topology.euler
    if chi > 0:
        if ell is not None or supplied_limit is not None:
            raise DomainError("the disc case takes no extra data")
        ratio = 1.0
        error = 0.0
        method = "closed_form"
        datum = {}
    elif chi == 0:
        if supplied_limit is not None:
            raise DomainError("the cylinder case takes ell, not a zeta limit")
        if ell is None:
            raise DomainError("the cylinder case needs the geodesic length ell")
        ratio = _require_positive(ell, "ell") / math.pi
        error = math.ldexp(ratio, -52) + _SUBNORMAL_ULP
        method = "closed_form"
        datum = {"ell": float(ell)}
    else:
        if ell is not None:
            raise DomainError("the chi < 0 case takes a zeta limit, not ell")
        if supplied_limit is None:
            raise DomainError(
                "chi < 0 needs the continued limit of (2 pi lam)^{chi-1} R(lam) "
                "at lam = 0; zeta products are not continued here"
            )
        if not (isinstance(supplied_limit, (int, float)) and math.isfinite(supplied_limit)):
            raise DomainError(f"supplied limit must be finite, got {supplied_limit}")
        ratio = float(supplied_limit) / chi
        error = math.ldexp(abs(ratio), -53) + _SUBNORMAL_ULP
        method = "zeta_pipeline"
        datum = {"supplied_limit": float(supplied_limit)}
    inputs = {
        "genus": topology.genus,
        "boundary_components": topology.boundary_components,
        "euler": chi,
    }
    inputs.update(datum)
    return DetReport(
        value=ratio, ratio=ratio, method=method, inputs=inputs, error_estimate=error
    )


def sarnak_det(zprime_g_at_1: float, topology: SurfaceTopology) -> float:
    """det'(Delta_M) = Z'_G(1) e^{-2 eta chi} on the double M.

    topology describes the bordered half whose double is M (the double
    itself is closed and has chi(M) = 2 chi).  Evaluated in log space.
    """
    z = _require_positive(zprime_g_at_1, "Z'_G(1)")
    return _exp(math.log(z) - 2.0 * eta_constant() * topology.euler, "det'(Delta_M)")


def log_dirichlet_det(
    lam: float,
    z_g0_at_lam: float,
    topology: SurfaceTopology,
    boundary_length: float,
) -> float:
    """log det(Delta - lam(1-lam)) for the Dirichlet Laplacian.

    Safe in the large-lam regime where the determinant itself
    under- or overflows.
    """
    chi = topology.euler
    if chi >= 0:
        raise DomainError(f"needs negative Euler characteristic, got chi = {chi}")
    ell = _require_positive(boundary_length, "boundary_length")
    z = _require_positive(z_g0_at_lam, "Z_g0(lam)")
    if not (isinstance(lam, (int, float)) and lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"lambda must be positive and real, got {lam}")
    lam = float(lam)
    lg = log_gamma(lam).value.real
    lb = log_barnes_g(lam).value.real
    factor = (
        eta_constant()
        + lam * (1.0 - lam)
        + (lam - 1.0) * _LN_2PI
        - 2.0 * lb
        - lg
    )
    return math.log(z) - chi * factor + ell * (1.0 - 2.0 * lam) / 8.0


def dirichlet_det(
    lam: float,
    z_g0_at_lam: float,
    topology: SurfaceTopology,
    boundary_length: float,
) -> float:
    """det(Delta - lam(1-lam)); at lam = 1 this is Z_g0(1) e^{-chi eta - ell/8}."""
    return _exp(log_dirichlet_det(lam, z_g0_at_lam, topology, boundary_length), "det(Delta - lam(1-lam))")


def theorem4_pipeline(
    zprime_g_at_1: float,
    z_g0_at_1: float,
    topology: SurfaceTopology,
    boundary_length: float,
) -> DetReport:
    """det'(N) two ways: closed display vs surgery composition.

    Closed display: det'(N)/ell = -Z'_G(1) e^{ell/4} / (Z_g0(1)^2 2 pi chi).
    Composition: det'(Delta_M) = (vol(M)/(2 ell)) det(Delta)^2 det'(N)
    with vol(M) = -4 pi chi from Gauss-Bonnet and det(Delta) the
    Dirichlet determinant at lam = 1.  Both ratios are echoed in the
    report and their gap is the error estimate; they agree to 1e-12
    relative for all admissible inputs.
    """
    chi = topology.euler
    if chi >= 0:
        raise DomainError(f"needs negative Euler characteristic, got chi = {chi}")
    zp = _require_positive(zprime_g_at_1, "Z'_G(1)")
    z0 = _require_positive(z_g0_at_1, "Z_g0(1)")
    ell = _require_positive(boundary_length, "boundary_length")
    log_ratio_closed = (
        math.log(zp)
        - 2.0 * math.log(z0)
        + ell / 4.0
        - math.log(2.0 * math.pi * (-chi))
    )
    ratio_closed = _exp(log_ratio_closed, "det'(N)/ell")
    det_m = sarnak_det(zp, topology)
    det_x = dirichlet_det(1.0, z0, topology, ell)
    vol_m = 2.0 * zero_volume(topology)
    denominator = vol_m * det_x * det_x
    if denominator == 0.0:
        raise DomainError(f"vol(M) det(Delta)^2 underflows to 0 (det(Delta) = {det_x:.17g})")
    ratio_bfk = 2.0 * det_m / denominator
    value = ratio_closed * ell
    if not math.isfinite(value):
        raise DomainError(f"det'(N) = {ratio_closed:.17g} * {ell:.17g} overflows a float")
    return DetReport(
        value=value,
        ratio=ratio_closed,
        method="theorem4_pipeline",
        inputs={
            "zprime_g_at_1": zp,
            "z_g0_at_1": z0,
            "genus": topology.genus,
            "boundary_components": topology.boundary_components,
            "euler": chi,
            "boundary_length": ell,
            "ratio_closed": ratio_closed,
            "ratio_bfk": ratio_bfk,
        },
        error_estimate=abs(ratio_closed - ratio_bfk),
    )
