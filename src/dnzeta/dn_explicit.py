"""Closed-form Dirichlet-to-Neumann data for three model geometries.

Flat annulus A_rho = {1 < |z| < rho}, flat disc of radius R, and the
hyperbolic cylinder of core-geodesic length ell, which is conformally
the annulus with modulus rho = e^{2 pi^2 / ell}.

Annulus conventions.  Fourier mode n couples the two boundary traces;
in the ordered basis (outer trace on |z| = rho, inner trace on |z| = 1)
the DN block is

    N_n = (n / sinh(n a)) [[e^{-a} cosh(n a),  -e^{-a}],
                           [-1,                 cosh(n a)]],   a = ln rho,

acting as the outward normal derivative (+d/dr on |z| = rho, -d/dr on
|z| = 1; the interior normal is the opposite pair).  The matrix is
written in the unweighted trace basis and is not symmetric; conjugating
by diag(sqrt(rho), 1), which reweights by boundary arc length, makes it
symmetric, and the eigenvalues (all that the zeta function consumes)
are unchanged by that similarity.

Determinant.  det N_n = n^2 e^{-a} exactly, so det' regularizes the
block determinants {n^2 e^{-a}, multiplicity 2} (n >= 1) plus the mode-0
eigenvalue (1+rho)/(rho a); by the additivity lemma this is det' of the
eigenvalue pairs themselves, and the sequence has no corrections, so the
truncation term is exactly 0 and the cost does not depend on rho.

Eigenvalues (annulus_eigenvalues only): for n != 0, with t = |n| a,

    lam_{n,+} = |n| (1 + eps_+),      eps_+ = e^{-a/2} (cosh(a/2) d1 + d2),
    lam_{n,-} = |n| e^{-a} / (1 + eps_+),

    d1 = coth t - 1 = 2q/(1-q),  q = e^{-2t},
    d2 = S - sinh(a/2) = cosh^2(a/2) csch^2 t / (S + sinh(a/2)),
    S  = sqrt(sinh^2(a/2) coth^2 t + csch^2 t).

eps_+ is a sum of positive terms and keeps only relative rounding
error; lam_- comes from the determinant identity rather than from its
own correction, which cancels catastrophically when t << 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, _finite_real, _is_number, _refuse
from .reports import DetReport
from .zeta_reg import EigenSequence, log_det

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AnnulusGeometry:
    """Flat annulus 1 < |z| < rho with its derived constants."""

    rho: float
    alpha: float = field(init=False)
    boundary_length: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _finite_real(self.rho, "annulus rho", 1.0))
        if not math.isfinite(self.rho * math.log(self.rho)):
            # the mode-0 eigenvalue (1 + rho) / (rho ln rho) would round to 0
            raise DomainError(f"annulus needs rho ln rho finite, got rho = {self.rho}")
        object.__setattr__(self, "alpha", math.log(self.rho))
        object.__setattr__(self, "boundary_length", _TWO_PI * (1.0 + self.rho))


@dataclass(frozen=True)
class DiscGeometry:
    """Flat disc |z| < radius; DN spectrum {|n|/radius} on the boundary."""

    radius: float
    boundary_length: float = field(init=False)

    def __post_init__(self) -> None:
        r = _finite_real(self.radius, "disc radius", 0.0)
        if not (math.isfinite(1.0 / r) and math.isfinite(_TWO_PI * r)):
            raise DomainError(f"disc needs 1 / radius and 2 pi radius finite, got {r}")
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "boundary_length", _TWO_PI * r)


@dataclass(frozen=True)
class CylinderGeometry:
    """Hyperbolic cylinder with closed geodesic of length ell."""

    ell: float
    bridge_rho: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", _finite_real(self.ell, "cylinder ell", 0.0))
        exponent = 2.0 * math.pi**2 / self.ell
        if exponent > 700.0:
            raise DomainError(
                f"ell = {self.ell} too small: bridge modulus e^(2 pi^2 / ell) overflows"
            )
        object.__setattr__(self, "bridge_rho", math.exp(exponent))


def _eps_plus(a: float, n: int) -> float:
    """Relative correction eps_+ of mode |n| as derived above."""
    t = abs(n) * a
    q = math.exp(-2.0 * t)
    one_m_q = -math.expm1(-2.0 * t)
    d1 = 2.0 * q / one_m_q
    csch2 = 4.0 * q / (one_m_q * one_m_q)
    sh = math.sinh(0.5 * a)
    ch = math.cosh(0.5 * a)
    coth = 1.0 + d1
    s_val = math.sqrt(sh * sh * coth * coth + csch2)
    d2 = ch * ch * csch2 / (s_val + sh)
    return math.exp(-0.5 * a) * (ch * d1 + d2)


def annulus_eigenvalues(geom: AnnulusGeometry, n: int) -> tuple[float, float]:
    """Eigenvalue pair (lam_+, lam_-) of the mode-n block; mode 0 is (0, (1+rho)/(rho ln rho))."""
    if not (isinstance(n, int) and _is_number(n)):
        raise _refuse("annulus mode index n", "an integer", n)
    if n == 0:
        return 0.0, (1.0 + geom.rho) / (geom.rho * geom.alpha)
    one_p_eps = 1.0 + _eps_plus(geom.alpha, n)
    m = float(abs(n))
    return m * one_p_eps, m * math.exp(-geom.alpha) / one_p_eps


def _zeta_report(seq: EigenSequence, boundary_length: float, inputs: dict) -> DetReport:
    """det' of seq through log_det, normalized by the boundary length."""
    value = math.exp(log_det(seq).log_value)
    return DetReport(value=value, ratio=value / boundary_length, method="zeta_pipeline",
                     inputs=inputs, error_estimate=value * 1e-13)


def annulus_det_prime(geom: AnnulusGeometry) -> DetReport:
    """det' of the annulus DN map through the zeta-regularized pipeline.

    Closed form: det' N = (2 pi)^2 (1 + rho) / ln rho, so the ratio to
    the boundary length 2 pi (1 + rho) is 2 pi / ln rho.
    """
    head = ((annulus_eigenvalues(geom, 0)[1], 1),)
    seq = EigenSequence(power=2.0, prefactor=math.exp(-geom.alpha), head=head, tail_multiplicity=2)
    return _zeta_report(seq, geom.boundary_length, {"rho": geom.rho})


def disc_det_prime(geom: DiscGeometry) -> DetReport:
    """det' of the disc DN map; spectrum {n / R, multiplicity 2}."""
    seq = EigenSequence(power=1.0, prefactor=1.0 / geom.radius, tail_multiplicity=2)
    return _zeta_report(seq, geom.boundary_length, {"radius": geom.radius})


def cylinder_det_prime(geom: CylinderGeometry) -> DetReport:
    """det' of the hyperbolic-cylinder DN map (closed form).

    The boundary carries total conformal length 2 ell, and
    det' N / (2 ell) = ell / pi; the conformal bridge to the annulus of
    modulus e^{2 pi^2 / ell} reproduces the same ratio as 2 pi / ln rho.
    """
    ratio = geom.ell / math.pi
    boundary = 2.0 * geom.ell
    return DetReport(
        value=ratio * boundary,
        ratio=ratio,
        method="closed_form",
        inputs={"ell": geom.ell},
        error_estimate=ratio * boundary * 1e-15,
    )
