"""The headline claims, stated once.

Each verify suite is a function returning its checks; SUITES maps the
suite names, in run order, to those functions.  `dnzeta verify` renders
the checks and `tests/test_acceptance.py` asserts each one, so a seed,
tolerance or frozen oracle constant lives here and nowhere else.

A check is (name, max_err, tolerance, passed), and passed is max_err <=
tolerance.  Each max_err is measured against a value that the checked
code did not produce: a closed form, a frozen mpmath value, or an
independent formula.  tests/test_claims_mutation.py breaks the checked
code and requires every check to fail under some break.

Only the numpy-free layers are imported at the top: `dnzeta verify`
imports this module for the suite names, and the appendix, lemma and
theorem4 suites run without numpy.  The helpers and suites that need
numpy, hyperbolic, zeta_dyn or numeric_dn import them when they run.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .det_engine import (
    SurfaceTopology,
    functional_equation_rhs,
    log_dirichlet_det,
    theorem4_pipeline,
)
from .dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    DiscGeometry,
    annulus_det_prime,
    cylinder_det_prime,
    disc_det_prime,
)
from .specfun import log_barnes_g, log_gamma
from .zeta_reg import EigenSequence, log_det, required_tail_length

if TYPE_CHECKING:
    from .hyperbolic import GroupPresentation, LengthSpectrum

_SEED = 20260818
# zeta'(-1), to 20 digits
_ZETA_PRIME_MINUS1 = -0.16542114370045092921
_LN_PI = math.log(math.pi)
# log det' of the eps_n = e^-n perturbed sequence, frozen from an
# independent Euler-Maclaurin continuation of the spectral zeta function
_EULER_MACLAURIN_LOG_DET = 1.4364986403401920
# (k, c, C, a, s_n, head, m, log det') of u_n = c n^k (1 + eps_n) with multiplicity m,
# eps_n = C e^{-a n} s_n for n <= required_tail_length(C, a) and 0 past it, and the
# (eigenvalue, multiplicity) head.  log det' = -zeta_u'(0), to 20 digits, frozen
# from 40-digit mpmath: zeta_u(s) = m c^{-s} [zeta(k s) + sum_n n^{-k s}
# ((1 + eps_n)^{-s} - 1)] + sum_head mu lam^{-s} over the double eps_n, its
# derivative at s = 0 taken by mp.diff
_LEMMA_CONTINUATIONS = (
    (0.5, 4.0, 0.8, 0.5, lambda n: (-1.0) ** n, ((0.1, 3),), 1, -7.6856840321222298975),
    (1.0, 0.5, 0.3, 0.7, lambda n: (-1.0) ** n, ((0.25, 1), (3.5, 2)), 2, 3.4194518200705962057),
    (3.0, 0.2, 0.5, 2.0, lambda n: 1.0 / (n + 1), (), 3, 10.794612551606807156),
)
# log[(2 pi)^{1-2 lam} Gamma(lam) G(lam)^2 / (Gamma(1-lam) G(1-lam)^2)] at
# the doubles nearest 0.3 and 0.8, frozen from 40-digit mpmath loggamma and barnesg
_FUNCTIONAL_BRACKET = ((0.3, -0.057329891646147571059), (0.8, 0.22041571895666517055))
# (Z'_G(1), Z_g0(1), chi, ell, det'(N)/ell) with det'(N)/ell the closed display
# -Z'_G(1) e^{ell/4} / (Z_g0(1)^2 2 pi chi), to 20 digits, frozen from 40-digit mpmath at the doubles
_THEOREM4_RATIOS = (
    (0.25, 1.5, -1, 4.0, 0.048069776635125838179),
    (3.7, 0.45, -2, 0.6, 1.6893164254307414378),
    (1.9, 4.2, -5, 15.0, 0.14578386318887791678),
    (0.3, 0.3, -3, 9.5, 1.9011965464557763399),
)
# (lam, Z_g0(lam), chi, ell, log det(Delta - lam(1-lam))) with the log det
# log z - chi [eta + lam(1-lam) + (lam-1) ln 2 pi - 2 log G(lam) - log Gamma(lam)] + ell (1-2 lam)/8,
# eta = 2 zeta'(-1) - 1/4 + ln(2 pi)/2, to 20 digits, frozen from 40-digit mpmath
# zeta(-1, derivative=1), barnesg and loggamma at the doubles
_DIRICHLET_LOGS = (
    (0.3, 2.2, -1, 3.0, 1.1608329255098434828),
    (1.0, 0.7, -4, 8.0, -0.004289960723648908944),
    (1.75, 4.5, -2, 0.9, 2.0426291183661294573),
    (2.6, 1.3, -3, 5.5, -6.0161527669753899174),
)

ANNULUS_MODULI = (1.00001, 1.001, 1.5, 2.0, math.e, 10.0, 100.0)
DISC_RADII = (0.5, 1.0, 7.0)
SCATTERING_LENGTHS = (1.0, 2.5)
CONFORMAL_DISC = DiscGeometry(1.0)
# coefficients of the numericdn suite's ConformalFactor
CONFORMAL_COEFFICIENTS = (0.0, 0.3, 0.0)
RESIDUAL_TOLERANCE = 1e-6


class Check(NamedTuple):
    name: str
    max_err: float
    tolerance: float
    passed: bool


def _check(name: str, err: float, tol: float) -> Check:
    return Check(name, float(err), float(tol), bool(err <= tol))


def _cylinder_spectrum(ell: float) -> LengthSpectrum:
    # The group <diag(e^{ell/2}, e^{-ell/2})> of the hyperbolic cylinder, enumerated
    # up to 10 ell: one entry, gamma and gamma^-1 of length ell.
    from .hyperbolic import GroupPresentation, MobiusTransform, enumerate_primitive_classes

    gamma = MobiusTransform(math.exp(0.5 * ell), 0.0, 0.0, math.exp(-0.5 * ell))
    return enumerate_primitive_classes(GroupPresentation((gamma,)), 10.0 * ell)


def schottky_pair() -> GroupPresentation:
    # Two hyperbolic dilations with separated axes (translation lengths
    # 2.0 and 2.4; the second axis moved off the first by a conjugation).
    import numpy as np

    from .hyperbolic import GroupPresentation, MobiusTransform

    def dilation(length: float) -> np.ndarray:
        lam = math.exp(0.5 * length)
        return np.array([[lam, 0.0], [0.0, 1.0 / lam]])

    conj = np.array([[3.0, -3.0], [1.0, 1.0]]) / math.sqrt(6.0)
    m2 = conj @ dilation(2.4) @ np.linalg.inv(conj)
    g1 = dilation(2.0)
    return GroupPresentation(
        (
            MobiusTransform(g1[0, 0], g1[0, 1], g1[1, 0], g1[1, 1]),
            MobiusTransform(m2[0, 0], m2[0, 1], m2[1, 0], m2[1, 1]),
        )
    )


def _appendix() -> list[Check]:
    checks = []
    for rho in ANNULUS_MODULI:
        report = annulus_det_prime(AnnulusGeometry(rho))
        target = 2.0 * math.pi / math.log(rho)
        err = abs(report.ratio - target) / target
        checks.append(_check(f"annulus rho={rho:g}: det'/ell = 2pi/ln(rho)", err, 1e-12))
    for radius in DISC_RADII:
        report = disc_det_prime(DiscGeometry(radius))
        checks.append(_check(f"disc radius={radius:g}: det' = boundary length", abs(report.ratio - 1.0), 1e-12))
    return checks


def _bridge() -> list[Check]:
    import numpy as np

    from .zeta_dyn import ruelle_limit_order

    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(10):
        ell = float(rng.uniform(0.1, 20.0))
        ratio = annulus_det_prime(AnnulusGeometry(CylinderGeometry(ell).bridge_rho)).ratio
        worst = max(worst, abs(ratio - ell / math.pi) / (ell / math.pi))
    checks = [_check("annulus pipeline at the bridge modulus = ell/pi (10 random ell)", worst, 1e-12)]
    for ell in SCATTERING_LENGTHS:
        got = (2.0 / math.pi) * ruelle_limit_order(_cylinder_spectrum(ell))
        want = cylinder_det_prime(CylinderGeometry(ell)).value
        checks.append(_check(f"scattering route ell={ell:g}: (2/pi) lim = 2 ell^2/pi", abs(got - want) / want, 1e-10))
    return checks


def _lemma() -> list[Check]:
    checks = []
    for k, c, bound, rate, sign, head, m, want in _LEMMA_CONTINUATIONS:
        eps = tuple(bound * math.exp(-rate * n) * sign(n) for n in range(1, required_tail_length(bound, rate) + 1))
        seq = EigenSequence(power=k, prefactor=c, corrections=eps, decay_rate=rate, decay_bound=bound,
                            head=head, tail_multiplicity=m)
        err = abs(log_det(seq).log_value - want) / (1.0 + abs(want))
        name = f"u_n = {c:g} n^{k:g} (1 + eps_n), m={m}, heads={len(head)} vs 40-digit continuation"
        checks.append(_check(name, err, 1e-12))
    n_tail = required_tail_length(1.0, 1.0)
    eps = tuple(math.exp(-(n + 1.0)) for n in range(n_tail))
    seq = EigenSequence(power=1.0, prefactor=1.0, corrections=eps, decay_rate=1.0, decay_bound=1.0)
    err = abs(log_det(seq).log_value - _EULER_MACLAURIN_LOG_DET)
    checks.append(_check("eps_n = e^-n sequence vs Euler-Maclaurin continuation oracle", err, 1e-9))
    return checks


def _lambert(spectrum: LengthSpectrum, lam: float) -> float:
    """sum_c m_c sum_{k>=0} log(1 - x q^k) = -sum_c m_c sum_j x^j / (j (1 - q^j)),
    x = e^{-lam l_c} and q = e^{-l_c}, over the entries the Euler products use.

    The Lambert form of log Z(lam), summed with no Euler-product ladder;
    the j-sum stops once x^j < e^{-40}.
    """
    from .hyperbolic import _window_entries

    terms = []
    for e in _window_entries(spectrum):
        for j in range(1, math.ceil(40.0 / (lam * e.length)) + 1):
            terms.append(e.multiplicity * math.exp(-j * lam * e.length) / (j * math.expm1(-j * e.length)))
    return math.fsum(terms)


def _functional() -> list[Check]:
    from .hyperbolic import enumerate_primitive_classes
    from .zeta_dyn import ruelle, selberg

    checks = []
    # Gamma recurrence log Gamma(z+1) = log Gamma(z) + log z.
    worst = 0.0
    for z in (0.7, 2.3, 6.5, complex(1.4, 2.2)):
        diff = log_gamma(z + 1).value - log_gamma(z).value - cmath.log(z)
        worst = max(worst, abs(diff))
    checks.append(_check("Gamma recurrence", worst, 1e-9))
    # Barnes recurrence log G(z+1) = log Gamma(z) + log G(z).
    worst = 0.0
    for z in (0.8, 2.5, 5.25):
        diff = log_barnes_g(z + 1).value - log_gamma(z).value - log_barnes_g(z).value
        worst = max(worst, abs(diff))
    checks.append(_check("Barnes G recurrence", worst, 1e-9))
    checks.append(_check("log Gamma(1/2) = ln(pi)/2", abs(log_gamma(0.5).value - 0.5 * _LN_PI), 1e-12))
    # log G(1/2) = ln 2/24 + 1/8 - ln(pi)/4 - (3/2) ln A, ln A = 1/12 - zeta'(-1)
    log_g_half = math.log(2.0) / 24.0 + 0.125 - 0.25 * _LN_PI - 1.5 * (1.0 / 12.0 - _ZETA_PRIME_MINUS1)
    checks.append(_check("log G(1/2) = ln2/24 + 1/8 - ln(pi)/4 - (3/2) ln A", abs(log_barnes_g(0.5).value - log_g_half), 1e-12))
    # Euler products against their Lambert series over the same window:
    # log Z(lam) = L(lam), log R(lam) = L(lam) - L(lam + 1); 1e-14 is far inside the tail bounds.
    schottky = enumerate_primitive_classes(schottky_pair(), 12.0)
    for where, spectrum, delta_hint, lams in (
        ("cyclic spectrum", _cylinder_spectrum(1.0), 0.0, (1.5, 2.5)),
        ("Schottky pair within tail bounds", schottky, 0.55, (1.5, 2.0, 3.0)),
    ):
        errs = [0.0]
        for lam in lams:
            lambert = _lambert(spectrum, lam)
            errs.append(abs(selberg(spectrum, lam, delta_hint).log_value - lambert))
            errs.append(abs(ruelle(spectrum, lam, delta_hint).log_value - (lambert - _lambert(spectrum, lam + 1.0))))
        checks.append(_check(f"R = Z(lam)/Z(lam+1), {where}", max(errs), 1e-14))
    # With log Z = 0 and chi = -1 the functional equation is its bracket alone,
    # 2 pi int_0^{lam-1/2} v tan(pi v) dv: checked at mpmath values, reflected, and by its Taylor series at 1/2.
    topo = SurfaceTopology(genus=0, boundary_components=3)
    bracket = lambda lam: functional_equation_rhs(lam, topo, lambda _s: 0.0)
    worst = max(max(abs(bracket(lam) - want), abs(bracket(1.0 - lam) + want)) for lam, want in _FUNCTIONAL_BRACKET)
    checks.append(_check("functional bracket reflection antisymmetry", worst, 1e-12))
    pi2 = math.pi**2
    series = lambda t: 2 * pi2 * t**3 / 3 + 2 * pi2**2 * t**5 / 15 + 4 * pi2**3 * t**7 / 105
    worst = max(abs(bracket(0.5 + t) - series(t)) for t in (-0.01, 0.01))
    checks.append(_check("functional equation at the symmetry point", worst, 1e-12))
    return checks


def _theorem4() -> list[Check]:
    topo = lambda chi: SurfaceTopology(genus=0, boundary_components=2 - chi)
    reports = [(theorem4_pipeline(zp, z0, topo(chi), ell), want) for zp, z0, chi, ell, want in _THEOREM4_RATIOS]
    worst_ratio = max(abs(got - want) / want for r, want in reports for got in (r.ratio, r.inputs["ratio_bfk"]))
    worst_log = max(
        abs(log_dirichlet_det(lam, z, topo(chi), ell) - want) / (1.0 + abs(want))
        for lam, z, chi, ell, want in _DIRICHLET_LOGS
    )
    return [
        _check("theorem4 closed display and surgery composition vs 40-digit values", worst_ratio, 1e-12),
        _check("log dirichlet det at lambda=0.3,1,1.75,2.6 vs 40-digit values", worst_log, 1e-12),
    ]


def _numericdn() -> list[Check]:
    import numpy as np

    from .numeric_dn import ConformalFactor, k_convergence_table

    factor = ConformalFactor(CONFORMAL_COEFFICIENTS)
    [(_, residual)] = k_convergence_table(CONFORMAL_DISC, factor, np.linspace(0.0, 1.0, 11), (64,))
    return [_check("conformal derivative identity residual at K=64", residual, RESIDUAL_TOLERANCE)]


SUITES = {
    "appendix": _appendix,
    "bridge": _bridge,
    "lemma": _lemma,
    "functional": _functional,
    "theorem4": _theorem4,
    "numericdn": _numericdn,
}
