"""Acceptance suite: the headline claims of dnzeta.claims, one item per check.

The claims are stated once, in dnzeta.claims, which `dnzeta verify`
runs too.  Each suite is computed once per session.  test_claim asserts
every check on its own; FROZEN_CLAIMS pins each check's name and
tolerance, so loosening a tolerance in the registry fails here.  The
criterion tests group the checks by acceptance criterion and add what
the suites do not check: the timing limits, det' = 2 pi R on the disc,
the closed form 2 ell^2/pi behind the scattering route, and the
conformal identity on its own t-grid around t = 0.
"""

import functools
import math
import time

import numpy as np
import pytest

from dnzeta import claims, specfun
from dnzeta.dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    DiscGeometry,
    annulus_det_prime,
    cylinder_det_prime,
    disc_det_prime,
)
from dnzeta.numeric_dn import ConformalFactor, k_convergence_table
from dnzeta.zeta_reg import required_tail_length

# rounding floor of the conformal derivative residual
NOISE_FLOOR = 1e-9

# (criterion, suite, name, tolerance) of every registry check, in run
# order; criterion None marks checks outside the numbered criteria.
FROZEN_CLAIMS = (
    ("01", "appendix", "annulus rho=1.00001: det'/ell = 2pi/ln(rho)", 1e-12),
    ("01", "appendix", "annulus rho=1.001: det'/ell = 2pi/ln(rho)", 1e-12),
    ("01", "appendix", "annulus rho=1.5: det'/ell = 2pi/ln(rho)", 1e-12),
    ("01", "appendix", "annulus rho=2: det'/ell = 2pi/ln(rho)", 1e-12),
    ("01", "appendix", "annulus rho=2.71828: det'/ell = 2pi/ln(rho)", 1e-12),
    ("01", "appendix", "annulus rho=10: det'/ell = 2pi/ln(rho)", 1e-12),
    ("01", "appendix", "annulus rho=100: det'/ell = 2pi/ln(rho)", 1e-12),
    ("02", "appendix", "disc radius=0.5: det' = boundary length", 1e-12),
    ("02", "appendix", "disc radius=1: det' = boundary length", 1e-12),
    ("02", "appendix", "disc radius=7: det' = boundary length", 1e-12),
    ("03", "bridge", "annulus pipeline at the bridge modulus = ell/pi (10 random ell)", 1e-12),
    ("04", "bridge", "scattering route ell=1: (2/pi) lim = 2 ell^2/pi", 1e-10),
    ("04", "bridge", "scattering route ell=2.5: (2/pi) lim = 2 ell^2/pi", 1e-10),
    ("06", "lemma", "u_n = 4 n^0.5 (1 + eps_n), m=1, heads=1 vs 40-digit continuation", 1e-12),
    ("06", "lemma", "u_n = 0.5 n^1 (1 + eps_n), m=2, heads=2 vs 40-digit continuation", 1e-12),
    ("06", "lemma", "u_n = 0.2 n^3 (1 + eps_n), m=3, heads=0 vs 40-digit continuation", 1e-12),
    ("06", "lemma", "eps_n = e^-n sequence vs Euler-Maclaurin continuation oracle", 1e-9),
    ("10", "functional", "Gamma recurrence", 1e-9),
    ("10", "functional", "Barnes G recurrence", 1e-9),
    ("10", "functional", "log Gamma(1/2) = ln(pi)/2", 1e-12),
    ("10", "functional", "log G(1/2) = ln2/24 + 1/8 - ln(pi)/4 - (3/2) ln A", 1e-12),
    ("07", "functional", "R = Z(lam)/Z(lam+1), cyclic spectrum", 1e-14),
    ("07", "functional", "R = Z(lam)/Z(lam+1), Schottky pair within tail bounds", 1e-14),
    (None, "functional", "functional bracket reflection antisymmetry", 1e-12),
    (None, "functional", "functional equation at the symmetry point", 1e-12),
    ("08", "theorem4", "theorem4 closed display and surgery composition vs 40-digit values", 1e-12),
    ("08", "theorem4", "log dirichlet det at lambda=0.3,1,1.75,2.6 vs 40-digit values", 1e-12),
    ("09", "numericdn", "conformal derivative identity residual at K=64", 1e-6),
)


@functools.cache
def run_suite(suite):
    """({name: check}, wall seconds) of one registry suite, computed once."""
    start = time.perf_counter()
    checks = claims.SUITES[suite]()
    return {c.name: c for c in checks}, time.perf_counter() - start


def assert_criterion(criterion):
    for crit, suite, name, _ in FROZEN_CLAIMS:
        if crit == criterion:
            check = run_suite(suite)[0][name]
            assert check.passed, f"{name}: max_err={check.max_err:.3e} tol={check.tolerance:.3e}"


def test_registry_matches_frozen_claims():
    got = [(suite, c.name, c.tolerance) for suite in claims.SUITES for c in run_suite(suite)[0].values()]
    assert got == [(suite, name, tol) for _, suite, name, tol in FROZEN_CLAIMS]


@pytest.mark.parametrize(
    "suite, name, tolerance",
    [claim[1:] for claim in FROZEN_CLAIMS],
    ids=[claim[2] for claim in FROZEN_CLAIMS],
)
def test_claim(suite, name, tolerance):
    check = run_suite(suite)[0][name]
    assert check.tolerance == tolerance
    assert check.passed == (check.max_err <= check.tolerance)
    assert check.passed, f"max_err={check.max_err:.3e} tol={check.tolerance:.3e}"


def test_frozen_references_reproduce_from_mpmath():
    # Each frozen constant recomputed at 40 digits from the recipe in its
    # comment; a 20-digit constant read into a double is within 2^-52 of it.
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf

    def rel(frozen, exact):
        return abs(frozen - exact) / abs(exact)

    def minus_zeta_prime_at_0(k, c, eps, head, m):
        # zeta_u of u_n = c n^k (1 + eps_n), multiplicity m, plus the (eigenvalue, multiplicity) head
        def zeta_u(s):
            corrections = mpmath.fsum(mpf(n) ** (-k * s) * ((1 + mpf(e)) ** -s - 1) for n, e in enumerate(eps, 1))
            heads = mpmath.fsum(mu * mpf(lam) ** -s for lam, mu in head)
            return m * mpf(c) ** -s * (mpmath.zeta(k * s) + corrections) + heads
        return -mpmath.diff(zeta_u, 0)

    def log_g(z):
        return mpmath.log(mpmath.barnesg(z))

    with mpmath.workdps(40):
        zeta_prime_minus1 = mpmath.zeta(-1, derivative=1)
        ln_2pi = mpmath.log(2 * mpmath.pi)
        eta = 2 * zeta_prime_minus1 - mpf(1) / 4 + ln_2pi / 2
        errs = [rel(claims._ZETA_PRIME_MINUS1, zeta_prime_minus1), rel(specfun._ZETA_PRIME_MINUS1, zeta_prime_minus1)]
        for k, c, bound, rate, sign, head, m, want in claims._LEMMA_CONTINUATIONS:
            eps = [bound * math.exp(-rate * n) * sign(n) for n in range(1, required_tail_length(bound, rate) + 1)]
            errs.append(rel(want, minus_zeta_prime_at_0(k, c, eps, head, m)))
        for lam, want in claims._FUNCTIONAL_BRACKET:
            lam = mpf(lam)
            exact = ((1 - 2 * lam) * ln_2pi + mpmath.loggamma(lam) + 2 * log_g(lam)
                     - mpmath.loggamma(1 - lam) - 2 * log_g(1 - lam))
            errs.append(rel(want, exact))
        for zp, z0, chi, ell, want in claims._THEOREM4_RATIOS:
            errs.append(rel(want, -mpf(zp) * mpmath.exp(mpf(ell) / 4) / (mpf(z0) ** 2 * 2 * mpmath.pi * chi)))
        for lam, z, chi, ell, want in claims._DIRICHLET_LOGS:
            lam = mpf(lam)
            bracket = eta + lam * (1 - lam) + (lam - 1) * ln_2pi - 2 * log_g(lam) - mpmath.loggamma(lam)
            errs.append(rel(want, mpmath.log(z) - chi * bracket + ell * (1 - 2 * lam) / 8))
        assert max(errs) <= 2.0**-52
        eps = [math.exp(-n) for n in range(1, required_tail_length(1.0, 1.0) + 1)]
        assert rel(claims._EULER_MACLAURIN_LOG_DET, minus_zeta_prime_at_0(1, 1, eps, (), 1)) <= 1e-14


def test_criterion_01_annulus_det_over_length_is_two_pi_over_log_rho():
    # and each annulus determinant takes under 1 s
    assert_criterion("01")
    for rho in claims.ANNULUS_MODULI:
        start = time.perf_counter()
        annulus_det_prime(AnnulusGeometry(rho))
        assert time.perf_counter() - start < 1.0


def test_criterion_02_disc_det_prime_equals_boundary_length():
    # and the value itself is the boundary length 2 pi R
    assert_criterion("02")
    for radius in claims.DISC_RADII:
        report = disc_det_prime(DiscGeometry(radius))
        assert abs(report.value / (2.0 * math.pi * radius) - 1.0) <= 1e-12


def test_criterion_03_cylinder_annulus_bridge_identity():
    assert_criterion("03")


def test_criterion_04_scattering_route_reaches_closed_form():
    # and the target of the scattering route is the closed form 2 ell^2/pi
    assert_criterion("04")
    for ell in claims.SCATTERING_LENGTHS:
        want = cylinder_det_prime(CylinderGeometry(ell)).value
        assert want == pytest.approx(2.0 * ell**2 / math.pi, rel=1e-14)


def test_criterion_06_regularized_product_lemma_suite():
    assert_criterion("06")


def test_criterion_07_ruelle_selberg_identity_within_tail_bounds():
    # the Euler products match their Lambert series, and the functional
    # suite, Schottky enumeration included, takes under 30 s
    assert_criterion("07")
    assert run_suite("functional")[1] < 30.0


def test_criterion_08_theorem4_and_dirichlet_two_path_agreement():
    assert_criterion("08")


def test_criterion_09_conformal_derivative_residual_and_k_table():
    # the registry checks the identity on t in [0, 1]; here it also holds
    # on 5 points of [-0.05, 0.05], where the K table must not increase
    # or must sit at the rounding floor
    assert_criterion("09")
    geometry, omega0 = claims.CONFORMAL_DISC, ConformalFactor(claims.CONFORMAL_COEFFICIENTS)
    t_grid = np.linspace(-0.05, 0.05, 5)
    table = k_convergence_table(geometry, omega0, t_grid, (16, 32, 64))
    residuals = [r for _, r in table]
    assert residuals[-1] <= claims.RESIDUAL_TOLERANCE
    non_increasing = all(a >= b for a, b in zip(residuals, residuals[1:]))
    at_floor = all(r <= NOISE_FLOOR for r in residuals)
    assert non_increasing or at_floor


def test_criterion_10_special_function_recurrences_and_zeta_values():
    assert_criterion("10")

