"""Tests for the closed-form DN model geometries."""

import math

import mpmath
import numpy as np
import pytest

from dnzeta import numeric_dn
from dnzeta.dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    DiscGeometry,
    annulus_det_prime,
    annulus_eigenvalues,
    cylinder_det_prime,
    disc_det_prime,
)
from dnzeta.errors import DomainError
from dnzeta.zeta_reg import EigenSequence, log_det

TWO_PI = 2.0 * math.pi


def annulus_block(geom, n):
    """Reference DN block of mode n in the (outer, inner) trace basis.

    The matrix the module docstring of dn_explicit writes down; the
    finite-difference tests below certify it, and the eigenvalue tests
    hold annulus_eigenvalues against its dense eigenvalues.
    """
    a = geom.alpha
    if n == 0:
        # Kernel direction (1, 1); nonzero eigenvalue (1+rho)/(rho ln rho).
        return np.array([[1.0 / geom.rho, -1.0 / geom.rho], [-1.0, 1.0]]) / a
    t = abs(n) * a
    if t >= 350.0:
        # coth(t) = 1 to machine precision; entries via exact limits.
        return np.diag([abs(n) * math.exp(-a), float(abs(n))])
    cosh_t = math.cosh(t)
    pref = abs(n) / math.sinh(t)
    return pref * np.array([[math.exp(-a) * cosh_t, -math.exp(-a)], [-1.0, cosh_t]])


def test_annulus_geometry_constants():
    g = AnnulusGeometry(rho=2.0)
    assert g.alpha == pytest.approx(math.log(2.0), rel=1e-15)
    assert g.boundary_length == pytest.approx(TWO_PI * 3.0, rel=1e-15)


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.0, -3.0, math.inf, math.nan])
def test_annulus_geometry_rejects_bad_modulus(rho):
    with pytest.raises(DomainError):
        AnnulusGeometry(rho=rho)


def test_cylinder_geometry_bridge_modulus():
    g = CylinderGeometry(ell=2.0)
    assert g.bridge_rho == pytest.approx(math.exp(math.pi**2), rel=1e-15)


@pytest.mark.parametrize("ell", [0.02, 0.0, -1.0, math.nan])
def test_cylinder_geometry_rejects_bad_length(ell):
    with pytest.raises(DomainError):
        CylinderGeometry(ell=ell)


def test_block_example_determinant():
    # rho = e, mode 1: det = 1^2 e^{-1}.
    g = AnnulusGeometry(rho=math.e)
    b = annulus_block(g, 1)
    assert np.linalg.det(b) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_block_mode_zero():
    g = AnnulusGeometry(rho=2.0)
    b = annulus_block(g, 0)
    kernel = b @ np.array([1.0, 1.0])
    assert np.max(np.abs(kernel)) < 1e-15
    vals = sorted(np.linalg.eigvals(b).real)
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert vals[1] == pytest.approx(3.0 / (2.0 * math.log(2.0)), rel=1e-13)


def _fd_block(rho, n):
    # Differentiate the explicit harmonic extensions of each boundary trace.
    a = math.log(rho)
    h = 3e-4
    if n == 0:
        def outer(r):
            return math.log(r) / a

        def inner(r):
            return (a - math.log(r)) / a
    else:
        m = abs(n)
        den = rho**m - rho**(-m)

        def outer(r):
            return (r**m - r**(-m)) / den

        def inner(r):
            return (rho**m * r**(-m) - rho**(-m) * r**m) / den

    def d(f, r):
        return (f(r - 2 * h) - 8 * f(r - h) + 8 * f(r + h) - f(r + 2 * h)) / (12 * h)

    # Outward normal: +d/dr on the outer circle, -d/dr on the inner one.
    return np.array(
        [[d(outer, rho), d(inner, rho)], [-d(outer, 1.0), -d(inner, 1.0)]]
    )


@pytest.mark.parametrize("rho", [1.5, 2.0, math.e, 10.0])
def test_block_matches_finite_difference_oracle(rho):
    g = AnnulusGeometry(rho=rho)
    for n in range(0, 33):
        got = annulus_block(g, n)
        want = _fd_block(rho, n)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) < 1e-8, f"mode {n}"


def test_block_even_in_mode_index():
    g = AnnulusGeometry(rho=3.0)
    for n in (1, 4, 17):
        assert np.array_equal(annulus_block(g, n), annulus_block(g, -n))


def test_block_determinant_invariant():
    rng = np.random.default_rng(20260818)
    for _ in range(50):
        rho = float(rng.uniform(1.05, 40.0))
        n = int(rng.integers(1, 200))
        g = AnnulusGeometry(rho=rho)
        det = np.linalg.det(annulus_block(g, n))
        want = n * n * math.exp(-g.alpha)
        assert abs(det - want) <= 1e-12 * want


def test_block_weighted_symmetrization():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rho = float(rng.uniform(1.05, 40.0))
        n = int(rng.integers(0, 120))
        g = AnnulusGeometry(rho=rho)
        m = annulus_block(g, n)
        d = np.diag([math.sqrt(rho), 1.0])
        s = d @ m @ np.linalg.inv(d)
        assert np.max(np.abs(s - s.T)) <= 1e-12 * max(1.0, np.max(np.abs(s)))


def test_eigenvalues_match_dense_solver():
    for rho in (1.5, 2.0, math.e, 10.0):
        g = AnnulusGeometry(rho=rho)
        for n in (1, 2, 3, 5, 8, 13, 21, 32):
            lam_plus, lam_minus = annulus_eigenvalues(g, n)
            dense = sorted(np.linalg.eigvals(annulus_block(g, n)).real)
            assert lam_minus == pytest.approx(dense[0], rel=1e-12)
            assert lam_plus == pytest.approx(dense[1], rel=1e-12)


@pytest.mark.parametrize("rho", [1.001, 1.00001, 1.0 + 1e-8])
def test_eigenvalues_match_mpmath_near_unit_modulus(rho):
    # mpmath eigenvalues of the mode-n block built at 50 digits from the
    # same float rho, down to t = n ln rho = 1e-8.
    g = AnnulusGeometry(rho=rho)
    for n in (1, 2, 10, 1000):
        with mpmath.workdps(50):
            a = mpmath.log(mpmath.mpf(rho))
            pref = n / mpmath.sinh(n * a)
            cosh_t = mpmath.cosh(n * a)
            block = mpmath.matrix(
                [[pref * mpmath.exp(-a) * cosh_t, -pref * mpmath.exp(-a)], [-pref, pref * cosh_t]]
            )
            want_minus, want_plus = sorted(mpmath.re(v) for v in mpmath.eig(block)[0])
        lam_plus, lam_minus = annulus_eigenvalues(g, n)
        assert abs(lam_plus - want_plus) <= 1e-13 * want_plus, f"lam_+ mode {n}"
        assert abs(lam_minus - want_minus) <= 1e-13 * want_minus, f"lam_- mode {n}"


def test_eigenvalue_product_and_positivity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = float(rng.uniform(1.05, 80.0))
        n = int(rng.integers(1, 500))
        g = AnnulusGeometry(rho=rho)
        lam_plus, lam_minus = annulus_eigenvalues(g, n)
        assert lam_plus > 0.0 and lam_minus > 0.0
        want = n * n * math.exp(-g.alpha)
        assert lam_plus * lam_minus == pytest.approx(want, rel=1e-12)
        assert annulus_eigenvalues(g, -n) == (lam_plus, lam_minus)


def test_eigenvalues_mode_zero():
    # The constant mode pairs the kernel 0 with (1+rho)/(rho ln rho), the
    # one head eigenvalue annulus_det_prime regularizes: dividing out the
    # det' of its n >= 1 blocks leaves that eigenvalue.
    for rho in (1.0001, 2.0, 100.0):
        g = AnnulusGeometry(rho=rho)
        pair = annulus_eigenvalues(g, 0)
        assert pair == (0.0, (1.0 + rho) / (rho * math.log(rho)))
        blocks = EigenSequence(power=2.0, prefactor=math.exp(-g.alpha), tail_multiplicity=2)
        head = annulus_det_prime(g).value / math.exp(log_det(blocks).log_value)
        assert head == pytest.approx(pair[1], rel=1e-13)


def test_annulus_det_prime_frozen_value():
    # Independent zeta-side oracle: d/ds zeta(0) = -5.140879342068465 at rho = 2.
    report = annulus_det_prime(AnnulusGeometry(rho=2.0))
    assert math.log(report.value) == pytest.approx(5.140879342068465, rel=1e-12)
    assert report.method == "zeta_pipeline"
    assert report.inputs == {"rho": 2.0}
    assert 0.0 <= report.error_estimate < 1e-9 * report.value


@pytest.mark.parametrize("rho", [1.5, 2.0, math.e, 10.0, 100.0, 1.0 + 1e-8, 1.00001, 1.001, 1e300])
def test_annulus_det_prime_closed_form(rho):
    report = annulus_det_prime(AnnulusGeometry(rho=rho))
    a = math.log(rho)
    assert report.value == pytest.approx(TWO_PI**2 * (1.0 + rho) / a, rel=1e-12)
    assert report.ratio == pytest.approx(TWO_PI / a, rel=1e-12)
    # the error bar against an independent 30-digit closed form
    with mpmath.workdps(30):
        x = mpmath.mpf(rho)
        want = (2 * mpmath.pi) ** 2 * (1 + x) / mpmath.log(x)
        assert abs(report.value - want) <= report.error_estimate


@pytest.mark.parametrize("rho", [1.00001, 1.001, 1.5, 2.0, 100.0])
def test_annulus_det_prime_at_rounding_level(rho):
    # zeta(0) and zeta'(0) enter in closed form, so nothing but rounding
    # separates det' from (2 pi)^2 (1 + rho) / ln rho.
    report = annulus_det_prime(AnnulusGeometry(rho=rho))
    with mpmath.workdps(30):
        x = mpmath.mpf(rho)
        want = (2 * mpmath.pi) ** 2 * (1 + x) / mpmath.log(x)
        assert abs(report.value - want) <= 2e-15 * want


def test_annulus_det_prime_random_moduli():
    rng = np.random.default_rng(20260818)
    for _ in range(20):
        rho = float(rng.uniform(1.1, 50.0))
        report = annulus_det_prime(AnnulusGeometry(rho=rho))
        assert report.ratio == pytest.approx(TWO_PI / math.log(rho), rel=1e-12)


@pytest.mark.parametrize("radius", [0.5, 1.0, 7.0])
def test_disc_det_prime(radius):
    report = disc_det_prime(DiscGeometry(radius))
    assert report.value == pytest.approx(TWO_PI * radius, rel=1e-12)
    assert report.ratio == pytest.approx(1.0, rel=1e-12)
    assert report.method == "zeta_pipeline"


@pytest.mark.parametrize("radius", [0.0, -2.0, math.inf, math.nan, 1e-320, 1e308])
def test_disc_det_prime_rejects_bad_radius(radius):
    # one rule: radius > 0 with 1 / radius and 2 pi radius finite
    with pytest.raises(DomainError):
        disc_det_prime(DiscGeometry(radius))


def test_numeric_dn_shares_the_disc_type():
    assert numeric_dn.DiscGeometry is DiscGeometry


def test_cylinder_det_prime_closed_form():
    report = cylinder_det_prime(CylinderGeometry(ell=math.pi))
    assert report.ratio == pytest.approx(1.0, rel=1e-14)
    assert report.value == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert report.method == "closed_form"
    report = cylinder_det_prime(CylinderGeometry(ell=1.0))
    assert report.ratio == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert report.value == pytest.approx(2.0 / math.pi, rel=1e-14)
