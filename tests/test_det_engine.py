"""Tests for the determinant identity engine."""

import math

import numpy as np
import pytest

from dnzeta.dn_explicit import AnnulusGeometry, CylinderGeometry, annulus_det_prime
from dnzeta.errors import DomainError
from dnzeta.det_engine import (
    SurfaceTopology,
    dirichlet_det,
    functional_equation_rhs,
    log_dirichlet_det,
    sarnak_det,
    theorem2_value,
    theorem4_pipeline,
    zero_volume,
    _log_functional_bracket,
)
from dnzeta.hyperbolic import LengthSpectrum, SpectrumEntry
from dnzeta.zeta_dyn import ruelle_limit_order, selberg

ETA = 0.33809624580377088335
ZETA_PRIME_MINUS1 = -0.16542114370045092921

DISC = SurfaceTopology(genus=0, boundary_components=1)
CYLINDER = SurfaceTopology(genus=0, boundary_components=2)
PAIR_OF_PANTS = SurfaceTopology(genus=0, boundary_components=3)


def _chi_topology(chi):
    # chi = 2 - 2g - N with g = 0.
    return SurfaceTopology(genus=0, boundary_components=2 - chi)


def test_topology_euler():
    assert DISC.euler == 1
    assert CYLINDER.euler == 0
    assert PAIR_OF_PANTS.euler == -1
    assert SurfaceTopology(genus=2, boundary_components=3).euler == -5


@pytest.mark.parametrize("genus,nb", [(-1, 1), (0, 0), (1.5, 1), (0, 2.0)])
def test_topology_rejects_bad_fields(genus, nb):
    with pytest.raises(DomainError):
        SurfaceTopology(genus=genus, boundary_components=nb)


def test_zero_volume_values():
    assert zero_volume(DISC) == pytest.approx(-2.0 * math.pi, rel=1e-15)
    assert zero_volume(CYLINDER) == 0.0
    assert zero_volume(SurfaceTopology(genus=2, boundary_components=3)) == pytest.approx(
        10.0 * math.pi, rel=1e-15
    )


def _cyclic_spectrum(ell, window=None):
    window = 10.0 * ell if window is None else window
    return LengthSpectrum(
        entries=(SpectrumEntry(length=ell, multiplicity=2),),
        cutoff=window,
        complete_up_to=window,
    )


def test_functional_equation_chi_zero_reduces_to_zeta_ratio():
    spec = _cyclic_spectrum(2.0)

    def log_z(lam):
        return selberg(spec, lam, 0.0).log_value

    lam = 0.3
    out = functional_equation_rhs(lam, CYLINDER, log_z)
    assert out == log_z(1.0 - lam) - log_z(lam)


def test_functional_equation_symmetry_point_is_one():
    out = functional_equation_rhs(0.5, DISC, lambda lam: 0.0)
    assert out == 0.0


@pytest.mark.parametrize("lam", [0.3, 0.8, complex(0.4, 1.1)])
def test_functional_bracket_reflection_product_is_one(lam):
    total = _log_functional_bracket(lam) + _log_functional_bracket(1.0 - lam)
    assert abs(total) <= 1e-13


def test_functional_equation_disc_reciprocal_pair():
    # With Z == 1 the determinant at lam and 1 - lam are reciprocals.
    lam = 0.3
    a = functional_equation_rhs(lam, DISC, lambda _: 0.0)
    b = functional_equation_rhs(1.0 - lam, DISC, lambda _: 0.0)
    assert abs(a + b) <= 1e-13
    assert math.exp(a.real) > 0.0


def test_functional_equation_propagates_callback_errors():
    spec = _cyclic_spectrum(2.0)

    def log_z(lam):
        return selberg(spec, lam, 0.0).log_value

    with pytest.raises(DomainError):
        functional_equation_rhs(1.2, CYLINDER, log_z)


def test_theorem2_disc():
    report = theorem2_value(DISC)
    assert report.value == 1.0
    assert report.ratio == 1.0
    assert report.method == "closed_form"
    with pytest.raises(DomainError):
        theorem2_value(DISC, ell=1.0)


def test_theorem2_cylinder():
    report = theorem2_value(CYLINDER, ell=math.pi**2)
    assert report.ratio == pytest.approx(math.pi, rel=1e-15)
    assert report.method == "closed_form"
    with pytest.raises(DomainError):
        theorem2_value(CYLINDER)
    with pytest.raises(DomainError):
        theorem2_value(CYLINDER, ell=-2.0)
    with pytest.raises(DomainError):
        theorem2_value(CYLINDER, supplied_limit=1.0)


def test_theorem2_negative_chi():
    report = theorem2_value(PAIR_OF_PANTS, supplied_limit=0.37)
    assert report.ratio == pytest.approx(-0.37, rel=1e-15)
    assert report.method == "zeta_pipeline"
    with pytest.raises(DomainError):
        theorem2_value(PAIR_OF_PANTS)
    with pytest.raises(DomainError):
        theorem2_value(PAIR_OF_PANTS, ell=1.0)
    with pytest.raises(DomainError):
        theorem2_value(PAIR_OF_PANTS, supplied_limit=math.inf)


@pytest.mark.parametrize("chi", [0, -1, -3])
def test_theorem2_error_bar_holds_against_mpmath(chi):
    mpmath = pytest.importorskip("mpmath")
    topo = SurfaceTopology(genus=0, boundary_components=2 - chi)
    rng = np.random.default_rng(600 - chi)
    xs = np.concatenate([10.0 ** rng.uniform(-6.0, 6.0, 500), rng.uniform(0.5, 10.0, 500)])
    # the last two quotients are subnormal
    with mpmath.workdps(50):
        for x in xs.tolist() + [1e-310, 5e-324]:
            if chi == 0:
                report = theorem2_value(topo, ell=x)
                exact = mpmath.mpf(x) / mpmath.pi
            else:
                report = theorem2_value(topo, supplied_limit=x)
                exact = mpmath.mpf(x) / chi
            assert abs(report.ratio - exact) <= report.error_estimate


def test_theorem4_error_bar_holds_against_mpmath():
    # error_estimate is the gap between the closed display and the surgery
    # composition; over the zeta-grid workload's input ranges it must bound
    # the closed ratio's distance to the exact display
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20260818)
    with mpmath.workdps(40):
        for i in range(1000):
            chi = (-1, -2, -3, -5)[i % 4]
            zp, z0 = rng.uniform(0.2, 5.0, 2).tolist()
            ell = float(rng.uniform(0.5, 10.0))
            report = theorem4_pipeline(zp, z0, _chi_topology(chi), ell)
            exact = mpmath.mpf(zp) * mpmath.exp(mpmath.mpf(ell) / 4) / (mpmath.mpf(z0) ** 2 * 2 * mpmath.pi * -chi)
            assert abs(report.ratio - exact) <= report.error_estimate, (zp, z0, chi, ell)


def test_theorem2_matches_annulus_pipeline():
    # Cylinder case against the modulus-bridged annulus determinant.
    rng = np.random.default_rng(20260818)
    for _ in range(10):
        ell = 0.1 + 19.9 * rng.random()
        ratio_t2 = theorem2_value(CYLINDER, ell=ell).ratio
        rho = CylinderGeometry(ell).bridge_rho
        ratio_annulus = annulus_det_prime(AnnulusGeometry(rho)).ratio
        assert ratio_t2 == pytest.approx(ratio_annulus, rel=1e-12)


def test_theorem2_matches_limit_order_route():
    # (2/pi) lim R(mu)/mu^2 = det'(N); rescaling by boundary/(2 ell)
    # and normalizing reproduces the cylinder case.
    for ell in (1.0, 2.5):
        lim = ruelle_limit_order(_cyclic_spectrum(ell))
        det_prime = (2.0 / math.pi) * lim
        assert det_prime == pytest.approx(2.0 * ell**2 / math.pi, rel=1e-10)
        boundary = 2.0 * ell
        ratio = det_prime * (boundary / (2.0 * ell)) / boundary
        assert ratio == pytest.approx(
            theorem2_value(CYLINDER, ell=ell).ratio, rel=1e-10
        )


def test_sarnak_det_examples():
    assert sarnak_det(1.0, PAIR_OF_PANTS) == pytest.approx(
        math.exp(2.0 * ETA), rel=1e-13
    )
    assert sarnak_det(0.7, CYLINDER) == pytest.approx(0.7, rel=1e-15)


def test_sarnak_det_log_vs_direct():
    from dnzeta.specfun import eta_constant

    rng = np.random.default_rng(7)
    for _ in range(50):
        z = 0.05 + 5.0 * rng.random()
        chi = -int(rng.integers(1, 6))
        direct = z * math.exp(-2.0 * eta_constant() * chi)
        assert sarnak_det(z, _chi_topology(chi)) == pytest.approx(direct, rel=1e-13)


def test_sarnak_det_against_frozen_eta():
    # exp(2 eta) with eta pinned independently; the internal eta
    # carries ~1e-14 absolute error, amplified by the exponent.
    assert sarnak_det(1.0, _chi_topology(-3)) == pytest.approx(
        math.exp(6.0 * ETA), rel=1e-12
    )


def test_sarnak_det_rejects_nonpositive():
    with pytest.raises(DomainError):
        sarnak_det(0.0, PAIR_OF_PANTS)
    with pytest.raises(DomainError):
        sarnak_det(-1.0, PAIR_OF_PANTS)


def test_dirichlet_det_lambda_one_two_paths():
    rng = np.random.default_rng(20260818)
    for _ in range(1000):
        z = 0.2 + 4.8 * rng.random()
        chi = -int(rng.integers(1, 6))
        ell = 0.1 + 19.9 * rng.random()
        full = dirichlet_det(1.0, z, _chi_topology(chi), ell)
        simplified = z * math.exp(-chi * ETA - ell / 8.0)
        assert full == pytest.approx(simplified, rel=1e-13)


def test_dirichlet_det_rejections():
    with pytest.raises(DomainError):
        dirichlet_det(1.0, 1.0, CYLINDER, 2.0)
    with pytest.raises(DomainError):
        dirichlet_det(1.0, 0.0, PAIR_OF_PANTS, 2.0)
    with pytest.raises(DomainError):
        dirichlet_det(-0.5, 1.0, PAIR_OF_PANTS, 2.0)
    with pytest.raises(DomainError):
        dirichlet_det(1.0, 1.0, PAIR_OF_PANTS, -2.0)


def test_dirichlet_det_cd_form():
    # Independent rearrangement: det = Z e^{-ell lam/4 + C lam(1-lam) + D}
    # (G(lam)^{-2} (2 pi)^lam / Gamma(lam))^{-chi} with C = -chi and
    # D = chi (log(2 pi)/2 - 2 zeta'(-1) + 1/4) + ell/8.
    from dnzeta.specfun import log_barnes_g, log_gamma

    chi = -3
    topo = _chi_topology(chi)
    ell = 2.7
    c = -chi
    d = chi * (0.5 * math.log(2.0 * math.pi) - 2.0 * ZETA_PRIME_MINUS1 + 0.25) + ell / 8.0
    for lam in (0.7, 1.0, 1.8, 3.2):
        z = 1.3
        expected = (
            math.log(z)
            - ell * lam / 4.0
            + c * lam * (1.0 - lam)
            + d
            - chi
            * (
                -2.0 * log_barnes_g(lam).value.real
                + lam * math.log(2.0 * math.pi)
                - log_gamma(lam).value.real
            )
        )
        got = log_dirichlet_det(lam, z, topo, ell)
        assert got == pytest.approx(expected, abs=1e-12)


def test_dirichlet_det_heat_asymptotics():
    # Large-lam fit of log det against the heat-trace expansion
    # -a1 mu log mu + a1 mu + 2 sqrt(pi) a2 sqrt(mu + 1/4) + a3 log mu.
    # Dirichlet heat trace t^{-1}(a1 + a2 t^{1/2} + a3 t) + o(1): a1 = -chi/2,
    # a2 = -ell/(8 sqrt(pi)), a3 = chi/6.
    topo = SurfaceTopology(genus=0, boundary_components=4)
    ell = 3.0
    a1 = -topo.euler / 2.0
    a2 = -ell / (8.0 * math.sqrt(math.pi))
    a3 = topo.euler / 6.0
    lams = np.linspace(20.0, 40.0, 9)
    y = np.array([log_dirichlet_det(lam, 1.0, topo, ell) for lam in lams])
    mu = lams * (lams - 1.0)
    design = np.column_stack(
        [
            mu * np.log(mu),
            mu,
            np.sqrt(mu + 0.25),
            np.log(mu),
            np.ones_like(mu),
            1.0 / np.sqrt(mu),
        ]
    )
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert coef[0] == pytest.approx(-a1, rel=1e-2)
    assert coef[1] == pytest.approx(a1, rel=1e-3)
    assert coef[2] == pytest.approx(2.0 * math.sqrt(math.pi) * a2, rel=1e-2)
    assert coef[3] == pytest.approx(a3, rel=5e-2)


def test_theorem4_example_inputs():
    topo = SurfaceTopology(genus=0, boundary_components=4)
    report = theorem4_pipeline(0.7, 1.3, topo, 5.0)
    expected = -0.7 * math.exp(5.0 / 4.0) / (1.3**2 * 2.0 * math.pi * topo.euler)
    assert report.ratio == pytest.approx(expected, rel=1e-13)
    assert report.value == pytest.approx(expected * 5.0, rel=1e-13)
    assert report.method == "theorem4_pipeline"
    assert report.inputs["ratio_bfk"] == pytest.approx(report.ratio, rel=1e-13)
    assert report.error_estimate <= 1e-13 * report.ratio


def test_theorem4_two_paths_agree_randomized():
    rng = np.random.default_rng(20260818)
    for _ in range(1000):
        zp = 0.1 + 9.9 * rng.random()
        z0 = 0.1 + 9.9 * rng.random()
        chi = -int(rng.integers(1, 7))
        ell = 0.1 + 19.9 * rng.random()
        report = theorem4_pipeline(zp, z0, _chi_topology(chi), ell)
        assert report.error_estimate <= 1e-12 * abs(report.ratio)


def test_theorem4_small_boundary_limit():
    report = theorem4_pipeline(0.7, 1.3, PAIR_OF_PANTS, 1e-12)
    limit = -0.7 / (1.3**2 * 2.0 * math.pi * -1.0)
    assert report.ratio == pytest.approx(limit, rel=1e-9)


def test_theorem4_sign_positive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        report = theorem4_pipeline(
            0.1 + rng.random(),
            0.1 + rng.random(),
            _chi_topology(-int(rng.integers(1, 5))),
            0.5 + rng.random(),
        )
        assert report.ratio > 0.0


def test_theorem4_rejections():
    with pytest.raises(DomainError):
        theorem4_pipeline(1.0, 1.0, CYLINDER, 2.0)
    with pytest.raises(DomainError):
        theorem4_pipeline(-1.0, 1.0, PAIR_OF_PANTS, 2.0)
    with pytest.raises(DomainError):
        theorem4_pipeline(1.0, 0.0, PAIR_OF_PANTS, 2.0)


def test_length_spectrum_relation_consistent_with_theorems():
    # Feeding the closed side through the chi < 0 determinant case must
    # land on the surgery ratio: the identities compose exactly.
    zp, z0, ell = 0.7, 1.3, 5.0
    topo = SurfaceTopology(genus=0, boundary_components=4)
    chi = topo.euler
    rhs = -(zp / z0**2) * math.exp(ell / 4.0) * (2.0 * math.pi) ** (-chi)
    supplied = (2.0 * math.pi) ** (chi - 1) * rhs
    ratio_t2 = theorem2_value(topo, supplied_limit=supplied).ratio
    ratio_t4 = theorem4_pipeline(zp, z0, topo, ell).ratio
    assert ratio_t2 == pytest.approx(ratio_t4, rel=1e-13)
