"""Tests for the truncated DN operators and the derivative identity."""

import math

import mpmath
import numpy as np
import pytest

from dnzeta import claims, numeric_dn
from dnzeta.dn_explicit import AnnulusGeometry
from dnzeta.errors import DomainError, TruncationError
from dnzeta.numeric_dn import (
    ConformalFactor,
    DiscGeometry,
    TruncatedOperator,
    boundary_length,
    build_dn_truncated,
    derivative_identity_check,
    k_convergence_table,
    multiplication_matrix,
    _conjugate,
    _split_kernel,
)
from dnzeta.zeta_reg import EigenSequence, log_det, scale, zeta_at_zero

TWO_PI = 2.0 * math.pi

DISC = DiscGeometry(1.0)


def _basis_samples(k, theta):
    """phi_i(theta_s) for the orthonormal basis on the unit circle."""
    phi = np.zeros((2 * k + 1, theta.size))
    phi[0] = 1.0 / math.sqrt(TWO_PI)
    for n in range(1, k + 1):
        phi[2 * n - 1] = np.cos(n * theta) / math.sqrt(math.pi)
        phi[2 * n] = np.sin(n * theta) / math.sqrt(math.pi)
    return phi


def _count_eigh(monkeypatch):
    """List that records the shape of every np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


# ---------------------------------------------------------------- factors


def test_factor_mean_degree_and_constant_flag():
    w = ConformalFactor((0.25, 0.3, -0.2, 0.0, 0.1))
    assert w.mean == 0.25
    assert w.degree == 2
    assert not w.is_constant
    assert ConformalFactor((0.7,)).is_constant
    assert ConformalFactor((0.0, 0.0, 0.0)).is_constant


@pytest.mark.parametrize(
    "coeffs",
    [(), (0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (math.nan,), (0.0, math.inf, 0.0)],
)
def test_factor_rejects_bad_coefficients(coeffs):
    with pytest.raises(DomainError):
        ConformalFactor(coeffs)


def test_factor_evaluate_matches_direct_sum():
    w = ConformalFactor((0.2, 0.3, -0.4, 0.05, 0.11))
    theta = np.linspace(0.0, TWO_PI, 37)
    direct = (
        0.2
        + 0.3 * np.cos(theta)
        - 0.4 * np.sin(theta)
        + 0.05 * np.cos(2 * theta)
        + 0.11 * np.sin(2 * theta)
    )
    assert np.max(np.abs(w.evaluate(theta) - direct)) < 1e-15
    val = w.evaluate(0.7)
    assert isinstance(val, float)
    assert val == pytest.approx(float(w.evaluate(np.array(0.7))), abs=0.0)


# ---------------------------------------------------------------- operator type


def test_operator_validation_rejects():
    good = np.diag([0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        TruncatedOperator(k=0, matrix=good)
    with pytest.raises(DomainError):
        TruncatedOperator(k=2, matrix=good)
    with pytest.raises(DomainError):
        TruncatedOperator(k=1, matrix=np.diag([0.0, 1.0, math.nan]))
    bad = np.diag([0.0, 1.0, 1.0])
    bad[0, 2] = 1e-6
    with pytest.raises(DomainError):
        TruncatedOperator(k=1, matrix=bad)


# ---------------------------------------------------------------- assembly


def test_disc_spectrum_known_circle_values():
    op = build_dn_truncated(DISC, 3)
    assert np.array_equal(op.matrix, np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
    assert np.linalg.eigvalsh(op.matrix) == pytest.approx([0, 1, 1, 2, 2, 3, 3], abs=1e-14)


def test_disc_radius_scales_spectrum():
    op = build_dn_truncated(DiscGeometry(2.0), 2)
    assert np.array_equal(op.matrix, np.diag([0.0, 0.5, 0.5, 1.0, 1.0]))


@pytest.mark.parametrize("k", [0, -2, 1.5])
def test_build_rejects_bad_cutoff(k):
    with pytest.raises(DomainError):
        build_dn_truncated(DISC, k)


def test_build_rejects_unknown_geometry():
    with pytest.raises(DomainError):
        build_dn_truncated("disc", 3)


# ---------------------------------------------------------------- multiplication


def test_multiplication_matrix_matches_quadrature():
    # ORACLE: Gram matrix of omega * phi_j against phi_i by periodic
    # trapezoid quadrature on 4096 nodes (spectrally exact here).
    w = ConformalFactor((0.0, 0.3, -0.2, 0.11, 0.07, -0.05, 0.02, 0.013, -0.008))
    k = 9
    mat = multiplication_matrix(w, k)
    nodes = 4096
    theta = np.arange(nodes) * (TWO_PI / nodes)
    phi = _basis_samples(k, theta)
    oracle = (phi * w.evaluate(theta)) @ phi.T * (TWO_PI / nodes)
    assert np.max(np.abs(mat - oracle)) < 1e-13


def test_multiplication_matrix_exactly_symmetric():
    w = ConformalFactor((0.1, 0.3, -0.2, 0.11, 0.07, -0.05, 0.02))
    mat = multiplication_matrix(w, 7)
    assert np.max(np.abs(mat - mat.T)) == 0.0


def test_zero_mean_trace_is_exactly_zero():
    # The diagonal carries +a_{2n}/2 at c_n and its exact negation at
    # s_n, so the basis-order sum cancels pair by pair: exactly 0.0.
    w = ConformalFactor((0.0, 0.3, -0.2, 0.11, 0.07, -0.05, 0.02, 0.013, -0.008))
    for k in (4, 9, 17):
        diag = np.diag(multiplication_matrix(w, k)).tolist()
        assert sum(diag) == 0.0
        assert math.fsum(diag) == 0.0


def test_constant_factor_multiplication_is_scalar():
    mat = multiplication_matrix(ConformalFactor((0.37,)), 5)
    assert np.array_equal(mat, 0.37 * np.eye(11))


def test_multiplication_matrix_beyond_window_is_zero():
    # cos(5 theta) maps every mode <= 2 outside the K = 2 window.
    mat = multiplication_matrix(ConformalFactor((0.0,) + (0.0, 0.0) * 4 + (1.0, 0.0)), 2)
    assert np.array_equal(mat, np.zeros((5, 5)))


# ---------------------------------------------------------------- family


def _family(w, k, t):
    """N_t of the unit disc at cutoff K, as the derivative identity builds it."""
    return _conjugate(build_dn_truncated(DISC, k), np.linalg.eigh(multiplication_matrix(w, k)), t)


def test_family_at_zero_is_same_operator():
    op = build_dn_truncated(DISC, 6)
    eig = np.linalg.eigh(multiplication_matrix(ConformalFactor((0.0, 0.4, -0.1)), 6))
    assert _conjugate(op, eig, 0.0) is op


def test_family_kernel_aligns_with_factor_exponential():
    # ORACLE: orthonormal-basis coefficients of e^{t omega0 / 2} by
    # quadrature; the family kernel is that vector up to normalization.
    w = ConformalFactor((0.0, 1.0, 0.0))
    t = 0.1
    v = _split_kernel(_family(w, 12, t))[1]
    nodes = 4096
    theta = np.arange(nodes) * (TWO_PI / nodes)
    phi = _basis_samples(12, theta)
    coef = phi @ np.exp(0.5 * t * w.evaluate(theta)) * (TWO_PI / nodes)
    coef /= np.linalg.norm(coef)
    if float(coef @ v) < 0.0:
        v = -v
    assert np.max(np.abs(v - coef)) < 1e-12


def test_family_kernel_eigenvalue_persists():
    w = ConformalFactor((0.0, 1.0, 0.0))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        member = _family(w, 12, t)
        assert float(np.min(np.abs(np.linalg.eigvalsh(member.matrix)))) <= 1e-10


def test_family_rejects_non_finite_t():
    w = ConformalFactor((0.0, 0.1, 0.0))
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError):
            derivative_identity_check(DISC, w, [0.0, 0.5, t], 4)
        with pytest.raises(DomainError):
            boundary_length(DISC, w, t)


def test_constant_factor_det_ratio_invariant_through_zeta():
    # Circle spectrum {n/R, twice} has zeta*(0) = 2 zeta(0) = -1, so
    # det'(mu N) = det'(N)/mu while ell gains mu: det'/ell is fixed.
    seq = EigenSequence(power=1.0, prefactor=1.0, tail_multiplicity=2)
    assert zeta_at_zero(seq) == pytest.approx(-1.0, abs=1e-14)
    base = log_det(seq)
    c, t = 0.7, 0.6
    mu = math.exp(-t * c)
    moved = log_det(scale(seq, mu))
    assert moved.log_value - base.log_value == pytest.approx(-math.log(mu), abs=1e-12)
    w = ConformalFactor((c,))
    ratio_zero = base.log_value - math.log(boundary_length(DISC, w, 0.0))
    ratio_t = moved.log_value - math.log(boundary_length(DISC, w, t))
    assert ratio_t == pytest.approx(ratio_zero, abs=1e-12)


# ---------------------------------------------------------------- kernel helpers


def test_kernel_vector_on_disc_is_constant_direction():
    op = build_dn_truncated(DISC, 5)
    v = _split_kernel(op)[1]
    assert abs(abs(v[0]) - 1.0) < 1e-14
    assert np.max(np.abs(v[1:])) < 1e-14


def test_kernel_vector_requires_unique_small_eigenvalue():
    nearly = np.diag([0.0, 5e-10, 1.0, 2.0, 3.0])
    with pytest.raises(TruncationError):
        _split_kernel(TruncatedOperator(k=2, matrix=nearly))
    none = np.diag([1.0, 1.0, 2.0, 2.0, 3.0])
    with pytest.raises(TruncationError):
        _split_kernel(TruncatedOperator(k=2, matrix=none))


# ---------------------------------------------------------------- boundary length


def test_boundary_length_matches_bessel_series():
    # ORACLE: integral of e^{z cos theta} over the circle is
    # 2 pi I_0(z), the modified Bessel series.
    w = ConformalFactor((0.0, 0.3, 0.0))
    for radius in (1.0, 2.5):
        geom = DiscGeometry(radius)
        for t in (0.0, 0.3, 1.0):
            series = TWO_PI * radius * float(mpmath.besseli(0, 0.3 * t))
            assert boundary_length(geom, w, t) == pytest.approx(series, rel=1e-12)


def test_boundary_length_constant_cases():
    w = ConformalFactor((0.4,))
    assert boundary_length(DISC, w, 0.5) == math.exp(0.2) * DISC.boundary_length


def test_boundary_length_rejections():
    w = ConformalFactor((0.0, 0.3, 0.0))
    with pytest.raises(DomainError):
        boundary_length(AnnulusGeometry(2.0), w, 0.5)
    with pytest.raises(DomainError):
        boundary_length(DISC, w, math.inf)


# ---------------------------------------------------------------- derivative identity


def test_derivative_identity_zero_factor_is_exactly_zero():
    grid = np.linspace(0.0, 1.0, 5)
    assert derivative_identity_check(DISC, ConformalFactor((0.0,)), grid, 8) == 0.0


def test_derivative_identity_small_cosine():
    # Measured residual 5.7e-13 at K = 64; the 1e-6 figure is the
    # acceptance threshold for this configuration.
    w = ConformalFactor((0.0, 0.3, 0.0))
    residual = derivative_identity_check(DISC, w, np.linspace(0.0, 1.0, 11), 64)
    assert residual <= 1e-6
    assert residual <= 1e-8


def test_derivative_identity_k_table_sits_at_noise_floor():
    # the numericdn claim's own table, computed once per process
    rows = claims.k_table()
    assert [k for k, _ in rows] == list(claims.K_LADDER)
    assert all(residual <= 1e-9 for _, residual in rows)


def test_derivative_identity_decomposes_the_factor_once(monkeypatch):
    # one eigh of the multiplication matrix, plus one per grid point
    calls = _count_eigh(monkeypatch)
    grid = np.linspace(0.0, 1.0, 7)
    derivative_identity_check(DISC, ConformalFactor((0.0, 0.3, 0.0)), grid, 16)
    assert len(calls) == grid.size + 1


def test_derivative_identity_two_harmonics():
    w = ConformalFactor((0.0, 0.2, 0.0, 0.0, 0.1))
    residual = derivative_identity_check(DISC, w, np.linspace(0.0, 1.0, 7), 16)
    assert residual <= 1e-9


def test_derivative_identity_random_factors():
    rng = np.random.default_rng(20260818)
    grid = np.linspace(0.0, 1.0, 7)
    for _ in range(5):
        coeffs = rng.uniform(-0.2, 0.2, size=6)
        w = ConformalFactor((0.0, *coeffs))
        assert derivative_identity_check(DISC, w, grid, 16) <= 1e-9


def test_derivative_identity_radius_independent():
    w = ConformalFactor((0.0, 0.3, 0.0))
    residual = derivative_identity_check(DiscGeometry(3.0), w, np.linspace(0.0, 1.0, 11), 16)
    assert residual <= 1e-9


def test_derivative_identity_negative_window():
    w = ConformalFactor((0.0, 0.2, 0.0, 0.0, 0.1))
    residual = derivative_identity_check(DISC, w, np.linspace(-0.5, 0.5, 9), 16)
    assert residual <= 1e-9


def test_derivative_identity_rejections():
    w_mean = ConformalFactor((0.1, 0.3, 0.0))
    with pytest.raises(DomainError):
        derivative_identity_check(DISC, w_mean, np.linspace(0.0, 1.0, 5), 16)
    w_deep = ConformalFactor((0.0,) + (0.1, 0.0) * 4)  # degree 4 needs K >= 16
    with pytest.raises(TruncationError):
        derivative_identity_check(DISC, w_deep, np.linspace(0.0, 1.0, 5), 15)
    w = ConformalFactor((0.0, 0.3, 0.0))
    with pytest.raises(DomainError):
        derivative_identity_check(DISC, w, [0.0, 0.5], 16)
    with pytest.raises(DomainError):
        derivative_identity_check(DISC, w, [0.0, 0.1, 0.3], 16)
    with pytest.raises(DomainError):
        derivative_identity_check(DISC, w, [1.0, 0.5, 0.0], 16)
    with pytest.raises(DomainError):
        derivative_identity_check(AnnulusGeometry(2.0), w, np.linspace(0.0, 1.0, 5), 16)
    with pytest.raises(DomainError):
        derivative_identity_check(DISC, w, np.linspace(0.0, 1.0, 5), 16.0)


def test_k_table_rejects_empty_ladder():
    with pytest.raises(DomainError):
        k_convergence_table(DISC, ConformalFactor((0.0, 0.3, 0.0)), np.linspace(0.0, 1.0, 5), ())


@pytest.mark.parametrize("ladder", [(16.9, 32), (16, 16.9), ("16",), (16, 32.0)])
def test_k_table_refuses_non_integer_cutoffs(ladder):
    # the K rule of derivative_identity_check, applied to every entry
    with pytest.raises(DomainError):
        k_convergence_table(DISC, ConformalFactor((0.0, 0.3, 0.0)), np.linspace(0.0, 1.0, 5), ladder)


def test_k_table_checks_every_cutoff_before_any_work(monkeypatch):
    calls = _count_eigh(monkeypatch)
    w_deep = ConformalFactor((0.0,) + (0.1, 0.0) * 4)  # degree 4 needs K >= 16
    with pytest.raises(TruncationError):
        k_convergence_table(DISC, w_deep, np.linspace(0.0, 1.0, 5), (16, 32, 8))
    assert calls == []


def test_k_table_one_pass(monkeypatch):
    # ell_t once per grid point; per K, one eigh of the factor and one per t
    lengths = []
    length = numeric_dn.boundary_length

    def counting_length(geometry, omega0, t):
        lengths.append(t)
        return length(geometry, omega0, t)

    monkeypatch.setattr(numeric_dn, "boundary_length", counting_length)
    eigh_calls = _count_eigh(monkeypatch)
    w = ConformalFactor((0.0, 0.3, 0.0))
    grid = np.linspace(0.0, 1.0, 3)
    ladder = (16, 32, 64, 128)
    rows = k_convergence_table(DISC, w, grid, ladder)
    assert lengths == list(grid)
    assert len(eigh_calls) == len(ladder) * (1 + grid.size)
    assert rows == tuple((k, derivative_identity_check(DISC, w, grid, k)) for k in ladder)


def test_derivative_identity_deterministic():
    w = ConformalFactor((0.0, 0.2, -0.1, 0.05, 0.0))
    grid = np.linspace(0.0, 1.0, 7)
    first = derivative_identity_check(DISC, w, grid, 16)
    second = derivative_identity_check(DISC, w, grid, 16)
    assert first == second
    a = _family(w, 16, 0.5)
    b = _family(w, 16, 0.5)
    assert np.array_equal(a.matrix, b.matrix)
