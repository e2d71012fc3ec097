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
    boundary_length,
    derivative_identity_check,
    k_convergence_table,
    multiplication_matrix,
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


def _record(monkeypatch, name):
    """List that records the matrix passed to every np.linalg.<name> call."""
    calls = []
    solver = getattr(np.linalg, name)

    def recording(matrix, *args, **kwargs):
        calls.append(np.array(matrix))
        return solver(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return calls


def _family(w, k, t):
    """Reference N_t = E N_0 E of the unit disc, E = e^{-t Omega / 2}, built with numpy alone."""
    vals, vecs = np.linalg.eigh(multiplication_matrix(w, k))
    envelope = (vecs * np.exp(-0.5 * t * vals)) @ vecs.T
    modes = np.repeat(np.arange(k + 1, dtype=float), 2)[1:]
    return envelope @ np.diag(modes) @ envelope


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


# ---------------------------------------------------------------- geometry and cutoff


def test_disc_refuses_overflowing_boundary_length():
    for radius in (1e308, math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            DiscGeometry(radius)
    assert DiscGeometry(1e300).boundary_length == TWO_PI * 1e300


@pytest.mark.parametrize("k", [0, -2, 1.5])
def test_build_rejects_bad_cutoff(k):
    with pytest.raises(DomainError):
        multiplication_matrix(ConformalFactor((0.0, 0.3, 0.0)), k)


def test_build_rejects_unknown_geometry():
    w = ConformalFactor((0.0, 0.3, 0.0))
    with pytest.raises(DomainError):
        k_convergence_table("disc", w, np.linspace(0.0, 1.0, 3), (4,))
    with pytest.raises(DomainError):
        boundary_length("disc", w, 0.5)


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


def test_family_kernel_aligns_with_factor_exponential():
    # ORACLE: orthonormal-basis coefficients of e^{t omega0 / 2} by
    # quadrature.  N_t = E N_0 E kills E^{-1} e_0 = e^{t Omega / 2} e_0,
    # which is that vector up to normalization.
    w = ConformalFactor((0.0, 1.0, 0.0))
    t = 0.1
    vals, vecs = np.linalg.eigh(multiplication_matrix(w, 12))
    v = vecs @ (np.exp(0.5 * t * vals) * vecs[0])
    v /= np.linalg.norm(v)
    assert np.max(np.abs(_family(w, 12, t) @ v)) < 1e-12
    nodes = 4096
    theta = np.arange(nodes) * (TWO_PI / nodes)
    phi = _basis_samples(12, theta)
    coef = phi @ np.exp(0.5 * t * w.evaluate(theta)) * (TWO_PI / nodes)
    coef /= np.linalg.norm(coef)
    assert np.max(np.abs(v - coef)) < 1e-12


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
    # Measured residual 4.7e-14 at K = 64; the 1e-6 figure is the
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
    # one eigh of the multiplication matrix, one cholesky per grid point
    eighs = _record(monkeypatch, "eigh")
    choleskys = _record(monkeypatch, "cholesky")
    grid = np.linspace(0.0, 1.0, 7)
    derivative_identity_check(DISC, ConformalFactor((0.0, 0.3, 0.0)), grid, 16)
    assert [m.shape for m in eighs] == [(33, 33)]
    assert [m.shape for m in choleskys] == [(32, 32)] * grid.size


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
    # pdet(N_t) = det D' det S_t with D' and ell_0 constant in t, so R
    # drops out of the residual entirely.
    w = ConformalFactor((0.0, 0.3, 0.0))
    grid = np.linspace(0.0, 1.0, 11)
    rows = k_convergence_table(DISC, w, grid, (16, 32))
    assert rows[0][1] <= 1e-9
    for radius in (1e-300, 1e-8, 3.0, 1e10, 1e300):
        assert k_convergence_table(DiscGeometry(radius), w, grid, (16, 32)) == rows


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
    calls = _record(monkeypatch, "eigh")
    w_deep = ConformalFactor((0.0,) + (0.1, 0.0) * 4)  # degree 4 needs K >= 16
    with pytest.raises(TruncationError):
        k_convergence_table(DISC, w_deep, np.linspace(0.0, 1.0, 5), (16, 32, 8))
    assert calls == []


def test_k_table_one_pass(monkeypatch):
    # ell_t once per grid point; per K, one eigh of the factor and one cholesky per t
    lengths = []
    mean_exp = numeric_dn._mean_exp

    def counting_mean_exp(omega0, t):
        lengths.append(t)
        return mean_exp(omega0, t)

    monkeypatch.setattr(numeric_dn, "_mean_exp", counting_mean_exp)
    eigh_calls = _record(monkeypatch, "eigh")
    cholesky_calls = _record(monkeypatch, "cholesky")
    w = ConformalFactor((0.0, 0.3, 0.0))
    grid = np.linspace(0.0, 1.0, 3)
    ladder = (16, 32, 64, 128)
    rows = k_convergence_table(DISC, w, grid, ladder)
    assert lengths == list(grid)
    assert [m.shape[0] for m in eigh_calls] == [2 * k + 1 for k in ladder]
    assert [m.shape[0] for m in cholesky_calls] == [2 * k for k in ladder for _ in grid]
    assert rows == tuple((k, derivative_identity_check(DISC, w, grid, k)) for k in ladder)


def test_k_table_long_grid_sits_at_noise_floor():
    rows = k_convergence_table(DISC, ConformalFactor((0.0, 0.6, 0.0)), [0.0, 2.5, 5.0], (16, 64))
    assert all(residual <= 1e-9 for _, residual in rows)


# e^{-40 Omega} spans e^{+-24}, so S_40 is not numerically positive
# definite; at t = 1e5 the exponentials overflow.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("grid", [[0.0, 20.0, 40.0], [0.0, 1e5, 2e5]])
def test_k_table_refuses_a_grid_too_far_along_the_family(grid):
    with pytest.raises(TruncationError):
        k_convergence_table(DISC, ConformalFactor((0.0, 0.6, 0.0)), grid, (16,))


def test_log_det_s_is_the_pseudo_determinant_of_the_family(monkeypatch):
    # ORACLE: N_t built with numpy; pdet drops the smallest-|lambda|
    # eigenvalue of eigvalsh.  log pdet(N_t) - log pdet(N_0) must equal
    # log det S_t of the matrix the table hands to cholesky.
    rng = np.random.default_rng(20261018)
    grid = np.linspace(-1.0, 1.2, 5)
    for k in (4, 8, 16, 32):
        coeffs = [0.0]
        for m in range(1, min(k // 4, 3) + 1):
            coeffs += [float(c) / m for c in rng.uniform(-0.6, 0.6, 2)]
        w = ConformalFactor(coeffs)
        choleskys = _record(monkeypatch, "cholesky")
        k_convergence_table(DISC, w, grid, (k,))
        log_pdet_0 = float(np.sum(np.log(np.repeat(np.arange(1, k + 1, dtype=float), 2))))
        for t, s_t in zip(grid, choleskys):
            eigenvalues = np.linalg.eigvalsh(_family(w, k, t))
            kernel = np.argmin(np.abs(eigenvalues))
            assert abs(eigenvalues[kernel]) <= 1e-10
            log_pdet = float(np.sum(np.log(np.delete(eigenvalues, kernel))))
            log_det_s = 2.0 * float(np.sum(np.log(np.diagonal(np.linalg.cholesky(s_t)))))
            assert log_det_s == pytest.approx(log_pdet - log_pdet_0, abs=1e-12)


def test_derivative_identity_deterministic():
    w = ConformalFactor((0.0, 0.2, -0.1, 0.05, 0.0))
    grid = np.linspace(0.0, 1.0, 7)
    first = derivative_identity_check(DISC, w, grid, 16)
    second = derivative_identity_check(DISC, w, grid, 16)
    assert first == second
