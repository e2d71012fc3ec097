"""Tests for the truncated DN operators and the derivative identity."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from dnzeta import claims, numeric_dn
from dnzeta.dn_explicit import AnnulusGeometry
from dnzeta.errors import DomainError, TruncationError
from dnzeta.numeric_dn import ConformalFactor, DiscGeometry, k_convergence_table
from dnzeta.zeta_reg import EigenSequence, log_det

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


def multiplication_matrix(omega0, k):
    """Dense oracle: multiplication by omega0 in [e_0, c_1, s_1, ..., c_K, s_K].

    With zero-padded coefficients a, b indexed 0..2K and a_0 = 2 c0, one
    product-to-sum index rule fills every block (p, q = 1..K):

        (c_p, c_q) = (a_|p-q| + a_{p+q}) / 2,
        (s_p, s_q) = (a_|p-q| - a_{p+q}) / 2,
        (c_p, s_q) = (s_q, c_p) = (b_{p+q} + sgn(q - p) b_|p-q|) / 2,

    the e_0 row and column carry a_m / sqrt(2), b_m / sqrt(2), and c0
    sits at (0, 0).  The package applies the same operator as a
    convolution in the complex basis and never builds this matrix.
    """
    coeffs = omega0.coefficients
    m = min(omega0._degree, 2 * k)
    a, b = np.zeros((2, 2 * k + 1))
    a[0] = 2.0 * coeffs[0]
    a[1 : m + 1] = coeffs[1 : 2 * m : 2]
    b[1 : m + 1] = coeffs[2 : 2 * m + 1 : 2]
    p = np.arange(1, k + 1)
    diff = np.abs(p[:, None] - p)
    total = p[:, None] + p
    mat = np.empty((2 * k + 1, 2 * k + 1))
    mat[0, 0] = coeffs[0]
    mat[0, 1::2] = mat[1::2, 0] = a[1 : k + 1] * (1.0 / math.sqrt(2.0))
    mat[0, 2::2] = mat[2::2, 0] = b[1 : k + 1] * (1.0 / math.sqrt(2.0))
    mat[1::2, 1::2] = 0.5 * (a[diff] + a[total])
    mat[2::2, 2::2] = 0.5 * (a[diff] - a[total])
    mat[1::2, 2::2] = 0.5 * (b[total] + np.sign(p - p[:, None]) * b[diff])
    mat[2::2, 1::2] = mat[1::2, 2::2].T
    return mat


def _gauss_value(omega0, k, t, t_max, nodes=None):
    """sum_i w_i e^{t theta_i} of the package's Lanczos rule, or of its first `nodes` steps."""
    alphas, betas = numeric_dn._lanczos(omega0, k, t_max)
    j = len(alphas) if nodes is None else nodes
    jacobi = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1) + np.diag(betas[: j - 1], -1)
    theta, vecs = np.linalg.eigh(jacobi)
    return float(np.exp(t * theta) @ vecs[0] ** 2)


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


def test_factor_mean_and_degree():
    w = ConformalFactor((0.25, 0.3, -0.2, 0.0, 0.1))
    assert w._mean == 0.25
    assert w._degree == 2
    assert ConformalFactor((0.7,))._degree == 0
    assert ConformalFactor((0.0, 0.0, 0.0))._degree == 1


@pytest.mark.parametrize(
    "coeffs",
    [(), (0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (math.nan,), (0.0, math.inf, 0.0)],
)
def test_factor_rejects_bad_coefficients(coeffs):
    with pytest.raises(DomainError):
        ConformalFactor(coeffs)


def _direct_sum(omega0, theta):
    """omega0 at the angles theta: c0 + sum_m a_m cos(m theta) + b_m sin(m theta), in ascending m."""
    coeffs = omega0.coefficients
    out = np.full(theta.shape, coeffs[0])
    for m in range(1, omega0._degree + 1):
        out += coeffs[2 * m - 1] * np.cos(m * theta)
        out += coeffs[2 * m] * np.sin(m * theta)
    return out


def test_log_lengths_match_the_direct_sum_to_the_bit():
    # The cached node tables hold the very np.cos(m theta), np.sin(m theta)
    # a direct sum computes, added in the same order, so every ell_t is
    # the direct sum's to the bit, on both sides of t = 0 and for degrees
    # past the number of tables the cache keeps.
    w = ConformalFactor((0.2, 0.3, -0.4, 0.05, 0.11))
    theta = np.linspace(0.0, TWO_PI, 37)
    written_out = 0.2 + 0.3 * np.cos(theta) - 0.4 * np.sin(theta) + 0.05 * np.cos(2 * theta) + 0.11 * np.sin(2 * theta)
    assert np.max(np.abs(_direct_sum(w, theta) - written_out)) < 1e-15
    nodes = np.arange(2048) * (TWO_PI / 2048)
    grid = np.linspace(-1.2, 1.2, 9)
    rng = np.random.default_rng(20261021)
    degrees = [*range(1, 9), numeric_dn._HARMONIC_TABLES + 3]
    for degree in degrees:
        w = ConformalFactor((float(rng.uniform(-0.3, 0.3)), *(rng.uniform(-0.6, 0.6, 2 * degree) / degree)))
        omega = _direct_sum(w, nodes)
        direct = [math.log(np.mean(np.exp(t * omega))) for t in grid]
        assert numeric_dn._log_lengths(w, grid) == direct


def test_node_tables_are_read_only_and_bounded():
    cos_m, sin_m = numeric_dn._node_harmonic(3)
    for table in (cos_m, sin_m):
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert numeric_dn._node_harmonic(3)[0] is cos_m
    assert numeric_dn._node_harmonic.cache_info().maxsize == numeric_dn._HARMONIC_TABLES == 64
    # A degree-100 walk through 64 least-recently-used tables would miss
    # every one on every call; the harmonics past the bound go uncached.
    w = ConformalFactor((0.0,) + (1e-3, 0.0) * 100)
    numeric_dn._log_lengths(w, [0.0, 1.0])
    before = numeric_dn._node_harmonic.cache_info()
    numeric_dn._log_lengths(w, [0.0, 1.0])
    after = numeric_dn._node_harmonic.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses, after.currsize) == (64, 0, 64)


# ---------------------------------------------------------------- geometry and cutoff


def test_disc_refuses_overflowing_boundary_length():
    for radius in (1e308, math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            DiscGeometry(radius)
    assert DiscGeometry(1e300).boundary_length == TWO_PI * 1e300


@pytest.mark.parametrize("k", [0, -2, 1.5])
def test_build_rejects_bad_cutoff(k):
    with pytest.raises(DomainError):
        k_convergence_table(DISC, ConformalFactor((0.0, 0.3, 0.0)), np.linspace(0.0, 1.0, 3), (k,))


def test_build_rejects_unknown_geometry():
    w = ConformalFactor((0.0, 0.3, 0.0))
    with pytest.raises(DomainError):
        k_convergence_table("disc", w, np.linspace(0.0, 1.0, 3), (4,))


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
    oracle = (phi * _direct_sum(w, theta)) @ phi.T * (TWO_PI / nodes)
    assert np.max(np.abs(mat - oracle)) < 1e-13


def _reference_multiplication_matrix(omega0, k):
    """Term-by-term product-to-sum scatter: one pass over the harmonics m."""
    size = 2 * k + 1
    mat = np.zeros((size, size))
    c0 = omega0.coefficients[0]
    if c0 != 0.0:
        np.fill_diagonal(mat, c0)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for m in range(1, omega0._degree + 1):
        a_m = omega0.coefficients[2 * m - 1]
        b_m = omega0.coefficients[2 * m]
        half_a = 0.5 * a_m
        half_b = 0.5 * b_m
        if m <= k:
            mat[0, 2 * m - 1] += a_m * inv_sqrt2
            mat[2 * m - 1, 0] += a_m * inv_sqrt2
            mat[0, 2 * m] += b_m * inv_sqrt2
            mat[2 * m, 0] += b_m * inv_sqrt2
        # sum rule p + q = m: cos cos gains, sin sin loses, cos_p sin_q gains.
        for p in range(max(1, m - k), min(k, m - 1) + 1):
            q = m - p
            mat[2 * p - 1, 2 * q - 1] += half_a
            mat[2 * p, 2 * q] -= half_a
            mat[2 * p - 1, 2 * q] += half_b
            mat[2 * q, 2 * p - 1] += half_b
        # difference rule p - q = m: all gain except sin_p paired with cos_q.
        for d in range(1, k - m + 1):
            p = m + d
            mat[2 * p - 1, 2 * d - 1] += half_a
            mat[2 * d - 1, 2 * p - 1] += half_a
            mat[2 * p, 2 * d] += half_a
            mat[2 * d, 2 * p] += half_a
            mat[2 * p - 1, 2 * d] -= half_b
            mat[2 * d, 2 * p - 1] -= half_b
            mat[2 * d - 1, 2 * p] += half_b
            mat[2 * p, 2 * d - 1] += half_b
    return mat


def test_multiplication_matrix_index_rule_matches_term_by_term_scatter():
    # Both assemblies add the same one or two half-coefficients per
    # entry, so they agree to the bit, in and beyond the K window.
    rng = np.random.default_rng(20261018)
    for trial in range(3000):
        degree = int(rng.integers(0, 12))
        k = int(rng.choice([1, 2, 3, 4, 7, 16, 33]))
        coeffs = rng.normal(size=2 * degree + 1)
        if trial % 2:
            coeffs[0] = 0.0
        w = ConformalFactor(tuple(coeffs))
        assert np.array_equal(multiplication_matrix(w, k), _reference_multiplication_matrix(w, k))


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
    coef = phi @ np.exp(0.5 * t * _direct_sum(w, theta)) * (TWO_PI / nodes)
    coef /= np.linalg.norm(coef)
    assert np.max(np.abs(v - coef)) < 1e-12


def test_family_rejects_non_finite_t():
    w = ConformalFactor((0.0, 0.1, 0.0))
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError):
            k_convergence_table(DISC, w, [0.0, 0.5, t], (4,))


def test_constant_factor_det_ratio_invariant_through_zeta():
    # Circle spectrum {n/R, twice} has zeta*(0) = 2 zeta(0) = -1, so
    # det'(mu N) = det'(N)/mu while ell gains mu: det'/ell is fixed.
    seq = EigenSequence(power=1.0, prefactor=1.0, tail_multiplicity=2)
    assert log_det(seq).zeta_at_zero == pytest.approx(-1.0, abs=1e-14)
    base = log_det(seq)
    c, t = 0.7, 0.6
    mu = math.exp(-t * c)
    moved = log_det(EigenSequence(power=1.0, prefactor=mu, tail_multiplicity=2))
    assert moved.log_value - base.log_value == pytest.approx(-math.log(mu), abs=1e-12)
    log_zero, log_t = numeric_dn._log_lengths(ConformalFactor((c,)), [0.0, t])
    ratio_zero = base.log_value - (log_zero + math.log(DISC.boundary_length))
    ratio_t = moved.log_value - (log_t + math.log(DISC.boundary_length))
    assert ratio_t == pytest.approx(ratio_zero, abs=1e-12)


# ---------------------------------------------------------------- boundary length


def test_boundary_length_matches_bessel_series():
    # ORACLE: integral of e^{z cos theta} over the circle is
    # 2 pi I_0(z), the modified Bessel series.
    w = ConformalFactor((0.0, 0.3, 0.0))
    grid = (0.0, 0.3, 1.0)
    for radius in (1.0, 2.5):
        geom = DiscGeometry(radius)
        for t, log_ratio in zip(grid, numeric_dn._log_lengths(w, grid)):
            series = TWO_PI * radius * float(mpmath.besseli(0, 0.3 * t))
            assert math.exp(log_ratio) * geom.boundary_length == pytest.approx(series, rel=1e-12)


def test_boundary_length_constant_cases():
    # The zero factor is the one constant the table admits: ell_t = ell_0
    # and the one-node Gauss rule both give exactly 1.0 at every t, even
    # on a grid that 0.6 cos theta is refused on.  A nonzero constant is
    # refused; the scaling law above covers it.
    assert k_convergence_table(DISC, ConformalFactor((0.0,)), [0.0, 1e3, 2e3], (4,)) == ((4, 0.0),)
    with pytest.raises(DomainError):
        k_convergence_table(DISC, ConformalFactor((0.4,)), np.linspace(0.0, 1.0, 3), (4,))


# ---------------------------------------------------------------- derivative identity


def test_derivative_identity_zero_factor_is_exactly_zero():
    grid = np.linspace(0.0, 1.0, 5)
    assert k_convergence_table(DISC, ConformalFactor((0.0,)), grid, (8,))[0][1] == 0.0


def test_derivative_identity_small_cosine():
    # Measured residual 2.2e-15 at K = 64; the 1e-6 figure is the
    # acceptance threshold for this configuration.
    w = ConformalFactor((0.0, 0.3, 0.0))
    residual = k_convergence_table(DISC, w, np.linspace(0.0, 1.0, 11), (64,))[0][1]
    assert residual <= 1e-6
    assert residual <= 1e-8


def test_derivative_identity_k_table_sits_at_noise_floor():
    # the numericdn claim's factor on its grid, at K = 16, 32 and 64
    ladder = (16, 32, 64)
    factor = ConformalFactor(claims.CONFORMAL_COEFFICIENTS)
    rows = k_convergence_table(claims.CONFORMAL_DISC, factor, np.linspace(0.0, 1.0, 11), ladder)
    assert [k for k, _ in rows] == list(ladder)
    assert all(residual <= 1e-9 for _, residual in rows)


def _record_lengths(monkeypatch):
    """List of the grids passed to every numeric_dn._log_lengths call."""
    grids = []
    log_lengths = numeric_dn._log_lengths

    def recording(omega0, grid):
        grids.append(list(grid))
        return log_lengths(omega0, grid)

    monkeypatch.setattr(numeric_dn, "_log_lengths", recording)
    return grids


def test_derivative_identity_decomposes_the_factor_once(monkeypatch):
    # ell_t once per grid point, and one eigh of the j x j Jacobi matrix
    # gives every grid point: no eigh argument exceeds the node count.
    w = ConformalFactor((0.0, 0.3, 0.0))
    nodes = len(numeric_dn._lanczos(w, 16, 1.0)[0])
    grids = _record_lengths(monkeypatch)
    eighs = _record(monkeypatch, "eigh")
    choleskys = _record(monkeypatch, "cholesky")
    grid = np.linspace(0.0, 1.0, 7)
    k_convergence_table(DISC, w, grid, (16,))
    assert grids == [list(grid)]
    assert nodes <= 12
    assert [m.shape for m in eighs] == [(nodes, nodes)]
    assert np.array_equal(eighs[0], np.triu(np.tril(eighs[0], 1), -1))
    assert choleskys == []


def test_derivative_identity_two_harmonics():
    w = ConformalFactor((0.0, 0.2, 0.0, 0.0, 0.1))
    residual = k_convergence_table(DISC, w, np.linspace(0.0, 1.0, 7), (16,))[0][1]
    assert residual <= 1e-9


def test_derivative_identity_random_factors():
    rng = np.random.default_rng(20260818)
    grid = np.linspace(0.0, 1.0, 7)
    for _ in range(5):
        coeffs = rng.uniform(-0.2, 0.2, size=6)
        w = ConformalFactor((0.0, *coeffs))
        assert k_convergence_table(DISC, w, grid, (16,))[0][1] <= 1e-9


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
    residual = k_convergence_table(DISC, w, np.linspace(-0.5, 0.5, 9), (16,))[0][1]
    assert residual <= 1e-9


def test_derivative_identity_rejections():
    w_mean = ConformalFactor((0.1, 0.3, 0.0))
    with pytest.raises(DomainError):
        k_convergence_table(DISC, w_mean, np.linspace(0.0, 1.0, 5), (16,))
    w_deep = ConformalFactor((0.0,) + (0.1, 0.0) * 4)  # degree 4 needs K >= 16
    with pytest.raises(TruncationError):
        k_convergence_table(DISC, w_deep, np.linspace(0.0, 1.0, 5), (15,))
    w = ConformalFactor((0.0, 0.3, 0.0))
    with pytest.raises(DomainError):
        k_convergence_table(DISC, w, [0.0, 0.5], (16,))
    with pytest.raises(DomainError):
        k_convergence_table(DISC, w, [0.0, 0.1, 0.3], (16,))
    with pytest.raises(DomainError):
        k_convergence_table(DISC, w, [1.0, 0.5, 0.0], (16,))
    with pytest.raises(DomainError):
        k_convergence_table(AnnulusGeometry(2.0), w, np.linspace(0.0, 1.0, 5), (16,))
    with pytest.raises(DomainError):
        k_convergence_table(DISC, w, np.linspace(0.0, 1.0, 5), (16.0,))


def test_k_table_rejects_empty_ladder():
    with pytest.raises(DomainError):
        k_convergence_table(DISC, ConformalFactor((0.0, 0.3, 0.0)), np.linspace(0.0, 1.0, 5), ())


@pytest.mark.parametrize("ladder", [(16.9, 32), (16, 16.9), ("16",), (16, 32.0)])
def test_k_table_refuses_non_integer_cutoffs(ladder):
    # the K rule applies to every entry of the ladder
    with pytest.raises(DomainError):
        k_convergence_table(DISC, ConformalFactor((0.0, 0.3, 0.0)), np.linspace(0.0, 1.0, 5), ladder)


def test_k_table_checks_every_cutoff_before_any_work(monkeypatch):
    calls = _record(monkeypatch, "eigh")
    w_deep = ConformalFactor((0.0,) + (0.1, 0.0) * 4)  # degree 4 needs K >= 16
    with pytest.raises(TruncationError):
        k_convergence_table(DISC, w_deep, np.linspace(0.0, 1.0, 5), (16, 32, 8))
    assert calls == []


def _record_lanczos(monkeypatch):
    """List of the K passed to every numeric_dn._lanczos call."""
    cutoffs = []
    lanczos = numeric_dn._lanczos

    def recording(omega0, k, t_max):
        cutoffs.append(k)
        return lanczos(omega0, k, t_max)

    monkeypatch.setattr(numeric_dn, "_lanczos", recording)
    return cutoffs


def test_k_table_one_pass(monkeypatch):
    # ell_t once per grid point for the whole ladder; the K = 16 rule of
    # 0.3 cos theta is already untruncated (j <= 12 <= 16), so one eigh of
    # its Jacobi matrix serves every rung, and nothing runs per t
    w = ConformalFactor((0.0, 0.3, 0.0))
    grid = np.linspace(0.0, 1.0, 3)
    ladder = (16, 32, 64, 128)
    nodes = len(numeric_dn._lanczos(w, 16, 1.0)[0])
    grids = _record_lengths(monkeypatch)
    eigh_calls = _record(monkeypatch, "eigh")
    cholesky_calls = _record(monkeypatch, "cholesky")
    rows = k_convergence_table(DISC, w, grid, ladder)
    assert grids == [list(grid)]
    assert [m.shape[0] for m in eigh_calls] == [nodes]
    assert nodes <= 12
    assert cholesky_calls == []
    assert rows == tuple((k, rows[0][1]) for k in ladder)
    assert rows[0] == k_convergence_table(DISC, w, grid, (16,))[0]


def test_k_table_node_count_is_independent_of_k(monkeypatch):
    # Lanczos from e_0 never reaches a mode past j m, so the rule for
    # 0.3 cos theta has as many nodes at K = 4096 as at K = 64, and a
    # ladder up to 4096 pays for its first rung only.
    w = ConformalFactor((0.0, 0.3, 0.0))
    assert len(numeric_dn._lanczos(w, 4096, 1.0)[0]) == len(numeric_dn._lanczos(w, 64, 1.0)[0]) <= 12
    eigh_calls = _record(monkeypatch, "eigh")
    rows = k_convergence_table(DISC, w, np.linspace(0.0, 1.0, 5), (64, 4096))
    assert [k for k, _ in rows] == [64, 4096]
    assert all(residual <= 1e-14 for _, residual in rows)
    assert len(eigh_calls) == 1
    assert eigh_calls[0].shape[0] <= 12
    ladder = (16, 256, 4096)
    rows = k_convergence_table(DISC, ConformalFactor((0.0, 0.3, -0.2, 0.15, 0.05)), [0.0, 0.5, 1.0], ladder)
    assert [k for k, _ in rows] == list(ladder)
    assert all(residual <= 1e-14 for _, residual in rows)
    assert rows[1][1] == rows[2][1]


def test_k_table_runs_lanczos_until_the_rule_is_untruncated(monkeypatch):
    # A degree-3 factor at t_max 1.2 stops after j = 7 steps: K = 16 < 21
    # truncates its rule, K = 32 does not, and 64 and 128 take the K = 32
    # row.  A reused row is that rung's row exactly; a lone call at its
    # own K can differ from it in the last bits, as sums over longer
    # vectors round in another order.
    w = ConformalFactor((0.0, 0.3, -0.2, 0.15, 0.05, -0.1, 0.08))
    grid = np.linspace(0.0, 1.2, 3)
    assert len(numeric_dn._lanczos(w, 32, 1.2)[0]) == 7
    cutoffs = _record_lanczos(monkeypatch)
    rows = k_convergence_table(DISC, w, grid, (16, 32, 64, 128))
    assert cutoffs == [16, 32]
    assert rows[:2] == k_convergence_table(DISC, w, grid, (16,)) + k_convergence_table(DISC, w, grid, (32,))
    assert rows[2:] == ((64, rows[1][1]), (128, rows[1][1]))
    cutoffs.clear()
    k_convergence_table(DISC, ConformalFactor((0.0, 0.3, 0.0)), grid, (16, 32, 64, 128))
    assert cutoffs == [16]


def test_k_table_keeps_the_callers_order(monkeypatch):
    # an unsorted ladder with a duplicate: rungs run in ascending K, once
    # each, and the rows come back as asked
    w = ConformalFactor((0.0, 0.3, -0.2, 0.15, 0.05, -0.1, 0.08))
    grid = np.linspace(0.0, 1.2, 3)
    cutoffs = _record_lanczos(monkeypatch)
    rows = k_convergence_table(DISC, w, grid, (64, 16, 64))
    assert cutoffs == [16, 64]
    (_, low), (_, high) = k_convergence_table(DISC, w, grid, (16, 64))
    assert rows == ((64, high), (16, low), (64, high))


@pytest.mark.parametrize("k", [16, 64, 1024])
def test_gauss_value_matches_bessel_series(k):
    # ORACLE: e_0^T e^{t Omega} e_0 for a cos theta is the mean of
    # e^{a t cos theta}, the modified Bessel function I_0(a t), up to a
    # truncation term of order (a t / 2)^{2K+2} / (2K+2)!, far below
    # rounding here.
    for a, grid in ((0.3, (0.0, 1.0, 2.0)), (0.6, (-2.0, 0.5, 3.0)), (1.0, (-4.0, 0.0, 4.0))):
        w = ConformalFactor((0.0, a, 0.0))
        t_max = max(abs(t) for t in grid)
        for t in grid:
            exact = float(mpmath.besseli(0, a * t))
            assert _gauss_value(w, k, t, t_max) == pytest.approx(exact, rel=1e-14, abs=0.0)


def _log_stop_bound(omega0, t_max, betas):
    """log of |t|^2j e^{|t| r} beta_1^2 ... beta_j^2 / (2j)!, j = len(betas), r = sum |c_hat|."""
    coeffs = omega0.coefficients
    radius = sum(math.hypot(a, b) for a, b in zip(coeffs[1::2], coeffs[2::2]))
    j = len(betas)
    return t_max * radius + math.fsum(2.0 * math.log(t_max * b) for b in betas) - math.lgamma(2 * j + 1)


def test_lanczos_stops_at_the_first_node_count_inside_the_bound():
    # The rule has j nodes for the first j whose a-priori bound is below
    # 2^-60, unless the Krylov space ends first (j = 2K + 1 or beta_j = 0).
    w = ConformalFactor((0.0, 0.3, -0.2, 0.11, 0.07, -0.05, 0.02))
    log_stop = -60.0 * math.log(2.0)
    for k in (12, 64):
        for t_max in (0.05, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0):
            alphas, betas = numeric_dn._lanczos(w, k, t_max)
            j = len(alphas)
            assert len(betas) == j
            assert all(_log_stop_bound(w, t_max, betas[:i]) >= log_stop for i in range(1, j))
            assert _log_stop_bound(w, t_max, betas) < log_stop or j == 2 * k + 1 or betas[-1] == 0.0


def _reference_lanczos(omega0, k, t_max):
    """Copy-per-step loop: the basis is a list, stacked and conjugated at every step."""
    c = np.array(omega0.coefficients)
    half = 0.5 * (c[1::2] - 1j * c[2::2])
    c_hat = np.concatenate((half[::-1].conj(), c[:1], half))
    log_t = math.log(t_max)
    log_bound = t_max * float(np.sum(np.abs(c_hat)))
    basis = [np.zeros(2 * k + 1, complex)]
    basis[0][k] = 1.0
    alphas, betas = [], []
    while True:
        w = np.convolve(basis[-1], c_hat, mode="same")
        alphas.append(np.vdot(basis[-1], w).real)
        q = np.array(basis)
        for _ in range(2):
            w -= (q.conj() @ w) @ q
        betas.append(float(np.linalg.norm(w)))
        j = len(alphas)
        if j == 2 * k + 1 or betas[-1] == 0.0:
            break
        log_bound += 2.0 * (log_t + math.log(betas[-1])) - math.log(2 * j * (2 * j - 1))
        if log_bound < -60.0 * math.log(2.0):
            break
        basis.append(w / betas[-1])
    return np.array(alphas), np.array(betas)


def test_lanczos_in_place_basis_matches_copy_per_step_loop():
    # conj(q @ conj(w)) is conj(q) @ w entry by entry, so filling one
    # array in place changes no bit of the recurrence
    rng = np.random.default_rng(20261019)
    for _ in range(400):
        degree = int(rng.integers(0, 6))
        k = max(4 * degree, int(rng.choice([1, 2, 3, 5, 8, 16, 17, 33, 64, 100])))
        t_max = float(rng.choice([0.05, 0.5, 1.0, 3.0, 10.0, 40.0]))
        w = ConformalFactor(tuple(rng.normal(size=2 * degree + 1) * rng.uniform(0.05, 1.0)))
        for got, want in zip(numeric_dn._lanczos(w, k, t_max), _reference_lanczos(w, k, t_max)):
            assert np.array_equal(got, want)


def test_lanczos_basis_grows_up_to_the_budget(monkeypatch):
    # the doubling array stops at the budget: 7 steps fit a budget of
    # exactly 7 rows, grown 1, 2, 4, 7, and a budget of 6 refuses step 7
    w = ConformalFactor((0.0, 0.3, -0.2, 0.15, 0.05, -0.1, 0.08))
    k = 64
    want = _reference_lanczos(w, k, 1.2)
    assert len(want[0]) == 7
    monkeypatch.setattr(numeric_dn, "_MAX_BASIS_ENTRIES", 7 * (2 * k + 1))
    for got, expected in zip(numeric_dn._lanczos(w, k, 1.2), want):
        assert np.array_equal(got, expected)
    monkeypatch.setattr(numeric_dn, "_MAX_BASIS_ENTRIES", 6 * (2 * k + 1))
    with pytest.raises(DomainError, match="Lanczos step 7"):
        numeric_dn._lanczos(w, k, 1.2)


def test_lanczos_peak_memory_at_a_large_cutoff():
    # K = 200 000 takes 6 steps, a 36.6 MiB basis; the doubling array and
    # its predecessor peak at about 85 MiB
    tracemalloc.start()
    try:
        alphas, _ = numeric_dn._lanczos(ConformalFactor((0.0, 0.3, 0.0)), 200_000, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(alphas) == 6
    assert peak < 90 * 2**20


def test_gauss_value_matches_dense_expm_inside_the_stop_bound():
    # ORACLE: mpmath.expm of the dense product-to-sum matrix at 40 digits.
    # Every prefix of the Lanczos rule errs by at most its a-priori Gauss
    # bound |t|^2j e^{|t| r} beta_1^2 ... beta_j^2 / (2j)! plus rounding,
    # and the rule the package stops at is exact to rounding, at t = 40 too.
    w = ConformalFactor((0.0, 0.3, -0.2, 0.11, 0.07, -0.05, 0.02))
    k = 8
    with mpmath.workdps(40):
        dense = mpmath.matrix(multiplication_matrix(w, k).tolist())
        for t_max, ts in ((0.5, (0.5,)), (3.0, (-3.0, 3.0)), (40.0, (40.0,))):
            alphas, betas = numeric_dn._lanczos(w, k, t_max)
            for t in ts:
                exact = float(mpmath.expm(dense * t)[0, 0])
                assert exact >= 1.0
                assert _gauss_value(w, k, t, t_max) == pytest.approx(exact, rel=1e-14, abs=0.0)
                for j in range(1, len(alphas) + 1):
                    bound = math.exp(min(_log_stop_bound(w, t_max, betas[:j]), 700.0))
                    error = abs(_gauss_value(w, k, t, t_max, nodes=j) - exact)
                    assert error <= (bound + 1e-14) * exact


def test_k_table_long_grid_sits_at_noise_floor():
    rows = k_convergence_table(DISC, ConformalFactor((0.0, 0.6, 0.0)), [0.0, 2.5, 5.0], (16, 64))
    assert all(residual <= 1e-9 for _, residual in rows)


def test_k_table_far_along_the_family_sits_at_noise_floor():
    # e^{t Omega} spans e^{+-24} at t = 40; the one matrix entry
    # (e^{t Omega})_00 still carries the residual to rounding level.
    w = ConformalFactor((0.0, 0.6, 0.0))
    for _, residual in k_convergence_table(DISC, w, [0.0, 10.0, 20.0], (16, 32, 64)):
        assert residual <= 1e-12
    for _, residual in k_convergence_table(DISC, w, [0.0, 20.0, 40.0], (32, 64)):
        assert residual <= 1e-12


# At |t| = 2e3 and beyond the exponentials overflow, and the refusal
# must come without an overflow RuntimeWarning ahead of it.
@pytest.mark.parametrize("grid", [[0.0, 1e3, 2e3], [0.0, 1e5, 2e5], [-2e5, -1e5, 0.0]])
def test_k_table_refuses_a_grid_too_far_along_the_family(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TruncationError):
            k_convergence_table(DISC, ConformalFactor((0.0, 0.6, 0.0)), grid, (16,))


def test_k_table_refuses_a_factor_the_node_rule_aliases(monkeypatch):
    # 2048 nodes put cos(1024 theta) at +-1, so the rule reads ell_t / ell_0
    # as cosh(0.3 t) where it is I_0(0.3 t): 0.022 off in the log at t = 1,
    # which the residual would report as truncation.  The refusal names
    # the degree and comes before any work.
    lengths = _record_lengths(monkeypatch)
    eighs = _record(monkeypatch, "eigh")
    for degree in (1024, 2048):
        w = ConformalFactor((0.0,) + (0.0, 0.0) * (degree - 1) + (0.3, 0.0))
        with pytest.raises(TruncationError, match=f"degree {degree} "):
            k_convergence_table(DISC, w, [0.0, 0.5, 1.0], (4 * degree,))
    assert lengths == [] and eighs == []


def test_aliasing_check_accepts_the_claim_ci_and_workload_factors():
    numeric_dn._check_aliasing(ConformalFactor(claims.CONFORMAL_COEFFICIENTS), 1.0)
    numeric_dn._check_aliasing(ConformalFactor((0.0, 0.3, -0.2, 0.15, 0.05)), 1.0)
    # the benchmark's largest factors: degree 1 to 3, |a_m|, |b_m| up to 0.6 / m, t up to 1.2
    for degree in (1, 2, 3):
        coeffs = [0.0]
        for m in range(1, degree + 1):
            coeffs += [0.6 / m, -0.6 / m]
        numeric_dn._check_aliasing(ConformalFactor(tuple(coeffs)), 1.2)


def test_log_det_s_is_the_pseudo_determinant_of_the_family():
    # ORACLE: N_t built with numpy; pdet drops the smallest-|lambda|
    # eigenvalue of eigvalsh, and ell_t / ell_0 = I_0(amplitude t) is the
    # modified Bessel series.  At K = 4 the central-difference residual
    # of log pdet(N_t) - log ell_t sits far above rounding, so the table
    # must reproduce it, not merely be small.
    k = 4
    for amplitude, grid in ((0.6, [0.0, 1.5, 3.0]), (1.0, [0.0, 1.0, 2.0])):
        w = ConformalFactor((0.0, amplitude, 0.0))
        values = []
        for t in grid:
            eigenvalues = np.linalg.eigvalsh(_family(w, k, t))
            kernel = np.argmin(np.abs(eigenvalues))
            assert abs(eigenvalues[kernel]) <= 1e-10
            log_pdet = float(np.sum(np.log(np.delete(eigenvalues, kernel))))
            values.append(log_pdet - float(mpmath.log(mpmath.besseli(0, amplitude * t))))
        oracle = abs(values[2] - values[0]) / (grid[2] - grid[0])
        assert oracle >= 1e-8
        assert k_convergence_table(DISC, w, grid, (k,))[0][1] == pytest.approx(oracle, rel=1e-6)


def test_derivative_identity_deterministic():
    w = ConformalFactor((0.0, 0.2, -0.1, 0.05, 0.0))
    grid = np.linspace(0.0, 1.0, 7)
    first = k_convergence_table(DISC, w, grid, (16,))[0][1]
    second = k_convergence_table(DISC, w, grid, (16,))[0][1]
    assert first == second
