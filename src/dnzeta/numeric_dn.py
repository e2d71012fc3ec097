"""Fourier-truncated disc DN operators and the conformal derivative identity.

A conformal change of boundary data transforms the Dirichlet-to-Neumann
map of a surface by symmetric conjugation,

    N_t = e^{-t omega0 / 2} N_0 e^{-t omega0 / 2},

while the boundary length moves as ell_t = integral of e^{t omega0} dl.
Along this family the zeta-regularized quantity log det'(N_t) - log ell_t
is constant in t.  This module realizes the family on (2K+1)-dimensional
Fourier truncations of the disc DN map and checks the derivative form
of that statement: central differences of log pdet(N_t) - log ell_t
over a t-grid, where pdet is the product of the nonzero eigenvalues of
the truncated matrix.

No eigensolver touches N_t.  In the basis below N_0 = diag(0, D') with
D' = diag(1, 1, ..., K, K) / R > 0, and E = e^{-t Omega / 2} is
symmetric positive definite (Omega is omega0's multiplication matrix at
the same K).  So N_t = B^T D' B, where B is E without its first row,
and Sylvester's determinant identity gives

    pdet(N_t) = det D' * det S_t,   S_t = (e^{-t Omega})[1:, 1:].

D' and ell_0 do not depend on t.  The check therefore differentiates
log det S_t - log(ell_t / ell_0): one eigendecomposition of Omega per K
gives every e^{-t Omega}, a Cholesky factor gives each log det S_t, and
the radius enters nowhere.

Only the t-derivative is ever tested.  Truncated determinants differ
from zeta-regularized ones by K-dependent constants, and those constants
cancel in the derivative exactly when omega0 has zero mean (the trace of
the truncated multiplication matrix then vanishes identically, which is
the finite-dimensional shadow of the regularized trace of omega0 being
zero).  Nonzero-mean factors are covered separately by the constant-case
scaling law, which is exact through the spectral zeta function: the
circle family {n/R, multiplicity 2} has zeta*(0) = 2 zeta(0) = -1, so
det'(mu N) = det'(N) / mu while ell scales by mu, leaving det'/ell
fixed without any truncation argument.

Orthonormal boundary basis on a circle of radius R (arc length ds):

    e_0 = 1/sqrt(2 pi R),   c_n = cos(n theta)/sqrt(pi R),
                            s_n = sin(n theta)/sqrt(pi R),

ordered [e_0, c_1, s_1, ..., c_K, s_K].  Multiplication by a real
trigonometric polynomial is assembled from exact product-to-sum rules in
this basis (the same operator is Toeplitz in the complex exponential
basis, with the mean on its diagonal); the radius cancels from every
matrix element, and for a zero-mean factor the diagonal carries the
pair +a_{2n}/2, -a_{2n}/2 at (c_n, s_n).  Each entry of the pair is the
exact float negation of the other, so the diagonal summed in basis
order cancels to exactly 0.0; reductions that reorder the sum (blocked
accumulators) see only their own rounding noise, not a defect of the
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError

_TWO_PI = 2.0 * math.pi
_QUAD_NODES = 2048


@dataclass(frozen=True)
class DiscGeometry:
    """Flat disc |z| < radius; DN spectrum {|n|/radius} on the boundary."""

    radius: float
    boundary_length: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(_TWO_PI * self.radius)):
            raise DomainError(f"disc needs radius > 0 and 2 pi radius finite, got {self.radius}")
        object.__setattr__(self, "boundary_length", _TWO_PI * self.radius)


@dataclass(frozen=True)
class ConformalFactor:
    """Real trigonometric polynomial omega0 on the boundary circle.

    coefficients = (c0, a1, b1, ..., a_m, b_m) encodes

        omega0(theta) = c0 + sum_m a_m cos(m theta) + b_m sin(m theta),

    so the length is odd and the mean is the leading coefficient.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) == 0 or len(coeffs) % 2 == 0:
            raise DomainError(
                f"coefficients must have odd length (c0, a1, b1, ...), got {len(coeffs)}"
            )
        for c in coeffs:
            if not math.isfinite(c):
                raise DomainError(f"coefficients must be finite, got {c}")

    @property
    def mean(self) -> float:
        return self.coefficients[0]

    @property
    def degree(self) -> int:
        return (len(self.coefficients) - 1) // 2

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coefficients[1:])

    def evaluate(self, theta):
        """Pointwise values; accepts a scalar or an ndarray of angles."""
        th = np.asarray(theta, dtype=float)
        out = np.full(th.shape, self.coefficients[0])
        for m in range(1, self.degree + 1):
            out += self.coefficients[2 * m - 1] * np.cos(m * th)
            out += self.coefficients[2 * m] * np.sin(m * th)
        if th.shape == ():
            return float(out)
        return out


def _require_cutoff(k) -> None:
    if not (isinstance(k, int) and k >= 1):
        raise DomainError(f"mode cutoff K must be an integer >= 1, got {k}")


def _require_disc(geometry) -> None:
    if not isinstance(geometry, DiscGeometry):
        raise DomainError(f"geometry must be a DiscGeometry, got {type(geometry).__name__}")


def multiplication_matrix(omega0: ConformalFactor, k: int) -> np.ndarray:
    """Matrix of pointwise multiplication by omega0, modes |n| <= K.

    Assembled from exact product-to-sum identities rather than
    quadrature, so every entry is a sum of half-coefficients: the
    operator is symmetric to the bit, and for zero-mean factors the
    diagonal cancels in adjacent (c_n, s_n) pairs, making the trace
    exactly 0.0 when summed in basis order.
    """
    _require_cutoff(k)
    size = 2 * k + 1
    mat = np.zeros((size, size))
    c0 = omega0.coefficients[0]
    if c0 != 0.0:
        np.fill_diagonal(mat, c0)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for m in range(1, omega0.degree + 1):
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


def _mean_exp(omega0: ConformalFactor, t: float) -> float:
    """Mean of e^{t omega0} over the circle, so ell_t = _mean_exp * ell_0.

    Periodic trapezoid rule on 2048 uniform angles, spectrally accurate
    for trigonometric-polynomial exponents: the quadrature error sits
    far below 1e-12 relative.  A constant factor c gives e^{t c}.
    """
    if omega0.is_constant:
        return math.exp(t * omega0.mean)
    theta = np.arange(_QUAD_NODES) * (_TWO_PI / _QUAD_NODES)
    return float(np.mean(np.exp(t * omega0.evaluate(theta))))


def boundary_length(geometry: DiscGeometry, omega0: ConformalFactor, t: float) -> float:
    """ell_t = integral of e^{t omega0} over the boundary circle (see _mean_exp)."""
    _require_disc(geometry)
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    return _mean_exp(omega0, t) * geometry.boundary_length


def derivative_identity_check(geometry, omega0: ConformalFactor, t_grid, k: int) -> float:
    """Max |d/dt [log pdet(N_t) - log ell_t]| by central differences.

    By the module's identity, log pdet(N_t) - log ell_t equals
    log det S_t - log(ell_t / ell_0) plus a constant, and log det S_t
    comes from a Cholesky factor of S_t = (e^{-t Omega})[1:, 1:].  The
    t-derivative is the quantity that the conformal transformation law
    pins to zero; the residual measures truncation spill plus rounding
    and must shrink (or sit at the noise floor) as K grows.  A grid that
    reaches so far along the family that S_t is no longer numerically
    positive definite raises TruncationError.

    Requires an exactly zero-mean factor (the multiplication-matrix
    trace then vanishes identically), an integer K >= 4 * degree(omega0),
    so the Fourier coefficients of e^{t omega0/2} are resolved well past
    their decay scale, and at least 3 uniformly increasing t values.
    """
    return k_convergence_table(geometry, omega0, t_grid, (k,))[0][1]


def k_convergence_table(geometry, omega0: ConformalFactor, t_grid, k_values) -> tuple[tuple[int, float], ...]:
    """(K, residual of derivative_identity_check) for each K in k_values.

    Every input is checked, under derivative_identity_check's rules,
    before any matrix is built; ell_t is computed once per grid point
    and shared by every K.
    """
    _require_disc(geometry)
    if not isinstance(omega0, ConformalFactor):
        raise DomainError(f"omega0 must be a ConformalFactor, got {type(omega0).__name__}")
    if omega0.mean != 0.0:
        raise DomainError(f"omega0 must have exactly zero mean, got {omega0.mean}")
    ks = tuple(k_values)
    if not ks:
        raise DomainError("k_values must be nonempty")
    for k in ks:
        _require_cutoff(k)
        if k < 4 * omega0.degree:
            raise TruncationError(f"K = {k} is below the required 4 * degree = {4 * omega0.degree}")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise DomainError(f"t_grid needs at least 3 points, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise DomainError("t_grid entries must be finite")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0.0 or np.any(np.abs(steps - h) > 1e-12 * max(1.0, abs(h))):
        raise DomainError("t_grid must be uniformly increasing")

    log_ell = [math.log(_mean_exp(omega0, float(t))) for t in grid]
    rows = []
    for k in ks:
        w, vecs = np.linalg.eigh(multiplication_matrix(omega0, k))
        tail = vecs[1:]
        values = np.empty(grid.size)
        for i, t in enumerate(grid):
            try:
                factor = np.linalg.cholesky((tail * np.exp(-t * w)) @ tail.T)
            except np.linalg.LinAlgError as exc:
                raise TruncationError(f"S_t is not numerically positive definite at t = {t}, K = {k}") from exc
            values[i] = 2.0 * float(np.sum(np.log(np.diagonal(factor)))) - log_ell[i]
        if not np.all(np.isfinite(values)):
            raise TruncationError(f"log det S_t - log(ell_t / ell_0) leaves the float range at K = {k}")
        derivatives = (values[2:] - values[:-2]) / (2.0 * h)
        rows.append((k, float(np.max(np.abs(derivatives)))))
    return tuple(rows)
