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
D' = diag(1, 1, ..., K, K) / R, and E = e^{-t Omega / 2} (Omega is
omega0's multiplication matrix at the same K).  So N_t = B^T D' B with
B = E without its first row, pdet(N_t) = det D' * det S_t with
S_t = (e^{-t Omega})[1:, 1:], and as tr Omega = 0, Jacobi's
complementary-minor identity reads det S_t off one matrix entry:

    det S_t = (e^{t Omega})_00 = sum_j V_0j^2 e^{t w_j},   Omega = V diag(w) V^T.

One eigendecomposition of Omega per K gives every grid point.  D', the
radius R and ell_0 are constant in t and drop out, so the check compares
the Galerkin value e_0^T e^{t Omega} e_0 with the quadrature mean of
e^{t omega0}, which is ell_t / ell_0.  It measures how well the
truncation resolves e^{t omega0}; it does not test the DN spectrum,
which needs a weighted-Steklov det'.  The disc type is dn_explicit's
DiscGeometry: its radius is validated there and drops out here.

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
matrix element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dn_explicit import DiscGeometry
from .errors import DomainError, TruncationError

_TWO_PI = 2.0 * math.pi
_QUAD_NODES = 2048


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


def multiplication_matrix(omega0: ConformalFactor, k: int) -> np.ndarray:
    """Matrix of pointwise multiplication by omega0, modes |n| <= K.

    With zero-padded coefficients a, b indexed 0..2K and a_0 = 2 c0, one
    product-to-sum index rule fills every block (p, q = 1..K):

        (c_p, c_q) = (a_|p-q| + a_{p+q}) / 2,
        (s_p, s_q) = (a_|p-q| - a_{p+q}) / 2,
        (c_p, s_q) = (s_q, c_p) = (b_{p+q} + sgn(q - p) b_|p-q|) / 2,

    the e_0 row and column carry a_m / sqrt(2), b_m / sqrt(2), and c0
    sits at (0, 0).  Each entry is a sum of at most two half-coefficients,
    so the matrix is symmetric to the bit, and for a zero-mean factor the
    diagonal pair +-a_{2n}/2 at (c_n, s_n) cancels exactly: the trace
    summed in basis order is 0.0.
    """
    _require_cutoff(k)
    coeffs = omega0.coefficients
    m = min(omega0.degree, 2 * k)
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


def k_convergence_table(geometry, omega0: ConformalFactor, t_grid, k_values) -> tuple[tuple[int, float], ...]:
    """(K, max |d/dt [log pdet(N_t) - log ell_t]|) for each K in k_values.

    The derivative, which the conformal transformation law pins to zero,
    is taken by central differences of log (e^{t Omega})_00 -
    log(ell_t / ell_0) (the module's identity).  The residual measures
    truncation spill plus rounding and must shrink (or sit at the noise
    floor) as K grows.  Requires an exactly zero-mean factor (the
    multiplication-matrix trace then vanishes identically), integers
    K >= 4 * degree(omega0), so the Fourier coefficients of
    e^{t omega0/2} are resolved past their decay scale, and at least 3
    uniformly increasing t values; all are checked before any matrix is
    built.  A grid so far along the family that e^{t Omega} leaves the
    float range raises TruncationError.  ell_t is computed once per grid
    point for every K.
    """
    if not isinstance(geometry, DiscGeometry):
        raise DomainError(f"geometry must be a DiscGeometry, got {type(geometry).__name__}")
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

    # Overflow far along the family is refused by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_ell = [math.log(_mean_exp(omega0, float(t))) for t in grid]
        rows = []
        for k in ks:
            w, vecs = np.linalg.eigh(multiplication_matrix(omega0, k))
            values = np.log(np.exp(np.outer(grid, w)) @ vecs[0] ** 2) - log_ell
            if not np.all(np.isfinite(values)):
                raise TruncationError(f"log det S_t - log(ell_t / ell_0) leaves the float range at K = {k}")
            derivatives = (values[2:] - values[:-2]) / (2.0 * h)
            rows.append((k, float(np.max(np.abs(derivatives)))))
    return tuple(rows)
