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

No matrix of size 2K+1 is built.  In the basis e^{i n theta}, |n| <= K,
N_0 = diag(|n|) / R and E = e^{-t Omega / 2}, where Omega = Omega_K is
multiplication by omega0 truncated to the window.  So pdet(N_t) =
det D' * det S_t with D' = N_0 without its zero mode and
S_t = (e^{-t Omega}) off the n = 0 row and column, and as tr Omega = 0,
Jacobi's complementary-minor identity reads det S_t off one entry:

    det S_t = (e^{t Omega})_00 = e_0^T e^{t Omega} e_0.

D', the radius R and ell_0 are constant in t and drop out, so the check
compares that Galerkin value with the quadrature mean of e^{t omega0},
which is ell_t / ell_0.  It measures how well the truncation resolves
e^{t omega0}; it does not test the DN spectrum, which needs a
weighted-Steklov det'.  The disc type is dn_explicit's DiscGeometry: its
radius is validated there and drops out here.

The entry is a Gauss quadrature (Golub and Welsch, Math. Comp. 23, 1969;
Golub and Meurant, Matrices, Moments and Quadrature, 2010).  Omega
applies to a vector as the banded convolution with the 2m + 1 complex
Fourier coefficients c_hat of omega0 (degree m), and Lanczos from e_0
gives a j x j Jacobi matrix whose eigenvalues theta_i and squared first
eigenvector components w_i make e_0^T e^{t Omega} e_0 = sum_i w_i
e^{t theta_i}.  The error of that rule is at most
|t|^2j e^{|t| r} beta_1^2 ... beta_j^2 / (2j)!, with r = sum |c_hat| >=
||Omega|| and t the grid's largest |t|; the mean is zero, so the entry
is >= 1 (Jensen) and the bound is relative.  Lanczos stops when it
drops below 2^-60, so per K the cost is O(j K m + j^3), not O(K^3).

The first j Lanczos steps never reach a mode past j m, so once
K >= j m the rule is that of the untruncated operator.  A ladder is
walked in ascending K, and every K past the first rung whose rule is
untruncated takes that rung's row without a Lanczos run of its own: a
ladder of large K shows the check's floor, not truncation converging,
and pays for that floor once.

Only the t-derivative is ever tested.  Truncated determinants differ
from zeta-regularized ones by K-dependent constants, and those constants
cancel in the derivative exactly when omega0 has zero mean (the trace of
the truncated multiplication operator then vanishes identically, which
is the finite-dimensional shadow of the regularized trace of omega0
being zero).  Nonzero-mean factors are covered separately by the
constant-case scaling law, which is exact through the spectral zeta
function: the circle family {n/R, multiplicity 2} has zeta*(0) =
2 zeta(0) = -1, so det'(mu N) = det'(N) / mu while ell scales by mu,
leaving det'/ell fixed without any truncation argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dn_explicit import DiscGeometry
from .errors import DomainError, TruncationError, _count, _finite_real

_TWO_PI = 2.0 * math.pi
_QUAD_NODES = 2048
_LOG_STOP = -60.0 * math.log(2.0)
# Most Lanczos basis entries one run may hold, steps x (2K + 1): 64 MiB of
# complex doubles.  The basis is one array that doubles when full, so a
# run's peak memory, that array and its predecessor while it grows, is at
# most three times its basis (85 MiB for a 37 MiB basis at K = 200 000).
_MAX_BASIS_ENTRIES = 2**22


@dataclass(frozen=True)
class ConformalFactor:
    """Real trigonometric polynomial omega0 on the boundary circle.

    coefficients = (c0, a1, b1, ..., a_m, b_m) encodes

        omega0(theta) = c0 + sum_m a_m cos(m theta) + b_m sin(m theta),

    so the length is odd and the mean is the leading coefficient.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_finite_real(c, "coefficient") for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) == 0 or len(coeffs) % 2 == 0:
            raise DomainError(
                f"coefficients must have odd length (c0, a1, b1, ...), got {len(coeffs)}"
            )

    @property
    def mean(self) -> float:
        return self.coefficients[0]

    @property
    def degree(self) -> int:
        return (len(self.coefficients) - 1) // 2

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


def _log_lengths(omega0: ConformalFactor, grid: np.ndarray) -> list[float]:
    """log(ell_t / ell_0) at each t, from one evaluation of omega0 on the quadrature nodes.

    Periodic trapezoid rule on 2048 uniform angles, spectrally accurate
    for trigonometric-polynomial exponents: the quadrature error sits
    far below 1e-12 relative.
    """
    omega = omega0.evaluate(np.arange(_QUAD_NODES) * (_TWO_PI / _QUAD_NODES))
    return [math.log(np.mean(np.exp(t * omega))) for t in grid]


def _check_basis(k: int, steps: int) -> None:
    """Refuse a Lanczos basis of `steps` vectors of 2K + 1 entries past the budget."""
    if steps * (2 * k + 1) > _MAX_BASIS_ENTRIES:
        raise DomainError(
            f"Lanczos step {steps} at K = {k} would hold {steps * (2 * k + 1)} basis entries, "
            f"more than the {_MAX_BASIS_ENTRIES} allowed; refused"
        )


def _lanczos(omega0: ConformalFactor, k: int, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Lanczos recurrence (alphas, betas) of Omega_K from e_0; betas[-1] is the residual norm.

    Omega_K applies as the banded convolution with c_hat, the basis rows
    are written in place into one array that doubles when full, full
    reorthogonalization (twice) keeps them orthonormal, and the
    recurrence stops at the first j where the Gauss error bound
    |t|^2j e^{|t| r} beta_1^2 ... beta_j^2 / (2j)! drops below 2^-60, at
    j = 2K + 1, or at beta_j = 0.  The bound is summed in logs, so no
    grid, however far along the family, overflows it.  A basis vector that
    would take the basis past _MAX_BASIS_ENTRIES is refused with
    DomainError before it is allocated.
    """
    c = np.array(omega0.coefficients)
    half = 0.5 * (c[1::2] - 1j * c[2::2])
    c_hat = np.concatenate((half[::-1].conj(), c[:1], half))
    log_t = math.log(t_max)
    log_bound = t_max * float(np.sum(np.abs(c_hat)))
    _check_basis(k, 1)
    basis = np.zeros((1, 2 * k + 1), complex)
    basis[0, k] = 1.0
    alphas, betas = [], []
    while True:
        q = basis[: len(alphas) + 1]
        w = np.convolve(q[-1], c_hat, mode="same")
        alphas.append(np.vdot(q[-1], w).real)
        for _ in range(2):
            w -= (q @ w.conj()).conj() @ q
        betas.append(float(np.linalg.norm(w)))
        j = len(alphas)
        if j == 2 * k + 1 or betas[-1] == 0.0:
            break
        log_bound += 2.0 * (log_t + math.log(betas[-1])) - math.log(2 * j * (2 * j - 1))
        if log_bound < _LOG_STOP:
            break
        _check_basis(k, j + 1)
        if j == len(basis):
            grown = np.empty((min(2 * j, _MAX_BASIS_ENTRIES // (2 * k + 1)), 2 * k + 1), complex)
            grown[:j] = basis
            basis = grown
        basis[j] = w / betas[-1]
    return np.array(alphas), np.array(betas)


def k_convergence_table(geometry, omega0: ConformalFactor, t_grid, k_values) -> tuple[tuple[int, float], ...]:
    """(K, max |d/dt [log pdet(N_t) - log ell_t]|) for each K in k_values.

    The derivative, which the conformal transformation law pins to zero,
    is taken by central differences of log (e^{t Omega})_00 -
    log(ell_t / ell_0) (the module's identity).  The residual measures
    truncation spill plus rounding and must shrink (or sit at the noise
    floor) as K grows, until K >= j m, from where every rung has the
    same rule (module docstring).  Requires an exactly zero-mean
    factor (the trace of Omega then vanishes identically), integers
    K >= 4 * degree(omega0), so the Fourier coefficients of
    e^{t omega0/2} are resolved past their decay scale, and at least 3
    uniformly increasing t values; all are checked before any work.  A
    grid so far along the family that e^{t Omega} leaves the float range
    raises TruncationError.  ell_t is computed once per grid point for
    the whole ladder.  The distinct K are taken in ascending order, each
    costing one Lanczos run and one j x j eigh, until a run stops after j
    steps at K >= j m; every larger K takes that rung's row, to the bit,
    and builds no basis.  Rows come back in the caller's order, duplicates
    included.  A run whose basis would pass 2^22 entries is refused with
    DomainError.
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
        if _count(k, "mode cutoff K", 1) < 4 * omega0.degree:
            raise TruncationError(f"K = {k} is below the required 4 * degree = {4 * omega0.degree}")
    grid = np.array([_finite_real(t, "t_grid entry") for t in (t_grid if np.ndim(t_grid) == 1 else ())])
    if grid.size < 3:
        raise DomainError(f"t_grid needs at least 3 points, got shape {np.shape(t_grid)}")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0.0 or np.any(np.abs(steps - h) > 1e-12 * max(1.0, abs(h))):
        raise DomainError("t_grid must be uniformly increasing")

    # Overflow far along the family is refused by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_ell = _log_lengths(omega0, grid)
        t_max = float(np.max(np.abs(grid)))
        residuals = {}
        untruncated = False
        for k in sorted(set(ks)):
            if not untruncated:
                alphas, betas = _lanczos(omega0, k, t_max)
                untruncated = k >= len(alphas) * omega0.degree
                jacobi = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
                nodes, vecs = np.linalg.eigh(jacobi)
                values = np.log(np.exp(np.outer(grid, nodes)) @ vecs[0] ** 2) - log_ell
                if not np.all(np.isfinite(values)):
                    raise TruncationError(f"log det S_t - log(ell_t / ell_0) leaves the float range at K = {k}")
                derivatives = (values[2:] - values[:-2]) / (2.0 * h)
                residual = float(np.max(np.abs(derivatives)))
            residuals[k] = residual
    return tuple((k, residuals[k]) for k in ks)
