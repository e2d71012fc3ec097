"""Double-precision special function kernel.

Provides log Gamma, log Barnes G, and the constant
eta = 2 zeta'(-1) - 1/4 + log(2 pi)/2 of Sarnak's determinant formula,
with zeta'(-1) frozen to 20 digits.

Both log functions work in ordinary complex doubles with compensated
summation and return an :class:`EvalResult` carrying the value together
with a defensible absolute error estimate.  Branch convention: log Gamma
and log G are the continuous branches that satisfy their recurrences,
not the principal logarithms of Gamma and G, from which they can
differ by multiples of 2 pi i.  On the negative real axis values are
the limits from the upper half plane.  Certified domains are listed per
function; outside them the routines raise rather than silently degrade.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BarnesZeroError, DomainError, PoleError, _bar, _finite_complex

_EPS = 2.220446049250313e-16
_LN_2PI = math.log(2.0 * math.pi)
# Riemann zeta'(-1) = 1/12 - ln A (Glaisher-Kinkelin A), to 20 digits.
_ZETA_PRIME_MINUS1 = -0.16542114370045092921

# Bernoulli numbers B_2, B_4, ..., B_32 as exact rationals rounded once.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
    -7709321041217.0 / 510.0,
)


def _bernoulli(two_k: int) -> float:
    return _B2K[two_k // 2 - 1]


@dataclass(frozen=True)
class EvalResult:
    """Value of a special function plus an absolute error estimate, both finite."""

    value: complex
    abs_error_estimate: float

    def __post_init__(self) -> None:
        _finite_complex(self.value, "log Gamma or log G")
        _bar(self.abs_error_estimate, "the error bar of log Gamma or log G")


def _kadd(total: complex, comp: complex, term: complex) -> tuple[complex, complex]:
    # Kahan compensated add; keeps accumulated rounding near 2 eps overall.
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _near_nonpositive_int(z: complex, tol: float = 1e-12) -> int | None:
    k = round(z.real)
    if k <= 0 and abs(z - k) < tol:
        return k
    return None


_STIRLING_CUT = 10.0
# Left edges of the certified boxes: the recurrences below take one step
# per unit of Re z, so inputs further left are refused before they start.
_GAMMA_LEFT = -60.0
_BARNES_LEFT = -40.0


def log_gamma(z: complex) -> EvalResult:
    """log Gamma on the branch continuous off the negative real axis.

    This is the branch of mpmath.loggamma, fixed by log Gamma(z+1) =
    log Gamma(z) + log z; it is not the principal log of Gamma(z)
    (at z = 30+5i the two differ by 3 * 2 pi i).

    Uses the ascending recurrence until Re z >= 10, then the Stirling
    series with Bernoulli corrections.  Certified for |z| <= 60 away
    from the poles at 0, -1, -2, ...; real z < 0 gets the limit from
    the upper half plane.

    Raises PoleError within 1e-12 of a nonpositive integer and
    DomainError for Re z < -60; large positive Re z is accepted, where
    Stirling needs no recurrence, until the value leaves the float range
    near z = 2.6e305 and EvalResult refuses it with DomainError.
    """
    z = _finite_complex(z, "log_gamma: z")
    if _near_nonpositive_int(z) is not None:
        raise PoleError(f"log_gamma: pole at z={z}")
    if z.real < _GAMMA_LEFT:
        raise DomainError(
            f"log_gamma: Re z = {z.real} lies left of the certified box Re z >= {_GAMMA_LEFT}"
        )

    shift = 0j
    shift_c = 0j
    shift_abs = 0.0
    w = z
    while w.real < _STIRLING_CUT:
        lw = cmath.log(w)
        shift, shift_c = _kadd(shift, shift_c, lw)
        shift_abs += abs(lw)
        w += 1.0

    lw = cmath.log(w)
    main = (w - 0.5) * lw - w + 0.5 * _LN_2PI
    inv2 = 1.0 / (w * w)
    upow = 1.0 / w
    series = 0j
    trunc = 0.0
    for two_k in range(2, 24, 2):
        term = _bernoulli(two_k) / ((two_k - 1) * two_k) * upow
        series += term
        trunc = abs(term)
        if trunc < 1e-18:
            break
        upow *= inv2

    value = main + series - shift
    scale = abs(main) + abs(w) + shift_abs + 1.0
    return EvalResult(value, trunc + 2.0 * _EPS * scale)


_BARNES_CUT = 11.0


def log_barnes_g(z: complex) -> EvalResult:
    """log of the Barnes G function on the branch fixed by its recurrence.

    Satisfies log G(z+1) = log Gamma(z) + log G(z) with log G(1) = 0,
    with log Gamma on the branch of log_gamma; this is not the principal
    log of G(z) (at z = 30+5i the two differ by 55 * 2 pi i).

    Computed by the descending recurrence until Re z >= 11, then the
    large-z asymptotic series whose constant term is zeta'(-1)
    (frozen to 20 digits).  Certified for |z| <= 40 away
    from the zeros of G at 0, -1, -2, ...; real z < 0 gets the limit
    from the upper half plane.

    Raises BarnesZeroError within 1e-12 of a nonpositive integer,
    where G vanishes and its log is undefined, and DomainError for
    Re z < -40; large positive Re z is accepted until the value leaves
    the float range near |z| = 1.01e153, where EvalResult refuses it
    with DomainError.
    """
    z = _finite_complex(z, "log_barnes_g: z")
    if _near_nonpositive_int(z) is not None:
        raise BarnesZeroError(f"log_barnes_g: G vanishes at z={z}")
    if z.real < _BARNES_LEFT:
        raise DomainError(
            f"log_barnes_g: Re z = {z.real} lies left of the certified box Re z >= {_BARNES_LEFT}"
        )

    acc = 0j
    acc_c = 0j
    acc_err = 0.0
    acc_abs = 0.0
    w = z
    while w.real < _BARNES_CUT:
        lg = log_gamma(w)
        acc, acc_c = _kadd(acc, acc_c, lg.value)
        acc_err += lg.abs_error_estimate
        acc_abs += abs(lg.value)
        w += 1.0

    u = w - 1.0
    lu = cmath.log(u)
    main = (0.5 * u * u - 1.0 / 12.0) * lu - 0.75 * u * u + 0.5 * u * _LN_2PI
    main += _ZETA_PRIME_MINUS1
    inv2 = 1.0 / (u * u)
    upow = inv2
    series = 0j
    trunc = 0.0
    for two_k2 in range(4, 34, 2):
        k2 = two_k2 - 2  # 2k; term is B_{2k+2} / (2k (2k+2)) u^{-2k}
        term = _bernoulli(two_k2) / (k2 * (k2 + 2)) * upow
        series += term
        trunc = abs(term)
        if trunc < 1e-18:
            break
        upow *= inv2

    value = main + series - acc
    # main cancels; each term carries about 8 half-ulps of its own size (u = z - 1, products, log,
    # sums).  The bar's rounding part is 2 eps (2 terms + acc_abs + 1), each part scaled by eps
    # before it is summed: unscaled, the terms pass the largest double below |z| = 1.01e153,
    # where the value itself is still finite.
    sq = 4.0 * _EPS * abs(u) * abs(u)  # not abs(u) ** 2: pow raises OverflowError where the product rounds to inf
    terms = (0.5 * sq + 4.0 * _EPS / 12.0) * abs(lu) + 0.75 * sq + 2.0 * _EPS * abs(u) * _LN_2PI
    rounding = terms + 2.0 * _EPS * acc_abs + 2.0 * _EPS
    return EvalResult(value, trunc + acc_err + rounding)


def eta_constant() -> float:
    """The constant eta = 2 zeta'(-1) - 1/4 + (1/2) log(2 pi)."""
    return 2.0 * _ZETA_PRIME_MINUS1 - 0.25 + 0.5 * _LN_2PI
