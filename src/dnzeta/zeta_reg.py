"""Zeta-regularized determinants of eigenvalue sequences.

Implements the regularization lemma for spectra of the form

    u_n = c * n^k * (1 + eps_n),   |eps_n| <= C e^{-a n},

with finitely many exceptional head eigenvalues carried separately.
The spectral zeta function zeta_u(s) = sum_n m u_n^{-s} continues
holomorphically past s = 0 and

    zeta_u(0)    = m * zeta(0) + (number of head eigenvalues),
    zeta_u'(0)   = m * [ k zeta'(0) - ln(c) zeta(0) - sum_n ln(1+eps_n) ]
                   - sum_head mult * ln(lambda),

so log det = -zeta_u'(0).  Prefactor derivation: with u_n = c v_n and
v_n = n^k (1+eps_n), zeta_u(s) = c^{-s} zeta_v(s), hence
zeta_u'(0) = -ln(c) zeta_v(0) + zeta_v'(0); the c = 1 case is the
classical statement.

Zero modes never enter a sequence: all head eigenvalues are strictly
positive, matching the det' convention where the kernel is removed
before regularization.  Bounded sequences (k = 0) are unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _FLOAT_MAX, DomainError, InvalidSequenceError, _bar, _finite_real, _is_number
from .specfun import _kadd

# Slack for eigenvalues computed in floating point: a certificate
# |eps_n| <= C e^{-a n} proven in exact arithmetic may be violated by a
# few ulps once eps_n is formed in doubles.
_NOISE_ALLOWANCE = 8.0 * 2.0**-52

# Riemann zeta(0) and zeta'(0) in closed form.
_ZETA_0 = -0.5
_ZETA_PRIME_0 = -0.5 * math.log(2.0 * math.pi)

# Largest geometric tail C e^{-a N} / (1 - e^{-a}) required_tail_length leaves.
_TAIL_TOL = 1e-14


def _check_decay(rate: float, bound: float) -> None:
    """The decay certificate |eps_n| <= C e^{-a n} needs a finite a > 0 and a finite C >= 0."""
    if not (rate > 0.0 and math.isfinite(rate)):
        raise InvalidSequenceError(f"decay rate must be positive, got {rate}")
    if bound < 0.0 or not math.isfinite(bound):
        raise InvalidSequenceError(f"decay bound must be finite and >= 0, got {bound}")


def required_tail_length(bound_c: float, decay_a: float) -> int:
    """Smallest N with C e^{-a N} / (1 - e^{-a}) < 1e-14 (at least 1)."""
    if not (_is_number(bound_c) and _is_number(decay_a)):
        raise DomainError("decay bound and rate must be ints or floats (no bools, none past a double)")
    _check_decay(decay_a, bound_c)
    if bound_c == 0.0:
        return 1
    n = (math.log(bound_c) - math.log(_TAIL_TOL * -math.expm1(-decay_a))) / decay_a
    return max(1, math.ceil(n + 1e-12))


@dataclass(frozen=True)
class EigenSequence:
    """Eigenvalue family u_n = prefactor * n^power * (1 + corrections[n-1]).

    corrections lists eps_n for n = 1..N_tail and must satisfy the
    declared bound |eps_n| <= decay_bound * exp(-decay_rate * n); the
    whole family carries a uniform tail_multiplicity.  head holds
    finitely many exceptional (eigenvalue, multiplicity) pairs that are
    regularized separately.
    """

    power: float
    prefactor: float
    corrections: tuple[float, ...] = ()
    decay_rate: float = 1.0
    decay_bound: float = 0.0
    head: tuple[tuple[float, int], ...] = ()
    tail_multiplicity: int = 1

    def __post_init__(self) -> None:
        corrections, head = tuple(self.corrections), tuple(self.head)
        reals = (self.power, self.prefactor, self.decay_rate, self.decay_bound, *corrections, *(lam for lam, _ in head))
        if not (all(map(_is_number, reals)) and all(isinstance(m, int) and _is_number(m) for _, m in head)):
            raise DomainError("sequence data must be ints or floats and head multiplicities ints "
                              "(no bools, none past a double)")
        if sum(m for _, m in head) > _FLOAT_MAX:  # zeta_at_zero adds the count to a float
            raise DomainError("the head multiplicities must sum to at most the largest double")
        object.__setattr__(self, "corrections", tuple(map(float, corrections)))
        object.__setattr__(self, "head", tuple((float(lam), m) for lam, m in head))
        if self.power == 0.0:
            raise DomainError("power k = 0 (bounded sequences) is unsupported")
        if not (self.power > 0.0 and math.isfinite(self.power)):
            raise InvalidSequenceError(f"power must be positive, got {self.power}")
        if not (self.prefactor > 0.0 and math.isfinite(self.prefactor)):
            raise InvalidSequenceError(f"prefactor must be positive, got {self.prefactor}")
        _check_decay(self.decay_rate, self.decay_bound)
        if not (isinstance(self.tail_multiplicity, int) and _is_number(self.tail_multiplicity) and self.tail_multiplicity >= 1):
            raise InvalidSequenceError(
                f"tail multiplicity must be a positive integer, got {self.tail_multiplicity}"
            )
        for lam, m in self.head:
            if not (lam > 0.0 and math.isfinite(lam)):
                raise InvalidSequenceError(
                    f"head eigenvalues must be positive (zero modes excluded), got {lam}"
                )
            if m < 1:
                raise InvalidSequenceError(f"head multiplicity must be positive, got {m}")
        for i, eps in enumerate(self.corrections):
            n = i + 1
            if not math.isfinite(eps) or 1.0 + eps <= 0.0:
                raise InvalidSequenceError(f"1 + eps_{n} must be positive, got eps={eps}")
            cap = self.decay_bound * math.exp(-self.decay_rate * n)
            cap += _NOISE_ALLOWANCE * (1.0 + self.decay_bound)
            if abs(eps) > cap:
                raise InvalidSequenceError(
                    f"eps_{n} = {eps} violates declared bound {cap}"
                )


@dataclass(frozen=True)
class RegularizedDet:
    """log det' of an EigenSequence with its zeta(0) and truncation bound, all finite."""

    log_value: float
    zeta_at_zero: float
    truncation_error: float

    def __post_init__(self) -> None:
        _finite_real(self.log_value, "log det'")
        _finite_real(self.zeta_at_zero, "zeta(0)")
        _bar(self.truncation_error, "the truncation bound of log det'")


def _geometric_tail(seq: EigenSequence) -> float:
    n_tail = len(seq.corrections)
    first = seq.decay_bound * math.exp(-seq.decay_rate * (n_tail + 1))
    return first / -math.expm1(-seq.decay_rate)


def zeta_at_zero(seq: EigenSequence) -> float:
    """zeta_u(0): tail_multiplicity * zeta(0) plus the head count."""
    return seq.tail_multiplicity * _ZETA_0 + sum(m for _, m in seq.head)


def log_det(seq: EigenSequence) -> RegularizedDet:
    """Regularized log determinant -zeta_u'(0) of the sequence."""
    log1p_sum = comp = 0.0
    for eps in seq.corrections:
        log1p_sum, comp = _kadd(log1p_sum, comp, math.log1p(eps))
    tail_part = -seq.power * _ZETA_PRIME_0 + math.log(seq.prefactor) * _ZETA_0 + log1p_sum
    head_part = sum(m * math.log(lam) for lam, m in seq.head)
    value = seq.tail_multiplicity * tail_part + head_part

    first_missing = seq.decay_bound * math.exp(-seq.decay_rate * (len(seq.corrections) + 1))
    if first_missing > 0.5:
        raise DomainError(
            "correction list too short for a certified truncation bound: "
            f"C e^(-a (N+1)) = {first_missing} >= 1/2"
        )
    trunc = seq.tail_multiplicity * _geometric_tail(seq) / (1.0 - first_missing)
    return RegularizedDet(value, zeta_at_zero(seq), trunc)

