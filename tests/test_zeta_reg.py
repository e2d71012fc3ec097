"""Tests for the regularized-determinant lemma machinery."""

import dataclasses
import math

import numpy as np
import pytest

from dnzeta.errors import DomainError, InvalidSequenceError
from dnzeta.zeta_reg import (
    EigenSequence,
    RegularizedDet,
    log_det,
    required_tail_length,
)

LN_2PI = math.log(2.0 * math.pi)


def _random_sequence(rng):
    k = rng.uniform(0.5, 3.0)
    c = rng.uniform(0.2, 5.0)
    a = rng.uniform(0.5, 2.0)
    big_c = rng.uniform(0.0, 0.8)
    n_tail = required_tail_length(big_c, a)
    eps = tuple(
        big_c * math.exp(-a * (n + 1)) * rng.uniform(-1.0, 1.0) for n in range(n_tail)
    )
    head = tuple(
        (rng.uniform(0.1, 10.0), int(rng.integers(1, 4)))
        for _ in range(rng.integers(0, 4))
    )
    m = int(rng.integers(1, 4))
    return EigenSequence(
        power=k,
        prefactor=c,
        corrections=eps,
        decay_rate=a,
        decay_bound=big_c,
        head=head,
        tail_multiplicity=m,
    )


class TestZetaAtZero:
    def test_plain_tail(self):
        seq = EigenSequence(power=1.0, prefactor=1.0)
        assert log_det(seq).zeta_at_zero == -0.5

    def test_multiplicity_two(self):
        seq = EigenSequence(power=1.0, prefactor=1.0, tail_multiplicity=2)
        assert log_det(seq).zeta_at_zero == -1.0

    def test_head_shifts_by_multiplicity(self):
        seq = EigenSequence(power=1.0, prefactor=1.0, head=((5.0, 1),))
        assert log_det(seq).zeta_at_zero == 0.5


class TestLogDet:
    def test_circle_spectrum(self):
        # Two copies of u_n = n: det = 2 pi.
        seq = EigenSequence(power=1.0, prefactor=1.0, tail_multiplicity=2)
        res = log_det(seq)
        assert abs(res.log_value - LN_2PI) <= 1e-13
        assert res.truncation_error == 0.0
        assert res.zeta_at_zero == -1.0

    @pytest.mark.parametrize("rho", [1.5, 2.0, math.e, 10.0, 100.0])
    def test_annulus_closed_form(self, rho):
        # head (1+rho)/(rho ln rho), tail n^2 e^{-alpha} twice over:
        # -d/ds zeta(0) = ln[(1+rho)/ln rho] + 2 ln(2 pi).
        alpha = math.log(rho)
        seq = EigenSequence(
            power=2.0,
            prefactor=math.exp(-alpha),
            head=(((1.0 + rho) / (rho * alpha), 1),),
            tail_multiplicity=2,
        )
        want = math.log((1.0 + rho) / alpha) + 2.0 * LN_2PI
        assert abs(log_det(seq).log_value - want) <= 1e-12 * max(1.0, abs(want))

    def test_exponential_corrections_vs_continuation_oracle(self):
        # u_n = n (1 + e^{-n}).  Frozen oracle: direct Euler-Maclaurin
        # continuation of sum u_n^{-s} at 50 digits agreed with the lemma
        # formula to 1e-20; the shared value is pasted here.
        n_tail = required_tail_length(1.0, 1.0)
        eps = tuple(math.exp(-(n + 1.0)) for n in range(n_tail))
        seq = EigenSequence(
            power=1.0, prefactor=1.0, corrections=eps, decay_rate=1.0, decay_bound=1.0
        )
        res = log_det(seq)
        assert abs(res.log_value - 1.4364986403401920) <= 1e-12
        assert res.truncation_error <= 1e-13

    def test_truncation_error_is_certified_geometric_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seq = _random_sequence(rng)
            res = log_det(seq)
            n_tail = len(seq.corrections)
            geom = (
                seq.decay_bound
                * math.exp(-seq.decay_rate * (n_tail + 1))
                / -math.expm1(-seq.decay_rate)
            )
            assert res.truncation_error <= seq.tail_multiplicity * geom * 2.0000001
            assert res.truncation_error < 1e-13

    def test_short_tail_rejected(self):
        seq = EigenSequence(
            power=1.0, prefactor=1.0, corrections=(), decay_rate=0.1, decay_bound=10.0
        )
        with pytest.raises(DomainError):
            log_det(seq)


class TestScale:
    def test_scaling_law_random(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            seq = _random_sequence(rng)
            t = rng.uniform(0.05, 20.0)
            base = log_det(seq)
            head = tuple((t * lam, m) for lam, m in seq.head)
            scaled = log_det(dataclasses.replace(seq, prefactor=t * seq.prefactor, head=head))
            want = base.log_value + math.log(t) * base.zeta_at_zero
            assert abs(scaled.log_value - want) <= 1e-12 * (1.0 + abs(want))


class TestClosedFormEquivalence:
    def test_no_corrections_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = rng.uniform(0.5, 3.0)
            c = rng.uniform(0.2, 5.0)
            m = int(rng.integers(1, 4))
            seq = EigenSequence(power=k, prefactor=c, tail_multiplicity=m)
            want = m * (k * 0.5 * LN_2PI - 0.5 * math.log(c))
            assert abs(log_det(seq).log_value - want) <= 1e-13 * (1.0 + abs(want))


class TestValidation:
    def test_power_zero_unsupported(self):
        with pytest.raises(DomainError):
            EigenSequence(power=0.0, prefactor=1.0)

    def test_negative_power(self):
        with pytest.raises(InvalidSequenceError):
            EigenSequence(power=-1.0, prefactor=1.0)

    def test_nonpositive_prefactor(self):
        for c in (0.0, -3.0):
            with pytest.raises(InvalidSequenceError):
                EigenSequence(power=1.0, prefactor=c)

    def test_nonpositive_one_plus_eps(self):
        with pytest.raises(InvalidSequenceError):
            EigenSequence(
                power=1.0,
                prefactor=1.0,
                corrections=(-1.5,),
                decay_rate=0.1,
                decay_bound=2.0,
            )

    def test_bound_violation(self):
        with pytest.raises(InvalidSequenceError):
            EigenSequence(
                power=1.0,
                prefactor=1.0,
                corrections=(0.5,),
                decay_rate=1.0,
                decay_bound=0.1,
            )

    def test_bound_allows_machine_noise(self):
        # exactly at the bound plus a few ulps must be accepted
        eps1 = 0.1 * math.exp(-1.0) + 4.0 * 2.0**-52
        EigenSequence(
            power=1.0,
            prefactor=1.0,
            corrections=(eps1,),
            decay_rate=1.0,
            decay_bound=0.1,
        )

    def test_zero_mode_head_rejected(self):
        with pytest.raises(InvalidSequenceError):
            EigenSequence(power=1.0, prefactor=1.0, head=((0.0, 1),))

    def test_bad_head_multiplicity(self):
        with pytest.raises(InvalidSequenceError):
            EigenSequence(power=1.0, prefactor=1.0, head=((2.0, 0),))

    def test_bad_tail_multiplicity(self):
        with pytest.raises(InvalidSequenceError):
            EigenSequence(power=1.0, prefactor=1.0, tail_multiplicity=0)


class TestRequiredTailLength:
    def test_minimality(self):
        for big_c, a in [(1.0, 1.0), (0.5, 0.3), (7.0, 2.0)]:
            n = required_tail_length(big_c, a)
            tail = big_c * math.exp(-a * n) / -math.expm1(-a)
            assert tail < 1e-14
            if n > 1:
                tail_prev = big_c * math.exp(-a * (n - 1)) / -math.expm1(-a)
                assert tail_prev >= 1e-14

    def test_zero_bound(self):
        assert required_tail_length(0.0, 1.0) == 1

    def test_truncation_result_type(self):
        with pytest.raises(DomainError, match="the truncation bound of log det' must be a finite real >= 0"):
            RegularizedDet(log_value=0.0, zeta_at_zero=0.0, truncation_error=-1.0)
