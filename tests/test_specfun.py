"""Tests for the special-function kernel.

Expected values marked as frozen were produced by an mpmath oracle at
50 significant digits in a separate session and pasted here as
literals, so the library under test never validates itself; the
mpmath_reference tests call mpmath directly.
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from dnzeta.errors import BarnesZeroError, DomainError, PoleError
from dnzeta.specfun import (
    _ZETA_PRIME_MINUS1,
    EvalResult,
    eta_constant,
    log_barnes_g,
    log_gamma,
)


def _assert_close(got, want, tol):
    assert abs(got - want) <= tol, f"got {got!r}, want {want!r} (tol {tol})"


def _assert_result_contract(res: EvalResult):
    # Declared invariant of EvalResult for documented-domain inputs.
    assert math.isfinite(res.abs_error_estimate)
    assert res.abs_error_estimate >= 0.0
    assert res.abs_error_estimate <= 1e-12 * max(1.0, abs(res.value))


class TestLogGamma:
    def test_trivial_anchors(self):
        _assert_close(log_gamma(1.0).value, 0.0, 1e-14)
        _assert_close(log_gamma(0.5).value, 0.5 * math.log(math.pi), 1e-14)
        _assert_close(log_gamma(5.0).value, math.log(24.0), 1e-13)

    @pytest.mark.parametrize(
        "z, want",
        [
            (7.25, 7.0521854507385394449),
            (0.03, 3.4899710434424119167),
            (2 + 3j, -2.0928517530927333496 + 2.3023965434668676262j),
            (0.1 + 0.2j, 1.4196225566088015416 - 1.1894584561916535046j),
            (-1.5 + 0.5j, 0.00081546715251823463554 - 5.9267657915075467186j),
            (30 + 40j, 49.232808494070298819 + 143.83479582266482462j),
        ],
    )
    def test_frozen_values(self, z, want):
        res = log_gamma(z)
        _assert_close(res.value, want, 1e-12 * max(1.0, abs(want)))
        _assert_result_contract(res)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -2.0 - 1e-13, 1e-13 + 1e-14j])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_recurrence_property(self):
        rng = np.random.default_rng(20260818)
        for _ in range(100):
            z = complex(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0))
            lhs = cmath.exp(log_gamma(z + 1.0).value - log_gamma(z).value)
            assert abs(lhs - z) <= 1e-10 * abs(z)

    def test_reflection_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(0.01, 0.99)
            lhs = cmath.exp(log_gamma(x).value + log_gamma(1.0 - x).value)
            want = math.pi / math.sin(math.pi * x)
            assert abs(lhs - want) <= 1e-10 * abs(want)

    def test_left_of_box_refused_before_the_recurrence(self):
        # the recurrence takes one step per unit of |Re z|: 0.06 s at -1e5
        start = time.perf_counter()
        for z in (-60.5, -99999.5, -1e7 + 0.5, -1e5 + 3j):
            with pytest.raises(DomainError, match="certified box"):
                log_gamma(z)
        assert time.perf_counter() - start < 0.05
        assert log_gamma(-59.5).abs_error_estimate < 1e-10
        assert log_gamma(1e5 + 0.5).abs_error_estimate < 1e-9

    def test_negative_axis_upper_limit_convention(self):
        # Limit from Im z > 0: imaginary part of log Gamma(-0.5 + i0) is -2 pi + pi = ...
        below = log_gamma(-2.5 + 1e-9j).value
        on_axis = log_gamma(-2.5).value
        assert abs(below - on_axis) < 1e-6


class TestLogBarnesG:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_zero_where_g_is_one(self, n):
        # G(1) = G(2) = G(3) = 1; the asymptotic constant zeta'(-1) must cancel to the bit
        assert log_barnes_g(n).value == 0

    def test_trivial_anchors(self):
        _assert_close(log_barnes_g(1.0).value, 0.0, 1e-13)
        _assert_close(log_barnes_g(2.0).value, 0.0, 1e-13)
        _assert_close(log_barnes_g(4.0).value, math.log(2.0), 1e-13)
        _assert_close(log_barnes_g(5.0).value, math.log(12.0), 1e-13)

    @pytest.mark.parametrize(
        "z, want",
        [
            (0.5, -0.50543305448969538280),
            (1.5, 0.066931888435004704274),
            (2.5, -0.053850349200240518071),
            (7.3, 12.228615592899987424),
            (0.25, -1.2250059061942700834),
            # Oracle: mpmath log(barnesg) path-tracked from the real axis,
            # so the literal is the analytic continuation, not the wrapped log.
            (2 + 3j, -1.6943953968809768495 - 3.3893167835071185509j),
            (0.5 - 1.25j, 1.3608787079530994461 - 0.45472314315891600529j),
        ],
    )
    def test_frozen_values(self, z, want):
        res = log_barnes_g(z)
        _assert_close(res.value, want, 1e-12 * max(1.0, abs(want)))
        _assert_result_contract(res)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-13j])
    def test_zeros_raise(self, z):
        with pytest.raises(BarnesZeroError):
            log_barnes_g(z)

    def test_left_of_box_refused_before_the_recurrence(self):
        # each recurrence step calls log_gamma, so the cost was quadratic in |Re z|
        start = time.perf_counter()
        for z in (-40.5, -299.5, -999.5, -1e5 + 0.5, -50.0 + 2j):
            with pytest.raises(DomainError, match="certified box"):
                log_barnes_g(z)
        assert time.perf_counter() - start < 0.05
        assert log_barnes_g(-39.5).abs_error_estimate < 1e-9
        assert log_barnes_g(1e5 + 0.5).abs_error_estimate < 1e-3

    @pytest.mark.parametrize("z", [8e152, 1e153])
    def test_finite_value_near_the_float_limit_is_returned(self, z):
        # the rounding part of the bar once overflowed here while the value did not
        res = log_barnes_g(z)
        with mpmath.workdps(40):
            gap = mpmath.mpf(res.value.real) - mpmath.log(mpmath.barnesg(z))
        assert res.value.imag == 0.0
        assert float(abs(gap)) <= res.abs_error_estimate

    def test_recurrence_property(self):
        rng = np.random.default_rng(20260818)
        for _ in range(100):
            z = complex(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0))
            gap = log_barnes_g(z + 1.0).value - log_barnes_g(z).value - log_gamma(z).value
            assert abs(gap) <= 1e-10 * max(1.0, abs(log_barnes_g(z + 1.0).value))


class TestEta:
    def test_value(self):
        # Frozen oracle: eta = 0.33809624580377088335 to 50 digits.
        _assert_close(eta_constant(), 0.33809624580377088335, 1e-12)
        _assert_close(eta_constant(), 0.3380962, 1e-6)

    def test_composition_identity(self):
        assert eta_constant() == 2.0 * _ZETA_PRIME_MINUS1 - 0.25 + 0.5 * math.log(2.0 * math.pi)

    def test_mpmath_reference(self):
        with mpmath.workdps(30):
            want = 2 * mpmath.zeta(-1, derivative=1) - 0.25 + mpmath.log(2 * mpmath.pi) / 2
            _assert_close(eta_constant(), float(want), 1e-15)

    def test_frozen_zeta_prime_minus1_is_the_nearest_double(self):
        with mpmath.workdps(30):
            assert _ZETA_PRIME_MINUS1 == float(mpmath.zeta(-1, derivative=1))


def _seeded_points(rng, n, radius, left):
    """n points of the certified box |z| <= radius, Re z >= left, kept
    1e-3 off the real axis left of 1/2, where the poles and zeros are."""
    points = []
    while len(points) < n:
        z = complex(rng.uniform(left, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius and not (z.real <= 0.5 and abs(z.imag) < 1e-3):
            points.append(z)
    return points


@pytest.mark.parametrize(
    "func, reference, n, radius, left",
    [
        (log_gamma, mpmath.loggamma, 1000, 60.0, -60.0),
        # Re z >= 11 takes no recurrence step: the asymptotic main part alone
        # sets the bar, and 2 eps |main| missed its cancellation.
        (log_barnes_g, lambda z: mpmath.log(mpmath.barnesg(z)), 300, 40.0, 11.0),
        (log_barnes_g, lambda z: mpmath.log(mpmath.barnesg(z)), 100, 40.0, -40.0),
    ],
    ids=["log_gamma", "log_barnes_g-asymptotic", "log_barnes_g"],
)
def test_error_estimate_bounds_the_error_against_mpmath(func, reference, n, radius, left):
    rng = np.random.default_rng(20261019)
    with mpmath.workdps(30):
        for z in _seeded_points(rng, n, radius, left):
            res = func(z)
            gap = mpmath.mpc(res.value) - reference(mpmath.mpc(z))
            # the branches differ by 2 pi i k; the error is what is left
            gap -= 2j * mpmath.pi * mpmath.nint(gap.imag / (2 * mpmath.pi))
            assert float(abs(gap)) <= res.abs_error_estimate, f"z = {z!r}"
