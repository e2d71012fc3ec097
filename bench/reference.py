"""Independent high-precision references, computed with mpmath.

None of these call into dnzeta.  They run before the timed loop and are
never part of a timed request or of the set-up time.
"""

from __future__ import annotations

import itertools

import mpmath

mpmath.mp.dps = 30
_TINY = mpmath.mpf(10) ** -20
_TWO_PI = 2 * mpmath.pi


def annulus_value(rho: float):
    """det' N on the flat annulus 1 < |z| < rho: (2 pi)^2 (1 + rho) / ln rho."""
    r = mpmath.mpf(rho)
    return _TWO_PI**2 * (1 + r) / mpmath.log(r)


def annulus_ratio(rho: float):
    return _TWO_PI / mpmath.log(mpmath.mpf(rho))


def disc_value(radius: float):
    """det' N on the disc equals its boundary length 2 pi R."""
    return _TWO_PI * mpmath.mpf(radius)


def cylinder_value(ell: float):
    """det' N on the hyperbolic cylinder: boundary 2 ell times ell / pi."""
    e = mpmath.mpf(ell)
    return 2 * e * e / mpmath.pi


def cylinder_ratio(ell: float):
    return mpmath.mpf(ell) / mpmath.pi


def _ladder(x, q, sign=1):
    """sum_{k>=0} log(1 - sign x q^k) by the rearranged series
    -sum_{j>=1} (sign x)^j / (j (1 - q^j)), |x| < 1, 0 < q < 1.

    Each log is principal, so the sum matches a product of principal
    logs factor by factor.  A different summation order from a k ladder,
    which keeps the reference independent of the code under test.
    """
    sx = sign * x
    total = mpmath.mpc(0)
    term_x = mpmath.mpc(1)
    qj = mpmath.mpf(1)
    r, rj = abs(x), mpmath.mpf(1)
    # The terms after j add up to less than |x|^j |x| / ((1 - q)(1 - |x|)).
    floor = _TINY * (1 - q) * (1 - r)
    for j in itertools.count(1):
        term_x *= sx
        qj *= q
        total -= term_x / (j * (1 - qj))
        rj *= r
        if rj < floor:
            return total


def ruelle(lengths, lam):
    """log R(lam) = sum_c m_c log(1 - e^{-lam l_c}); lengths is [(l, m), ...]."""
    s = mpmath.mpc(lam)
    return mpmath.fsum(m * mpmath.log(1 - mpmath.exp(-s * mpmath.mpf(l))) for l, m in lengths)


def selberg(lengths, lam):
    """log Z(lam) = sum_c m_c sum_{k>=0} log(1 - e^{-(lam + k) l_c})."""
    s = mpmath.mpc(lam)
    total = mpmath.mpc(0)
    for l, m in lengths:
        l = mpmath.mpf(l)
        total += m * _ladder(mpmath.exp(-s * l), mpmath.exp(-l))
    return total


def selberg_g0(boundary, entries, lam):
    """log Z_g0(lam) of a billiard-type spectrum.

    prod_b prod_k (1 - e^{-(lam+2k) l_b})^2
      * prod_c prod_k [(1 - (-1)^{n_c} e^{-(lam+2k) l_c}) (1 - e^{-(lam+2k+1) l_c})]^{m_c}
    with entries [(l, m, n_c), ...].
    """
    s = mpmath.mpc(lam)
    total = mpmath.mpc(0)
    for l in boundary:
        l = mpmath.mpf(l)
        total += 2 * _ladder(mpmath.exp(-s * l), mpmath.exp(-2 * l))
    for l, m, n_c in entries:
        l = mpmath.mpf(l)
        q2 = mpmath.exp(-2 * l)
        x = mpmath.exp(-s * l)
        total += m * (_ladder(x, q2, sign=-1 if n_c % 2 else 1) + _ladder(x * mpmath.exp(-l), q2))
    return total


def log_barnes_g(z):
    return mpmath.log(mpmath.barnesg(z))


def functional_bracket(lam):
    """log[(2 pi)^{1-2 lam} Gamma(lam) G(lam)^2 / (Gamma(1-lam) G(1-lam)^2)], principal logs."""
    s = mpmath.mpc(lam)
    return (
        (1 - 2 * s) * mpmath.log(_TWO_PI)
        + mpmath.loggamma(s)
        + 2 * log_barnes_g(s)
        - mpmath.loggamma(1 - s)
        - 2 * log_barnes_g(1 - s)
    )


def eta():
    """eta = 2 zeta'(-1) - 1/4 + (1/2) log(2 pi)."""
    return 2 * mpmath.zeta(-1, derivative=1) - mpmath.mpf(1) / 4 + mpmath.log(_TWO_PI) / 2


def log_dirichlet_det(lam: float, z_g0: float, chi: int, ell: float):
    """log det(Delta - lam(1 - lam)) from Z_g0(lam), chi and the boundary length."""
    s = mpmath.mpf(lam)
    factor = (
        eta()
        + s * (1 - s)
        + (s - 1) * mpmath.log(_TWO_PI)
        - 2 * log_barnes_g(s)
        - mpmath.loggamma(s)
    )
    return mpmath.log(mpmath.mpf(z_g0)) - chi * factor + mpmath.mpf(ell) * (1 - 2 * s) / 8


def theorem4_ratio(zg1: float, zg01: float, chi: int, ell: float):
    """det'(N)/ell = Z'_G(1) e^{ell/4} / (Z_g0(1)^2 2 pi (-chi))."""
    return mpmath.mpf(zg1) * mpmath.exp(mpmath.mpf(ell) / 4) / (mpmath.mpf(zg01) ** 2 * _TWO_PI * (-chi))


def mobius_lengths(generators, max_word_len: int):
    """Translation lengths of all primitive cyclically reduced classes up to max_word_len letters.

    generators: [(a, b, c, d), ...] as floats; each is normalised to
    det 1 in mpmath.  Letters are g_i and g_i^{-1}; a class is the set
    of cyclic rotations of a reduced word, primitive when the word is
    no proper power.  Returns [(word_length, length), ...] with one item
    per class.
    """
    mats = []
    for a, b, c, d in generators:
        m = mpmath.matrix([[a, b], [c, d]])
        m /= mpmath.sqrt(mpmath.det(m))
        mats.append(m)
        mats.append(mpmath.inverse(m))
    n_letters = len(mats)
    out = []
    for n in range(1, max_word_len + 1):
        for word in itertools.product(range(n_letters), repeat=n):
            if any(word[i] ^ 1 == word[(i + 1) % n] for i in range(n)):
                continue  # not cyclically reduced
            rotations = [word[i:] + word[:i] for i in range(n)]
            if min(rotations) != word or rotations.count(word) > 1:
                continue  # not the canonical rotation, or a proper power
            prod = mpmath.eye(2)
            for letter in word:
                prod = prod * mats[letter]
            trace = abs(prod[0, 0] + prod[1, 1])
            out.append((n, 2 * mpmath.acosh(trace / 2)))
    return out
