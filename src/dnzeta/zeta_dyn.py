"""Ruelle and Selberg zeta functions as truncated Euler products.

For a length spectrum {(l_c, m_c)} of primitive oriented classes,

    R(lambda)  = prod_c (1 - e^{-lambda l_c})^{m_c},
    Z(lambda)  = prod_{k>=0} R(lambda + k),

and the boundary variant pairs a reflection-weighted interior product
with squared boundary factors on a step-2 ladder:

    R_b(lambda)  = prod_j (1 - e^{-lambda l_j})^2,
    R_g0(lambda) = prod_c (1 - (-1)^{n_c} e^{-lambda l_c})
                          (1 - e^{-(lambda+1) l_c}),
    Z_g0(lambda) = prod_{k>=0} R_b(lambda + 2k) R_g0(lambda + 2k).

Normalization note: Z_g0 is exactly the displayed product; some
references define the corresponding function as its square.

Everything is evaluated in log space with a stable complex log1p, only
spectrum entries inside the completeness window are used, and every
value carries a tail bound built from the counting model
N(l) <= C e^{delta l} beyond that window.  Ruelle's bound adds the float
rounding of its sum, 2^-52 M e^{-Re(lambda) l_min} (|lambda| W + n + 4)
for M classes in n entries up to the window W.  Evaluation outside the
half-plane Re(lambda) > delta_hint is refused rather than extrapolated:
continuation below the convergence abscissa is out of scope.  So is
|Im lambda| l > 2^30 for the longest length l a product uses, where the
float phase Im(lambda) l keeps too few digits for the tail bound to hold.

Z and Z_g0 share one ladder: its length follows from the stop rule
before any factor is evaluated, and a ladder longer than 200000
factors, or one whose factors together take more than 2000000 entry
terms, is refused up front with ConvergenceError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .hyperbolic import LengthSpectrum

_FACTOR_FLOOR = 1e-16
_MAX_FACTORS = 200_000
_MAX_ENTRY_TERMS = 2_000_000
_WINDOW_SLACK = 1e-9
# Largest |Im lambda| * l admitted: half an ulp of the phase is 2^-23 rad
# at 2^30; at Im lambda = 1e16 no digit is left and log R is off by 0.02.
_MAX_PHASE = 2.0**30


@dataclass(frozen=True)
class ZetaValue:
    """Log of a zeta product plus an upper bound on its error.

    tail_bound covers what truncation cut (the counting-model tail and,
    on the Selberg ladders, the skipped factors); ruelle's also covers
    the float rounding of the terms it sums.
    """

    log_value: complex
    tail_bound: float
    convergence_abscissa_used: float

    def __post_init__(self) -> None:
        lv = complex(self.log_value)
        object.__setattr__(self, "log_value", lv)
        if not (math.isfinite(lv.real) and math.isfinite(lv.imag)):
            raise DomainError(f"log_value must be finite, got {lv}")
        if not (self.tail_bound >= 0.0 and math.isfinite(self.tail_bound)):
            raise DomainError(f"tail_bound must be finite and >= 0, got {self.tail_bound}")
        if not math.isfinite(self.convergence_abscissa_used):
            raise DomainError("convergence_abscissa_used must be finite")


def _log1p_complex(u: complex) -> complex:
    """log(1 + u), accurate for small |u|; exactly real on the real line."""
    a, b = u.real, u.imag
    if b == 0.0:
        return complex(math.log1p(a), 0.0)
    return complex(0.5 * math.log1p(2.0 * a + a * a + b * b), math.atan2(b, 1.0 + a))


def _check_region(lam: complex, delta_hint: float) -> None:
    if not (
        isinstance(delta_hint, (int, float))
        and math.isfinite(delta_hint)
        and delta_hint >= 0.0
    ):
        raise DomainError(f"delta_hint must be a finite real >= 0, got {delta_hint}")
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"lambda must be finite, got {lam}")
    if not lam.real > delta_hint:
        raise DomainError(
            f"Re lambda = {lam.real} is outside the convergence region "
            f"Re lambda > {delta_hint}"
        )


def _check_phase(lam: complex, longest: float) -> None:
    if abs(lam.imag) * longest > _MAX_PHASE:
        raise DomainError(f"|Im lambda| * l = {abs(lam.imag) * longest:.6g} > 2^30: the float phase loses its digits")


def _used_entries(spectrum: LengthSpectrum):
    window = spectrum.complete_up_to
    return [e for e in spectrum.entries if e.length <= window + _WINDOW_SLACK]


def _counting_tail(
    n_classes: float, window: float, s: float, delta: float, weight: float
) -> float:
    """Bound on the classes beyond `window` under N(l) <= C e^{delta l}.

    C is calibrated so the model majorizes the observed count at the
    window; each missing class contributes at most
    weight * e^{-s l} / (1 - e^{-s window}), and a factor 2 of slack
    absorbs the heuristic nature of the fit.
    """
    gap = s - delta
    x0 = math.exp(-s * window)
    c = max(1.0, float(n_classes)) * math.exp(-delta * window)
    return 2.0 * weight * c * (s / gap + 1.0) * math.exp(-gap * window) / (1.0 - x0)


def ruelle(spectrum: LengthSpectrum, lam: complex, delta_hint: float) -> ZetaValue:
    """log R(lambda) over the spectrum's completeness window."""
    lam = complex(lam)
    _check_region(lam, delta_hint)
    _check_phase(lam, spectrum.complete_up_to)
    used = _used_entries(spectrum)
    total = complex(0.0, 0.0)
    n_used = 0
    for entry in used:
        w = cmath.exp(-lam * entry.length)
        total += entry.multiplicity * _log1p_complex(-w)
        n_used += entry.multiplicity
    tail = _counting_tail(
        n_used, spectrum.complete_up_to, lam.real, float(delta_hint), 1.0
    )
    if used:
        # Rounding: every term is at most e^{-Re lambda l_min} in size and
        # carries |lambda| W ulps from the phase, the sum n more.
        scale = 2.0**-52 * n_used * math.exp(-lam.real * spectrum.entries[0].length)
        tail += scale * abs(lam) * spectrum.complete_up_to + scale * (len(used) + 4)
    return ZetaValue(
        log_value=total, tail_bound=tail, convergence_abscissa_used=float(delta_hint)
    )


def _ladder(
    name: str, add_factor, entries: int, lam: complex, step: int, m_crit: int,
    l_min: float, m_tail: int, window: float, delta: float, weight: float,
) -> ZetaValue:
    """Sum the factors at lambda + step k for k < n, n being the first k
    with m_crit e^{-(Re lambda + step k) l_min} < 1e-16; n is fixed, and
    refused above _MAX_FACTORS or when n times the entries each factor
    sums exceeds _MAX_ENTRY_TERMS, before any factor is evaluated.

    add_factor(shift, total) adds one factor's log to the running total.
    The tail bound adds each factor's counting tail (m_tail classes of
    the given weight), the skipped factors and their counting tails.
    """
    s = lam.real
    n = 0
    while m_crit and m_crit * math.exp(-(s + step * n) * l_min) >= _FACTOR_FLOOR:
        if n == _MAX_FACTORS:
            raise ConvergenceError(f"{name} ladder needs more than {n} factors; refused")
        n += 1
    if n * entries > _MAX_ENTRY_TERMS:
        raise ConvergenceError(
            f"{name} ladder needs {n} factors of {entries} entries, more than "
            f"{_MAX_ENTRY_TERMS} entry terms; refused"
        )
    logs = complex(0.0, 0.0)
    tails = 0.0
    for k in range(n):
        logs = add_factor(lam + step * k, logs)
        tails += _counting_tail(m_tail, window, s + step * k, delta, weight)
    if m_crit:
        x = math.exp(-(s + step * n) * l_min)
        tails += 2.0 * m_crit * x / -math.expm1(-step * l_min)
    tail_n = _counting_tail(m_tail, window, s + step * n, delta, weight)
    tails += tail_n / -math.expm1(-step * window)
    return ZetaValue(log_value=logs, tail_bound=tails, convergence_abscissa_used=delta)


def selberg(spectrum: LengthSpectrum, lam: complex, delta_hint: float) -> ZetaValue:
    """log Z(lambda) = sum_k log R(lambda + k), each factor a ruelle() call.

    The ladder stops before m_total e^{-(Re lambda + k) l_min} drops
    below 1e-16; its length and refusal follow the module docstring.
    """
    lam = complex(lam)
    _check_region(lam, delta_hint)
    _check_phase(lam, spectrum.complete_up_to)
    used = _used_entries(spectrum)
    m_total = sum(e.multiplicity for e in used)
    l_min = min((e.length for e in used), default=math.inf)

    def add_factor(shift: complex, total: complex) -> complex:
        return total + ruelle(spectrum, shift, delta_hint).log_value

    return _ladder(
        "Selberg", add_factor, len(used), lam, 1, m_total, l_min,
        m_total, spectrum.complete_up_to, float(delta_hint), 1.0,
    )


def selberg_boundary(
    boundary_lengths, spectrum: LengthSpectrum, lam: complex, delta_hint: float
) -> ZetaValue:
    """log Z_g0(lambda): squared boundary factors times the
    reflection-signed interior product, on the step-2 ladder.

    Every spectrum entry must carry a reflections count n_c; the sign
    of its first factor is -(-1)^{n_c}.  The ladder is sized and refused
    as in selberg, with 2 (boundary count + interior multiplicity) for
    m_total and l_min taken over both.
    """
    lam = complex(lam)
    _check_region(lam, delta_hint)
    lengths = [float(l) for l in boundary_lengths]
    if not all(l > 0.0 and math.isfinite(l) for l in lengths):
        raise DomainError(f"boundary lengths must be positive and finite, got {lengths}")
    _check_phase(lam, max(lengths + [spectrum.complete_up_to]))
    for entry in spectrum.entries:
        if entry.reflections is None:
            raise DomainError(
                f"entry at length {entry.length} lacks a reflections count; "
                "the boundary zeta needs one on every entry"
            )
    used = [
        (-1.0 if e.reflections % 2 == 0 else 1.0, e.length, e.multiplicity)
        for e in _used_entries(spectrum)
    ]
    m_interior = sum(m for _, _, m in used)
    l_min = min(lengths + [l for _, l, _ in used], default=math.inf)

    def add_factor(shift: complex, total: complex) -> complex:
        for l in lengths:
            total += 2.0 * _log1p_complex(-cmath.exp(-shift * l))
        for sign, l, m in used:
            first = _log1p_complex(sign * cmath.exp(-shift * l))
            second = _log1p_complex(-cmath.exp(-(shift + 1.0) * l))
            total += m * (first + second)
        return total

    m_crit = 2 * len(lengths) + 2 * m_interior
    return _ladder(
        "boundary", add_factor, len(lengths) + len(used), lam, 2, m_crit, l_min,
        m_interior, spectrum.complete_up_to, float(delta_hint), 2.0,
    )


def ruelle_limit_order(spectrum: LengthSpectrum) -> float:
    """lim_{mu -> 0} R(mu) / mu^2 for a cyclic spectrum {(ell, 1) x 2}.

    ell is read from the spectrum, whose lengths must agree to 1e-9 (1 + ell).
    Richardson (Neville) extrapolation of (expm1(-mu ell) / mu)^2 at the
    nodes mu = 1e-2 .. 1e-5; the raw column converges at order mu and
    the extrapolant reaches the limit ell^2 to 1e-10 relative.  Other
    spectra are refused: their limit point sits below the convergence
    abscissa and would need analytic continuation.
    """
    entries = spectrum.entries
    if sum(e.multiplicity for e in entries) != 2 or (
        entries[-1].length - entries[0].length > 1e-9 * (1.0 + entries[0].length)
    ):
        raise DomainError(
            "limit order is defined only for the cyclic spectrum "
            "{(ell, 1) x 2}; non-elementary spectra are refused"
        )
    ell = entries[0].length

    nodes = (1e-2, 1e-3, 1e-4, 1e-5)
    table = [(math.expm1(-mu * ell) / mu) ** 2 for mu in nodes]
    for level in range(1, len(nodes)):
        for i in range(len(nodes) - level):
            num = nodes[i] * table[i + 1] - nodes[i + level] * table[i]
            table[i] = num / (nodes[i] - nodes[i + level])
    return table[0]
