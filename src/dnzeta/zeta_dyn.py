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
spectrum entries inside the completeness window are used (lengths up to
complete_up_to + 1e-9; hyperbolic._window_entries owns that rule), and every
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

A ladder (and R, a ladder of one factor) is evaluated as numpy blocks
of factors x entries, at most 2^14 terms each.  numpy builds the
arguments, but log1p and atan2 are libm's, mapped over each block:
numpy's own differ from them in the last bit.  A term whose real and
imaginary parts are both below 2^-60 in size skips libm, as libm would
return its argument (log1p(x) = x, and atan2(x, 1.0) = x), so most
terms of a long ladder cost no Python-level call.  The terms are summed
left to right in the order of the scalar loop (entry by entry, R
factor by factor), so the values are the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, _finite_complex, _finite_real
from .hyperbolic import LengthSpectrum, _window_entries

_BLOCK_TERMS = 2**14
_FACTOR_FLOOR = 1e-16
_MAX_FACTORS = 200_000
_MAX_ENTRY_TERMS = 2_000_000
# Largest |Im lambda| * l admitted: half an ulp of the phase is 2^-23 rad
# at 2^30; at Im lambda = 1e16 no digit is left and log R is off by 0.02.
_MAX_PHASE = 2.0**30
# Below it in size, libm's log1p(x) and atan2(x, 1.0) return x: glibc's
# log1p does so for |x| < 2^-54, and 1 + x rounds to 1.0.
_LIBM_FLOOR = 2.0**-60
_WORK_KEYS = ("factors", "entry_terms", "libm_terms")


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
    _work: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lv = complex(self.log_value)
        object.__setattr__(self, "log_value", lv)
        if not (math.isfinite(lv.real) and math.isfinite(lv.imag)):
            raise DomainError(f"log_value must be finite, got {lv}")
        if not (self.tail_bound >= 0.0 and math.isfinite(self.tail_bound)):
            raise DomainError(f"tail_bound must be finite and >= 0, got {self.tail_bound}")
        if not math.isfinite(self.convergence_abscissa_used):
            raise DomainError("convergence_abscissa_used must be finite")


def _libm(f, *args: np.ndarray) -> np.ndarray:
    flat = (x.ravel().tolist() for x in args)
    return np.fromiter(map(f, *flat), float, args[0].size).reshape(args[0].shape)


def _log1p_block(u: np.ndarray, work: dict | None = None) -> np.ndarray:
    """log(1 + u) elementwise, accurate for small |u|: for u = a + ib,
    0.5 log1p(2a + a^2 + b^2) + i atan2(b, 1 + a), and log1p(a) where b == 0.
    Where |a| and |b| are both below 2^-60, log1p(x) is x and atan2(b, 1.0)
    is b, bit for bit, so libm is skipped.  work counts the terms sent to it."""
    a, b = u.real, u.imag
    on_axis = b == 0.0
    re = np.where(on_axis, a, 2.0 * a + a * a + b * b)
    im = np.where(on_axis, 0.0, b)
    libm = (abs(a) >= _LIBM_FLOOR) | (abs(b) >= _LIBM_FLOOR)
    re[libm] = _libm(math.log1p, re[libm])
    off = libm & ~on_axis
    im[off] = _libm(math.atan2, b[off], 1.0 + a[off])
    if work is not None:
        work["libm_terms"] += int(np.count_nonzero(libm))
    return np.stack([np.where(on_axis, re, 0.5 * re), im], axis=-1).view(complex)[..., 0]


def _fold(start: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Each row of block summed left to right onto its entry of start."""
    return np.cumsum(np.column_stack([start, block]), axis=1)[:, -1]


def _sum_blocks(terms, width: int, lam: complex, step: int, n: int, per_factor: bool, work: dict) -> complex:
    """Sum terms(shifts, cols) over the factors at lambda + step k, k < n,
    and the entry columns 0..width-1, in blocks of at most _BLOCK_TERMS.

    The order is that of the scalar loop: row by row, each left to right.
    per_factor sums each row from zero first and then the row sums, as Z
    sums its R factors; otherwise one running total crosses the rows.
    work gets the factors (none without a column) and entry terms summed.
    """
    work["factors"] += n if width > 0 else 0
    work["entry_terms"] += n * width
    rows = max(1, _BLOCK_TERMS // max(width, 1))
    cols = max(1, _BLOCK_TERMS // rows)
    total = complex(0.0, 0.0)
    for k0 in range(0, n, rows):
        shifts = lam + step * np.arange(k0, min(k0 + rows, n))[:, None]
        sums = np.zeros(len(shifts), complex) if per_factor else np.array([total])
        for c0 in range(0, width, cols):
            block = terms(shifts, slice(c0, c0 + cols))
            sums = _fold(sums, block if per_factor else block.reshape(1, -1))
        total = _fold([total], sums[None, :])[0] if per_factor else sums[0]
    return complex(total)


def _ruelle_terms(used, work=None):
    lengths = np.array([e.length for e in used])
    mults = np.array([float(e.multiplicity) for e in used])
    return lambda shifts, cols: mults[cols] * _log1p_block(-np.exp(-shifts * lengths[cols]), work)


def _with_work(value: ZetaValue, work: dict) -> ZetaValue:
    object.__setattr__(value, "_work", work)
    return value


def _check_region(lam, delta_hint: float) -> tuple[complex, float]:
    """(lam, delta_hint) as a complex and a float, with delta_hint >= 0 and Re lam > delta_hint."""
    lam, delta = _finite_complex(lam, "lambda"), _finite_real(delta_hint, "delta_hint")
    if delta < 0.0:
        raise DomainError(f"delta_hint must be >= 0, got {delta}")
    if not lam.real > delta:
        raise DomainError(
            f"Re lambda = {lam.real} is outside the convergence region "
            f"Re lambda > {delta}"
        )
    return lam, delta


def _check_phase(lam: complex, longest: float) -> None:
    if abs(lam.imag) * longest > _MAX_PHASE:
        raise DomainError(f"|Im lambda| * l = {abs(lam.imag) * longest:.6g} > 2^30: the float phase loses its digits")


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
    lam, delta = _check_region(lam, delta_hint)
    _check_phase(lam, spectrum.complete_up_to)
    used = _window_entries(spectrum)
    work = dict.fromkeys(_WORK_KEYS, 0)
    total = _sum_blocks(_ruelle_terms(used, work), len(used), lam, 1, 1, False, work)
    n_used = sum(e.multiplicity for e in used)
    tail = _counting_tail(n_used, spectrum.complete_up_to, lam.real, delta, 1.0)
    if used:
        # Rounding: every term is at most e^{-Re lambda l_min} in size and
        # carries |lambda| W ulps from the phase, the sum n more.
        scale = 2.0**-52 * n_used * math.exp(-lam.real * spectrum.entries[0].length)
        tail += scale * abs(lam) * spectrum.complete_up_to + scale * (len(used) + 4)
    return _with_work(ZetaValue(
        log_value=total, tail_bound=tail, convergence_abscissa_used=delta
    ), work)


def _ladder(
    name: str, terms, entries: int, lam: complex, step: int, m_crit: int,
    l_min: float, m_tail: int, window: float, delta: float, weight: float,
    work: dict, per_factor: bool = False,
) -> ZetaValue:
    """Sum the factors at lambda + step k for k < n, n being the first k
    with m_crit e^{-(Re lambda + step k) l_min} < 1e-16; n is fixed, and
    refused above _MAX_FACTORS or when n times the entries each factor
    sums exceeds _MAX_ENTRY_TERMS, before any factor is evaluated.

    terms, work and per_factor are as in _sum_blocks, over `entries` columns.
    The tail bound adds each factor's counting tail (m_tail classes of
    the given weight), the skipped factors and their counting tails.
    """
    s = lam.real
    wanted = lambda k: m_crit * math.exp(-(s + step * k) * l_min) >= _FACTOR_FLOOR
    if wanted(_MAX_FACTORS):
        raise ConvergenceError(f"{name} ladder needs more than {_MAX_FACTORS} factors; refused")
    # the closed form (in logs: m_crit / 1e-16 overflows near the largest double),
    # then the rule's own float test (monotone in k) at n - 1 and n
    n = min(max(0, math.ceil(((math.log(m_crit) - math.log(_FACTOR_FLOOR)) / l_min - s) / step)), _MAX_FACTORS) if m_crit else 0
    while n > 0 and not wanted(n - 1):
        n -= 1
    while wanted(n):
        n += 1
    if n * entries > _MAX_ENTRY_TERMS:
        raise ConvergenceError(
            f"{name} ladder needs {n} factors of {entries} entries, more than "
            f"{_MAX_ENTRY_TERMS} entry terms; refused"
        )
    logs = _sum_blocks(terms, entries, lam, step, n, per_factor, work)
    tails = 0.0
    for k in range(n):  # the tails fall with k far faster than rounding moves them,
        tail = _counting_tail(m_tail, window, s + step * k, delta, weight)
        if tails + tail == tails:  # so once one leaves the sum as it is, so does every later one
            break
        tails += tail
    if m_crit:
        x = math.exp(-(s + step * n) * l_min)
        tails += 2.0 * m_crit * x / -math.expm1(-step * l_min)
    tail_n = _counting_tail(m_tail, window, s + step * n, delta, weight)
    tails += tail_n / -math.expm1(-step * window)
    return _with_work(ZetaValue(log_value=logs, tail_bound=tails, convergence_abscissa_used=delta), work)


def selberg(spectrum: LengthSpectrum, lam: complex, delta_hint: float) -> ZetaValue:
    """log Z(lambda) = sum_k log R(lambda + k), each factor a row of _sum_blocks in ruelle()'s order.

    The ladder stops before m_total e^{-(Re lambda + k) l_min} drops
    below 1e-16; its length and refusal follow the module docstring.
    """
    lam, delta = _check_region(lam, delta_hint)
    _check_phase(lam, spectrum.complete_up_to)
    used = _window_entries(spectrum)
    m_total = sum(e.multiplicity for e in used)
    l_min = min((e.length for e in used), default=math.inf)
    work = dict.fromkeys(_WORK_KEYS, 0)
    return _ladder(
        "Selberg", _ruelle_terms(used, work), len(used), lam, 1, m_total, l_min,
        m_total, spectrum.complete_up_to, delta, 1.0, work, per_factor=True,
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
    lam, delta = _check_region(lam, delta_hint)
    lengths = [_finite_real(l, "boundary length", 0.0) for l in boundary_lengths]
    _check_phase(lam, max(lengths + [spectrum.complete_up_to]))
    for entry in spectrum.entries:
        if entry.reflections is None:
            raise DomainError(
                f"entry at length {entry.length} lacks a reflections count; "
                "the boundary zeta needs one on every entry"
            )
    used = [
        (-1.0 if e.reflections % 2 == 0 else 1.0, e.length, e.multiplicity)
        for e in _window_entries(spectrum)
    ]
    m_interior = sum(m for _, _, m in used)
    l_min = min(lengths + [l for _, l, _ in used], default=math.inf)
    # Boundary columns first, as 2 log(1 - e^{-shift l}); then each entry's
    # m (log(1 - sign e^{-shift l}) + log(1 - e^{-(shift + 1) l})).
    signs, lens, weights = np.array([(-1.0, l, 2.0) for l in lengths] + used).reshape(-1, 3).T
    interior = np.arange(len(lens)) >= len(lengths)
    work = dict.fromkeys(_WORK_KEYS, 0)

    def terms(shifts, at):
        l, inner = lens[at], interior[at]
        logs = _log1p_block(signs[at] * np.exp(-shifts * l), work)
        logs[:, inner] += _log1p_block(-np.exp(-(shifts + 1.0) * l[inner]), work)
        return weights[at] * logs

    m_crit = 2 * len(lengths) + 2 * m_interior
    return _ladder(
        "boundary", terms, len(lengths) + len(used), lam, 2, m_crit, l_min,
        m_interior, spectrum.complete_up_to, delta, 2.0, work,
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
