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
float phase Im(lambda) l keeps too few digits for the tail bound to hold;
a lambda so near 0 that a factor 1 - e^{-lambda l} rounds to 0, or
e^{-Re(lambda) W} to 1 so that the tail bound divides by 0; and a
window whose total multiplicity passes the largest double.

Z and Z_g0 share one ladder: its length follows from the stop rule
before any factor is evaluated, and a ladder longer than 200000
factors, or one whose factors together take more than 2000000 entry
terms, is refused up front with ConvergenceError.

Every product reads its entry columns from one builder, _columns: a
float length and a float weight per column, the boundary lengths first
(Z_g0 only, weight 2), then the window entries, each weighted by its
multiplicity as a float, so any integer multiplicity a double can hold
is accepted by every kind.  R and Z take m log(1 - e^{-shift l}) per
column; Z_g0 signs that first factor by the reflection count and adds
the second factor at shift + 1 on the entry columns.

A ladder (and R, a ladder of one factor) is evaluated as numpy blocks
of factors x entries, at most 2^14 terms each.  numpy builds the
arguments, but log1p and atan2 are libm's, mapped over each block:
numpy's own differ from them in the last bit.  A term whose real and
imaginary parts are both below 2^-60 in size skips libm, as libm would
return its argument (log1p(x) = x, and atan2(x, 1.0) = x), so most
terms of a long ladder cost no Python-level call.  The terms are summed
left to right in the order of the scalar loop (entry by entry, R
factor by factor), so the values are the same to the bit.

A grid of lambdas is one pass (_zeta_grid; ruelle, selberg and
selberg_boundary are its one-point grids).  Each lambda is checked and
its ladder sized, then the factors of every ladder fill shared blocks
in turn, each block one set of exp and log1p passes, and each lambda's
terms are folded in its own order: row sums for Z, one running total
for R and Z_g0.  So a request pays a fixed set-up once (checks, window
arrays) and then its terms, whatever the number of grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import _FLOAT_MAX, ConvergenceError, DnZetaError, DomainError, _bar, _finite_complex, _finite_real
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
        object.__setattr__(self, "log_value", _finite_complex(self.log_value, "the log of the zeta product"))
        _bar(self.tail_bound, "the tail bound of the zeta product")
        _finite_real(self.convergence_abscissa_used, "the convergence abscissa used")


def _libm(f, *args: np.ndarray) -> np.ndarray:
    flat = (x.ravel().tolist() for x in args)
    return np.fromiter(map(f, *flat), float, args[0].size).reshape(args[0].shape)


def _log1p_block(u: np.ndarray, masks: list | None = None) -> np.ndarray:
    """log(1 + u) elementwise, accurate for small |u|: for u = a + ib,
    0.5 log1p(2a + a^2 + b^2) + i atan2(b, 1 + a), and log1p(a) where b == 0.
    Where |a| and |b| are both below 2^-60, log1p(x) is x and atan2(b, 1.0)
    is b, bit for bit, so libm is skipped.  Where 1 + u rounds to 0 the real
    part is -inf, which _zeta_grid refuses.  masks gets the boolean mask of
    the terms sent to libm."""
    a, b = u.real, u.imag
    on_axis = b == 0.0
    re = np.where(on_axis, a, 2.0 * a + a * a + b * b)
    im = np.where(on_axis, 0.0, b)
    libm = (abs(a) >= _LIBM_FLOOR) | (abs(b) >= _LIBM_FLOOR)
    try:
        re[libm] = _libm(math.log1p, re[libm])
    except ValueError:  # some 1 + x rounded to 0 or below: only then a call per term that checks it
        re[libm] = _libm(lambda x: math.log1p(x) if x > -1.0 else -math.inf, re[libm])
    off = libm & ~on_axis
    im[off] = _libm(math.atan2, b[off], 1.0 + a[off])
    if masks is not None:
        masks.append(libm)
    return np.stack([np.where(on_axis, re, 0.5 * re), im], axis=-1).view(complex)[..., 0]


def _fold(start, block: np.ndarray) -> np.ndarray:
    """Each row of block summed left to right onto its entry of start."""
    return np.cumsum(np.column_stack([start, block]), axis=1)[:, -1]


def _blocks(ns: list[int], rows: int):
    """The factors of the ladders ns[0], ns[1], ... in turn, at most `rows` to
    a block: each block a list of (i, k0, a, b), ladder i's factors from k0
    on the block's rows a..b-1."""
    block, at = [], 0
    for i, n in enumerate(ns):
        k = 0
        while k < n:
            take = min(rows - at, n - k)
            block.append((i, k, at, at + take))
            k, at = k + take, at + take
            if at == rows:
                yield block
                block, at = [], 0
    if block:
        yield block


def _sum_blocks(terms, width: int, lams: list[complex], step: int, ns: list[int], per_factor: bool) -> list:
    """For each lams[i], sum terms(shifts, cols, masks) over its factors at
    lams[i] + step k, k < ns[i], and the entry columns 0..width-1.  The
    factors of all the ladders, in turn, share blocks of at most
    _BLOCK_TERMS terms: one call of terms per block, however many lambdas
    it holds.

    Each lambda's order is that of the scalar loop: row by row, each left to
    right.  per_factor sums each row from zero first and then the row sums,
    as Z sums its R factors; otherwise one running total crosses the rows.
    terms appends to `masks` the libm masks of its log1p passes (one row per
    factor).  Returns each lambda's (sum, work): the factors (none without a
    column), entry terms summed and terms sent to libm.
    """
    rows = max(1, _BLOCK_TERMS // max(width, 1))
    cols = max(1, _BLOCK_TERMS // rows)
    totals, libm = [complex(0.0, 0.0)] * len(ns), [0] * len(ns)
    # A sum past the largest double is refused by ZetaValue in its lambda's
    # turn; numpy's overflow warning would come before it, for the whole block.
    with np.errstate(over="ignore", invalid="ignore"):
        for pieces in _blocks(ns, rows) if width else ():
            shifts = np.concatenate([lams[i] + step * np.arange(k0, k0 + b - a) for i, k0, a, b in pieces])[:, None]
            sums, masks = np.zeros(len(shifts), complex) if per_factor else None, []
            for c0 in range(0, width, cols):
                block = terms(shifts, slice(c0, c0 + cols), masks)
                if per_factor:
                    sums = _fold(sums, block)
                else:
                    for i, _, a, b in pieces:
                        totals[i] = _fold([totals[i]], block[a:b].reshape(1, -1))[0]
            for i, _, a, b in pieces:
                if per_factor:
                    totals[i] = _fold([totals[i]], sums[None, a:b])[0]
                libm[i] += sum(int(np.count_nonzero(mask[a:b])) for mask in masks)
    return [
        (complex(total), {"factors": n if width else 0, "entry_terms": n * width, "libm_terms": m})
        for total, n, m in zip(totals, ns, libm)
    ]


def _columns(used, boundary: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The float length and weight of each entry column of a product: the
    boundary lengths first, each of weight 2, then the window entries, each
    weighted by its multiplicity as a float (so any int a double can hold)."""
    lengths = np.array([*boundary, *(e.length for e in used)], float)
    weights = np.array([2.0] * len(boundary) + [float(e.multiplicity) for e in used])
    return lengths, weights


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


def _check_digits(lam: complex, longest: float, window: float) -> None:
    """Refuse a lambda that leaves a float no digits: a phase |Im lambda| l
    past 2^30, or e^{-Re(lambda) W} rounding to 1, as the counting tails
    divide by 1 - e^{-(Re(lambda) + k) W}."""
    if abs(lam.imag) * longest > _MAX_PHASE:
        raise DomainError(f"|Im lambda| * l = {abs(lam.imag) * longest:.6g} > 2^30: the float phase loses its digits")
    if math.exp(-lam.real * window) == 1.0:
        raise DomainError(
            f"Re lambda * W = {lam.real * window:.6g} for the window W = {window:.17g}: "
            "e^{-Re lambda W} rounds to 1 and the tail bound has no digits"
        )


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


class _Product(NamedTuple):
    """One zeta product: terms(shifts, cols, masks) summed over `width`
    entry columns at lambda + step k, as _sum_blocks does.  A ladder's
    length follows from m_crit and l_min (_ladder_length); each factor's
    counting tail counts m_tail classes of the given weight."""

    name: str
    terms: Callable
    width: int
    step: int
    per_factor: bool
    m_crit: int
    l_min: float
    m_tail: int
    weight: float


def _product(kind: str, spectrum: LengthSpectrum, lengths: list[float]) -> _Product:
    """The product of kind "ruelle" (one factor), "selberg" or
    "selberg_boundary" (on the boundary `lengths`) over the spectrum's
    window."""
    boundary = kind == "selberg_boundary"
    for entry in spectrum.entries if boundary else ():
        if entry.reflections is None:
            raise DomainError(
                f"entry at length {entry.length} lacks a reflections count; "
                "the boundary zeta needs one on every entry"
            )
    used = _window_entries(spectrum)
    m_used = sum(e.multiplicity for e in used)
    lens, weights = _columns(used, lengths)  # lengths is empty but for Z_g0
    l_min = float(lens.min(initial=math.inf))
    if not boundary:  # each column m log(1 - e^{-shift l})
        terms = lambda shifts, at, masks: weights[at] * _log1p_block(-np.exp(-shifts * lens[at]), masks)
        return _Product(kind.capitalize(), terms, len(lens), 1, kind == "selberg", m_used, l_min, m_used, 1.0)
    # The boundary columns as 2 log(1 - e^{-shift l}); then each entry's
    # m (log(1 - sign e^{-shift l}) + log(1 - e^{-(shift + 1) l})).
    signs = np.array([-1.0] * len(lengths) + [-1.0 if e.reflections % 2 == 0 else 1.0 for e in used])
    interior = np.arange(len(lens)) >= len(lengths)

    def terms(shifts, at, masks):
        l, inner = lens[at], interior[at]
        logs = _log1p_block(signs[at] * np.exp(-shifts * l), masks)
        logs[:, inner] += _log1p_block(-np.exp(-(shifts + 1.0) * l[inner]), masks)
        return weights[at] * logs

    return _Product("boundary", terms, len(lens), 2, False, 2 * len(lengths) + 2 * m_used, l_min, m_used, 2.0)


def _ladder_length(product: _Product, s: float) -> int:
    """n, the first k with m_crit e^{-(s + step k) l_min} < 1e-16, refused
    above _MAX_FACTORS or when n times the width exceeds _MAX_ENTRY_TERMS."""
    name, step, m_crit, l_min = product.name, product.step, product.m_crit, product.l_min
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
    if n * product.width > _MAX_ENTRY_TERMS:
        raise ConvergenceError(
            f"{name} ladder needs {n} factors of {product.width} entries, more than "
            f"{_MAX_ENTRY_TERMS} entry terms; refused"
        )
    return n


def _ladder_tail(product: _Product, s: float, n: int, window: float, delta: float) -> float:
    """Each of the n factors' counting tails, the skipped factors and their counting tails."""
    step, m_crit, l_min, m_tail, weight = product.step, product.m_crit, product.l_min, product.m_tail, product.weight
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
    return tails + tail_n / -math.expm1(-step * window)


def _ruelle_tail(product: _Product, lam: complex, window: float, delta: float) -> float:
    tail = _counting_tail(product.m_tail, window, lam.real, delta, 1.0)
    if product.width:
        # Rounding: every term is at most e^{-Re lambda l_min} in size and
        # carries |lambda| W ulps from the phase, the sum n more.
        scale = 2.0**-52 * product.m_tail * math.exp(-lam.real * product.l_min)
        tail += scale * abs(lam) * window + scale * (product.width + 4)
    return tail


def _zeta_grid(kind: str, spectrum: LengthSpectrum, lams, delta_hint: float, boundary_lengths=()):
    """Yield the ZetaValue that kind ("ruelle", "selberg", or "selberg_boundary"
    on boundary_lengths) gives at each lambda of lams, in order.

    Each lambda is checked and its ladder sized as a call of its own would
    be, up to the first refused.  One _sum_blocks then sums the factors of
    those before it.  Their values are yielded in order, each with its own
    tail bound and work record, and the refusal is raised in its place: a
    caller sees what one call per lambda would show, to the bit.
    """
    if kind not in ("ruelle", "selberg", "selberg_boundary"):
        raise ValueError(f"unknown zeta kind {kind!r}; expected 'ruelle', 'selberg' or 'selberg_boundary'")
    admitted, refusal = [], None
    try:
        for i, lam in enumerate(lams):
            lam, delta = _check_region(lam, delta_hint)
            if not i:
                lengths = [_finite_real(l, "boundary length", 0.0) for l in boundary_lengths]
                longest = max(lengths + [spectrum.complete_up_to])
            _check_digits(lam, longest, spectrum.complete_up_to)
            if not i:
                product = _product(kind, spectrum, lengths)
                if product.m_crit > _FLOAT_MAX:  # the ladder's stop rule and the tails take it as a float
                    raise DomainError(f"the {product.name} factors' total multiplicity passes the largest double")
            admitted.append((lam, 1 if kind == "ruelle" else _ladder_length(product, lam.real)))
    except DnZetaError as exc:
        refusal = exc
    if admitted:
        sums = _sum_blocks(product.terms, product.width, [lam for lam, _ in admitted], product.step,
                           [n for _, n in admitted], product.per_factor)
        for (lam, n), (total, work) in zip(admitted, sums):
            if total.real == -math.inf:
                raise DomainError(
                    f"the {product.name} product's log is -inf at lambda = {lam}: "
                    "a factor rounds to 0 or the sum passes the largest double"
                )
            if kind == "ruelle":
                tail = _ruelle_tail(product, lam, spectrum.complete_up_to, delta)
            else:
                tail = _ladder_tail(product, lam.real, n, spectrum.complete_up_to, delta)
            yield _with_work(ZetaValue(log_value=total, tail_bound=tail, convergence_abscissa_used=delta), work)
    if refusal is not None:
        raise refusal


def ruelle(spectrum: LengthSpectrum, lam: complex, delta_hint: float) -> ZetaValue:
    """log R(lambda) over the spectrum's completeness window."""
    [value] = _zeta_grid("ruelle", spectrum, [lam], delta_hint)
    return value


def selberg(spectrum: LengthSpectrum, lam: complex, delta_hint: float) -> ZetaValue:
    """log Z(lambda) = sum_k log R(lambda + k), each factor a row of _sum_blocks in ruelle()'s order.

    The ladder stops before m_total e^{-(Re lambda + k) l_min} drops
    below 1e-16; its length and refusal follow the module docstring.
    """
    [value] = _zeta_grid("selberg", spectrum, [lam], delta_hint)
    return value


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
    [value] = _zeta_grid("selberg_boundary", spectrum, [lam], delta_hint, boundary_lengths)
    return value


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
