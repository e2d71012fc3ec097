"""Tests for the Ruelle and Selberg zeta products."""

import cmath
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from dnzeta import claims, hyperbolic, zeta_dyn
from dnzeta.errors import ConvergenceError, DomainError
from dnzeta.hyperbolic import (
    GroupPresentation,
    LengthSpectrum,
    MobiusTransform,
    SpectrumEntry,
    enumerate_primitive_classes,
)
from dnzeta.zeta_dyn import (
    ZetaValue,
    ruelle,
    selberg,
)


def _selberg_boundary(boundary_lengths, spectrum, lam, delta_hint):
    """log Z_g0(lambda) as the CLI's selberg-g0 kind reaches it: a one-point grid."""
    [value] = zeta_dyn._zeta_grid("selberg_boundary", spectrum, [lam], delta_hint, boundary_lengths)
    return value


def _dilation(t):
    return MobiusTransform(math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2))


def _schottky_pair(t1=2.0, t2=2.4, p=-3.0, q=3.0):
    g1 = _dilation(t1)
    conj = np.array([[q, p], [1.0, 1.0]]) / math.sqrt(q - p)
    m = conj @ np.diag([math.exp(t2 / 2), math.exp(-t2 / 2)]) @ np.linalg.inv(conj)
    g2 = MobiusTransform(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return GroupPresentation(generators=(g1, g2))


def _cyclic_spectrum(ell, window=None):
    window = 10.0 * ell if window is None else window
    return LengthSpectrum(
        entries=(SpectrumEntry(length=ell, multiplicity=2),),
        cutoff=window,
        complete_up_to=window,
    )


def _empty_spectrum(window=6.0):
    return LengthSpectrum(entries=(), cutoff=window, complete_up_to=window)


DELTA_PAIR = 0.55


def test_zetavalue_rejects_negative_tail():
    with pytest.raises(DomainError):
        ZetaValue(log_value=0.0, tail_bound=-1e-3, convergence_abscissa_used=0.5)


def test_zetavalue_rejects_nonfinite_log():
    with pytest.raises(DomainError):
        ZetaValue(log_value=complex(math.inf, 0.0), tail_bound=0.0, convergence_abscissa_used=0.0)


def test_ruelle_empty_spectrum_is_one():
    val = ruelle(_empty_spectrum(), 2.0, 0.0)
    assert val.log_value == 0.0
    assert val.log_value.imag == 0.0
    assert val.tail_bound >= 0.0
    assert math.isfinite(val.tail_bound)


def test_ruelle_refuses_outside_convergence_region():
    spec = _cyclic_spectrum(2.0)
    with pytest.raises(DomainError):
        ruelle(spec, 0.4, 0.5)
    with pytest.raises(DomainError):
        ruelle(spec, 0.5, 0.5)
    with pytest.raises(DomainError):
        ruelle(spec, complex(0.3, 5.0), 0.5)


def test_ruelle_rejects_bad_hint_and_lambda():
    spec = _cyclic_spectrum(2.0)
    with pytest.raises(DomainError):
        ruelle(spec, 2.0, -0.2)
    with pytest.raises(DomainError):
        ruelle(spec, 2.0, math.nan)
    with pytest.raises(DomainError):
        ruelle(spec, 2.0, True)
    with pytest.raises(DomainError):
        ruelle(spec, complex(math.inf, 0.0), 0.0)


def test_products_and_lambert_reference_share_the_window():
    # one entry 5e-10 past complete_up_to is kept (the walk's 1e-9 tie
    # slack), one 2e-9 past is dropped, by the products and the reference alike
    for past, kept in ((5e-10, True), (2e-9, False)):
        spec = LengthSpectrum(entries=(SpectrumEntry(length=1.0 + past, multiplicity=2),), cutoff=2.0, complete_up_to=1.0)
        for lam in (1.5, 2.5):
            lambert = claims._lambert(spec, lam)
            assert (lambert != 0.0) == kept
            assert abs(selberg(spec, lam, 0.0).log_value - lambert) <= 1e-14
            assert abs(ruelle(spec, lam, 0.0).log_value - (lambert - claims._lambert(spec, lam + 1.0))) <= 1e-14


def test_work_counts_each_factor_and_entry_term():
    # factors is the ladder's length (one for R with a column, none without),
    # entry_terms factors x the columns each factor sums
    rng = np.random.default_rng(23)
    seen = []
    for i in range(12):
        lengths = np.sort(0.3 + 3.0 * rng.random(int(rng.integers(1, 7))))
        entries = tuple(SpectrumEntry(length=float(l), multiplicity=int(rng.integers(1, 4)), reflections=int(rng.integers(0, 3)))
                        for l in lengths)
        spec = LengthSpectrum(entries=entries, cutoff=4.0, complete_up_to=float(lengths[-1]) if i % 2 else 2.0)
        boundary = [float(l) for l in 0.5 + 2.0 * rng.random(int(rng.integers(0, 3)))]
        lam = complex(0.2 + 3.0 * rng.random(), 2.0 * rng.random())
        used = [e for e in entries if e.length <= spec.complete_up_to]
        m_used = sum(e.multiplicity for e in used)
        l_min = min([e.length for e in used], default=math.inf)
        cases = (
            (ruelle(spec, lam, 0.0), 1 if used else 0, len(used)),
            (selberg(spec, lam, 0.0), _reference_ladder_length(lam, 1, m_used, l_min), len(used)),
            (_selberg_boundary(boundary, spec, lam, 0.0),
             _reference_ladder_length(lam, 2, 2 * len(boundary) + 2 * m_used, min(boundary + [l_min])),
             len(boundary) + len(used)),
        )
        for value, factors, columns in cases:
            assert (value._work["factors"], value._work["entry_terms"]) == (factors, factors * columns)
            seen.append(factors)
    assert max(seen) > 10 and 0 in seen
    empty = ruelle(_empty_spectrum(), 2.0, 0.0)._work
    assert (empty["factors"], empty["entry_terms"]) == (0, 0)


@pytest.mark.parametrize("lam", [1.0, 2.5, 0.31])
def test_ruelle_cyclic_closed_form_real(lam):
    # Independent expression: R(lam) = (1 - e^{-lam ell})^2.
    ell = 2.0
    val = ruelle(_cyclic_spectrum(ell), lam, 0.0)
    expected = 2.0 * math.log(1.0 - math.exp(-lam * ell))
    assert val.log_value.real == pytest.approx(expected, abs=1e-14)
    assert val.log_value.imag == 0.0


def test_ruelle_cyclic_closed_form_complex():
    ell = 1.3
    lam = complex(0.8, 2.1)
    val = ruelle(_cyclic_spectrum(ell), lam, 0.0)
    expected = 2.0 * cmath.log(1.0 - cmath.exp(-lam * ell))
    assert abs(val.log_value - expected) <= 1e-14 * (1.0 + abs(expected))


def test_ruelle_value_matches_product_form():
    ell = 2.0
    lam = 1.7
    val = ruelle(_cyclic_spectrum(ell), lam, 0.0)
    assert math.exp(val.log_value.real) == pytest.approx(
        (1.0 - math.exp(-lam * ell)) ** 2, rel=1e-14
    )


def test_ruelle_small_factor_no_cancellation():
    # At lam*ell = 30 the factor is 1 - w with w ~ 9e-14; the log must
    # track the series -w - w^2/2 to full relative precision.
    ell = 2.0
    lam = 15.0
    w = math.exp(-lam * ell)
    val = ruelle(_cyclic_spectrum(ell), lam, 0.0)
    series = 2.0 * (-w - 0.5 * w * w)
    assert val.log_value.real == pytest.approx(series, rel=1e-13)


def test_ruelle_ignores_entries_beyond_window():
    inside = SpectrumEntry(length=2.0, multiplicity=2)
    beyond = SpectrumEntry(length=9.0, multiplicity=4)
    spec = LengthSpectrum(entries=(inside, beyond), cutoff=12.0, complete_up_to=5.0)
    val = ruelle(spec, 2.0, 0.0)
    only = ruelle(_cyclic_spectrum(2.0, window=5.0), 2.0, 0.0)
    assert val.log_value == only.log_value


def test_ruelle_positivity_real_lambda():
    grp = _schottky_pair()
    spec = enumerate_primitive_classes(grp, 8.0)
    for lam in (1.0, 1.5, 2.0, 3.0):
        val = ruelle(spec, lam, DELTA_PAIR)
        assert val.log_value.imag == 0.0
        r = math.exp(val.log_value.real)
        assert 0.0 < r < 1.0


def test_ruelle_truncation_monotone_within_tail():
    # Deepening the spectrum moves log R by less than the advertised tail.
    grp = _schottky_pair()
    spec8 = enumerate_primitive_classes(grp, 8.0)
    spec10 = enumerate_primitive_classes(grp, 10.0)
    spec12 = enumerate_primitive_classes(grp, 12.0)
    for lam in (1.5, 2.0, 3.0):
        v8 = ruelle(spec8, lam, DELTA_PAIR)
        v10 = ruelle(spec10, lam, DELTA_PAIR)
        v12 = ruelle(spec12, lam, DELTA_PAIR)
        assert abs(v10.log_value - v8.log_value) <= v8.tail_bound
        assert abs(v12.log_value - v10.log_value) <= v10.tail_bound
        assert v10.tail_bound < v8.tail_bound


def test_ruelle_two_cutoff_stability_budget():
    import time

    grp = _schottky_pair()
    start = time.monotonic()
    spec = enumerate_primitive_classes(grp, 12.0)
    for lam in (1.5, 2.0, 3.0):
        val = ruelle(spec, lam, DELTA_PAIR)
        assert math.isfinite(val.log_value.real)
    assert time.monotonic() - start < 30.0


def test_selberg_cyclic_matches_direct_ladder():
    ell = 2.0
    for lam in (1.5, 1.0, 2.2):
        val = selberg(_cyclic_spectrum(ell), lam, 0.0)
        direct = 0.0
        k = 0
        while True:
            term = 2.0 * math.log1p(-math.exp(-(lam + k) * ell))
            if abs(term) < 1e-18:
                break
            direct += term
            k += 1
        assert val.log_value.real == pytest.approx(direct, abs=1e-13)
        assert val.log_value.imag == 0.0


def test_selberg_cyclic_complex_ladder():
    ell = 1.7
    lam = complex(1.2, 0.4)
    val = selberg(_cyclic_spectrum(ell), lam, 0.0)
    direct = complex(0.0, 0.0)
    for k in range(80):
        direct += 2.0 * cmath.log(1.0 - cmath.exp(-(lam + k) * ell))
    assert abs(val.log_value - direct) <= 1e-13


def _spectrum_with_short_length():
    # 60 entries with reflection counts plus one length of 1e-4: both
    # ladders would need more than 200000 factors to truncate
    entries = (SpectrumEntry(length=1e-4, multiplicity=1, reflections=0),) + tuple(
        SpectrumEntry(length=1.0 + 0.05 * i, multiplicity=2, reflections=i % 4) for i in range(60)
    )
    return LengthSpectrum(entries=entries, cutoff=4.0, complete_up_to=4.0)


def test_selberg_refuses_long_ladder_before_any_factor(monkeypatch):
    # Six entries: 200000 factors of them stay under the entry-term cap,
    # so the factor cap alone refuses, before the block evaluator (every
    # term of every factor passes through it) sees a factor.
    spec = LengthSpectrum(entries=_spectrum_with_short_length().entries[:6], cutoff=4.0, complete_up_to=4.0)

    def no_factor(*args):
        raise AssertionError("a ladder factor was evaluated")

    monkeypatch.setattr(zeta_dyn, "_log1p_block", no_factor)
    with pytest.raises(ConvergenceError, match="Selberg ladder needs more than 200000 factors"):
        selberg(spec, 0.5, 0.0)


def test_boundary_zeta_refuses_long_ladder_up_front():
    spec = _spectrum_with_short_length()
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="boundary ladder"):
        _selberg_boundary([1.0], spec, 0.5, 0.0)
    # the refusal must not pay for the 200000 factors it caps (seconds here)
    assert time.perf_counter() - start < 1.0


def test_ladders_refuse_too_many_entry_terms_up_front(monkeypatch):
    # with the short length at 2.5e-4 the ladders stay under 200000 factors
    # (about 167k and 85k) but would sum 61 and 62 entries on each: seconds
    # of work for tail bounds of 77 and 152
    entries = _spectrum_with_short_length().entries[1:]
    spec = LengthSpectrum(
        entries=(SpectrumEntry(length=2.5e-4, multiplicity=1, reflections=0),) + entries,
        cutoff=4.0, complete_up_to=4.0,
    )

    def no_factor(*args):
        raise AssertionError("a ladder factor was evaluated")

    monkeypatch.setattr(zeta_dyn, "_log1p_block", no_factor)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="Selberg ladder .* entry terms"):
        selberg(spec, 0.5, 0.0)
    with pytest.raises(ConvergenceError, match="boundary ladder .* entry terms"):
        _selberg_boundary([1.0], spec, 0.5, 0.0)
    assert time.perf_counter() - start < 0.5


def test_selberg_ladder_memory_is_bounded():
    # 20000 entries from l = 1 at lambda = 1.5: 46 factors, 920000 entry
    # terms.  Evaluated as one array, this ladder peaks at 57 MB traced.
    entries = tuple(SpectrumEntry(length=1.0 + 1e-4 * i, multiplicity=1) for i in range(20000))
    spec = LengthSpectrum(entries=entries, cutoff=3.0, complete_up_to=3.0)
    tracemalloc.start()
    try:
        selberg(spec, 1.5, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _reference_stop_rule(product, s):
    """zeta_dyn._ladder_length as a loop: the stop rule stepped k by k."""
    n = 0
    while product.m_crit and product.m_crit * math.exp(-(s + product.step * n) * product.l_min) >= 1e-16:
        if n == zeta_dyn._MAX_FACTORS:
            raise ConvergenceError(f"{product.name} ladder needs more than {n} factors; refused")
        n += 1
    if n * product.width > zeta_dyn._MAX_ENTRY_TERMS:
        raise ConvergenceError(
            f"{product.name} ladder needs {n} factors of {product.width} entries, more than "
            f"{zeta_dyn._MAX_ENTRY_TERMS} entry terms; refused"
        )
    return n


def _reference_tails(product, s, n, window, delta):
    """zeta_dyn._ladder_tail with one scalar counting tail per factor."""
    tails = 0.0
    for k in range(n):
        tails += zeta_dyn._counting_tail(product.m_tail, window, s + product.step * k, delta, product.weight)
    if product.m_crit:
        x = math.exp(-(s + product.step * n) * product.l_min)
        tails += 2.0 * product.m_crit * x / -math.expm1(-product.step * product.l_min)
    tail_n = zeta_dyn._counting_tail(product.m_tail, window, s + product.step * n, delta, product.weight)
    return tails + tail_n / -math.expm1(-product.step * window)


def _ladder_outcomes(cases):
    """repr of each Selberg and boundary value, or the refusal's message."""
    out = []
    for spec, lam, delta, boundary in cases:
        for call in (lambda: selberg(spec, lam, delta), lambda: _selberg_boundary(boundary, spec, lam, delta)):
            try:
                out.append(repr(call()))
            except ConvergenceError as exc:
                out.append(f"refused: {exc}")
    return out


def test_ladder_bookkeeping_matches_the_reference_loops(monkeypatch):
    # Seeded spectra whose ladders run from none (Re lambda 60) to past the
    # caps, which are lowered so that a ladder of 30-80 factors meets them.
    rng = np.random.default_rng(17)
    cases = []
    for i in range(160):
        l_min = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        lengths = np.sort(l_min + 3.0 * rng.random(int(rng.integers(1, 9))))
        lengths[0] = l_min
        entries = tuple(
            SpectrumEntry(length=float(l), multiplicity=int(rng.integers(1, 5)), reflections=int(rng.integers(0, 4)))
            for l in lengths
        )
        window = float(lengths[-1]) if i % 3 else l_min + 1.0
        spec = LengthSpectrum(entries=entries, cutoff=window + 1.0, complete_up_to=window)
        delta = (0.0, 0.4, 0.9)[i % 3]
        lam = complex(delta + float(np.exp(rng.uniform(np.log(0.01), np.log(60.0)))), (0.0, 3.0, -40.0)[i % 3])
        cases.append((spec, lam, delta, [float(l) for l in 0.2 + 2.0 * rng.random(int(rng.integers(0, 3)))]))
    cases.append((_empty_spectrum(), complex(2.0, 0.0), 0.0, []))
    monkeypatch.setattr(zeta_dyn, "_MAX_FACTORS", 60)
    monkeypatch.setattr(zeta_dyn, "_MAX_ENTRY_TERMS", 300)
    got = _ladder_outcomes(cases)
    monkeypatch.setattr(zeta_dyn, "_ladder_length", _reference_stop_rule)
    monkeypatch.setattr(zeta_dyn, "_ladder_tail", _reference_tails)
    want = _ladder_outcomes(cases)
    assert got == want
    # the lowered caps refuse some ladders of each kind and pass others
    for kind in ("factors", "entry terms"):
        assert any(w.startswith("refused") and w.endswith(f"{kind}; refused") for w in want)
    assert sum(not w.startswith("refused") for w in want) > len(want) // 2


def _one_entry_outcomes(monkeypatch, m_crit, l_min, shifts):
    """selberg on one entry at each real lambda, its ladder sized by the closed
    form and by the stepped loop: repr or refusal."""
    spec = LengthSpectrum(entries=(SpectrumEntry(length=l_min, multiplicity=m_crit),), cutoff=3.0, complete_up_to=3.0)

    def outcomes():
        out = []
        for s in (s for s in shifts if s > 0.0):
            try:
                out.append(repr(selberg(spec, s, 0.0)))
            except ConvergenceError as exc:
                out.append(str(exc))
        return out

    got = outcomes()
    with monkeypatch.context() as patched:
        patched.setattr(zeta_dyn, "_ladder_length", _reference_stop_rule)
        return got, outcomes()


def test_ladder_length_is_the_loop_length_at_every_rounding(monkeypatch):
    # n from the closed form is the first k where the stop rule's float test
    # fails, also where the closed form sits on an integer.  The terms are
    # stubbed out; the value then carries n.
    monkeypatch.setattr(zeta_dyn, "_sum_blocks",
                        lambda terms, width, lams, step, ns, per_factor: [(complex(n, step), {}) for n in ns])
    for m_crit in (1, 3, 6, 1000):
        for l_min in (0.01, 0.7, 2.0):
            target = math.log(m_crit / 1e-16) / l_min
            got, want = _one_entry_outcomes(monkeypatch, m_crit, l_min, (
                0.5, 1.0, target - 40.0, target - 40.0 + 1e-9, target + 3.0, math.nextafter(target, 0.0),
            ))
            assert got == want
    # ladders of 59 to 62 factors against a cap of 60
    monkeypatch.setattr(zeta_dyn, "_MAX_FACTORS", 60)
    for m_crit in (1, 3, 6, 1000):
        target = math.log(m_crit / 1e-16) / 0.01
        got, want = _one_entry_outcomes(monkeypatch, m_crit, 0.01, [target - k + 0.5 for k in range(59, 63)])
        assert got == want and sum(w.endswith("refused") for w in want) == 2


def test_ladder_length_for_a_multiplicity_near_the_largest_double():
    # m_crit / 1e-16 overflowed to inf here, and ceil(inf) raised OverflowError
    spectrum = LengthSpectrum(entries=(SpectrumEntry(length=1.0, multiplicity=10**300),),
                              cutoff=5.0, complete_up_to=4.0)
    for lam in (2.0, 2.5):
        value = selberg(spectrum, lam, 0.0)
        assert math.isfinite(value.log_value.real) and value.log_value.real < 0.0


def _six_entry_ladder():
    # l_min 2.5e-4 at lambda 0.5: 154532 factors of six entries
    entries = (SpectrumEntry(length=2.5e-4, multiplicity=1),) + tuple(
        SpectrumEntry(length=1.0 + 0.05 * i, multiplicity=1) for i in range(5)
    )
    return LengthSpectrum(entries=entries, cutoff=4.0, complete_up_to=4.0)


def test_long_ladder_bookkeeping_is_quick(monkeypatch):
    # The terms themselves (927192 libm log1p calls) are stubbed out: what is
    # timed is the ladder length and the counting tails, for which two
    # Python loops took about 0.13 s.  The tails stop once one no longer
    # moves their sum, a few dozen factors in.
    spec = _six_entry_ladder()
    ladders, tails = [], []
    counting_tail = zeta_dyn._counting_tail

    def no_terms(terms, width, lams, step, ns, per_factor):
        ladders.extend(ns)
        return [(complex(0.0, 0.0), {}) for _ in ns]

    def counted(*args):
        tails.append(args[2])
        return counting_tail(*args)

    monkeypatch.setattr(zeta_dyn, "_sum_blocks", no_terms)
    monkeypatch.setattr(zeta_dyn, "_counting_tail", counted)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        selberg(spec, 0.5, 0.0)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1
    assert ladders == [154532] * 3 and len(tails) < 3 * 100


def test_factor_cap_refusal_is_one_comparison():
    # l = 1e-5 asks for 3.7 million factors: refused without stepping to 200000
    spec = LengthSpectrum(entries=(SpectrumEntry(length=1e-5, multiplicity=1),), cutoff=1.0, complete_up_to=1.0)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="^Selberg ladder needs more than 200000 factors; refused$"):
            selberg(spec, 0.5, 0.0)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3


def _log1p_complex(u):
    """log(1 + u), accurate for small |u|; exactly real on the real line."""
    a, b = u.real, u.imag
    if b == 0.0:
        return complex(math.log1p(a), 0.0)
    return complex(0.5 * math.log1p(2.0 * a + a * a + b * b), math.atan2(b, 1.0 + a))


def _threshold_block():
    """a + ib on a grid around 2^-60: the floor and its neighbours, values
    between it and 2^-20, subnormals, signed zeros and non-tiny parts."""
    t = 2.0**-60
    sizes = [t, math.nextafter(t, 0.0), math.nextafter(t, 1.0), 2.0**-59, 1e-10, 1e-7,
             2.0**-1022, 2.0**-1030, 5e-324, 0.0, 1e-300, 1e-3, 0.4]
    parts = sizes + [-x for x in sizes]
    return np.array([[complex(a, b) for b in parts] for a in parts])


def _block_disagreements(u):
    """Elements where _log1p_block differs from the scalar _log1p_complex, sign of zero included."""
    got = zeta_dyn._log1p_block(u)
    return [(x, complex(g)) for x, g in zip(u.ravel(), got.ravel()) if repr(complex(g)) != repr(_log1p_complex(x))]


def test_log1p_block_shortcut_keeps_every_bit_at_the_floor(monkeypatch):
    u = _threshold_block()
    masks = []
    zeta_dyn._log1p_block(u, masks)
    skipped = (abs(u.real) < 2.0**-60) & (abs(u.imag) < 2.0**-60)
    assert [mask.tolist() for mask in masks] == [(~skipped).tolist()] and skipped.any()
    assert _block_disagreements(u) == []
    # the cases tell a loosened floor apart
    monkeypatch.setattr(zeta_dyn, "_LIBM_FLOOR", 2.0**-20)
    assert _block_disagreements(u) != []


def test_libm_returns_tiny_arguments_unchanged():
    # the 2^-60 shortcut of _log1p_block rests on this; a libm that breaks
    # it would change the bits of every Euler product that takes it
    rng = np.random.default_rng(60)
    mags = np.ldexp(1.0 + rng.random(20000), rng.integers(-1075, -60, 20000))
    edges = [math.nextafter(2.0**-60, 0.0), 2.0**-61, 2.0**-1022, math.nextafter(2.0**-1022, 0.0), 5e-324, 0.0]
    for x in [float(m) for m in mags] + edges:
        for v in (x, -x):
            assert (math.log1p(v).hex(), math.atan2(v, 1.0).hex(), 1.0 + v) == (v.hex(), v.hex(), 1.0)


def _reference_ruelle(spectrum, lam):
    """log R by the scalar loop: one cmath.exp and one log1p per entry."""
    total = complex(0.0, 0.0)
    for entry in hyperbolic._window_entries(spectrum):
        total += entry.multiplicity * _log1p_complex(-cmath.exp(-lam * entry.length))
    return total


def _reference_ladder_length(lam, step, m_crit, l_min):
    n = 0
    while m_crit and m_crit * math.exp(-(lam.real + step * n) * l_min) >= 1e-16:
        n += 1
    return n


def _reference_selberg(spectrum, lam):
    """log Z as a ruelle() sum per factor, the factors added in turn."""
    used = hyperbolic._window_entries(spectrum)
    l_min = min((e.length for e in used), default=math.inf)
    logs = complex(0.0, 0.0)
    for k in range(_reference_ladder_length(lam, 1, sum(e.multiplicity for e in used), l_min)):
        logs = logs + _reference_ruelle(spectrum, lam + k)
    return logs


def _reference_selberg_boundary(boundary, spectrum, lam):
    """log Z_g0 with one running total over factors, boundary lengths, entries."""
    used = [
        (-1.0 if e.reflections % 2 == 0 else 1.0, e.length, e.multiplicity)
        for e in hyperbolic._window_entries(spectrum)
    ]
    m_crit = 2 * len(boundary) + 2 * sum(m for _, _, m in used)
    l_min = min(boundary + [l for _, l, _ in used], default=math.inf)
    total = complex(0.0, 0.0)
    for k in range(_reference_ladder_length(lam, 2, m_crit, l_min)):
        shift = lam + 2 * k
        for l in boundary:
            total += 2.0 * _log1p_complex(-cmath.exp(-shift * l))
        for sign, l, m in used:
            first = _log1p_complex(sign * cmath.exp(-shift * l))
            second = _log1p_complex(-cmath.exp(-(shift + 1.0) * l))
            total += m * (first + second)
    return total


def _oracle_cases():
    """Seeded spectra, each with entries past its window, at 18 lambdas."""
    rng = np.random.default_rng(20261018)
    cases = []
    for i, re in enumerate((0.7, 3.0, 800.0) * 6):
        im = (0.0, -0.0, 50.0, -50.0, 1e5, -1e5)[i // 3]
        l_min = (0.05, 0.4, 1.2)[(i + i // 3) % 3]
        lengths = np.sort(l_min + 4.0 * rng.random(int(rng.integers(25, 41))))
        lengths[0] = l_min
        entries = tuple(
            SpectrumEntry(length=float(l), multiplicity=int(rng.integers(1, 4)), reflections=int(rng.integers(0, 6)))
            for l in lengths
        )
        window = l_min + 3.0
        boundary = [float(l) for l in 0.3 + 2.5 * rng.random(int(rng.integers(0, 3)))]
        spec = LengthSpectrum(entries=entries, cutoff=window + 1.0, complete_up_to=window)
        cases.append((spec, complex(re, im), boundary))
    return cases


def test_block_evaluation_is_bit_identical_to_scalar_loops(monkeypatch):
    cases = _oracle_cases()
    def selberg_terms(spec, lam):
        used = hyperbolic._window_entries(spec)
        return len(used) * _reference_ladder_length(lam, 1, sum(e.multiplicity for e in used), used[0].length)

    # l_min 0.05 at Re lambda 0.7 makes Selberg ladders of more than one block
    assert max(selberg_terms(spec, lam) for spec, lam, _ in cases) > zeta_dyn._BLOCK_TERMS
    # and at Re lambda 800 the longer entries underflow exp
    assert any(cmath.exp(-lam * spec.entries[-1].length) == 0.0 for spec, lam, _ in cases)
    want = [
        (_reference_ruelle(spec, lam), _reference_selberg(spec, lam), _reference_selberg_boundary(b, spec, lam))
        for spec, lam, b in cases
    ]
    # at 24 terms a block holds several short rows or part of a long one
    for block_terms in (zeta_dyn._BLOCK_TERMS, 24):
        monkeypatch.setattr(zeta_dyn, "_BLOCK_TERMS", block_terms)
        for (spec, lam, boundary), values in zip(cases, want):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = (ruelle(spec, lam, 0.0), selberg(spec, lam, 0.0), _selberg_boundary(boundary, spec, lam, 0.0))
            assert [repr(v.log_value) for v in got] == [repr(v) for v in values]


# the _zeta_grid kind each one-point call evaluates
_GRID_KIND = {ruelle: "ruelle", selberg: "selberg", _selberg_boundary: "selberg_boundary"}


def _one_point(kind, spectrum, lam, delta, boundary):
    return kind(boundary, spectrum, lam, delta) if kind is _selberg_boundary else kind(spectrum, lam, delta)


def _outcomes(values):
    """(repr, work) of each value a grid yields, then the refusal's type and message."""
    out = []
    try:
        for value in values:
            out.append((repr(value), value._work))
    except (ConvergenceError, DomainError) as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


def test_grid_pass_equals_its_one_point_calls_bit_for_bit(monkeypatch):
    # Seeded spectra with lambdas in no order, real and complex.  Each grid
    # value, bar and work record must be the one-point call's, to the bit.
    blocks = []
    log1p_block = zeta_dyn._log1p_block
    monkeypatch.setattr(zeta_dyn, "_log1p_block", lambda u, masks=None: blocks.append(u.shape) or log1p_block(u, masks))
    crossed = shared = False
    cases = _oracle_cases()
    # long ladders (Re lambda 0.7) in full blocks; short ones in blocks of 24
    # terms, where a block holds rows of several lambdas or part of one row
    for block_terms, picks in ((zeta_dyn._BLOCK_TERMS, (0, 3, 9, 15)), (24, (1, 2, 4, 8, 10, 14))):
        monkeypatch.setattr(zeta_dyn, "_BLOCK_TERMS", block_terms)
        for spec, lam, boundary in (cases[i] for i in picks):
            lams = [lam, complex(lam.real + 0.35, -lam.imag), complex(max(lam.real - 0.3, 0.05), 0.0), lam + 2.0]
            for kind in (ruelle, selberg, _selberg_boundary):
                b = boundary if kind is _selberg_boundary else ()
                blocks.clear()
                grid = _outcomes(zeta_dyn._zeta_grid(_GRID_KIND[kind], spec, lams, 0.0, b))
                grid_blocks = len(blocks)
                loop = _outcomes(_one_point(kind, spec, z, 0.0, b) for z in lams)
                assert grid == loop
                assert grid_blocks <= len(blocks) - grid_blocks  # never more log1p passes than the loop
                shared |= grid_blocks < len(blocks) - grid_blocks
                # some ladder starts in one block and ends in the next
                width = grid[0][1]["entry_terms"] // max(grid[0][1]["factors"], 1)
                rows = max(1, block_terms // max(width, 1))
                starts = np.cumsum([0] + [work["factors"] for _, work in grid])
                crossed |= block_terms == zeta_dyn._BLOCK_TERMS and any(
                    a // rows != (b - 1) // rows for a, b in zip(starts[:-1], starts[1:]) if b > a
                )
    assert crossed and shared


def test_grid_refusal_comes_where_the_loop_raises_it(monkeypatch):
    # A lambda refused after others, by its phase, its ladder's size or a
    # value that is not finite: the grid yields the values before it, then
    # raises the same error, as one call per lambda would.
    spec = LengthSpectrum(entries=tuple(SpectrumEntry(length=0.5 + 0.4 * i, multiplicity=1 + i % 3, reflections=i % 4)
                                        for i in range(3)), cutoff=2.0, complete_up_to=1.5)
    huge = LengthSpectrum(entries=tuple(SpectrumEntry(length=1.0 + 0.05 * i, multiplicity=10**307, reflections=0)
                                        for i in range(15)), cutoff=21.0, complete_up_to=20.0)
    monkeypatch.setattr(zeta_dyn, "_MAX_ENTRY_TERMS", 150)
    cases = (
        (spec, [40.0, complex(2.0, 1e12), 3.0], 0.0, "DomainError"),  # the phase
        (spec, [40.0, 41.0, 1.0], 0.0, "ConvergenceError"),  # the entry-term cap
        (spec, [40.0, 0.2, 3.0], 0.3, "DomainError"),  # the convergence region
        (huge, [30.0, 0.1], 0.09, "DomainError"),  # a log R that is not finite
    )
    for spectrum, lams, delta, refusal in cases:
        kinds = (ruelle,) if spectrum is huge else (ruelle, selberg, _selberg_boundary)
        for kind in kinds:
            b = [1.0] if kind is _selberg_boundary else ()
            grid = _outcomes(zeta_dyn._zeta_grid(_GRID_KIND[kind], spectrum, lams, delta, b))
            assert grid == _outcomes(_one_point(kind, spectrum, z, delta, b) for z in lams)
            if kind is not ruelle or refusal != "ConvergenceError":
                assert grid[-1][0] == refusal and len(grid) > 1


def test_grid_refuses_a_kind_it_does_not_know():
    # The kinds are the values of cli._KINDS, one per --kind; a misspelt
    # kind was summed as a Ruelle ladder (log value -0.06609
    # for "selberg_boundry" on the claims pair at lambda 2) and is refused
    # before any lambda.
    pair = enumerate_primitive_classes(claims.schottky_pair(), 6.0)
    spec = LengthSpectrum(entries=tuple(SpectrumEntry(length=e.length, multiplicity=e.multiplicity, reflections=i % 3)
                                        for i, e in enumerate(pair.entries)), cutoff=6.0, complete_up_to=6.0)
    for kind in (ruelle, selberg, _selberg_boundary):
        b = [1.0] if kind is _selberg_boundary else ()
        assert len(list(zeta_dyn._zeta_grid(_GRID_KIND[kind], spec, [2.0], 0.55, b))) == 1
    for kind in ("selberg_boundry", "Ruelle", "selberg-g0", ""):
        for lams in ([2.0], []):
            with pytest.raises(ValueError, match="^unknown zeta kind"):
                list(zeta_dyn._zeta_grid(kind, pair, lams, 0.55))


def test_sub_resolution_lambda_is_refused_in_its_turn():
    # A factor whose 1 + u rounds to 0 raised ValueError from log1p, and a
    # window where e^{-Re(lambda) W} rounds to 1 made the counting tail divide
    # by 0.  Each is refused with DomainError in its lambda's turn: a grid
    # yields the values before it, to the bit, then raises.
    spec = LengthSpectrum(entries=tuple(SpectrumEntry(length=0.5 + 0.4 * i, multiplicity=1 + i % 3, reflections=i % 4)
                                        for i in range(3)), cutoff=2.0, complete_up_to=1.5)
    for kind in (ruelle, selberg, _selberg_boundary):
        b = [1.0] if kind is _selberg_boundary else ()
        # e^{-Re(lambda) W} rounds to 1 at W = 1.5 for the first, third and last; a
        # factor's 1 + u rounds to 0 for 5e-17 (at l = 0.5) and, by cancellation, 1e-12+1e-9j
        for tiny in (1e-17, 5e-17, 1e-300, complex(1e-12, 1e-9), complex(1e-18, 1.0)):
            with pytest.raises(DomainError):
                _one_point(kind, spec, tiny, 0.0, b)
            grid = _outcomes(zeta_dyn._zeta_grid(_GRID_KIND[kind], spec, [2.0, tiny, 3.0], 0.0, b))
            assert grid[0] == _outcomes([_one_point(kind, spec, 2.0, 0.0, b)])[0]
            assert [row[0] for row in grid[1:]] == ["DomainError"]
    # a real lambda this small keeps its factors' last digits, and its value
    for tiny in (1e-12, 1e-9):
        assert repr(ruelle(spec, tiny, 0.0).log_value) == repr(_reference_ruelle(spec, complex(tiny)))
    for kind in (ruelle, selberg):
        with pytest.raises(DomainError, match="rounds to 1"):
            kind(_empty_spectrum(4.0), 1e-17, 0.0)


def test_total_multiplicity_past_a_double_is_refused():
    # float() of the count raised OverflowError in the tails and the ladder's stop rule
    def spectrum(n):
        return LengthSpectrum(entries=tuple(SpectrumEntry(length=1.0 + 0.05 * i, multiplicity=10**307, reflections=0)
                                            for i in range(n)), cutoff=21.0, complete_up_to=20.0)
    refused = (
        lambda: ruelle(spectrum(20), 30.0, 0.0),
        lambda: selberg(spectrum(20), 30.0, 0.0),
        # 2 (1 + 15e307) boundary and interior factors, though the interior count fits
        lambda: _selberg_boundary([1.0], spectrum(15), 30.0, 0.0),
    )
    for call in refused:
        with pytest.raises(DomainError, match="total multiplicity passes the largest double"):
            call()
    assert ruelle(spectrum(15), 30.0, 0.09).log_value.real < 0.0


def test_every_kind_takes_any_multiplicity_a_double_holds():
    # Z_g0 built its columns from an array of mixed tuples, which numpy could not
    # make float past int64: multiplicity 2^64 raised TypeError.  Every kind now
    # weights a column by float(m), and 2^64 - 1 rounds to the same weight.
    def spectrum(m):
        return LengthSpectrum(entries=(SpectrumEntry(length=1.0, multiplicity=m, reflections=0),),
                              cutoff=2.0, complete_up_to=2.0)

    for kind, boundary in ((ruelle, ()), (selberg, ()), (_selberg_boundary, ([1.0],))):
        values = [repr(kind(*boundary, spectrum(m), 30.0, 0.0)) for m in (2**64, 2**64 - 1)]
        assert values[0] == values[1]


def test_selberg_positivity_real_lambda():
    grp = _schottky_pair()
    spec = enumerate_primitive_classes(grp, 10.0)
    for lam in (1.0, 2.0, 3.5):
        val = selberg(spec, lam, DELTA_PAIR)
        assert val.log_value.imag == 0.0
        assert math.exp(val.log_value.real) > 0.0


def test_selberg_far_right_is_one():
    val = selberg(_cyclic_spectrum(2.0), 50.0, 0.0)
    assert val.log_value == 0.0
    assert val.tail_bound < 1e-30


def test_selberg_telescoping_example():
    grp = _schottky_pair()
    spec = enumerate_primitive_classes(grp, 10.0)
    r = ruelle(spec, 3.0, DELTA_PAIR)
    z3 = selberg(spec, 3.0, DELTA_PAIR)
    z4 = selberg(spec, 4.0, DELTA_PAIR)
    gap = abs(z3.log_value - r.log_value - z4.log_value)
    assert gap <= r.tail_bound + z3.tail_bound + z4.tail_bound


def _rz(spec, lam, delta_hint):
    """R(lam), Z(lam), Z(lam + 1) and the residual |log R - (log Z(lam) - log Z(lam + 1))|."""
    r = ruelle(spec, lam, delta_hint)
    z1 = selberg(spec, lam, delta_hint)
    z2 = selberg(spec, lam + 1.0, delta_hint)
    return r, z1, z2, abs(r.log_value - (z1.log_value - z2.log_value))


def test_rz_identity_cyclic_tight():
    assert _rz(_cyclic_spectrum(2.0), 1.0, 0.0)[3] <= 1e-14


def test_rz_identity_empty_is_zero():
    assert _rz(_empty_spectrum(), 2.0, 0.0)[3] == 0.0


def test_rz_identity_schottky_within_bounds():
    grp = _schottky_pair()
    spec = enumerate_primitive_classes(grp, 10.0)
    for lam in (1.5, 2.0, 3.0):
        r, z1, z2, resid = _rz(spec, lam, DELTA_PAIR)
        assert resid <= r.tail_bound + z1.tail_bound + z2.tail_bound + 1e-13


def test_rz_identity_random_lambdas():
    spec = _cyclic_spectrum(1.4)
    rng = np.random.default_rng(20260818)
    for _ in range(25):
        lam = complex(0.6 + 3.0 * rng.random(), 2.0 * rng.random() - 1.0)
        r, z1, z2, resid = _rz(spec, lam, 0.0)
        assert resid <= r.tail_bound + z1.tail_bound + z2.tail_bound + 1e-13


def test_boundary_zeta_boundary_only_closed_form():
    # One boundary geodesic, no interior classes:
    # Z_g0(lam) = prod_k (1 - e^{-(lam+2k) l})^2.
    lb = 1.5
    lam = 1.25
    val = _selberg_boundary([lb], _empty_spectrum(), lam, 0.0)
    direct = 0.0
    for k in range(400):
        direct += 2.0 * math.log1p(-math.exp(-(lam + 2.0 * k) * lb))
    assert val.log_value.real == pytest.approx(direct, abs=1e-13)
    assert val.log_value.imag == 0.0


def test_boundary_zeta_odd_reflection_sign():
    # Odd reflection count flips the first interior factor to 1 + e^{-lam l}.
    ell = 2.0
    lam = 1.4
    spec = LengthSpectrum(
        entries=(SpectrumEntry(length=ell, multiplicity=1, reflections=1),),
        cutoff=6.0,
        complete_up_to=6.0,
    )
    val = _selberg_boundary([], spec, lam, 0.0)
    direct = 0.0
    for k in range(300):
        shift = lam + 2.0 * k
        direct += math.log1p(math.exp(-shift * ell))
        direct += math.log1p(-math.exp(-(shift + 1.0) * ell))
    assert val.log_value.real == pytest.approx(direct, abs=1e-13)


def test_boundary_zeta_even_reflection_sign():
    ell = 1.8
    lam = 1.1
    spec = LengthSpectrum(
        entries=(SpectrumEntry(length=ell, multiplicity=1, reflections=2),),
        cutoff=6.0,
        complete_up_to=6.0,
    )
    val = _selberg_boundary([], spec, lam, 0.0)
    direct = 0.0
    for k in range(300):
        shift = lam + 2.0 * k
        direct += math.log1p(-math.exp(-shift * ell))
        direct += math.log1p(-math.exp(-(shift + 1.0) * ell))
    assert val.log_value.real == pytest.approx(direct, abs=1e-13)


def test_boundary_zeta_synthetic_oracle():
    # Mixed synthetic spectrum against a direct product evaluation.
    boundary = [1.0, 1.7]
    spec = LengthSpectrum(
        entries=(
            SpectrumEntry(length=1.2, multiplicity=1, reflections=2),
            SpectrumEntry(length=2.3, multiplicity=2, reflections=1),
            SpectrumEntry(length=3.1, multiplicity=1, reflections=0),
        ),
        cutoff=5.0,
        complete_up_to=5.0,
    )
    for lam in (1.3, 2.0, complex(1.6, 0.8)):
        val = _selberg_boundary(boundary, spec, lam, 0.0)
        direct = complex(0.0, 0.0)
        for k in range(400):
            shift = lam + 2.0 * k
            for lb in boundary:
                direct += 2.0 * cmath.log(1.0 - cmath.exp(-shift * lb))
            for e in spec.entries:
                sign = -1.0 if e.reflections % 2 == 0 else 1.0
                direct += e.multiplicity * cmath.log(
                    1.0 + sign * cmath.exp(-shift * e.length)
                )
                direct += e.multiplicity * cmath.log(
                    1.0 - cmath.exp(-(shift + 1.0) * e.length)
                )
        assert abs(val.log_value - direct) <= 1e-13


def test_boundary_zeta_requires_reflections():
    spec = LengthSpectrum(
        entries=(SpectrumEntry(length=2.0, multiplicity=2),),
        cutoff=6.0,
        complete_up_to=6.0,
    )
    with pytest.raises(DomainError):
        _selberg_boundary([1.0], spec, 1.5, 0.0)


def test_boundary_zeta_rejects_bad_boundary_lengths():
    spec = _empty_spectrum()
    with pytest.raises(DomainError):
        _selberg_boundary([-1.0], spec, 1.5, 0.0)
    with pytest.raises(DomainError):
        _selberg_boundary([math.inf], spec, 1.5, 0.0)


def test_boundary_zeta_region_check():
    with pytest.raises(DomainError):
        _selberg_boundary([1.0], _empty_spectrum(), 0.3, 0.5)


def test_phase_past_float_digits_is_refused():
    # Im lambda * l > 2^30, l the longest length the product uses; at
    # 2 + 1e16j the float phase keeps no digit (log R off by 0.02 there
    # against a tail bound of 6e-4).
    spec = enumerate_primitive_classes(claims.schottky_pair(), 6.0)
    for lam in (2.0 + 1e16j, 2.0 - 1e16j, 2.0 + 1e300j):
        for zeta in (ruelle, selberg):
            with pytest.raises(DomainError, match="2\\^30"):
                zeta(spec, lam, 0.7)
    # Z_g0 counts its boundary lengths too: 1e8 * 100 > 2^30 > 1e8 * 1
    reflected = LengthSpectrum(
        entries=(SpectrumEntry(length=0.5, multiplicity=2, reflections=1),),
        cutoff=1.0,
        complete_up_to=1.0,
    )
    ruelle(reflected, 2.0 + 1e8j, 0.0)
    _selberg_boundary([1.0], reflected, 2.0 + 1e8j, 0.0)
    with pytest.raises(DomainError, match="2\\^30"):
        _selberg_boundary([1.0, 100.0], reflected, 2.0 + 1e8j, 0.0)


def test_admitted_large_phase_stays_within_tail_bound():
    # ORACLE: mpmath at 50 digits over the same classes; Im lambda = 1e8
    # puts Im(lambda) l at 6e8 < 2^30 on the claims pair at l_max 6.
    spec = enumerate_primitive_classes(claims.schottky_pair(), 6.0)
    lam = 2.0 + 1e8j
    with mpmath.workdps(50):
        def log_r(shift):
            z = mpmath.mpc(lam.real + shift, lam.imag)
            return sum(
                e.multiplicity * mpmath.log(1 - mpmath.exp(-z * mpmath.mpf(e.length)))
                for e in spec.entries
            )

        want_r = complex(log_r(0))
        want_z = complex(sum(log_r(k) for k in range(60)))
    for got, want in ((ruelle(spec, lam, 0.7), want_r), (selberg(spec, lam, 0.7), want_z)):
        diff = got.log_value - want
        # logs agree up to a multiple of 2 pi i
        diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
        assert abs(diff) <= got.tail_bound
        assert abs(diff) <= 1e-8


@pytest.mark.parametrize("lam", [10 + 1000j, 8 + 1e6j, 10 + 4j, 12 + 0j])
def test_ruelle_tail_bound_covers_rounding(lam):
    # ORACLE: mpmath at 60 digits over the same classes.  Far right the
    # truncated tail is far below an ulp of the sum (4.4e-30 at 12 against
    # an error of 1.3e-26), so only a rounding term keeps the bar honest.
    spec = enumerate_primitive_classes(claims.schottky_pair(), 6.0)
    with mpmath.workdps(60):
        z = mpmath.mpc(lam.real, lam.imag)
        want = complex(
            sum(
                e.multiplicity * mpmath.log(1 - mpmath.exp(-z * mpmath.mpf(e.length)))
                for e in spec.entries
                if e.length <= spec.complete_up_to
            )
        )
    got = ruelle(spec, lam, 0.7)
    diff = got.log_value - want
    diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
    assert abs(diff) <= got.tail_bound


def test_zeta_values_deterministic():
    grp = _schottky_pair()
    spec = enumerate_primitive_classes(grp, 10.0)
    a = ruelle(spec, 2.0, DELTA_PAIR)
    b = ruelle(spec, 2.0, DELTA_PAIR)
    assert a == b
    za = selberg(spec, 2.0, DELTA_PAIR)
    zb = selberg(spec, 2.0, DELTA_PAIR)
    assert za == zb
