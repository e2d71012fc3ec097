"""Tests for the isometry and length-spectrum machinery."""

import hashlib
import itertools
import json
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from dnzeta import claims
from dnzeta.errors import (
    DomainError,
    EnumerationBudgetError,
    InsufficientDataError,
)
from dnzeta.hyperbolic import (
    ExponentEstimate,
    GroupPresentation,
    LengthSpectrum,
    MobiusTransform,
    SpectrumEntry,
    enumerate_primitive_classes,
    exponent_estimate,
    _primitive_classes,
    spectrum_from_json,
    spectrum_to_json,
    translation_length,
)


def _dilation(t):
    return MobiusTransform(math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2))


def _schottky_pair(t1=2.0, t2=2.4, p=-3.0, q=3.0):
    # Second axis ends at p and q on the boundary.
    g1 = _dilation(t1)
    conj = np.array([[q, p], [1.0, 1.0]]) / math.sqrt(q - p)
    m = conj @ np.diag([math.exp(t2 / 2), math.exp(-t2 / 2)]) @ np.linalg.inv(conj)
    g2 = MobiusTransform(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return GroupPresentation(generators=(g1, g2))


def test_normalization_rescales_determinant():
    m = MobiusTransform(2.0 * math.e, 0.0, 0.0, 2.0 * math.exp(-1.0))
    assert m.a * m.d - m.b * m.c == pytest.approx(1.0, abs=1e-13)
    assert m.a == pytest.approx(math.e, rel=1e-13)


def test_normalization_sign_canonical():
    plus = _dilation(2.0)
    minus = MobiusTransform(-math.e, 0.0, 0.0, -math.exp(-1.0))
    assert minus == plus


@pytest.mark.parametrize(
    "entries", [(1.0, 0.0, 0.0, -1.0), (1.0, 2.0, 2.0, 4.0), (math.inf, 0.0, 0.0, 1.0)]
)
def test_normalization_rejects_bad_matrices(entries):
    with pytest.raises(DomainError):
        MobiusTransform(*entries)


def test_classification():
    assert MobiusTransform(1.0, 0.0, 0.0, 1.0).classify() == "identity"
    assert MobiusTransform(1.0, 1.0, 0.0, 1.0).classify() == "parabolic"
    th = 0.3
    rot = MobiusTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
    assert rot.classify() == "elliptic"
    assert _dilation(2.0).classify() == "hyperbolic"
    assert _dilation(2.0).is_hyperbolic()


def test_apply_and_compose():
    g = _dilation(2.0)
    assert g.apply(1j) == pytest.approx(math.exp(2.0) * 1j, rel=1e-14)
    assert g.compose(g.inverse()).classify() == "identity"
    h = MobiusTransform(3.0, -1.0, 1.0, 0.0)
    both = g @ h
    assert both.a == pytest.approx(g.a * h.a + g.b * h.c, rel=1e-13)


def test_translation_length_dilation():
    assert translation_length(_dilation(2.0)) == pytest.approx(2.0, rel=1e-14)


def test_translation_length_trace_three():
    m = MobiusTransform(3.0, -1.0, 1.0, 0.0)
    got = translation_length(m)
    assert got == pytest.approx(2.0 * math.acosh(1.5), rel=1e-14)
    assert got == pytest.approx(1.9248473002384139, rel=1e-12)
    # Independent oracle: diagonalize and read off the dilation factor.
    eig = np.linalg.eigvals(np.array([[m.a, m.b], [m.c, m.d]]))
    assert got == pytest.approx(2.0 * math.log(max(abs(eig))), rel=1e-12)


def test_translation_length_rejects_non_hyperbolic():
    with pytest.raises(DomainError):
        translation_length(MobiusTransform(1.0, 0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        translation_length(MobiusTransform(1.0, 1.0, 0.0, 1.0))
    th = 0.4
    with pytest.raises(DomainError):
        translation_length(
            MobiusTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
        )


def test_translation_length_conjugation_invariant():
    rng = np.random.default_rng(20260818)
    m = MobiusTransform(3.0, -1.0, 1.0, 0.0)
    base = translation_length(m)
    for _ in range(100):
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if a * d - b * c <= 0.1:
            continue
        w = MobiusTransform(a, b, c, d)
        conj = w @ m @ w.inverse()
        assert abs(translation_length(conj) - base) <= 1e-10
    assert translation_length(m.inverse()) == base


def test_group_screening_accepts_schottky_pair():
    grp = _schottky_pair()
    assert grp.labels == ("a", "b")


def test_group_screening_rejects_bad_input():
    th = 0.3
    rot = MobiusTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
    with pytest.raises(DomainError, match=r"^word a is elliptic, not hyperbolic; "):
        GroupPresentation(generators=(rot,))
    with pytest.raises(DomainError, match=r"^word a is parabolic, not hyperbolic; "):
        GroupPresentation(generators=(MobiusTransform(1.0, 1.0, 0.0, 1.0),))
    # A repeated generator makes a*b^-1 the identity; a*a*b^-1*b^-1 is
    # too, and comes first in word order.
    g = _dilation(2.0)
    with pytest.raises(DomainError) as err:
        GroupPresentation(generators=(g, g))
    assert str(err.value).startswith("word a*a*b^-1*b^-1 is identity, not hyperbolic; ")
    with pytest.raises(DomainError):
        GroupPresentation(generators=())
    with pytest.raises(DomainError):
        GroupPresentation(generators=(g,), labels=("x", "y"))


def _gaussian_pairs(seed, count):
    # Two generators with standard normal entries; the sign of the first
    # row makes each determinant positive.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = rng.normal(size=(2, 2, 2))
        m[:, 0] *= np.sign(np.linalg.det(m))[:, None]
        yield tuple(MobiusTransform(*x.ravel()) for x in m)


def _screen_message(word, kind):
    return f"word {word} is {kind}, not hyperbolic; input is not a separated free system"


@pytest.mark.parametrize(
    ("draw", "word"),
    [(8, "a*a*b^-1*b^-1"), (13, "a*b*a*b^-1"), (23, "a*b^-1*b^-1*b^-1")],
)
def test_screen_reports_least_failing_word(draw, word):
    # In each draw a one-letter word fails too, but the report is the
    # least failing class word in word order.
    gens = list(_gaussian_pairs(7, draw + 1))[draw]
    with pytest.raises(DomainError) as err:
        GroupPresentation(generators=gens)
    assert str(err.value) == _screen_message(word, "elliptic")


def test_screen_matches_word_order_reference():
    # Reference: every word of at most 4 letters in word order, products
    # accumulated letter by letter; the first class word with |tr| <= 2.
    words = sorted(
        w for n in range(1, 5) for w in itertools.product(range(4), repeat=n) if _is_class_word(w)
    )
    for gens in _gaussian_pairs(11, 300):
        mats = []
        for g in gens:
            mats += [(g.a, g.b, g.c, g.d), (g.d, -g.b, -g.c, g.a)]
        want = None
        for w in words:
            a, b, c, d = 1.0, 0.0, 0.0, 1.0
            for letter in w:
                e, f, g, h = mats[letter]
                a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            if abs(a + d) <= 2.0 + 1e-12:
                label = "*".join("ab"[x // 2] + "^-1" * (x % 2) for x in w)
                want = _screen_message(label, MobiusTransform(a, b, c, d).classify())
                break
        try:
            GroupPresentation(generators=gens)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == want


def test_cyclic_spectrum_orientation_pair():
    grp = GroupPresentation(generators=(_dilation(2.0),))
    spec = enumerate_primitive_classes(grp, 10.0)
    # Two oriented primitive classes at the generator length; powers excluded.
    assert len(spec.entries) == 1
    assert spec.entries[0].length == pytest.approx(2.0, rel=1e-14)
    assert spec.entries[0].multiplicity == 2
    assert spec.complete_up_to == pytest.approx(10.0)
    assert spec.cutoff == pytest.approx(10.0)


def test_cyclic_spectrum_below_shortest_length():
    grp = GroupPresentation(generators=(_dilation(2.0),))
    spec = enumerate_primitive_classes(grp, 1.0)
    assert spec.entries == ()
    assert spec.complete_up_to == pytest.approx(1.0)


def test_schottky_shortest_entries():
    spec = enumerate_primitive_classes(_schottky_pair(), 6.0)
    assert spec.entries[0].length == pytest.approx(2.0, rel=1e-12)
    assert spec.entries[0].multiplicity == 2
    assert spec.entries[1].length == pytest.approx(2.4, rel=1e-12)
    assert spec.entries[1].multiplicity == 2
    lengths = [e.length for e in spec.entries]
    assert lengths == sorted(lengths)


def test_spectrum_deterministic():
    grp = _schottky_pair()
    a = enumerate_primitive_classes(grp, 8.0)
    b = enumerate_primitive_classes(grp, 8.0)
    assert a == b
    assert spectrum_to_json(a) == spectrum_to_json(b)


def test_spectrum_inverse_symmetry():
    grp = _schottky_pair()
    g1, g2 = grp.generators
    flipped = GroupPresentation(generators=(g1.inverse(), g2.inverse()))
    a = enumerate_primitive_classes(grp, 8.0)
    b = enumerate_primitive_classes(flipped, 8.0)
    assert len(a.entries) == len(b.entries)
    for ea, eb in zip(a.entries, b.entries):
        assert ea.length == pytest.approx(eb.length, rel=1e-9)
        assert ea.multiplicity == eb.multiplicity


def _reduced_words(depth):
    words = []
    for n in range(1, depth + 1):
        for w in itertools.product(range(4), repeat=n):
            if any(w[i + 1] == w[i] ^ 1 for i in range(n - 1)):
                continue
            words.append(w)
    return words


def _oracle_matrix(word, mats):
    m = np.eye(2)
    for letter in word:
        m = m @ mats[letter]
    if np.trace(m) < 0:
        m = -m
    return m


def _oracle_close(xs, y):
    # per matrix x of the stack xs: max|x - y| <= 1e-8 max(1, max|x|, max|y|)
    scale = np.maximum(1.0, np.maximum(np.abs(xs).max(axis=(-2, -1)), np.abs(y).max()))
    return np.abs(xs - y).max(axis=(-2, -1)) <= 1e-8 * scale


def test_brute_force_oracle_equivalence():
    # Naive oracle: every word of length <= 5, cyclic reduction by hand,
    # conjugacy tested at matrix level over all short conjugators.
    grp = _schottky_pair()
    mats = []
    for g in grp.generators:
        mats.append(np.array([[g.a, g.b], [g.c, g.d]]))
        mats.append(np.array([[g.d, -g.b], [-g.c, g.a]]))
    words = _reduced_words(5)
    conjugators = np.array([np.eye(2)] + [_oracle_matrix(w, mats) for w in words])
    conjugators_inv = np.linalg.inv(conjugators)

    cyc_words = set()
    for w in words:
        w = list(w)
        while len(w) >= 2 and w[-1] == w[0] ^ 1:
            w = w[1:-1]
        if w:
            cyc_words.add(tuple(w))

    def conjugate_in_group(m, rep):
        return bool(np.any(_oracle_close(conjugators @ m @ conjugators_inv, rep)))

    reps = []  # (length, word_len, matrix)
    for w in sorted(cyc_words):
        m = _oracle_matrix(w, mats)
        ell = 2.0 * math.acosh(0.5 * abs(np.trace(m)))
        hit = False
        for length, _, rep in reps:
            if abs(length - ell) <= 1e-7 and conjugate_in_group(m, rep):
                hit = True
                break
        if not hit:
            reps.append((ell, len(w), m))

    primitive = []
    for ell, n, rep in reps:
        is_power = False
        for w in sorted(cyc_words):
            if len(w) >= n or n % len(w) != 0:
                continue
            power = np.linalg.matrix_power(_oracle_matrix(w, mats), n // len(w))
            if np.trace(power) < 0:
                power = -power
            if conjugate_in_group(power, rep):
                is_power = True
                break
        if not is_power:
            primitive.append(ell)

    primitive.sort()
    oracle_entries = []
    i = 0
    while i < len(primitive):
        j = i
        while j < len(primitive) and primitive[j] - primitive[i] <= 1e-9:
            j += 1
        oracle_entries.append((primitive[i], j - i))
        i = j

    spec = enumerate_primitive_classes(grp, 20.0, max_word_len=5)
    got = [(e.length, e.multiplicity) for e in spec.entries]
    assert len(got) == len(oracle_entries)
    for (gl, gm), (ol, om) in zip(got, oracle_entries):
        assert gl == pytest.approx(ol, abs=1e-9)
        assert gm == om


def _spectrum_digest(spec):
    return hashlib.sha256(spectrum_to_json(spec).encode()).hexdigest()


@pytest.mark.parametrize(
    ("l_max", "digest"),
    [
        (12.0, "d62adf9843f27ca76ed6e6627f5b8dbd24119a19af4ddb633a9481b9158f12cf"),
        (13.0, "a9cb33e6b308f6354d1d6b39e991156838ba29ff724523e3bd99b6416af37dff"),
    ],
    ids=["l_max=12", "l_max=13"],
)
def test_claims_pair_spectrum_bytes_are_pinned(l_max, digest):
    spec = enumerate_primitive_classes(claims.schottky_pair(), l_max)
    assert _spectrum_digest(spec) == digest


@pytest.mark.parametrize(
    ("depth", "digest"),
    [
        (9, "2b3bf007c1af7b468cab34ab36640fbbccce23bc33731498fcc1ec286c2fde65"),
        (11, "2e2c43f9fe2bfcbf71d4977bb01d9c66ce6f6210fb9a61606cc57c356b2e9b63"),
    ],
    ids=["depth=9", "depth=11"],
)
def test_close_axes_spectrum_bytes_are_pinned(depth, digest):
    # Lengths 3 and 3, second axis on (-5, 0.2); the cutoff is the one
    # `dnzeta spectrum --max-word-len` picks.
    grp = _schottky_pair(3.0, 3.0, -5.0, 0.2)
    spec = enumerate_primitive_classes(grp, depth * 1.5, max_word_len=depth)
    assert _spectrum_digest(spec) == digest


def _separated_generators(k):
    # Translation length 6 on the disjoint axes (0, inf), (-2, -1), (-8, -4).
    g0, g1 = _schottky_pair(6.0, 6.0, -2.0, -1.0).generators
    g2 = _schottky_pair(6.0, 6.0, -8.0, -4.0).generators[1]
    return (g0, g1, g2)[:k]


def _is_class_word(w):
    n = len(w)
    if any(w[i + 1] == w[i] ^ 1 for i in range(n - 1)) or w[-1] == w[0] ^ 1:
        return False
    rotations = [w[i:] + w[:i] for i in range(1, n)]
    return all(r > w for r in rotations)  # aperiodic and minimal


@pytest.mark.parametrize(("k", "w_max"), [(1, 7), (2, 7), (3, 6)])
def test_walk_matches_brute_force_words_and_products(k, w_max):
    gens = _separated_generators(k)
    n_letters = 2 * k
    want = sorted(
        bytes(w)
        for n in range(1, w_max + 1)
        for w in itertools.product(range(n_letters), repeat=n)
        if _is_class_word(w)
    )
    got = _primitive_classes(gens, "abc"[:k], w_max, 1e300)
    assert [word for _, word in got] == want
    mats = []
    for g in gens:
        mats += [(g.a, g.b, g.c, g.d), (g.d, -g.b, -g.c, g.a)]
    for ell, word in got:
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for letter in word:
            e, f, g, h = mats[letter]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        assert ell == 2.0 * math.acosh(0.5 * abs(a + d))


def test_enumeration_memory_follows_classes_kept():
    # Depth 11 walks about 54,000 prenecklaces to keep 898 classes under
    # 13.5; only the kept ones may stay in memory.
    grp = _schottky_pair(3.0, 3.0, -5.0, 0.2)
    enumerate_primitive_classes(grp, 13.5, max_word_len=11)
    tracemalloc.start()
    try:
        enumerate_primitive_classes(grp, 13.5, max_word_len=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


def test_one_generator_deep_walk():
    # One dilation of length 2: l_max 3000 asks for depth 3000, two
    # chains of powers, of which only g and g^-1 are primitive.
    grp = GroupPresentation(generators=(_dilation(2.0),))
    start = time.perf_counter()
    spec = enumerate_primitive_classes(grp, 3000.0)
    assert time.perf_counter() - start < 5.0
    assert [e.multiplicity for e in spec.entries] == [2]
    assert spec.entries[0].length == pytest.approx(2.0, rel=1e-12)
    assert spec.complete_up_to == pytest.approx(3000.0)
    # Powers are never grown, so depth costs nothing and the walk's state
    # stays flat.
    start = time.perf_counter()
    spec = enumerate_primitive_classes(grp, 3000.0, max_word_len=2_500_000)
    assert time.perf_counter() - start < 0.5
    assert [e.multiplicity for e in spec.entries] == [2]
    tracemalloc.start()
    try:
        enumerate_primitive_classes(grp, 10_000.0, max_word_len=5_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2e6


def test_walk_stops_at_overflowed_products():
    # Length 600 per letter: every product of three letters overflows.
    # The walk must not grow those prefixes: growing them to 18 letters,
    # about 20 million prenecklaces, takes seconds.
    h = 600.0 / 2.0
    gens = (
        types.SimpleNamespace(a=math.exp(h), b=0.0, c=0.0, d=math.exp(-h)),
        types.SimpleNamespace(a=math.cosh(h), b=math.sinh(h), c=math.sinh(h), d=math.cosh(h)),
    )
    start = time.perf_counter()
    deep = _primitive_classes(gens, "ab", 18, 5000.0)
    assert time.perf_counter() - start < 0.5
    assert deep == _primitive_classes(gens, "ab", 3, 5000.0)
    assert {len(word) for _, word in deep} == {1, 2}


@pytest.mark.parametrize("length", [3.0, 1419.0])
def test_cutoff_ties_follow_the_scalar_length_test(length):
    # A class exactly at l_max, at l_max + 1e-9, and just beyond: the
    # trace bound must leave the decision to 2 acosh(|tr| / 2) <= l_max + 1e-9.
    g = _dilation(length)
    ell = translation_length(g)
    decisions = []
    for l_max in (ell, ell - 1e-9, math.nextafter(ell - 1e-9, 0.0), ell - 2e-9):
        got = _primitive_classes((g,), ("a",), 3, l_max)
        want = ell <= l_max + 1e-9
        assert got == ([(ell, b"\0"), (ell, b"\1")] if want else [])
        decisions.append(want)
    assert decisions[0] and not decisions[-1]
    # Past l_max = 1420, 2 cosh(l_max / 2) overflows; the trace bound is
    # then inf and the finite traces still go to the length test.
    assert len(_primitive_classes((g,), ("a",), 3, 1420.0 + length)) == 2


def test_enumeration_budget_guard():
    grp = _schottky_pair()
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_primitive_classes(grp, 50.0, word_budget=2000)
    partial = err.value.partial
    assert isinstance(partial, LengthSpectrum)
    # Reduced words of the pair: 1456 at depth 6, 4372 at depth 7.
    assert partial.complete_up_to == pytest.approx(6.0)
    assert partial.cutoff == pytest.approx(50.0)
    assert len(partial.entries) > 0


def test_enumeration_rejects_bad_arguments():
    grp = GroupPresentation(generators=(_dilation(2.0),))
    with pytest.raises(DomainError):
        enumerate_primitive_classes(grp, 0.0)
    with pytest.raises(DomainError):
        enumerate_primitive_classes(grp, math.inf)
    with pytest.raises(DomainError):
        enumerate_primitive_classes(grp, 5.0, max_word_len=0)


def test_exponent_estimate_cyclic_is_flat():
    grp = GroupPresentation(generators=(_dilation(2.0),))
    est = exponent_estimate(grp, 60.0)
    assert 0.0 <= est.delta < 0.1
    assert est.n_samples == 60
    assert est.cutoff == pytest.approx(60.0)


def test_exponent_estimate_needs_ten_samples():
    grp = GroupPresentation(generators=(_dilation(2.0),))
    with pytest.raises(InsufficientDataError):
        exponent_estimate(grp, 8.0)


def test_exponent_estimate_schottky_stable():
    grp = _schottky_pair()
    est8 = exponent_estimate(grp, 8.0)
    est10 = exponent_estimate(grp, 10.0)
    assert 0.0 < est10.delta < 1.0
    assert abs(est10.delta - est8.delta) < 0.1
    assert est10.fit_residual < 0.5


def test_exponent_estimate_decreases_with_separation():
    grp = _schottky_pair()
    g1, g2 = grp.generators
    doubled = GroupPresentation(generators=(g1 @ g1, g2 @ g2))
    est = exponent_estimate(grp, 10.0)
    est_doubled = exponent_estimate(doubled, 10.0)
    assert est_doubled.delta < est.delta


def test_spectrum_json_round_trip():
    spec = enumerate_primitive_classes(_schottky_pair(), 8.0)
    text = spectrum_to_json(spec)
    again = spectrum_from_json(text)
    assert again == spec
    assert spectrum_to_json(again) == text


def test_spectrum_json_ingests_reflections():
    text = json.dumps(
        {
            "cutoff": 5.0,
            "complete_up_to": 4.0,
            "entries": [
                {"length": 1.5, "multiplicity": 2, "reflections": 3},
                {"length": 2.5, "multiplicity": 1},
            ],
        }
    )
    spec = spectrum_from_json(text)
    assert spec.entries[0].reflections == 3
    assert spec.entries[1].reflections is None
    assert spec.complete_up_to == pytest.approx(4.0)
    round_tripped = spectrum_from_json(spectrum_to_json(spec))
    assert round_tripped == spec


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        "[1,2,3]",
        '{"cutoff": 5.0, "entries": []}',
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": -1.0, "multiplicity": 1}]}',
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": 1.0, "multiplicity": 0}]}',
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": 1.0, "multiplicity": 1.5}]}',
        '{"cutoff": 5.0, "complete_up_to": 6.0, "entries": []}',
    ],
)
def test_spectrum_json_rejects_malformed(payload):
    with pytest.raises(DomainError):
        spectrum_from_json(payload)


def test_length_spectrum_validation():
    e1 = SpectrumEntry(length=1.0, multiplicity=1)
    e2 = SpectrumEntry(length=2.0, multiplicity=3)
    spec = LengthSpectrum(entries=(e1, e2), cutoff=5.0, complete_up_to=5.0)
    assert spec.entries == (e1, e2)
    with pytest.raises(DomainError):
        LengthSpectrum(entries=(e2, e1), cutoff=5.0, complete_up_to=5.0)
    with pytest.raises(DomainError):
        LengthSpectrum(entries=(e1,), cutoff=5.0, complete_up_to=7.0)
    with pytest.raises(DomainError):
        SpectrumEntry(length=1.0, multiplicity=2, reflections=-1)
