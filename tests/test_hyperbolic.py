"""Tests for the isometry and length-spectrum machinery."""

import functools
import hashlib
import itertools
import json
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from dnzeta import claims, hyperbolic
from dnzeta.errors import DomainError, EnumerationBudgetError
from dnzeta.hyperbolic import (
    GroupPresentation,
    LengthSpectrum,
    MobiusTransform,
    SpectrumEntry,
    enumerate_primitive_classes,
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
    "entries",
    [(1.0, 0.0, 0.0, -1.0), (1.0, 2.0, 2.0, 4.0), (math.inf, 0.0, 0.0, 1.0), ("2", 0, 0, 0.5), (True, 0, 0, 1)],
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
    m = np.array([[3.0, -1.0], [1.0, 0.0]])
    base = translation_length(MobiusTransform(*m.ravel()))
    for _ in range(100):
        w = rng.uniform(-2.0, 2.0, size=(2, 2))
        if np.linalg.det(w) <= 0.1:
            continue
        conj = w @ m @ np.linalg.inv(w)
        assert abs(translation_length(MobiusTransform(*conj.ravel())) - base) <= 1e-10
    assert translation_length(MobiusTransform(0.0, 1.0, -1.0, 3.0)) == base


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
    flipped = GroupPresentation(generators=tuple(MobiusTransform(g.d, -g.b, -g.c, g.a) for g in (g1, g2)))
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
    # The walk builds g and g^-1 only, so no depth exhausts the word budget.
    spec = enumerate_primitive_classes(grp, 3000.0, max_word_len=10**9)
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


def _rotated_dilations(k):
    # k dilations of length 3 whose axes all cross i: the screen walks
    # every reduced prenecklace of at most 4 letters.
    gens = []
    for i in range(k):
        c, s = math.cos(math.pi * i / k), math.sin(math.pi * i / k)
        rot = np.array([[c, -s], [s, c]])
        gens.append(MobiusTransform(*(rot @ np.diag([math.exp(1.5), math.exp(-1.5)]) @ rot.T).ravel()))
    return tuple(gens)


def test_enumeration_budget_guard(monkeypatch):
    # The walk counts each word it builds: the one-letter words, then the
    # children of every expanded block, the cached top levels of the trie
    # included.  Count them from _expand with the cache cleared.  At l_max 10
    # the pruned walk grows prefixes past those cached levels.
    pair = claims.schottky_pair()
    expand, built = hyperbolic._expand, []

    def counted(*args):
        step = expand(*args)
        built.append(len(step[0]))
        return step

    monkeypatch.setattr(hyperbolic, "_expand", counted)
    hyperbolic._trie_top.cache_clear()
    enumerate_primitive_classes(pair, 10.0)
    monkeypatch.setattr(hyperbolic, "_expand", expand)
    hyperbolic._trie_top.cache_clear()
    words = 4 + sum(built)
    cached = len(hyperbolic._trie_top(4)) - 1  # levels built once, before the walk
    assert len(built) > cached
    monkeypatch.setattr(hyperbolic, "_WORD_BUDGET", words)
    want = enumerate_primitive_classes(pair, 10.0)
    monkeypatch.setattr(hyperbolic, "_WORD_BUDGET", words - 1)
    with pytest.raises(EnumerationBudgetError, match="^the walk to word depth 10 builds more than"):
        enumerate_primitive_classes(pair, 10.0)
    # The screen is the same walk under the same budget: with room for the
    # one-letter words only, it is refused at its first step.
    monkeypatch.setattr(hyperbolic, "_WORD_BUDGET", 4)
    with pytest.raises(EnumerationBudgetError, match="^the Schottky screen of 2 generators: the walk to word depth 4 builds"):
        GroupPresentation(generators=pair.generators)
    monkeypatch.undo()
    assert enumerate_primitive_classes(pair, 10.0) == want
    # The depth-4 screen of 33 generators builds under 5M words, that of 34
    # or more does not: 100 are refused long before the full walk (tens of
    # seconds).
    GroupPresentation(generators=_rotated_dilations(3))
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError,
                       match="^the Schottky screen of 100 generators: the walk to word depth 4 builds more than 5000000 words$"):
        GroupPresentation(generators=_rotated_dilations(100))
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("k", [129, 130, 300])
def test_more_generators_than_one_byte_letters_are_refused(k):
    # Letters 2i and 2i + 1 are stored in a uint8: the refusal comes before
    # the trie's top levels are built.
    hyperbolic._trie_top.cache_clear()
    with pytest.raises(DomainError, match=f"at most 128 generators .* got {k}$"):
        GroupPresentation(generators=_rotated_dilations(k))
    assert hyperbolic._trie_top.cache_info().currsize == 0


@pytest.fixture(scope="module")
def claims_pair_at_20():
    start = time.perf_counter()
    spec = enumerate_primitive_classes(claims.schottky_pair(), 20.0)
    return spec, time.perf_counter() - start


def test_claims_pair_at_l_max_20_fits_the_budget(claims_pair_at_20):
    # Depth 20 has 7.0e9 reduced words; the pruned walk builds under 5M.
    spec, seconds = claims_pair_at_20
    assert seconds < 5.0
    assert spec._work["depth"] == 20 and spec.complete_up_to == 20.0
    assert sum(e.multiplicity for e in spec.entries) == spec._work["classes_kept"]


def test_claims_pair_at_l_max_20_agrees_with_l_max_12(claims_pair_at_20):
    deep, shallow = claims_pair_at_20[0], enumerate_primitive_classes(claims.schottky_pair(), 12.0)
    assert [e for e in deep.entries if e.length <= 12.0 + 1e-9] == list(shallow.entries)
    assert len(deep.entries) > len(shallow.entries)


def test_enumeration_rejects_bad_arguments():
    grp = GroupPresentation(generators=(_dilation(2.0),))
    with pytest.raises(DomainError):
        enumerate_primitive_classes(grp, 0.0)
    with pytest.raises(DomainError):
        enumerate_primitive_classes(grp, math.inf)
    with pytest.raises(DomainError):
        enumerate_primitive_classes(grp, 5.0, max_word_len=0)


def test_numbers_are_python_ints_and_floats_but_not_bools():
    # one rule for every number an input gives: numpy's float64 is a float,
    # its int64 and float32 are not, and true is not a cutoff
    assert MobiusTransform(np.float64(math.e), 0, 0, 1.0 / math.e) == _dilation(2.0)
    with pytest.raises(DomainError, match="^matrix entry must be a finite real, got "):
        MobiusTransform(np.int64(2), 0.0, 0.0, 0.5)
    with pytest.raises(DomainError, match="^entry length must be a finite real > 0, got "):
        SpectrumEntry(length=np.float32(1.5), multiplicity=1)
    with pytest.raises(DomainError, match="^complete_up_to must be a finite real, got "):
        LengthSpectrum(entries=(), cutoff=5.0, complete_up_to=np.float32(4.0))
    with pytest.raises(DomainError, match="l_max"):
        enumerate_primitive_classes(GroupPresentation(generators=(_dilation(2.0),)), True)


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
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": 1.0, "multiplicity": true}]}',
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": 1.0, "multiplicity": 1, "reflections": false}]}',
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": true, "multiplicity": 1}]}',
        '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": "1.5", "multiplicity": 1}]}',
        '{"cutoff": 5.0, "complete_up_to": true, "entries": []}',
        '{"cutoff": "5.0", "complete_up_to": 4.0, "entries": []}',
        '{"cutoff": 5.0, "complete_up_to": "4.0", "entries": []}',
        # integers past the largest double, and past Python's 4300-digit parse limit
        pytest.param('{"cutoff": 1' + '0' * 400 + ', "complete_up_to": 4.0, "entries": []}', id="cutoff-1e400"),
        pytest.param('{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": 1' + '0' * 400 + ', "multiplicity": 1}]}',
                     id="length-1e400"),
        pytest.param('{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [{"length": 1.0, "multiplicity": 1' + '0' * 400 + '}]}',
                     id="multiplicity-1e400"),
        pytest.param('{"cutoff": 1' + '0' * 5000 + ', "complete_up_to": 4.0, "entries": []}', id="cutoff-5001-digits"),
    ],
)
def test_spectrum_json_rejects_malformed(payload):
    with pytest.raises(DomainError):
        spectrum_from_json(payload)


def _entry_by_entry(text):
    """spectrum_from_json as one validated SpectrumEntry per entry, in file
    order, then the sort by (length, multiplicity, reflections or 0)."""
    data = json.loads(text)
    entries = []
    for item in data["entries"]:
        if not isinstance(item, dict):
            raise DomainError(f"spectrum entry must be an object, got {item!r}")
        try:
            length = item["length"]
            mult = item["multiplicity"]
        except KeyError as exc:
            raise DomainError(f"spectrum entry missing field: {exc}") from exc
        entries.append(SpectrumEntry(length=length, multiplicity=mult, reflections=item.get("reflections")))
    entries.sort(key=lambda e: (e.length, e.multiplicity, e.reflections or 0))
    return LengthSpectrum(entries=tuple(entries), cutoff=data["cutoff"], complete_up_to=data["complete_up_to"])


def _loaded(load, text):
    try:
        return load(text)
    except DomainError as exc:
        return f"refused: {exc}"


# Entries each of which one rule refuses, as JSON text.
_BAD_ENTRIES = (
    "5", '"entry"', "[1.5, 2]", "null",  # not an object
    '{"multiplicity": 2}', '{"length": 1.5}', '{"reflections": 1}',  # a missing field
    '{"length": "1.5", "multiplicity": 2}', '{"length": true, "multiplicity": 2}',
    '{"length": 1' + '0' * 400 + ', "multiplicity": 2}', '{"length": 0, "multiplicity": 2}',
    '{"length": -1.5, "multiplicity": 2}', '{"length": 0.0, "multiplicity": 2}',
    '{"length": NaN, "multiplicity": 2}', '{"length": Infinity, "multiplicity": 2}',
    '{"length": 1.5, "multiplicity": true}', '{"length": 1.5, "multiplicity": 2.0}',
    '{"length": 1.5, "multiplicity": 0}', '{"length": 1.5, "multiplicity": 1' + '0' * 400 + '}',
    '{"length": 1.5, "multiplicity": 2, "reflections": -1}', '{"length": 1.5, "multiplicity": 2, "reflections": 1.0}',
    '{"length": 1.5, "multiplicity": 2, "reflections": false}',
)


def test_bulk_loader_refuses_as_the_entry_by_entry_path():
    # Two bad entries among good ones: the refusal names the first in file
    # order, in the words one SpectrumEntry at a time would use.
    good = ['{"length": 0.9, "multiplicity": 1, "reflections": 2}', '{"length": 2, "multiplicity": 3}',
            '{"length": 1.25, "multiplicity": 1, "reflections": null}']
    seen = set()
    for first, second in itertools.product(_BAD_ENTRIES, repeat=2):
        for at in (0, 2):
            items = good[:at] + [first] + good[at:] + [second]
            text = '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [' + ", ".join(items) + "]}"
            got = _loaded(spectrum_from_json, text)
            assert got == _loaded(_entry_by_entry, text) and got.startswith("refused: ")
            seen.add(got)
    assert len(seen) == len(_BAD_ENTRIES) - 1  # one text each, but two entries lack "length"
    # good entries load as SpectrumEntry builds them, an int length as a float
    text = '{"cutoff": 5.0, "complete_up_to": 4.0, "entries": [' + ", ".join(good) + "]}"
    assert spectrum_from_json(text) == _entry_by_entry(text)
    assert [type(e.length) for e in spectrum_from_json(text).entries] == [float] * 3


def test_bulk_loader_sorts_ties_as_before():
    # Tied lengths in no order: sorted by (length, multiplicity, reflections
    # or 0), and entries equal under that key (reflections 0 and absent) keep
    # their file order.
    rng = np.random.default_rng(8)
    for _ in range(20):
        items = [{"length": float(rng.choice([1.5, 2.0, 2.0000000001])), "multiplicity": int(rng.integers(1, 3))}
                 for _ in range(12)]
        for item in items:
            if rng.random() < 0.7:
                item["reflections"] = int(rng.integers(0, 2))
        text = json.dumps({"cutoff": 5.0, "complete_up_to": 4.0, "entries": items})
        got, want = spectrum_from_json(text), _entry_by_entry(text)
        assert got == want and spectrum_to_json(got) == spectrum_to_json(want)


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
        LengthSpectrum(entries=(e1,), cutoff=True, complete_up_to=1.0)
    with pytest.raises(DomainError):
        SpectrumEntry(length=1.0, multiplicity=2, reflections=-1)


# ---------------------------------------------------------------- ping-pong pruning


def _bench_pair(la, lb, p, q):
    # A dilation of length la and one of length lb on the axis (p, q), as
    # the schottky-build workload draws them.
    ea, eb = math.exp(0.5 * la), math.exp(0.5 * lb)
    m2 = ((q * eb - p / eb) / (q - p), (p * q / eb - q * p * eb) / (q - p),
          (eb - 1.0 / eb) / (q - p), (q / eb - p * eb) / (q - p))
    return (MobiusTransform(ea, 0.0, 0.0, 1.0 / ea), MobiusTransform(*m2))


@functools.cache
def _pruning_groups():
    """(group, depth): the fixed schottky-build pair, 209 screened draws of
    its kind, ten random three-generator groups, the separated triple and
    the claims pair."""
    rng = np.random.default_rng(2026)
    groups = [(GroupPresentation(_bench_pair(3.0, 3.0, -5.0, 0.2)), 9)]
    while len(groups) < 210:
        la, lb = rng.uniform(1.0, 4.0, 2)
        p, q = -math.exp(rng.uniform(math.log(0.2), math.log(5.0))), math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        try:
            groups.append((GroupPresentation(_bench_pair(la, lb, p, q)), 8))
        except DomainError:
            pass
    while len(groups) < 220:
        (p1, q1), (p2, q2) = np.sort(rng.uniform(-6.0, 6.0, (2, 2)), axis=1)
        la, lb, lc = rng.uniform(1.5, 5.0, 3)
        try:
            groups.append((GroupPresentation(_bench_pair(la, lb, p1, q1) + _bench_pair(la, lc, p2, q2)[1:]), 7))
        except DomainError:
            pass
    groups.append((GroupPresentation(_separated_generators(3)), 7))
    groups.append((claims.schottky_pair(), 10))
    return groups


def _unpruned(group):
    # The private hook: the same group with every step bound zeroed.
    bare = GroupPresentation(group.generators, group.labels)
    object.__setattr__(bare, "_step_bounds", None if group._step_bounds is None else 0.0 * group._step_bounds)
    return bare


def _enumerated(group, l_max, depth):
    """Spectrum bytes and prefixes expanded, or the refusal."""
    try:
        spec = enumerate_primitive_classes(group, l_max, max_word_len=depth)
    except DomainError as exc:
        return str(exc), 0
    return spectrum_to_json(spec), spec._work["prefixes_expanded"]


def test_pruned_walk_writes_the_unpruned_bytes():
    certified = expanded = unpruned_expanded = refused = 0
    for index, (group, depth) in enumerate(_pruning_groups()):
        cutoff = depth * hyperbolic._displacement_floor(group.generators)
        for l_max in (cutoff, 1.5 * cutoff)[: 1 + (depth != 8 or index % 5 == 0)]:
            (got, work), (want, unpruned_work) = _enumerated(group, l_max, depth), _enumerated(_unpruned(group), l_max, depth)
            assert got == want
            refused += not work
            if l_max == cutoff and group._step_bounds is not None:
                expanded, unpruned_expanded = expanded + work, unpruned_expanded + unpruned_work
        certified += group._step_bounds is not None
    # most groups carry a certificate, some do not (some of those are
    # refused past the screen's 4 letters), and at the CLI's default cutoff
    # the certified ones expand fewer than half the prefixes
    assert 150 <= certified < 220 and refused > 0
    assert expanded < unpruned_expanded / 2


def _closing_sums(steps):
    """Least W-sum of a path of one or more steps from letter u to v, never
    onto a letter's inverse, by relaxing the paths one step at a time."""
    n = len(steps)
    best = {(u, v): steps[u, v] if v != u ^ 1 else math.inf for u in range(n) for v in range(n)}
    for _ in range(n):
        best = {(u, v): min([best[u, v]] + [best[u, w] + steps[w, v] for w in range(n) if v != w ^ 1])
                for u, v in best}
    return best


def test_walk_grows_exactly_the_prefixes_within_the_cutoff():
    # The rule alone, with a made-up W (integer steps, not a length bound):
    # a class comes out iff the prefix it grows from is in the trie's top or
    # has a W-sum, plus the least path sum from its last letter back to its
    # first, within l_max; sums of exactly l_max are kept.
    gens = _schottky_pair(3.0, 3.0, -5.0, 0.2).generators
    unpruned = _primitive_classes(gens, "ab", 9, 13.0)
    top = len(hyperbolic._trie_top(4))
    steps = np.random.default_rng(3).integers(1, 4, (4, 4)).astype(float)
    closing = _closing_sums(steps)
    want = [(ell, word) for ell, word in unpruned
            if len(word) - 1 < top
            or sum(steps[x, y] for x, y in zip(word[:-1], word[1:-1])) + closing[word[-2], word[0]] <= 13.0]
    assert any(len(word) - 1 >= top for _, word in want) and len(want) < len(unpruned)
    assert _primitive_classes(gens, "ab", 9, 13.0, steps) == want


def _cyclically_reduced_words(n_letters, max_len):
    """Every cyclically reduced word of 1..max_len letters, one array per length."""
    words, out = np.arange(n_letters)[:, None], []
    for length in range(1, max_len + 1):
        if length > 1:
            rows, nxt = (np.arange(n_letters) != (words[:, -1:] ^ 1)).nonzero()
            words = np.column_stack([words[rows], nxt])
        out.append(words[words[:, -1] != words[:, 0] ^ 1])
    return out


def _bound_slack(group, bounds, max_len):
    """Least brute-force translation length minus cyclic W-sum over the words."""
    mats = np.array([m for g in group.generators for m in ([[g.a, g.b], [g.c, g.d]], [[g.d, -g.b], [-g.c, g.a]])])
    worst = math.inf
    for words in _cyclically_reduced_words(len(mats), max_len):
        prod = mats[words[:, 0]]
        for column in words.T[1:]:
            prod = prod @ mats[column]
        lengths = 2.0 * np.arccosh(0.5 * np.abs(np.trace(prod, axis1=1, axis2=2)))
        sums = bounds[words, np.roll(words, -1, axis=1)].sum(axis=1)
        worst = min(worst, float((lengths - sums).min()))
    return worst


def _bound_groups():
    groups = [group for group, depth in _pruning_groups()[:40] + _pruning_groups()[-12:] if group._step_bounds is not None]
    # one generator: the arcs sit square to the axis, so W equals the length
    # up to the margin, for every power of the generator
    groups += [GroupPresentation((_dilation(l),)) for l in np.linspace(0.37, 9.1, 25)]
    return groups


def test_step_bounds_hold_for_every_short_word():
    for group in _bound_groups():
        assert group._step_bounds is not None
        assert _bound_slack(group, group._step_bounds, 7) >= 0.0


def test_transposed_or_unshrunk_bounds_break_a_check():
    groups = _bound_groups()
    # W[u, v] read as W[v, u] bounds the reversed word, which has the same
    # trace as the word itself in a two-generator group, but not in a
    # three-generator one
    triples = [g for g in groups if len(g.generators) == 3]
    assert min(_bound_slack(g, g._step_bounds.T, 5) for g in triples) < 0.0
    # without the 1e-9 margin, rounding puts some power's W-sum above its length
    singles = [g for g in groups if len(g.generators) == 1]
    assert min(_bound_slack(g, g._step_bounds / (1.0 - 1e-9), 7) for g in singles) < 0.0


def test_touching_arcs_are_not_certified():
    # Four arcs of half-width 0.5 about 0, pi/2, pi and 3 pi/2: gaps of
    # pi/2 - 1.  Closing one gap to 1e-7 or 0 refuses the certificate.
    arcs = [[c - 0.5, c + 0.5] for c in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)]
    assert hyperbolic._arc_bounds(arcs) is not None
    for gap in (1e-7, 0.0, -1e-3):
        touching = [list(arc) for arc in arcs]
        touching[1][0] = arcs[0][1] + gap
        assert hyperbolic._arc_bounds(touching) is None
    # an arc that meets itself around the circle, or one of 1e-7 rad, is no arc
    assert hyperbolic._arc_bounds([[0.0, 2.0 * math.pi - 1e-7], [1.0, 2.0]]) is None
    assert hyperbolic._arc_bounds([[0.0, 1e-7], [1.0, 2.0]]) is None
    assert hyperbolic._arc_bounds([[0.0, 1.0], [2.0, 3.0], [math.nan, 4.0], [5.0, 6.0]]) is None
