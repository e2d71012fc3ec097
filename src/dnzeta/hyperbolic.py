"""PSL(2, R) isometries, free-group word enumeration, and length spectra.

Elements of Isom+(H^2) are kept as real 2x2 matrices of determinant one.
An element is hyperbolic when |tr| > 2; it is then conjugate to the
dilation z -> e^l z and translates every point of its axis by the
length l = 2 arccosh(|tr| / 2).

Conjugacy classes of a free group are cyclic reduced words, so the
enumerator represents each primitive class by the lexicographically
minimal rotation of its reduced word, a Lyndon word, and never needs
matrix-level dedup.  One Fredricksen-Kessler-Maiorana walk (Ruskey,
Savage and Wang, "Generating necklaces", J. Algorithms 13, 1992)
generates those words in lexicographic order at O(1) per node, carries
each prefix's matrix product down to its extensions, and classifies a
class the moment it is reached: only classes under the length cutoff
are kept.  The Schottky screen of GroupPresentation is the same walk
with a word cap of 4 and nothing kept.  Letters are encoded as small
integers: generator i is letter 2i, its inverse is letter 2i + 1, and
the inverse of any letter is letter ^ 1.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EnumerationBudgetError,
    InsufficientDataError,
)

_TOL = 1e-12
_LENGTH_TIE = 1e-9


@dataclass(frozen=True)
class MobiusTransform:
    """Orientation-preserving isometry of H^2, normalized to det = 1.

    Any positive-determinant input is rescaled on construction; the
    overall sign is canonicalized (trace >= 0) so equal group elements
    compare equal.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        vals = [float(v) for v in (self.a, self.b, self.c, self.d)]
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"matrix entries must be finite, got {vals}")
        det = vals[0] * vals[3] - vals[1] * vals[2]
        if det <= _TOL:
            raise DomainError(
                f"need a positive determinant (orientation-preserving), got det = {det}"
            )
        scale = 1.0 / math.sqrt(det)
        vals = [v * scale for v in vals]
        tr = vals[0] + vals[3]
        if tr < 0.0 or (tr == 0.0 and (vals[0] < 0.0 or (vals[0] == 0.0 and vals[1] < 0.0))):
            vals = [-v for v in vals]
        for name, v in zip("abcd", vals):
            object.__setattr__(self, name, v)
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _TOL:
            raise DomainError(f"normalization failed, |det - 1| = {abs(det - 1.0)}")

    @property
    def trace(self) -> float:
        return self.a + self.d

    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2.0 + _TOL

    def classify(self) -> str:
        tr = abs(self.trace)
        if tr > 2.0 + _TOL:
            return "hyperbolic"
        if tr < 2.0 - _TOL:
            return "elliptic"
        if max(abs(self.a - 1.0), abs(self.d - 1.0), abs(self.b), abs(self.c)) <= 1e-9:
            return "identity"
        return "parabolic"

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __matmul__(self, other: "MobiusTransform") -> "MobiusTransform":
        return self.compose(other)

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def apply(self, z: complex) -> complex:
        z = complex(z)
        return (self.a * z + self.b) / (self.c * z + self.d)


def translation_length(m: MobiusTransform) -> float:
    """Translation length 2 arccosh(|tr| / 2) of a hyperbolic element."""
    kind = m.classify()
    if kind != "hyperbolic":
        raise DomainError(f"translation length needs a hyperbolic element, got {kind}")
    return 2.0 * math.acosh(0.5 * abs(m.trace))


def _default_labels(k: int) -> tuple[str, ...]:
    if k <= 26:
        return tuple(string.ascii_lowercase[:k])
    return tuple(f"g{i}" for i in range(k))


def _letter_matrices(
    generators: tuple[MobiusTransform, ...],
) -> list[tuple[float, float, float, float]]:
    mats = []
    for g in generators:
        mats.append((g.a, g.b, g.c, g.d))
        mats.append((g.d, -g.b, -g.c, g.a))
    return mats


def _primitive_classes(
    mats, labels: tuple[str, ...], w_max: int, l_max: float
) -> list[tuple[float, bytes]]:
    """(length, word) of the primitive classes of at most w_max letters
    and length at most l_max (plus the tie slack), in word order.

    The walk visits reduced prenecklaces: a prefix of length n and
    period p extends by the letters >= word[n - p] except the inverse of
    its last letter; the child keeps period p on the letter word[n - p]
    and gets period n + 1 otherwise.  A node with p == n is a Lyndon
    word and a class when also cyclically reduced.  The walk needs no
    recursion: only prefixes with letters left to try wait on a stack,
    so a one-generator walk (two chains) keeps O(1) state at any depth.
    """
    n_letters = len(mats)
    limit = l_max + _LENGTH_TIE
    out: list[tuple[float, bytes]] = []
    word = bytearray()
    # extensions[lo][last]: the letters >= lo other than last's inverse.
    extensions = [
        [tuple(x for x in range(lo, n_letters) if x != last ^ 1) for last in range(n_letters)]
        for lo in range(n_letters)
    ]
    top = n_letters - 1
    # The current prefix: letters left to try, the last of them, length,
    # period, floor letter and product; waiting ancestors keep that form.
    stack = []
    letters, final, n, p, floor_letter = iter(range(n_letters)), top, 0, 0, 0
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    while True:
        for letter in letters:
            e, f, g, h = mats[letter]
            ca, cb, cc, cd = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            word.append(letter)
            period = p if n and letter == floor_letter else n + 1
            if period == n + 1 and letter != word[0] ^ 1:
                t = abs(ca + cd)
                if t <= 2.0 + _TOL:
                    kind = MobiusTransform(ca, cb, cc, cd).classify()
                    raise DomainError(
                        f"word {_word_label(word, labels)} is {kind}, not hyperbolic; "
                        "input is not a separated free system"
                    )
                # A NaN or inf trace fails this test: the product overflowed
                # and the class length exceeds any sane cutoff.
                if t < math.inf:
                    ell = 2.0 * math.acosh(0.5 * t)
                    if ell <= limit:
                        out.append((ell, bytes(word)))
            if n + 1 < w_max:
                if letter != final:
                    stack.append((letters, final, n, p, floor_letter, a, b, c, d))
                n += 1
                p = period
                floor_letter = word[n - p]
                letters = iter(extensions[floor_letter][letter])
                final = top - 1 if letter ^ 1 == top else top
                a, b, c, d = ca, cb, cc, cd
                break
            word.pop()
        else:
            if not stack:
                return out
            letters, final, n, p, floor_letter, a, b, c, d = stack.pop()
            del word[n:]


def _word_label(word: bytes, labels: tuple[str, ...]) -> str:
    parts = []
    for letter in word:
        name = labels[letter // 2]
        parts.append(name if letter % 2 == 0 else name + "^-1")
    return "*".join(parts)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators of a group assumed free and convex co-compact.

    Construction screens every primitive conjugacy class of word length
    at most 4: each must be hyperbolic, otherwise the input cannot be a
    separated free system (a relation shows up as an identity word, a
    tangency as a parabolic one).  The screen runs the enumerator's own
    walk, with its carried prefix products, to depth 4 and keeps no
    class; the first failing word in lexicographic order is reported.
    It is a heuristic filter, not a ping-pong proof.
    """

    generators: tuple[MobiusTransform, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if not gens:
            raise DomainError("need at least one generator")
        if not all(isinstance(g, MobiusTransform) for g in gens):
            raise DomainError("generators must be MobiusTransform instances")
        object.__setattr__(self, "generators", gens)
        labels = tuple(self.labels) if self.labels else _default_labels(len(gens))
        if len(labels) != len(gens):
            raise DomainError(f"got {len(labels)} labels for {len(gens)} generators")
        if len(set(labels)) != len(labels):
            raise DomainError("labels must be distinct")
        object.__setattr__(self, "labels", labels)
        _primitive_classes(_letter_matrices(gens), labels, 4, 0.0)


@dataclass(frozen=True)
class SpectrumEntry:
    """One length-spectrum line: geodesic length, multiplicity, and the
    reflection count n_c for billiard-type spectra (absent otherwise)."""

    length: float
    multiplicity: int
    reflections: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.length, (int, float)):
            raise DomainError(f"entry length must be a number, got {self.length!r}")
        object.__setattr__(self, "length", float(self.length))
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise DomainError(f"entry length must be positive and finite, got {self.length}")
        if not (isinstance(self.multiplicity, int) and self.multiplicity >= 1):
            raise DomainError(f"multiplicity must be an integer >= 1, got {self.multiplicity}")
        if self.reflections is not None and not (
            isinstance(self.reflections, int) and self.reflections >= 0
        ):
            raise DomainError(f"reflections must be a nonnegative integer, got {self.reflections}")


@dataclass(frozen=True)
class LengthSpectrum:
    """Primitive geodesic lengths up to a cutoff.

    Entries are sorted ascending.  Every class of length at most
    complete_up_to is guaranteed present; entries between that and the
    cutoff may be incomplete when the word depth was capped.
    """

    entries: tuple[SpectrumEntry, ...]
    cutoff: float
    complete_up_to: float

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not all(isinstance(e, SpectrumEntry) for e in entries):
            raise DomainError("entries must be SpectrumEntry instances")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cutoff", float(self.cutoff))
        object.__setattr__(self, "complete_up_to", float(self.complete_up_to))
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise DomainError(f"cutoff must be positive and finite, got {self.cutoff}")
        if not (0.0 < self.complete_up_to <= self.cutoff + _TOL):
            raise DomainError(
                f"complete_up_to must lie in (0, cutoff], got {self.complete_up_to}"
            )
        for prev, cur in zip(entries, entries[1:]):
            if cur.length < prev.length:
                raise DomainError("entries must be sorted ascending by length")


def _displacement_floor(generators: tuple[MobiusTransform, ...]) -> float:
    # Conservative heuristic: half the shortest generator displacement
    # per letter.  Valid for well-separated systems; not a proof.
    return min(translation_length(g) for g in generators) / 2.0


def enumerate_primitive_classes(
    group: GroupPresentation,
    l_max: float,
    max_word_len: int | None = None,
    word_budget: int = 5_000_000,
) -> LengthSpectrum:
    """Length spectrum of primitive conjugacy classes with l <= l_max.

    Classes are reduced cyclic words; gamma and gamma^-1 are distinct
    (oriented) classes.  Ties within 1e-9 merge into one entry's
    multiplicity.  The word depth is chosen as ceil(l_max / d) where d
    is the per-letter displacement floor of the generator set, unless
    max_word_len pins it explicitly; if the implied word count exceeds
    word_budget, the deepest affordable spectrum is attached to an
    EnumerationBudgetError.
    """
    if not (isinstance(l_max, (int, float)) and l_max > 0.0 and math.isfinite(l_max)):
        raise DomainError(f"l_max must be positive and finite, got {l_max}")
    l_max = float(l_max)
    if word_budget < 1:
        raise DomainError(f"word_budget must be >= 1, got {word_budget}")
    d_min = _displacement_floor(group.generators)
    if max_word_len is None:
        w_target = max(1, math.ceil(l_max / d_min - 1e-12))
    else:
        if not (isinstance(max_word_len, int) and max_word_len >= 1):
            raise DomainError(f"max_word_len must be an integer >= 1, got {max_word_len}")
        w_target = max_word_len
    n_letters = 2 * len(group.generators)
    # Largest depth whose reduced-word count fits in the budget, at least 1.
    total, layer, w_run = 0, n_letters, 1
    for w in range(1, w_target + 1):
        total += layer
        if total > word_budget and w > 1:
            break
        w_run = w
        layer *= n_letters - 1
    spectrum = _build_spectrum(group, w_run, l_max, d_min)
    if w_run < w_target:
        raise EnumerationBudgetError(
            f"word depth {w_target} needs more than {word_budget} words; "
            f"deepest affordable depth was {w_run}",
            partial=spectrum,
        )
    return spectrum


def _build_spectrum(
    group: GroupPresentation, w_max: int, l_max: float, d_min: float
) -> LengthSpectrum:
    classes = _primitive_classes(_letter_matrices(group.generators), group.labels, w_max, l_max)
    classes.sort()
    entries = []
    i = 0
    while i < len(classes):
        base = classes[i][0]
        j = i
        while j < len(classes) and classes[j][0] - base <= _LENGTH_TIE:
            j += 1
        entries.append(SpectrumEntry(length=base, multiplicity=j - i))
        i = j
    return LengthSpectrum(
        entries=tuple(entries),
        cutoff=l_max,
        complete_up_to=min(l_max, w_max * d_min),
    )


@dataclass(frozen=True)
class ExponentEstimate:
    """Least-squares growth exponent of the geodesic counting function."""

    delta: float
    fit_residual: float
    n_samples: int
    cutoff: float


def exponent_estimate(
    group: GroupPresentation,
    l_max: float,
    max_word_len: int | None = None,
) -> ExponentEstimate:
    """Estimate of the convergence exponent delta from N(l) ~ e^(delta l).

    Counts all closed geodesics (primitive classes and their powers) up
    to the spectrum's completeness certificate and fits log N(l) = delta
    l + const by least squares, clamping delta into [0, 1].  Used to
    certify zeta-product convergence half-planes Re(lambda) > delta.
    """
    spectrum = enumerate_primitive_classes(group, l_max, max_word_len=max_word_len)
    window = spectrum.complete_up_to
    lengths: list[float] = []
    for entry in spectrum.entries:
        if entry.length > window:
            continue
        k = 1
        while k * entry.length <= window:
            lengths.extend([k * entry.length] * entry.multiplicity)
            k += 1
    lengths.sort()
    if len(lengths) < 10:
        raise InsufficientDataError(
            f"need at least 10 closed geodesics below {window}, found {len(lengths)}"
        )
    x = np.asarray(lengths)
    y = np.log(np.arange(1, len(lengths) + 1, dtype=float))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    delta = float(min(1.0, max(0.0, coef[0])))
    return ExponentEstimate(
        delta=delta, fit_residual=rms, n_samples=len(lengths), cutoff=window
    )


def spectrum_to_json(spectrum: LengthSpectrum) -> str:
    """Canonical JSON form; byte-identical for equal spectra."""
    entries = []
    for e in spectrum.entries:
        item = {"length": e.length, "multiplicity": e.multiplicity}
        if e.reflections is not None:
            item["reflections"] = e.reflections
        entries.append(item)
    payload = {
        "cutoff": spectrum.cutoff,
        "complete_up_to": spectrum.complete_up_to,
        "entries": entries,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spectrum_from_json(text: str) -> LengthSpectrum:
    """Parse a spectrum, including externally supplied ones with
    reflection counts; entries are sorted and validated."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid spectrum JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("spectrum JSON must be an object")
    try:
        cutoff = float(data["cutoff"])
        complete = float(data["complete_up_to"])
        raw_entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"spectrum JSON missing or malformed field: {exc}") from exc
    if not isinstance(raw_entries, list):
        raise DomainError("spectrum JSON entries must be a list")
    entries = []
    for item in raw_entries:
        if not isinstance(item, dict):
            raise DomainError(f"spectrum entry must be an object, got {item!r}")
        try:
            length = float(item["length"])
            mult = item["multiplicity"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"spectrum entry missing or malformed field: {exc}") from exc
        refl = item.get("reflections")
        entries.append(SpectrumEntry(length=length, multiplicity=mult, reflections=refl))
    entries.sort(key=lambda e: (e.length, e.multiplicity, e.reflections or 0))
    return LengthSpectrum(entries=tuple(entries), cutoff=cutoff, complete_up_to=complete)
