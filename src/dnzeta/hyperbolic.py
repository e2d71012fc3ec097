"""PSL(2, R) isometries, free-group word enumeration, and length spectra.

Elements of Isom+(H^2) are kept as real 2x2 matrices of determinant one.
An element is hyperbolic when |tr| > 2; it is then conjugate to the
dilation z -> e^l z and translates every point of its axis by the
length l = 2 arccosh(|tr| / 2).

A primitive class of the free group is named by its Lyndon word, the
least rotation of its cyclically reduced word, so no matrix-level dedup
is needed.  The Fredricksen-Kessler-Maiorana prenecklace walk (Ruskey,
Savage and Wang, "Generating necklaces", J. Algorithms 13, 1992) yields
those words a length at a time, on numpy blocks of prefixes that carry
their matrix products, and keeps only the classes under the length
cutoff.  The Schottky screen of GroupPresentation is the same walk to 4
letters.  Generator i is letter 2i, its inverse letter 2i + 1 = 2i ^ 1.

A GroupPresentation then looks for ping-pong arcs (Borthwick, Spectral
Theory of Infinite-Area Hyperbolic Surfaces, ch. 15-16; McMullen, Amer.
J. Math. 120, 1998): disjoint closed arcs D(x), g mapping the outside of
D(g^-1) onto D(g).  W[u, v], the distance of the boundary geodesics of
D(u^-1) and D(v), summed over the consecutive letters of a cyclically
reduced word is at most its length, so below the trie's top levels the walk
drops prefixes whose W-sum, plus the least W-sum of a path back from the
last letter to the first, passes the cutoff (plus 1e-9 relative and 1e-12).
Without arcs W = 0 and nothing is dropped.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EnumerationBudgetError, _count, _finite_real

_TOL = 1e-12
_LENGTH_TIE = 1e-9
_CHUNK = 256  # most prefixes the walk expands in one step
_WORD_BUDGET = 5_000_000  # most reduced words an enumeration may build
_SCREEN_DEPTH = 4  # word length of the GroupPresentation screen


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
        vals = [_finite_real(v, "matrix entry") for v in (self.a, self.b, self.c, self.d)]
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
    def _trace(self) -> float:
        return self.a + self.d

    def _classify(self) -> str:
        tr = abs(self._trace)
        if tr > 2.0 + _TOL:
            return "hyperbolic"
        if tr < 2.0 - _TOL:
            return "elliptic"
        if max(abs(self.a - 1.0), abs(self.d - 1.0), abs(self.b), abs(self.c)) <= 1e-9:
            return "identity"
        return "parabolic"


def translation_length(m: MobiusTransform) -> float:
    """Translation length 2 arccosh(|tr| / 2) of a hyperbolic element."""
    kind = m._classify()
    if kind != "hyperbolic":
        raise DomainError(f"translation length needs a hyperbolic element, got {kind}")
    return 2.0 * math.acosh(0.5 * abs(m._trace))


def _default_labels(k: int) -> tuple[str, ...]:
    if k <= 26:
        return tuple(string.ascii_lowercase[:k])
    return tuple(f"g{i}" for i in range(k))


def _expand(n_letters: int, words: np.ndarray, periods: np.ndarray):
    """Parent columns, letters, words, periods and class flags of the children
    of a block of prenecklaces (words (n, block), a word per column) over
    n_letters letters, in word order if the block is.  A prefix of period p
    extends by the letters >= its floor word[n - p] but its last letter's
    inverse: period p on the floor, Lyndon (n + 1) on others."""
    n, size = words.shape
    floor = words.ravel().take((n - periods) * size + np.arange(size))
    letters = np.arange(n_letters)
    rows, nxt = ((letters >= floor[:, None]) & (letters != (words[-1] ^ 1)[:, None])).nonzero()
    child = np.empty((n + 1, len(rows)), np.uint8)
    words.take(rows, axis=1, out=child[:n])
    child[n] = nxt
    lyndon = nxt != floor.take(rows)
    periods = np.where(lyndon, n + 1, periods.take(rows))
    return rows, nxt, child, periods, lyndon & (nxt != child[0] ^ 1)


@functools.lru_cache(maxsize=16)
def _trie_top(n_letters: int):
    """The one-letter words as top[0] and, as top[n], the _expand step of the
    length-n words while one block holds them.  A prenecklace has no letter
    below its first, so words opening with the last generator's letters are
    its powers: not grown."""
    words, periods = np.arange(n_letters, dtype=np.uint8)[None], np.ones(n_letters, np.intp)
    top = [(None, None, words, periods, periods > 0), _expand(n_letters, words[:, :-2], periods[:-2])]
    while 0 < len(top[-1][3]) <= _CHUNK:
        top.append(_expand(n_letters, *top[-1][2:4]))
    for array in (array for step in top for array in step if array is not None):
        array.flags.writeable = False
    return tuple(top)


def _primitive_classes(
    generators: tuple[MobiusTransform, ...], labels: tuple[str, ...], w_max: int, l_max: float,
    step_bounds: np.ndarray | None = None, work: dict | None = None,
) -> list[tuple[float, bytes]]:
    """(length, word) of the primitive classes of at most w_max letters and
    length at most l_max (plus the tie slack), in word order.  Blocks of
    prefixes of one length (words, periods, products as (2, 2, block), sums
    of step_bounds) wait on a stack; a step expands at most _CHUNK, updating
    products entry by entry as a*e + b*g like scalar code.  A product with an
    inf or NaN entry is not grown (no extension's trace is finite), nor a
    prefix whose sum plus the closing bound from its last letter back to its
    first (_closing_bounds) passes the cutoff.  The least failing (|tr| <= 2)
    class word is reported, as a walk in word order meets it.  work gets the
    prefixes expanded.  Every word built (the one-letter words, the children
    of each expanded chunk) counts against _WORD_BUDGET; past it,
    EnumerationBudgetError."""
    n_letters = 2 * len(generators)
    top = _trie_top(n_letters)
    limit = l_max + _LENGTH_TIE
    # Only traces under this meet the length test (the margin covers rounding).
    trace_cut = 2.0 * math.cosh(min(0.5 * limit, 710.0)) * (1.0 + 1e-6)
    cells = np.array([(g.a, g.d, g.b, -g.b, g.c, -g.c, g.d, g.a) for g in generators])
    prods = letter_mats = cells.reshape(-1, 2, 2, 2).transpose(1, 2, 0, 3).reshape(2, 2, -1)
    steps = np.zeros(n_letters * n_letters) if step_bounds is None else step_bounds.ravel()
    closing = np.zeros(n_letters * n_letters) if step_bounds is None else _closing_bounds(step_bounds).ravel()
    prune, bounds, expanded, built = limit * (1.0 + 1e-9) + 1e-12, np.zeros(n_letters), 0, n_letters
    (_, _, words, periods, is_class), out, failed, stack = top[0], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            t = np.abs(prods[0, 0] + prods[1, 1])
            for k in (is_class & (t <= trace_cut)).nonzero()[0].tolist():
                if t[k] <= 2.0 + _TOL:  # the block's least failure: it is in word order
                    failed.append((words[:, k].tobytes(), prods[:, :, k].ravel().tolist()))
                    break
                if (ell := 2.0 * math.acosh(0.5 * t[k])) <= limit:
                    out.append((ell, words[:, k].tobytes()))
            if len(words) < w_max:
                if len(words) >= len(top):
                    live = bounds + closing.take(np.multiply(words[-1], n_letters, dtype=np.intp) + words[0]) <= prune
                    if not np.isfinite(prods).all():
                        live &= np.isfinite(prods).all(axis=(0, 1))
                    if not live.all():  # take: a boolean index of prods costs more
                        idx = live.nonzero()[0]
                        words, periods, prods, bounds = (a.take(idx, -1) for a in (words, periods, prods, bounds))
                if len(periods):
                    stack.append((words, periods, prods, bounds))
            if not stack:
                break
            words, periods, prods, bounds = stack.pop()
            if len(periods) > _CHUNK:
                stack.append((words[:, _CHUNK:], periods[_CHUNK:], prods[..., _CHUNK:], bounds[_CHUNK:]))
                words, periods, prods, bounds = (a[..., :_CHUNK] for a in (words, periods, prods, bounds))
            n = len(words)
            expanded += len(periods)
            step = top[n] if n < len(top) else _expand(n_letters, words, periods)
            rows, nxt, words, periods, is_class = step
            built += len(rows)
            if built > _WORD_BUDGET:
                raise EnumerationBudgetError(f"the walk to word depth {w_max} builds more than {_WORD_BUDGET} words")
            left, right = prods.take(rows, axis=2), letter_mats.take(nxt, axis=2)
            prods = left[:, :1] * right[:1] + left[:, 1:] * right[1:]
            if n + 1 < w_max:  # the W-sums of the blocks that may be grown
                bounds = bounds.take(rows) + steps.take(np.multiply(words[-2], n_letters, dtype=np.intp) + nxt)
    if failed:
        word, prod = min(failed)
        label = "*".join(labels[x // 2] + "^-1" * (x % 2) for x in word)
        raise DomainError(f"word {label} is {MobiusTransform(*prod)._classify()}, not hyperbolic; "
                          "input is not a separated free system")
    if work is not None:
        work["prefixes_expanded"] = expanded
    return sorted(out, key=lambda item: item[1])


def _closing_bounds(steps: np.ndarray) -> np.ndarray:
    """SP[u, v], the least W-sum of a path of one or more steps from letter u
    to letter v, none from a letter to its inverse: the min-plus closure of
    W (Floyd, CACM 5, 1962).  A class grown from the prefix x_1 ... x_n
    closes its cycle from x_n back to x_1, so its cyclic W-sum is at least
    the prefix's W-sum plus SP[x_n, x_1]."""
    letters = np.arange(len(steps))
    dist = steps.copy()
    dist[letters, letters ^ 1] = np.inf
    for k in letters:
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return dist


def _frame(g: MobiusTransform):
    """(C, lam), det C = 1: g is w -> lam w, lam = e^l > 1, in the coordinate
    w = C^-1(z), where its attracting fixed point is inf and its repelling 0."""
    big = 0.5 * (g.a + g.d + math.sqrt((g.a + g.d - 2.0) * (g.a + g.d + 2.0)))
    vectors = (((g.b, ev - g.a), (ev - g.d, g.c)) for ev in (big, 1.0 / big))  # two forms of each eigenvector
    (p, r), (q, s) = (max(pair, key=lambda v: abs(v[0]) + abs(v[1])) for pair in vectors)
    k = 1.0 / math.sqrt(abs(p * s - q * r))
    return (math.copysign(k, p * s - q * r) * p, k * q, math.copysign(k, p * s - q * r) * r, k * s), big * big


def _centred(lam: float, arcs) -> list[float] | None:
    """[alpha, beta] putting the arcs [y1, y2] of generator g's coordinate w
    mid-way, on a log scale, in the windows (beta, lam beta), (-lam alpha,
    -alpha) left by D(g^-1) = [-alpha, beta] and D(g) = g of the rest of the
    line; None with no arc, or if one holds a fixed point, 0 or inf."""
    sides = ([], [])  # |w| of the arcs' ends on the positive, negative side
    for y1, y2 in arcs:
        if not (y1 <= y2 and y1 * y2 > 0.0):
            return None
        sides[y1 < 0.0].extend((abs(y1), abs(y2)))
    fit = [math.sqrt(min(side) * max(side) / lam) if side else None for side in sides]
    return [fit[1] or fit[0], fit[0] or fit[1]] if any(fit) else None


def _ping_pong(generators: tuple[MobiusTransform, ...]) -> np.ndarray | None:
    """Step bounds W (_arc_bounds) from ping-pong arcs, or None if none found.
    Each generator starts from the window (_centred) of the other generators'
    fixed points, then twice over, in turn, takes the window of their arcs.
    The arcs are checked as angles seen from a point of the first axis."""
    try:
        frames = [_frame(g) for g in generators]
        # others[i] takes each other generator's coordinate to generator i's, in order.
        others = [[(d * m[0] - b * m[2], d * m[1] - b * m[3], a * m[2] - c * m[0], a * m[3] - c * m[1])
                   for j, (m, _) in enumerate(frames) if j != i] for i, ((a, b, c, d), _) in enumerate(frames)]
        windows = [_centred(lam, [(y, y) for m in ms for y in (m[1] / m[3], m[0] / m[2])]) or [1.0, 1.0]
                   for ms, (_, lam) in zip(others, frames)]
        for i, (_, lam) in [*enumerate(frames)] * 2:
            ends = [((-alpha, beta), (lam_j * beta, -lam_j * alpha))
                    for j, ((_, lam_j), (alpha, beta)) in enumerate(zip(frames, windows)) if j != i]
            arcs = [((a * w1 + b) / (c * w1 + d), (a * w2 + b) / (c * w2 + d))
                    for (a, b, c, d), pair in zip(others[i], ends) for w1, w2 in pair]
            windows[i] = _centred(lam, arcs) or windows[i]
        arcs = []
        for g, ((a, b, c, d), _), (alpha, beta) in zip(generators, frames, windows):
            lo, hi = ((a * w + b, c * w + d) for w in (-alpha, beta))
            arcs += [[(g.a * x + g.b * y, g.c * x + g.d * y) for x, y in (hi, lo)], [lo, hi]]
        (a, b, c, d), lam = frames[0]
        centre = 1j * math.sqrt(windows[0][0] * windows[0][1] * lam)  # on the first axis, between its arcs
        centre = (a * centre + b) / (c * centre + d)
        angles = [[2.0 * math.atan2(-centre.imag * y, x - centre.real * y) for x, y in arc] for arc in arcs]
        return _arc_bounds(angles)
    except (ArithmeticError, ValueError):
        return None


def _arc_bounds(arcs: list[list[float]]) -> np.ndarray | None:
    """W[u, v], the distance of the boundary geodesics of D(u^-1) and D(v)
    less a relative 1e-9, for arcs [start, end] counterclockwise as angles on
    the circle, one per letter; None unless every arc and gap spans 1e-6 rad,
    so no arcs meet and rounding stays far inside the margin.  Ptolemy gives
    sinh^2(d/2) = sin(g1/2) sin(g2/2) / (sin h1 sin h2) for half-widths h and
    gaps g.  The axis of a cyclically reduced word x_1 ... x_n crosses the
    nested half-planes x_1 ... x_k H(x_(k+1)): its length is at least
    sum_k W[x_k, x_(k+1)], taken cyclically."""
    half = [0.5 * ((end - start) % math.tau) for start, end in arcs]
    mid = [start + h for (start, _), h in zip(arcs, half)]
    dist = np.zeros((len(arcs), len(arcs)))
    for i, j in itertools.combinations(range(len(arcs)), 2):
        apart = abs((mid[i] - mid[j] + math.pi) % math.tau - math.pi)
        near, far = apart - half[i] - half[j], math.tau - apart - half[i] - half[j]
        if not (near > 1e-6 and half[i] > 1e-6 and half[j] > 1e-6):  # false on a NaN as well
            return None
        ratio = math.sin(0.5 * near) * math.sin(0.5 * far) / (math.sin(half[i]) * math.sin(half[j]))
        dist[i, j] = dist[j, i] = 2.0 * math.asinh(math.sqrt(ratio)) * (1.0 - 1e-9)
    return dist[np.arange(len(arcs)) ^ 1]


@dataclass(frozen=True)
class GroupPresentation:
    """Generators of a group assumed free and convex co-compact.

    Construction screens every primitive conjugacy class of word length
    at most 4: each must be hyperbolic, otherwise the input cannot be a
    separated free system (a relation shows up as an identity word, a
    tangency as a parabolic one).  The screen is the enumerator's own
    block walk to depth 4, keeping no class, under the walk's word budget
    (past it, an EnumerationBudgetError that names the screen); the
    lexicographically least failing word is reported.  It is a heuristic
    filter, and `dnzeta spectrum -v` says so.  Construction then searches
    for ping-pong arcs; _step_bounds holds their W, or None.
    """

    generators: tuple[MobiusTransform, ...]
    labels: tuple[str, ...] = ()
    _step_bounds: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if not gens:
            raise DomainError("need at least one generator")
        if len(gens) > 128:  # a word holds a letter, 2i or 2i + 1, per byte
            raise DomainError(f"at most 128 generators fit the walk's one-byte letters, got {len(gens)}")
        if not all(isinstance(g, MobiusTransform) for g in gens):
            raise DomainError("generators must be MobiusTransform instances")
        object.__setattr__(self, "generators", gens)
        labels = tuple(self.labels) if self.labels else _default_labels(len(gens))
        if len(labels) != len(gens):
            raise DomainError(f"got {len(labels)} labels for {len(gens)} generators")
        if not all(isinstance(label, str) for label in labels):
            raise DomainError("labels must be strings")
        if len(set(labels)) != len(labels):
            raise DomainError("labels must be distinct")
        object.__setattr__(self, "labels", labels)
        try:
            _primitive_classes(gens, labels, _SCREEN_DEPTH, 0.0)
        except EnumerationBudgetError as exc:
            raise EnumerationBudgetError(f"the Schottky screen of {len(gens)} generators: {exc}") from exc
        object.__setattr__(self, "_step_bounds", _ping_pong(gens))


@dataclass(frozen=True)
class SpectrumEntry:
    """One length-spectrum line: geodesic length, multiplicity, and the
    reflection count n_c for billiard-type spectra (absent otherwise)."""

    length: float
    multiplicity: int
    reflections: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _finite_real(self.length, "entry length", 0.0))
        _count(self.multiplicity, "multiplicity", 1)
        if self.reflections is not None:
            _count(self.reflections, "reflections", 0)

    @classmethod
    def _checked(cls, length: float, multiplicity: int, reflections: int | None) -> "SpectrumEntry":
        """An entry from fields valid by construction (the walk's float
        lengths > 0 and counts >= 1): __post_init__'s rules are not run."""
        entry = object.__new__(cls)
        entry.__dict__.update(length=length, multiplicity=multiplicity, reflections=reflections)
        return entry


@dataclass(frozen=True)
class LengthSpectrum:
    """Primitive geodesic lengths up to a cutoff.

    Entries are sorted ascending.  complete_up_to is a heuristic, not a
    guarantee: it is the word depth times the displacement floor of
    enumerate_primitive_classes, and classes shorter than it can still
    be missing when that floor overestimates the length a letter adds.
    (Two dilations of length 3 on the axes (0, inf) and (-5, 0.2):
    l_max 7.5 reports 28 classes with complete_up_to 7.5, where depth
    10 finds 36.)  Entries past complete_up_to are incomplete
    when the word depth was capped.
    """

    entries: tuple[SpectrumEntry, ...]
    cutoff: float
    complete_up_to: float
    _work: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not all(isinstance(e, SpectrumEntry) for e in entries):
            raise DomainError("entries must be SpectrumEntry instances")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cutoff", _finite_real(self.cutoff, "cutoff", 0.0))
        object.__setattr__(self, "complete_up_to", _finite_real(self.complete_up_to, "complete_up_to"))
        if not (0.0 < self.complete_up_to <= self.cutoff + _TOL):
            raise DomainError(
                f"complete_up_to must lie in (0, cutoff], got {self.complete_up_to}"
            )
        for prev, cur in zip(entries, entries[1:]):
            if cur.length < prev.length:
                raise DomainError("entries must be sorted ascending by length")


def _window_entries(spectrum: LengthSpectrum) -> list[SpectrumEntry]:
    """The entries an Euler product uses: length at most complete_up_to
    plus the walk's tie slack, as the walk keeps classes up to l_max + 1e-9."""
    window = spectrum.complete_up_to + _LENGTH_TIE
    return [e for e in spectrum.entries if e.length <= window]


def _displacement_floor(generators: tuple[MobiusTransform, ...]) -> float:
    # Heuristic, not a proof: half the shortest generator displacement
    # per letter.  It sets complete_up_to and the CLI's default cutoff.
    return min(translation_length(g) for g in generators) / 2.0


def enumerate_primitive_classes(
    group: GroupPresentation,
    l_max: float,
    max_word_len: int | None = None,
) -> LengthSpectrum:
    """Length spectrum of primitive conjugacy classes with l <= l_max.

    Classes are reduced cyclic words; gamma and gamma^-1 are distinct
    (oriented) classes.  Ties within 1e-9 merge into one entry's
    multiplicity.  The word depth is chosen as ceil(l_max / d) where d
    is the per-letter displacement floor of the generator set (half the
    shortest generator length), unless max_word_len pins it explicitly.
    complete_up_to = min(l_max, depth * d) is a heuristic: no class
    shorter than it is proven present.  A ping-pong certificate lets the
    walk skip prefixes whose extensions all pass l_max.  The walk counts
    the words it builds and raises EnumerationBudgetError once they pass
    5,000,000, so the pruned walk, not the depth, decides what is refused.
    The spectrum's _work records the certificate, its least W, the depth,
    prefixes expanded, classes kept, and that the group's construction
    screen is a heuristic filter of the words up to _SCREEN_DEPTH letters.
    """
    l_max = _finite_real(l_max, "l_max", 0.0)
    d_min = _displacement_floor(group.generators)
    w_max = max(1, math.ceil(l_max / d_min - 1e-12)) if max_word_len is None else _count(max_word_len, "max_word_len", 1)
    bounds, letters = group._step_bounds, np.arange(2 * len(group.generators))
    work = {"certificate": "none" if bounds is None else "ping-pong", "depth": w_max,
            "min_w": 0.0 if bounds is None else float(bounds[letters != (letters ^ 1)[:, None]].min()),
            "screen": f"heuristic, depth {_SCREEN_DEPTH}"}
    classes = _primitive_classes(group.generators, group.labels, w_max, l_max, bounds, work)
    work["classes_kept"] = len(classes)
    classes.sort()
    entries = []
    i = 0
    while i < len(classes):
        base = classes[i][0]
        j = i
        while j < len(classes) and classes[j][0] - base <= _LENGTH_TIE:
            j += 1
        entries.append(SpectrumEntry._checked(base, j - i, None))  # a float length > 0, a count >= 1
        i = j
    spectrum = LengthSpectrum(entries=tuple(entries), cutoff=l_max, complete_up_to=min(l_max, w_max * d_min))
    object.__setattr__(spectrum, "_work", work)
    return spectrum


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
    except (ValueError, RecursionError) as exc:  # also past Python's 4300-digit limit or nesting depth
        raise DomainError(f"invalid spectrum JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("spectrum JSON must be an object")
    try:
        cutoff, complete, raw_entries = data["cutoff"], data["complete_up_to"], data["entries"]
    except KeyError as exc:
        raise DomainError(f"spectrum JSON missing field: {exc}") from exc
    if not isinstance(raw_entries, list):
        raise DomainError("spectrum JSON entries must be a list")
    return LengthSpectrum(entries=_entries_from_json(raw_entries), cutoff=cutoff, complete_up_to=complete)


def _entry_from_json(item) -> SpectrumEntry:
    if not isinstance(item, dict):
        raise DomainError(f"spectrum entry must be an object, got {item!r}")
    try:
        length = item["length"]
        mult = item["multiplicity"]
    except KeyError as exc:
        raise DomainError(f"spectrum entry missing field: {exc}") from exc
    return SpectrumEntry(length=length, multiplicity=mult, reflections=item.get("reflections"))


def _entries_from_json(raw_entries: list) -> list[SpectrumEntry]:
    """The entries of a spectrum file, each built by SpectrumEntry in file
    order, so a refusal names the first bad entry; then sorted by (length,
    multiplicity, reflections or 0)."""
    entries = [_entry_from_json(item) for item in raw_entries]
    lengths = [e.length for e in entries]
    if any(map(operator.ge, lengths, lengths[1:])):  # strictly rising lengths already follow the key
        entries.sort(key=lambda e: (e.length, e.multiplicity, e.reflections or 0))
    return entries
