"""Core data model for ternary constant-composition codes and group divisible codes.

Points are dense integers in [0, n).  A codeword is its supports, one sorted
set per nonzero symbol (symbol j+1 on ``supports[j]``, 0 elsewhere); the
length n belongs to the code that holds it, so a word of length n is also a
word of every longer length, zero-extended.  Two words differ at w_u + w_v -
overlap - agreements points.  All types are immutable after construction and
safe to share.

Conflicting words (equal, or closer than the declared distance) come from one
bit-parallel kernel, :func:`conflict_rows`, which the verifier and the search
share.  Walking a word's points, it keeps two counters as masks over all
words: how many of its points each word shares, and at how many it agrees.
It measures no pair distance; the verifier measures only the pairs that
conflict.  The verifier is one generator, :func:`violations`, which yields
each violation of a code or a GDC as it finds it, by witness length, witness
and kind; :func:`verify_gdc` collects it into a report.

Every value type is a :class:`_Record`: here Composition, Violation,
VerificationReport, Code, GroupPartition, Gdc and GdcType; elsewhere
BoundValue, SpectrumEntry, RecipeInfo, Gdd, DifferenceMatrix, RoomFrame,
Permutation, OrbitDecl, Manifest, SearchBudget and SearchOutcome.  So no
module loads ``dataclasses``, ``inspect`` or ``typing``.  Only Codeword, built
by the hundred thousand by :func:`_words` with its one field set unguarded,
and ``designs.GfTable``, tables that no field list rebuilds, are plain classes.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache, reduce
from itertools import chain, combinations, groupby, repeat
from operator import lt, ne, or_

__all__ = [
    "Code",
    "CodeTextError",
    "Codeword",
    "Composition",
    "Gdc",
    "GdcType",
    "GroupPartition",
    "VerificationReport",
    "Violation",
    "conflict_rows",
    "gdc_type",
    "hamming_distance",
    "read_code_text",
    "verify_expectations",
    "verify_gdc",
    "violations",
    "write_code_text",
]


class CodeTextError(ValueError):
    """A malformed code or GDC interchange text (see :func:`read_code_text`)."""


# Bound on the ambient length of a code file and on the point count of a
# manifest, checked before anything of that size is built (the largest
# shipped manifest has 243 points).
_MAX_POINTS = 10_000


class _Record:
    """An immutable value: its fields are its ``__slots__``, which ``__init__``
    sets once from its arguments in that order.  Equality, hashing and
    ``repr`` go by the field values, as for a frozen dataclass, and assigning
    or deleting a field raises."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which alone sets fields.
        return type(self), self._values()


class Composition(_Record):
    """Symbol multiplicities [w1, ..., w_{q-1}].

    The catalog convention keeps these normalized (non-increasing); values
    read straight off a codeword may be unordered, and the bounds that
    require normalization check :attr:`is_normalized` themselves.
    """

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: tuple[int, ...]) -> None:
        if not weights or any(x <= 0 for x in weights):
            raise ValueError(f"composition entries must be positive: {weights}")
        super().__init__(weights)

    @property
    def weight(self) -> int:
        return sum(self.weights)

    @property
    def is_normalized(self) -> bool:
        w = self.weights
        return all(w[i] >= w[i + 1] for i in range(len(w) - 1))

    @staticmethod
    def parse(text: str) -> "Composition":
        return Composition(tuple(int(x) for x in text.replace(" ", "").split(",")))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.weights)


class Codeword:
    """A sparse q-ary word, nothing but one sorted support per symbol.

    Construction canonicalizes (sorts each class) and validates disjointness
    and that every point lies in [0, n), so two equal words always compare
    and hash equal.  The word does not keep n: a word of length n is also a
    word of every longer length, and its length is that of its code.
    """

    __slots__ = ("supports",)

    def __init__(self, supports: Sequence[Iterable[int]], n: int):
        sup = tuple([tuple(sorted(cls)) for cls in supports])
        # A sorted class lies in range when its ends do.  While the union of
        # the classes so far is as large as their sizes' sum, no class
        # repeats a point and none overlaps another; otherwise a class whose
        # set is smaller than it repeats one.  An overlap is raised only once
        # every class has passed its own two checks.
        union: set[int] = set()
        size = 0
        for cls in sup:
            if cls and (cls[0] < 0 or cls[-1] >= n):
                x = next(x for x in cls if not 0 <= x < n)
                raise ValueError(f"point {x} outside ambient range [0, {n})")
            union.update(cls)
            size += len(cls)
            if len(union) != size and len(set(cls)) != len(cls):
                raise ValueError(f"repeated point within a symbol class: {cls}")
        if len(union) != size:
            raise ValueError(f"symbol classes overlap: {sup}")
        self.supports = sup

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(x for cls in self.supports for x in cls))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Codeword) and self.supports == other.supports

    def __hash__(self) -> int:
        return hash(self.supports)

    def __repr__(self) -> str:
        inner = " ; ".join(",".join(str(x) for x in cls) for cls in self.supports)
        return f"<{inner}>"


def _words(sups: Iterable[tuple[tuple[int, ...], ...]]) -> list[Codeword]:
    """Words on supports that already pass every check of :class:`Codeword`,
    such as a valid word's images under an injective point map, made by
    C-level maps with no Python-level call per word."""
    sups = list(sups)
    words = list(map(object.__new__, repeat(Codeword, len(sups))))
    deque(map(setattr, words, repeat("supports"), sups), maxlen=0)
    return words


def hamming_distance(u: Codeword, v: Codeword) -> int:
    """Hamming distance of the implied full vectors: w_u + w_v - overlap - agreements."""
    symbol = {x: s for s, cls in enumerate(u.supports) for x in cls}
    # For each point that both words carry, whether their symbols agree there.
    shared = [symbol[x] == s for s, cls in enumerate(v.supports) for x in cls if x in symbol]
    return len(symbol) + sum(map(len, v.supports)) - len(shared) - sum(shared)


class Violation(_Record):
    __slots__ = ("kind", "witness", "measured")
    kind: str  # distance | composition | group-hit | duplicate | size-mismatch | type-mismatch
    witness: tuple
    measured: object

    def __str__(self) -> str:
        return f"{self.kind} at {self.witness}: {self.measured}"


class VerificationReport(_Record):
    __slots__ = ("violations",)
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "OK"
        head = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        return f"{len(self.violations)} violation(s): {head}{more}"


class Code(_Record):
    """A set of codewords with a declared length, composition and distance.

    Words are kept in construction order and may contain duplicates; the
    verifier flags duplicates rather than silently removing them.
    """

    __slots__ = ("n", "composition", "distance", "words")

    def __init__(self, n: int, composition: Composition, distance: int,
                 words: Iterable[Codeword]):
        super().__init__(n, composition, distance, tuple(words))

    def __len__(self) -> int:
        return len(self.words)

    def as_code(self) -> "Code":
        """The code itself (the counterpart of :meth:`Gdc.as_code`)."""
        return self

    def __repr__(self) -> str:
        return (f"Code(n={self.n}, comp=[{self.composition}], d={self.distance}, "
                f"size={len(self.words)})")


class GroupPartition(_Record):
    """Disjoint groups covering [0, n)."""

    __slots__ = ("groups",)
    groups: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(groups: Iterable[Iterable[int]]) -> "GroupPartition":
        return GroupPartition(tuple(tuple(sorted(g)) for g in groups))

    @staticmethod
    def singletons(n: int) -> "GroupPartition":
        return GroupPartition(tuple((i,) for i in range(n)))

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty group in partition")
            seen.update(g)
        if len(seen) != sum(map(len, self.groups)) or seen != set(range(n)):
            raise ValueError("groups do not partition [0, n)")

    def group_of(self) -> dict[int, int]:
        return {x: i for i, g in enumerate(self.groups) for x in g}

    def type(self) -> "GdcType":
        """The multiset of group sizes, whether or not the groups partition
        [0, n): :func:`gdc_type` validates first."""
        return GdcType.of_sizes(map(len, self.groups))


class Gdc(_Record):
    """A code plus a coordinate partition; every word meets each group at most once.

    ``symmetry`` is None or a tuple of generator claims (image, lengths,
    run).  Each says that the point map ``image`` sends every word to the
    word ``run`` places later inside its cycle, where the words fall, in
    order, into cycles of ``lengths[c] * run`` words and the last run of a
    cycle maps back onto its first.  :func:`violations` checks every claim
    exactly before it relies on them.
    """

    __slots__ = ("code", "partition", "symmetry")

    def __init__(self, code: Code, partition: GroupPartition,
                 symmetry: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...] | None = None):
        super().__init__(code, partition, symmetry)

    @property
    def n(self) -> int:
        return self.code.n

    def __len__(self) -> int:
        return len(self.code)

    def as_code(self) -> Code:
        """Forget the group structure (a GDC is in particular a plain code)."""
        return self.code

    def __repr__(self) -> str:
        return f"Gdc({self.code!r}, type={self.partition.type()})"


class GdcType(_Record):
    """Multiset of group sizes; compares by multiset, prints in exponential form."""

    __slots__ = ("factors",)
    factors: tuple[tuple[int, int], ...]  # (size, multiplicity), ascending by size

    @staticmethod
    def of_sizes(sizes: Iterable[int]) -> "GdcType":
        counts: dict[int, int] = {}
        for s in sizes:
            counts[s] = counts.get(s, 0) + 1
        return GdcType(tuple(sorted(counts.items())))

    @staticmethod
    def parse(text: str) -> "GdcType":
        """Read ``g^u`` factors and bare sizes ``g`` (one group each); a
        size or count below 1, or text with no factor, is a ValueError."""
        counts: dict[int, int] = {}
        for part in text.split():
            base, caret, exp = part.partition("^")
            size, count = int(base), int(exp) if caret else 1
            if size < 1 or count < 1:
                raise ValueError(f"want group sizes and counts of at least 1: {part!r}")
            counts[size] = counts.get(size, 0) + count
        if not counts:
            raise ValueError(f"want at least one group size: {text!r}")
        return GdcType(tuple(sorted(counts.items())))

    def __str__(self) -> str:
        return " ".join(f"{s}^{m}" for s, m in self.factors)


def gdc_type(g: Gdc) -> GdcType:
    g.partition.validate(g.n)
    return g.partition.type()


def _bitset(indices: Iterable[int], size: int) -> int:
    # The int with exactly the given bits set, built in one pass over a buffer.
    buf = bytearray((size + 7) // 8)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _cells(words: Sequence[Codeword]) -> tuple:
    """The kernel's masks over all words, built once per scan: per symbol s,
    A(x, s) for each point x that carries s; P(x), the union of the A(x, s);
    each word's weight; and (weight, mask) for each weight class.
    """
    nw = len(words)
    size = (nw + 7) // 8
    # One pass: per symbol, the bytes of the words with that symbol at each
    # point, and each word's weight and the words of each weight.
    a_mask: list[dict] = []
    weight: list[int] = []
    classes: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        byte, bit = i >> 3, 1 << (i & 7)
        wt = 0
        for s, cls in enumerate(w.supports):
            if s == len(a_mask):
                a_mask.append({})
            at = a_mask[s]
            for x in cls:
                buf = at.get(x)
                if buf is None:
                    buf = at[x] = bytearray(size)
                buf[byte] |= bit
            wt += len(cls)
        weight.append(wt)
        classes.setdefault(wt, []).append(i)
    # Each buffer becomes its int in place, so only one is held twice.
    for at in a_mask:
        for x, buf in at.items():
            at[x] = int.from_bytes(buf, "little")
    p_mask: dict[int, int] = {}
    for masks in a_mask:
        for x, m in masks.items():
            p_mask[x] = p_mask.get(x, 0) | m
    w_mask = [(wv, _bitset(ix, nw)) for wv, ix in classes.items()]
    return a_mask, p_mask, weight, w_mask


@lru_cache(maxsize=32)
def _compiled(top_c: int, top_d: int, pairs: tuple) -> Callable:
    """The row function of one plan structure, compiled from its source:
    ``bind(whole, m0, m1, ..., at)`` returns ``row(supports)``, which walks
    u's (class, point) pairs once with C[1..top_c] and D[1..top_d] as locals,
    each updated highest level first; a level not reached yet ORs in 0.
    Term t of ``pairs`` holds the (k, j) pairs of weight class mask m_t."""
    ms = [f"m{t}" for t in range(len(pairs))]
    body = "return whole"
    if pairs:
        levels = [f"c{k}" for k in range(1, top_c + 1)] + [f"d{j}" for j in range(1, top_d + 1)]
        steps = ([f"c{k} |= c{k - 1} & p" for k in range(top_c, 1, -1)] + ["c1 |= p"]
                 + [f"d{j} |= d{j - 1} & a" for j in range(top_d, 1, -1)]
                 + ["d1 |= a"] * (top_d > 0))
        hits = [f"{m} & ({' | '.join(f'c{k} & d{j}' if j else f'c{k}' for k, j in term)})"
                for m, term in zip(ms, pairs)]
        body = (f"{' = '.join(levels)} = 0\n"
                "        for cell, cls in zip(at, sup):\n"
                "            for x in cls:\n"
                "                p, a = cell[x]\n"
                + "".join(f"                {s}\n" for s in steps)
                + f"        return whole | {' | '.join(hits)}")
    namespace: dict = {}
    exec(compile(f"def bind(whole, {''.join(m + ', ' for m in ms)}at):\n"
                 f"    def row(sup):\n"
                 f"        {body}\n"
                 f"    return row\n", "<conflict row>", "exec"), namespace)
    return namespace["bind"]


def _rows(words: Sequence[Codeword], distance: int, cells: tuple,
          rows: Iterable[int] | None = None) -> Iterator[tuple[int, int]]:
    # conflict_rows on masks that _cells built from the same words, for the
    # words of ``rows`` in turn (by default every word, in order).
    a_mask, p_mask, weight, w_mask = cells
    distance = max(distance, 1)
    # Per symbol s, each point x's (P(x), A(x, s)), the pair a row reads.
    at = [{x: (p_mask[x], a) for x, a in am.items()} for am in a_mask]
    kernels: dict[int, Callable] = {}
    for i in range(len(words)) if rows is None else rows:
        wu = weight[i]
        row = kernels.get(wu)
        if row is None:
            # Per weight class of v: its mask and its (k, th - k) pairs.  A
            # class with th <= 0 is whole, and one with th > 2 * w_u never
            # conflicts.
            whole, masks, pairs, top_c, top_d = 0, [], [], 0, 0
            for wv, m in w_mask:
                th = wu + wv - distance + 1
                if th <= 0:
                    whole |= m
                elif th <= 2 * wu:
                    ks = range((th + 1) // 2, min(th, wu) + 1)
                    masks.append(m)
                    pairs.append(tuple((k, th - k) for k in ks))
                    top_c, top_d = max(top_c, ks[-1]), max(top_d, th // 2)
            row = kernels[wu] = _compiled(top_c, top_d, tuple(pairs))(whole, *masks, at)
        # A word always conflicts with itself; that bit is cleared.
        yield i, row(words[i].supports) ^ (1 << i)


def conflict_rows(words: Sequence[Codeword], distance: int) -> Iterator[tuple[int, int]]:
    """Yield (i, row) for each word in turn, where bit j of ``row`` is set
    exactly when j != i and words i and j are equal or lie at Hamming
    distance below ``distance``.

    This is the one definition of conflicting words, shared by the verifier
    and the search.  As equal words always conflict, ``distance`` counts as
    at least 1.  Since d(u, v) = w_u + w_v - overlap - agreements, v
    conflicts with u exactly when overlap + agreements >= th, where th =
    w_u + w_v - distance + 1 is taken per weight of v.  As agreements <=
    overlap, that holds exactly when, for some k with ceil(th/2) <= k <=
    min(th, w_u), v shares at least k of u's points and agrees with u at
    at least th - k of them; th <= 0 takes v's whole weight class.  The rows
    are bit-parallel: over all words, one mask A(x, s) of the words with
    symbol s at point x, and P(x), the union of the A(x, s).  Walking u's
    cells (x, s), C[k] |= C[k-1] & P(x) keeps in C[k] the words sharing at
    least k of u's points, and D[j] |= D[j-1] & A(x, s) in D[j] those
    agreeing with u at at least j points, so no pair is measured.  Only the
    masks are held, never all rows.  Per weight of u, the whole classes, the
    terms and the top levels form a plan; a row function compiled once per
    plan structure (see :func:`_compiled`) runs it with C and D as locals.
    """
    yield from _rows(words, distance, _cells(words))


def _ones(m: int) -> Iterator[int]:
    # The positions of the set bits of m >= 0, ascending.
    i = -1
    while m:
        low = (m & -m).bit_length()
        m >>= low
        i += low
        yield i


def _pairs(words: Sequence[Codeword],
           rows: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int, int]]:
    # The pairs i < j of the given conflict rows, with their distances.
    for i, row in rows:
        for j in _ones(row >> i >> 1):
            yield i, i + 1 + j, hamming_distance(words[i], words[i + 1 + j])


def _composed(words: Sequence[Codeword], comp: tuple[int, ...]) -> bool:
    # Whether every word has the class sizes ``comp``: the class counts, then
    # the sizes of all classes in a row, each read in one pass.
    sups = [w.supports for w in words]
    return (list(map(len, sups)) == [len(comp)] * len(sups)
            and list(map(len, chain.from_iterable(sups))) == list(comp) * len(sups))


def verify_expectations(obj: Code | Gdc, expected_type: GdcType | None = None,
                        expected_size: int | None = None) -> VerificationReport:
    """Size and type of ``obj`` against those that a manifest or a pipeline
    ``expect`` line declares; scans no pairs.  A plain code has no type."""
    out = []
    if expected_size is not None and len(obj) != expected_size:
        out.append(Violation("size-mismatch", (), f"{len(obj)} != {expected_size}"))
    if expected_type is not None:
        actual = obj.partition.type() if isinstance(obj, Gdc) else "a plain code"
        if actual != expected_type:
            out.append(Violation("type-mismatch", (), f"{actual} != {expected_type}"))
    return VerificationReport(tuple(out))


def _cycle_starts(g: Code | Gdc, cells: tuple) -> list[int] | None:
    """The words that start a cycle under every claim of ``g.symmetry`` when
    all the claims hold, else None (a plain code makes no claim).

    A claim (image, lengths, run) says that the words fall, in order, into
    cycles of ``lengths[c] * run`` words, and that x -> image[x] maps each
    word onto the word ``run`` places later in its cycle, a word of the last
    run onto the word ``(lengths[c] - 1) * run`` places earlier.  Let pi be
    that permutation of word indices.  The claim holds exactly when image is
    a permutation of [0, n), run and the lengths are positive, the cycles
    hold N words, and pi maps A(x, s) onto A(image[x], s) for every point x
    and symbol s: then word pi(i) carries s at image[x] just when word i
    carries s at x.  A word starts a cycle when it lies in the cycle's
    first run.  Masks are compared only at points in [0, n), so the caller
    relies on the claims only when no word has a point outside it.
    """
    if not getattr(g, "symmetry", None):
        return None
    words, n = g.code.words, g.n
    nw = len(words)
    starts = -1  # every word, until a claim's first runs cut it down
    for image, lengths, run in g.symmetry:
        if (sorted(image) != list(range(n)) or run < 1 or min(lengths, default=1) < 1
                or sum(lengths) * run != nw):
            return None
        # pi moves each bit up by run, except those of a cycle's last run,
        # which move down to its first: one shift per distinct cycle length.
        # Over k consecutive cycles of one length, the first runs are one
        # cycle's first run repeated by doubling shifts, then cut to k, and
        # the last runs are those shifted.
        firsts, ends, i = 0, {}, 0
        for length, same in groupby(lengths):
            k, period = len(list(same)), length * run
            first, copies = (1 << run) - 1, 1
            while copies < k:
                first |= first << copies * period
                copies *= 2
            first = (first & (1 << k * period) - 1) << i
            firsts |= first
            ends[length] = ends.get(length, 0) | first << (length - 1) * run
            i += k * period
        down = [((length - 1) * run, m) for length, m in ends.items()]
        up = ((1 << nw) - 1) ^ reduce(or_, ends.values(), 0)
        for at in cells[0]:
            for x in range(n):
                a = at.get(x, 0)
                moved = (a & up) << run
                for k, m in down:
                    moved |= (a & m) >> k
                if moved != at.get(image[x], 0):
                    return None
        starts &= firsts
    return list(_ones(starts))


def violations(obj: Code | Gdc, expected_type: GdcType | None = None,
               expected_size: int | None = None) -> Iterator[Violation]:
    """Yield every violation of a code or a GDC, as found, on one build of
    the kernel's masks, ordered by witness length, then witness, then kind:
    an invalid partition and :func:`verify_expectations` (witness ``()``);
    each word's first point outside [0, n) and its class sizes, in word
    order; then, a row at a time, the conflicting pairs (i, j > i),
    measured, and the group hits (i, k) of word i.  Only one row's entries
    are held.

    When every claim of a GDC's ``symmetry`` holds (see
    :func:`_cycle_starts`), the claimed maps generate a group of
    automorphisms, which preserve distances.  The lowest word of any orbit
    of that group starts a cycle under every claim, since each claim's
    inverse would otherwise give a lower word of the orbit.  So every pair
    of words is the image of a pair that holds such a start, and the scan
    reads only the starts' rows.  A claim that fails, any such row that is
    set, or a word with a point outside [0, n), which no claim sees, scans
    every row, as a plain code always does.
    """
    code = obj.as_code()
    words, n = code.words, code.n
    cells = _cells(words)
    part = obj.partition if isinstance(obj, Gdc) else None
    if part is not None:
        try:
            part.validate(n)
        except ValueError as e:
            part = None
            yield Violation("group-hit", (), str(e))
    yield from verify_expectations(obj, expected_type, expected_size).violations
    # The words with a point outside [0, n), read off the point masks.
    outside = reduce(or_, (m for x, m in cells[1].items() if not 0 <= x < n), 0)
    far = {i: next(x for x in words[i].support() if not 0 <= x < n) for i in _ones(outside)}
    comp = code.composition.weights
    for i, w in enumerate(() if not far and _composed(words, comp) else words):
        if i in far:
            yield Violation("composition", (i,), f"point {far[i]} outside [0, {n})")
        sizes = tuple(map(len, w.supports))
        if sizes != comp:
            yield Violation("composition", (i,), str(sizes))
    # Per group, ``one`` holds the words meeting it so far and ``two`` those
    # meeting some group twice.
    two = 0
    for grp in () if part is None else part.groups:
        one = 0
        for x in grp:
            p = cells[1].get(x, 0)
            two |= one & p
            one |= p
    hits = set(_ones(two))
    gid = part.group_of() if hits else {}
    starts = None if far else _cycle_starts(obj, cells)
    if starts is None or any(row for _, row in _rows(words, code.distance, cells, starts)):
        rows = _rows(words, code.distance, cells)
    else:
        rows = ((i, 0) for i in _ones(two))
    for i, row in rows:
        # A clear row of a word with no group hit costs no allocation.
        if not row and i not in hits:
            continue
        found = [Violation("distance" if d else "duplicate", (i, j), d)
                 for _, j, d in _pairs(words, ((i, row),))]
        if i in hits:
            # Name each repeat of a group in point order.  A point outside
            # [0, n) is in no group; it is reported apart.
            seen: dict[int, int] = {}
            for x in words[i].support():
                k = gid.get(x)
                if k in seen:
                    found.append(Violation("group-hit", (i, k), f"points {seen[k]} and {x}"))
                elif k is not None:
                    seen[k] = x
            found.sort(key=lambda v: (v.witness, v.kind))
        yield from found


def verify_gdc(g: Code | Gdc, expected_type: GdcType | None = None,
               expected_size: int | None = None) -> VerificationReport:
    """Every violation of a GDC or a code, the expectations included."""
    return VerificationReport(tuple(violations(g, expected_type, expected_size)))


# ---------------------------------------------------------------------------
# Text interchange format
#
# Header lines `n=` (1 to 10,000), `composition=`, `distance=` (at most
# twice the composition's weight), then an optional `groups=` block (one
# comma-separated group per line; ends at the first codeword line), then one
# codeword per line: symbol-1 points, `;`, symbol-2 points.  A word of a
# one-class composition has no `;`; outside a `groups=` block, such a line is
# a codeword, and that block ends once its groups hold n points.  Each header
# line appears at most once, before the first codeword line.  `#` starts a
# comment.
#
# The writer puts each class's points in ascending order, joined by `,`, and
# the classes by ` ; `.  The reader takes the text from the first codeword
# line on in one bulk pass when it is nothing but words in that form, each of
# the composition's class sizes and passing the checks of Codeword, one per
# line with no comment, blank line or other spacing.  Any other text, valid
# or not, is read line by line, which names each fault.
# ---------------------------------------------------------------------------

def _format(sizes: Iterable[int], point: str = "%s") -> str:
    # A written word with classes of the given sizes, each point as ``point``.
    return " ; ".join([",".join([point] * s) for s in sizes])


def write_code_text(obj: Code | Gdc) -> str:
    code = obj.as_code()
    lines = [f"n={code.n}", f"composition={code.composition}", f"distance={code.distance}"]
    if isinstance(obj, Gdc):
        lines.append("groups=")
        lines += [",".join(map(str, grp)) for grp in obj.partition.groups]
    # The word block is one format over every point of every word in turn.
    words, comp = code.words, code.composition.weights
    if words:
        sups = [w.supports for w in words]
        fmts = ([_format(comp)] * len(words) if _composed(words, comp)
                else [_format(map(len, sup)) for sup in sups])
        lines.append("\n".join(fmts) % tuple(chain.from_iterable(chain.from_iterable(sups))))
    return "\n".join(lines) + "\n"


def _read_block(block: str, n: int, comp: tuple[int, ...]) -> list[Codeword] | None:
    """The words of ``block`` when it is a word block in the writer's form
    whose every word passes the checks of :class:`Codeword`, else None."""
    word = _format(comp, "[0-9]+")
    if not re.fullmatch(f"{word}(?:\n{word})*", block):
        return None
    try:
        ints = list(map(int, block.replace(" ; ", ",").replace("\n", ",").split(",")))
    except ValueError:  # a number too long for int()
        return None
    # The form has no sign, so no point is below 0.
    if max(ints) >= n:
        return None
    # Column p holds the points at position p of every word, and cls[p] the
    # class of that position.  Each point must lie below the next of its
    # class and differ from every point of a later class.
    cls = [c for c, s in enumerate(comp) for _ in range(s)]
    cols = [ints[p::len(cls)] for p in range(len(cls))]
    if not all(all(map(lt if cls[p] == cls[q] else ne, cols[p], cols[q]))
               for p, q in combinations(range(len(cls)), 2)
               if cls[p] != cls[q] or q == p + 1):
        return None
    points = iter(ints)
    return _words(zip(*[zip(*[points] * s) for s in comp]))


def read_code_text(text: str) -> Code | Gdc:
    """Parse the interchange format.  Every fault raises CodeTextError; the
    message of a fault on a line starts with ``line N: `` (1-based)."""
    n = comp = dist = None
    groups: list[tuple[int, ...]] | None = None
    block: list[tuple[int, ...]] | None = None  # groups, until a codeword line
    held = 0  # the points of the groups so far
    words: list[Codeword] = []
    seen: set[str] = set()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line[0].isalpha():
                key, eq, value = line.partition("=")
                if eq and key in ("n", "composition", "distance", "groups"):
                    if words:
                        raise ValueError(f"header line after a codeword line: {line!r}")
                    if key in seen:
                        raise ValueError(f"repeated header line: {line!r}")
                    seen.add(key)
                    if key == "n":
                        n = int(value)
                        if not 1 <= n <= _MAX_POINTS:
                            raise ValueError(f"want n in [1, {_MAX_POINTS}]: {line!r}")
                    elif key == "composition":
                        comp = Composition.parse(value)
                    elif key == "distance":
                        dist = int(value)
                    elif value:
                        raise ValueError(f"text after groups=: {line!r}")
                    else:
                        groups = block = []
                    # No two words lie further apart than twice the weight,
                    # so a larger distance would report every pair.
                    if comp is not None and dist is not None and dist > 2 * comp.weight:
                        raise ValueError(f"want a distance of at most twice the weight "
                                         f"({2 * comp.weight}): {line!r}")
                    continue
            if n is None or comp is None or dist is None:
                raise ValueError(f"codeword line before complete header: {line!r}")
            if ";" in line or (block is None and len(comp.weights) == 1):
                block = None
                if not words:
                    # The first codeword line: the rest in one pass, if it can.
                    bulk = _read_block("\n".join(lines[lineno - 1:]), n, comp.weights)
                    if bulk is not None:
                        words = bulk
                        break
                # A class of blank text is empty; an empty item is a fault.
                words.append(Codeword([[int(x) for x in part.split(",")] if part.strip() else []
                                       for part in line.split(";")], n))
            elif block is not None:
                block.append(tuple(int(x) for x in line.split(",")))
                held += len(block[-1])
                # A one-class word looks like a group, so a one-class
                # composition's block ends once its groups hold n points.
                if held >= n and len(comp.weights) == 1:
                    block = None
            else:
                raise ValueError(f"unparseable line: {line!r}")
        except ValueError as e:
            raise CodeTextError(f"line {lineno}: {e}") from None
    if n is None or comp is None or dist is None:
        raise CodeTextError("missing header (n=, composition=, distance=)")
    code = Code(n, comp, dist, words)
    if groups is not None:
        return Gdc(code, GroupPartition.of(groups))
    return code
