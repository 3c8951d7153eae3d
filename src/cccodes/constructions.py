"""Code-building combinators: direct constructions from skew Room frames and
difference matrices, and the four recursive constructions (filling groups,
adjoining points, Wilson-style weighting, inflation by a transversal design),
and shortening by one point.

Point naming under combination is deterministic: outputs are relabeled onto
dense indices via sorted group order and sorted points, so repeated runs are
bit-for-bit reproducible.  Words are made unchecked by
:func:`cccodes.core._words`: the direct constructions verify their design
first, and the others send valid words through injective point maps, so
every word is valid as built and each class is only sorted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, islice

from .core import (Code, Codeword, Composition, Gdc, GdcType, GroupPartition,
                   _words, gdc_type)
from .designs import (DifferenceMatrix, Gdd, RoomFrame, build_td, verify_dm,
                      verify_gdd, verify_skew_room_frame)

__all__ = [
    "ConstructionError",
    "adjoin_points",
    "dm_to_gdc",
    "empty_code",
    "fill_groups",
    "fundamental",
    "inflate",
    "shorten",
    "srf_to_gdc",
]


class ConstructionError(ValueError):
    pass


def empty_code(n: int, comp: Composition) -> Code:
    return Code(n, comp, 6, [])


def srf_to_gdc(f: RoomFrame) -> Gdc:
    """[2,2]-GDC(6) of type (6t)^u from a skew Room frame of type t^u.

    Points are (side symbol, level) pairs on S x Z6, point 6x + level; each
    filled cell (r, c) holding {a, b} yields, for every level j, the two words
    <(a,j),(b,j);(c,1+j),(r,4+j)> and <(c,4+j),(r,1+j);(a,j),(b,j)>.  They
    are valid in a verified frame: a != b, and each class has its own levels.
    """
    rep = verify_skew_room_frame(f)
    if not rep.ok:
        raise ConstructionError(f"invalid skew Room frame: {rep.summary()}")
    sups = []
    for (r, c) in sorted(f.cells):
        a, b = sorted(f.cells[(r, c)])
        for j in range(6):
            ab = (6 * a + j, 6 * b + j)
            sups.append((ab, tuple(sorted((6 * c + (1 + j) % 6, 6 * r + (4 + j) % 6)))))
            sups.append((tuple(sorted((6 * c + (4 + j) % 6, 6 * r + (1 + j) % 6))), ab))
    groups = [[6 * x + j for x in hole for j in range(6)] for hole in f.holes]
    return Gdc(Code(6 * f.side, Composition((2, 2)), 6, _words(sups)),
               GroupPartition.of(groups))


def dm_to_gdc(d: DifferenceMatrix) -> Gdc:
    """[2,2]-GDC(6) of type g^4 with size 2g^2 from a (g,4;1) difference matrix.

    Points are (row index, group element) on 4 groups of size g, point
    i*g + v.  The second word family shifts the first two rows by the
    nonzero element 1.  Words are valid as built: one point per group, each
    class in row order.
    """
    if d.k != 4:
        raise ConstructionError(f"need a (g,4;1)-DM, got k={d.k}")
    rep = verify_dm(d)
    if not rep.ok:
        raise ConstructionError(f"invalid difference matrix: {rep.summary()}")
    g = d.g
    sups = []
    for c0, c1, c2, c3 in zip(*d.rows):
        for k in range(g):
            shifted = d.add(1, k)
            high = (2 * g + d.add(c2, k), 3 * g + d.add(c3, k))
            sups.append(((d.add(c0, k), g + d.add(c1, k)), high))
            sups.append((high, (d.add(c0, shifted), g + d.add(c1, shifted))))
    groups = [tuple(range(i * g, (i + 1) * g)) for i in range(4)]
    return Gdc(Code(4 * g, Composition((2, 2)), 6, _words(sups)),
               GroupPartition.of(groups))


def _relabel(words: Iterable[Codeword], mapping: Sequence[int], n: int) -> list[Codeword]:
    """Each word with every point x sent to ``mapping[x]``, as a word of
    length n.  The map is checked once: its targets must be distinct and lie
    in [0, n).  A valid word's image is then a valid word, so each image
    class is only sorted."""
    if len(set(mapping)) != len(mapping) or not all(0 <= t < n for t in mapping):
        raise ConstructionError(f"relabelling map is not injective into [0, {n})")
    return _words([tuple([tuple(sorted([mapping[x] for x in cls])) for cls in w.supports])
                   for w in words])


def _filled(g: Gdc, y: int, fillers: Iterable[Code | Gdc | None],
            job: str) -> tuple[list[Codeword], list[tuple[int, ...]]]:
    """The words of ``g`` and of its fillers, one per group in order, with
    each filler's points [0, s) on its group's s points and [s, s + y) on
    the ideal points [n, n + y), and the fillers' groups (singletons for a
    Code).  Faults are named group by group in the order checked."""
    code = g.code
    if code.distance > 2 * (code.composition.weight - 1):
        raise ConstructionError(f"{job} requires d <= 2(w-1)")
    n = code.n + y
    ideal = list(range(code.n, n))
    words = list(code.words)
    groups: list[tuple[int, ...]] = []
    for gi, (grp, filler) in enumerate(zip(g.partition.groups, fillers)):
        size = len(grp)
        if filler is None:
            raise ConstructionError(f"no filler for group size {size}")
        fcode = filler.as_code()
        if fcode.composition != code.composition and fcode.words:
            raise ConstructionError("filler composition mismatch")
        if gi and y > 1:
            if not isinstance(filler, Gdc):
                raise ConstructionError(
                    f"filler for size {size} must be a GDC of type 1^{size} {y}^1")
            if tuple(range(size, size + y)) not in filler.partition.groups:
                raise ConstructionError("filler must be a GDC of type 1^s y^1 with "
                                        "the y-group on its final points")
        if fcode.n != size + y:
            raise ConstructionError(
                f"filler length {fcode.n} does not match slot of size {size + y}")
        targets = list(grp) + ideal
        words += _relabel(fcode.words, targets, n)
        groups += ([tuple(sorted(targets[x] for x in fg)) for fg in filler.partition.groups]
                   if isinstance(filler, Gdc) else [(t,) for t in targets])
    return words, groups


def fill_groups(g: Gdc, fillers: dict[int, Code | Gdc]) -> Code | Gdc:
    """Fill every group of size s with ``fillers[s]`` relabeled onto it.

    The filler for size s must be an (s, d, w)-code (or a GDC, enabling nested
    fills); the result is a plain code when every remaining group is a
    singleton, else a GDC with the union of the filler partitions.
    """
    words, groups = _filled(g, 0, map(fillers.get, map(len, g.partition.groups)), "filling")
    code = Code(g.n, g.code.composition, g.code.distance, words)
    if all(len(x) == 1 for x in groups):
        return code
    return Gdc(code, GroupPartition.of(groups))


def adjoin_points(g: Gdc, y: int, first_code: Code | Gdc,
                  fillers: dict[int, Code | Gdc]) -> Code:
    """Adjoin y ideal points: the first group (group 0) plus the ideal points
    receive ``first_code``, a (g0+y)-code; every other group G plus the ideal
    points receives a GDC of type 1^{|G|} y^1 whose y-group lands on the
    ideal points.

    Filler point convention: indices [0, s) map onto the group's points in
    sorted order and [s, s+y) onto the ideal points, matching a type
    1^s y^1 GDC whose final group is the ideal set.  Every filler, the first
    code included, must have the host's composition unless it is empty.
    """
    if y < 0:
        raise ConstructionError(f"want y >= 0 ideal points: {y}")
    rest = map(fillers.get, map(len, g.partition.groups[1:]))
    words, _ = _filled(g, y, [first_code, *rest], "adjoining")
    return Code(g.n + y, g.code.composition, g.code.distance, words)


def shorten(code: Code, point: int) -> Code:
    """Delete ``point``: drop the words that use it and relabel every point
    above it one lower, giving a code of length n-1."""
    if not 0 <= point < code.n:
        raise ConstructionError(f"point {point} outside [0, {code.n})")
    # x -> x - (x > point) keeps each class sorted and sends the points
    # other than ``point`` one to one onto [0, n-1).  It is the identity
    # below ``point``, so a word lying there is kept as it is.
    words = [w for w in code.words if not any(point in cls for cls in w.supports)]
    moved = [i for i, w in enumerate(words)
             if max(chain.from_iterable(w.supports), default=-1) > point]
    sups = [tuple([tuple([x - (x > point) for x in cls]) for cls in words[i].supports])
            for i in moved]
    for i, w in zip(moved, _words(sups)):
        words[i] = w
    return Code(code.n - 1, code.composition, code.distance, words)


def fundamental(master: Gdd, w: int, ingredients: Iterable[Gdc]) -> Gdc:
    """Wilson's fundamental construction with every point of weight ``w``.

    Point x of the master GDD becomes the fiber [x*w, (x+1)*w), and each
    master block of k >= 2 points is replaced by the ingredient GDC of type
    w^k: its groups, in sorted order, land on the fibers of the block's
    points in sorted order.  Ingredients are looked up by type; of two with
    the same type the later one is used.  The result's groups are the master
    groups' fibers.
    """
    if w < 1:
        raise ConstructionError(f"need a weight w >= 1, got {w}")
    rep = verify_gdd(master)
    if not rep.ok:
        raise ConstructionError(f"invalid master design: {rep.summary()}")
    n = master.n * w
    by_type = {gdc_type(g): g for g in ingredients}
    words: list[Codeword] = []
    first: Code | None = None  # the first ingredient used; it labels the result
    for block in master.blocks:
        if len(block) < 2:
            continue
        typ = GdcType.of_sizes([w] * len(block))
        if typ not in by_type:
            raise ConstructionError(f"no ingredient of type {typ}")
        ing = by_type[typ]
        if first is None:
            first = ing.code
        mapping = [0] * ing.code.n
        for a, grp in zip(sorted(block), sorted(ing.partition.groups)):
            for slot, x in enumerate(sorted(grp)):
                mapping[x] = a * w + slot
        words.extend(_relabel(ing.code.words, mapping, n))
    if first is None:
        raise ConstructionError("the master design has no block of two or more points")
    out_groups = [tuple(a * w + slot for a in sorted(grp) for slot in range(w))
                  for grp in master.partition.groups]
    return Gdc(Code(n, first.composition, first.distance, words),
               GroupPartition.of(out_groups))


def inflate(g: Gdc, m: int, td: Gdd | None = None) -> Gdc:
    """Multiply a GDC by m through a TD(w, m): each word times each TD block,
    in that order, the word's i-th point x (classes in order) landing at
    x*m + v for the block's point v in TD group i.

    When m = p^e, the result claims the e translations v -> v + p^k of
    GF(p^e) on every group's levels (digit k of v in base p moves up by one,
    mod p).  :func:`build_td`'s block (a, b) lies at index a*m + b and its
    levels are a*x_i + b, so translating b by p^k sends each word to the
    word p^k places later, or (p-1)*p^k earlier at the wrap: a claim with
    cycles of length p and run p^k.  Only the words with b = 0 start a
    cycle under every claim, so the verifier reads N/m rows.  A TD whose
    blocks lie in another order, or with a slope group (w = m+1), fails the
    claims and is verified on every row.
    """
    code = g.code
    w = code.composition.weight
    if td is None:
        td = build_td(w, m)
    sizes = {len(grp) for grp in td.partition.groups}
    if len(td.partition.groups) != w or sizes != {m}:
        raise ConstructionError(f"need a TD({w},{m}) to inflate")
    rep = verify_gdd(td)
    if not rep.ok:
        raise ConstructionError(f"invalid transversal design: {rep.summary()}")
    n = code.n * m
    # Column i holds each block's level in TD group i (td points are
    # i*m + v).  x*m + v keeps every class sorted, distinct and inside
    # [0, n), so a word's images are its points' columns, cut into classes.
    columns = list(zip(*[[x % m for x in sorted(b)] for b in td.blocks]))
    sups: list[tuple[tuple[int, ...], ...]] = []
    for u in code.words:
        cols = iter([map((x * m).__add__, col)
                     for x, col in zip(chain.from_iterable(u.supports), columns)])
        sups += zip(*[zip(*islice(cols, len(cls))) for cls in u.supports])
    words = _words(sups)
    groups = [tuple(x * m + v for x in grp for v in range(m)) for grp in g.partition.groups]
    # When m = p^e: v -> v + p^k moves digit k of v up by one, mod p.
    p = next((q for q in range(2, m + 1) if m % q == 0), 1)
    steps = [p ** k for k in range(m.bit_length()) if p ** (k + 1) <= m]
    claims = []
    if p ** len(steps) == m > 1:
        for step in steps:
            shift = [v - (p - 1) * step if v // step % p == p - 1 else v + step
                     for v in range(m)]
            image = tuple(x * m + s for x in range(code.n) for s in shift)
            claims.append((image, (p,) * (len(words) // (p * step)), step))
    return Gdc(Code(n, code.composition, code.distance, words), GroupPartition.of(groups),
               tuple(claims) or None)
