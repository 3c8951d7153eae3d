"""Development of base codewords under the cyclic group of one permutation.

A manifest describes a point set built from labeled classes, one generator
permutation g, a group partition, and base codewords, each developed as its
whole orbit under g or as a true truncation of it.  Developing a manifest
produces a group divisible code whose size is the exact sum of the declared
orbit lengths: words are never deduplicated, because transcription bugs show
up precisely as collapsed or colliding orbits, which the verifier then reports
as duplicates next to any size or type that differs from the declared one.

Manifest grammar (sections in square brackets, each at most once, as is
each meta key; `#` comments).  A section, meta key or directive not listed
here is an error, and every fault on a line, or in a section as a whole,
raises ManifestError with a message that starts ``line N: ``::

    [meta]
    composition = 2,2        # or 3,1
    distance = 6
    expected_size = 60       # optional; the verifier checks it
    expected_type = 2^10     # optional; the verifier checks it
    [classes]                # classes c0, c1, ... in order, each >= 1 point,
                             # at most 10,000 points in all
    plain 20                 # absolute integer labels 0..19; offsets stack
    ring 12 x 3              # labels x_0, x_1, x_2 with x in Z_12
    inf 2                    # fixed labels inf0, inf1 (a single one: inf)
    [generator]              # omitted = the identity
    shift 1 on c0            # x -> x+1 (mod m) inside class c0 (and any more);
                             # each class is shifted at most once
    [groups]                 # omitted = all singletons
    coset 10 on c0           # {i, i+10, ...} inside class c0 (1 <= S <= its size)
    coset 6 across c0 c1 c2  # {x : x = i mod 6} over the listed classes
    whole c1 c2              # one group: all points of the listed classes
    singletons c0
    [orbits]
    full: 0,5 ; 3,7          # the word's whole orbit under the generator
    short 4: 0,6 ; 1,7       # its first 4 words: a proper divisor of 20
"""

from __future__ import annotations

from itertools import islice, repeat
from math import lcm

from .core import (_MAX_POINTS, Code, Codeword, Composition, Gdc, GdcType,
                   GroupPartition, _Record, _words)

__all__ = [
    "DevelopmentError",
    "Manifest",
    "ManifestError",
    "OrbitDecl",
    "Permutation",
    "develop",
    "orbit",
    "parse_manifest",
]


class ManifestError(ValueError):
    """Manifest text outside the grammar, or an unknown label or class."""


class DevelopmentError(ValueError):
    """A short orbit whose declared length is not a proper divisor of its
    full orbit's length."""


class Permutation(_Record):
    """A bijection on [0, n), stored as its image tuple: point x goes to
    ``image[x]``; :func:`orbit` applies it to a codeword's points."""

    __slots__ = ("image",)
    image: tuple[int, ...]

    def __init__(self, image: list[int] | tuple[int, ...] | range):
        if sorted(image) != list(range(len(image))):
            raise ManifestError("generator is not a bijection")
        super().__init__(tuple(image))


class OrbitDecl(_Record):
    __slots__ = ("base", "length")
    base: Codeword
    length: int | None  # declared length of a short orbit; None for a full one


class Manifest(_Record):
    __slots__ = ("n", "composition", "distance", "generator", "partition", "orbits",
                 "expected_size", "expected_type", "name")
    n: int
    composition: Composition
    distance: int
    generator: Permutation
    partition: GroupPartition | None
    orbits: tuple[OrbitDecl, ...]
    expected_size: int | None
    expected_type: GdcType | None
    name: str


_SECTIONS = ("meta", "classes", "generator", "groups", "orbits")
_META = {"composition": Composition.parse, "distance": int,
         "expected_size": int, "expected_type": GdcType.parse}


class _Names(dict):
    """Labels or class references declared so far; any other is a fault."""

    def __init__(self, what: str):
        super().__init__()
        self.what = what

    def __missing__(self, key: str):
        raise ManifestError(f"unknown {self.what} {key!r}")


def parse_manifest(text: str, name: str = "") -> Manifest:
    """Read the grammar of the module docstring.  Every fault raises
    ManifestError; the message of a fault on a line starts with ``line N: ``
    (1-based), where a fault of a whole section names its header line."""
    lineno = None
    try:
        heads: dict[str, int] = {}
        sections: dict[str, list[tuple[int, str]]] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line.startswith("[") and line.endswith("]"):
                if line[1:-1] not in _SECTIONS or line[1:-1] in heads:
                    names = ", ".join(f"[{key}]" for key in _SECTIONS)
                    raise ValueError(f"want one of {names}, each at most once: {line!r}")
                heads[line[1:-1]] = lineno
                body = sections[line[1:-1]] = []
            elif line:
                if not heads:
                    raise ValueError(f"content before first section: {line!r}")
                body.append((lineno, line))
        lineno = None
        for key in ("meta", "classes", "orbits"):
            if key not in heads:
                raise ValueError(f"missing [{key}] section")

        meta: dict = {}
        for lineno, line in sections["meta"]:
            key, _, value = map(str.strip, line.partition("="))
            if key not in _META:
                raise ValueError(f"want one of {', '.join(_META)} = VALUE: {line!r}")
            if key in meta:
                raise ValueError(f"repeated meta key: {line!r}")
            meta[key] = _META[key](value)
        lineno = heads["meta"]
        if "composition" not in meta or "distance" not in meta:
            raise ValueError("meta must declare composition and distance")
        # As in a code file: no two words lie further apart than twice the weight.
        if meta["distance"] > 2 * meta["composition"].weight:
            raise ValueError(f"want a distance of at most twice the weight "
                             f"({2 * meta['composition'].weight}): {meta['distance']}")

        # Each class is the range of its points; c0, c1, ... in declaration order.
        classes, labels, fixed = _Names("class"), _Names("label"), set()
        n = plain = rings = 0
        for lineno, line in sections["classes"]:
            kind, *args = line.split()
            size = count = 0
            if kind in ("plain", "inf") and len(args) == 1:
                size, count = int(args[0]), 1
            elif kind == "ring" and len(args) == 3 and args[1] == "x":
                size, count = int(args[0]), int(args[2])
            if min(size, count) < 1:
                raise ValueError(f"want plain M, ring M x K or inf K with M, K >= 1: {line!r}")
            if n + size * count > _MAX_POINTS:
                raise ValueError(f"want at most {_MAX_POINTS} points in all: {line!r}")
            for _ in range(count):
                points = classes[f"c{len(classes)}"] = range(n, n + size)
                n += size
                if kind == "plain":
                    names = [str(plain + i) for i in range(size)]
                    plain += size
                elif kind == "ring":
                    names = [f"{i}_{rings}" for i in range(size)]
                    rings += 1
                else:
                    names = ["inf"] if size == 1 else [f"inf{i}" for i in range(size)]
                    fixed.add(points)
                for label, x in zip(names, points):
                    if label in labels:
                        raise ValueError(f"duplicate label {label!r}")
                    labels[label] = x

        image, shifted = list(range(n)), set()
        for lineno, line in sections.get("generator", ()):
            op, *args = line.split()
            if op != "shift" or len(args) < 3 or args[1] != "on":
                raise ValueError(f"want shift S on cK ...: {line!r}")
            for ref in args[2:]:
                c = classes[ref]
                if c in fixed:
                    raise ValueError("cannot shift an inf class")
                if ref in shifted:
                    raise ValueError(f"class {ref} is shifted twice: {line!r}")
                shifted.add(ref)
                k = int(args[0]) % len(c)
                image[c.start:c.stop] = [*c[k:], *c[:k]]

        partition = None
        if "groups" in heads:
            groups: list = []
            for lineno, line in sections["groups"]:
                op, *args = line.split()
                if op == "coset" and len(args) >= 3 and (
                        args[1] == "across" or args[1] == "on" and len(args) == 3):
                    step = int(args[0])
                    cs = [classes[ref] for ref in args[2:]]
                    # A larger step leaves a residue with no point: refuse it
                    # before building a group per residue.
                    largest = max(map(len, cs))
                    if not 1 <= step <= largest:
                        raise ValueError(f"want a coset step from 1 to {largest}: {line!r}")
                    groups += ([x for c in cs for x in c[i::step]] for i in range(step))
                elif op == "whole" and args:
                    groups.append([x for ref in args for x in classes[ref]])
                elif op == "singletons" and args:
                    groups += ([x] for ref in args for x in classes[ref])
                else:
                    raise ValueError("want coset S on cK, coset S across cK ..., "
                                     f"whole cK ... or singletons cK ...: {line!r}")
            lineno = heads["groups"]
            partition = GroupPartition.of(groups)
            partition.validate(n)

        orbits = []
        for lineno, line in sections["orbits"]:
            head, colon, body = line.partition(":")
            kind, _, length = head.strip().partition(" ")
            if not colon or kind not in ("full", "short") or (
                    (kind == "short") != (length.isdecimal() and int(length) > 0)):
                raise ValueError(f"want full: WORD or short L: WORD: {line!r}")
            word = Codeword([[labels[tok.strip()] for tok in part.split(",")]
                             for part in body.split(";")], n)
            if tuple(map(len, word.supports)) != meta["composition"].weights:
                raise ValueError(f"codeword arity does not match composition: {line!r}")
            orbits.append(OrbitDecl(word, int(length) if length else None))
    except ValueError as e:
        raise ManifestError(str(e) if lineno is None else f"line {lineno}: {e}") from None
    return Manifest(n, meta["composition"], meta["distance"], Permutation(image), partition,
                    tuple(orbits), meta.get("expected_size"), meta.get("expected_type"), name)


def _cycles(image: tuple[int, ...]) -> list[tuple[list[int], int]]:
    # Each point's cycle under x -> image[x], in the map's order, and the
    # point's place in it.
    table: list = [None] * len(image)
    for x in range(len(image)):
        if table[x] is None:
            cycle, y = [x], image[x]
            while y != x:
                cycle.append(y)
                y = image[y]
            for at, y in enumerate(cycle):
                table[y] = cycle, at
    return table


def _orbit(base: Codeword, cycles: list[tuple[list[int], int]]) -> list[Codeword]:
    # orbit() on the generator's cycle table.  g^t fixes the word just when,
    # for each class and each cycle it meets, turning the cycle by t fixes
    # the class's places in it, so the orbit's length is the lcm of the
    # least such turns: the least periods of the places' patterns, found
    # before any image.  Column t of a point is its t-th image; each class
    # is cut from its points' columns and sorted word by word.
    top = max((cls[-1] for cls in base.supports if cls), default=-1)
    if top >= len(cycles):
        raise ValueError(f"generator on {len(cycles)} points, word with point {top}")
    length = 1
    for cls in base.supports:
        patterns: dict[int, bytearray] = {}  # per cycle met: its places marked 1
        for x in cls:
            cycle, at = cycles[x]
            patterns.setdefault(cycle[0], bytearray(len(cycle)))[at] = 1
        for pattern in patterns.values():
            length = lcm(length, (pattern * 2).find(pattern, 1))
    classes = []
    for cls in base.supports:
        cols = []
        for x in cls:
            cycle, at = cycles[x]
            turned = cycle[at:] + cycle[:at]
            cols.append(turned * (length // len(cycle)) + turned[:length % len(cycle)])
        if len(cols) == 2:
            classes.append([(a, b) if a < b else (b, a) for a, b in zip(*cols)])
        elif len(cols) > 2:
            classes.append(map(tuple, map(sorted, zip(*cols))))
        else:
            classes.append(zip(*cols) if cols else repeat((), length))
    return [base, *_words(islice(zip(*classes), 1, None))]


def orbit(base: Codeword, g: Permutation) -> list[Codeword]:
    """Distinct images of ``base`` under repeated application of ``g``, in
    generation order, stopping when the base recurs.

    A valid word's image under a bijection of [0, n) is a valid word, so each
    image is only sorted, not validated again."""
    return _orbit(base, _cycles(g.image))


def develop(m: Manifest) -> Gdc:
    """Union of all declared orbits, in declaration order: each base word's
    orbit under the generator, a short one cut to its first L words.

    Only builds the words: the declared size and type, and duplicates across
    orbits, are checked by :func:`cccodes.core.verify_gdc`.  When every orbit
    is ``full``, the result carries one claim, with run 1: the generator
    maps each orbit's words one onto the next, which the verifier checks
    before it scans only the orbits' first words.  Raises
    :class:`DevelopmentError` when a short orbit's length is not a proper
    divisor of its full orbit's, a fact about the manifest text that no
    check on the developed code sees.
    """
    words: list[Codeword] = []
    lengths = []
    cycles = _cycles(m.generator.image)
    for k, decl in enumerate(m.orbits):
        cycle = _orbit(decl.base, cycles)
        length = len(cycle) if decl.length is None else decl.length
        # Truncations of one length can tile the orbit, never repeat it.
        if len(cycle) % length or decl.length == len(cycle):
            raise DevelopmentError(
                f"{m.name}: short orbit {k} declares length {length} which does not "
                f"divide the full orbit length {len(cycle)} into shorter orbits")
        words += cycle[:length]
        lengths.append(length)
    partition = m.partition if m.partition is not None else GroupPartition.singletons(m.n)
    full = all(decl.length is None for decl in m.orbits)
    return Gdc(Code(m.n, m.composition, m.distance, words), partition,
               ((m.generator.image, tuple(lengths), 1),) if full else None)
