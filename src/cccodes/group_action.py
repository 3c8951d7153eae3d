"""Development of base codewords under a permutation group.

A manifest describes a point set built from labeled classes, one generator
permutation (optionally two commuting ones for product actions), a group
partition, and base codewords with orbit declarations.  Developing a manifest
produces a group divisible code whose size is the exact sum of the declared
orbit lengths: words are never deduplicated, because transcription bugs show
up precisely as collapsed or colliding orbits, which the verifier then reports
as duplicates next to any size or type that differs from the declared one.

Manifest grammar (sections in square brackets, `#` comments)::

    [meta]
    composition = 2,2        # or 3,1
    distance = 6
    expected_size = 60       # optional; the verifier checks it
    expected_type = 2^10     # optional; the verifier checks it
    [classes]
    plain 20                 # absolute integer labels 0..19; offsets stack
    ring 12 x 3              # labels x_0, x_1, x_2 with x in Z_12
    inf 2                    # fixed labels inf0, inf1 (a single one: inf)
    [generator]
    shift 1 on c0            # x -> x+1 (mod m) inside class c0
    cycle a b c              # explicit cycle over labels
    [generator2]             # optional second commuting generator
    rotate c0 c1 c2          # x_c0 -> x_c1 -> x_c2 -> x_c0
    [groups]                 # omitted = all singletons
    coset 10 on c0           # {i, i+10, ...} inside class c0
    coset 6 across c0 c1 c2  # {x : x = i mod 6} over the listed classes
    whole c1 c2              # one group: all points of the listed classes
    singletons c0
    list 18,19,20,21,22      # explicit group by label
    [orbits]
    full: 0,5 ; 3,7
    short 6: 0_0,6_0 ; 0_1,6_1
    fixed: 0,8,16 ; inf
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (Code, Codeword, Composition, Gdc, GdcType, GroupPartition)

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
    """Malformed manifest text or unresolvable label."""


class DevelopmentError(ValueError):
    """A short orbit whose declared length does not divide its full orbit."""


class Permutation:
    """A bijection on [0, n), stored as its image tuple: point x goes to
    ``image[x]``.  It acts on a codeword point by point."""

    __slots__ = ("image",)

    def __init__(self, image: list[int] | tuple[int, ...] | range):
        if sorted(image) != list(range(len(image))):
            raise ManifestError("generator is not a bijection")
        self.image = tuple(image)

    def apply_word(self, w: Codeword) -> Codeword:
        img = self.image
        return Codeword(tuple(tuple(img[x] for x in cls) for cls in w.supports), w.n)


@dataclass(frozen=True)
class OrbitDecl:
    base: Codeword
    kind: str  # "full" | "short" | "fixed"
    length: int | None = None  # declared length for short (truncated) orbits


@dataclass(frozen=True)
class Manifest:
    n: int
    composition: Composition
    distance: int
    generator: Permutation
    generator2: Permutation | None
    partition: GroupPartition | None
    orbits: tuple[OrbitDecl, ...]
    expected_size: int | None
    expected_type: GdcType | None
    name: str = ""


class _ClassSpec:
    """One declared label class: contiguous dense indices plus a label scheme."""

    def __init__(self, kind: str, start: int, size: int, tag: int):
        self.kind = kind          # plain | ring | inf
        self.start = start        # first dense index
        self.size = size
        self.tag = tag            # ring subscript / plain offset / inf ordinal base

    def labels(self) -> list[tuple[str, int]]:
        out = []
        for i in range(self.size):
            if self.kind == "plain":
                out.append((str(self.tag + i), self.start + i))
            elif self.kind == "ring":
                out.append((f"{i}_{self.tag}", self.start + i))
            else:
                name = "inf" if self.size == 1 else f"inf{i}"
                out.append((name, self.start + i))
        return out


def _parse_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """Section name -> (line number, stripped line) for each content line."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ManifestError(f"line {lineno}: content before first section: {line!r}")
        current.append((lineno, line))
    return sections


def _parse_word(text: str, labels: dict[str, int], n: int) -> Codeword:
    parts = text.split(";")
    classes = []
    for part in parts:
        pts = []
        for tok in part.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok not in labels:
                raise ManifestError(f"unknown label {tok!r}")
            pts.append(labels[tok])
        classes.append(tuple(pts))
    return Codeword(classes, n)


def parse_manifest(text: str, name: str = "") -> Manifest:
    sections = _parse_sections(text)
    for required in ("meta", "classes", "orbits"):
        if required not in sections:
            raise ManifestError(f"missing [{required}] section")

    meta: dict[str, str] = {}
    for lineno, line in sections["meta"]:
        if "=" not in line:
            raise ManifestError(f"line {lineno}: bad meta line: {line!r}")
        k, v = line.split("=", 1)
        meta[k.strip()] = v.strip()
    if "composition" not in meta or "distance" not in meta:
        raise ManifestError("meta must declare composition and distance")
    composition = Composition.parse(meta["composition"])
    distance = int(meta["distance"])
    expected_size = int(meta["expected_size"]) if "expected_size" in meta else None
    expected_type = GdcType.parse(meta["expected_type"]) if "expected_type" in meta else None

    classes: list[_ClassSpec] = []
    offset = 0
    plain_offset = 0
    ring_tag = 0
    for lineno, line in sections["classes"]:
        toks = line.split()
        if toks[0] == "plain":
            if len(toks) < 2:
                raise ManifestError(f"line {lineno}: bad plain class: {line!r}")
            m = int(toks[1])
            classes.append(_ClassSpec("plain", offset, m, plain_offset))
            plain_offset += m
            offset += m
        elif toks[0] == "ring":
            if len(toks) == 4 and toks[2] == "x":
                m, k = int(toks[1]), int(toks[3])
            elif len(toks) == 2:
                m, k = int(toks[1]), 1
            else:
                raise ManifestError(f"line {lineno}: bad ring class: {line!r}")
            for _ in range(k):
                classes.append(_ClassSpec("ring", offset, m, ring_tag))
                ring_tag += 1
                offset += m
        elif toks[0] == "inf":
            k = int(toks[1]) if len(toks) > 1 else 1
            classes.append(_ClassSpec("inf", offset, k, 0))
            offset += k
        else:
            raise ManifestError(f"line {lineno}: unknown class kind: {line!r}")
    n = offset
    labels: dict[str, int] = {}
    for spec in classes:
        for lab, idx in spec.labels():
            if lab in labels:
                raise ManifestError(f"duplicate label {lab!r}")
            labels[lab] = idx

    def class_by_ref(ref: str) -> _ClassSpec:
        if not ref.startswith("c") or not ref[1:].isdigit():
            raise ManifestError(f"bad class reference {ref!r} (want c0, c1, ...)")
        idx = int(ref[1:])
        if idx >= len(classes):
            raise ManifestError(f"class reference {ref!r} out of range")
        return classes[idx]

    def build_generator(lines: list[tuple[int, str]]) -> Permutation:
        image = list(range(n))
        for lineno, line in lines:
            toks = line.split()
            if toks[0] == "shift":
                # shift s on cK
                if len(toks) < 3 or toks[2] != "on":
                    raise ManifestError(f"line {lineno}: bad shift line: {line!r}")
                s = int(toks[1])
                for ref in toks[3:]:
                    spec = class_by_ref(ref)
                    if spec.kind == "inf":
                        raise ManifestError("cannot shift an inf class")
                    for i in range(spec.size):
                        image[spec.start + i] = spec.start + (i + s) % spec.size
            elif toks[0] == "cycle":
                pts = []
                for tok in toks[1:]:
                    if tok not in labels:
                        raise ManifestError(f"unknown label {tok!r} in cycle")
                    pts.append(labels[tok])
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    image[a] = b
            elif toks[0] == "rotate":
                specs = [class_by_ref(r) for r in toks[1:]]
                if len({s.size for s in specs}) != 1:
                    raise ManifestError("rotate requires classes of equal size")
                for a, b in zip(specs, specs[1:] + specs[:1]):
                    for i in range(a.size):
                        image[a.start + i] = b.start + i
            else:
                raise ManifestError(f"line {lineno}: unknown generator directive: {line!r}")
        return Permutation(image)

    generator = (build_generator(sections["generator"])
                 if "generator" in sections else Permutation(range(n)))
    generator2 = (build_generator(sections["generator2"])
                  if "generator2" in sections else None)

    partition: GroupPartition | None = None
    if "groups" in sections:
        groups: list[tuple[int, ...]] = []
        for lineno, line in sections["groups"]:
            toks = line.split()
            if toks[0] == "coset":
                if len(toks) < 4:
                    raise ManifestError(f"line {lineno}: bad coset line: {line!r}")
                step = int(toks[1])
                if toks[2] == "on":
                    spec = class_by_ref(toks[3])
                    for i in range(step):
                        groups.append(tuple(spec.start + j
                                            for j in range(i, spec.size, step)))
                elif toks[2] == "across":
                    specs = [class_by_ref(r) for r in toks[3:]]
                    for i in range(step):
                        grp: list[int] = []
                        for spec in specs:
                            grp.extend(spec.start + j for j in range(i, spec.size, step))
                        groups.append(tuple(grp))
                else:
                    raise ManifestError(f"line {lineno}: bad coset line: {line!r}")
            elif toks[0] == "whole":
                grp = []
                for ref in toks[1:]:
                    spec = class_by_ref(ref)
                    grp.extend(range(spec.start, spec.start + spec.size))
                groups.append(tuple(grp))
            elif toks[0] == "singletons":
                for ref in toks[1:]:
                    spec = class_by_ref(ref)
                    groups.extend((x,) for x in range(spec.start, spec.start + spec.size))
            elif toks[0] == "list":
                body = line[len("list"):].strip()
                grp = []
                for tok in body.split(","):
                    tok = tok.strip()
                    if tok not in labels:
                        raise ManifestError(f"unknown label {tok!r} in group list")
                    grp.append(labels[tok])
                groups.append(tuple(grp))
            else:
                raise ManifestError(f"line {lineno}: unknown groups directive: {line!r}")
        partition = GroupPartition.of(groups)
        partition.validate(n)

    orbits: list[OrbitDecl] = []
    for lineno, line in sections["orbits"]:
        if ":" not in line:
            raise ManifestError(f"line {lineno}: bad orbit line: {line!r}")
        head, body = line.split(":", 1)
        head = head.strip()
        word = _parse_word(body.strip(), labels, n)
        if tuple(len(c) for c in word.supports) != composition.weights:
            raise ManifestError(
                f"line {lineno}: codeword arity does not match composition: {line!r}")
        if head == "full":
            orbits.append(OrbitDecl(word, "full"))
        elif head.startswith("short"):
            if len(head.split()) < 2 or int(head.split()[1]) < 1:
                raise ManifestError(f"line {lineno}: bad orbit line: {line!r}")
            orbits.append(OrbitDecl(word, "short", int(head.split()[1])))
        elif head == "fixed":
            orbits.append(OrbitDecl(word, "fixed"))
        else:
            raise ManifestError(f"unknown orbit kind: {head!r}")

    return Manifest(n=n, composition=composition, distance=distance,
                    generator=generator, generator2=generator2, partition=partition,
                    orbits=tuple(orbits), expected_size=expected_size,
                    expected_type=expected_type, name=name)


def orbit(base: Codeword, g: Permutation) -> list[Codeword]:
    """Distinct images of ``base`` under repeated application of ``g``, in
    generation order, stopping when the base recurs."""
    out = [base]
    w = g.apply_word(base)
    while w != base:
        out.append(w)
        w = g.apply_word(w)
    return out


def _group_orbit(base: Codeword, g1: Permutation, g2: Permutation | None) -> list[Codeword]:
    if g2 is None:
        return orbit(base, g1)
    out: list[Codeword] = []
    seen: set[Codeword] = set()
    for w2 in orbit(base, g2):
        for w in orbit(w2, g1):
            if w not in seen:
                seen.add(w)
                out.append(w)
    return out


def develop(m: Manifest) -> Gdc:
    """Union of all declared orbits, in declaration order.

    Only builds the words: the declared size and type, and duplicates across
    orbits, are checked by :func:`cccodes.core.verify_gdc`.  Raises
    :class:`DevelopmentError` when a short orbit's declared length does not
    divide the base word's full orbit length, a fact about the manifest text
    that no check on the developed code can see.
    """
    words: list[Codeword] = []
    for k, decl in enumerate(m.orbits):
        if decl.kind == "fixed":
            words.append(decl.base)
        elif decl.kind == "short":
            # Truncated development: the first L images of the base, where L
            # divides the full orbit length (so consecutive truncated orbits
            # tile the full orbit).
            full = orbit(decl.base, m.generator)
            if len(full) % decl.length != 0:
                raise DevelopmentError(
                    f"{m.name}: short orbit {k} declares length {decl.length} "
                    f"which does not divide the full orbit length {len(full)}")
            words.extend(full[:decl.length])
        else:
            words.extend(_group_orbit(decl.base, m.generator, m.generator2))
    partition = m.partition if m.partition is not None else GroupPartition.singletons(m.n)
    return Gdc(Code(m.n, m.composition, m.distance, words), partition)
