"""Ingredient combinatorial designs: builders, loaders and exhaustive verifiers.

Covers transversal designs over finite fields, difference matrices (with a
multiplicative construction and a deterministic backtracking search), skew
Room frames (verifier plus a small-order search oracle), and group divisible
designs.  An index-1 pairwise balanced design reads as a GDD over singleton
groups.
"""

from __future__ import annotations

from math import gcd, prod

from .core import GroupPartition, VerificationReport, Violation, _Record

__all__ = [
    "DesignError",
    "DifferenceMatrix",
    "Gdd",
    "GfTable",
    "RoomFrame",
    "SearchExhausted",
    "build_dm",
    "build_td",
    "read_design_text",
    "search_skew_room_frame",
    "verify_dm",
    "verify_gdd",
    "verify_skew_room_frame",
    "write_design_text",
]


class DesignError(ValueError):
    pass


class SearchExhausted(ValueError):
    """A bounded search ran out of budget (not a nonexistence proof).  A
    ValueError, so the CLI and the pipeline runner report it as a data error."""


# Node budget of the difference-matrix and skew Room frame searches.
_NODE_BUDGET = 5_000_000


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------

# Irreducible polynomials over GF(p), low-degree coefficients first, monic
# leading coefficient omitted: x^e = -(sum of coeffs[i] x^i).
_IRREDUCIBLE = {
    4: (2, (1, 1)),        # x^2 + x + 1 over GF(2)
    8: (2, (1, 1, 0)),     # x^3 + x + 1
    9: (3, (1, 0)),        # x^2 + 1 over GF(3)
    16: (2, (1, 1, 0, 0)),  # x^4 + x + 1
    25: (5, (2, 0)),       # x^2 + 2 over GF(5)
    27: (3, (1, 2, 0)),    # x^3 + 2x + 1
    49: (7, (1, 0)),       # x^2 + 1 over GF(7)
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _combine(moduli: tuple[int, ...], x: int, y: int, sign: int) -> int:
    """x + sign * y in Z_{m1} x ... x Z_{mr}, ``moduli = (m1, ..., mr)``, on
    the mixed-radix encoding (least-significant factor first), coordinate by
    coordinate."""
    out, mult = 0, 1
    for m in moduli:
        out += (x % m + sign * (y % m)) % m * mult
        x //= m
        y //= m
        mult *= m
    return out


class GfTable:
    """Addition/multiplication tables for GF(q), q prime or a shipped prime power.

    GF(p^e) is GF(p)[x] modulo the irreducible polynomial of ``_IRREDUCIBLE``,
    and GF(p) is the case e = 1, modulo x.  Elements are encoded as integers
    in [0, q) whose base-p digits are the polynomial coefficients (low degree
    first), so the additive group is Z_p^e with ``moduli = (p,) * e`` in the
    mixed-radix encoding of :func:`_combine`.
    """

    def __init__(self, q: int):
        self.q = q
        if _is_prime(q):
            p, coeffs = q, (0,)
        elif q in _IRREDUCIBLE:
            p, coeffs = _IRREDUCIBLE[q]
        else:
            raise DesignError(f"no field data for order {q}")
        e = len(coeffs)
        self.moduli = moduli = (p,) * e
        self.add = add = tuple(tuple(_combine(moduli, a, b, 1) for b in range(q))
                               for a in range(q))

        def multiples(r: int) -> list[int]:
            # 0, r, 2r, ..., (p-1)r
            out, plus_r = [0], add[r]
            for _ in range(1, p):
                out.append(plus_r[out[-1]])
            return out

        # x * a shifts a's digits up one place, and its top digit t comes back
        # as t x^e = -t * coeffs: c[k] is k times the element of coeffs.
        top, c = q // p, multiples(sum(ci * p ** i for i, ci in enumerate(coeffs)))

        def row(a: int) -> tuple[int, ...]:
            # b -> a*b is GF(p)-linear: a*b is the sum over b's digits b_i of
            # b_i * (a x^i), so a's row grows one digit of b at a time, low first.
            out = multiples(a)
            for _ in range(1, e):
                a = add[a % top * p][c[-(a // top) % p]]
                out = [add[s][t] for t in multiples(a) for s in out]
            return tuple(out)

        self.mul = tuple(map(row, range(q)))


# ---------------------------------------------------------------------------
# Group divisible designs
# ---------------------------------------------------------------------------

class Gdd(_Record):
    __slots__ = ("n", "partition", "blocks", "block_sizes")
    n: int
    partition: GroupPartition
    blocks: tuple[tuple[int, ...], ...]
    block_sizes: frozenset[int]


def verify_gdd(d: Gdd) -> VerificationReport:
    """Exhaustive pair coverage: cross-group pairs exactly once, in-group pairs
    never."""
    try:
        d.partition.validate(d.n)
    except ValueError as e:
        return VerificationReport((Violation("type-mismatch", (), str(e)),))
    violations: list[Violation] = []
    gid = d.partition.group_of()
    counts: dict[tuple[int, int], int] = {}
    for bi, block in enumerate(d.blocks):
        if len(block) not in d.block_sizes:
            violations.append(Violation("size-mismatch", (bi,), len(block)))
        if len(set(block)) != len(block):
            violations.append(Violation("duplicate", (bi,), "repeated point in block"))
        for x in block:
            if not 0 <= x < d.n:
                violations.append(Violation("type-mismatch", (bi,),
                                            f"point {x} outside [0, {d.n})"))
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                a, b = sorted((block[i], block[j]))
                counts[(a, b)] = counts.get((a, b), 0) + 1
    for a in range(d.n):
        for b in range(a + 1, d.n):
            c = counts.get((a, b), 0)
            if gid[a] == gid[b]:
                if c != 0:
                    violations.append(Violation("distance", (a, b), f"group pair covered {c}x"))
            elif c != 1:
                violations.append(Violation("distance", (a, b), f"covered {c}x"))
    violations.sort(key=lambda v: (v.witness, v.kind))
    return VerificationReport(tuple(violations))


def build_td(k: int, m: int) -> Gdd:
    """TD(k, m) over GF(m) for k <= m+1: groups {i} x GF(m); block (a,b)
    takes value a*x_i + b in group i for k' <= m distinct field elements x_i,
    plus (when k = m+1) a slope group holding a itself."""
    if k < 2:
        raise DesignError(f"a transversal design needs k >= 2, got k={k}")
    if m == 1:
        return Gdd(k, GroupPartition.singletons(k),
                   (tuple(range(k)),), frozenset({k}))
    if k > m + 1:
        raise DesignError(f"this construction needs k <= m+1, got k={k}, m={m}")
    gf = GfTable(m)
    kf = min(k, m)
    xs = list(range(kf))
    blocks = []
    for a in range(m):
        for b in range(m):
            block = [i * m + gf.add[gf.mul[a][xs[i]]][b] for i in range(kf)]
            if k == m + 1:
                block.append(m * m + a)
            blocks.append(tuple(block))
    partition = GroupPartition.of([range(i * m, (i + 1) * m) for i in range(k)])
    return Gdd(k * m, partition, tuple(blocks), frozenset({k}))


# ---------------------------------------------------------------------------
# Difference matrices
# ---------------------------------------------------------------------------

class DifferenceMatrix(_Record):
    """A (g,k;1) difference matrix: k rows of g group elements in which, for
    any two rows, the g column-wise differences are every element once.

    The group is the direct product Z_{m1} x ... x Z_{mr} of ``moduli``,
    whose product is g; an element is the mixed-radix integer in [0, g) of
    its coordinates, least-significant factor first.  Over Z_g,
    ``moduli = (g,)``.  ``add`` and ``sub`` are the group's operations on
    this encoding.
    """

    __slots__ = ("g", "k", "rows", "moduli")
    g: int
    k: int
    rows: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]

    def add(self, x: int, y: int) -> int:
        return _combine(self.moduli, x, y, 1)

    def sub(self, x: int, y: int) -> int:
        return _combine(self.moduli, x, y, -1)


def verify_dm(d: DifferenceMatrix) -> VerificationReport:
    if len(d.rows) != d.k or any(len(r) != d.g for r in d.rows):
        return VerificationReport((Violation("size-mismatch", (), "matrix shape"),))
    if prod(d.moduli) != d.g:
        return VerificationReport(
            (Violation("size-mismatch", (), "moduli do not multiply to g"),))
    violations: list[Violation] = []
    for r in range(d.k):
        for s in range(r + 1, d.k):
            diffs = sorted(d.sub(d.rows[r][j], d.rows[s][j]) for j in range(d.g))
            if diffs != list(range(d.g)):
                violations.append(Violation("distance", (r, s), "difference multiset defect"))
    return VerificationReport(tuple(violations))


def build_dm(g: int) -> DifferenceMatrix:
    """A (g,4;1)-DM over an abelian group of order g.

    Existence requires g >= 4 and g != 2 (mod 4).  Three routes:
    multiplicative over Z_g when gcd(g,6)=1; multiplicative over the additive
    group of GF(g) when g is a supported prime power; otherwise deterministic
    backtracking over Z_2 x Z_{g/2} (when 4 | g) or Z_g.
    """
    if g < 4 or g % 4 == 2:
        raise DesignError(f"no (g,4;1)-DM for g={g} (need g >= 4, g != 2 mod 4)")
    if gcd(g, 6) == 1:
        rows = tuple(tuple((i * j) % g for j in range(g)) for i in range(4))
        return DifferenceMatrix(g, 4, rows, (g,))
    if g in _IRREDUCIBLE:
        gf = GfTable(g)
        rows = tuple(tuple(gf.mul[i][j] for j in range(g)) for i in range(4))
        return DifferenceMatrix(g, 4, rows, gf.moduli)

    # Direct product: a (g1,4;1)-DM times a (g2,4;1)-DM is a (g1*g2,4;1)-DM.
    for a in range(4, g):
        if g % a or a % 4 == 2:
            continue
        b = g // a
        if b < 4 or b % 4 == 2:
            continue
        m1 = build_dm(a)
        m2 = build_dm(b)
        rows = tuple(
            tuple(m1.rows[i][j1] + a * m2.rows[i][j2]
                  for j2 in range(b) for j1 in range(a))
            for i in range(4))
        return DifferenceMatrix(g, 4, rows, m1.moduli + m2.moduli)

    moduli = (2, 2, g // 4) if g % 4 == 0 else (g,)
    # minus[x][y] = x - y in the group, computed once for the whole search.
    minus = [[_combine(moduli, x, y, -1) for y in range(g)] for x in range(g)]

    # Normalized backtracking search: row0 = all zeros (column translates),
    # row1 = identity (column order); choose row2/row3 column by column so
    # that the three remaining row-pair difference lists stay injective.
    row2 = [0] * g
    row3 = [0] * g
    used2 = [False] * g
    used3 = [False] * g
    d20 = [False] * g
    d30 = [False] * g
    d32 = [False] * g
    nodes = 0

    def place(j: int) -> bool:
        nonlocal nodes
        if j == g:
            return True
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise SearchExhausted(f"difference-matrix search budget hit at g={g}")
        for a in range(g):
            a0 = minus[a][j]
            if used2[a] or d20[a0]:
                continue
            used2[a] = d20[a0] = True
            row2[j] = a
            for b in range(g):
                b0, b2 = minus[b][j], minus[b][a]
                if used3[b] or d30[b0] or d32[b2]:
                    continue
                used3[b] = d30[b0] = d32[b2] = True
                row3[j] = b
                if place(j + 1):
                    return True
                used3[b] = d30[b0] = d32[b2] = False
            used2[a] = d20[a0] = False
        return False

    if not place(0):
        raise SearchExhausted(f"no normalized (g,4;1)-DM found over {moduli}")
    rows = (tuple([0] * g), tuple(range(g)), tuple(row2), tuple(row3))
    return DifferenceMatrix(g, 4, rows, moduli)


# ---------------------------------------------------------------------------
# Room frames
# ---------------------------------------------------------------------------

class RoomFrame(_Record):
    __slots__ = ("holes", "cells")
    holes: tuple[tuple[int, ...], ...]               # partition of the side set
    cells: dict[tuple[int, int], frozenset[int]]     # (row, col) -> {a, b}

    @property
    def side(self) -> int:
        return sum(len(h) for h in self.holes)


def verify_skew_room_frame(f: RoomFrame) -> VerificationReport:
    """The frame conditions, once the holes partition the side set [0, n);
    a cell whose row or column lies outside it is reported and then left
    out."""
    n = f.side
    try:
        GroupPartition.of(f.holes).validate(n)
    except ValueError as e:
        return VerificationReport((Violation("type-mismatch", (), str(e)),))
    hole = {x: i for i, h in enumerate(f.holes) for x in h}
    cells = {rc: pair for rc, pair in f.cells.items() if rc[0] in hole and rc[1] in hole}
    violations = [Violation("type-mismatch", rc, f"cell outside [0, {n})")
                  for rc in f.cells if rc not in cells]
    # condition 1: unordered pairs of distinct symbols
    for (r, c), pair in cells.items():
        if len(pair) != 2 or any(not 0 <= x < n for x in pair):
            violations.append(Violation("type-mismatch", (r, c), "cell is not a pair"))
    # condition 2: hole subarrays empty
    for (r, c) in cells:
        if hole[r] == hole[c]:
            violations.append(Violation("group-hit", (r, c), "filled cell inside a hole"))
    # condition 3: row/column coverage
    for r in range(n):
        want = [x for x in range(n) if hole[x] != hole[r]]
        row_syms = sorted(x for (rr, c), pair in cells.items() if rr == r for x in pair)
        if row_syms != want:
            violations.append(Violation("distance", ("row", r), "row coverage defect"))
        col_syms = sorted(x for (rr, c), pair in cells.items() if c == r for x in pair)
        if col_syms != want:
            violations.append(Violation("distance", ("col", r), "column coverage defect"))
    # condition 4: pairs are exactly the cross-hole pairs
    seen: dict[frozenset[int], int] = {}
    for pair in cells.values():
        seen[pair] = seen.get(pair, 0) + 1
    for a in range(n):
        for b in range(a + 1, n):
            want_ct = 0 if hole[a] == hole[b] else 1
            have = seen.get(frozenset((a, b)), 0)
            if have != want_ct:
                violations.append(Violation("distance", (a, b), f"pair occurs {have}x"))
    # skewness
    for (r, c) in cells:
        if r != c and (c, r) in cells:
            if (r, c) < (c, r):
                violations.append(Violation("duplicate", (r, c), "both (i,j) and (j,i) filled"))
    violations.sort(key=lambda v: (str(v.witness), v.kind))
    return VerificationReport(tuple(violations))


def search_skew_room_frame(hole_sizes: list[int]) -> RoomFrame | None:
    """Deterministic backtracking for a skew Room frame with the given hole sizes.

    Cell (r, c) is bit r*n + c.  ``taken`` holds the hole subarrays and each
    filled cell with its transpose; ``blocked[x]`` holds the rows and columns
    symbol x may not enter: its hole's, then each row and column x is placed
    in.  A pair's candidate cells are the bits in neither.  Each node branches
    on the remaining pair with the fewest candidates (ties: pair order) and
    tries its cells lowest bit, that is (r, c) order, first.

    Returns None when no such frame exists: at once when n - |H| is odd for
    some hole H, else once the search space is exhausted; raises
    SearchExhausted when the node budget runs out first.
    """
    if not hole_sizes or min(hole_sizes) < 1:
        raise DesignError(f"want at least one hole, each of size >= 1: {hole_sizes}")
    if len(hole_sizes) < 2:
        # A frame's cells are its cross-hole pairs; one hole has none.
        raise DesignError(f"want at least two holes: {hole_sizes}")
    # A row in hole H holds each symbol outside H once, two to a cell.
    if any((sum(hole_sizes) - s) % 2 for s in hole_sizes):
        return None
    holes: list[tuple[int, ...]] = []
    start = 0
    for s in hole_sizes:
        holes.append(tuple(range(start, start + s)))
        start += s
    n = start
    full = (1 << n * n) - 1
    row = [((1 << n) - 1) << (r * n) for r in range(n)]
    col = [sum(1 << (r * n + c) for r in range(n)) for c in range(n)]
    taken = 0
    blocked = [0] * n
    for h in holes:
        rows, cols = sum(row[x] for x in h), sum(col[x] for x in h)
        taken |= rows & cols
        for x in h:
            blocked[x] = rows | cols

    # symbols in one hole share their blocked mask
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if blocked[a] != blocked[b]]
    placement: dict[tuple[int, int], tuple[int, int]] = {}
    nodes = 0

    def rec(remaining: list[tuple[int, int]]) -> bool:
        nonlocal nodes, taken
        if not remaining:
            return True
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise SearchExhausted("room-frame search budget hit")
        # fewest candidates first (ties: pair order); a pair with at most one ends the scan
        best_i, best, best_count = 0, 0, n * n + 1
        for i, (a, b) in enumerate(remaining):
            free = full & ~(taken | blocked[a] | blocked[b])
            count = free.bit_count()
            if count < best_count:
                best_i, best, best_count = i, free, count
                if count <= 1:
                    break
        a, b = remaining[best_i]
        rest = remaining[:best_i] + remaining[best_i + 1:]
        saved = taken, blocked[a], blocked[b]
        while best:
            low = best & -best
            r, c = divmod(low.bit_length() - 1, n)
            taken = saved[0] | low | 1 << (c * n + r)
            blocked[a] = saved[1] | row[r] | col[c]
            blocked[b] = saved[2] | row[r] | col[c]
            placement[(r, c)] = (a, b)
            if rec(rest):
                return True
            del placement[(r, c)]
            best ^= low
        taken, blocked[a], blocked[b] = saved
        return False

    if not rec(pairs):
        return None
    cells = {rc: frozenset(p) for rc, p in placement.items()}
    return RoomFrame(tuple(holes), cells)


# ---------------------------------------------------------------------------
# Design file format: `kind=...` header then content lines, `#` comments.
# ---------------------------------------------------------------------------

def write_design_text(obj: Gdd | DifferenceMatrix | RoomFrame) -> str:
    def csv(items) -> str:
        return ",".join(str(x) for x in items)

    if isinstance(obj, Gdd):
        lines = ["kind=gdd", f"n={obj.n}", "k=" + csv(sorted(obj.block_sizes)), "groups=",
                 *map(csv, obj.partition.groups), "blocks=", *map(csv, obj.blocks)]
    elif isinstance(obj, DifferenceMatrix):
        lines = ["kind=dm", f"g={obj.g}", f"k={obj.k}",
                 "moduli=" + "x".join(str(m) for m in obj.moduli), "rows=", *map(csv, obj.rows)]
    elif isinstance(obj, RoomFrame):
        lines = ["kind=roomframe", "holes=", *map(csv, obj.holes), "cells="]
        lines += [f"{csv(rc)}:{csv(sorted(obj.cells[rc]))}" for rc in sorted(obj.cells)]
    else:
        raise DesignError(f"cannot serialize {type(obj)}")
    return "\n".join(lines) + "\n"


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _count(text: str, least: int = 0) -> int:
    n = int(text)
    if n < least:
        raise ValueError(f"want a count of at least {least}: {n}")
    return n


def _cell(text: str) -> tuple[tuple[int, ...], frozenset[int]]:
    rc, colon, ab = text.partition(":")
    cell = _ints(rc)
    if not colon or len(cell) != 2:
        raise ValueError(f"want R,C:A,B: {text!r}")
    return cell, frozenset(_ints(ab))


# kind -> the headers and the sections its files may have.
_FIELDS = {
    "gdd": ({"kind", "n", "k"}, {"groups", "blocks"}),
    "pbd": ({"kind", "v", "k", "lambda"}, {"blocks"}),
    "dm": ({"kind", "g", "k", "moduli"}, {"rows"}),
    "roomframe": ({"kind"}, {"holes", "cells"}),
}
_HEADERS = set().union(*(keys for keys, _ in _FIELDS.values()))


def read_design_text(text: str) -> Gdd | DifferenceMatrix | RoomFrame:
    """Parse the design file format.  Every fault raises DesignError; the
    message of a fault on a line starts with ``line N: `` (1-based).  A
    header or section that repeats, or that the file's kind does not have, is
    a fault.  A line ``NAME=`` opens a section unless NAME is a header of
    some kind, so ``k=`` is a header with an empty value.  A pbd file reads
    as a Gdd over singleton groups, and only with index 1."""
    header: dict[str, tuple[int, str]] = {}
    body: dict[str, list[tuple[int, str]]] = {}
    starts: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("=") and line[:-1].strip() not in _HEADERS:
            section = line[:-1]
            if section in body:
                raise DesignError(f"line {lineno}: repeated section {section}=")
            body[section] = []
            starts[section] = lineno
        elif "=" in line and section is None:
            k, v = map(str.strip, line.split("=", 1))
            if k in header:
                raise DesignError(f"line {lineno}: repeated header {k}=")
            header[k] = (lineno, v)
        elif section is None:
            raise DesignError(f"line {lineno}: content before any section: {line!r}")
        else:
            body[section].append((lineno, line))

    def at(lineno: int, parse, text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise DesignError(f"line {lineno}: {e}") from None

    def head(key: str, parse=int):
        if key not in header:
            raise DesignError(f"missing header {key}=")
        lineno, value = header[key]
        return at(lineno, parse, value)

    def lines(name: str, parse=_ints) -> tuple:
        return tuple(at(lineno, parse, line) for lineno, line in body.get(name, []))

    kind = head("kind", str)
    if kind not in _FIELDS:
        raise DesignError(f"line {header['kind'][0]}: unknown design kind {kind!r}")
    keys, sections = _FIELDS[kind]
    unknown = [(lineno, f"header {key}=") for key, (lineno, _) in header.items()
               if key not in keys]
    unknown += [(lineno, f"section {name}=") for name, lineno in starts.items()
                if name not in sections]
    if unknown:
        lineno, what = min(unknown)
        raise DesignError(f"line {lineno}: {what} is not part of a {kind} file")
    if kind == "gdd":
        return Gdd(head("n", _count), GroupPartition.of(lines("groups")), lines("blocks"),
                   frozenset(head("k", _ints)))
    if kind == "pbd":
        v, blocks, k = head("v", _count), lines("blocks"), frozenset(head("k", _ints))
        if "lambda" in header and head("lambda") != 1:
            raise DesignError(f"line {header['lambda'][0]}: only index-1 PBDs read as GDDs")
        return Gdd(v, GroupPartition.singletons(v), blocks, k)
    if kind == "dm":
        g, k = head("g", lambda v: _count(v, 1)), head("k", lambda v: _count(v, 2))
        moduli = (head("moduli", lambda v: tuple(_count(m, 1) for m in v.split("x")))
                  if "moduli" in header else (g,))
        return DifferenceMatrix(g, k, lines("rows"), moduli)
    for name in ("holes", "cells"):
        if not body.get(name):
            lineno = starts.get(name, header["kind"][0])
            raise DesignError(f"line {lineno}: want at least one line in section {name}=")
    return RoomFrame(lines("holes"), dict(lines("cells", _cell)))
