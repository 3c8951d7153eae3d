"""Ingredient combinatorial designs: builders, loaders and exhaustive verifiers.

Covers transversal designs over finite fields, difference matrices (with a
multiplicative construction and a deterministic backtracking search), skew
Room frames (verifier plus a small-order search oracle), pairwise balanced
designs, and group divisible designs with an optional hole partition (the
double-GDD variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import GroupPartition, VerificationReport, Violation

__all__ = [
    "DesignError",
    "DifferenceMatrix",
    "Gdd",
    "GfTable",
    "Pbd",
    "RoomFrame",
    "SearchExhausted",
    "build_dm",
    "build_td",
    "gdd_as_pbd",
    "pbd_as_gdd",
    "read_design_text",
    "search_skew_room_frame",
    "verify_dm",
    "verify_gdd",
    "verify_pbd",
    "verify_skew_room_frame",
    "write_design_text",
]


class DesignError(ValueError):
    pass


class SearchExhausted(Exception):
    """A bounded search ran out of budget (not a nonexistence proof)."""


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


class GfTable:
    """Addition/multiplication tables for GF(q), q prime or a shipped prime power.

    Elements are encoded as integers in [0, q): for q = p^e the base-p digits
    are the polynomial coefficients (low degree first).
    """

    def __init__(self, q: int):
        if _is_prime(q):
            self.q = q
            self.add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
            self.mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
            self.poly = None
            return
        if q not in _IRREDUCIBLE:
            raise DesignError(f"no field data for order {q}")
        p, coeffs = _IRREDUCIBLE[q]
        e = len(coeffs)
        self.q = q
        self.poly = (p, coeffs)

        def digits(x: int) -> list[int]:
            out = []
            for _ in range(e):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds: list[int]) -> int:
            x = 0
            for d in reversed(ds):
                x = x * p + d
            return x

        def polymul(a: int, b: int) -> int:
            da, db = digits(a), digits(b)
            prod = [0] * (2 * e - 1)
            for i, ai in enumerate(da):
                if ai:
                    for j, bj in enumerate(db):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
            # reduce by x^e = -coeffs
            for k in range(2 * e - 2, e - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for i, ci in enumerate(coeffs):
                        prod[k - e + i] = (prod[k - e + i] - c * ci) % p
            return undigits(prod[:e])

        self.add = tuple(
            tuple(undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                  for b in range(q))
            for a in range(q))
        self.mul = tuple(tuple(polymul(a, b) for b in range(q)) for a in range(q))

    def check_field_axioms(self) -> None:
        """Inverses exhaustively; associativity/distributivity on a sample grid."""
        q = self.q
        for a in range(1, q):
            if 1 not in self.mul[a]:
                raise DesignError(f"element {a} has no multiplicative inverse in GF({q})")
        step = max(1, q // 7)
        sample = list(range(0, q, step))
        for a in sample:
            for b in sample:
                for c in sample:
                    if self.mul[a][self.mul[b][c]] != self.mul[self.mul[a][b]][c]:
                        raise DesignError("multiplication not associative")
                    if self.mul[a][self.add[b][c]] != self.add[self.mul[a][b]][self.mul[a][c]]:
                        raise DesignError("distributivity fails")


# ---------------------------------------------------------------------------
# Group divisible designs / PBDs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gdd:
    n: int
    partition: GroupPartition
    blocks: tuple[tuple[int, ...], ...]
    block_sizes: frozenset[int]


@dataclass(frozen=True)
class Pbd:
    v: int
    blocks: tuple[tuple[int, ...], ...]
    block_sizes: frozenset[int]
    index: int = 1


def verify_gdd(d: Gdd, holes: GroupPartition | None = None) -> VerificationReport:
    """Exhaustive pair coverage: cross-group pairs exactly once, in-group pairs
    never.  With ``holes`` the design is read as a double GDD: pairs inside a
    hole are exempt from coverage and blocks may meet a hole at most once."""
    violations: list[Violation] = []
    try:
        d.partition.validate(d.n)
    except ValueError as e:
        return VerificationReport((Violation("type-mismatch", (), str(e)),))
    gid = d.partition.group_of()
    hid = holes.group_of() if holes is not None else None
    counts: dict[tuple[int, int], int] = {}
    for bi, block in enumerate(d.blocks):
        if len(block) not in d.block_sizes:
            violations.append(Violation("size-mismatch", (bi,), len(block)))
        if len(set(block)) != len(block):
            violations.append(Violation("duplicate", (bi,), "repeated point in block"))
        hseen: set[int] = set()
        for x in block:
            if not 0 <= x < d.n:
                violations.append(Violation("type-mismatch", (bi,),
                                            f"point {x} outside [0, {d.n})"))
            elif hid is not None:
                if hid[x] in hseen:
                    violations.append(Violation("group-hit", (bi,), f"hole {hid[x]} twice"))
                hseen.add(hid[x])
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                a, b = sorted((block[i], block[j]))
                counts[(a, b)] = counts.get((a, b), 0) + 1
    for a in range(d.n):
        for b in range(a + 1, d.n):
            c = counts.get((a, b), 0)
            if hid is not None and hid[a] == hid[b]:
                if c != 0:
                    violations.append(Violation("distance", (a, b), f"hole pair covered {c}x"))
            elif gid[a] == gid[b]:
                if c != 0:
                    violations.append(Violation("distance", (a, b), f"group pair covered {c}x"))
            elif c != 1:
                violations.append(Violation("distance", (a, b), f"covered {c}x"))
    violations.sort(key=lambda v: (v.witness, v.kind))
    return VerificationReport(tuple(violations))


def verify_pbd(p: Pbd) -> VerificationReport:
    """Pair coverage of an index-1 PBD, read as a GDD with singleton groups."""
    return verify_gdd(pbd_as_gdd(p))


def gdd_as_pbd(d: Gdd) -> Pbd:
    if any(len(g) != 1 for g in d.partition.groups):
        raise DesignError("only a GDD with singleton groups reads as a PBD")
    return Pbd(d.n, d.blocks, d.block_sizes, 1)


def pbd_as_gdd(p: Pbd) -> Gdd:
    if p.index != 1:
        raise DesignError("only index-1 PBDs read as GDDs")
    return Gdd(p.v, GroupPartition.singletons(p.v), p.blocks, p.block_sizes)


def build_td(k: int, m: int) -> Gdd:
    """TD(k, m) over GF(m) for k <= m+1: groups {i} x GF(m); block (a,b)
    takes value a*x_i + b in group i for k' <= m distinct field elements x_i,
    plus (when k = m+1) a slope group holding a itself."""
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

@dataclass(frozen=True)
class DifferenceMatrix:
    """A (g,k;1) difference matrix over an abelian group.

    The group is a direct product of cyclic groups Z_{m1} x ... x Z_{mr}
    (``moduli``); elements are encoded as mixed-radix integers in [0, g),
    least-significant factor first.  Over Z_g use ``moduli = (g,)``.
    """

    g: int
    k: int
    rows: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...] = ()

    def _mods(self) -> tuple[int, ...]:
        return self.moduli or (self.g,)

    def add(self, x: int, y: int) -> int:
        out, mult = 0, 1
        for m in self._mods():
            out += ((x % m + y % m) % m) * mult
            x //= m
            y //= m
            mult *= m
        return out

    def sub(self, x: int, y: int) -> int:
        out, mult = 0, 1
        for m in self._mods():
            out += ((x % m - y % m) % m) * mult
            x //= m
            y //= m
            mult *= m
        return out


def verify_dm(d: DifferenceMatrix) -> VerificationReport:
    violations: list[Violation] = []
    if len(d.rows) != d.k or any(len(r) != d.g for r in d.rows):
        violations.append(Violation("size-mismatch", (), "matrix shape"))
        return VerificationReport(tuple(violations))
    import math
    if math.prod(d._mods()) != d.g:
        violations.append(Violation("size-mismatch", (), "moduli do not multiply to g"))
        return VerificationReport(tuple(violations))
    for r in range(d.k):
        for s in range(r + 1, d.k):
            diffs = sorted(d.sub(d.rows[r][j], d.rows[s][j]) for j in range(d.g))
            if diffs != list(range(d.g)):
                violations.append(Violation("distance", (r, s), "difference multiset defect"))
    return VerificationReport(tuple(violations))


def build_dm(g: int, node_budget: int = 5_000_000) -> DifferenceMatrix:
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
    if _is_prime(g) or g in _IRREDUCIBLE:
        gf = GfTable(g)
        rows = tuple(tuple(gf.mul[i][j] for j in range(g)) for i in range(4))
        p, coeffs = gf.poly if gf.poly else (g, ())
        moduli = (p,) * (len(coeffs) or 1)
        return DifferenceMatrix(g, 4, rows, moduli)

    # Direct product: a (g1,4;1)-DM times a (g2,4;1)-DM is a (g1*g2,4;1)-DM.
    for a in range(4, g):
        if g % a or a % 4 == 2:
            continue
        b = g // a
        if b < 4 or b % 4 == 2:
            continue
        m1 = build_dm(a, node_budget)
        m2 = build_dm(b, node_budget)
        rows = tuple(
            tuple(m1.rows[i][j1] + a * m2.rows[i][j2]
                  for j2 in range(b) for j1 in range(a))
            for i in range(4))
        return DifferenceMatrix(g, 4, rows, m1._mods() + m2._mods())

    moduli = (2, 2, g // 4) if g % 4 == 0 else (g,)
    dm = DifferenceMatrix(g, 4, (), moduli)  # borrow the group arithmetic
    add, sub = dm.add, dm.sub

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
        if nodes > node_budget:
            raise SearchExhausted(f"difference-matrix search budget hit at g={g}")
        for a in range(g):
            if used2[a] or d20[sub(a, j)]:
                continue
            used2[a] = d20[sub(a, j)] = True
            row2[j] = a
            for b in range(g):
                if used3[b] or d30[sub(b, j)] or d32[sub(b, a)]:
                    continue
                used3[b] = d30[sub(b, j)] = d32[sub(b, a)] = True
                row3[j] = b
                if place(j + 1):
                    return True
                used3[b] = d30[sub(b, j)] = d32[sub(b, a)] = False
            used2[a] = d20[sub(a, j)] = False
        return False

    if not place(0):
        raise SearchExhausted(f"no normalized (g,4;1)-DM found over {moduli}")
    rows = (tuple([0] * g), tuple(range(g)), tuple(row2), tuple(row3))
    return DifferenceMatrix(g, 4, rows, moduli)


# ---------------------------------------------------------------------------
# Room frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoomFrame:
    holes: tuple[tuple[int, ...], ...]               # partition of the side set
    cells: dict[tuple[int, int], frozenset[int]]     # (row, col) -> {a, b}

    @property
    def side(self) -> int:
        return sum(len(h) for h in self.holes)

    def hole_of(self) -> dict[int, int]:
        return {x: i for i, h in enumerate(self.holes) for x in h}


def verify_skew_room_frame(f: RoomFrame) -> VerificationReport:
    violations: list[Violation] = []
    n = f.side
    hole = f.hole_of()
    # condition 1: unordered pairs of distinct symbols
    for (r, c), pair in f.cells.items():
        if len(pair) != 2 or any(not 0 <= x < n for x in pair):
            violations.append(Violation("type-mismatch", (r, c), "cell is not a pair"))
    # condition 2: hole subarrays empty
    for (r, c) in f.cells:
        if hole[r] == hole[c]:
            violations.append(Violation("group-hit", (r, c), "filled cell inside a hole"))
    # condition 3: row/column coverage
    for r in range(n):
        want = [x for x in range(n) if hole[x] != hole[r]]
        row_syms = sorted(x for (rr, c), pair in f.cells.items() if rr == r for x in pair)
        if row_syms != want:
            violations.append(Violation("distance", ("row", r), "row coverage defect"))
        col_syms = sorted(x for (rr, c), pair in f.cells.items() if c == r for x in pair)
        if col_syms != want:
            violations.append(Violation("distance", ("col", r), "column coverage defect"))
    # condition 4: pairs are exactly the cross-hole pairs
    seen: dict[frozenset[int], int] = {}
    for pair in f.cells.values():
        seen[pair] = seen.get(pair, 0) + 1
    for a in range(n):
        for b in range(a + 1, n):
            want_ct = 0 if hole[a] == hole[b] else 1
            have = seen.get(frozenset((a, b)), 0)
            if have != want_ct:
                violations.append(Violation("distance", (a, b), f"pair occurs {have}x"))
    # skewness
    for (r, c) in f.cells:
        if r != c and (c, r) in f.cells:
            if (r, c) < (c, r):
                violations.append(Violation("duplicate", (r, c), "both (i,j) and (j,i) filled"))
    violations.sort(key=lambda v: (str(v.witness), v.kind))
    return VerificationReport(tuple(violations))


def search_skew_room_frame(hole_sizes: list[int],
                           node_budget: int = 5_000_000) -> RoomFrame | None:
    """Deterministic backtracking for a skew Room frame with the given hole sizes.

    Returns None when the search space is exhausted (nonexistence at this
    order); raises SearchExhausted when the node budget runs out first.
    """
    holes: list[tuple[int, ...]] = []
    start = 0
    for s in hole_sizes:
        holes.append(tuple(range(start, start + s)))
        start += s
    n = start
    hole = {x: i for i, h in enumerate(holes) for x in h}

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if hole[a] != hole[b]]
    row_used = [0] * n        # symbol bitmask per row
    col_used = [0] * n
    occupied: set[tuple[int, int]] = set()
    placement: dict[tuple[int, int], tuple[int, int]] = {}
    nodes = 0

    def candidate_cells(a: int, b: int) -> list[tuple[int, int]]:
        bits = (1 << a) | (1 << b)
        out = []
        for r in range(n):
            if hole[r] == hole[a] or hole[r] == hole[b] or (row_used[r] & bits):
                continue
            for c in range(n):
                if hole[c] == hole[a] or hole[c] == hole[b] or hole[c] == hole[r]:
                    continue
                if col_used[c] & bits:
                    continue
                if (r, c) in occupied or (c, r) in occupied:
                    continue
                out.append((r, c))
        return out

    def rec(remaining: list[tuple[int, int]]) -> bool:
        nonlocal nodes
        if not remaining:
            return True
        nodes += 1
        if nodes > node_budget:
            raise SearchExhausted("room-frame search budget hit")
        # most-constrained pair first (deterministic tie-break: pair order)
        best_i = -1
        best_cells: list[tuple[int, int]] | None = None
        for i, (a, b) in enumerate(remaining):
            cells = candidate_cells(a, b)
            if best_cells is None or len(cells) < len(best_cells):
                best_i, best_cells = i, cells
                if not cells:
                    return False
                if len(cells) == 1:
                    break
        assert best_cells is not None
        a, b = remaining[best_i]
        rest = remaining[:best_i] + remaining[best_i + 1:]
        bits = (1 << a) | (1 << b)
        for (r, c) in best_cells:
            row_used[r] |= bits
            col_used[c] |= bits
            occupied.add((r, c))
            placement[(r, c)] = (a, b)
            if rec(rest):
                return True
            row_used[r] &= ~bits
            col_used[c] &= ~bits
            occupied.remove((r, c))
            del placement[(r, c)]
        return False

    if not rec(pairs):
        return None
    cells = {rc: frozenset(p) for rc, p in placement.items()}
    return RoomFrame(tuple(holes), cells)


# ---------------------------------------------------------------------------
# Design file format: `kind=...` header then content lines, `#` comments.
# ---------------------------------------------------------------------------

def write_design_text(obj: Gdd | Pbd | DifferenceMatrix | RoomFrame) -> str:
    lines: list[str] = []
    if isinstance(obj, Gdd):
        lines += [f"kind=gdd", f"n={obj.n}",
                  "k=" + ",".join(str(s) for s in sorted(obj.block_sizes))]
        lines.append("groups=")
        lines += [",".join(str(x) for x in g) for g in obj.partition.groups]
        lines.append("blocks=")
        lines += [",".join(str(x) for x in b) for b in obj.blocks]
    elif isinstance(obj, Pbd):
        lines += [f"kind=pbd", f"v={obj.v}", f"lambda={obj.index}",
                  "k=" + ",".join(str(s) for s in sorted(obj.block_sizes))]
        lines.append("blocks=")
        lines += [",".join(str(x) for x in b) for b in obj.blocks]
    elif isinstance(obj, DifferenceMatrix):
        lines += [f"kind=dm", f"g={obj.g}", f"k={obj.k}",
                  "moduli=" + "x".join(str(m) for m in obj._mods()), "rows="]
        lines += [",".join(str(x) for x in r) for r in obj.rows]
    elif isinstance(obj, RoomFrame):
        lines += ["kind=roomframe", "holes="]
        lines += [",".join(str(x) for x in h) for h in obj.holes]
        lines.append("cells=")
        for (r, c) in sorted(obj.cells):
            a, b = sorted(obj.cells[(r, c)])
            lines.append(f"{r},{c}:{a},{b}")
    else:
        raise DesignError(f"cannot serialize {type(obj)}")
    return "\n".join(lines) + "\n"


def read_design_text(text: str) -> Gdd | Pbd | DifferenceMatrix | RoomFrame:
    header: dict[str, str] = {}
    section = None
    body: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and line.endswith("="):
            section = line[:-1]
            body[section] = []
        elif "=" in line and section is None:
            k, v = line.split("=", 1)
            header[k.strip()] = v.strip()
        else:
            if section is None:
                raise DesignError(f"content before any section: {line!r}")
            body[section].append(line)
    kind = header.get("kind")
    if kind == "gdd":
        groups = GroupPartition.of(
            tuple(int(x) for x in g.split(",")) for g in body.get("groups", []))
        blocks = tuple(tuple(int(x) for x in b.split(",")) for b in body.get("blocks", []))
        sizes = frozenset(int(x) for x in header["k"].split(","))
        return Gdd(int(header["n"]), groups, blocks, sizes)
    if kind == "pbd":
        blocks = tuple(tuple(int(x) for x in b.split(",")) for b in body.get("blocks", []))
        sizes = frozenset(int(x) for x in header["k"].split(","))
        return Pbd(int(header["v"]), blocks, sizes, int(header.get("lambda", "1")))
    if kind == "dm":
        rows = tuple(tuple(int(x) for x in r.split(",")) for r in body.get("rows", []))
        moduli = tuple(int(x) for x in header.get("moduli", header["g"]).split("x"))
        return DifferenceMatrix(int(header["g"]), int(header["k"]), rows, moduli)
    if kind == "roomframe":
        holes = tuple(tuple(int(x) for x in h.split(",")) for h in body.get("holes", []))
        cells = {}
        for line in body.get("cells", []):
            rc, ab = line.split(":")
            r, c = (int(x) for x in rc.split(","))
            cells[(r, c)] = frozenset(int(x) for x in ab.split(","))
        return RoomFrame(holes, cells)
    raise DesignError(f"unknown design kind {kind!r}")
