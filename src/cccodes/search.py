"""Exact maximum-code computation by branch and bound over the compatibility graph.

Two codewords are compatible unless they conflict in the verifier's sense
(Hamming distance below d, see :func:`cccodes.core.conflict_rows`).  Codes of
minimum distance d are exactly the cliques of the compatibility graph, so the
maximum code size is its clique number, computed here with a Tomita-style
search using greedy-coloring upper bounds.  Two symmetry reductions are
applied.  First, coordinate permutations act transitively on codewords of a
fixed composition, so some maximum code may be assumed to contain word 0, the
lexicographically first codeword.  The graph is therefore built only on word
0's candidates (the later words off word 0's conflict row), kept in
enumeration order, and the incumbent is seeded with their lexicographic
greedy clique.  Each row of the graph is the complement of a bit-parallel
conflict row, so set-up measures no pair distance.

Word 0's row is decided by orbit keys, not over every word.  A word's key
gives, position by position, the class of word 0 that holds its point (0
for a point outside word 0).  Its overlap with word 0 and its agreements
with it are functions of the key, and so is its distance from word 0,
w_u + w_v - overlap - agreements; a key is an invariant of the point maps
that fix word 0.  So one conflict row, of word 0 over one word per key (26
keys for [2,2] at n = 10), decides every word, and the kernel stays the one
definition of conflicting words.  The only other mask build is over the
candidates.  The greedy seed reads the conflict rows of the words it takes
alone, and the graph is built when the first node passes the incidence test
below: a root that the bound prunes never builds it.

Second, the root branches once per orbit of the point maps that fix word 0
(orbital branching, Ostrowski et al., Math. Programming 2011).  That group is
Sym(class 1 of word 0) x ... x Sym(points outside word 0), and up to it a word
is determined by how many points of each class of word 0 carry each symbol;
these counts are read off the kernel's masks A(x, s) over the candidates.
Each root child is searched with its vertex's orbit-mates still present, and
only its later siblings lose the whole orbit.  This is sound: let K be a
clique through word 0 and O the first orbit in branching order that K meets,
with representative v.  Some g fixing word 0 maps a word of K & O onto v;
g(K) is a clique (point maps preserve distance), it meets exactly the orbits
that K meets, so it avoids every orbit removed before O, and it lies in v's
child.  Removing O before computing v's child would lose the cliques that
hold two words of O.  Deeper nodes branch on every vertex.

When w >= 2 and d >= 2w-2 (the paper's weight 4, distance 6), two words with
the same symbol s at a point x share no other point, since sharing a second
point would bring their distance to at most 2w-3.  So the words of a code
carrying s at x have disjoint supports apart from x, and each such (x, s)
cell holds at most cap = (n-1)//(w-1) words.  Every node is first tested
against this incidence-capacity bound: with candidates P and chosen words R
(word 0 included), the code extends by at most

    min over s of  floor( sum over x of min(|P & M(x,s)|, cap - |R & M(x,s)|) / w_s )

words, where M(x,s), the candidates with symbol s at x, is the kernel's mask
A(x,s) over the candidates, from the one mask build that gives the graph's
rows.  The bound only cuts subtrees that cannot beat the incumbent, so the
search finds the same witness with fewer nodes; for other parameters it is
not used.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from itertools import chain, combinations, compress, islice

from . import core
from .core import Code, Codeword, Composition, _Record

__all__ = [
    "SearchBudget",
    "SearchOutcome",
    "enumerate_codewords",
    "max_code",
]


class SearchBudget(_Record):
    """Limits on one search: None is no limit, 0 stops at once and
    ``inf`` seconds never stops it."""

    __slots__ = ("seconds", "nodes")
    seconds: float | None
    nodes: int | None

    def __init__(self, seconds: float | None = None, nodes: int | None = None) -> None:
        # A NaN deadline would never pass, so it is refused with the negatives.
        if seconds is not None and not seconds >= 0:
            raise ValueError(f"want a search budget of at least 0 seconds: {seconds}")
        if nodes is not None and nodes < 0:
            raise ValueError(f"want a search budget of at least 0 nodes: {nodes}")
        super().__init__(seconds, nodes)


class SearchOutcome(_Record):
    __slots__ = ("status", "size", "witness", "nodes", "elapsed")
    status: str          # "exact" | "lower-bound-only"
    size: int
    witness: Code
    nodes: int
    elapsed: float


def enumerate_codewords(n: int, comp: Composition) -> list[Codeword]:
    """All canonical codewords of the given composition, lexicographic by
    (symbol-1 support, symbol-2 support, ...)."""
    return core._words(_supports(n, comp))


def _supports(n: int, comp: Composition) -> Iterator[tuple[tuple[int, ...], ...]]:
    # The supports of enumerate_codewords' words, one at a time.  Each class
    # in turn takes every choice of points that the classes before it left
    # free, so the words come out in lexicographic order, and as each class
    # is sorted and disjoint from the others, each word is valid as built.
    if n < comp.weight:
        raise ValueError(f"n={n} smaller than weight {comp.weight}")

    def extend(prefix: tuple, free: list[int], ks: tuple[int, ...]) -> Iterator[tuple]:
        more = ks[1:]
        for cls in combinations(free, ks[0]):
            if more:
                yield from extend(prefix + (cls,), [x for x in free if x not in cls], more)
            else:
                yield prefix + (cls,)

    return extend((), list(range(n)), comp.weights)


def _orbits(first: tuple, a_mask: list[dict], full: int) -> list[int]:
    # The orbits, as masks over the candidates, of the point maps that fix
    # word 0: a word is determined up to them by how many points of each
    # class of word 0 carry each symbol.  Counting levels per (symbol, class)
    # as in the kernel, L[k] holds the words with at least k such points.
    parts = [full] if full else []
    for at in a_mask:
        for cls in first:
            levels = [full]
            for x in cls:
                a = at.get(x, 0)
                levels.append(0)
                for k in range(len(levels) - 1, 0, -1):
                    levels[k] |= levels[k - 1] & a
            exact = [lo & ~hi for lo, hi in zip(levels, levels[1:] + [0])]
            parts = [p & e for p in parts for e in exact if p & e]
    return parts


class _BudgetExceeded(Exception):
    pass


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _BudgetExceeded


def _adjacency(words: list[Codeword], d: int, cells: tuple,
               deadline: float | None = None) -> list[int]:
    # The complement of the verifier's conflict rows, read off the masks that
    # core._cells built from the words, without self loops; the deadline is
    # checked at each row.
    full = (1 << len(words)) - 1
    adj = []
    for i, row in core._rows(words, d, cells):
        _check_deadline(deadline)
        adj.append(full & ~(row | 1 << i))
    return adj


def _candidates(sups: list[tuple], n: int, d: int) -> list[Codeword]:
    # Word 0's candidates, the later words off its conflict row, in order,
    # decided once per key (see the module docstring).  The word of word 0's
    # key is word 0 itself, which conflicts with its copy and so drops out
    # with the other conflicting words.
    region = [0] * n
    for s, cls in enumerate(sups[0], 1):
        for x in cls:
            region[x] = s
    points = map(region.__getitem__, chain.from_iterable(chain.from_iterable(sups)))
    keys = list(zip(*[points] * sum(map(len, sups[0]))))
    reps = dict(zip(keys, sups))
    _, row = next(core.conflict_rows(core._words([sups[0], *reps.values()]), d))
    # Bit j + 1 of the row, read once as character j: key j's verdict.
    bits = format(row >> 1, f"0{len(reps)}b")[::-1]
    keep = dict(zip(reps, map("0".__eq__, bits)))
    return core._words(compress(sups, map(keep.__getitem__, keys)))


class _CliqueSearch:
    """Max clique with incidence-capacity and greedy-coloring bounds on
    int-bitset adjacency over ``words``, word 0's candidates.

    ``cells`` are the kernel's masks over the words.  The incumbent starts
    as the lexicographic greedy clique, read off the conflict rows of the
    words it takes alone; ``adj``, every row's complement, is built (with
    the deadline checked at each row) when the first node passes the
    incidence test, so a root that the bound prunes never builds it.

    ``incidence`` holds, per symbol, its multiplicity w_s and one
    ``(mask, room)`` cell per point x where some candidate has it: those
    candidates and how many words other than word 0 the cell may hold.  It
    is empty when the capacity premise does not hold.

    ``expand`` takes each vertex's orbit mask at the root only, and there
    branches once per orbit (the module docstring proves this exact).
    """

    def __init__(self, words: list[Codeword], d: int, cells: tuple,
                 incidence: list[tuple[int, list[tuple[int, int]]]],
                 max_nodes: int | None, deadline: float | None):
        self.words, self.d, self.cells = words, d, cells
        self.adj: list[int] | None = None
        self.incidence = incidence
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        # The incumbent starts as the lexicographic greedy clique, independent
        # of any catalog data: each vertex in index order joins when no row of
        # a vertex already taken covers it.  ``seen`` holds the vertices taken
        # and those their rows cover, so the next to join is its lowest gap.
        full = (1 << len(words)) - 1
        mask = seen = 0

        def picks() -> Iterator[int]:
            while free := full & ~seen:
                yield (free & -free).bit_length() - 1

        for v, row in core._rows(words, d, cells, picks()):
            mask |= 1 << v
            seen |= row | 1 << v
        self.best, self.best_mask = mask.bit_count(), mask

    def _check_budget(self) -> None:
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if (self.deadline is not None and self.nodes % 256 == 0
                and time.monotonic() > self.deadline):
            raise _BudgetExceeded

    def expand(self, pmask: int, rmask: int, rsize: int,
               orbits: list[int] | None = None) -> None:
        self.nodes += 1
        self._check_budget()
        # k more words put k*w_s entries of symbol s into cells that each take
        # at most min(candidates, room left): prune when some symbol cannot
        # take best - rsize + 1 more words.
        for ws, cells in self.incidence:
            need = (self.best - rsize + 1) * ws
            for m, room in cells:
                avail = (pmask & m).bit_count()
                left = room - (rmask & m).bit_count()
                need -= avail if avail < left else left
                if need <= 0:
                    break
            else:
                return
        adj = self.adj
        if adj is None:
            adj = self.adj = _adjacency(self.words, self.d, self.cells, self.deadline)
        # Greedy coloring: vertices listed in increasing color; the color is an
        # upper bound on the clique extendable inside the remaining candidates.
        order: list[int] = []
        bounds: list[int] = []
        uncolored = pmask
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                uncolored &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if rsize + bounds[i] <= self.best:
                return
            v = order[i]
            bit = 1 << v
            if not pmask & bit:
                continue
            pmask &= ~bit
            newp = pmask & adj[v]
            # v's child keeps v's orbit-mates; only its later siblings lose them.
            if orbits:
                pmask &= ~orbits[v]
            nr = rsize + 1
            nm = rmask | bit
            if nr > self.best:
                self.best = nr
                self.best_mask = nm
            if newp:
                self.expand(newp, nm, nr)


def max_code(n: int, d: int, comp: Composition,
             budget: SearchBudget | None = None) -> SearchOutcome:
    """Exact maximum code size (status "exact") unless the budget runs out,
    in which case the best witness found so far is returned.  A distance
    that no two words reach (above twice the weight) is refused."""
    if d > 2 * comp.weight:
        raise ValueError(f"want a distance of at most twice the weight ({2 * comp.weight}): {d}")
    t0 = time.monotonic()
    budget = budget or SearchBudget()
    # Symmetry reduction: search only codes through word 0, over its
    # candidates (the words off its conflict row) in enumeration order, on
    # one build of the kernel's masks over them.  The deadline is checked
    # every 4,096 words of the enumeration, after the candidates' mask build
    # and at each row of the graph; if it passes before the candidates'
    # masks exist, word 0 alone is the witness, and if it passes in the
    # graph, the greedy seed is.
    deadline = None if budget.seconds is None else t0 + budget.seconds
    gen = _supports(n, comp)
    sups = [next(gen)]
    first = core._words(sups)[0]
    try:
        while chunk := list(islice(gen, 4096)):
            sups += chunk
            _check_deadline(deadline)
        cand = _candidates(sups, n, d)
        del sups
        cells = core._cells(cand)
        _check_deadline(deadline)
    except _BudgetExceeded:
        return SearchOutcome("lower-bound-only", 1, Code(n, comp, d, [first]),
                             0, time.monotonic() - t0)

    # The incidence-capacity cells are the A(x, s) over cand.  Word 0 is
    # always chosen, so its own cells start with one word in them.
    incidence: list[tuple[int, list[tuple[int, int]]]] = []
    if comp.weight >= 2 and d >= 2 * comp.weight - 2:
        cap = (n - 1) // (comp.weight - 1)
        incidence = [(ws, [(m, cap - (x in cls)) for x, m in at.items()])
                     for ws, at, cls in zip(comp.weights, cells[0], first.supports)]

    # The root's orbits, from the same A(x, s): each vertex's orbit mask.
    # Each part's bits are read off its binary string, in time linear in the
    # candidates, where core._ones would shift the whole mask once per bit.
    full = (1 << len(cand)) - 1
    orbits = [0] * len(cand)
    for part in _orbits(first.supports, cells[0], full):
        bits = format(part, "b")[::-1]
        v = bits.find("1")
        while v >= 0:
            orbits[v] = part
            v = bits.find("1", v + 1)
    searcher = _CliqueSearch(cand, d, cells, incidence, budget.nodes, deadline)
    status = "exact"
    try:
        if cand:
            searcher.expand(full, 0, 0, orbits)
    except _BudgetExceeded:
        status = "lower-bound-only"

    # cand follows word 0 in enumeration order, so the witness stays sorted.
    witness = Code(n, comp, d, [first] + [cand[i] for i in core._ones(searcher.best_mask)])
    return SearchOutcome(status, 1 + searcher.best, witness,
                         searcher.nodes, time.monotonic() - t0)
