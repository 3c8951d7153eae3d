"""Exact maximum-code computation by branch and bound over the compatibility graph.

Vertices are all canonical codewords of the requested composition; two words
are compatible unless they conflict in the verifier's sense (Hamming distance
below d, see :func:`cccodes.core.conflict_pairs`).  Codes of minimum distance
d are exactly the cliques, so the maximum code size is the clique number,
computed here with a Tomita-style search using greedy-coloring upper bounds.
One symmetry reduction is applied: coordinate permutations act transitively
on codewords of a fixed composition, so some maximum code may be assumed to
contain the lexicographically first codeword.

When w >= 2 and d >= 2w-2 (the paper's weight 4, distance 6), two words with
the same symbol s at a point x share no other point, since sharing a second
point would bring their distance to at most 2w-3.  So the words of a code
carrying s at x have disjoint supports apart from x, and each such (x, s)
cell holds at most cap = (n-1)//(w-1) words.  Every node is first tested
against this incidence-capacity bound: with candidates P and chosen words R
(word 0 included), the code extends by at most

    min over s of  floor( sum over x of min(|P & M(x,s)|, cap - |R & M(x,s)|) / w_s )

words, where M(x,s) is the set of words with symbol s at x.  The bound only
cuts subtrees that cannot beat the incumbent, so the search finds the same
witness with fewer nodes; for other parameters it is not used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .core import Code, Codeword, Composition, conflict_pairs

__all__ = [
    "SearchBudget",
    "SearchOutcome",
    "compatible",
    "enumerate_codewords",
    "greedy_lower",
    "max_code",
]


@dataclass(frozen=True)
class SearchBudget:
    seconds: float | None = None
    nodes: int | None = None


@dataclass(frozen=True)
class SearchOutcome:
    status: str          # "exact" | "lower-bound-only"
    size: int
    witness: Code
    nodes: int
    elapsed: float


def enumerate_codewords(n: int, comp: Composition) -> list[Codeword]:
    """All canonical codewords of the given composition, lexicographic by
    (symbol-1 support, symbol-2 support, ...)."""
    if n < comp.weight:
        raise ValueError(f"n={n} smaller than weight {comp.weight}")
    out: list[Codeword] = []

    def rec(prefix: list[tuple[int, ...]], used: set[int], k: int) -> None:
        if k == len(comp.weights):
            out.append(Codeword(tuple(prefix), n))
            return
        free = [x for x in range(n) if x not in used]
        for cls in combinations(free, comp.weights[k]):
            prefix.append(cls)
            rec(prefix, used | set(cls), k + 1)
            prefix.pop()

    rec([], set(), 0)
    return out


def compatible(u: Codeword, v: Codeword, d: int) -> bool:
    """True unless the two words conflict in the sense of :func:`conflict_pairs`."""
    return next(conflict_pairs((u, v), d), None) is None


def _adjacency(words: list[Codeword], d: int) -> list[int]:
    # The complement of the verifier's conflicts; each row starts with its own
    # bit so that no word is adjacent to itself.
    conflicts = [1 << i for i in range(len(words))]
    for i, j, _ in conflict_pairs(words, d):
        conflicts[i] |= 1 << j
        conflicts[j] |= 1 << i
    full = (1 << len(words)) - 1
    return [full ^ m for m in conflicts]


class _BudgetExceeded(Exception):
    pass


class _CliqueSearch:
    """Max clique with incidence-capacity and greedy-coloring bounds on
    int-bitset adjacency.

    ``incidence`` holds, per symbol, its multiplicity w_s and one
    ``(mask, room)`` cell per point x: the candidates with that symbol at x
    and how many words other than word 0 the cell may hold.  It is empty
    when the capacity premise does not hold.
    """

    def __init__(self, adj: list[int], budget: SearchBudget, start: float,
                 incidence: list[tuple[int, list[tuple[int, int]]]]):
        self.adj = adj
        self.incidence = incidence
        self.budget = budget
        self.start = start
        self.nodes = 0
        self.best = 0
        self.best_mask = 0

    def _check_budget(self) -> None:
        b = self.budget
        if b.nodes is not None and self.nodes > b.nodes:
            raise _BudgetExceeded
        if b.seconds is not None and self.nodes % 256 == 0:
            if time.monotonic() - self.start > b.seconds:
                raise _BudgetExceeded

    def seed(self, mask: int, size: int) -> None:
        if size > self.best:
            self.best = size
            self.best_mask = mask

    def run(self, pmask: int) -> None:
        self.expand(pmask, 0, 0)

    def expand(self, pmask: int, rmask: int, rsize: int) -> None:
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
            pmask &= ~bit
            newp = pmask & adj[v]
            nr = rsize + 1
            nm = rmask | bit
            if nr > self.best:
                self.best = nr
                self.best_mask = nm
            if newp:
                self.expand(newp, nm, nr)


def _greedy_clique(adj: list[int], order: list[int]) -> int:
    mask = 0
    chosen: list[int] = []
    for v in order:
        ok = True
        for u in chosen:
            if not (adj[u] >> v) & 1:
                ok = False
                break
        if ok:
            chosen.append(v)
            mask |= 1 << v
    return mask


def greedy_lower(n: int, d: int, comp: Composition,
                 order: list[int] | None = None) -> Code:
    """Greedy maximal compatible set in a deterministic vertex order."""
    words = enumerate_codewords(n, comp)
    if order is None:
        order = list(range(len(words)))
    chosen: list[Codeword] = []
    for idx in order:
        w = words[idx]
        if all(compatible(w, u, d) for u in chosen):
            chosen.append(w)
    return Code(n, comp, d, chosen)


def max_code(n: int, d: int, comp: Composition,
             budget: SearchBudget | None = None) -> SearchOutcome:
    """Exact maximum code size (status "exact") unless the budget runs out,
    in which case the best witness found so far is returned."""
    t0 = time.monotonic()
    budget = budget or SearchBudget()
    words = enumerate_codewords(n, comp)
    nv = len(words)
    adj = _adjacency(words, d)

    # Symmetry reduction: search only codes through vertex 0.
    sub = [v for v in range(1, nv) if (adj[0] >> v) & 1]
    submask_of = {v: i for i, v in enumerate(sub)}
    sadj = [0] * len(sub)
    for i, v in enumerate(sub):
        row = adj[v]
        m = 0
        for u in sub:
            if (row >> u) & 1:
                m |= 1 << submask_of[u]
        sadj[i] = m

    # Reorder by descending degree (ties: lexicographic codeword = index order).
    degs = [r.bit_count() for r in sadj]
    perm = sorted(range(len(sub)), key=lambda i: (-degs[i], i))
    inv = [0] * len(sub)
    for newpos, old in enumerate(perm):
        inv[old] = newpos
    radj = [0] * len(sub)
    for old, row in enumerate(sadj):
        m = 0
        rr = row
        while rr:
            u = (rr & -rr).bit_length() - 1
            rr &= rr - 1
            m |= 1 << inv[u]
        radj[inv[old]] = m

    # The incidence-capacity cells of the module docstring, indexed like radj.
    # Word 0 is always chosen, so its own cells start with one word in them.
    incidence: list[tuple[int, list[tuple[int, int]]]] = []
    w = comp.weight
    if w >= 2 and d >= 2 * w - 2:
        cap = (n - 1) // (w - 1)
        for s, ws in enumerate(comp.weights):
            masks = [0] * n
            for i, old in enumerate(perm):
                for x in words[sub[old]].supports[s]:
                    masks[x] |= 1 << i
            first = words[0].supports[s]
            incidence.append((ws, [(m, cap - (x in first))
                                   for x, m in enumerate(masks)]))

    searcher = _CliqueSearch(radj, budget, t0, incidence)
    # Seed the incumbent greedily (independent of any catalog data).
    g = _greedy_clique(radj, list(range(len(sub))))
    searcher.seed(g, g.bit_count())
    status = "exact"
    try:
        if sub:
            searcher.run((1 << len(sub)) - 1)
    except _BudgetExceeded:
        status = "lower-bound-only"

    chosen = [words[0]]
    bm = searcher.best_mask
    while bm:
        i = (bm & -bm).bit_length() - 1
        bm &= bm - 1
        chosen.append(words[sub[perm[i]]])
    chosen_sorted = sorted(chosen, key=lambda w: w.supports)
    witness = Code(n, comp, d, chosen_sorted)
    return SearchOutcome(status, 1 + searcher.best, witness,
                         searcher.nodes, time.monotonic() - t0)
