"""Exact-search oracle: enumeration, small exact values, budgets, witnesses."""

import itertools
import math
import sys
from types import SimpleNamespace

import networkx as nx
import pytest

from cccodes import core, search
from cccodes.bounds import upper_bound
from cccodes.core import Composition, hamming_distance, verify_gdc
from cccodes.search import (
    SearchBudget,
    _adjacency,
    _BudgetExceeded,
    enumerate_codewords,
    max_code,
)

C22 = Composition((2, 2))
C31 = Composition((3, 1))

# Exact values for n <= 10 reproduced independently by the search
# (the n = 10 entries are exercised in the acceptance suite).
SMALL_22 = {4: 1, 5: 1, 6: 3, 7: 3, 8: 5, 9: 9}
SMALL_31 = {4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 6}


def test_enumeration_counts_and_order():
    assert len(enumerate_codewords(4, C22)) == 6
    assert len(enumerate_codewords(10, C22)) == 1260
    assert len(enumerate_codewords(10, C31)) == 840
    words = enumerate_codewords(5, C22)
    assert words[0].supports == ((0, 1), (2, 3))
    assert words == sorted(words, key=lambda w: w.supports)


def test_exact_small_values():
    for comp, table in ((C22, SMALL_22), (C31, SMALL_31)):
        for n, expect in table.items():
            out = max_code(n, 6, comp)
            assert out.status == "exact" and out.size == expect, (comp, n)
            assert out.size <= upper_bound(n, comp).value
            assert verify_gdc(out.witness).ok and len(out.witness) == out.size
            words = list(out.witness.words)
            assert words == sorted(words, key=lambda w: w.supports)


def test_greedy_seed_is_the_lexicographic_greedy_code():
    # With no node to spend, the witness is the seed: each word in enumeration
    # order joins when compatible with every word already taken.
    words = enumerate_codewords(10, C22)
    greedy = []
    for u in words:
        if all(hamming_distance(u, v) >= 6 for v in greedy):
            greedy.append(u)
    out = max_code(10, 6, C22, SearchBudget(nodes=0))
    assert out.status == "lower-bound-only" and out.size == 9
    assert verify_gdc(out.witness).ok
    assert out.witness.words == tuple(greedy)


@pytest.mark.parametrize("seconds, nodes", [(math.nan, None), (-1.0, None), (None, -1)])
def test_malformed_budgets_are_refused(seconds, nodes):
    with pytest.raises(ValueError, match="^want a search budget of at least 0 "):
        SearchBudget(seconds=seconds, nodes=nodes)


def test_an_infinite_budget_never_stops_the_search():
    out = max_code(8, 6, C22, SearchBudget(seconds=math.inf))
    assert (out.status, out.size, out.nodes) == ("exact", 5, 20)


def test_exact_n11_31():
    # the largest case the oracle settles quickly beyond the small table;
    # agrees with the closed form 9t^2+2t at t=1
    out = max_code(11, 6, C31)
    assert out.status == "exact" and out.size == 11
    assert verify_gdc(out.witness).ok


def test_budget_exhaustion_returns_lower_bound():
    # n = 8 [2,2] needs 20 nodes (n = 9 [2,2] ends at the root).
    out = max_code(8, 6, C22, budget=SearchBudget(nodes=10))
    assert out.status == "lower-bound-only"
    assert verify_gdc(out.witness).ok
    assert 1 <= out.size <= SMALL_22[8]


def test_seconds_budget_is_honoured_during_set_up():
    # A spent budget stops the search before the graph exists: word 0 alone.
    out = max_code(13, 6, C22, SearchBudget(seconds=0))
    assert (out.status, out.size, out.nodes) == ("lower-bound-only", 1, 0)
    assert out.witness.words == (enumerate_codewords(13, C22)[0],)
    assert verify_gdc(out.witness).ok
    # The graph checks its deadline per row and is unchanged by one it meets.
    words = enumerate_codewords(7, C22)
    cells = core._cells(words)
    with pytest.raises(_BudgetExceeded):
        _adjacency(words, 6, cells, deadline=0.0)
    assert _adjacency(words, 6, cells, deadline=math.inf) == _adjacency(words, 6, cells)


def test_seconds_budget_is_honoured_during_branch_and_bound(monkeypatch):
    # The fake clock reads 0 during set-up and a day later in branch and
    # bound, which reads it at every 256th node: the first read ends the search.
    # n = 11 [2,2] runs past node 256, which n = 8 no longer reaches.
    def clock():
        return 86400.0 if sys._getframe(1).f_code.co_name == "_check_budget" else 0.0

    monkeypatch.setattr(search.time, "monotonic", clock)
    out = max_code(11, 6, C22, SearchBudget(seconds=10))
    assert out.status == "lower-bound-only"
    assert out.nodes > 0 and out.nodes % 256 == 0
    assert verify_gdc(out.witness).ok and len(out.witness) == out.size
    assert 1 <= out.size <= upper_bound(11, C22).value


def test_determinism():
    a = max_code(8, 6, C22)
    b = max_code(8, 6, C22)
    assert a.size == b.size
    assert a.witness.words == b.witness.words


def test_compatibility_graph_is_complement_of_conflicts():
    for n, comp in ((7, C22), (7, C31)):
        words = enumerate_codewords(n, comp)
        for d in (5, 6, 7):
            adj = _adjacency(words, d, core._cells(words))
            for i, u in enumerate(words):
                want = 0
                for j, v in enumerate(words):
                    if hamming_distance(u, v) >= max(d, 1):
                        want |= 1 << j
                assert adj[i] == want, (n, comp, d, i)


def test_node_counts_fixed():
    # Branch and bound over the same graph explores the same tree.  At
    # n = 10, 11 [3,1] the greedy seed is optimal and the incidence-capacity
    # bound proves it at the root.
    for n, comp, size, nodes in ((8, C22, 5, 20), (9, C31, 6, 26), (10, C31, 10, 1),
                                 (11, C31, 11, 1), (10, C22, 15, 180)):
        out = max_code(n, 6, comp)
        assert (out.size, out.nodes) == (size, nodes), (n, comp)


def test_graph_set_up_measures_no_pair_distance(monkeypatch):
    # The graph comes from bit-parallel conflict rows, never from a distance.
    def refuse(u, v):
        raise AssertionError("a pair distance was measured")

    monkeypatch.setattr(core, "hamming_distance", refuse)
    out = max_code(10, 6, C22)
    assert (out.status, out.size, out.nodes) == ("exact", 15, 180)
    assert len(out.witness) == 15


def test_one_search_builds_a_key_row_and_the_candidates_masks(monkeypatch):
    # Once over word 0 and one word per key, for word 0's conflict row, and
    # once over its candidates, for the graph's rows and the incidence cells.
    words = enumerate_codewords(10, C22)
    region = {x: s for s, cls in enumerate(words[0].supports, 1) for x in cls}
    keys = {tuple(region.get(x, 0) for cls in u.supports for x in cls) for u in words}
    n_cand = sum(hamming_distance(words[0], u) >= 6 for u in words[1:])
    built = []
    real = core._cells

    def counting(ws):
        built.append(len(ws))
        return real(ws)

    monkeypatch.setattr(core, "_cells", counting)
    out = max_code(10, 6, C22)
    assert (out.status, out.size, out.nodes) == ("exact", 15, 180)
    assert built == [1 + len(keys), n_cand] == [27, 720]


def test_the_budget_is_read_during_enumeration(monkeypatch):
    # A fake clock that reads the enumeration's progress, so no wall-clock
    # time is asserted: it passes the deadline once 1,000 point choices have
    # been drawn, long before all 11,040 of n = 16 [2,2] are.
    first = enumerate_codewords(16, C22)[0]
    drawn = [0]

    def counted(points, k):
        for cls in itertools.combinations(points, k):
            drawn[0] += 1
            yield cls

    monkeypatch.setattr(search, "combinations", counted)
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: drawn[0]))
    out = max_code(16, 6, C22, SearchBudget(seconds=1000))
    assert (out.status, out.size, out.nodes) == ("lower-bound-only", 1, 0)
    assert out.witness.words == (first,)
    assert drawn[0] < 120 + 120 * 91


def test_the_budget_is_read_after_each_mask_build(monkeypatch):
    # The fake clock passes the deadline during the mask build over word 0's
    # candidates, so the graph is never built and word 0 is the witness.
    words = enumerate_codewords(10, C22)
    n_cand = sum(hamming_distance(words[0], u) >= 6 for u in words[1:])
    now = [0]
    built = []
    real = core._cells

    def building(ws):
        built.append(len(ws))
        if len(ws) == n_cand:
            now[0] = 2
        return real(ws)

    def refuse(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(core, "_cells", building)
    monkeypatch.setattr(search, "_adjacency", refuse)
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    out = max_code(10, 6, C22, SearchBudget(seconds=1))
    assert (out.status, out.size, out.nodes) == ("lower-bound-only", 1, 0)
    assert out.witness.words == (words[0],)
    assert built == [27, n_cand]


def test_the_graph_is_built_only_past_the_incidence_test(monkeypatch):
    # A root that the incidence-capacity bound prunes never builds the graph.
    calls = []
    real = search._adjacency

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(search, "_adjacency", counting)
    for n, comp, size, nodes, builds in ((10, C31, 10, 1, 0), (11, C31, 11, 1, 0),
                                         (9, C22, 9, 1, 0), (10, C22, 15, 180, 1)):
        calls.clear()
        out = max_code(n, 6, comp)
        assert (out.status, out.size, out.nodes) == ("exact", size, nodes), (n, comp)
        assert len(calls) == builds, (n, comp)


def test_a_deadline_in_the_graph_build_keeps_the_greedy_seed(monkeypatch):
    # The fake clock passes the deadline once the graph build starts, which
    # reads it at its first row: the root's greedy seed is the witness.
    seed = max_code(10, 6, C22, SearchBudget(nodes=0)).witness
    now = [0]
    real = search._adjacency

    def late(*args):
        now[0] = 2
        return real(*args)

    monkeypatch.setattr(search, "_adjacency", late)
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    out = max_code(10, 6, C22, SearchBudget(seconds=1))
    assert (out.status, out.size, out.nodes) == ("lower-bound-only", 9, 1)
    assert out.witness.words == seed.words
    assert verify_gdc(out.witness).ok


def test_a_graph_past_the_memory_limit_is_never_built(monkeypatch):
    # 720 candidates at n = 10 would take 720^2 bits of rows: past the limit,
    # the search stops with the root's greedy seed and builds no graph.
    seed = max_code(10, 6, C22, SearchBudget(nodes=0)).witness
    calls = []
    monkeypatch.setattr(search, "_GRAPH_BITS", 100)
    monkeypatch.setattr(search, "_adjacency", lambda *args: calls.append(args))
    out = max_code(10, 6, C22)
    assert (out.status, out.size, out.nodes) == ("lower-bound-only", 9, 1)
    assert out.witness.words == seed.words
    assert verify_gdc(out.witness).ok
    assert calls == []
    # n = 9's root never needs the graph, so the limit leaves it exact.
    out = max_code(9, 6, C22)
    assert (out.status, out.size) == ("exact", 9)


def _graph(words, d):
    # The compatibility graph straight from hamming_distance, sharing no code
    # with the conflict kernel.
    g = nx.Graph()
    g.add_nodes_from(range(len(words)))
    g.add_edges_from((i, j) for i in range(len(words)) for j in range(i + 1, len(words))
                     if hamming_distance(words[i], words[j]) >= max(d, 1))
    return g


def test_max_code_matches_networkx_clique_number():
    # The first distance of each row is below 2w-2, where the search runs
    # without the incidence bound; it stops at n = 7 because networkx needs
    # minutes for [2,2] at n = 8, d = 5.  [2,1] checks the bound at weight 3.
    for comp, ds, top in ((C22, (5, 6, 7, 8), 8), (C31, (5, 6, 7, 8), 8),
                          (Composition((2, 1)), (3, 4, 5, 6), 7)):
        for n in range(comp.weight, top + 1):
            words = enumerate_codewords(n, comp)
            for d in ds:
                if n == 8 and d == ds[0]:
                    continue
                _, want = nx.max_weight_clique(_graph(words, d), weight=None)
                out = max_code(n, d, comp)
                assert out.status == "exact" and out.size == want, (comp, n, d)
                assert verify_gdc(out.witness).ok


def test_incidence_capacity_premise():
    # At d >= 2w-2 the words with symbol s at point x form no clique larger
    # than (n-1)//(w-1) in the verifier's compatibility graph.
    for comp in (C22, C31, Composition((2, 1)), Composition((1, 1))):
        w = comp.weight
        for n in range(w, 9):
            words = enumerate_codewords(n, comp)
            cap = (n - 1) // (w - 1)
            for d in range(2 * w - 2, 2 * w + 1):
                for s in range(len(comp.weights)):
                    for x in range(n):
                        cell = [u for u in words if x in u.supports[s]]
                        g = _graph(cell, d)
                        assert nx.max_weight_clique(g, weight=None)[1] <= cap, (comp, n, d, s, x)


# Word 0's classes split in every way: two, three and one symbol, and two
# classes of one point each.
ORBIT_COMPS = (C22, C31, Composition((2, 1)), Composition((1, 1)), Composition((3,)),
               Composition((2, 1, 1)))


def test_candidates_are_the_words_off_word_0s_row():
    # The key filter against hamming_distance, in enumeration order.
    for comp in ORBIT_COMPS:
        for n in range(comp.weight, 9):
            sups = list(search._supports(n, comp))
            words = enumerate_codewords(n, comp)
            for d in range(2 * comp.weight + 1):
                want = [u for u in words[1:] if hamming_distance(words[0], u) >= max(d, 1)]
                assert search._candidates(sups, n, d) == want, (comp, n, d)


def _image(g, supports):
    return tuple(tuple(sorted(g[x] for x in cls)) for cls in supports)


def test_root_orbits_are_the_orbits_of_word_0s_stabiliser():
    # Brute force: the orbits of word 0's candidates (by hamming_distance)
    # under every point permutation that maps word 0 onto itself.
    for comp in ORBIT_COMPS:
        for n in range(comp.weight, 8):
            words = enumerate_codewords(n, comp)
            first = words[0].supports
            stab = [g for g in itertools.permutations(range(n)) if _image(g, first) == first]
            for d in range(2 * comp.weight + 1):
                cand = [u for u in words[1:] if hamming_distance(words[0], u) >= max(d, 1)]
                index = {u.supports: i for i, u in enumerate(cand)}
                want = {frozenset(index[_image(g, u.supports)] for g in stab) for u in cand}
                parts = search._orbits(first, core._cells(cand)[0], (1 << len(cand)) - 1)
                assert sum(p.bit_count() for p in parts) == len(cand), (comp, n, d)
                assert {frozenset(core._ones(p)) for p in parts} == want, (comp, n, d)


def test_root_orbits_keep_every_size(monkeypatch):
    # The same graph searched with the root's orbits and with each vertex its
    # own orbit, which is the search without them, under a node budget: where
    # both finish the sizes agree, and a finished side bounds the other.  The
    # lengths stop where the sweep still takes about a second.
    budget = SearchBudget(nodes=5000)
    both = 0
    for comp in ORBIT_COMPS:
        for n in range(comp.weight, 10 - len(comp.weights)):
            for d in range(2 * comp.weight + 1):
                out = max_code(n, d, comp, budget)
                with monkeypatch.context() as m:
                    m.setattr(search, "_orbits",
                              lambda first, a_mask, full: [1 << v for v in core._ones(full)])
                    plain = max_code(n, d, comp, budget)
                for o in (out, plain):
                    assert verify_gdc(o.witness).ok and len(o.witness) == o.size
                    if o.status == "exact":
                        assert out.size <= o.size and plain.size <= o.size, (comp, n, d)
                both += out.status == plain.status == "exact"
    assert both >= 150
