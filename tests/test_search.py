"""Exact-search oracle: enumeration, small exact values, budgets, witnesses."""

import networkx as nx

from cccodes.bounds import upper_bound
from cccodes.core import Composition, hamming_distance, verify_code
from cccodes.search import (
    SearchBudget,
    _adjacency,
    compatible,
    enumerate_codewords,
    greedy_lower,
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
    for n, expect in SMALL_22.items():
        out = max_code(n, 6, C22)
        assert out.status == "exact" and out.size == expect, n
        assert verify_code(out.witness).ok and len(out.witness) == out.size
    for n, expect in SMALL_31.items():
        out = max_code(n, 6, C31)
        assert out.status == "exact" and out.size == expect, n


def test_greedy_lower_and_sandwich():
    for comp, table in ((C22, SMALL_22), (C31, SMALL_31)):
        for n, exact in table.items():
            g = greedy_lower(n, 6, comp)
            assert verify_code(g).ok
            assert 1 <= len(g) <= exact
            assert exact <= upper_bound(n, comp).value


def test_greedy_regression_constant():
    # lexicographic greedy at (10, 6, [2,2]); frozen after first measurement
    g = greedy_lower(10, 6, C22)
    assert verify_code(g).ok
    assert len(g) == 9


def test_exact_n11_31():
    # the largest case the oracle settles quickly beyond the small table;
    # agrees with the closed form 9t^2+2t at t=1
    out = max_code(11, 6, C31)
    assert out.status == "exact" and out.size == 11
    assert verify_code(out.witness).ok


def test_budget_exhaustion_returns_lower_bound():
    # n = 8 [2,2] needs 455 nodes (n = 9 [2,2] ends at the root).
    out = max_code(8, 6, C22, budget=SearchBudget(nodes=10))
    assert out.status == "lower-bound-only"
    assert verify_code(out.witness).ok
    assert 1 <= out.size <= SMALL_22[8]


def test_determinism():
    a = max_code(8, 6, C22)
    b = max_code(8, 6, C22)
    assert a.size == b.size
    assert a.witness.words == b.witness.words


def test_compatibility_graph_is_complement_of_conflicts():
    for n, comp in ((7, C22), (7, C31)):
        words = enumerate_codewords(n, comp)
        for d in (5, 6, 7):
            adj = _adjacency(words, d)
            for i, u in enumerate(words):
                want = 0
                for j, v in enumerate(words):
                    if hamming_distance(u, v) >= max(d, 1):
                        want |= 1 << j
                assert adj[i] == want, (n, comp, d, i)
                assert compatible(u, words[-1], d) == bool((want >> (len(words) - 1)) & 1)


def test_node_counts_fixed():
    # Branch and bound over the same graph explores the same tree.  With the
    # greedy-coloring bound alone these took 455, 214, 515 and 732,679 nodes;
    # the incidence-capacity bound settles n = 9, 10 [3,1] at the root.
    for n, comp, size, nodes in ((8, C22, 5, 455), (9, C31, 6, 1), (10, C31, 10, 1),
                                 (11, C31, 11, 7415)):
        out = max_code(n, 6, comp)
        assert (out.size, out.nodes) == (size, nodes), (n, comp)


def _graph(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((i, j) for i, row in enumerate(adj)
                     for j in range(i + 1, len(adj)) if (row >> j) & 1)
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
                _, want = nx.max_weight_clique(_graph(_adjacency(words, d)), weight=None)
                out = max_code(n, d, comp)
                assert out.status == "exact" and out.size == want, (comp, n, d)
                assert verify_code(out.witness).ok


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
                        g = _graph(_adjacency(cell, d))
                        assert nx.max_weight_clique(g, weight=None)[1] <= cap, (comp, n, d, s, x)
