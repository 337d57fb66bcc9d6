"""Graph type, generators, and structural predicates."""

import dataclasses
import gc
import itertools
import random
import time
import tracemalloc

import networkx as nx
import pytest

from corpus import atlas_graphs, connected_graphs, ATLAS_COUNTS, CONNECTED_COUNTS
from eigenframe import graphs
from eigenframe.errors import UnsupportedInputError
from eigenframe.graphs import (
    CayleySpec,
    Graph,
    cayley_z2,
    complement,
    cycle,
    from_edges,
    induced_subgraph,
    is_split,
    kneser,
    maximal_cliques,
    q_kneser,
)
from eigenframe.modular import _subspaces_mod_q, gaussian_binomial, line_masks
from oracles import rank_mod_q


def test_corpus_counts():
    from collections import Counter
    per_n = Counter(g.n for g, _ in atlas_graphs())
    assert dict(per_n) == ATLAS_COUNTS
    conn = Counter(g.n for g, _ in connected_graphs())
    assert dict(conn) == CONNECTED_COUNTS


def test_from_edges_and_accessors():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.num_edges() == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert sorted(g.neighbours(2)) == [1, 3]
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.is_connected()
    assert not from_edges(4, [(0, 1), (2, 3)]).is_connected()


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match="loop at vertex 0"):
        Graph(2, (1, 2))


@pytest.mark.parametrize("nbr", [(0b10, 0), (0, 0b01)], ids=["upper-only", "lower-only"])
def test_asymmetric_adjacency_is_refused(nbr):
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        Graph(2, nbr)


def test_a_cleared_upper_bit_is_refused_in_a_larger_graph():
    nbr = list(kneser(6, 2).nbr)
    j = (nbr[0] & -nbr[0]).bit_length() - 1  # vertex 0's least neighbour
    nbr[0] &= ~(1 << j)
    with pytest.raises(ValueError, match=rf"not symmetric at \(0, {j}\)"):
        Graph(len(nbr), tuple(nbr))
    nbr = list(kneser(6, 2).nbr)
    nbr[j] &= ~1  # the lower bit of the same pair
    with pytest.raises(ValueError, match=rf"not symmetric at \(0, {j}\)"):
        Graph(len(nbr), tuple(nbr))


def test_cycle_shape():
    for n in range(3, 12):
        g = cycle(n)
        assert g.n == n and g.num_edges() == n
        assert all(g.degree(i) == 2 for i in range(n))
        assert g.is_connected()


def test_kneser_petersen():
    g = kneser(5, 2)
    assert g.n == 10 and g.num_edges() == 15
    assert all(g.degree(i) == 3 for i in range(10))
    nxg = nx.Graph(g.edges())
    assert nx.is_isomorphic(nxg, nx.petersen_graph())


def test_kneser_degree_formula():
    from math import comb
    for n, r in [(5, 2), (6, 2), (7, 3), (8, 3)]:
        g = kneser(n, r)
        assert g.n == comb(n, r)
        assert all(g.degree(i) == comb(n - r, r) for i in range(g.n))


def test_q_kneser_shape():
    # disjointness graph on 2-subspaces of F_2^4
    g = q_kneser(2, 4, 2)
    assert g.n == gaussian_binomial(4, 2, 2) == 35
    assert all(g.degree(i) == 16 for i in range(g.n))
    # 1-subspaces of F_2^3 are pairwise disjoint, so the graph is complete
    k7 = q_kneser(2, 3, 1)
    assert k7.n == 7 and k7.num_edges() == 21


def test_q_kneser_edges_and_line_masks_match_the_rank_oracle():
    # two r-subspaces are adjacent when their 2r basis rows have rank 2r,
    # and a subspace contains a line when adding the line keeps rank r
    for q, n, r in [(2, 3, 1), (2, 4, 1), (2, 4, 2), (2, 4, 3), (2, 4, 4), (3, 3, 1),
                    (3, 4, 2), (5, 3, 1), (7, 2, 1), (2, 5, 2), (2, 5, 3)]:
        verts = sorted(_subspaces_mod_q(q, n, r))
        lines = sorted(_subspaces_mod_q(q, n, 1))
        g = q_kneser(q, n, r)
        assert g.n == len(verts), (q, n, r)
        for a, b in itertools.combinations(range(g.n), 2):
            assert g.has_edge(a, b) == (rank_mod_q(verts[a] + verts[b], q) == 2 * r), (q, n, r)
        for s, mask in zip(verts, line_masks(q, n, r), strict=True):
            for k, line in enumerate(lines):
                assert bool(mask >> k & 1) == (rank_mod_q(s + line, q) == r), (q, n, r)


def test_q_kneser_with_2r_over_n_is_edgeless_at_once():
    # every two r-subspaces meet when 2r > n; the one 5-subspace of F_101^5
    # holds 101^5 vectors, which no mask build may enumerate
    start = time.perf_counter()
    g = q_kneser(101, 5, 5)
    assert g.n == 1 and time.perf_counter() - start < 1


def test_q_kneser_rejects_nonprime_order():
    with pytest.raises((UnsupportedInputError, ValueError)):
        q_kneser(4, 3, 1)


def test_cayley_cube():
    g = cayley_z2(CayleySpec(3, (1, 2, 4)))
    assert g.n == 8 and all(g.degree(i) == 3 for i in range(8))
    nxg = nx.Graph(g.edges())
    assert nx.is_isomorphic(nxg, nx.hypercube_graph(3))
    # adjacency i ~ j iff i XOR j is a generator
    for i in range(8):
        for j in range(8):
            assert g.has_edge(i, j) == (i != j and (i ^ j) in (1, 2, 4))


def test_cayley_spec_validation():
    with pytest.raises(ValueError):
        CayleySpec(2, (0,))
    with pytest.raises(ValueError):
        CayleySpec(2, (4,))
    assert CayleySpec(3, (1, 2)).spans() is False
    assert CayleySpec(3, (1, 2, 4)).spans() is True


def test_complement_involution():
    for g, _ in atlas_graphs():
        h = complement(complement(g))
        assert h == g


def test_complement_edges():
    g = cycle(5)
    h = complement(g)
    assert h.num_edges() == 10 - 5
    for i in range(5):
        for j in range(i + 1, 5):
            assert h.has_edge(i, j) != g.has_edge(i, j)


def test_induced_subgraph():
    g = cycle(6)
    h = induced_subgraph(g, [0, 1, 2, 3])
    assert h.n == 4 and sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]


def _split_oracle(g):
    verts = range(g.n)
    for k in range(g.n + 1):
        for s in itertools.combinations(verts, k):
            ss = set(s)
            clique_ok = all(g.has_edge(i, j) for i, j in itertools.combinations(s, 2))
            rest = [v for v in verts if v not in ss]
            indep_ok = not any(g.has_edge(i, j) for i, j in itertools.combinations(rest, 2))
            if clique_ok and indep_ok:
                return True
    return False


def test_is_split_against_bruteforce():
    for g, _ in atlas_graphs():
        if g.n > 6:
            continue
        flag, parts = is_split(g)
        assert flag == _split_oracle(g)
        if flag:
            clique, indep = parts
            assert set(clique) | set(indep) == set(range(g.n))
            assert not set(clique) & set(indep)
            assert all(g.has_edge(i, j) for i, j in itertools.combinations(clique, 2))
            assert not any(g.has_edge(i, j) for i, j in itertools.combinations(indep, 2))


def test_maximal_cliques_against_networkx():
    rng = random.Random(7)
    sample = rng.sample(atlas_graphs(), 120)
    for g, nxg in sample:
        ours = {frozenset(c) for c in maximal_cliques(g)}
        theirs = {frozenset(c) for c in nx.find_cliques(nxg)} if nxg.number_of_nodes() else set()
        theirs = {frozenset(sorted(nxg.nodes()).index(v) for v in c) for c in theirs}
        assert ours == theirs


def test_maximal_cliques_floor_against_networkx():
    for g, nxg in atlas_graphs():
        nodes = sorted(nxg.nodes())
        theirs = [frozenset(nodes.index(v) for v in c) for c in nx.find_cliques(nxg)] \
            if nodes else []
        for k in range(g.n + 2):
            ours = maximal_cliques(g, k)
            assert {frozenset(c) for c in ours} == {c for c in theirs if len(c) >= k}
            assert len(ours) == len({frozenset(c) for c in ours})


def test_maximal_cliques_order_is_depth_first():
    # the order of the recursive Bron-Kerbosch search: pivot on the most
    # candidate neighbours, branch on the lowest candidate vertex first
    g = from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 4), (0, 5)])
    assert maximal_cliques(g) == [[0, 1, 2], [0, 5], [2, 3], [3, 4, 5], [1, 4]]


def test_maximal_cliques_leave_no_reference_cycles():
    g = kneser(7, 2)
    gc.collect()
    gc.disable()
    try:
        cliques = maximal_cliques(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(cliques) == 105  # three disjoint pairs out of seven points


@pytest.mark.parametrize("parts,isolated", [(9, 0), (6, 276)])
def test_maximal_cliques_are_charged_at_least_what_they_take(monkeypatch, parts, isolated):
    # K_{3,...,3} with 3^parts maximal cliques, after `isolated` vertices
    # that are skipped by the size floor; past 256 the vertex ints are not
    # CPython's cached small ints, so each clique would hold its own
    n = 3 * parts
    g = from_edges(isolated + n, [
        (isolated + a, isolated + b)
        for a, b in itertools.combinations(range(n), 2) if a // 3 != b // 3
    ])
    charged = [0]

    def record(cells, what):
        charged[0] = cells

    monkeypatch.setattr(graphs, "check_budget", record)
    tracemalloc.start()
    try:
        cliques = maximal_cliques(g, parts)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cliques) == 3**parts
    assert 8 * charged[0] >= traced


def test_relabel_preserves_structure():
    g = kneser(5, 2)
    perm = list(range(10))
    random.Random(3).shuffle(perm)
    h = g.relabel(perm)
    assert h.num_edges() == g.num_edges()
    for i, j in g.edges():
        assert h.has_edge(perm[i], perm[j])


def test_graph_equality_and_hash():
    a = cycle(4)
    b = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != cycle(5)
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "nbr"]
