"""Optimal vector colorings of walk-regular graphs and their uniqueness."""

import math
import random
from fractions import Fraction

import pytest

from corpus import atlas_graphs, benchmark_ops
from eigenframe import cli, graphs
from eigenframe.coloring import (
    is_one_walk_regular,
    is_uniquely_vector_colorable_1wr,
    optimal_vector_coloring_1wr,
    validate_coloring,
)
from eigenframe import exact
from eigenframe.completability import phi_inverse, xspace
from eigenframe.errors import ResourceLimitError
from eigenframe.exact import ExactMatrix, least_eigenspace
from eigenframe.graphs import Graph, cycle, emit_graph6, from_edges, kneser, parse_graph6
from oracles import walk_regularity
from test_acceptance import WALK_REGULAR_TWENTY

K4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
STAR = from_edges(4, [(0, 1), (0, 2), (0, 3)])
TWO_K3 = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def test_walk_regularity_certificates():
    cert = is_one_walk_regular(kneser(5, 2))
    assert cert.ok
    assert cert.a_seq == (Fraction(1), Fraction(0), Fraction(3))
    assert cert.b_seq == (Fraction(0), Fraction(1), Fraction(0))

    bad = is_one_walk_regular(STAR)
    assert not bad.ok
    assert bad.failure is not None

    assert is_one_walk_regular(TWO_K3).ok  # disconnected but walk-regular
    assert is_one_walk_regular(cycle(7)).ok


def test_walk_regularity_stops_at_the_minimal_polynomial(monkeypatch):
    def no_spectrum(*args):
        raise AssertionError("the walk check needs no spectrum")

    for name in ("_eigh_eigenspace", "_integer_bracket", "psd_rank_pivot"):
        monkeypatch.setattr(exact, name, no_spectrum)
    assert is_one_walk_regular(kneser(5, 2)).k_max == 2  # eigenvalues 3, 1, -2
    assert is_one_walk_regular(cycle(7)).k_max == 3  # 2 and three irrational pairs
    edgeless = is_one_walk_regular(from_edges(3, []))
    assert edgeless.ok and edgeless.k_max == 1  # A = 0, but A^1 is still checked


def _certificate(g):
    cert = is_one_walk_regular(g)
    return cert.ok, cert.a_seq, cert.b_seq, cert.k_max, cert.failure


def _with_isolated_vertices(rng):
    """A seeded G(n, p) on at most 10 vertices, then 1-3 isolated vertices,
    relabelled at random so that they fall anywhere."""
    n, p = rng.randint(1, 10), rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    total = n + rng.randint(1, 3)
    perm = list(range(total))
    rng.shuffle(perm)
    return from_edges(total, [(perm[i], perm[j]) for i, j in edges])


def test_walk_counts_match_the_dense_power_oracle():
    # every field of the certificate, failure vertex or edge included,
    # against dense integer powers and full n^2-entry dependence
    rng = random.Random(29)
    corpus = [g for g, _ in atlas_graphs()] + WALK_REGULAR_TWENTY + [kneser(9, 4)]
    corpus += [_with_isolated_vertices(rng) for _ in range(150)]
    outcomes = set()
    for g in corpus:
        cert = _certificate(g)
        assert cert == walk_regularity(g), emit_graph6(g)
        outcomes.add(cert[0])
    assert outcomes == {True, False}


def test_walk_counts_take_no_exact_matrix_product(monkeypatch):
    # the vc inputs of three benchmark workloads; a return to bignum
    # products, or to the adjacency ExactMatrix, fails here
    inputs = []
    for workload in ("certify", "witness", "floating"):
        for op in benchmark_ops(workload):
            if op.argv and op.argv[0] == "vc":
                flag, spec = op.argv[1:]
                inputs.append(cli._parse_gen(spec) if flag == "--gen" else parse_graph6(spec))
    assert len(inputs) == 13
    before = [_certificate(g) for g in inputs]

    def never(*args):
        raise AssertionError("the walk check formed an exact matrix")

    monkeypatch.setattr(ExactMatrix, "__matmul__", never)
    monkeypatch.setattr(ExactMatrix, "_from_ints", never)
    assert [_certificate(g) for g in inputs] == before
    assert before == [walk_regularity(g) for g in inputs]
    assert all(cert[0] for cert in before)


def test_walk_counts_over_the_byte_budget_are_refused_before_a_power_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("the walk check read the graph over the budget")

    g = kneser(6, 2)
    expected = _certificate(g)
    monkeypatch.setattr(graphs, "SYSTEM_BYTE_CAP", 8 * 15 * 15)
    assert _certificate(g) == expected  # the 15 x 15 powers fit exactly
    monkeypatch.setattr(graphs, "SYSTEM_BYTE_CAP", 8 * 15 * 15 - 1)
    monkeypatch.setattr(Graph, "neighbours", never)
    monkeypatch.setattr(Graph, "edges", never)
    with pytest.raises(ResourceLimitError, match="15 x 15 matrix exceeds the 1799-byte budget"):
        is_one_walk_regular(g)


def test_complete_graph_coloring():
    col = optimal_vector_coloring_1wr(K4)
    assert col.t == 4 and col.backend == "exact"
    assert col.gram[0, 0] == 1 and col.gram[0, 1] == Fraction(-1, 3)
    verdict = validate_coloring(K4, col.gram, col.t)
    assert verdict.status == "valid-strict"


def test_kneser_coloring_value():
    col = optimal_vector_coloring_1wr(kneser(5, 2))
    assert col.t == Fraction(5, 2)
    assert validate_coloring(kneser(5, 2), col.gram, col.t).status == "valid-strict"


def test_pentagon_coloring_floating():
    col = optimal_vector_coloring_1wr(cycle(5))
    assert col.backend == "floating"
    assert abs(float(col.t) - math.sqrt(5)) < 1e-9
    assert validate_coloring(cycle(5), col.gram, col.t).status == "valid-strict"


def _on_both_backends(rows, t):
    """(gram, t) as an ExactMatrix with a Fraction and as floats."""
    exact = ExactMatrix(rows)
    return [(exact, Fraction(t)), (exact.to_float(), float(t))]


MINUS_THIRD = Fraction(-1, 3)
SIMPLEX = [[1 if i == j else MINUS_THIRD for j in range(4)] for i in range(4)]
IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]
BAD_DIAGONAL = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
# symmetric, unit diagonal, edge entries fine, but indefinite
INDEFINITE = [[-1 if {i, j} == {1, 2} else x for j, x in enumerate(row)]
              for i, row in enumerate(SIMPLEX)]


def test_validate_coloring_violations():
    for rows, violation in [(IDENTITY, ("edge", 0, 1)), (BAD_DIAGONAL, ("diagonal", 0, 0)),
                            (INDEFINITE, ("psd", -1, -1))]:
        for gram, t in _on_both_backends(rows, 4):
            v = validate_coloring(K4, gram, t)
            assert v.status == "invalid" and v.violation == violation

    for gram, t in _on_both_backends(IDENTITY, 1):
        with pytest.raises(ValueError):
            validate_coloring(K4, gram, t)


def test_validate_coloring_non_strict():
    # the simplex coloring at a larger t leaves slack on every edge
    for t, status in [(4, "valid-strict"), (5, "valid")]:
        for gram, tt in _on_both_backends(SIMPLEX, t):
            assert validate_coloring(K4, gram, tt).status == status


def test_validate_coloring_tolerance_holds_only_on_the_floating_path():
    off = MINUS_THIRD + Fraction(1, 2 * 10**9)  # above the bound by tol/2
    rows = [[off if {i, j} == {0, 1} else x for j, x in enumerate(row)]
            for i, row in enumerate(SIMPLEX)]
    (exact_gram, exact_t), (float_gram, float_t) = _on_both_backends(rows, 4)
    assert validate_coloring(K4, float_gram, float_t).status == "valid-strict"
    v = validate_coloring(K4, exact_gram, exact_t)
    assert v.status == "invalid" and v.violation == ("edge", 0, 1)


def test_coloring_requires_walk_regularity():
    with pytest.raises(ValueError):
        optimal_vector_coloring_1wr(STAR)
    with pytest.raises(ValueError):
        is_uniquely_vector_colorable_1wr(STAR)


def test_unique_colorability_positive():
    res = is_uniquely_vector_colorable_1wr(K4)
    assert res.uvc and res.x_dim == 0 and res.alternate is None
    res = is_uniquely_vector_colorable_1wr(cycle(4))
    assert res.uvc and res.x_dim == 0


def test_unique_colorability_negative_disconnected():
    res = is_uniquely_vector_colorable_1wr(TWO_K3)
    assert not res.uvc and res.x_dim > 0
    assert res.alternate is not None
    alt = res.alternate
    assert alt.t == res.coloring.t == 3
    assert alt.gram != res.coloring.gram
    assert validate_coloring(TWO_K3, alt.gram, alt.t).status == "valid-strict"
    assert validate_coloring(TWO_K3, res.coloring.gram, res.coloring.t).status == "valid-strict"


def test_second_coloring_still_unit_norm():
    res = is_uniquely_vector_colorable_1wr(TWO_K3)
    alt = res.alternate
    for i in range(6):
        assert alt.gram[i, i] == 1


def test_a_floating_witness_is_checked_within_its_eigenspace_tolerance():
    # two disjoint pentagons: floating tau and a nontrivial witness space. A
    # witness moved by 5e-8 at the complement pair (0, 5) and its mirror is
    # refused on the eigenspace clustered at 1e-8 and accepted on the one
    # clustered at 1e-7 (vc --tol): phi_inverse reads the eigenspace's
    # tolerance, and so does the check of the witness behind vc's second
    # coloring
    two_c5 = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    tight, loose = (least_eigenspace(two_c5, "floating", tol) for tol in (1e-8, 1e-7))
    x = xspace(tight).basis[0].copy()
    x[0, 5] += 5e-8
    x[5, 0] += 5e-8
    with pytest.raises(ValueError):
        phi_inverse(x, tight)
    assert phi_inverse(x, loose).shape == (4, 4)
    res = is_uniquely_vector_colorable_1wr(loose)
    assert not res.uvc and res.x_dim > 0 and res.alternate.backend == "floating"
