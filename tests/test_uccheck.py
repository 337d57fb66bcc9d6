"""Completability witness space, the framework order, sufficient conditions.

The production solver works on complement-edge unknowns with modular rank
certificates; the oracle in oracles.py redoes every graph from scratch with
all n(n+1)/2 unknowns and textbook fraction elimination.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corpus import atlas_graphs, benchmark_ops, connected_graphs
from eigenframe import cli, coloring, completability, exact, frameworks
from eigenframe.coloring import is_uniquely_vector_colorable_1wr, optimal_vector_coloring_1wr
from eigenframe.completability import (
    NEIGHBORHOOD_MARGIN,
    SV_THRESHOLD,
    ConditionReport,
    clique_condition,
    clique_condition_any,
    dominated_frameworks,
    gershgorin_scale,
    is_universally_completable,
    neighborhood_condition,
    phi,
    phi_inverse,
    xspace,
)
from eigenframe.errors import UnsupportedInputError
from eigenframe.exact import (
    ExactMatrix,
    cayley_spectrum,
    least_eigenspace,
    nullspace,
    rank_exact,
)
from eigenframe.frameworks import dominates, least_eigenvalue_framework
from eigenframe.graphs import (
    CayleySpec,
    cayley_z2,
    cycle,
    emit_graph6,
    from_edges,
    induced_subgraph,
    is_split,
    kneser,
    maximal_cliques,
    parse_graph6,
    q_kneser,
)
from eigenframe.serialize import number_token
from oracles import complement_gram_loop, dense_xspace_dim, x_system_svd

TWO_K2 = from_edges(4, [(0, 1), (2, 3)])
GNP20 = "SH??`@gAG?_KA@CGaaKBCk?AC?`@CSD_c"  # G(20, 0.2), irrational tau
K4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_two_disjoint_edges_have_a_witness_line():
    xs = xspace(TWO_K2)
    assert xs.backend == "exact" and xs.dim == 1
    assert xs.tau == -1 and xs.tau_multiplicity == 2
    m = xs.basis[0]
    # zero on the diagonal and both edges, equal cross entries up to sign
    assert all(m[i, i] == 0 for i in range(4))
    assert m[0, 1] == 0 and m[2, 3] == 0
    assert m[0, 2] == m[1, 3] != 0
    assert m[0, 3] == m[1, 2] == -m[0, 2]
    assert dense_xspace_dim(TWO_K2, -1) == 1


def test_square_is_universally_completable():
    xs = xspace(cycle(4))
    assert xs.dim == 0 and xs.tau == -2 and xs.tau_multiplicity == 1
    assert dense_xspace_dim(cycle(4), -2) == 0


def test_exact_dimension_matches_dense_oracle_on_corpus():
    for g, _ in connected_graphs(max_n=5, min_n=2):
        if not least_eigenspace(g).is_exact():
            continue
        xs = xspace(least_eigenspace(g, "exact"))
        assert xs.dim == dense_xspace_dim(g, xs.tau), f"graph {g.nbr}"


def test_floating_agrees_with_exact_on_corpus():
    for g, _ in connected_graphs(max_n=5, min_n=2):
        if not least_eigenspace(g).is_exact():
            continue
        exact = xspace(least_eigenspace(g, "exact"))
        floating = xspace(least_eigenspace(g, "floating"))
        assert floating.dim == exact.dim
        assert floating.sv_margin is None or floating.sv_margin > 0


def test_odd_cycles_floating():
    for n in range(3, 13, 2):
        xs = xspace(least_eigenspace(cycle(n), "floating"))
        assert xs.dim == 0
        verdict = is_universally_completable(least_eigenspace(cycle(n), "floating"))
        assert verdict.uc and verdict.witness.dim == 0


def _rspace_bound(les):
    return completability._rspace_margin_bound(les, completability._rspace_svd(les)[0][-1])


def _assert_same_span(basis, oracle_basis, g):
    # Both bases as vectors over the complement pairs; the oracle's rows are
    # orthonormal, so projecting onto them must leave each vector unchanged.
    k, j = np.array([(a, b) for a in range(g.n) for b in range(a + 1, g.n)
                     if not g.has_edge(a, b)]).T
    ours = np.array([x[k, j] for x in basis])
    theirs = np.array([x[k, j] for x in oracle_basis])
    assert ours.shape == theirs.shape, emit_graph6(g)
    assert np.allclose(np.linalg.norm(ours, axis=1), 1.0), emit_graph6(g)
    assert np.linalg.matrix_rank(ours) == len(ours), emit_graph6(g)
    assert np.allclose(ours @ theirs.T @ theirs, ours, atol=1e-9), emit_graph6(g)


def test_rspace_bound_never_exceeds_the_complement_edge_margin(monkeypatch):
    # Wherever the R-space bound proves dimension zero, the n^2-row system
    # read by a full SVD must have full column rank and a margin at least
    # the bound, and the reported margin, read from that system's Gram
    # matrix, must agree with the SVD's to 1e-14 relative: every atlas graph
    # forced floating, C5-C21 and the seed-1 G(n, 0.2) inputs of the
    # floating benchmark workload. That is the twelve digits of a report
    # unless a rounding boundary lies between the two values, which rounding
    # alone can decide: the atlas graph F~~]w has its margin 6e-17 below
    # one, and the removed n^2-row SVD landed over it. On these inputs the
    # proof also fails only where that system is rank deficient, and there
    # the R-space fallback must span the SVD's null space and report margin
    # 0.0 without building the Gram matrix.
    gnp = [parse_graph6(op.argv[2]) for op in benchmark_ops("floating")
           if op.argv[:2] == ("check-uc", "--graph6")]
    assert [g.n for g in gnp] == [20, 23, 26, 29, 32]
    graphs = [g for g, _ in atlas_graphs()] + [cycle(n) for n in range(5, 22, 2)] + gnp
    real, calls = completability._complement_gram, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(completability, "_complement_gram", counted)
    fallbacks = 0
    for g in graphs:
        if g.num_edges() == g.n * (g.n - 1) // 2:
            continue  # no complement pair, no system
        les = least_eigenspace(g, "floating")
        bound = _rspace_bound(les)
        dim, margin, basis = x_system_svd(g)
        xs = xspace(les)
        built = len(calls)
        if bound > 10 * SV_THRESHOLD:
            assert dim == 0 and margin >= bound, emit_graph6(g)
            assert xs.sv_margin == pytest.approx(margin, rel=1e-14, abs=0), emit_graph6(g)
            assert len(calls) == built + 1, emit_graph6(g)
        else:
            assert dim > 0 and xs.dim == dim, emit_graph6(g)
            _assert_same_span(xs.basis, basis, g)
            assert xs.sv_margin == 0.0 and len(calls) == built, emit_graph6(g)
            fallbacks += 1
    assert fallbacks == 24  # all disconnected: every connected atlas graph is UC


def test_the_complement_gram_has_the_bits_of_the_four_term_sum():
    # every atlas graph with a complement pair and every floating check-uc
    # input, compared as bytes so that signed zeros count
    floating = [cli._parse_gen(op.argv[2]) if op.argv[1] == "--gen" else parse_graph6(op.argv[2])
                for op in benchmark_ops("floating") if op.argv[0] == "check-uc"]
    assert len(floating) == 14
    graphs = [g for g, _ in atlas_graphs()] + floating
    compared = 0
    for g in graphs:
        pairs = completability._complement_pairs(g)
        if not pairs:
            continue
        shifted = least_eigenspace(g, "floating").shifted
        k, j = np.array(pairs).T
        built = completability._complement_gram(shifted, k, j)
        assert built.tobytes() == complement_gram_loop(shifted, k, j).tobytes(), emit_graph6(g)
        compared += 1
    assert compared == 1245 + 14


def test_floating_fallback_reads_the_complement_edge_system(monkeypatch):
    les = least_eigenspace(TWO_K2, "floating")
    assert _rspace_bound(les) <= 10 * SV_THRESHOLD
    xs = xspace(les)
    dim, margin, basis = x_system_svd(TWO_K2)
    assert xs.dim == dim == 1
    _assert_same_span(xs.basis, basis, TWO_K2)

    def never(*args):
        raise AssertionError("the complement-edge Gram matrix was built")

    monkeypatch.setattr(completability, "_complement_gram", never)
    assert xs.sv_margin == 0.0
    assert xs.sv_margin == pytest.approx(margin, abs=1e-12)
    assert np.allclose(xs.basis[0], basis[0]) or np.allclose(xs.basis[0], -basis[0])


def test_forced_fallback_gives_the_proof_route_result(monkeypatch):
    proved = xspace(least_eigenspace(cycle(5), "floating"))
    real, calls = completability._complement_gram, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(completability, "_complement_gram", counted)
    monkeypatch.setattr(completability, "_rspace_margin_bound", lambda les, s: 0.0)
    fallback = xspace(least_eigenspace(cycle(5), "floating"))
    assert fallback == proved and fallback.dim == 0
    assert number_token(fallback.sv_margin) == 0.504622638711
    assert len(calls) == 1  # one build per read, on either route
    assert number_token(proved.sv_margin) == 0.504622638711
    assert len(calls) == 2


def test_uc_verdict_carries_the_witness():
    verdict = is_universally_completable(TWO_K2)
    assert not verdict.uc and verdict.witness.dim == 1
    assert is_universally_completable(K4).uc


def test_eigenspace_basis_and_phi_round_trip():
    les = least_eigenspace(TWO_K2, backend="exact")
    b = ExactMatrix.column_stack(les.basis)
    # the basis B of X = B R B^T: full column rank, spanning ker(A - tau I)
    assert b.shape == (4, 2)
    assert rank_exact(b) == 2
    assert (les.shifted @ b).is_zero()
    x = xspace(les).basis[0]
    r = phi_inverse(x, les)
    assert r.shape == (2, 2) and r.is_symmetric()
    assert phi(r, les) == x
    assert phi_inverse(x, TWO_K2) == r and phi(r, TWO_K2) == x
    # r vanishes against basis rows on closed neighborhoods
    for i in range(4):
        for j in range(4):
            if i == j or TWO_K2.has_edge(i, j):
                row_i = b.submatrix([i], range(2))
                row_j = b.submatrix([j], range(2)).transpose()
                assert (row_i @ r @ row_j)[0, 0] == 0


def test_phi_round_trip_random_combinations():
    les = least_eigenspace(TWO_K2, backend="exact")
    xs = xspace(les)
    rng = random.Random(9)
    for _ in range(10):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        x = xs.basis[0] * c
        assert phi(phi_inverse(x, les), les) == x


def test_exact_phi_inverse_refuses_a_matrix_outside_the_image():
    les = least_eigenspace(TWO_K2, backend="exact")
    x = xspace(les).basis[0]
    e00 = ExactMatrix([[int(i == j == 0) for j in range(4)] for i in range(4)])
    for bad in (x + e00, x + ExactMatrix.identity(4), x.to_float()):
        with pytest.raises(ValueError):
            phi_inverse(bad, les)
    with pytest.raises(ValueError):
        phi_inverse(ExactMatrix.identity(3), les)


def test_phi_refuses_a_non_symmetric_or_wrongly_sized_r():
    exact = least_eigenspace(TWO_K2, backend="exact")  # d = 2
    floating = least_eigenspace(TWO_K2, backend="floating")
    r = phi_inverse(xspace(exact).basis[0], exact)
    upper = ExactMatrix([[0, 1], [0, 0]])
    for bad in (upper, ExactMatrix([[1]]), ExactMatrix.identity(3), r.to_float()):
        with pytest.raises(ValueError):
            phi(bad, exact)
    for bad in (upper.to_float(), np.eye(1), np.eye(3)):
        with pytest.raises(ValueError):
            phi(bad, floating)
    with pytest.raises(ValueError):  # symmetric, but X = B B^T is nonzero on the diagonal
        phi(ExactMatrix.identity(2), exact)


TWO_C5 = from_edges(10, [(k + i, k + (i + 1) % 5) for k in (0, 5) for i in range(5)])


def test_floating_phi_round_trip_on_two_pentagons():
    les = least_eigenspace(TWO_C5)
    assert not les.is_exact() and les.spectrum.tau_multiplicity == 4
    assert abs(les.spectrum.tau + (1 + math.sqrt(5)) / 2) < 1e-12
    xs = xspace(les)
    assert xs.dim == 4
    for x in xs.basis:
        r = phi_inverse(x, les)
        assert r.shape == (4, 4)
        assert np.max(np.abs(phi(r, les) - x)) < 1e-12


def test_floating_phi_inverse_refuses_a_matrix_outside_the_image():
    c5 = least_eigenspace(cycle(5))  # phi(I_2) = B B^T, not I_5
    for bad in (np.eye(5), np.eye(3)):
        with pytest.raises(ValueError):
            phi_inverse(bad, c5)
    les = least_eigenspace(TWO_C5)
    x = xspace(les).basis[0]
    e00 = np.zeros((10, 10))
    e00[0, 0] = 1.0
    with pytest.raises(ValueError):
        phi_inverse(x + e00, les)


def test_dominated_framework_default_scale():
    fw = least_eigenvalue_framework(least_eigenspace(TWO_K2, "exact"))
    x = xspace(TWO_K2).basis[0]
    assert gershgorin_scale(x) == Fraction(1, 2)
    dom = dominated_frameworks(fw, x)
    assert dom.d == 1
    assert dominates(fw, dom)
    # rank drops to one: all points collapse onto a line
    expected = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)]
    sign = 1 if dom.gram[0, 2] == Fraction(1, 2) else -1
    for j in range(4):
        assert dom.gram[0, j] * sign in (expected[j], -expected[j])
    assert dom.gram[0, 0] == Fraction(1, 2) and dom.gram[0, 1] == Fraction(-1, 2)


def test_gershgorin_scale_matches_the_fraction_formula():
    rng = random.Random(14)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-30, 30), rng.randint(1, 40)) for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.1:
            rows = [[0] * ncols for _ in range(nrows)]
        s = max(sum(abs(Fraction(v)) for v in row) for row in rows)
        assert gershgorin_scale(ExactMatrix(rows)) == (None if s == 0 else Fraction(1) / s)


def test_dominated_framework_smaller_scale_keeps_rank():
    fw = least_eigenvalue_framework(least_eigenspace(TWO_K2, "exact"))
    x = xspace(TWO_K2).basis[0]
    dom = dominated_frameworks(fw, x, c=Fraction(1, 4))
    assert dom.d == 2
    assert dominates(fw, dom)
    assert dom.gram != fw.gram


def test_neighborhood_condition_examples():
    assert neighborhood_condition(K4).holds  # empty punctured graphs, tau < 0
    assert neighborhood_condition(cycle(5)).holds
    report = neighborhood_condition(kneser(5, 2))
    assert not report.holds
    assert report.failed_vertex is not None
    # K1: the empty punctured graph's eigenvalue 0 does not exceed tau = 0
    assert neighborhood_condition(from_edges(1, [])) == ConditionReport(False, 0)
    # two isolated vertices: the one-vertex remainder is singular at tau = 0
    assert neighborhood_condition(from_edges(2, [])) == ConditionReport(False, 0)


def test_clique_condition_examples():
    ok, clique = clique_condition_any(K4)
    assert ok and sorted(clique) == [0, 1, 2, 3]
    # edge cliques are allowed; on the pentagon the outside path passes
    assert clique_condition_any(cycle(5))[0]
    # soundness forces failure on a non-completable graph
    assert not clique_condition_any(TWO_K2)[0]
    from eigenframe.completability import clique_condition
    with pytest.raises(ValueError):
        clique_condition(cycle(5), [0, 2])  # not a clique
    for outside in ([0, -1], [-1], [7]):  # -1 must not wrap round to vertex 4
        with pytest.raises(ValueError, match="out of range"):
            clique_condition(cycle(5), outside)


def _spectral_neighborhood_oracle(les):
    """The neighbourhood condition by its definition: certify a spectrum for
    every punctured graph and compare its least eigenvalue with tau."""
    g, tau = les.graph, les.spectrum.tau
    backend = "floating" if les.spectrum.backend == "floating" else "auto"
    for v in range(g.n):
        closed = {v, *g.neighbours(v)}
        h = induced_subgraph(g, [w for w in range(g.n) if w not in closed])
        lam = least_eigenspace(h, backend).spectrum.tau if h.n else Fraction(0)
        if isinstance(lam, Fraction) and isinstance(tau, Fraction):
            ok = lam > tau
        else:
            ok = float(lam) > float(tau) + NEIGHBORHOOD_MARGIN
        if not ok:
            return ConditionReport(False, failed_vertex=v)
    return ConditionReport(True)


def _svd_clique_oracle(les):
    """The clique condition with its floating route read off the singular
    values of the submatrix, against SV_THRESHOLD."""
    g = les.graph
    for clique in sorted(maximal_cliques(g), key=lambda c: (-len(c), c)):
        rest = [v for v in range(g.n) if v not in clique]
        if not rest:
            ok = True
        elif les.is_exact():
            ok = rank_exact(les.shifted.submatrix(rest, rest)) == len(rest)
        else:
            svals = np.linalg.svd(les.shifted[np.ix_(rest, rest)], compute_uv=False)
            ok = svals[-1] > SV_THRESHOLD * max(1.0, float(svals[0]))
        if ok:
            return True, tuple(clique)
    return False, None


def test_conditions_agree_with_the_punctured_spectrum_oracles():
    graphs = [g for g, _ in atlas_graphs()] + [cycle(n) for n in range(3, 40)]
    routes = set()
    for g in graphs:
        les = least_eigenspace(g)
        routes.add(les.spectrum.backend)
        assert neighborhood_condition(les) == _spectral_neighborhood_oracle(les), g.nbr
        assert clique_condition_any(les) == _svd_clique_oracle(les), g.nbr
    assert routes == {"exact", "floating"}


@pytest.mark.parametrize(
    "g", [kneser(6, 2), cycle(9), parse_graph6(GNP20)],
    ids=["kneser6_2", "cycle9", "gnp20"],
)
def test_neighborhood_condition_certifies_no_punctured_spectrum(monkeypatch, g):
    les = least_eigenspace(g)
    expected = _spectral_neighborhood_oracle(les)

    def refuse(*args, **kwargs):
        raise AssertionError("a punctured graph's spectrum was certified")

    # least_eigenspace guesses tau, and builds the floating eigenspace, with
    # _eigh_eigenspace and falls back to _integer_bracket
    for name in ("least_eigenspace", "_eigh_eigenspace", "_integer_bracket"):
        monkeypatch.setattr(exact, name, refuse)
    assert neighborhood_condition(les) == expected


def _submatrix_rule(les, removed):
    """Nonsingularity of A - tau I off removed by eliminating the principal
    submatrix itself: Bareiss rank, or its least eigenvalue on the floating
    path."""
    rest = [v for v in range(les.graph.n) if v not in removed]
    if not rest:
        return True
    if les.is_exact():
        return rank_exact(les.shifted.submatrix(rest, rest)) == len(rest)
    return bool(np.linalg.eigvalsh(les.shifted[np.ix_(rest, rest)])[0] > NEIGHBORHOOD_MARGIN)


def test_basis_row_rank_decides_nonsingularity_off_random_vertex_sets():
    graphs = [g for g, _ in atlas_graphs()] + [cycle(n) for n in range(3, 40)]
    graphs += [kneser(5, 2), kneser(6, 2), kneser(7, 2), q_kneser(2, 4, 2), parse_graph6(GNP20)]
    rng = random.Random(9)
    outcomes = set()
    for g in graphs:
        les = least_eigenspace(g)
        for _ in range(6):
            removed = set(rng.sample(range(g.n), rng.randint(0, g.n)))
            got = completability._nonsingular_off(les, removed)
            assert got == _submatrix_rule(les, removed), (g.nbr, sorted(removed))
            outcomes.add((les.spectrum.backend, got))
    assert outcomes == {(b, v) for b in ("exact", "floating") for v in (False, True)}


@pytest.mark.parametrize(
    "g", [kneser(6, 2), kneser(7, 2), cycle(9), parse_graph6(GNP20)],
    ids=["kneser6_2", "kneser7_2", "cycle9", "gnp20"],
)
def test_conditions_eliminate_no_principal_submatrix(monkeypatch, g):
    les = least_eigenspace(g)
    expected = (_spectral_neighborhood_oracle(les), _svd_clique_oracle(les))

    def refuse(*args, **kwargs):
        raise AssertionError("a principal submatrix was eliminated")

    monkeypatch.setattr(ExactMatrix, "submatrix", refuse)
    monkeypatch.setattr(completability.np.linalg, "eigvalsh", refuse)
    assert (neighborhood_condition(les), clique_condition_any(les)) == expected


def test_clique_search_stops_below_the_multiplicity(monkeypatch):
    les = least_eigenspace(kneser(7, 2))
    assert les.spectrum.tau_multiplicity == 6
    assert sorted(map(len, maximal_cliques(les.graph))) == [3] * 105
    calls, listed = [], []

    def floored_cliques(g, min_size=0):
        listed.append((min_size, maximal_cliques(g, min_size)))
        return listed[-1][1]

    monkeypatch.setattr(completability, "rank_exact", lambda rows: calls.append(rows))
    monkeypatch.setattr(completability, "clique_condition", lambda *a: calls.append(a))
    monkeypatch.setattr(completability, "maximal_cliques", floored_cliques)
    assert clique_condition_any(les) == (False, None)
    # the search never lists a clique below the floor of d = 6 vertices
    assert calls == [] and listed == [(6, [])]


def test_conditions_imply_uc_on_corpus():
    for g, _ in connected_graphs(max_n=5, min_n=2):
        nb = neighborhood_condition(g)
        cl, _ = clique_condition_any(g)
        if nb.holds or cl:
            assert is_universally_completable(g).uc, f"graph {g.nbr}"


def _random_split_graph(rng, k, m):
    g_edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for u in range(k, k + m):
        for v in range(k):
            if rng.random() < 0.5:
                g_edges.append((v, u))
    return from_edges(k + m, g_edges)


def test_split_graphs_are_universally_completable():
    rng = random.Random(2024)
    seen = 0
    while seen < 25:
        g = _random_split_graph(rng, rng.randint(2, 5), rng.randint(1, 4))
        if not g.is_connected():
            continue
        flag, _ = is_split(g)
        assert flag
        seen += 1
        assert is_universally_completable(g).uc


def test_backend_argument_validation():
    with pytest.raises(ValueError):
        least_eigenspace(K4, "quantum")
    with pytest.raises(UnsupportedInputError):
        least_eigenspace(cycle(5), "exact")


def _complement_pair_system(g, tau):
    """The n^2 x |complement edges| system (A - tau I) X = 0 with X supported
    on complement pairs: one row per matrix position (i, j), summing the
    neighbour stencil of i and -tau at i down column j."""
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)]
    col = {pair: t for t, pair in enumerate(pairs)}
    rows = []
    for i in range(g.n):
        stencil = [(k, 1) for k in g.neighbours(i)] + [(i, -int(tau))]
        for j in range(g.n):
            row = [0] * len(pairs)
            for k, coef in stencil:
                t = col.get((min(k, j), max(k, j)))
                if t is not None:
                    row[t] += coef
            rows.append(row)
    return pairs, rows


def _line_graph(n):
    edges = list(itertools.combinations(range(n), 2))
    m = len(edges)
    return from_edges(m, [(a, b) for a, b in itertools.combinations(range(m), 2)
                          if set(edges[a]) & set(edges[b])])


def _assert_echelon_basis_of_complement_pair_system(g):
    xs = xspace(least_eigenspace(g, "exact"))
    pairs, rows = _complement_pair_system(g, xs.tau)
    expected = []
    for vec in nullspace(rows):  # Bareiss: primitive, positive at its free column
        entries = [[0] * g.n for _ in range(g.n)]
        for (i, j), v in zip(pairs, vec):
            entries[i][j] = entries[j][i] = v
        expected.append(ExactMatrix(entries))
    assert xs.basis == tuple(expected), f"graph {g.nbr}"
    return xs.dim


def test_exact_basis_is_the_echelon_basis_of_the_complement_pair_system():
    checked = 0
    for g, _ in atlas_graphs():
        if least_eigenspace(g).is_exact() and xspace(g).dim > 0:
            _assert_echelon_basis_of_complement_pair_system(g)
            checked += 1
    assert checked == 22  # all of them disconnected
    assert _assert_echelon_basis_of_complement_pair_system(_line_graph(6)) == 5  # T(6)
    assert _assert_echelon_basis_of_complement_pair_system(cycle(4)) == 0


def test_small_cayley_eigenspace_takes_the_modular_full_rank_route(monkeypatch):
    conn = (1, 4, 14, 18, 21, 27, 30)
    sp = cayley_spectrum(CayleySpec(5, conn)).spectrum
    assert sp.tau == -5 and sp.tau_multiplicity == 2
    widths = []
    real_kernel = exact.kernel_mod_p

    def recording_kernel(rows):
        widths.append(len(rows[0]))
        return real_kernel(rows)

    def no_kernel_solve(*args):
        raise AssertionError("kernel solve on a full-rank reduced system")

    monkeypatch.setattr(exact, "kernel_mod_p", recording_kernel)
    monkeypatch.setattr(exact, "nullspace", no_kernel_solve)
    assert xspace(cayley_z2(CayleySpec(5, conn))).dim == 0
    assert widths == [3]  # the upper triangle of a 2 x 2 matrix R


def test_the_witness_benchmark_inputs_take_no_bignum_elimination(monkeypatch):
    # every kernel of the witness workload lifts from its one elimination
    # modulo p, so a slide back to the Bareiss route fails here
    graphs = {parse_graph6(op.argv[2]) for op in benchmark_ops("witness")}
    dims = {g: xspace(g).dim for g in graphs}
    assert len(graphs) == 7 and sum(dims.values()) > 0

    def no_bareiss(rows):
        raise AssertionError("bignum elimination on a benchmark input")

    monkeypatch.setattr(exact, "_bareiss_echelon", no_bareiss)
    assert {g: xspace(g).dim for g in graphs} == dims


def test_lifted_witnesses_are_primitive_echelon_vectors():
    # here B R B^T has even entries for both kernel elements of the R-system
    g = cayley_z2(CayleySpec(5, (4, 5, 6, 7, 10, 13, 17, 22)))
    xs = xspace(g)
    assert xs.dim == 2 and xs.tau == -4 and xs.tau_multiplicity == 7
    pairs, _ = _complement_pair_system(g, xs.tau)
    vecs = [[m.num[i][j] for i, j in pairs] for m in xs.basis]
    lasts = [max(t for t, v in enumerate(vec) if v) for vec in vecs]
    assert lasts == sorted(set(lasts))
    for vec, last in zip(vecs, lasts):
        assert math.gcd(*vec) == 1 and vec[last] > 0
        assert all(vec[other] == 0 for other in lasts if other != last)


# The eight checks that read the least eigenspace, each with a reader of
# (backend, eigenspace) off its result; seen holds the eigenspaces that a
# check resolved its input to (_eigenspace_of) or ran a rank test on
# (_nonsingular_off), for the checks whose result holds none.
CONSUMERS = {
    "xspace": (xspace, lambda r, seen: (r.backend, r.eigenspace)),
    "is_universally_completable": (
        is_universally_completable, lambda r, seen: (r.witness.backend, r.witness.eigenspace)),
    "least_eigenvalue_framework": (
        least_eigenvalue_framework, lambda r, seen: (r.backend, r.eigenspace)),
    "is_uniquely_vector_colorable_1wr": (
        is_uniquely_vector_colorable_1wr,
        lambda r, seen: (r.coloring.backend, r.witness_space.eigenspace)),
    "optimal_vector_coloring_1wr": (
        optimal_vector_coloring_1wr, lambda r, seen: (r.backend, seen[-1])),
    "neighborhood_condition": (
        neighborhood_condition, lambda r, seen: (seen[-1].spectrum.backend, seen[-1])),
    "clique_condition": (
        lambda les: clique_condition(les, les.graph.edges()[0]),
        lambda r, seen: (seen[-1].spectrum.backend, seen[-1])),
    "clique_condition_any": (
        clique_condition_any, lambda r, seen: (seen[-1].spectrum.backend, seen[-1])),
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
@pytest.mark.parametrize("backend", ["exact", "floating"])
def test_each_check_follows_the_eigenspace_it_is_given(monkeypatch, name, backend):
    # the exact eigenspace of K(5,2) and the floating one of C5; no check
    # certifies again, so every eigenspace a check reads is the one given
    les = least_eigenspace(kneser(5, 2) if backend == "exact" else cycle(5), backend)
    seen = []

    def resolved(g):
        seen.append(exact._eigenspace_of(g))
        return seen[-1]

    def rank_test(e, removed):
        seen.append(e)
        return nonsingular_off(e, removed)

    def refuse(*args, **kwargs):
        raise AssertionError("a check certified its eigenspace again")

    nonsingular_off = completability._nonsingular_off
    monkeypatch.setattr(exact, "least_eigenspace", refuse)
    for module in (completability, frameworks, coloring):
        monkeypatch.setattr(module, "_eigenspace_of", resolved)
    monkeypatch.setattr(completability, "_nonsingular_off", rank_test)
    check, read = CONSUMERS[name]
    got_backend, held = read(check(les), seen)
    assert got_backend == backend and held is les
    assert all(e is les for e in seen)
