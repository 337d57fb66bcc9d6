"""Least-eigenvalue frameworks, named constructions, stress matrices."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from corpus import atlas_graphs, benchmark_ops, connected_graphs
from eigenframe import frameworks, modular
from eigenframe.errors import InternalCheckError, ResourceLimitError, UnsupportedInputError
from eigenframe.completability import XSpaceBasis, dominated_frameworks, xspace
from eigenframe.exact import (
    ExactMatrix,
    LeastEigenspace,
    adjacency_matrix,
    least_eigenspace,
    nullspace,
    rank_exact,
)
from eigenframe.frameworks import (
    Framework,
    StressMatrix,
    canonical_stress,
    congruent,
    dominates,
    kneser_framework,
    least_eigenvalue_framework,
    qkneser_framework,
)
from eigenframe.cli import _parse_gen
from eigenframe.graphs import cycle, from_edges, kneser, parse_graph6
from eigenframe.modular import _subspaces_mod_q, gaussian_binomial
from eigenframe.serialize import canonical_json, gram_tokens, number_token
from oracles import assert_projector_and_witnesses, rank_mod_q

K4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_least_eigenvalue_framework_is_the_projector():
    fw = least_eigenvalue_framework(least_eigenspace(K4, "exact"))
    assert fw.gram @ fw.gram == fw.gram
    assert fw.gram[0, 0] == Fraction(3, 4) and fw.gram[0, 1] == Fraction(-1, 4)
    assert fw.d == 3 and fw.tau == -1 and fw.tau_multiplicity == 3
    a = adjacency_matrix(K4)
    assert a @ fw.gram == fw.gram * fw.tau


def test_projector_invariants_on_corpus():
    # the exact path proves P and every witness X at d x d; the dense
    # identities P^2 = P, (A - tau I) P = 0 and (A - tau I) X = 0 hold on
    # every exact atlas graph and every exact benchmark input
    graphs = [g for g, _ in atlas_graphs() if least_eigenspace(g).is_exact()]
    assert len(graphs) == 228
    for workload in ("certify", "witness"):
        graphs += list({
            _parse_gen(op.argv[2]) if op.argv[1] == "--gen" else parse_graph6(op.argv[2])
            for op in benchmark_ops(workload)
        })
    witnesses = 0
    for g in graphs:
        les = least_eigenspace(g, "exact")
        fw = least_eigenvalue_framework(les)
        basis = xspace(les).basis
        assert fw.gram.trace() == fw.d == fw.tau_multiplicity == les.spectrum.tau_multiplicity
        assert_projector_and_witnesses(g, les.spectrum.tau, fw.gram, basis)
        witnesses += len(basis)
    assert len(graphs) == 228 + 14 and witnesses > 0


def test_floating_backend_close_to_exact():
    fw_e = least_eigenvalue_framework(least_eigenspace(kneser(5, 2), "exact"))
    fw_f = least_eigenvalue_framework(least_eigenspace(kneser(5, 2), "floating"))
    assert fw_f.d == fw_e.d == 4
    assert np.allclose(np.asarray(fw_f.gram, dtype=float), fw_e.gram.to_float(), atol=1e-8)


def test_floating_backend_on_irrational_spectrum():
    fw = least_eigenvalue_framework(least_eigenspace(cycle(5), "floating"))
    assert fw.d == 2
    g = np.asarray(fw.gram, dtype=float)
    assert np.allclose(g, g @ g, atol=1e-8)


def test_exact_backend_refuses_irrational_tau():
    with pytest.raises(UnsupportedInputError):
        least_eigenvalue_framework(least_eigenspace(cycle(5), "exact"))


def test_kneser_framework_petersen():
    fw = kneser_framework(5, 2)
    assert fw.n == 10 and fw.d == 4
    assert fw.tau == -2 and fw.tau_multiplicity == 4
    g = fw.graph
    for i in range(10):
        assert fw.gram[i, i] == 30
        assert sum(fw.gram[i, j] for j in range(10)) == 0
        for j in range(i + 1, 10):
            assert fw.gram[i, j] == (-20 if g.has_edge(i, j) else 5)
    # the gram is a positive multiple of the eigenprojector
    proj = least_eigenvalue_framework(least_eigenspace(g, "exact")).gram
    assert fw.gram == proj * 75


def test_kneser_framework_guard():
    with pytest.raises(UnsupportedInputError):
        kneser_framework(4, 2)


def test_qkneser_framework_small():
    # 1-subspaces of F_2^3 give the complete graph on 7 vertices
    fw = qkneser_framework(2, 3, 1)
    assert fw.n == 7 and fw.d == 6
    assert fw.tau == -1 and fw.tau_multiplicity == 6
    for i in range(7):
        assert fw.gram[i, i] == 42
        for j in range(i + 1, 7):
            assert fw.gram[i, j] == -7
    a = adjacency_matrix(fw.graph)
    assert a @ fw.gram == fw.gram * fw.tau


def test_qkneser_framework_incidence_matches_the_rank_oracle(monkeypatch):
    # alpha where the subspace contains the line, that is where adding the
    # line keeps rank r, and beta elsewhere; the incidence matrix is read
    # where qkneser_framework hands it to _incidence_framework
    seen, real = [], frameworks._incidence_framework

    def spy(g, p):
        seen.append(p)
        return real(g, p)

    monkeypatch.setattr(frameworks, "_incidence_framework", spy)
    for q, n, r in [(2, 3, 1), (2, 4, 1), (3, 3, 1), (5, 3, 1), (2, 5, 2)]:
        beta = gaussian_binomial(r, 1, q)
        alpha = beta - gaussian_binomial(n, 1, q)
        lines = sorted(_subspaces_mod_q(q, n, 1))
        expected = ExactMatrix([
            [alpha if rank_mod_q(s + line, q) == r else beta for line in lines]
            for s in sorted(_subspaces_mod_q(q, n, r))
        ])
        seen.clear()
        fw = qkneser_framework(q, n, r)
        assert seen == [expected], (q, n, r)
        assert fw.gram == expected @ expected.transpose() and fw.d == rank_exact(expected)


@pytest.mark.parametrize("build,args", [
    (kneser_framework, (5, 2)), (kneser_framework, (7, 3)),
    (qkneser_framework, (2, 3, 1)), (qkneser_framework, (3, 3, 1)),
])
def test_incidence_frameworks_form_their_gram_once(monkeypatch, build, args):
    # gram = p p^T for the n x m incidence matrix p is the one product; the
    # Gram matrix is the framework's only representation, so it is not
    # formed again to check a factorization
    shapes, real = [], ExactMatrix.__matmul__

    def recorded(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", recorded)
    fw = build(*args)
    m = args[0] if build is kneser_framework else gaussian_binomial(args[1], 1, args[0])
    assert shapes == [((fw.n, m), (m, fw.n))]


def test_qkneser_framework_guard():
    with pytest.raises(UnsupportedInputError):
        qkneser_framework(2, 4, 2)


def test_qkneser_framework_refuses_an_over_budget_graph_before_its_masks(monkeypatch):
    # the 11811 x 11811 adjacency matrix of qK(2, 7, 3) is over the byte
    # budget, so its subspaces, which every line mask is built from, may not
    # even be listed
    def never(*args):
        raise AssertionError("subspaces listed for an over-budget graph")

    monkeypatch.setattr(modular, "_subspaces_mod_q", never)
    with pytest.raises(ResourceLimitError, match="11811 x 11811 matrix"):
        qkneser_framework(2, 7, 3)


@pytest.mark.slow
def test_qkneser_framework_large():
    fw = qkneser_framework(2, 5, 2)
    assert fw.n == 155
    a = adjacency_matrix(fw.graph)
    assert a @ fw.gram == fw.gram * fw.tau
    assert all(sum(fw.gram[i, j] for j in range(155)) == 0 for i in range(10))


def test_rescaled():
    fw = kneser_framework(5, 2)
    half = fw.rescaled(Fraction(1, 30))
    assert half.gram[0, 0] == 1
    assert half.d == fw.d and half.tau == fw.tau
    with pytest.raises(ValueError):
        fw.rescaled(0)


def test_framework_validation():
    with pytest.raises(ValueError):
        Framework(K4, ExactMatrix([[1, 2], [2, 1]]))
    # a Gram matrix must be symmetric on both paths; floating asymmetry
    # within FACTOR_TOL is rounding
    for gram in (np.triu(np.ones((4, 4))), np.eye(4) + np.diag([1e-9] * 3, k=1)):
        with pytest.raises(ValueError, match="gram matrix must be symmetric"):
            Framework(K4, gram)
    assert Framework(K4, np.eye(4) + np.diag([1e-11] * 3, k=1)).d == 4


def test_canonical_stress_triangle():
    z = canonical_stress(from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    assert z.z == ExactMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert z.condition_psd() and z.condition_corank()


def test_canonical_stress_on_corpus():
    for g, _ in connected_graphs(max_n=5, min_n=2):
        if not least_eigenspace(g).is_exact():
            continue
        z = canonical_stress(g)
        assert z.z.nrows - rank_exact(z.z) == z.framework.d


def _on_its_kernel(g, rows):
    # z with the framework of its kernel's integer basis, which z annihilates
    # and whose rank is the corank of z
    z = ExactMatrix(rows)
    p = ExactMatrix.column_stack(nullspace(z))
    return StressMatrix(z, Framework(g, p @ p.transpose()))


def test_each_stress_condition_fails_alone():
    # A + 2I on the Petersen graph, mutated once per condition; a change to z
    # alone would also break annihilation, since every symmetric matrix on
    # the diagonal and the edges that annihilates the eigenvalue -2 space is
    # a multiple of A + 2I, so z moves with its kernel framework
    g = kneser(5, 2)
    stress = canonical_stress(g)
    rows = [[int(x) for x in stress.z.row(i)] for i in range(g.n)]
    kernel = nullspace(stress.z)
    assert stress.z == _on_its_kernel(g, rows).verify().z
    # diag(-1, 1, ..., 1) z diag(-1, 1, ..., 1): -1 on the edges at vertex 0
    flipped = [[-x if (i == 0) != (j == 0) else x for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
    # vertices 0 and 1 exchanged, which is no automorphism: the edge entries
    # move onto non-edges
    swap = [1, 0, *range(2, g.n)]
    swapped = [[rows[swap[i]][swap[j]] for j in range(g.n)] for i in range(g.n)]
    # A - I, whose eigenvalues are 2, 0 (five times) and -3 (four times)
    shifted = [[x - 3 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    # the point of vertex 0 moved off the kernel, its rank still 4
    moved = [list(v) for v in zip(*kernel)]
    moved[0][0] += 1
    moved = ExactMatrix(moved)
    # three of the four kernel vectors: rank 3 against corank 4
    fewer = ExactMatrix.column_stack(kernel[:3])
    mutants = {
        "signs": _on_its_kernel(g, flipped),
        "support": _on_its_kernel(g, swapped),
        "psd": _on_its_kernel(g, shifted),
        "annihilates": StressMatrix(stress.z, Framework(g, moved @ moved.transpose())),
        "corank": StressMatrix(stress.z, Framework(g, fewer @ fewer.transpose())),
    }
    for name, mutant in mutants.items():
        failed = [c for c in ("psd", "support", "signs", "annihilates", "corank")
                  if not getattr(mutant, f"condition_{c}")()]
        assert failed == [name]
        with pytest.raises(InternalCheckError, match=f"conditions failed: {name}$"):
            mutant.verify()


def test_stress_condition_reporting():
    fw = least_eigenvalue_framework(least_eigenspace(K4, "exact"))
    bad = StressMatrix(ExactMatrix.identity(4), fw)
    assert not bad.condition_annihilates()
    with pytest.raises(InternalCheckError):
        bad.verify()


def test_dominates_and_congruent():
    fw = least_eigenvalue_framework(least_eigenspace(K4, "exact"))
    assert congruent(fw, fw)
    assert dominates(fw, fw)
    # a framework with a strictly smaller inner product on one edge is
    # dominated but does not dominate
    rows = [[fw.gram[i, j] for j in range(4)] for i in range(4)]
    rows[0][1] -= 1
    rows[1][0] -= 1
    other = Framework(K4, ExactMatrix(rows))
    assert dominates(fw, other)
    assert not dominates(other, fw)
    assert not congruent(fw, other)
    # a diagonal change breaks comparability in both directions
    scaled = Framework(K4, fw.gram * Fraction(1, 2))
    assert not dominates(fw, scaled) and not dominates(scaled, fw)


def _symmetric_exact(rng, n, den):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-6, 6), den)
    return rows


def test_exact_tokens_and_domination_read_integer_numerators():
    # seeded Gram pairs on C5 against the Fraction reading of every entry:
    # q moves off p on few diagonal entries and on some edges, either way
    rng = random.Random(11)
    g = cycle(5)
    outcomes, dens, numerators = [], set(), set()
    for _ in range(80):
        p_rows = _symmetric_exact(rng, 5, rng.choice((1, 1, 2, 3, 4, 6, 12)))
        q_rows = [row[:] for row in p_rows]
        for i in range(5):
            for j in range(i, 5):
                odds = (1,) + (0,) * 9 if i == j else (1, 0, 0, 0, -1, -1)
                move = rng.choice(odds) * Fraction(1, rng.choice((1, 2, 3)))
                q_rows[i][j] = q_rows[j][i] = q_rows[i][j] + move
        p, q = ExactMatrix(p_rows), ExactMatrix(q_rows)
        for m in (p, q):
            assert gram_tokens(m) == [number_token(x) for x in m.entries_row_major()]
            dens.add(m.den)
            numerators |= {(x > 0) - (x < 0) for row in m.num for x in row}
        expected = all(q[i, i] == p[i, i] for i in range(5)) and all(
            q[i, j] <= p[i, j] for i, j in g.edges())
        assert dominates(Framework(g, p), Framework(g, q)) == expected
        outcomes.append(expected)
    assert 10 <= sum(outcomes) <= 70
    assert 1 in dens and len(dens) > 3 and numerators == {-1, 0, 1}


def test_exact_domination_at_equality_across_denominators():
    # C4 with 1/2 on the diagonal and 1/4 on the edges; p has 1/3 and q has
    # -1 on the non-edges, so p is over 12 and q over 4, and every edge entry
    # is at equality: 3 * 4 = 1 * 12
    g = cycle(4)

    def gram(off, edge=Fraction(1, 4)):
        return ExactMatrix([[Fraction(1, 2) if i == j else edge if g.has_edge(i, j) else off
                             for j in range(4)] for i in range(4)])

    p, q = gram(Fraction(1, 3)), gram(-1)
    assert (p.den, q.den, p.num[0][1], q.num[0][1]) == (12, 4, 3, 1)
    fp, fq = Framework(g, p), Framework(g, q)
    assert dominates(fp, fq) and dominates(fq, fp)
    above = Framework(g, gram(-1, Fraction(1, 4) + Fraction(1, 10**12)))
    assert not dominates(fp, above) and dominates(above, fp)
    assert gram_tokens(p)[:4] == ["1/2", "1/4", "1/3", "1/4"]
    assert gram_tokens(q)[:4] == ["1/2", "1/4", -1, "1/4"]


def test_float_tokens_are_the_number_token_of_each_entry():
    # compared through canonical_json, so that nan matches nan and -0.0
    # keeps its sign; the array is not symmetric, so a transposed view
    # must be read in its own row-major order
    values = np.array([[0.0, -0.0, 5e-324, 1e300], [-1e300, np.inf, -np.inf, np.nan],
                       [3.0, -7.0, 2.0**60, 0.1 + 0.2], [1 / 3, -2 / 3, 123456789012.5, 1e-7]])
    for gram in (values, values.T, values[::2, 1:], values.tolist(), np.eye(3, dtype=int)):
        expected = [number_token(float(x)) for row in gram for x in row]
        assert canonical_json(gram_tokens(gram)) == canonical_json(expected)
    tokens = canonical_json(gram_tokens(values))
    assert tokens.startswith("[0.0,-0.0,5e-324,1e+300,-1e+300,Infinity,-Infinity,NaN,3.0,")
    assert gram_tokens(values.T)[:4] == [0.0, -1e300, 3.0, 0.333333333333]


def test_results_hold_no_copy_of_their_eigenspace():
    # tau, its multiplicity and the backend are read from the eigenspace
    assert [f.name for f in dataclasses.fields(Framework)] == [
        "graph", "gram", "eigenspace", "d"]
    assert [f.name for f in dataclasses.fields(XSpaceBasis)] == ["eigenspace", "basis"]
    fw = least_eigenvalue_framework(least_eigenspace(K4, "exact"))
    xs = xspace(fw.eigenspace)
    assert xs.eigenspace is fw.eigenspace and fw.rescaled(2).eigenspace is fw.eigenspace
    assert (fw.backend, fw.tau, fw.tau_multiplicity) == ("exact", -1, 3)
    assert (xs.graph, xs.backend, xs.tau, xs.tau_multiplicity) == (K4, "exact", -1, 3)
    # equality compares the graph, tau, multiplicity and backend the
    # eigenspace certifies, not its basis
    same = LeastEigenspace(K4, fw.eigenspace.spectrum, fw.eigenspace.basis[::-1])
    assert fw == dataclasses.replace(fw, eigenspace=same)
    assert fw != dataclasses.replace(fw, eigenspace=None)
    assert xs == XSpaceBasis(same, xs.basis) == xspace(least_eigenspace(K4, "exact"))
    k5 = from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert xs.basis == xspace(least_eigenspace(k5, "exact")).basis == ()
    assert xs != xspace(least_eigenspace(k5, "exact"))
    assert xs != xspace(least_eigenspace(K4, "floating"))


def test_a_framework_needs_its_own_eigenspace_for_stress_and_domination():
    fw = least_eigenvalue_framework(least_eigenspace(K4, "exact"))
    bare = Framework(K4, fw.gram, d=fw.d)
    assert bare.backend == "exact" and bare.tau is None
    with pytest.raises(ValueError):
        canonical_stress(K4, bare)
    with pytest.raises(ValueError):
        dominated_frameworks(bare, ExactMatrix.zeros(4))
    with pytest.raises(ValueError):
        Framework(K4, fw.gram, eigenspace=least_eigenspace(K4, "floating"))
    with pytest.raises(ValueError):
        Framework(K4, fw.gram, eigenspace=least_eigenvalue_framework(cycle(4)).eigenspace)


def test_canonical_stress_refuses_a_framework_of_another_graph():
    c4 = least_eigenvalue_framework(cycle(4))
    assert canonical_stress(cycle(4), c4).z == c4.eigenspace.shifted
    with pytest.raises(ValueError, match="framework belongs to another graph"):
        canonical_stress(K4, c4)
