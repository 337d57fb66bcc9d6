"""Exact linear algebra: elimination, spectra, PSD certificates.

The fast nullspace (one elimination modulo a prime, its kernel lifted by
rational reconstruction) and the plain elimination of every row are
independent routes to the same echelon basis, so they are run against each
other on randomized inputs throughout.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corpus import atlas_graphs, benchmark_ops, connected_graphs
import eigenframe.exact as exact_mod
from eigenframe.exact import (
    ExactMatrix,
    adjacency_matrix,
    cayley_spectrum,
    invert,
    is_psd_exact,
    least_eigenspace,
    nullspace,
    nullspace_mod_p,
    projector_onto_nullspace,
    psd_rank_pivot,
    rank_exact,
)
from eigenframe.errors import InternalCheckError, UnsupportedInputError
from eigenframe.graphs import (
    CayleySpec,
    cayley_z2,
    complement,
    cycle,
    from_edges,
    kneser,
    q_kneser,
)
from eigenframe.modular import (
    _echelon_mod_p,
    _rational_reconstruction,
    _subspaces_mod_q,
    gaussian_binomial,
    gf2_rank,
    gf2_span,
    kernel_mod_p,
)
from oracles import exact_spectrum


P = 2_147_483_647  # the default prime of the elimination modulo p


def _random_int_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_exact_matrix_arithmetic():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a + b) == ExactMatrix([[1, 3], [4, 4]])
    assert (a - b) == ExactMatrix([[1, 1], [2, 4]])
    assert (a * Fraction(1, 2)) == ExactMatrix([["1/2", 1], ["3/2", 2]])
    assert (a @ b) == ExactMatrix([[2, 1], [4, 3]])
    assert a.transpose() == ExactMatrix([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert a[1, 0] == 3
    assert not a.is_symmetric() and b.is_symmetric()
    assert ExactMatrix.zeros(2, 3).is_zero()
    assert ExactMatrix.identity(3).trace() == 3


def _random_fraction_rows(rng, nrows, ncols):
    return [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _fraction_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_exact_matrix_matches_fraction_arithmetic():
    rng = random.Random(59)
    for _ in range(40):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _random_fraction_rows(rng, n, k), _random_fraction_rows(rng, n, k)
        c = _random_fraction_rows(rng, k, m)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        ea, eb, ec = ExactMatrix(a), ExactMatrix(b), ExactMatrix(c)
        assert ea.entries_row_major() == [x for row in a for x in row]
        assert all(ea.row(i) == tuple(a[i]) for i in range(n))
        assert all(ea[i, j] == a[i][j] for i in range(n) for j in range(k))
        pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
        assert (ea + eb).entries_row_major() == [x + y for x, y in pairs]
        assert (ea - eb).entries_row_major() == [x - y for x, y in pairs]
        assert (ea * s).entries_row_major() == [x * s for row in a for x in row]
        assert (ea @ ec).entries_row_major() == [x for row in _fraction_product(a, c) for x in row]
        assert ea.transpose().entries_row_major() == [x for col in zip(*a) for x in col]
        assert (ea @ ea.transpose()).is_symmetric()
        assert ea.submatrix([n - 1, 0], [0]) == ExactMatrix([[a[n - 1][0]], [a[0][0]]])
        assert ea.trace() == sum(a[i][i] for i in range(min(n, k)))
        assert ea.is_symmetric() == (n == k and a == [list(col) for col in zip(*a)])
        assert ea.to_float().tolist() == [[float(x) for x in row] for row in a]
        # equality and hashing see values, not how they were reached
        rebuilt = ExactMatrix([[str(x) for x in row] for row in a]) * s
        assert rebuilt == ea * s and hash(rebuilt) == hash(ea * s)
        assert (ea - ea) == ExactMatrix.zeros(n, k) and (ea - ea).is_zero()
        assert hash(ea - ea) == hash(ExactMatrix.zeros(n, k))
    with pytest.raises(TypeError):
        ExactMatrix([[0.5]])


def test_exact_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_rank_against_numpy():
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_int_matrix(rng, nrows, ncols)
        m = ExactMatrix(rows)
        assert rank_exact(m) == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_rank_of_constructed_deficiency():
    # third row is the sum of the first two
    m = ExactMatrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    assert rank_exact(m) == 2


def test_nullspace_is_a_kernel_basis():
    rng = random.Random(23)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix(_random_int_matrix(rng, nrows, ncols))
        basis = nullspace(m)
        assert len(basis) == ncols - rank_exact(m)
        for v in basis:
            col = ExactMatrix([[x] for x in v])
            assert (m @ col).is_zero()
        if basis:
            stacked = ExactMatrix([list(v) for v in basis])
            assert rank_exact(stacked) == len(basis)


def test_fast_nullspace_agrees_with_plain_elimination():
    rng = random.Random(37)
    for _ in range(30):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
        rows = _random_int_matrix(rng, nrows, ncols, -9, 9)
        for _ in range(rng.randint(0, 3)):  # rank deficiency, one per combination
            a, b = rng.sample(rows, 2)
            rows.append([x - 2 * y for x, y in zip(a, b)])
        assert nullspace_mod_p(rows) == nullspace(ExactMatrix(rows))


def test_fast_nullspace_with_large_entries(monkeypatch):
    # rows L [I | T] for an invertible L with entries up to 10^6: the kernel
    # is that of [I | T], small enough to lift with no fallback
    rng = random.Random(47)
    t = _random_int_matrix(rng, 12, 3, -3, 3)
    s = [[int(i == j) for j in range(12)] + t[i] for i in range(12)]
    while True:
        left = _random_int_matrix(rng, 12, 12, -10**6, 10**6)
        if rank_exact(left) == 12:
            break
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*s)] for row in left]
    plain = _record_results(monkeypatch, "nullspace")
    basis = nullspace_mod_p(rows)
    assert plain == [] and len(basis) == 3
    assert basis == nullspace(ExactMatrix(rows))


def _record_results(monkeypatch, name):
    """Results of every call to exact.<name> made through the module."""
    results = []
    original = getattr(exact_mod, name)

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(exact_mod, name, recorded)
    return results


def test_fast_nullspace_with_entries_beyond_a_word():
    # entries >= 2^20 and a dependent row
    rng = random.Random(53)
    rows = _random_int_matrix(rng, 6, 9, -(1 << 22), 1 << 22)
    rows.append([a - b for a, b in zip(rows[0], rows[1])])
    assert max(abs(x) for row in rows for x in row) >= 1 << 20
    fast = nullspace_mod_p(rows)
    assert len(fast) == 3
    assert fast == nullspace(ExactMatrix(rows))


def test_modular_nullspace_agrees_with_plain_elimination(monkeypatch):
    # seeded inputs, and two where the prime divides an entry, through one
    # elimination modulo p: every route is taken
    rng = random.Random(31)
    inputs = []
    for trial in range(30):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        rows = _random_int_matrix(rng, nrows, ncols, -9, 9)
        if trial % 3 == 0:  # force rank deficiency
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        inputs.append(rows)
    inputs += [[[P, 0, 1], [0, 1, 0]], [[P, 1, 0, 1], [0, 0, 1, 1]]]
    routes = []
    for rows in inputs:
        plain = _record_results(monkeypatch, "nullspace")
        candidates = kernel_mod_p(rows)
        assert nullspace_mod_p(rows) == nullspace(ExactMatrix(rows))
        if candidates is None:
            routes.append("no lift")
        elif plain:
            routes.append("candidate fails")
        else:
            routes.append("lifted" if candidates else "full rank")
        assert len(plain) == (routes[-1] in ("no lift", "candidate fails"))
        monkeypatch.undo()
    assert {r: routes.count(r) for r in set(routes)} == {
        "full rank": 18, "lifted": 9, "no lift": 3, "candidate fails": 2}


def test_kernel_entries_beyond_the_lift_bound_fall_back_to_nullspace(monkeypatch):
    # a 12 x 15 matrix with entries up to 10^6: kernel entries are ratios of
    # 12 x 12 minors, far beyond isqrt(P // 2)
    rng = random.Random(47)
    rows = _random_int_matrix(rng, 12, 15, -10**6, 10**6)
    assert kernel_mod_p(rows) is None
    plain = _record_results(monkeypatch, "nullspace")
    basis = nullspace_mod_p(rows)
    assert plain == [basis]
    assert basis == nullspace(ExactMatrix(rows))


def test_a_kernel_candidate_that_fails_verification_falls_back(monkeypatch):
    # [P] is zero modulo P, so e_1 is a candidate, and no kernel vector
    assert kernel_mod_p([[P]]) == ((1,),)
    plain = _record_results(monkeypatch, "nullspace")
    assert nullspace_mod_p([[P]]) == nullspace(ExactMatrix([[P]])) == ()
    assert plain == [()]


def test_rational_reconstruction_at_the_bound():
    b = math.isqrt(P // 2)
    assert b == 32767 and 2 * b * b < P
    for num, den in ((b, b - 1), (-b, b - 1), (b - 1, b), (1 - b, b), (-b, 1), (0, 1)):
        assert _rational_reconstruction(num * pow(den, -1, P) % P, P) == (num, den)
    # b + 1 = num / den (mod P) for no |num|, den <= b
    assert not any(abs((b + 1) * d % P - P * ((b + 1) * d % P > P // 2)) <= b
                   for d in range(1, b + 1))
    assert _rational_reconstruction(b + 1, P) is None


def test_entries_beyond_int64_are_reduced_as_python_ints():
    # numpy refuses these entries, so the elimination reduces them one by one
    big = 2**64 + 1
    with pytest.raises(OverflowError):
        np.array([[big]], dtype=np.int64)
    rows = [[big, -big, 0], [0, 1, -1]]
    assert nullspace_mod_p(rows) == nullspace(ExactMatrix(rows)) == ((1, 1, 1),)
    assert _echelon_mod_p([[P << 40, 1], [1, 0]], P)[1] == [0, 1]


def test_fast_nullspace_falls_back_when_rank_drops_mod_p(monkeypatch):
    # rank 1 modulo p against 2 over the rationals, so the candidate e_1
    # fails verification and every row is eliminated
    rows = [[P, 0], [0, 1]]
    assert kernel_mod_p(rows) == ((1, 0),)
    plain = _record_results(monkeypatch, "nullspace")
    assert nullspace_mod_p(rows) == () == nullspace(ExactMatrix(rows))
    assert plain == [()]


def test_invert():
    a = ExactMatrix([[2, 1], [1, 1]])
    assert a @ invert(a) == ExactMatrix.identity(2)
    b = ExactMatrix([["1/2", "2/3"], [3, "-5/7"]])
    assert invert(b) @ b == ExactMatrix.identity(2) == b @ invert(b)
    with pytest.raises(ValueError):
        invert(ExactMatrix([[1, 2], [2, 4]]))
    rng = random.Random(61)  # pivots of either sign, fractional entries
    for _ in range(30):
        n = rng.randint(1, 5)
        m = ExactMatrix(_random_fraction_rows(rng, n, n))
        if rank_exact(m) == n:
            assert m @ invert(m) == ExactMatrix.identity(n) == invert(m) @ m


def test_invert_matrix_singular_mod_p():
    inv = invert(ExactMatrix([[P, 0], [0, 1]]))
    assert inv == ExactMatrix([[Fraction(1, P), 0], [0, 1]])


def test_projector_onto_nullspace():
    m = ExactMatrix([[1, 1, 0], [0, 0, 0]])
    p = projector_onto_nullspace(m)
    assert p @ p == p
    assert (m @ p).is_zero()
    assert p.is_symmetric()
    assert p.trace() == 3 - rank_exact(m)


def test_projector_refuses_an_inverse_that_fails_its_check(monkeypatch):
    # the d x d check (B^T B) C = I is the projector's only proof, so a
    # wrong C is caught there, before any n x n product
    real = exact_mod.invert

    def perturbed(m):
        c = real(m)
        bump = [[Fraction(1, 7) * (i == j == 0) for j in range(c.ncols)] for i in range(c.nrows)]
        return c + ExactMatrix(bump)

    monkeypatch.setattr(exact_mod, "invert", perturbed)
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    for m in (ExactMatrix([[1, 1, 0], [0, 0, 0]]), least_eigenspace(k4, "exact")):
        with pytest.raises(InternalCheckError, match="inverse of the basis Gram matrix"):
            projector_onto_nullspace(m)


def test_psd_certificates_against_numpy():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 6)
        b = np.array(_random_int_matrix(rng, n, rng.randint(1, n)), dtype=object)
        gram = (b @ b.T).tolist()
        if rng.random() < 0.5:
            k = rng.randrange(n)
            gram[k][k] -= rng.randint(1, 4)  # usually breaks semidefiniteness
        m = ExactMatrix(gram)
        eigs = np.linalg.eigvalsh(m.to_float())
        truly_psd = bool(eigs.min() > -1e-9)
        assert is_psd_exact(m) == truly_psd
        kind, pivots = psd_rank_pivot([[int(x) for x in row] for row in gram])
        assert (kind in ("psd", "pd")) == truly_psd
        if kind in ("psd", "pd"):
            assert len(pivots) == np.linalg.matrix_rank(m.to_float())


def test_integer_least_eigenvalue_on_corpus():
    # the integer bracket, which trusts no floating point, against eigvalsh
    for g, _ in connected_graphs(max_n=6, min_n=2):
        a = adjacency_matrix(g)
        found = exact_mod._integer_bracket(a.num)
        vals = sorted(np.linalg.eigvalsh(a.to_float()))
        float_min = float(vals[0])
        if found is None:
            assert abs(float_min - round(float_min)) > 1e-9
        else:
            tau, basis = found
            assert type(tau) is int and abs(tau - float_min) < 1e-9
            # exact multiplicity must match the floating cluster at tau
            assert len(basis) == sum(1 for v in vals if abs(v - float_min) < 1e-7)
            assert a @ ExactMatrix.column_stack(basis) == ExactMatrix.column_stack(basis) * tau


def test_least_eigenspace_backends():
    pet = kneser(5, 2)
    s = least_eigenspace(pet, "exact").spectrum
    assert exact_spectrum(pet) == ((Fraction(-2), 4), (Fraction(1), 5), (Fraction(3), 1))
    assert s.pairs[0] == (s.tau, s.tau_multiplicity) == (Fraction(-2), 4)
    with pytest.raises(UnsupportedInputError):
        least_eigenspace(cycle(5), "exact")
    f = least_eigenspace(cycle(5), "floating").spectrum
    assert f.backend == "floating"
    assert abs(f.tau - 2 * np.cos(4 * np.pi / 5)) < 1e-9
    assert f.tau_multiplicity == 2
    assert f.pairs[0][1] == exact_spectrum(cycle(5))[0][1]
    auto = least_eigenspace(cycle(5), "auto").spectrum
    assert auto.backend == "floating"


def test_cayley_spectrum_against_dense_route():
    # every connection set on up to 4 group generators, both spectra
    for n in range(1, 5):
        rng = random.Random(n)
        all_sets = [s for s in range(1, 1 << ((1 << n) - 1))]
        for mask in rng.sample(all_sets, min(40, len(all_sets))):
            conn = tuple(i + 1 for i in range((1 << n) - 1) if mask >> i & 1)
            if not conn:
                continue
            spec = CayleySpec(n, conn)
            cs, g = cayley_spectrum(spec), cayley_z2(spec)
            assert cs.spectrum.pairs == exact_spectrum(g)
            assert least_eigenspace(g, "exact").spectrum.pairs[0] == cs.spectrum.pairs[0]
            # character vectors are actual eigenvectors for tau
            assert cs.graph == g
            a = adjacency_matrix(g)
            chars = [[(-1) ** (x & u).bit_count() for x in range(g.n)] for u in cs.tau_elements]
            v = ExactMatrix.column_stack(chars)
            assert a @ v == v * cs.spectrum.tau


def _count_pivot_passes(monkeypatch):
    """Sizes of the symmetric pivot passes (psd_rank_pivot) and of the integer
    bracket searches made from here on."""
    sizes, brackets = [], []
    real_pivot, real_bracket = exact_mod.psd_rank_pivot, exact_mod._integer_bracket

    def counted_pivot(m):
        sizes.append(len(m))
        return real_pivot(m)

    def counted_bracket(rows):
        brackets.append(len(rows))
        return real_bracket(rows)

    monkeypatch.setattr(exact_mod, "psd_rank_pivot", counted_pivot)
    monkeypatch.setattr(exact_mod, "_integer_bracket", counted_bracket)
    return sizes, brackets


def _floating_benchmark_graphs():
    ops = benchmark_ops("floating")
    return [from_edges(n, edges) for n, edges in dict.fromkeys((op.n, op.edges) for op in ops)]


@pytest.mark.parametrize(
    "g,backend,passes,brackets",
    [
        (kneser(7, 2), "auto", 1, 0),
        (kneser(5, 2), "auto", 1, 0),
        (complement(kneser(6, 2)), "auto", 1, 0),  # T(6)
        (cayley_z2(CayleySpec(5, (1, 2, 4, 8, 16, 31))), "auto", 1, 0),
        (cycle(7), "auto", 0, 0),
        (None, "auto", 0, 0),  # the first seed-1 G(20, 0.2) floating benchmark input
        # the exact backend proves -1.618 is not an integer by the bracket:
        # A + I indefinite, then A + 2I definite
        (cycle(5), "exact", 2, 1),
    ],
    ids=["kneser7_2", "petersen", "t6", "cayley5", "cycle7", "gnp20", "cycle5_exact"],
)
def test_least_eigenspace_verifies_its_eigh_guess_in_few_passes(
    monkeypatch, g, backend, passes, brackets
):
    if g is None:
        g = _floating_benchmark_graphs()[0]
    sizes, searches = _count_pivot_passes(monkeypatch)
    if backend == "exact":
        with pytest.raises(UnsupportedInputError):
            least_eigenspace(g, backend)
    else:
        least_eigenspace(g, backend)
    assert sizes == [g.n] * passes
    assert searches == [g.n] * brackets


def test_a_refuted_eigh_guess_falls_back_to_the_bracket(monkeypatch):
    petersen = kneser(5, 2)
    expected = least_eigenspace(petersen)
    _, brackets = _count_pivot_passes(monkeypatch)
    # C5's least eigh value -1.618 is far from every integer, so the exact
    # backend runs the integer search and refuses
    with pytest.raises(UnsupportedInputError) as err:
        least_eigenspace(cycle(5), "exact")
    assert str(err.value) == "exact backend unavailable: least eigenvalue is not an integer"
    assert brackets == [5]
    real_eigh = np.linalg.eigh

    def lying_eigh(arr):
        vals, vecs = real_eigh(arr)
        return np.concatenate([[vals[0] - 1], vals[1:]]), vecs

    monkeypatch.setattr(np.linalg, "eigh", lying_eigh)
    # -3 is guessed, A + 3I is positive definite, the bracket finds -2 and
    # reads the same basis off its own probe
    brackets.clear()
    les = least_eigenspace(petersen)
    assert les.spectrum == expected.spectrum
    assert les.basis == expected.basis == nullspace(les.shifted)
    assert brackets == [10]


def test_least_eigenspace_agrees_with_the_bracket_and_the_floating_route():
    # the integer bracket certifies without any eigh guess, and its hit
    # gives the same basis as the pass at the guess
    for g, _ in atlas_graphs():
        les, found = least_eigenspace(g), exact_mod._integer_bracket(adjacency_matrix(g).num)
        s = les.spectrum
        if found is None:
            f = least_eigenspace(g, "floating").spectrum
            assert (s.backend, s.tau, s.tau_multiplicity) == ("floating", f.tau, f.tau_multiplicity)
        else:
            assert (s.backend, s.tau, s.tau_multiplicity) == ("exact", found[0], len(found[1]))
            assert les.basis == found[1]
    # the auto floating route is the floating backend's, bit for bit
    graphs = _floating_benchmark_graphs()
    assert len(graphs) == 14
    for g in graphs:
        les, floating = least_eigenspace(g), least_eigenspace(g, "floating")
        assert les.spectrum == floating.spectrum
        assert np.array_equal(les.basis, floating.basis)


def _integer_tau_graphs():
    graphs = [g for g, _ in atlas_graphs() if least_eigenspace(g).is_exact()]
    return graphs + [kneser(7, 2), kneser(8, 3), q_kneser(2, 4, 2)]


def test_the_pass_that_proves_tau_gives_the_bareiss_basis():
    # Bareiss (nullspace, with row swaps) is the reference: on a PSD matrix
    # the symmetric pass pivots on the same columns, so the primitive
    # echelon bases agree vector for vector
    graphs = _integer_tau_graphs()
    assert len(graphs) == 231
    for g in graphs:
        les = least_eigenspace(g)
        assert les.is_exact() and len(les.basis) == les.spectrum.tau_multiplicity
        assert les.basis == nullspace(les.shifted), g.nbr


def test_a_wrong_eigenspace_vector_is_refused(monkeypatch):
    # the basis the pass reads off is checked against A - tau I, so a wrong
    # back substitution cannot reach a certificate
    def wrong(rows, pivots, free_col, ncols):
        return [1] * ncols

    monkeypatch.setattr(exact_mod, "_back_substitute", wrong)
    with pytest.raises(InternalCheckError):
        least_eigenspace(kneser(5, 2))


def test_floating_eigenspace_orthonormal():
    les = least_eigenspace(kneser(5, 2), "floating")
    b = les.basis
    assert b.shape == (10, 4)
    assert np.allclose(b.T @ b, np.eye(4), atol=1e-9)


def test_floating_eigenspace_needs_a_graph():
    # an eigenspace of a bare matrix would have no graph to form A - tau I
    # from, on any backend
    a = adjacency_matrix(kneser(5, 2))
    for bare in (a, a.to_float()):
        for backend in ("floating", "exact", "auto"):
            with pytest.raises(TypeError):
                least_eigenspace(bare, backend)


def test_gf2_rank_and_span():
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([1, 2, 3]) == 2
    assert gf2_rank([]) == 0
    assert gf2_span([1, 2]) == {0, 1, 2, 3}
    assert len(gf2_span([1, 2, 4])) == 8


def test_rank_mod_p_lower_bounds_rational_rank():
    rng = random.Random(41)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_int_matrix(rng, nrows, ncols)
        exact = rank_exact(ExactMatrix(rows))
        echelon, pcols = _echelon_mod_p(rows, P)
        modular = len(pcols)
        assert modular <= exact
        assert modular == exact  # generic small entries never hit the prime
        assert len(echelon) == modular
    # a matrix that genuinely drops rank modulo the chosen prime
    assert _echelon_mod_p([[2_147_483_647]], P)[1] == []
    assert rank_exact(ExactMatrix([[2_147_483_647]])) == 1


def test_gaussian_binomials():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(4, 2, 3) == 130
    assert len(list(_subspaces_mod_q(2, 3, 1))) == 7
    assert len(list(_subspaces_mod_q(2, 4, 2))) == 35
