"""Universal completability of least-eigenvalue frameworks.

The decision reduces to a linear system: a symmetric matrix X that vanishes
on closed neighborhoods (diagonal and edges) and satisfies (A - tau I)X = 0
witnesses a non-congruent dominated framework, and the framework is
universally completable exactly when no nonzero such X exists.

Both paths decide the dimension in the paper's reduced space X = B R B^T
(B a basis of ker(A - tau I), R symmetric d x d): n + |E| equations in
d(d+1)/2 unknowns. On the exact path B is an integer basis; unknowns that
a row with one nonzero forces to zero are dropped first, and on the rest,
full column rank modulo a word-size prime certifies dimension zero, and
kernel vectors are otherwise lifted from that same elimination; each is
proved by its X, whose entries on the diagonal and the edges are the
system's rows applied to it. On the floating path B is the orthonormal eigh
basis, and the least singular value of the same system bounds the margin of
the n^2 x |E(complement)| complement-edge system from below; only when that
bound is too small to prove full rank do its rank and null vectors decide.
The reported margin, the smallest-to-largest singular value ratio of the
complement-edge system, is read from that system's Gram matrix when first
asked for; the system itself is never built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError
from .exact import (
    ExactMatrix,
    LeastEigenspace,
    _eigenspace_of,
    nullspace,
    psd_rank_pivot,
    rank_exact,
)
from .frameworks import Framework, _checked_scale
from .graphs import Graph, check_budget, maximal_cliques
from .modular import kernel_mod_p

SV_THRESHOLD = 1e-7
NEIGHBORHOOD_MARGIN = 1e-6


@dataclass(frozen=True)
class XSpaceBasis:
    """Basis of the space of symmetric completability witnesses.

    Every element vanishes on the diagonal and on edges and is annihilated
    by the shifted adjacency matrix; dimension zero is exactly universal
    completability of the least-eigenvalue framework. eigenspace is the
    certified LeastEigenspace the basis was solved on; graph, tau, backend
    and tau_multiplicity are read from it.
    """

    eigenspace: LeastEigenspace
    basis: tuple

    @property
    def graph(self) -> Graph:
        return self.eigenspace.graph

    @property
    def tau(self):
        tau = self.eigenspace.spectrum.tau
        return tau if self.eigenspace.is_exact() else float(tau)

    @property
    def backend(self) -> str:
        return self.eigenspace.spectrum.backend

    @property
    def tau_multiplicity(self) -> int:
        return self.eigenspace.spectrum.tau_multiplicity

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def sv_margin(self) -> float | None:
        """Floating path only (else None): the smallest-to-largest singular
        value ratio of the complement-edge system M on the eigenspace; None
        without complement pairs, 0.0 when dim > 0. Read on first use from
        the Gram matrix M^T M (_complement_gram), after check_budget:
        sigma_max^2 is its largest eigenvalue, and sigma_min is
        ||M v|| / ||v|| = ||(A - tau I) X||_F / ||v|| for v from one inverse
        iteration step, shifted |pairs| eps lambda_max below lambda_min. That
        keeps an SVD's relative error of about eps / margin, where
        sqrt(lambda_min) has eps / margin^2: enough to move a reported digit."""
        if self.backend != "floating":
            return None
        if self.dim:
            return 0.0
        pairs = _complement_pairs(self.graph)
        if not pairs:
            return None
        check_budget(len(pairs) ** 2, f"a {len(pairs)} x {len(pairs)} system")
        shifted = self.eigenspace.shifted
        k, j = np.array(pairs).T
        gram = _complement_gram(shifted, k, j)
        w = np.linalg.eigvalsh(gram)
        gram[np.diag_indices_from(gram)] -= w[0] - len(pairs) * np.finfo(float).eps * w[-1]
        v = np.linalg.solve(gram, np.sin(np.arange(1.0, len(pairs) + 1)))  # any generic start
        x = np.zeros_like(shifted)
        x[k, j] = x[j, k] = v
        return float(np.linalg.norm(shifted @ x) / np.linalg.norm(v) / math.sqrt(w[-1]))


def _complement_pairs(g: Graph):
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)]


def _closed_pairs(g: Graph):
    return [(i, i) for i in range(g.n)] + list(g.edges())


def _complement_gram(shifted, k, j):
    """The Gram matrix M^T M of the floating complement-edge system M over
    the pairs (k[t], j[t]), k < j. Column (k, j) of M is vec((A - tau I) X)
    with X = e_k e_j^T + e_j e_k^T, so with T = (A - tau I)^2 the entry at
    (k, j), (k', j') is T_jk'[k = j'] + T_jj'[k = k'] + T_kk'[j = j'] +
    T_kj'[j = k']; M itself, n^2 rows, is never built.

    Built by vertex blocks: the pairs through vertex v, with o their other
    ends, add T[o, o'] on their block, which is the one term above that
    names v. Two distinct pairs share at most one vertex, so each of their
    entries receives one term, added to the 0.0 the matrix starts from; a
    diagonal entry receives T_jj at v = k and then T_kk at v = j, the order
    the four-term sum adds them in. So every entry, signed zeros included,
    has the same bits as the four-term sum taken term by term."""
    t = shifted @ shifted
    gram = np.zeros((len(k), len(k)))
    for v in range(len(t)):
        p = np.nonzero((k == v) | (j == v))[0]
        o = k[p] + j[p] - v
        gram[np.ix_(p, p)] += t[np.ix_(o, o)]
    return gram


def _rspace_rows(les):
    """The R-system, one array, and its unknowns, the upper triangle (a, c)
    of R.

    X_ij = p_i^T R p_j, with p_i row i of the eigenspace basis B, is one
    linear form in the upper triangle of R: p_ia p_jc + p_ic p_ja, the cross
    term 0 at a = c. Its forms on the diagonal and on edges are the n + |E|
    rows. Exact: int64 when 2 max|B|^2 < 2^63 bounds every entry, else
    Python ints (object dtype). Floating: float64, so each entry at a = c is
    p_ia p_ja + 0.0."""
    d = les.spectrum.tau_multiplicity
    tri = [(a, c) for a in range(d) for c in range(a, d)]
    closed = _closed_pairs(les.graph)
    check_budget(len(closed) * len(tri), f"a {len(closed)} x {len(tri)} system")
    if les.is_exact():
        top = max(abs(v) for col in les.basis for v in col)
        p = np.array(les.basis, dtype=np.int64 if 2 * top * top < 1 << 63 else object).T
    else:
        p = les.basis
    i, j = np.array(closed).T[:, :, None]
    a, c = np.array(tri).T
    rows = p[i, a]
    rows *= p[j, c]
    cross = p[i, c]
    cross *= p[j, a]
    cross[:, a == c] = 0
    rows += cross
    return rows, tri


def _rspace_svd(les):
    """The singular values, zero-padded to one per unknown, and the right
    singular vectors of the floating R-system (_rspace_rows), and its
    unknowns; u is never larger than the system."""
    rows, tri = _rspace_rows(les)
    _, svals, vh = np.linalg.svd(rows, full_matrices=len(rows) < len(tri))
    return np.pad(svals, (0, len(tri) - len(svals))), vh, tri


def _rspace_margin_bound(les, s) -> float:
    """A lower bound on the margin of the floating complement-edge system M,
    from the least singular value s of the R-system on the orthonormal eigh
    basis B (_rspace_svd); 0.0 when s = 0 or no spectral gap separates tau.

    With g = lambda_{d+1} - tau and r = max_k |lambda_k - tau|, the margin
    sigma_min(M) / sigma_max(M) is at least g s / (sqrt2 r (2 + sqrt2 s)).
    Take X symmetric and zero on closed pairs (x its complement entries),
    Q = I - BB^T and E = QX. Outside col(B), A - tau I scales by at least g
    and stays orthogonal to col(B), so ||(A - tau I)X|| >= g ||E||. With
    R = B^T X B, X - B R B^T = QX + BB^T XQ has norm <= 2||E|| and equals
    -B R B^T on closed pairs, so ||R||_F <= sqrt2 ||r|| <= 2 sqrt2 ||E|| / s
    (r the upper triangle of R) and ||X||_F <= ||R||_F + 2||E||. Finally
    ||Mx|| = ||(A - tau I)X||_F, ||x|| = ||X||_F / sqrt2 and sigma_max(M) <=
    sqrt2 r. Cluster members sit up to tol apart, so g and r are widened by
    the spread of their clusters.
    """
    spectrum = les.spectrum
    if len(spectrum.pairs) < 2:
        return 0.0
    (above, m_above), (top, m_top) = spectrum.pairs[1], spectrum.pairs[-1]
    gap = above - (m_above - 1) * spectrum.tolerance - spectrum.tau
    if gap <= 0.0:
        return 0.0
    radius = top + (m_top - 1) * spectrum.tolerance - spectrum.tau
    return float(gap * s / (math.sqrt(2) * radius * (2 + math.sqrt(2) * s)))


def _symmetric(tri, vec, d):
    """The d x d symmetric matrix, as rows, with upper triangle vec on tri."""
    r = [[0] * d for _ in range(d)]
    for (a, c), v in zip(tri, vec):
        r[a][c] = r[c][a] = v
    return r


def _live_block(rows):
    """The unknowns of an integer system that no singleton row forces to 0,
    and the system on them: those columns, on the rows nonzero there.

    A row with exactly one nonzero among the live columns forces that
    unknown to 0 in every kernel vector: its column is dropped, and the rows
    are counted again until none is a singleton. Nonzero is tested on the
    integers, not modulo a prime. In the R-system the row of a free vertex
    f_a's diagonal is c_a^2 R_aa, and that of an edge between free vertices
    f_a, f_b is c_a c_b R_ab: singletons from the start."""
    nonzero = rows != 0
    live = np.ones(rows.shape[1], dtype=bool)
    while True:
        counts = np.count_nonzero(nonzero, axis=1)
        single = counts == 1
        if not np.count_nonzero(single):
            break
        forced = nonzero[single].argmax(axis=1)
        live[forced] = nonzero[:, forced] = False
    cols = np.flatnonzero(live)
    return cols.tolist(), rows[np.ix_(counts > 0, cols)]


def _exact_basis(les):
    """X = B R B^T, divided to a primitive integer matrix, for each echelon
    kernel vector R of the R-system (_rspace_rows), read as a symmetric R.

    kernel_mod_p eliminates the live block (_live_block) once modulo a
    word-size prime and lifts one candidate per free column, padded with 0
    at the forced columns. The rows are X's entries on the diagonal and the
    edges, so X vanishing there (_vanishes_on_closed_pairs) proves the
    candidate a kernel vector of the whole system. If all pass, they are the
    echelon basis nullspace returns on all rows, whatever the prime. Let K
    be the rational kernel and K_f its vectors that are 0 past column f.
    Every vector of K is 0 at a forced column, so dim K_f never rises at
    one, and K is the live block's kernel padded with zeros. Each candidate
    is nonzero at its free column and 0 at the other free columns and at the
    forced ones, so they are independent, and there are
    live - rank_p >= dim K of them: they are a basis of K. The candidate of
    free column f lies in K_f and not in K_(f-1), so dim K_f rises at each
    of these dim K columns, and so only there: they are the free columns of
    the whole system over the rationals too. A vector of K that is 0 at
    every free column is 0, so the vector of K_f that is 0 at the other free
    columns is unique up to scale; the candidate and the Bareiss vector are
    both it, primitive and positive at f. Full rank of the block modulo the
    prime leaves no candidate: the kernel is trivial, and B is never built.
    If some entry has no lift or some X fails, nullspace eliminates all rows
    instead.
    """
    rows, tri = _rspace_rows(les)
    cols, block = _live_block(rows)

    def lift(unknowns, vecs):
        rs = [ExactMatrix._from_ints(_symmetric(unknowns, v, len(les.basis))) for v in vecs]
        return _brbt(les, rs)

    candidates = kernel_mod_p(block)
    xs = lift([tri[t] for t in cols], candidates) if candidates else []
    if candidates is None or not all(_vanishes_on_closed_pairs(les, x) for x in xs):
        xs = lift(tri, nullspace(rows.tolist()))
    basis = []
    for x in xs:
        g = math.gcd(*(v for row in x.num for v in row))
        basis.append(ExactMatrix._from_ints([[v // g for v in row] for row in x.num]))
    return tuple(basis)


def xspace(g) -> XSpaceBasis:
    """Solve for all symmetric X with (A+I) o X = 0 and (A - tau I) X = 0.

    g is a Graph, certified here, or its LeastEigenspace, whose backend
    decides the path. Exact path: the basis is the echelon basis over
    complement-edge unknowns, one matrix per free complement pair: B R B^T
    for each echelon kernel vector R of the R-system (_exact_basis). Each is
    a witness with no n x n product: X = B R B^T is symmetric with R,
    vanishes on the closed pairs, as _exact_basis proved, and
    (A - tau I) X = (A - tau I) B R B^T = 0, as the pass that certified tau
    verified (A - tau I) B = 0. Column a of B ends at its free
    vertex f_a, where row f_a of B is a positive multiple of e_a, so X and R
    share their last nonzero entry and this is the echelon basis of the
    complement-pair system. Floating path: the
    dimension is zero when the R-system on the orthonormal eigh basis bounds
    the complement-pair system's margin by ten times SV_THRESHOLD
    (_rspace_margin_bound), the answer that system's rank test would give.
    Otherwise the same SVD of the R-system decides: its singular values at
    most SV_THRESHOLD times the largest count the dimension, and phi of their
    right singular vectors, each scaled to unit norm over the complement
    pairs, are the basis. A system over the byte budget (check_budget)
    raises ResourceLimitError before it is built.
    """
    les = _eigenspace_of(g)
    pairs = _complement_pairs(les.graph)
    if not pairs:
        return XSpaceBasis(les, ())
    if les.is_exact():
        return XSpaceBasis(les, _exact_basis(les))

    svals, vh, tri = _rspace_svd(les)
    if _rspace_margin_bound(les, svals[-1]) > 10 * SV_THRESHOLD:  # slack for rounding
        return XSpaceBasis(les, ())
    k, j = np.array(pairs).T
    null = vh[int(np.sum(svals > SV_THRESHOLD * svals[0])):]
    mult = les.spectrum.tau_multiplicity
    xs = [phi(np.array(_symmetric(tri, vec, mult)), les) for vec in null]
    return XSpaceBasis(les, tuple(x / np.linalg.norm(x[k, j]) for x in xs))


@dataclass(frozen=True)
class UCVerdict:
    uc: bool
    witness: XSpaceBasis


def is_universally_completable(g) -> UCVerdict:
    """Universal completability of the least-eigenvalue framework of a Graph
    or of its LeastEigenspace.

    True exactly when the witness space is trivial; the basis is carried
    along as the certificate either way.
    """
    xs = xspace(_eigenspace_of(g))
    return UCVerdict(xs.dim == 0, xs)


# -- the bijection with the reduced space -------------------------------------


def _vanishes_on_closed_pairs(les, x) -> bool:
    """Whether x is zero on the diagonal and the edges of les's graph:
    exactly for an ExactMatrix, else within the eigenspace's tolerance."""
    pairs = _closed_pairs(les.graph)
    if isinstance(x, ExactMatrix):
        return not any(x.num[i][j] for i, j in pairs)
    return not any(abs(x[i, j]) > les.spectrum.tolerance for i, j in pairs)


def _brbt(les, rs):
    """X = B R B^T for each R of rs, on les's eigenspace basis B."""
    if les.is_exact():
        b = ExactMatrix._from_ints(list(zip(*les.basis)))
        bt = b.transpose()
        return [b @ r @ bt for r in rs]
    return [les.basis @ r @ les.basis.T for r in rs]


def phi(r, g):
    """Map a reduced witness up to vertex space: X = B R B^T, where B is the
    eigenspace basis (LeastEigenspace.basis) of a Graph, certified here, or
    of its LeastEigenspace.

    r must be a symmetric d x d matrix, an ExactMatrix on the exact path,
    and X must vanish on the diagonal and on edges, floating entries within
    the tolerance the eigenspace was clustered with; ValueError otherwise.
    """
    les = _eigenspace_of(g)
    d = les.spectrum.tau_multiplicity
    if les.is_exact():
        if not isinstance(r, ExactMatrix) or r.shape != (d, d) or not r.is_symmetric():
            raise ValueError(f"R must be a symmetric {d} x {d} ExactMatrix")
    else:
        r = np.asarray(r, dtype=float)
        if r.shape != (d, d) or not np.allclose(r, r.T, atol=les.spectrum.tolerance):
            raise ValueError(f"R must be a symmetric {d} x {d} matrix")
    (x,) = _brbt(les, [r])
    if not _vanishes_on_closed_pairs(les, x):
        raise ValueError("matrix violates the reduced membership conditions")
    return x


def _core(y, les):
    """The d x d core M of a symmetric n x n matrix y of les's backend, with
    y = B M B^T on the eigenspace basis B; ValueError unless y lies there.

    Exact: row f_a of the echelon basis B is c_a e_a, f_a the free vertex
    where column a ends, so M_ab = y[f_a, f_b] / (c_a c_b), read in integers
    over y.den lcm(c)^2. Only the n - d rows of y off the free vertices are
    then compared with B_rest M B^T (none when d = n): the free block agrees
    by the read-off, and y and B M B^T are symmetric, so that covers every
    entry. Floating: M = B^T y B on the orthonormal eigh basis, symmetric,
    and B M B^T within tol * max(1, max |y_ij|) of y, tol the eigenspace's.
    """
    if les.is_exact():
        ends = [max(i for i, v in enumerate(col) if v) for col in les.basis]
        c = [col[f] for col, f in zip(les.basis, ends)]
        k = math.lcm(*c) ** 2
        m = ExactMatrix._from_ints(
            [[y.num[a][b] * (k // (ca * cb)) for b, cb in zip(ends, c)] for a, ca in zip(ends, c)],
            y.den * k,
        )
        rest = sorted(set(range(y.nrows)) - set(ends))
        b_rest = ExactMatrix._from_ints([[col[i] for col in les.basis] for i in rest])
        ok = y.is_symmetric() and (not rest or b_rest @ m @ ExactMatrix._from_ints(les.basis)
                                   == y.submatrix(rest, range(y.ncols)))
    else:
        tol, b = les.spectrum.tolerance, les.basis
        m = b.T @ y @ b
        ok = np.allclose(m, m.T, atol=tol) and \
            np.max(np.abs(b @ m @ b.T - y)) <= tol * max(1.0, np.max(np.abs(y)))
    if not ok:
        raise ValueError("matrix is not in the image of the reduced space")
    return m


def phi_inverse(x, g):
    """The R with phi(R) = x, read off without inverting anything: x's core
    (_core), which refuses an x outside the image rather than projecting it.
    ValueError also unless x is of the backend of the eigenspace of a Graph,
    certified here, or of its LeastEigenspace, and vanishes on the diagonal
    and the edges (floating entries within the eigenspace's tolerance). On
    the exact path that proves x a witness: (A - tau I) B R B^T = 0 follows
    from the (A - tau I) B = 0 that the pass certifying tau verified.
    Conversely every witness is B R B^T, its columns in ker(A - tau I).
    """
    les = _eigenspace_of(g)
    n, exact = les.graph.n, les.is_exact()
    if isinstance(x, ExactMatrix) != exact or np.shape(x) != (n, n):
        kind = "an exact" if exact else "a floating"
        raise ValueError(f"{les.spectrum.backend} eigenspace needs {kind} {n} x {n} witness")
    x = x if exact else np.asarray(x, dtype=float)
    r = _core(x, les)
    if not _vanishes_on_closed_pairs(les, x):
        raise ValueError("matrix violates the reduced membership conditions")
    return r


# -- dominated frameworks ------------------------------------------------------


def gershgorin_scale(x):
    """1 / (max absolute row sum): guarantees the scaled matrix has least
    eigenvalue >= -1 without ever leaving the rationals. For an
    ExactMatrix num / den that is den / (max absolute row sum of num)."""
    if isinstance(x, ExactMatrix):
        s = max((sum(map(abs, row)) for row in x.num), default=0)
        return None if s == 0 else Fraction(x.den, s)
    s = float(np.max(np.sum(np.abs(np.asarray(x, dtype=float)), axis=1), initial=0.0))
    return None if s == 0.0 else 1.0 / s


def dominated_frameworks(p: Framework, x, c=None) -> Framework:
    """The framework q whose Gram matrix is gram(p) + c*x, on p's eigenspace.

    x must be a witness there, which phi_inverse proves, and gram(p) must
    lie there, as the least-eigenvalue and incidence frameworks do; c
    defaults to the Gershgorin scale of x, and any other c must be positive
    and finite. ValueError otherwise, or if p carries no eigenspace. As B
    has full column rank, gram(q) = B M B^T is PSD exactly when its d x d
    core M (_core) is, with M's rank: exact, one pivot pass over M gives
    both; floating, eigvalsh(M) is held to the eigenspace's tolerance and d
    is read off gram(q). InternalCheckError if M is indefinite. q is
    dominated by p with equality on the edges unchecked: phi_inverse proved
    x zero there and on the diagonal (floating, within the tolerance).
    """
    les = p.eigenspace
    if les is None:
        raise ValueError("framework carries no eigenspace")
    phi_inverse(x, les)
    if c is None:
        c = gershgorin_scale(x)
        if c is None:
            return p  # x = 0
    c = _checked_scale(c, p.is_exact())
    if p.is_exact():
        gram = p.gram + x * c
        status, pivots = psd_rank_pivot(_core(gram, les))
        indefinite, d = status == "indefinite", len(pivots)
    else:
        gram = np.asarray(p.gram) + c * np.asarray(x, dtype=float)
        w = np.linalg.eigvalsh(_core(gram, les))
        indefinite, d = w[0] < -les.spectrum.tolerance * max(1.0, float(w[-1])), None
    if indefinite:
        raise InternalCheckError("scaled witness broke positive semidefiniteness")
    return Framework(p.graph, gram, les, d)


# -- fast sufficient conditions ------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    failed_vertex: int | None = None


def _nonsingular_off(les, removed) -> bool:
    """Whether the principal submatrix of A - tau I off the vertex set
    removed is nonsingular; the empty submatrix vacuously is.

    Decided on the rows B[removed, :] of the n x d eigenspace basis B
    (LeastEigenspace.basis): the submatrix is singular exactly when those
    rows have rank < d. A - tau I is PSD with kernel col(B). If the
    submatrix kills y, pad y with zeros to x; then x^T (A - tau I) x = 0,
    so (A - tau I) x = 0 by PSD and x = Bc is nonzero and vanishes on
    removed. Conversely a nonzero Bc vanishing on removed restricts to a
    kernel vector of the submatrix. Fewer than d vertices fail at once.
    Exact: Bareiss rank of the integer rows. Floating: least singular value
    of the rows of the orthonormal eigh basis above NEIGHBORHOOD_MARGIN.
    """
    rows = sorted(removed)
    d = les.spectrum.tau_multiplicity
    if len(rows) < d:
        return False
    if les.is_exact():
        return rank_exact([[col[v] for col in les.basis] for v in rows]) == d
    return bool(np.linalg.svd(les.basis[rows], compute_uv=False)[-1] > NEIGHBORHOOD_MARGIN)


def neighborhood_condition(g) -> ConditionReport:
    """Punctured-neighborhood test: deleting any closed neighborhood N[v]
    must leave a graph whose least eigenvalue strictly exceeds tau.

    g is a Graph, certified here, or its LeastEigenspace. By interlacing
    that is nonsingularity of A - tau I off N[v], so each vertex costs one
    rank test of the |N[v]| rows of the eigenspace basis there
    (_nonsingular_off); an empty punctured graph counts as eigenvalue zero,
    so passes exactly when tau < 0. Holding implies universal
    completability; failing implies nothing.
    """
    les = _eigenspace_of(g)
    g = les.graph
    for v in range(g.n):
        closed = {v, *g.neighbours(v)}
        ok = _nonsingular_off(les, closed) if len(closed) < g.n else les.spectrum.tau < 0
        if not ok:
            return ConditionReport(False, failed_vertex=v)
    return ConditionReport(True)


def clique_condition(g, clique) -> bool:
    """Invertibility of the shifted adjacency matrix outside a clique.

    g is a Graph, certified here, or its LeastEigenspace. An invertible
    principal submatrix of A - tau I on the clique's complement forces every
    completability witness to vanish, so holding implies universal completability. It is
    invertible exactly when the clique's rows of the eigenspace basis have
    full rank d (see _nonsingular_off), so a clique of fewer than d vertices
    never passes. Vertices outside the graph raise ValueError.
    """
    les = _eigenspace_of(g)
    g = les.graph
    clique = sorted(set(clique))
    for v in clique:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    for a in range(len(clique)):
        for b in range(a + 1, len(clique)):
            if not g.has_edge(clique[a], clique[b]):
                raise ValueError(f"vertices {clique[a]} and {clique[b]} are not adjacent")
    return _nonsingular_off(les, set(clique))


def clique_condition_any(g):
    """First maximal clique (largest, then lexicographic) whose complement
    passes the invertibility test on the one A - tau I, or (False, None).
    Only cliques of at least d vertices are searched, as a smaller one never
    passes (see clique_condition). g is a Graph, certified here, or its
    LeastEigenspace."""
    les = _eigenspace_of(g)
    d = les.spectrum.tau_multiplicity
    for clique in sorted(maximal_cliques(les.graph, d), key=lambda c: (-len(c), c)):
        if clique_condition(les, clique):
            return True, tuple(clique)
    return False, None
