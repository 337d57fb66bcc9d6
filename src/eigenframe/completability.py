"""Universal completability of least-eigenvalue frameworks.

The decision reduces to a linear system: a symmetric matrix X that vanishes
on closed neighborhoods (diagonal and edges) and satisfies (A - tau I)X = 0
witnesses a non-congruent dominated framework, and the framework is
universally completable exactly when no nonzero such X exists.

Both paths decide the dimension in the paper's reduced space X = B R B^T
(B a basis of ker(A - tau I), R symmetric d x d): n + |E| equations in
d(d+1)/2 unknowns. On the exact path B is an integer basis; full column
rank modulo a word-size prime certifies dimension zero, and kernel vectors
are otherwise lifted from that same elimination and verified exactly. On
the floating path B is the orthonormal eigh basis, and the least singular
value of the same system bounds the margin of the n^2 x |E(complement)|
complement-edge system from below; only when that bound is too small to
prove full rank do its rank and null vectors decide. The reported margin,
the smallest-to-largest singular value ratio of the complement-edge system,
is read from that system's Gram matrix when first asked for; the system
itself is never built.
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
    nullspace_mod_p,
    psd_rank_pivot,
    rank_exact,
)
from .frameworks import Framework, _checked_scale, dominates
from .graphs import Graph, check_budget, maximal_cliques

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
    """The R-system and its unknowns, the upper triangle (a, c) of R.

    X_ij = p_i^T R p_j, with p_i row i of the eigenspace basis B, is one
    linear form in the upper triangle of R; its forms on the diagonal and on
    edges are the n + |E| rows."""
    mult = les.spectrum.tau_multiplicity
    p = list(zip(*les.basis)) if les.is_exact() else les.basis.tolist()
    tri = [(a, c) for a in range(mult) for c in range(a, mult)]

    def form(i, j):
        return [p[i][a] * p[j][c] + (p[i][c] * p[j][a] if a != c else 0) for a, c in tri]

    closed = _closed_pairs(les.graph)
    check_budget(len(closed) * len(tri), f"a {len(closed)} x {len(tri)} system")
    return [form(i, j) for i, j in closed], tri


def _rspace_svd(les):
    """The singular values, zero-padded to one per unknown, and the right
    singular vectors of the floating R-system (_rspace_rows), and its
    unknowns; u is never larger than the system."""
    rows, tri = _rspace_rows(les)
    _, svals, vh = np.linalg.svd(np.array(rows), full_matrices=len(rows) < len(tri))
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


def _rspace_kernel(les):
    """Kernel vectors of the exact R-system (_rspace_rows), as symmetric
    d x d ExactMatrices, from one elimination modulo a prime
    (nullspace_mod_p): full column rank there proves the kernel trivial,
    and otherwise its kernel, lifted to the rationals, is verified exactly."""
    rows, tri = _rspace_rows(les)
    return [ExactMatrix(_symmetric(tri, vec, len(les.basis))) for vec in nullspace_mod_p(rows)]


def xspace(g) -> XSpaceBasis:
    """Solve for all symmetric X with (A+I) o X = 0 and (A - tau I) X = 0.

    g is a Graph, certified here, or its LeastEigenspace, whose backend
    decides the path. Exact path: the basis is the echelon basis over
    complement-edge unknowns, one matrix per free complement pair: phi of
    each echelon kernel vector of the R-system, divided to a primitive
    integer matrix. Each is a witness with no n x n product: X = B R B^T is
    symmetric with R, phi checks that it vanishes on the closed pairs, and
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
        basis = []
        for r in _rspace_kernel(les):
            x = phi(r, les)
            basis.append(x * Fraction(1, math.gcd(*(v for row in x.num for v in row))))
        return XSpaceBasis(les, tuple(basis))

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
        b = ExactMatrix._from_ints(list(zip(*les.basis)))
        x = b @ r @ b.transpose()
    else:
        r = np.asarray(r, dtype=float)
        if r.shape != (d, d) or not np.allclose(r, r.T, atol=les.spectrum.tolerance):
            raise ValueError(f"R must be a symmetric {d} x {d} matrix")
        x = les.basis @ r @ les.basis.T
    if not _vanishes_on_closed_pairs(les, x):
        raise ValueError("matrix violates the reduced membership conditions")
    return x


def phi_inverse(x, g):
    """The R with phi(R) = x, read off without inverting anything; ValueError
    unless x is a completability witness on the eigenspace of a Graph,
    certified here, or of its LeastEigenspace, on that eigenspace's backend.

    Exact path: column a of the echelon basis B ends at its free vertex f_a
    with value c_a, and row f_a of B is c_a e_a, so R_ab = x[f_a, f_b] /
    (c_a c_b), read in integers as x.num[f_a][f_b] (k / (c_a c_b)) over
    x.den k with k = lcm(c)^2. ValueError unless phi(R) == x, so an x
    outside the image is refused rather than projected. That check proves x
    a witness: phi checks R symmetric and X = B R B^T zero on the closed
    pairs, and (A - tau I) X = 0 follows from the (A - tau I) B = 0 that the
    pass certifying tau verified. Conversely every witness is B R B^T, as
    its columns lie in ker(A - tau I) = col(B), and its R is the one read
    off the free-vertex rows. Floating path: R = B^T x B on the orthonormal
    eigh basis; ValueError unless x is n x n and phi(R) is within
    tol * max(1, max |x_ij|) of x, tol the eigenspace's tolerance.
    """
    les = _eigenspace_of(g)
    n = les.graph.n
    if not les.is_exact():
        if isinstance(x, ExactMatrix) or np.shape(x) != (n, n):
            raise ValueError(f"floating eigenspace needs a floating {n} x {n} witness")
        x = np.asarray(x, dtype=float)
        r = les.basis.T @ x @ les.basis
        tol = les.spectrum.tolerance
        if np.max(np.abs(phi(r, les) - x)) > tol * max(1.0, np.max(np.abs(x))):
            raise ValueError("matrix is not in the image of the reduced space")
        return r
    if not isinstance(x, ExactMatrix) or x.shape != (n, n):
        raise ValueError(f"exact eigenspace needs an exact {n} x {n} witness")
    ends = [max(i for i, v in enumerate(col) if v) for col in les.basis]
    c = [col[f] for col, f in zip(les.basis, ends)]
    k = math.lcm(*c) ** 2
    r = ExactMatrix._from_ints(
        [[x.num[fa][fb] * (k // (ca * cb)) for fb, cb in zip(ends, c)] for fa, ca in zip(ends, c)],
        x.den * k,
    )
    if phi(r, les) != x:
        raise ValueError("matrix is not in the image of the reduced space")
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
    """The framework whose Gram matrix is gram(p) + c*x.

    x must be a completability witness on p's eigenspace, which phi_inverse
    proves (ValueError if it is not, or if p carries no eigenspace); c
    defaults to the Gershgorin scale of x, which keeps the sum positive
    semidefinite, and any other c must be positive and finite (ValueError).
    The result carries p's eigenspace and is verified PSD and dominated by
    p, with equality on edges. On the exact path the symmetric pivot pass
    that proves PSD also gives its rank d.
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
        gram = p.gram + x * c  # symmetric, as p.gram and the witness x are
        status, pivots = psd_rank_pivot(gram)
        if status == "indefinite":
            raise InternalCheckError("scaled witness broke positive semidefiniteness")
        d = len(pivots)
    else:
        gram = np.asarray(p.gram) + c * np.asarray(x, dtype=float)
        w = np.linalg.eigvalsh(gram)
        if w[0] < -1e-9 * max(1.0, float(w[-1])):
            raise InternalCheckError("scaled witness broke positive semidefiniteness")
        d = None  # the Framework reads it off the Gram matrix
    q = Framework(p.graph, gram, les, d)
    if not dominates(p, q):  # also proves the diagonal unchanged
        raise InternalCheckError("dominated framework fails the domination check")
    if not dominates(q, p):  # so every edge entry is unchanged too
        raise InternalCheckError("dominated framework changed an edge entry")
    return q


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
