"""Self-contained reference computations the tests compare against.

Everything here deliberately avoids the package's own elimination and
nullspace code: plain Gauss-Jordan over Fraction on the full set of
symmetric-matrix unknowns, over F_q for subspace incidence, and integer
row reduction for the exact rank at every integer eigenvalue. Slow,
obviously correct, and wrong in different ways than the production route
would be. The floating oracle
builds the complement-edge system with numpy alone and reads it off one
full SVD, or sums its Gram matrix entry by entry, and the walk-count
oracle multiplies dense integer powers of A. The projector oracle checks the
n x n identities the exact path proves only in their d x d form, by dense
products over Fractions.
"""

import math
from fractions import Fraction

import numpy as np


def rref_fraction(rows):
    """In-place reduced row echelon form; returns the rank."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1, 1) / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_mod_q(rows, q):
    """Rank over F_q, q prime, of an integer matrix, by Gauss-Jordan."""
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_integer(rows):
    """Rank over Q of an integer matrix, by elimination on integer rows:
    each reduced row is divided by the gcd of its entries."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                row = [top[c] * a - f * b for a, b in zip(rows[r], top)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g else row
        rank += 1
    return rank


def exact_spectrum(g, tol=1e-8):
    """Eigenvalues of g with multiplicities, ascending: the eigvalsh values
    clustered within tol, each cluster within 1e-6 of an integer k taken as
    Fraction(k) when the exact corank of A - kI equals its size, and as its
    float mean otherwise."""
    n = g.n
    a = np.zeros((n, n))
    for i, j in g.edges():
        a[i, j] = a[j, i] = 1.0
    clusters = []
    for v in np.linalg.eigvalsh(a):
        if clusters and v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    pairs = []
    for cluster in clusters:
        center = sum(cluster) / len(cluster)
        k = round(center)
        if abs(center - k) <= 1e-6:
            shifted = [[int(x) - k * (i == j) for j, x in enumerate(row)]
                       for i, row in enumerate(a)]
            if n - rank_integer(shifted) == len(cluster):
                center = Fraction(k)
        pairs.append((center, len(cluster)))
    return tuple(pairs)


def dense_xspace_dim(g, tau):
    """Dimension of the symmetric solution space of the two matrix equations
    defining completability witnesses, using every entry X_ij (i <= j) as an
    unknown instead of the reduced complement-edge system."""
    tau = Fraction(tau)
    n = g.n
    unknowns = [(i, j) for i in range(n) for j in range(i, n)]
    col = {p: k for k, p in enumerate(unknowns)}

    def var(i, j):
        return col[(i, j) if i <= j else (j, i)]

    rows = []
    # entrywise vanishing on the diagonal and on edges
    for i in range(n):
        row = [Fraction(0)] * len(unknowns)
        row[var(i, i)] = Fraction(1)
        rows.append(row)
    for i, j in g.edges():
        row = [Fraction(0)] * len(unknowns)
        row[var(i, j)] = Fraction(1)
        rows.append(row)
    # (A - tau I) X = 0, one equation per matrix position
    for i in range(n):
        nbrs = list(g.neighbours(i))
        for j in range(n):
            row = [Fraction(0)] * len(unknowns)
            for k in nbrs:
                row[var(k, j)] += 1
            row[var(i, j)] -= tau
            rows.append(row)
    rank = rref_fraction(rows)
    return len(unknowns) - rank


def x_system_svd(g, threshold=1e-7, tol=1e-8):
    """The floating witness space from the n^2 x |complement edges| system.

    tau is the mean of the least eigenvalue cluster (consecutive eigh values
    at most tol apart). Column (k, l) of the system is vec((A - tau I)X) for
    X = e_k e_l^T + e_l e_k^T, row-major. Returns (dim, margin, basis): the
    number of singular values at most threshold times the largest, the
    smallest-to-largest ratio, and the right singular vectors past the rank
    as symmetric n x n matrices.
    """
    n = g.n
    a = np.zeros((n, n))
    for i, j in g.edges():
        a[i, j] = a[j, i] = 1.0
    vals = np.linalg.eigvalsh(a)
    cluster = [vals[0]]
    for v in vals[1:]:
        if v - cluster[-1] > tol:
            break
        cluster.append(v)
    s = a - sum(cluster) / len(cluster) * np.eye(n)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n) if a[k, l] == 0]
    m = np.zeros((n * n, len(pairs)))
    rows = np.arange(n) * n
    for t, (k, l) in enumerate(pairs):
        m[rows + l, t] = s[:, k]
        m[rows + k, t] = s[:, l]
    _, svals, vh = np.linalg.svd(m)
    smax = svals[0]
    rank = int(np.sum(svals > threshold * smax))
    basis = []
    for vec in vh[rank:]:
        x = np.zeros((n, n))
        for (k, l), v in zip(pairs, vec):
            x[k, l] = x[l, k] = v
        basis.append(x)
    return len(pairs) - rank, float(svals[-1] / smax) if smax > 0 else 0.0, basis


def complement_gram_loop(shifted, k, j):
    """The Gram matrix of the complement-edge system over the pairs
    (k[t], j[t]), entry by entry from T = shifted @ shifted: 0.0 plus
    T_jk'[k = j'], T_jj'[k = k'], T_kk'[j = j'] and T_kj'[j = k'], added in
    that order."""
    t = shifted @ shifted
    m = len(k)
    gram = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            x = 0.0
            if k[a] == j[b]:
                x += t[j[a], k[b]]
            if k[a] == k[b]:
                x += t[j[a], j[b]]
            if j[a] == j[b]:
                x += t[k[a], k[b]]
            if j[a] == k[b]:
                x += t[k[a], j[b]]
            gram[a, b] = x
    return gram


def walk_regularity(g):
    """(ok, a_seq, b_seq, k_max, failure) of the 1-walk-regular check, from
    dense powers A^k = A^(k-1) A over Python ints: each power must have a
    constant diagonal and constant edge entries, and the first power whose
    full n^2 entry vector is linearly dependent on the lower ones (k > 1)
    ends the check. failure is the first (k, i, j) off its constant,
    diagonal entries i = 1..n-1 first, then the edges in order; the
    constants are Fractions."""
    n, edges = g.n, g.edges()
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    a_seq, b_seq, basis = [], [], []
    k = 0
    while True:
        if k:
            power = [[sum(row[l] * a[l][j] for l in range(n)) for j in range(n)] for row in power]
        flat = [Fraction(x) for row in power for x in row]
        independent = rref_fraction(basis + [flat]) > len(basis)
        if k > 1 and not independent:
            return True, tuple(a_seq), tuple(b_seq), k - 1, None
        basis.append(flat)
        diag = power[0][0]
        edge_val = power[edges[0][0]][edges[0][1]] if edges else 0
        for i, j in [(i, i) for i in range(1, n)] + edges:
            if power[i][j] != (diag if i == j else edge_val):
                return False, tuple(a_seq), tuple(b_seq), k, (k, i, j)
        a_seq.append(Fraction(diag))
        b_seq.append(Fraction(edge_val))
        k += 1


def _dense_product(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def assert_projector_and_witnesses(g, tau, gram, witnesses):
    """P^2 = P and (A - tau I) P = 0 for the exact framework Gram P of g,
    and (A - tau I) X = 0 for every exact witness X, entry by entry."""
    n = g.n
    shifted = [[int(g.has_edge(i, j)) - tau * (i == j) for j in range(n)] for i in range(n)]
    p = [[gram[i, j] for j in range(n)] for i in range(n)]
    assert _dense_product(p, p) == p, "the framework Gram is not idempotent"
    assert not any(map(any, _dense_product(shifted, p))), "A - tau I does not annihilate P"
    for x in witnesses:
        rows = [[x[i, j] for j in range(n)] for i in range(n)]
        assert not any(map(any, _dense_product(shifted, rows))), "a witness is not in the kernel"
