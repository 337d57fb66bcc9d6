"""Small modular-arithmetic helpers: GF(2) bit-vector spans, word-size mod-p
elimination and rational reconstruction, reduced-echelon enumeration of
subspaces over a prime field, and the lines each subspace contains.

The mod-p elimination is the workhorse behind the certified exact nullspace:
full column rank modulo a prime is already a proof of full column rank over
the rationals, and when the rank is deficient the same elimination, reduced
and lifted by rational reconstruction, proposes the kernel for an exact
check.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

import numpy as np

from .errors import InternalCheckError

# Large word-size prime; products of two residues stay below 2**62.
DEFAULT_PRIME = 2_147_483_647


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of integers viewed as bit vectors."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def gf2_span(vectors):
    """All XOR combinations of the given bit vectors (includes 0)."""
    span = {0}
    for v in vectors:
        if v not in span:
            span |= {v ^ s for s in span}
    return span


def _echelon_mod_p(rows, p):
    """Row echelon form of an integer matrix modulo p: (echelon, pivot_cols),
    with row i of the int64 array echelon 1 at pivot_cols[i] and 0 before
    it. Elimination order is deterministic: columns left to right, pivot row
    = first nonzero at or below the current row. The rank modulo p,
    len(pivot_cols), is at most the rank over the rationals, since a minor
    nonzero modulo p is nonzero."""
    try:
        m = np.array(rows, dtype=np.int64) % p
    except OverflowError:  # an entry beyond int64: reduce it as a Python int
        m = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    if m.size == 0:
        return m, []
    nrows, ncols = m.shape
    pivot_cols = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1 :, c]
        if below.size:
            m[r + 1 :] = (m[r + 1 :] - np.outer(below, m[r])) % p
        pivot_cols.append(c)
        r += 1
    return m[:r], pivot_cols


def _rational_reconstruction(a, p):
    """(num, den) with num = den * a (mod p), |num| <= B and 0 < den <= B
    for B = isqrt(p // 2), or None when the residue a has no such fraction.

    Wang's half extended Euclid: the first remainder r <= B, with
    r = t * a (mod p), gives num / den = r / t when |t| <= B. Two such
    fractions n / d and n' / d' would have |n d' - n' d| <= 2 B^2 < p, so
    they are equal: the fraction is unique, and Euclid finds it whenever it
    exists (Wang, Guy & Davenport, 1982).
    """
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def kernel_mod_p(rows, p=DEFAULT_PRIME):
    """Kernel candidates from one elimination of an integer matrix modulo p:
    for each free column f left to right, the kernel vector modulo p with 1
    at f and 0 at the other free columns, lifted to the rationals entrywise
    by _rational_reconstruction and scaled to the primitive integer vector
    positive at f; None when some entry has no lift.

    Nothing here is proved over the rationals: a candidate is a kernel
    vector only once it is checked against every row (exact.nullspace_mod_p).
    With full rank modulo p there is no free column, and no candidate.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivot_cols = _echelon_mod_p(rows, p)
    pivots = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return ()
    # reduced echelon form: clear each pivot column above its pivot
    for i in range(len(pivot_cols) - 1, 0, -1):
        m[:i] = (m[:i] - np.outer(m[:i, pivot_cols[i]], m[i])) % p
    candidates = []
    for f in free:
        lifts = [_rational_reconstruction(-x % p, p) for x in m[:, f].tolist()]
        if None in lifts:
            return None
        scale = math.lcm(*(den for _, den in lifts))
        vec = [0] * ncols
        vec[f] = scale
        for c, (num, den) in zip(pivot_cols, lifts):
            vec[c] = num * (scale // den)
        g = math.gcd(*vec)
        candidates.append(tuple([v // g for v in vec]))
    return tuple(candidates)


def _subspaces_mod_q(q, n, r):
    """All r-dimensional subspaces of F_q^n as canonical RREF basis matrices.

    Yields r x n tuples of tuples in reduced echelon form; every subspace
    appears exactly once. Iteration order is by pivot-column set and then by
    the free entries, so callers wanting a canonical vertex order should sort.
    """
    for pivots in itertools.combinations(range(n), r):
        free_cells = []
        for i, p in enumerate(pivots):
            for j in range(p + 1, n):
                if j not in pivots:
                    free_cells.append((i, j))
        for values in itertools.product(range(q), repeat=len(free_cells)):
            mat = [[0] * n for _ in range(r)]
            for i, p in enumerate(pivots):
                mat[i][p] = 1
            for (i, j), v in zip(free_cells, values):
                mat[i][j] = v
            yield tuple(tuple(row) for row in mat)


def line_masks(q, n, r):
    """For each r-subspace of F_q^n, in sorted(_subspaces_mod_q(q, n, r))
    order, the bitmask of the lines it contains: bit k stands for the k-th
    line of sorted(_subspaces_mod_q(q, n, 1)), named by its vector with a
    leading 1. Two subspaces meet trivially exactly when their masks are
    disjoint.

    In a reduced-echelon basis, a combination whose first nonzero
    coefficient c sits on row i has c at row i's pivot column and zeros
    before it, so the combinations whose first nonzero coefficient is 1 are
    the span's vectors with a leading 1, one per line: [r]_q per subspace.
    """
    lines = {row: k for k, (row,) in enumerate(sorted(_subspaces_mod_q(q, n, 1)))}
    combos = [
        (0,) * i + (1,) + rest
        for i in range(r)
        for rest in itertools.product(range(q), repeat=r - i - 1)
    ]
    masks = []
    for basis in sorted(_subspaces_mod_q(q, n, r)):
        cols = list(zip(*basis))
        mask = 0
        for c in combos:
            mask |= 1 << lines[tuple([sum(map(mul, c, col)) % q for col in cols])]
        masks.append(mask)
    return masks


def gaussian_binomial(n, r, q) -> int:
    """Number of r-dimensional subspaces of F_q^n."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InternalCheckError("Gaussian binomial quotient is not an integer")
    return num // den
