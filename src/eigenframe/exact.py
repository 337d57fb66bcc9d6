"""Exact rational linear algebra and spectra.

An exact matrix is stored as integer rows over one positive common
denominator, in lowest terms, so sums, products, equality and zero tests are
integer work; entries are read back as Fractions. Rank, kernel and PSD status
are unchanged by one positive scale, so every elimination runs directly on
the integer numerators: fraction-free (Bareiss) for rank and the reference
nullspace, and a word-size prime for the certified fast nullspace. That one
discovers the pivot structure modulo the prime, solves the square pivot
system exactly (p-adic lifting, fraction-free elimination when lifting
bails; the same solver inverts matrices), and verifies every integer kernel
vector against the full matrix, falling back to pure Bareiss if verification
fails. Full column rank modulo the prime is accepted as a proof of a trivial
nullspace, which is the one-sided bound that keeps large instances cheap.

Positive semidefiniteness has one test: a symmetric fraction-free pivot pass
that decides PD / PSD-deficient / indefinite and reports the rank. Least
eigenvalues of adjacency matrices are certified with it: an integer k is the
least eigenvalue iff A - kI is singular and positive semidefinite, so a
binary search over the integer range settles integrality without trusting
floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import InternalCheckError, NumericalError, UnsupportedInputError
from .graphs import CayleySpec, Graph
from .modular import rank_mod_p

DEFAULT_TOL = 1e-8


def _coerce(x):
    if isinstance(x, float):
        raise TypeError("refusing to build an exact matrix from a float")
    return x if type(x) is int else Fraction(x)


class ExactMatrix:
    """Immutable dense matrix over the rationals: integer rows num over one
    positive denominator den, with gcd(den, every numerator) = 1."""

    __slots__ = ("nrows", "ncols", "num", "den")

    def __init__(self, rows):
        rows = [[_coerce(x) for x in row] for row in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        den = math.lcm(*(x.denominator for row in rows for x in row))
        self._store([[x.numerator * (den // x.denominator) for x in row] for row in rows], den)

    @classmethod
    def _from_ints(cls, num, den=1):
        """The matrix num / den for integer rows num and a positive den."""
        m = object.__new__(cls)
        m._store(num, den)
        return m

    def _store(self, num, den):
        g = math.gcd(den, *(x for row in num for x in row))
        if g != 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        # tuples are built from lists, not iterators: CPython sizes a tuple
        # from an iterator by resizing, so freeing it grows the tuple free
        # list, and peak memory then creeps up until a full collection
        object.__setattr__(self, "num", tuple([tuple(row) for row in num]))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nrows", len(self.num))
        object.__setattr__(self, "ncols", len(self.num[0]) if self.num else 0)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls._from_ints([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        return cls._from_ints([[0] * ncols for _ in range(nrows)])

    @classmethod
    def column_stack(cls, vectors):
        return cls([list(col) for col in zip(*vectors)])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def row(self, i):
        return tuple([Fraction(x, self.den) for x in self.num[i]])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return ExactMatrix._from_ints(
            [[x * a + y * b for x, y in zip(ra, rb)] for ra, rb in zip(self.num, other.num)], den
        )

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        s = _coerce(scalar)
        return ExactMatrix._from_ints(
            [[x * s.numerator for x in row] for row in self.num], self.den * s.denominator
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        cols = list(zip(*other.num))
        return ExactMatrix._from_ints(
            [[sum(map(mul, row, col)) for col in cols] for row in self.num],
            self.den * other.den,
        )

    def transpose(self):
        return ExactMatrix._from_ints(list(zip(*self.num)), self.den)

    def trace(self):
        return Fraction(sum(self.num[i][i] for i in range(min(self.nrows, self.ncols))), self.den)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and list(self.num) == list(zip(*self.num))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.num)

    def submatrix(self, rows, cols):
        return ExactMatrix._from_ints([[self.num[i][j] for j in cols] for i in rows], self.den)

    def to_float(self) -> np.ndarray:
        # int / int is correctly rounded, so this equals float(Fraction) per entry
        return np.array([[x / self.den for x in row] for row in self.num], dtype=float)

    def entries_row_major(self):
        return [Fraction(x, self.den) for row in self.num for x in row]


def adjacency_matrix(g: Graph) -> ExactMatrix:
    return ExactMatrix._from_ints(g.adjacency_rows())


# -- fraction-free elimination -----------------------------------------------


def _mutable_rows(m):
    """Integer rows to eliminate on: the numerators of an ExactMatrix (one
    positive scale changes neither rank, kernel nor PSD status), or integer
    rows as given."""
    return [list(row) for row in (m.num if isinstance(m, ExactMatrix) else m)]


def _bareiss_echelon(rows):
    """In-place fraction-free row echelon; returns the pivot (row, col) list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = next((i for i in range(r, nrows) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        piv = rows[r][c]
        rowr = rows[r]
        for i in range(r + 1, nrows):
            rowi = rows[i]
            f = rowi[c]
            for j in range(c, ncols):
                rowi[j] = (piv * rowi[j] - f * rowr[j]) // prev
        prev = piv
        pivots.append((r, c))
        r += 1
    return pivots


def rank_exact(m) -> int:
    return len(_bareiss_echelon(_mutable_rows(m)))


def _back_substitute(rows, pivots, free_col):
    """Kernel vector with value 1 at free_col and 0 at the other free columns."""
    x = {free_col: Fraction(1)}
    for r, c in reversed(pivots):
        row = rows[r]
        s = sum(row[j] * v for j, v in x.items() if j > c)
        if s:
            x[c] = -s / row[c]
    return x


def _normalize_kernel_vector(x, ncols):
    """The primitive integer vector along the sparse rational vector x."""
    scale = math.lcm(*(v.denominator for v in x.values()))
    ints = {j: v.numerator * (scale // v.denominator) for j, v in x.items()}
    g = math.gcd(*ints.values())
    return tuple([ints.get(j, 0) // g for j in range(ncols)])


def _annihilates(rows, vec) -> bool:
    return not any(sum(map(mul, row, vec)) for row in rows)


def nullspace(m):
    """Exact nullspace basis via fraction-free elimination.

    Returns a tuple of primitive integer vectors, each positive at its own
    free column; every vector is re-checked against the matrix before being
    returned.
    """
    rows = _mutable_rows(m)
    work = [row[:] for row in rows]
    pivots = _bareiss_echelon(work)
    pivot_cols = {c for _, c in pivots}
    ncols = len(rows[0]) if rows else 0
    basis = [
        _normalize_kernel_vector(_back_substitute(work, pivots, f), ncols)
        for f in range(ncols)
        if f not in pivot_cols
    ]
    if not all(_annihilates(rows, vec) for vec in basis):
        raise InternalCheckError("kernel vector fails exact verification")
    return tuple(basis)


def _rational_reconstruct(a, m):
    """(n, d) with d > 0, a*d = n (mod m) and |n|, d <= sqrt(m/2), or None.

    Standard half-extended Euclid on (m, a), stopping at the first remainder
    below the bound.
    """
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 > bound or t1 == 0 or abs(t1) > bound:
        return None
    if math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _inverse_mod_p(s, p):
    """Inverse of a square int64 matrix mod p, or None if singular mod p."""
    n = s.shape[0]
    a = np.concatenate([s % p, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i, c]), None)
        if piv is None:
            return None
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
        a[c] = (a[c] * pow(int(a[c, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[c] = 0
        a = (a - np.outer(col, a[c])) % p
    return a[:, n:]


def _solve_dixon(s_rows, rhs_cols, p=2_147_483_647):
    """Exact solutions of S y = b for each column b, by p-adic lifting.

    Each solution is (integer numerators, positive common denominator).
    S must be invertible mod p (hence over Q). Candidate solutions come from
    rational reconstruction of the p-adic expansion; each is verified exactly
    before being returned, so a reconstruction failure returns None rather
    than a wrong answer.
    """
    r = len(s_rows)
    if r == 0:
        return [([], 1) for _ in rhs_cols]
    # int64 matvec bounds: |S| < 2^20 and r < 2^12 keep every sum below 2^63
    if r >= 1 << 12 or max(abs(x) for row in s_rows for x in row) >= 1 << 20:
        return None
    s_np = np.array(s_rows, dtype=np.int64)
    c_np = _inverse_mod_p(s_np, p)
    if c_np is None:
        return None
    c_hi, c_lo = c_np >> 16, c_np & 0xFFFF
    solutions = []
    for col in rhs_cols:
        if max((abs(x) for x in col), default=0) >= 1 << 40:
            return None
        b = np.array(col, dtype=np.int64)
        acc = [0] * r
        pk = 1
        steps = 0
        steps_cap = 4 * r + 40
        check_at = 10
        y = None
        while steps < steps_cap:
            bp = b % p
            d = (((c_hi @ bp) % p << 16) + c_lo @ bp) % p
            for i in range(r):
                acc[i] += pk * int(d[i])
            pk *= p
            b = (b - s_np @ d) // p
            steps += 1
            if steps >= check_at or steps == steps_cap:
                check_at *= 2
                cand = [_rational_reconstruct(a, pk) for a in acc]
                if None not in cand:
                    den = math.lcm(*(q for _, q in cand))
                    nums = [n * (den // q) for n, q in cand]
                    if all(sum(map(mul, row, nums)) == den * v for row, v in zip(s_rows, col)):
                        y = (nums, den)
                        break
        if y is None:
            return None
        solutions.append(y)
    return solutions


def _solve_bareiss_square(sub, rhs):
    """Exact solve of a square system against every right-hand side by
    fraction-free elimination, or None if the matrix is singular.

    Back substitution is scaled by the last pivot, which is +-det(S), so by
    Cramer's rule every step divides exactly and the numerators stay integral.
    """
    r = len(sub)
    aug = [list(row) + [col[i] for col in rhs] for i, row in enumerate(sub)]
    pivots = _bareiss_echelon(aug)
    if len(pivots) != r or any(c >= r for _, c in pivots):
        return None
    det = aug[r - 1][r - 1] if r else 1
    sign = 1 if det > 0 else -1
    sols = []
    for t in range(len(rhs)):
        y = [0] * r
        for i in reversed(range(r)):
            row = aug[i]
            s = det * row[r + t] - sum(map(mul, row[i + 1 : r], y[i + 1 :]))
            y[i] = s // row[i]
        sols.append(([sign * v for v in y], abs(det)))
    return sols


def _solve_square(s_rows, rhs_cols):
    """Exact solutions (numerators, positive denominator) of S y = b for every
    column b, or None if S is singular: p-adic lifting, and fraction-free
    elimination whenever lifting bails."""
    sols = _solve_dixon(s_rows, rhs_cols)
    return sols if sols is not None else _solve_bareiss_square(s_rows, rhs_cols)


def nullspace_fast(int_rows, ncols):
    """Certified nullspace of an integer matrix.

    Pivot structure is discovered modulo a word-size prime. Full column rank
    mod p already proves a trivial kernel. Otherwise the square pivot
    submatrix (nonsingular over Q because it is nonsingular mod p) is solved
    exactly for each free column, and every candidate integer vector is
    verified against the whole matrix; any failure falls back to pure
    elimination. Verified candidates are independent (distinct free
    columns), so their count meeting the mod-p nullity certifies the
    dimension exactly.
    """
    if ncols == 0:
        return ()
    rank, prows, pcols = rank_mod_p(int_rows)
    if rank == ncols:
        return ()
    pivot_set = set(pcols)
    free = [c for c in range(ncols) if c not in pivot_set]
    sub = [[int_rows[r][c] for c in pcols] for r in prows]
    rhs = [[int_rows[r][f] for r in prows] for f in free]
    basis = []
    for f, (nums, den) in zip(free, _solve_square(sub, rhs)):
        full = {c: -v for c, v in zip(pcols, nums)}
        full[f] = den
        vec = _normalize_kernel_vector(full, ncols)
        if not _annihilates(int_rows, vec):
            return nullspace(int_rows)
        basis.append(vec)
    return tuple(basis)


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse through the square solver; ValueError if m is singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    n = m.nrows
    cols = _solve_square(m.num, [[int(i == j) for i in range(n)] for j in range(n)])
    if cols is None:
        raise ValueError("matrix is singular")
    # (num / den)^-1 = den * num^-1, and column j of num^-1 is nums_j / den_j
    den = math.lcm(*(d for _, d in cols))
    return ExactMatrix._from_ints(
        [[m.den * nums[i] * (den // d) for nums, d in cols] for i in range(n)], den
    )


def projector_onto_nullspace(m) -> ExactMatrix:
    """Orthogonal projector onto the kernel of m, exactly.

    Built as B (B^T B)^{-1} B^T from a kernel basis B, the shared one when m
    is an exact LeastEigenspace; verified idempotent and annihilated by the
    matrix before being returned.
    """
    if isinstance(m, LeastEigenspace):
        basis, m = m.basis, m.shifted
    else:
        basis = nullspace(m)
    n = m.ncols
    if not basis:
        return ExactMatrix.zeros(n)
    b = ExactMatrix.column_stack(basis)
    bt = b.transpose()
    proj = b @ invert(bt @ b) @ bt
    if proj @ proj != proj:
        raise InternalCheckError("projector is not idempotent")
    if not (m @ proj).is_zero():
        raise InternalCheckError("projector does not annihilate the matrix")
    return proj


# -- characteristic polynomial and PSD test ----------------------------------


def charpoly(m: ExactMatrix):
    """Coefficients [1, c1, ..., cn] of det(xI - m), by the trace recurrence."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.nrows
    b = m.num
    coeffs_int = [1]
    mk = [list(row) for row in b]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise InternalCheckError("trace recurrence produced a non-integral coefficient")
        ck = -tr // k
        coeffs_int.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        cols = list(zip(*mk))
        mk = [[sum(map(mul, row, col)) for col in cols] for row in b]
    return [Fraction(c, m.den**k) for k, c in enumerate(coeffs_int)]


def is_psd_exact(m: ExactMatrix) -> bool:
    """Exact positive semidefiniteness of a symmetric matrix, by the
    symmetric pivot pass."""
    if not m.is_symmetric():
        raise ValueError("PSD test needs a symmetric matrix")
    return psd_rank_pivot(m)[0] != "indefinite"


def psd_rank_pivot(m) -> tuple:
    """(status, rank) by symmetric fraction-free pivoting.

    status is one of "pd", "psd" (singular PSD), "indefinite"; rank is valid
    whenever the matrix is PSD. Pivots are taken on positive diagonal entries,
    so scaled Schur diagonals keep the true signs.
    """
    a = _mutable_rows(m)
    n = len(a)
    act = list(range(n))
    prev = 1
    rank = 0
    while act:
        if any(a[i][i] < 0 for i in act):
            return "indefinite", None
        piv = next((i for i in act if a[i][i] > 0), None)
        if piv is None:
            if any(a[i][j] for i in act for j in act):
                return "indefinite", None
            return ("pd" if rank == n else "psd"), rank
        act.remove(piv)
        rank += 1
        d = a[piv][piv]
        ap = a[piv]
        for i in act:
            ai = a[i]
            f = ai[piv]
            for j in act:
                ai[j] = (d * ai[j] - f * ap[j]) // prev
        prev = d
    return "pd", rank


# -- spectra -------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, ascending.

    On the exact backend tau is a Fraction whose multiplicity is verified by
    an exact rank computation; irrational eigenvalues above tau appear as
    floating cluster values (multiplicities still summing to n).
    """

    pairs: tuple
    tau: object
    tau_multiplicity: int
    backend: str
    tolerance: float | None = None

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("empty spectrum")
        if self.tau_multiplicity != self.pairs[0][1]:
            raise ValueError("tau multiplicity disagrees with the first pair")
        vals = [float(v) for v, _ in self.pairs]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues not strictly ascending")

    @property
    def n(self):
        return sum(m for _, m in self.pairs)


def _validate_adjacency(m: ExactMatrix):
    if not m.is_symmetric():
        raise ValueError("adjacency matrix must be symmetric")
    for i, row in enumerate(m.num):
        if row[i] != 0:
            raise ValueError("adjacency matrix must have a zero diagonal")
        if any(x != 0 and x != m.den for x in row):
            raise ValueError("adjacency entries must be 0 or 1")


def _cluster(values, tol):
    groups = []
    for v in values:
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(sum(g) / len(g), len(g)) for g in groups]


def integer_least_eigenvalue(a: ExactMatrix, tol: float = DEFAULT_TOL):
    """Exact least adjacency eigenvalue when it is an integer, else None.

    Binary search over integers k in [-maxdeg, 0]: A - kI is positive
    definite below the least eigenvalue, singular PSD exactly at it, and
    indefinite above it, so the bracket certifies both outcomes without any
    floating-point trust. Integer eigenvalues elsewhere in the spectrum are
    also certified exactly; irrational ones are reported as floating
    clusters.
    """
    if isinstance(a, Graph):
        a = adjacency_matrix(a)
    _validate_adjacency(a)
    n = a.nrows
    if n == 0:
        raise ValueError("empty matrix has no spectrum")
    rows = a.num  # 0/1 entries, so the denominator is 1
    maxdeg = max(sum(row) for row in rows)

    def status(k):
        return psd_rank_pivot(_shift_diagonal(rows, k))

    lo, lo_status = -maxdeg, status(-maxdeg)
    if lo_status[0] == "psd":
        return _exact_spectrum(rows, Fraction(lo), n - lo_status[1], tol)
    if lo_status[0] == "indefinite":
        raise InternalCheckError("adjacency matrix indefinite below its degree bound")
    hi = 0
    hi_status = status(0)
    if hi_status[0] == "psd":
        return _exact_spectrum(rows, Fraction(0), n - hi_status[1], tol)
    if hi_status[0] == "pd":
        raise InternalCheckError("adjacency matrix positive definite, impossible")
    while hi - lo > 1:
        mid = (hi + lo) // 2
        st, rank = status(mid)
        if st == "pd":
            lo = mid
        elif st == "psd":
            return _exact_spectrum(rows, Fraction(mid), n - rank, tol)
        else:
            hi = mid
    return None  # least eigenvalue lies strictly between two integers


def _shift_diagonal(rows, k):
    """Integer rows of A - kI."""
    return [[x - k if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _exact_spectrum(rows, tau, tau_mult, tol):
    n = len(rows)
    vals = np.linalg.eigvalsh(np.array(rows, dtype=float))
    rest = sorted(vals)[tau_mult:]
    pairs = [(tau, tau_mult)]
    for center, mult in _cluster(rest, tol):
        k = round(center)
        if abs(center - k) <= 1e-6 and k != tau:
            exact_mult = n - rank_exact(_shift_diagonal(rows, k))
            if exact_mult == mult:
                pairs.append((Fraction(k), mult))
                continue
        pairs.append((center, mult))
    return Spectrum(tuple(pairs), tau, tau_mult, "exact")


@dataclass(frozen=True)
class CayleySpectrum:
    """Character spectrum of a Cayley graph on Z_2^n."""

    spec: CayleySpec
    spectrum: Spectrum
    tau_characters: tuple  # group elements whose character eigenvalue is tau

    def tau_eigenvector_matrix(self) -> ExactMatrix:
        n_verts = 1 << self.spec.n
        return ExactMatrix(
            [
                [(-1) ** ((x & v).bit_count() & 1) for v in self.tau_characters]
                for x in range(n_verts)
            ]
        )


def cayley_spectrum(spec: CayleySpec) -> CayleySpectrum:
    """Exact spectrum by character sums: one integer eigenvalue per group element."""
    n_verts = 1 << spec.n
    conn = sorted(spec.connection_set)
    eig = {}
    for v in range(n_verts):
        val = sum(1 if (v & c).bit_count() % 2 == 0 else -1 for c in conn)
        eig.setdefault(val, []).append(v)
    pairs = tuple((Fraction(v), len(eig[v])) for v in sorted(eig))
    tau = min(eig)
    spectrum = Spectrum(pairs, Fraction(tau), len(eig[tau]), "exact")
    return CayleySpectrum(spec, spectrum, tuple(eig[tau]))


class LeastEigenspace:
    """A graph's least eigenspace ker(A - tau I), certified once by
    least_eigenspace and passed to every check that reads it.

    Exact backend: shifted is the ExactMatrix A - tau I, and basis its d
    primitive integer echelon kernel columns, built on first use and checked
    against the certified multiplicity d. Floating backend: a float shifted
    matrix and the orthonormal n x d eigh basis. graph is None for the
    eigenspace of a bare matrix.
    """

    def __init__(self, graph, spectrum, basis=None):
        self.graph, self.spectrum = graph, spectrum
        if basis is not None:  # eigh gives the floating basis with the spectrum
            self.basis = basis

    def is_exact(self) -> bool:
        return self.spectrum.backend == "exact"

    @functools.cached_property
    def shifted(self):
        a = adjacency_matrix(self.graph)
        if self.is_exact():
            return a - ExactMatrix.identity(a.nrows) * self.spectrum.tau
        return a.to_float() - float(self.spectrum.tau) * np.eye(a.nrows)

    @functools.cached_property
    def basis(self):
        basis = nullspace(self.shifted)
        if len(basis) != self.spectrum.tau_multiplicity:
            raise InternalCheckError("eigenspace basis does not match the certified multiplicity")
        return basis


def floating_least_eigenspace(a, tol: float = DEFAULT_TOL) -> LeastEigenspace:
    """Floating spectrum with an orthonormal basis of the least eigencluster."""
    graph = a if isinstance(a, Graph) else None
    if graph is not None:
        a = adjacency_matrix(a)
    if isinstance(a, ExactMatrix):
        arr = a.to_float()
    else:
        arr = np.asarray(a, dtype=float)
    if arr.size and not np.allclose(arr, arr.T, atol=1e-12):
        raise ValueError("floating eigenspace needs a symmetric matrix")
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigensolver failed to converge: {e}") from e
    pairs = tuple(_cluster(list(vals), tol))
    d = pairs[0][1]
    spectrum = Spectrum(pairs, pairs[0][0], d, "floating", tol)
    return LeastEigenspace(graph, spectrum, vecs[:, :d])


def least_eigenspace(
    g: Graph, backend: str = "auto", tol: float = DEFAULT_TOL, spectrum=None
) -> LeastEigenspace:
    """Certify a graph's least eigenvalue and return its eigenspace.

    backend "exact" raises UnsupportedInputError unless the least eigenvalue
    is an integer; "floating" never certifies; "auto" tries the integer
    bracket, then the floating eigensolver. A precomputed Spectrum with
    exact integer tau (for instance from character sums) replaces the
    bracket; one pivot pass checks that A - tau I is singular PSD with the
    stated multiplicity, else ValueError.
    """
    if backend not in ("auto", "exact", "floating"):
        raise ValueError(f"unknown backend {backend!r}")
    if g.n == 0:
        raise ValueError("empty graph has no spectrum")
    if backend == "floating":
        return floating_least_eigenspace(g, tol)
    if spectrum is not None:
        if not isinstance(spectrum.tau, Fraction) or spectrum.tau.denominator != 1:
            raise ValueError("precomputed spectrum must carry an exact integer tau")
        les = LeastEigenspace(g, spectrum)
        status, rank = psd_rank_pivot(les.shifted)
        if status != "psd" or g.n - rank != spectrum.tau_multiplicity:
            raise ValueError("precomputed spectrum does not match the graph's least eigenvalue")
        return les
    spectrum = integer_least_eigenvalue(adjacency_matrix(g), tol)
    if spectrum is not None:
        return LeastEigenspace(g, spectrum)
    if backend == "exact":
        raise UnsupportedInputError(
            "exact backend unavailable: least eigenvalue is not an integer"
        )
    return floating_least_eigenspace(g, tol)


def _eigenspace_of(g, backend: str, tol: float) -> LeastEigenspace:
    """A LeastEigenspace as given, or a graph's, certified here."""
    return g if isinstance(g, LeastEigenspace) else least_eigenspace(g, backend, tol)


def graph_spectrum(g: Graph, backend: str = "auto", tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of a graph, exact when the least eigenvalue is integral (the
    backends as in least_eigenspace); no eigenspace basis is built."""
    return least_eigenspace(g, backend, tol).spectrum
