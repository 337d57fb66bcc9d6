"""Exact rational linear algebra and spectra.

An exact matrix is stored as integer rows over one positive common
denominator, in lowest terms, so sums, products, equality and zero tests are
integer work; entries are read back as Fractions. Rank, kernel and PSD status
are unchanged by one positive scale, so every elimination runs directly on
the integer numerators. There is one exact solver: fraction-free (Bareiss)
row echelon form, then an integer back substitution scaled by the last pivot,
where Cramer's rule makes every division exact. It gives rank, the echelon
nullspace basis and the inverse (by eliminating [m | I]). The certified
nullspace of a large integer system eliminates it once modulo a word-size
prime. Full column rank there is accepted as a proof of a trivial nullspace,
the one-sided bound that keeps large instances cheap; otherwise the kernel
modulo the prime, lifted to the rationals by rational reconstruction, is
verified against every row. Only when a lift or a check fails does the
exact solver run, on all rows.

Positive semidefiniteness has one test: a symmetric fraction-free pivot pass
that decides PD / PSD-deficient / indefinite and reports its pivots. Least
eigenvalues of adjacency matrices are certified with it: an integer k is the
least eigenvalue iff A - kI is singular and positive semidefinite. Floating
point only proposes k, the integer nearest the least eigh value, and one pass
at k proves tau and gives the echelon basis of ker(A - tau I), read off the
rows the pass left and checked against A - tau I: A - tau I is eliminated
once. When that pass refutes the guess, or the exact backend must prove that
tau is not an integer, a binary search over the integer range settles
integrality without trusting floating point at all, its hit likewise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import InternalCheckError, NumericalError, UnsupportedInputError
from .graphs import CayleySpec, Graph, cayley_z2, check_budget
from .modular import kernel_mod_p

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
    """Exact adjacency matrix; ResourceLimitError before it is built over the
    byte budget (check_budget)."""
    check_budget(g.n * g.n, f"{g.n} x {g.n} matrix")
    return ExactMatrix._from_ints(g.adjacency_rows())


def _adjacency_int64(g: Graph):
    """The adjacency matrix as an int64 array, unpacked from the neighbour
    bitmasks; refused over the byte budget like adjacency_matrix."""
    check_budget(g.n * g.n, f"{g.n} x {g.n} matrix")
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in g.nbr), dtype=np.uint8)
    bits = np.unpackbits(packed, bitorder="little").reshape(g.n, 8 * width)
    return bits[:, : g.n].astype(np.int64)


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


def _back_substitute(rows, pivots, free_col, ncols):
    """Integer kernel vector of rows eliminated by _bareiss_echelon or, on a
    PSD matrix, psd_rank_pivot: D at free_col, 0 at the other free columns,
    where D is the last pivot, read from its own row (1 if there is none).

    Each pivot row holds its Bareiss minors on every later column and D is
    the determinant of the pivot minor, so by Cramer's rule this is D times
    the rational kernel vector with 1 at free_col; it is integral and every
    division below is exact. Columns past free_col stay 0.
    """
    y = [0] * ncols
    y[free_col] = rows[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    for r, c in reversed(pivots):
        if c < free_col:
            row = rows[r]
            y[c] = -sum(map(mul, row[c + 1 : free_col + 1], y[c + 1 : free_col + 1])) // row[c]
    return y


def _kernel_basis(rows, pivots, ncols):
    """Echelon kernel basis of integer rows already eliminated to pivots:
    one primitive integer vector per free column, positive there."""
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(ncols):
        if f not in pivot_cols:
            y = _back_substitute(rows, pivots, f, ncols)
            g = math.gcd(*y) if y[f] > 0 else -math.gcd(*y)
            basis.append(tuple([v // g for v in y]))
    return tuple(basis)


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
    basis = _kernel_basis(work, _bareiss_echelon(work), len(rows[0]) if rows else 0)
    if not all(_annihilates(rows, vec) for vec in basis):
        raise InternalCheckError("kernel vector fails exact verification")
    return basis


def nullspace_mod_p(int_rows):
    """Certified nullspace of an integer matrix from one elimination modulo
    a word-size prime: the echelon basis nullspace returns.

    kernel_mod_p lifts one candidate per free column modulo the prime, and
    each is checked against all rows. If all pass, they are the echelon
    basis, whatever the prime. Let K be the rational kernel and K_f its
    vectors that are 0 past column f. Each candidate is nonzero at its free
    column and 0 at the others, so they are independent, and there are
    ncols - rank_p >= dim K of them: they are a basis of K. The candidate
    of free column f lies in K_f and not in K_(f-1), so dim K_f rises at
    each of these dim K columns, and so only there: they are the free
    columns over the rationals too. A vector of K that is 0 at every free
    column is 0, so the vector of K_f that is 0 at the other free columns
    is unique up to scale; the candidate and the Bareiss vector are both
    it, primitive and positive at f. Full rank modulo the prime leaves no
    candidate: the kernel is trivial, with no exact work. If some entry has
    no lift or some candidate fails, nullspace eliminates all rows instead.
    """
    candidates = kernel_mod_p(int_rows)
    if candidates is not None and all(_annihilates(int_rows, vec) for vec in candidates):
        return candidates
    return nullspace(int_rows)


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by eliminating [m | I]; ValueError if m is singular.

    The kernel vector at free column n + j is (-D m^-1 e_j, D e_j) for the
    last pivot D, so column j of the inverse is read off its first n entries.
    """
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    n = m.nrows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.num)]
    pivots = _bareiss_echelon(aug)
    if len(pivots) != n or any(c >= n for _, c in pivots):
        raise ValueError("matrix is singular")
    cols = [_back_substitute(aug, pivots, n + j, 2 * n) for j in range(n)]
    d = aug[n - 1][n - 1] if n else 1
    # (num / den)^-1 = den * num^-1, and column j of num^-1 is -cols[j][:n] / d
    s = -m.den if d > 0 else m.den
    return ExactMatrix._from_ints([[s * col[i] for col in cols] for i in range(n)], abs(d))


def projector_onto_nullspace(m) -> ExactMatrix:
    """Orthogonal projector onto the kernel of m, exactly.

    Built as P = B C B^T with C = (B^T B)^{-1}, from a kernel basis B: the
    shared one when m is an exact LeastEigenspace, whose pass verified
    (A - tau I) B = 0, else nullspace's, verified against m. Only the d x d
    identity (B^T B) C = I is checked here (InternalCheckError otherwise).
    It gives C = C^T, as B^T B is symmetric, and P^2 = B C (B^T B) C B^T =
    P; with m B = 0 it gives m P = 0, and P B = B gives rank d. So P is the
    orthogonal projector onto col(B), proved with no n x n by n x n
    product.
    """
    if isinstance(m, LeastEigenspace):
        basis, n = m.basis, m.graph.n
    else:
        basis, n = nullspace(m), m.ncols
    if not basis:
        return ExactMatrix.zeros(n)
    b = ExactMatrix.column_stack(basis)
    bt = b.transpose()
    gram = bt @ b
    c = invert(gram)
    if gram @ c != ExactMatrix.identity(len(basis)):
        raise InternalCheckError("inverse of the basis Gram matrix fails its check")
    return b @ c @ bt


# -- PSD test ------------------------------------------------------------------


def is_psd_exact(m: ExactMatrix) -> bool:
    """Exact positive semidefiniteness of a symmetric matrix, by the
    symmetric pivot pass."""
    if not m.is_symmetric():
        raise ValueError("PSD test needs a symmetric matrix")
    return psd_rank_pivot(m)[0] != "indefinite"


def psd_rank_pivot(a) -> tuple:
    """(status, pivots) of a symmetric ExactMatrix, or of symmetric integer
    rows a, eliminated in place, by the symmetric pivot pass: status is one
    of "pd", "psd" (singular PSD), "indefinite"; pivots are (i, i) pairs in
    order, and their number is the rank whenever the matrix is PSD.

    Pivots are taken on positive diagonal entries, so scaled Schur diagonals
    keep the true signs. On a PSD matrix a zero Schur diagonal means a zero
    row, which stays zero, so the pivots rise along exactly the row echelon
    pivot columns and _back_substitute reads the kernel off a.
    """
    if isinstance(a, ExactMatrix):
        a = _mutable_rows(a)
    n = len(a)
    act = list(range(n))
    prev = 1
    pivots = []
    while act:
        if any(a[i][i] < 0 for i in act):
            return "indefinite", pivots
        piv = next((i for i in act if a[i][i] > 0), None)
        if piv is None:
            if any(a[i][j] for i in act for j in act):
                return "indefinite", pivots
            return "psd", pivots
        act.remove(piv)
        pivots.append((piv, piv))
        d = a[piv][piv]
        ap = a[piv]
        for i in act:
            ai = a[i]
            f = ai[piv]
            for j in act:
                ai[j] = (d * ai[j] - f * ap[j]) // prev
        prev = d
    return "pd", pivots


# -- spectra -------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, ascending.

    On the exact backend tau is a Fraction whose multiplicity is verified
    with tau itself: by the pivot pass at the eigh guess, by the integer
    bracket, or by cayley_spectrum's character check. Pairs above tau are
    floating eigh clusters, except on cayley_spectrum, whose characters
    prove every eigenvalue.
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


def _cluster(values, tol):
    groups = []
    for v in values:
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(sum(g) / len(g), len(g)) for g in groups]


def _integer_bracket(rows):
    """(tau, basis) when the least eigenvalue of the adjacency rows is an
    integer, with basis the echelon basis of ker(A - tau I), else None.

    Binary search over integers: A - kI is positive definite below the least
    eigenvalue, singular PSD exactly at it, and indefinite above it, so the
    bracket certifies both outcomes without any floating-point trust. It
    starts from -maxdeg - 1 (below every eigenvalue) and 1 (above tau, as
    the trace is 0).
    """
    lo, hi = -max(sum(row) for row in rows) - 1, 1
    while hi - lo > 1:
        mid = (hi + lo) // 2
        st, basis = _least_kernel(rows, mid)
        if st == "psd":
            return mid, basis
        if st == "pd":
            lo = mid
        else:
            hi = mid
    return None  # least eigenvalue lies strictly between two integers


def _shift_diagonal(rows, k):
    """Integer rows of A - kI."""
    return [[x - k if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _least_kernel(rows, k):
    """(status, basis) of A - kI by one psd_rank_pivot pass; when k is the
    least eigenvalue ("psd"), the echelon basis of ker(A - kI) read off that
    pass and checked against A - kI, else ()."""
    shifted = _shift_diagonal(rows, k)
    work = [row[:] for row in shifted]
    status, pivots = psd_rank_pivot(work)
    if status != "psd":
        return status, ()
    basis = _kernel_basis(work, pivots, len(rows))
    if not all(_annihilates(shifted, vec) for vec in basis):
        raise InternalCheckError("eigenspace vector fails exact verification")
    return status, basis


@dataclass(frozen=True)
class CayleySpectrum:
    """Character spectrum of a Cayley graph on Z_2^n, proved on graph."""

    graph: Graph  # cayley_z2 of the connection set
    spectrum: Spectrum
    tau_elements: tuple  # ascending group elements u whose character has eigenvalue tau


@functools.lru_cache(maxsize=2)
def characters(n: int):
    """The +-1 character table H of Z_2^n as int64: H[x, v] = chi_v(x) =
    (-1)^popcount(x & v). Shared between calls, so it is read-only; the two
    most recent tables are kept, since one holds 4^n cells."""
    idx = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros_like(idx)
    for bit in range(n):
        parity ^= (idx >> bit) & 1
    h = 1 - 2 * parity[idx[:, None] & idx]
    h.flags.writeable = False
    return h


def cayley_spectrum(spec: CayleySpec) -> CayleySpectrum:
    """Exact spectrum by character sums, proved on the graph cayley_z2 builds.

    The character chi_v(x) = (-1)^popcount(x & v) has eigenvalue lambda_v =
    sum over c in C of chi_v(c). One int64 product checks A H = H diag(lambda)
    for the whole character table H (InternalCheckError if any column fails);
    no entry exceeds 2^n in absolute value, so the product is exact.
    The characters satisfy H^T H = 2^n I, so they are 2^n independent
    eigenvectors: the lambda_v are the whole spectrum, tau the least, and the
    tau characters a basis of ker(A - tau I), their number its dimension d.
    """
    g = cayley_z2(spec)
    a = _adjacency_int64(g)
    h = characters(spec.n)
    lam = h[list(spec.connection_set)].sum(axis=0)
    bad = np.flatnonzero((a @ h != h * lam).any(axis=0))
    if bad.size:
        raise InternalCheckError(f"character {bad[0]} is not an eigenvector of the graph")
    values, counts = np.unique(lam, return_counts=True)
    pairs = tuple((Fraction(int(v)), int(m)) for v, m in zip(values, counts))
    tau, d = pairs[0]
    spectrum = Spectrum(pairs, tau, d, "exact")
    return CayleySpectrum(g, spectrum, tuple(np.flatnonzero(lam == values[0]).tolist()))


class LeastEigenspace:
    """A graph's least eigenspace ker(A - tau I), certified once by
    least_eigenspace and passed to every check that reads it.

    Exact backend: shifted is the ExactMatrix A - tau I, and basis its d
    primitive integer echelon kernel columns, built by the pivot pass that
    certified tau and checked against A - tau I. Floating backend: a float
    shifted matrix and the orthonormal n x d eigh basis. shifted is the one
    place A - tau I is formed; every check and stress reads it from here. Two
    eigenspaces are equal when they certify the same graph object with the
    same tau, multiplicity and backend, whatever their bases.
    """

    def __init__(self, graph, spectrum, basis):
        self.graph, self.spectrum, self.basis = graph, spectrum, basis

    def _key(self):
        s = self.spectrum
        return self.graph, s.tau, s.tau_multiplicity, s.backend

    def __eq__(self, other):
        if not isinstance(other, LeastEigenspace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def is_exact(self) -> bool:
        return self.spectrum.backend == "exact"

    @functools.cached_property
    def shifted(self):
        a = adjacency_matrix(self.graph)
        if self.is_exact():
            return a - ExactMatrix.identity(a.nrows) * self.spectrum.tau
        return a.to_float() - float(self.spectrum.tau) * np.eye(a.nrows)


def _eigh_eigenspace(graph, arr, tol):
    """The ascending eigenvalues of one eigh call on arr, and the floating
    LeastEigenspace built from that same call."""
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigensolver failed to converge: {e}") from e
    pairs = tuple(_cluster(list(vals), tol))
    d = pairs[0][1]
    spectrum = Spectrum(pairs, pairs[0][0], d, "floating", tol)
    return vals, LeastEigenspace(graph, spectrum, vecs[:, :d])


def least_eigenspace(
    g: Graph, backend: str = "auto", tol: float = DEFAULT_TOL
) -> LeastEigenspace:
    """Certify a graph's least eigenvalue and return its eigenspace.

    This is the one place a backend is chosen: every check takes a Graph,
    certified here with the defaults, or the LeastEigenspace this returns,
    and follows its backend. backend "exact" raises UnsupportedInputError
    unless the least eigenvalue is an integer; "floating" returns the
    eigenspace of one eigh call, clustered within tol, and never certifies;
    "auto" certifies an integer one, else returns the floating eigenspace of
    the same eigh call that guessed tau: auto trusts eigh to within 1e-6
    when it routes an input to floating, as a least value farther from
    every integer is not tested. Only tau is certified; the pairs above it
    are eigh clusters. TypeError for anything but a Graph: an eigenspace of
    a bare matrix would have no graph to form A - tau I from.
    """
    if backend not in ("auto", "exact", "floating"):
        raise ValueError(f"unknown backend {backend!r}")
    if not isinstance(g, Graph):
        raise TypeError("least eigenspace needs a Graph")
    if g.n == 0:
        raise ValueError("empty graph has no spectrum")
    a = adjacency_matrix(g)
    vals, floating = _eigh_eigenspace(g, a.to_float(), tol)
    if backend == "floating":
        return floating
    rows, lam = a.num, float(vals[0])
    k = round(lam)
    if abs(lam - k) <= 1e-6:
        status, basis = _least_kernel(rows, k)
        found = (k, basis) if status == "psd" else _integer_bracket(rows)
    else:
        found = None if backend == "auto" else _integer_bracket(rows)
    if found is None:
        if backend == "exact":
            raise UnsupportedInputError(
                "exact backend unavailable: least eigenvalue is not an integer"
            )
        return floating
    tau, basis = Fraction(found[0]), found[1]
    d = len(basis)
    pairs = ((tau, d), *_cluster(list(vals[d:]), tol))
    return LeastEigenspace(g, Spectrum(pairs, tau, d, "exact"), basis)


def _eigenspace_of(g) -> LeastEigenspace:
    """A LeastEigenspace as given, or a Graph's, certified by least_eigenspace
    with its defaults."""
    return g if isinstance(g, LeastEigenspace) else least_eigenspace(g)
