"""Vector colorings from least-eigenvalue frameworks.

A vector t-coloring places unit vectors on the vertices with inner products
at most -1/(t-1) across every edge, strictly when equality holds on all of
them. For 1-walk-regular graphs the projector onto the least eigenspace has
constant diagonal d/n and constant edge entries, so scaling it by n/d gives
a strict coloring that is in fact optimal, and the graph is uniquely vector
colorable exactly when the completability witness space is trivial. When it
is not, adding a scaled witness to the projector yields a second optimal
coloring with the same value, which is the certificate this module emits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError
from .exact import (
    ExactMatrix,
    LeastEigenspace,
    _eigenspace_of,
    is_psd_exact,
)
from .completability import XSpaceBasis, dominated_frameworks, xspace
from .frameworks import least_eigenvalue_framework
from .graphs import Graph, check_budget

EDGE_TOL = 1e-9

VALID_STRICT = "valid-strict"
VALID = "valid"
INVALID = "invalid"


@dataclass(frozen=True)
class VectorColoring:
    graph: Graph
    gram: object  # ExactMatrix | np.ndarray
    t: object  # Fraction | float
    strict: bool
    backend: str


@dataclass(frozen=True)
class OneWalkRegularCertificate:
    """Walk-count constants a_k (closed walks) and b_k (edge walks) for
    k = 0..k_max, with the first counterexample when the graph fails."""

    ok: bool
    a_seq: tuple
    b_seq: tuple
    k_max: int
    failure: tuple | None = None  # (k, i, j) entry breaking constancy

    def describe_failure(self) -> str:
        if self.ok:
            return "regular walk counts at every checked power"
        k, i, j = self.failure
        where = f"vertex {i}" if i == j else f"edge ({i}, {j})"
        return f"walk counts of length {k} break at {where}"


def is_one_walk_regular(g: Graph) -> OneWalkRegularCertificate:
    """Check that A^k has constant diagonal and constant edge entries for
    k = 0, 1, ... up to the degree of the minimal polynomial minus one.

    The first power that is exactly linearly dependent on the lower ones
    ends the check: it and every higher power are combinations of the
    checked ones, so constancy there is implied. A^1 is always checked.

    Each power is kept as rows of Python ints, and row i of A^k is the sum
    of the rows of A^(k-1) at the neighbours of i, so no matrix product is
    formed. Every power is symmetric, and a symmetric matrix is zero exactly
    when its upper triangle (diagonal included) is, so the upper triangles
    are linearly dependent exactly when the powers are: independence is
    tested on them. ResourceLimitError over the byte budget of the n x n
    powers (check_budget), before any is built.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    check_budget(n * n, f"{n} x {n} matrix")
    nbrs = [list(g.neighbours(i)) for i in range(n)]
    edges = g.edges()
    zero = [0] * n
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    a_seq, b_seq, echelon = [], [], []
    for k in itertools.count():
        if k:
            power = [list(map(sum, zip(*[power[l] for l in nbrs[i]]))) if nbrs[i] else zero
                     for i in range(n)]
        independent = _extends_echelon(echelon, [x for i, row in enumerate(power) for x in row[i:]])
        if k > 1 and not independent:
            return OneWalkRegularCertificate(True, tuple(a_seq), tuple(b_seq), k - 1)
        diag = power[0][0]
        edge_val = power[edges[0][0]][edges[0][1]] if edges else 0
        for i, j in [(i, i) for i in range(1, n)] + edges:
            if power[i][j] != (diag if i == j else edge_val):
                return OneWalkRegularCertificate(False, tuple(a_seq), tuple(b_seq), k, (k, i, j))
        a_seq.append(Fraction(diag))
        b_seq.append(Fraction(edge_val))


def _extends_echelon(echelon, vec) -> bool:
    """Reduce the integer vector against the echelon rows (pivot, row) and
    append the primitive remainder; False if vec is dependent on the rows."""
    for p, row in echelon:
        if vec[p]:
            f, g = row[p], vec[p]
            vec = [f * x - g * y for x, y in zip(vec, row)]
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if pivot is None:
        return False
    g = math.gcd(*vec)
    echelon.append((pivot, [x // g for x in vec]))
    return True


@dataclass(frozen=True)
class ColoringVerdict:
    status: str
    violation: tuple | None = None  # (kind, i, j)

    def __bool__(self):
        return self.status != INVALID


def validate_coloring(g: Graph, gram, t) -> ColoringVerdict:
    """Unit diagonal, positive semidefiniteness, and the edge bound, in that
    order, reporting the first violation.

    An ExactMatrix with a rational t is checked exactly, as the floating
    check at tolerance 0 with the exact PSD test; any other input is
    checked in floats within EDGE_TOL.

    t must exceed 1 whenever the graph has edges (the bound -1/(t-1) is
    meaningless otherwise); edgeless graphs accept t = 1.
    """
    exact = isinstance(gram, ExactMatrix) and isinstance(t, (Fraction, int))
    if exact:
        t, eps = Fraction(t), 0
    else:
        gram = gram.to_float() if isinstance(gram, ExactMatrix) else np.asarray(gram, dtype=float)
        t, eps = float(t), EDGE_TOL
    if t <= 1 and (g.num_edges() > 0 or t < 1):
        raise ValueError("coloring value must exceed 1")
    for i in range(g.n):
        if abs(gram[i, i] - 1) > eps:
            return ColoringVerdict(INVALID, ("diagonal", i, i))
    if exact:
        psd = is_psd_exact(gram)
    else:
        w = np.linalg.eigvalsh(gram)
        psd = not w[0] < -EDGE_TOL * max(1.0, float(w[-1]))
    if not psd:
        return ColoringVerdict(INVALID, ("psd", -1, -1))
    if g.num_edges() == 0:
        return ColoringVerdict(VALID_STRICT)
    bound = -1 / (t - 1)
    strict = True
    for i, j in g.edges():
        if gram[i, j] > bound + eps:
            return ColoringVerdict(INVALID, ("edge", i, j))
        if abs(gram[i, j] - bound) > eps:
            strict = False
    return ColoringVerdict(VALID_STRICT if strict else VALID)


def _require_1wr(g) -> None:
    cert = is_one_walk_regular(g.graph if isinstance(g, LeastEigenspace) else g)
    if not cert.ok:
        raise ValueError(f"graph is not 1-walk-regular: {cert.describe_failure()}")


def optimal_vector_coloring_1wr(g) -> VectorColoring:
    """The least-eigenspace coloring of a 1-walk-regular graph, given as a
    Graph, certified here, or as its LeastEigenspace.

    Gram matrix (n/d) times the eigenprojector; value t = 1 - r/tau with r
    the common degree. Strictness is rechecked rather than assumed.
    """
    _require_1wr(g)
    return _eigenspace_coloring(_eigenspace_of(g))[0]


def _eigenspace_coloring(les):
    """(coloring, framework) of a 1-walk-regular graph; no framework if edgeless."""
    g = les.graph
    if g.num_edges() == 0:
        return VectorColoring(g, ExactMatrix.identity(g.n), Fraction(1), True, "exact"), None
    fw = least_eigenvalue_framework(les)
    r = g.degree(0)
    t = 1 - Fraction(r) / fw.tau if fw.is_exact() else 1.0 - r / float(fw.tau)
    return _scaled_coloring(fw, fw.d, t), fw


def _scaled_coloring(fw, d, t) -> VectorColoring:
    """The framework's Gram matrix times n/d, checked to be a strict t-coloring."""
    g = fw.graph
    gram = fw.rescaled(Fraction(g.n, d) if fw.is_exact() else g.n / d).gram
    verdict = validate_coloring(g, gram, t)
    if verdict.status != VALID_STRICT:
        raise InternalCheckError(f"scaled framework is not a strict coloring: {verdict}")
    return VectorColoring(g, gram, t, True, fw.backend)


@dataclass(frozen=True)
class UVCResult:
    uvc: bool
    coloring: VectorColoring
    witness_space: XSpaceBasis | None
    alternate: VectorColoring | None = None
    reason: str | None = None

    @property
    def x_dim(self):
        return self.witness_space.dim if self.witness_space is not None else None


def is_uniquely_vector_colorable_1wr(g) -> UVCResult:
    """Decide unique vector colorability of a 1-walk-regular graph, given as
    a Graph, certified here, or as its LeastEigenspace.

    Unique exactly when the graph is connected and the completability
    witness space is trivial. Negative verdicts come with a second optimal
    coloring whenever one can be built: the eigenspace coloring plus a
    scaled witness, which keeps the diagonal, the edge values, and hence the
    value t. A floating witness is checked within the tolerance its
    eigenspace was clustered with.
    """
    _require_1wr(g)
    les = _eigenspace_of(g)
    g = les.graph
    coloring, fw = _eigenspace_coloring(les)
    if g.num_edges() == 0:
        if g.n == 1:
            return UVCResult(True, coloring, None)
        ones = ExactMatrix([[1] * g.n for _ in range(g.n)])
        alt = VectorColoring(g, ones, Fraction(1), True, "exact")
        return UVCResult(False, coloring, None, alt, "no edges, any unit vectors do")
    xs = xspace(les)
    if g.is_connected() and xs.dim == 0:
        return UVCResult(True, coloring, xs)
    reason = None if g.is_connected() else "disconnected, components move independently"
    alternate = None
    if xs.dim > 0:
        shifted = dominated_frameworks(fw, xs.basis[0])
        alternate = _scaled_coloring(shifted, fw.d, coloring.t)
        if fw.is_exact() and alternate.gram == coloring.gram:
            raise InternalCheckError("second coloring equals the first")
    return UVCResult(False, coloring, xs, alternate, reason)
