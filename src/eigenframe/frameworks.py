"""Frameworks on graphs: Gram matrices, domination, stresses.

A framework assigns a vector to each vertex; the Gram matrix of those
vectors is the object everything here works with, and its one
representation, since congruence (equal Grams) is the equivalence that
matters. The rows of any rank factorization serve as concrete points: on the
floating path the orthonormal eigenspace basis (LeastEigenspace.basis). On
the exact path the least-eigenvalue framework is represented by the
projector onto the least eigenspace: the projector is rational whenever the
eigenvalue is integral, while an orthonormal point matrix generally is not,
and the two differ only by congruence.

Domination compares two frameworks on the same graph entrywise: p dominates
q when their Grams agree on the diagonal and q's is at most p's on every
edge. A stress is a PSD matrix supported on the diagonal and the edges, with
nonnegative edge entries, that annihilates the framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, UnsupportedInputError
from .exact import (
    ExactMatrix,
    LeastEigenspace,
    _eigenspace_of,
    is_psd_exact,
    least_eigenspace,
    projector_onto_nullspace,
    rank_exact,
)
from .graphs import (
    Graph,
    _q_kneser_with_masks,
    kneser,
    kneser_vertices,
)
from .modular import gaussian_binomial
from .serialize import gram_tokens, number_token

GRAM_TOL = 1e-9
FACTOR_TOL = 1e-10


def _checked_scale(factor, exact: bool):
    """factor as a Fraction (exact) or a float; ValueError unless it is
    positive and finite, which also refuses nan."""
    if not 0 < factor < math.inf:
        raise ValueError("scale factor must be positive and finite")
    return Fraction(factor) if exact else float(factor)


@dataclass(frozen=True)
class Framework:
    """Vectors on the vertices of a graph, up to congruence.

    gram, their Gram matrix, is the framework's one representation, and must
    be symmetric (floating entries within FACTOR_TOL); ValueError otherwise.
    eigenspace is the certified LeastEigenspace of the graph that the
    framework was built from, when there is one; tau and tau_multiplicity
    are read from it. d is the rank of the Gram matrix, computed from it
    unless given, and backend follows the Gram matrix.
    """

    graph: Graph
    gram: object  # ExactMatrix | np.ndarray
    eigenspace: LeastEigenspace | None = None
    d: int | None = None

    def __post_init__(self):
        n = self.graph.n
        exact = isinstance(self.gram, ExactMatrix)
        g = self.gram if exact else np.asarray(self.gram)
        if g.shape != (n, n):
            raise ValueError("gram size does not match the graph")
        if not (g.is_symmetric() if exact else np.all(np.abs(g - g.T) <= FACTOR_TOL)):
            raise ValueError("gram matrix must be symmetric")
        les = self.eigenspace
        if les is not None and (les.graph != self.graph or les.is_exact() != exact):
            raise ValueError("eigenspace belongs to another graph or backend")
        if self.d is None:
            d = rank_exact(g) if exact else int(np.linalg.matrix_rank(g))
            object.__setattr__(self, "d", d)

    @property
    def n(self):
        return self.graph.n

    def is_exact(self) -> bool:
        return isinstance(self.gram, ExactMatrix)

    @property
    def backend(self) -> str:
        return "exact" if self.is_exact() else "floating"

    @property
    def tau(self):
        return None if self.eigenspace is None else self.eigenspace.spectrum.tau

    @property
    def tau_multiplicity(self) -> int | None:
        return None if self.eigenspace is None else self.eigenspace.spectrum.tau_multiplicity

    def rescaled(self, factor) -> "Framework":
        """Scale the Gram matrix by a factor, which must be positive and
        finite (ValueError otherwise)."""
        factor = _checked_scale(factor, self.is_exact())
        gram = self.gram * factor if self.is_exact() else np.asarray(self.gram) * factor
        return Framework(self.graph, gram, self.eigenspace, self.d)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "backend": self.backend,
            "gram": gram_tokens(self.gram),
            "tau": None if self.tau is None else number_token(self.tau),
            "tau_multiplicity": self.tau_multiplicity,
        }


def least_eigenvalue_framework(g) -> Framework:
    """The framework spanned by the least adjacency eigenspace of a Graph,
    certified here, or of its LeastEigenspace, whose backend it follows.

    Exact path (integral least eigenvalue): the Gram matrix is the projector
    onto the eigenspace, computed exactly and proved by the d x d check of
    projector_onto_nullspace. Floating path: the Gram matrix of the rows of
    the orthonormal eigenbasis, which are the framework's points and stay
    readable as fw.eigenspace.basis. Either way d is the multiplicity of tau.
    """
    les = _eigenspace_of(g)
    if les.is_exact():
        gram = projector_onto_nullspace(les)
    else:
        gram = les.basis @ les.basis.T
    return Framework(les.graph, gram, les, les.spectrum.tau_multiplicity)


def _incidence_framework(g: Graph, p: ExactMatrix) -> Framework:
    for i in range(p.nrows):
        if sum(p.row(i)) != 0:
            raise InternalCheckError("incidence framework rows must sum to zero")
    return Framework(g, p @ p.transpose(), least_eigenspace(g, "exact"), rank_exact(p))


def kneser_framework(n: int, r: int) -> Framework:
    """Weighted subset-element incidence framework on the Kneser graph.

    Entry alpha = r - n on (subset, member) pairs and beta = r elsewhere, so
    each row sums to zero and the points live in the hyperplane orthogonal
    to the all-ones vector.
    """
    if r < 1 or n < 2 * r + 1:
        raise UnsupportedInputError(f"kneser framework needs n >= 2r+1, got n={n}, r={r}")
    sets = [frozenset(v) for v in kneser_vertices(n, r)]
    p = ExactMatrix([[r - n if e in s else r for e in range(n)] for s in sets])
    return _incidence_framework(kneser(n, r), p)


def qkneser_framework(q: int, n: int, r: int) -> Framework:
    """Subspace-line incidence framework on the q-Kneser graph.

    Entry alpha = [r]_q - [n]_q on (subspace, contained line) pairs and
    beta = [r]_q on the rest; [k]_q counts the lines of a k-space, so each
    row again sums to zero.
    """
    if r < 1 or n < 2 * r + 1:
        raise UnsupportedInputError(f"q-kneser framework needs n >= 2r+1, got n={n}, r={r}")
    g, masks = _q_kneser_with_masks(q, n, r)
    line_count = gaussian_binomial(r, 1, q)
    alpha = line_count - gaussian_binomial(n, 1, q)
    beta = line_count
    lines = range(gaussian_binomial(n, 1, q))
    p = ExactMatrix([[alpha if mask >> k & 1 else beta for k in lines] for mask in masks])
    return _incidence_framework(g, p)


@dataclass(frozen=True)
class StressMatrix:
    """A symmetric matrix stressing a framework, with its five defining
    checks exposed individually: positive semidefinite, supported on the
    diagonal and the edges, nonnegative on edges, annihilating the Gram
    matrix, and of corank equal to the span dimension."""

    z: ExactMatrix
    framework: Framework

    def condition_psd(self) -> bool:
        return is_psd_exact(self.z)

    def condition_support(self) -> bool:
        g = self.framework.graph
        return all(
            self.z[i, j] == 0
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if not g.has_edge(i, j)
        )

    def condition_signs(self) -> bool:
        return all(self.z[i, j] >= 0 for i, j in self.framework.graph.edges())

    def condition_annihilates(self) -> bool:
        # the columns of the Gram matrix span the points
        return (self.z @ self.framework.gram).is_zero()

    def condition_corank(self) -> bool:
        return self.z.nrows - rank_exact(self.z) == self.framework.d

    def verify(self) -> "StressMatrix":
        checks = {
            "psd": self.condition_psd,
            "support": self.condition_support,
            "signs": self.condition_signs,
            "annihilates": self.condition_annihilates,
            "corank": self.condition_corank,
        }
        failed = [name for name, fn in checks.items() if not fn()]
        if failed:
            raise InternalCheckError(f"stress matrix conditions failed: {', '.join(failed)}")
        return self


def canonical_stress(g: Graph, framework: Framework | None = None) -> StressMatrix:
    """The shifted adjacency matrix as a stress for the least-eigenvalue
    framework: subtracting the least eigenvalue from the diagonal gives a
    PSD matrix supported on edges whose kernel is exactly the eigenspace.

    The stress is the framework's certified A - tau I
    (LeastEigenspace.shifted), whose edge entries are 1. Requires an
    integral least eigenvalue and a framework on g that carries its
    eigenspace (ValueError otherwise); all five conditions are verified
    before returning.
    """
    if framework is None:
        framework = least_eigenvalue_framework(least_eigenspace(g, "exact"))
    if framework.graph != g:
        raise ValueError("framework belongs to another graph")
    if not framework.is_exact():
        raise UnsupportedInputError("canonical stress needs the exact backend")
    if framework.eigenspace is None:
        raise ValueError("framework carries no eigenspace")
    return StressMatrix(framework.eigenspace.shifted, framework).verify()


def _float_grams(p: Framework, q: Framework):
    """The two Grams as float arrays, exact ones rounded."""
    return [f.gram.to_float() if f.is_exact() else np.asarray(f.gram, dtype=float) for f in (p, q)]


def dominates(p: Framework, q: Framework) -> bool:
    """Entrywise Gram comparison on the shared graph: equality on the
    diagonal, q <= p on every edge, floating entries within GRAM_TOL. Two
    exact Grams pn / pd and qn / qd compare their integer numerators:
    q_ij <= p_ij iff qn_ij pd <= pn_ij qd."""
    if p.graph != q.graph:
        raise ValueError("frameworks live on different graphs")
    if p.is_exact() and q.is_exact():
        pn, pd, qn, qd = p.gram.num, p.gram.den, q.gram.num, q.gram.den
        return all(qn[i][i] * pd == pn[i][i] * qd for i in range(p.n)) and all(
            qn[i][j] * pd <= pn[i][j] * qd for i, j in p.graph.edges()
        )
    pg, qg = _float_grams(p, q)
    return all(abs(qg[i, i] - pg[i, i]) <= GRAM_TOL for i in range(p.n)) and all(
        qg[i, j] <= pg[i, j] + GRAM_TOL for i, j in p.graph.edges())


def congruent(p: Framework, q: Framework) -> bool:
    """Equal Gram matrices: exactly, or floating entries within GRAM_TOL."""
    if p.n != q.n:
        raise ValueError("frameworks have different sizes")
    if p.is_exact() and q.is_exact():
        return p.gram == q.gram
    pg, qg = _float_grams(p, q)
    return bool(np.all(np.abs(pg - qg) <= GRAM_TOL))
