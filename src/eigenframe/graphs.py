"""Graph type, graph6 codec, and the graph families used throughout.

Vertices are 0..n-1 and adjacency is stored as one neighbour bitmask per
vertex. Graphs are immutable; every operation returns a new Graph. Graphs
are plain: edges carry no labels, and frameworks.py reads every edge alike.

Canonical vertex orders are part of the contract: r-subsets are listed in
colex order, r-subspaces in lex order of their reduced-echelon basis
matrices, and Cayley graphs on Z_2^n use the integer encoding of the group
elements.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .errors import Graph6Error, InternalCheckError, ResourceLimitError, UnsupportedInputError
from .modular import gaussian_binomial, gf2_rank, line_masks

SYSTEM_BYTE_CAP = 1 << 30  # largest matrix, linear system or list allocated, at 8 bytes a cell
# graph6 packs the n(n - 1)/2 upper-triangle bits six to a character, about
# n^2/12 cells; at 8 bytes a cell they stay within SYSTEM_BYTE_CAP up to
# isqrt(12 * 2^30 / 8) = 40132 vertices
VERTEX_CAP = math.isqrt(12 * SYSTEM_BYTE_CAP // 8)


def check_budget(cells: int, what: str) -> None:
    """ResourceLimitError, naming what, when cells at 8 bytes a cell exceed
    SYSTEM_BYTE_CAP: every matrix, system and list whose size an input sets
    is checked here before it is built (or grown)."""
    if 8 * cells > SYSTEM_BYTE_CAP:
        raise ResourceLimitError(f"{what} exceeds the {SYSTEM_BYTE_CAP}-byte budget")


@dataclass(frozen=True)
class Graph:
    n: int
    nbr: tuple  # bitmask of neighbours per vertex

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.nbr) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        # every upper bit (i, j), i < j, needs its lower mirror (j, i); equal
        # totals then leave no lower bit without its upper one
        nbr = self.nbr
        bits = upper = 0
        for i, mask in enumerate(nbr):
            if mask >> self.n:
                raise ValueError(f"neighbour mask of vertex {i} leaves the vertex range")
            if mask >> i & 1:
                raise ValueError(f"loop at vertex {i}")
            bits += mask.bit_count()
            m = mask >> (i + 1)
            upper += m.bit_count()
            while m:
                low = m & -m
                j = low.bit_length() + i
                if not nbr[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")
                m ^= low
        if bits != 2 * upper:  # some lower bit has no upper mirror: name it
            for j, mask in enumerate(nbr):
                m = mask & ((1 << j) - 1)
                while m:
                    low = m & -m
                    i = low.bit_length() - 1
                    if not nbr[i] >> j & 1:
                        raise ValueError(f"adjacency not symmetric at ({i}, {j})")
                    m ^= low

    def edges(self):
        out = []
        for i in range(self.n):
            m = self.nbr[i] >> (i + 1) << (i + 1)
            while m:
                j = (m & -m).bit_length() - 1
                out.append((i, j))
                m &= m - 1
        return out

    def num_edges(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def has_edge(self, i, j) -> bool:
        return bool(self.nbr[i] >> j & 1)

    def degree(self, i) -> int:
        return self.nbr[i].bit_count()

    def neighbours(self, i):
        m = self.nbr[i]
        while m:
            j = (m & -m).bit_length() - 1
            yield j
            m &= m - 1

    def adjacency_rows(self):
        return [[self.nbr[i] >> j & 1 for j in range(self.n)] for i in range(self.n)]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                nxt |= self.nbr[v]
                m &= m - 1
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def relabel(self, perm):
        """Image under the vertex permutation i -> perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertices")
        nbr = [0] * self.n
        for i in range(self.n):
            m = self.nbr[i]
            while m:
                j = (m & -m).bit_length() - 1
                nbr[perm[i]] |= 1 << perm[j]
                m &= m - 1
        return Graph(self.n, tuple(nbr))


def from_edges(n, edges) -> Graph:
    nbr = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside vertex range")
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return Graph(n, tuple(nbr))


@dataclass(frozen=True)
class CayleySpec:
    """Connection set for a Cayley graph on Z_2^n, elements as bit vectors."""

    n: int
    connection_set: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("group rank must be at least 1")
        object.__setattr__(self, "connection_set", frozenset(self.connection_set))
        for c in self.connection_set:
            if not 0 < c < (1 << self.n):
                raise ValueError(f"connection element {c} outside Z_2^{self.n} minus zero")

    def spans(self) -> bool:
        return gf2_rank(self.connection_set) == self.n


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_read_n(data, pos):
    if pos >= len(data):
        raise Graph6Error("missing vertex count", pos)
    b = data[pos]
    if not 63 <= b <= 126:
        raise Graph6Error(f"byte {b} outside graph6 range", pos)
    if b < 126:
        return b - 63, pos + 1
    if pos + 1 < len(data) and data[pos + 1] == 126:
        chunk, start = data[pos + 2 : pos + 8], pos + 2
        width = 6
    else:
        chunk, start = data[pos + 1 : pos + 4], pos + 1
        width = 3
    if len(chunk) < width:
        raise Graph6Error("truncated extended vertex count", len(data))
    n = 0
    for k, byte in enumerate(chunk):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside graph6 range", start + k)
        n = n << 6 | (byte - 63)
    return n, start + width


def parse_graph6(s) -> Graph:
    """Decode one graph6 string (optionally prefixed by the standard header).
    A str must be ASCII: Graph6Error at its first other character."""
    if isinstance(s, bytes):
        data = s
    else:
        try:
            data = s.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"character {s[exc.start]!r} is not ASCII", exc.start) from None
    data = data.rstrip(b"\r\n")
    pos = 0
    if data.startswith(_G6_HEADER.encode()):
        pos = len(_G6_HEADER)
    n, pos = _g6_read_n(data, pos)
    if n > VERTEX_CAP:
        raise ResourceLimitError(f"graph6 declares {n} vertices, cap is {VERTEX_CAP}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, found {len(data) - pos}", pos
        )
    bits = []
    for k in range(nbytes):
        byte = data[pos + k]
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside graph6 range", pos + k)
        group = byte - 63
        bits.extend(group >> t & 1 for t in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    nbr = [0] * n
    it = iter(bits)
    # bits run through columns j = 1..n-1, rows i = 0..j-1
    for j in range(1, n):
        for i in range(j):
            if next(it):
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return Graph(n, tuple(nbr))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a header-less graph6 string."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    elif n <= 258047:
        out = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        out = [126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
    group, filled = 0, 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | (g.nbr[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


# -- generators --------------------------------------------------------------


def cycle(n) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    if n > VERTEX_CAP:
        raise ResourceLimitError(f"{n} vertices exceeds the cap of {VERTEX_CAP}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _colex_subsets(n, r):
    return sorted(itertools.combinations(range(n), r), key=lambda s: tuple(reversed(s)))


def kneser(n, r) -> Graph:
    """Kneser graph: r-subsets of an n-set, adjacent when disjoint.

    Vertices come in colex order of the subsets. The neighbours of a subset
    are the r-subsets of its complement, so the build makes N * C(n - r, r)
    lookups rather than N^2 / 2 pair tests.
    """
    if r < 1 or n < r:
        raise ValueError("need 1 <= r <= n")
    if math.comb(n, r) > VERTEX_CAP:
        raise ResourceLimitError(f"{math.comb(n, r)} vertices exceeds the cap of {VERTEX_CAP}")
    verts = _colex_subsets(n, r)
    index = {sum(1 << i for i in s): k for k, s in enumerate(verts)}
    nbr = []
    for s in verts:
        rest = [i for i in range(n) if i not in s]
        nbr.append(sum(1 << index[sum(1 << i for i in t)] for t in itertools.combinations(rest, r)))
    return Graph(len(verts), tuple(nbr))


def kneser_vertices(n, r):
    """The colex-ordered subset labels matching kneser(n, r)'s vertex ids."""
    return _colex_subsets(n, r)


def _is_prime(q):
    if q < 2:
        return False
    for d in range(2, int(q**0.5) + 1):
        if q % d == 0:
            return False
    return True


def q_kneser(q, n, r) -> Graph:
    """q-Kneser graph: r-subspaces of F_q^n, adjacent on trivial intersection.

    Vertices are sorted lex by their reduced-echelon basis matrices, and two
    are adjacent when their line masks (line_masks) are disjoint.
    """
    return _q_kneser_with_masks(q, n, r)[0]


def _q_kneser_with_masks(q, n, r):
    """(q_kneser(q, n, r), its vertices' line masks), the masks None when
    2r > n. A graph whose adjacency matrix adjacency_matrix would refuse is
    refused before the masks are built. When 2r > n every two r-subspaces
    U, W meet, as dim(U cap W) >= 2r - n > 0, so the graph is edgeless and no
    mask is built; otherwise the [r]_q lines per subspace and the [n]_q lines
    of F_q^n number at most the vertex count.
    """
    if not _is_prime(q):
        raise UnsupportedInputError(f"q must be prime, got {q}")
    if r < 1 or n < r:
        raise ValueError("need 1 <= r <= n")
    count = gaussian_binomial(n, r, q)
    check_budget(count * count, f"{count} x {count} matrix")
    if 2 * r > n:
        return from_edges(count, []), None
    masks = line_masks(q, n, r)
    edges = [
        (a, b) for a in range(count) for b in range(a + 1, count) if not masks[a] & masks[b]
    ]
    return from_edges(count, edges), masks


def cayley_z2(spec: CayleySpec) -> Graph:
    """Cayley graph of Z_2^n with the given connection set."""
    if spec.n >= VERTEX_CAP.bit_length():  # 2^n > VERTEX_CAP
        raise ResourceLimitError(f"2^{spec.n} vertices exceeds the cap of {VERTEX_CAP}")
    n_verts = 1 << spec.n
    nbr = [0] * n_verts
    for v in range(n_verts):
        for c in spec.connection_set:
            nbr[v] |= 1 << (v ^ c)
    return Graph(n_verts, tuple(nbr))


# -- operations --------------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~m & ~(1 << i)) for i, m in enumerate(g.nbr)))


def induced_subgraph(g: Graph, keep) -> Graph:
    keep = sorted(keep)
    index = {v: i for i, v in enumerate(keep)}
    nbr = [0] * len(keep)
    for v in keep:
        m = g.nbr[v]
        while m:
            w = (m & -m).bit_length() - 1
            if w in index:
                nbr[index[v]] |= 1 << index[w]
            m &= m - 1
    return Graph(len(keep), tuple(nbr))


def is_split(g: Graph):
    """Degree-sequence split test.

    Returns (True, (clique, independent_set)) or (False, None). The witness
    partition is verified before being returned.
    """
    order = sorted(range(g.n), key=g.degree, reverse=True)
    degs = [g.degree(v) for v in order]
    m = 0
    for i in range(1, g.n + 1):
        if degs[i - 1] >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    if lhs != rhs:
        return False, None
    clique, indep = order[:m], order[m:]
    for a, b in itertools.combinations(clique, 2):
        if not g.has_edge(a, b):
            raise InternalCheckError("split witness clique is not a clique")
    for a, b in itertools.combinations(indep, 2):
        if g.has_edge(a, b):
            raise InternalCheckError("split witness independent set has an edge")
    return True, (clique, indep)


def maximal_cliques(g: Graph, min_size: int = 0):
    """All maximal cliques of at least min_size vertices as vertex lists
    (Bron-Kerbosch with pivoting).

    The search keeps [r, p, x, candidates] frames on an explicit stack and
    emits cliques in depth-first order, dropping a frame whose r | p holds
    fewer than min_size vertices. It is not a recursive closure: a
    closure that calls itself sits in a reference cycle, which every call
    would leave behind for the cyclic collector. Each listed clique is
    charged to check_budget, before the result grows, as the bytes its list
    takes with its over-allocation (sys.getsizeof) plus 2 cells for its slot
    in the result, which over-allocates by up to an eighth. Every clique
    holds the same int object per vertex, so none of them owns an int. A
    graph with too many cliques (K_{3,...,3} on k parts has 3^k) is refused
    before memory runs out.
    """
    out = []
    listed = 0
    vertices = list(range(g.n))
    stack = [[0, (1 << g.n) - 1, 0, None]] if g.n else []
    while stack:
        frame = stack[-1]
        r, p, x, cand = frame
        if cand is None:
            if (r | p).bit_count() < min_size:
                stack.pop()
                continue
            if not p and not x:
                clique = [v for v in vertices if r >> v & 1]
                listed += sys.getsizeof(clique) // 8 + 2
                check_budget(listed, f"the list of {len(out) + 1} maximal cliques")
                out.append(clique)
                stack.pop()
                continue
            pool = p | x
            pivot = max(
                (v for v in range(g.n) if pool >> v & 1),
                key=lambda v: (p & g.nbr[v]).bit_count(),
            )
            cand = p & ~g.nbr[pivot]
        if not cand:
            stack.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        frame[1:] = [p & ~bit, x | bit, cand & (cand - 1)]
        stack.append([r | bit, p & g.nbr[v], x & g.nbr[v], None])
    return out
