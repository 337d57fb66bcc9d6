"""Census of connected Cayley graphs on the binary hypercube groups.

Connection sets are subsets of the nonzero vectors of GF(2)^n, identified
when an invertible linear map carries one onto the other; for n up to 5
this matches graph isomorphism of the resulting Cayley graphs. Each orbit
is represented by its lexicographically least member (vectors read as
integers, sets as sorted tuples).

Enumeration is orderly: the least member of an orbit stays least after
dropping its largest element, so every representative arises by extending a
smaller representative with a strictly larger vector, and each candidate
extension is kept only if a depth-first search fails to find a linear map
beating it. The search grows a partial invertible map one prefix value at a
time and wins as soon as any completion is forced below the candidate, so
it never enumerates the full group.

The searches run on integer state. A set of vectors is a bitmask (bit v for
vector v), and a partial linear map is a tuple: its domain list, an image
table indexed by vector, the domain and the image span as bitmasks, and the
bitmask of the images of the set elements already in the domain
(_extend_map). Each pruning test is then one or two integer operations, two
equal-size sets compare lexicographically by which of them holds the least
element of their symmetric difference (_precedes), an elementary map acts on
a set as one delta swap, and the upward search reads each coset's candidate
images from a per-n table (_search_tables).

Verdicts run on the characters of Z_2^n, which diagonalise every Cayley
graph of the group: cayley_spectrum proves the spectrum on the built graph,
and the witness-space dimension is the rank deficiency of the R-system on
the tau characters, which splits into independent blocks, one for each
w = u ^ v (_x_dim_by_blocks). No linear system over the vertices is built.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

from .errors import UnsupportedInputError
from .exact import cayley_spectrum, characters, rank_exact
from .graphs import CayleySpec
from .modular import gf2_rank

MAX_DIMENSION = 5

EQUIVALENCE_NOTE = (
    "connection sets identified up to invertible linear maps of GF(2)^n; "
    "representatives are lexicographically minimal"
)


def _empty_map(n: int) -> tuple:
    """The partial linear map defined on {0} only (see _extend_map)."""
    return [0], [0] * (1 << n), 1, 1, 0


def _extend_map(state: tuple, u: int, value: int, set_mask: int) -> tuple:
    """Extend a partial linear map by u -> value; domain and image double.

    state is (domain, table, dom_mask, img_mask, det_mask): the domain
    elements in insertion order, 0 first; table[v], the image of each of
    them; the domain and the image span as bitmasks (both hold 0); and the
    images of the domain elements that lie in the set set_mask.
    """
    domain, table, dom_mask, img_mask, det_mask = state
    table = table.copy()
    added = []
    for v in domain:
        w = v ^ u
        y = table[w] = table[v] ^ value
        added.append(w)
        dom_mask |= 1 << w
        img_mask |= 1 << y
        if set_mask >> w & 1:
            det_mask |= 1 << y
    return domain + added, table, dom_mask, img_mask, det_mask


@functools.lru_cache(maxsize=MAX_DIMENSION)
def _search_tables(n: int) -> tuple:
    """Per-n bitmask tables of the canonicity searches, built on first use.

    swaps lists (mask, 2^i) for each elementary map e_j -> e_j + e_i, i outer:
    the map swaps each v in mask (bit j set, bit i clear) with v + 2^i.
    above[bound][img] is the set of y with y ^ img > bound.
    """
    limit = 1 << n
    swaps = []
    for i in range(n):
        for j in range(n):
            if i != j:
                mask = sum(1 << v for v in range(limit) if v >> j & 1 and not v >> i & 1)
                swaps.append((mask, 1 << i))
    above = [
        [sum(1 << y for y in range(limit) if y ^ img > bound) for img in range(limit)]
        for bound in range(limit)
    ]
    return swaps, above


def _prefix_masks(s: tuple) -> list:
    """prefix[p] is the bitmask of s[:p], for p = 0..len(s)."""
    prefix = [0]
    for v in s:
        prefix.append(prefix[-1] | 1 << v)
    return prefix


def _precedes(a: int, b: int) -> bool:
    """Does the sorted set a precede the equal-size sorted set b?

    They first differ at the least element of a ^ b, which lies in exactly
    one of them; the set holding it is the smaller.
    """
    x = a ^ b
    return bool(a & x & -x)


def _transvection_images(n: int, set_mask: int):
    """Images of a set under the elementary maps e_j -> e_j + e_i.

    These generate the whole group, and a single application already beats
    most non-extremal sets, so both searches try them before any branching.
    Each image is one delta swap of the bitmask.
    """
    for mask, shift in _search_tables(n)[0]:
        t = ((set_mask >> shift) ^ set_mask) & mask
        yield set_mask ^ t ^ (t << shift)


def _beaten_downward(n: int, s: tuple) -> bool:
    """Is there an invertible map whose sorted image precedes s?

    Builds the image in sorted order against s itself, branching over which
    element supplies the next prefix value. Distinct branches yield distinct
    partial maps (the assignment order is pinned to prefix positions), so
    no memoization is needed. A branch wins as soon as a determined-but-
    unmatched image, or a fresh assignment outside the current image span,
    can land below the next prefix value: any completion then sorts
    strictly below s. Once the partial map spans everything it is a full
    group element and is compared outright.
    """
    m = len(s)
    prefix = _prefix_masks(s)
    s_mask = prefix[m]
    size = 1 << n
    for image in _transvection_images(n, s_mask):
        if _precedes(image, s_mask):
            return True

    def dfs(state: tuple, p: int) -> bool:
        if p == m:
            return False
        domain, _, dom_mask, img_mask, det_mask = state
        if len(domain) == size:
            return _precedes(det_mask, s_mask)
        sp = s[p]
        det_unconsumed = det_mask & ~prefix[p]
        if det_unconsumed & ((1 << sp) - 1):
            return True
        free = s_mask & ~dom_mask
        if free and (img_mask & ((1 << sp) - 2)).bit_count() < sp - 1:
            return True  # some value under sp lies outside the image span
        if det_unconsumed >> sp & 1:
            return dfs(state, p + 1)
        if img_mask >> sp & 1:
            return False
        while free:  # ascending
            low = free & -free
            if dfs(_extend_map(state, low.bit_length() - 1, sp, s_mask), p + 1):
                return True
            free ^= low
        return False

    return dfs(_empty_map(n), 0)


def _can_exceed(state: tuple, d_mask: int, bound: int, above: list) -> bool:
    """Can the map finish with every still-unassigned image above bound?

    The unassigned elements of d_mask split into cosets of the assigned
    span; one image choice per coset forces the rest of it. Candidate
    values per coset are intersected as bitmasks up front ("value itself
    above bound and outside the image span, every forced mate above bound
    too", each mate's mask read from above[bound]), so an unplaceable coset
    fails before any branching. Branching recurses on the most constrained
    coset; images already in the map are the caller's responsibility.
    """
    domain, table, dom_mask, img_mask, _ = state
    free = d_mask & ~dom_mask
    if not free:
        return True
    row = above[bound]
    avail = row[0] & ~img_mask
    if not avail:
        return False
    cosets = []
    grouped = 0
    while free:  # ascending
        low = free & -free
        free ^= low
        if grouped & low:
            continue
        u = low.bit_length() - 1
        cand = avail
        for v in domain:
            w = v ^ u
            if d_mask >> w & 1:
                grouped |= 1 << w
                cand &= row[table[v]]
                if not cand:
                    return False
        cosets.append((cand.bit_count(), u, cand))
    if len(cosets) > avail.bit_count():
        return False
    _, u, cand = min(cosets)  # the first coset with fewest candidates
    while cand:  # descending
        y = cand.bit_length() - 1
        if _can_exceed(_extend_map(state, u, y, d_mask), d_mask, bound, above):
            return True
        cand ^= 1 << y
    return False


def _beaten_upward(n: int, d: tuple) -> bool:
    """Is there an invertible map whose sorted image follows d?

    Mirror of the downward search, used through complements. A branch wins
    at position p only when d[p] is not pinned by a determined image and
    every remaining image can be pushed strictly above d[p]; unlike the
    downward case that is a genuine feasibility search, not a free ride. A
    determined unmatched image below d[p] kills the branch outright.
    """
    m = len(d)
    limit = 1 << n
    prefix = _prefix_masks(d)
    d_mask = prefix[m]
    if d_mask >> (limit - m) == (1 << m) - 1:
        return False  # the m largest vectors: nothing sorts above this
    for image in _transvection_images(n, d_mask):
        if _precedes(d_mask, image):
            return True
    above = _search_tables(n)[1]

    def dfs(state: tuple, p: int) -> bool:
        if p == m:
            return False
        _, _, dom_mask, img_mask, det_mask = state
        dp = d[p]
        det_unconsumed = det_mask & ~prefix[p]
        if det_unconsumed & ((1 << dp) - 1):
            return False  # forced at or below the prefix: cannot exceed
        if det_unconsumed >> dp & 1:
            return dfs(state, p + 1)
        if limit - 1 - dp >= m - p and _can_exceed(state, d_mask, dp, above):
            return True
        if img_mask >> dp & 1:
            return False
        free = d_mask & ~dom_mask
        while free:  # ascending
            low = free & -free
            if dfs(_extend_map(state, low.bit_length() - 1, dp, d_mask), p + 1):
                return True
            free ^= low
        return False

    return dfs(_empty_map(n), 0)


def _is_canonical(n: int, s: tuple) -> bool:
    """Is the sorted tuple s the lex-least member of its orbit?

    Dense sets are tested through their complements: with N the nonzero
    vectors, sorted(N minus X) precedes sorted(N minus Y) exactly when
    sorted(Y) precedes sorted(X), so s is lex-least iff N minus s is
    lex-greatest in its own orbit. Both searches then only ever run on
    sets of at most half the vectors.
    """
    m = len(s)
    if s[0] != 1:
        return False  # some map sends any chosen element to 1
    if s[m - 1] == m:
        return True  # the m smallest vectors: nothing sorts below this
    limit = 1 << n
    if m >= limit // 2:
        members = set(s)
        complement = tuple(v for v in range(1, limit) if v not in members)
        return not _beaten_upward(n, complement)
    return not _beaten_downward(n, s)


def enumerate_orbits(n: int, spanning_only: bool = True):
    """Sorted representatives of connection-set orbits in GF(2)^n.

    spanning_only keeps exactly the connected Cayley graphs (a set spans
    iff the graph is connected). The recursion still passes through
    non-spanning representatives, since their extensions may span.
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise UnsupportedInputError(
            f"orbit enumeration supports dimensions 1..{MAX_DIMENSION}, got {n}"
        )
    out = []
    limit = 1 << n

    def extend(s):
        if not spanning_only or gf2_rank(s) == n:
            out.append(s)
        for e in range(s[-1] + 1, limit):
            t = s + (e,)
            if _is_canonical(n, t):
                extend(t)

    extend((1,))
    return sorted(out)


@dataclass(frozen=True)
class SurveyRecord:
    n: int
    connection_set: tuple
    connected: bool
    tau: int
    tau_multiplicity: int
    x_dim: int
    uc: bool


@dataclass(frozen=True)
class SurveyReport:
    n: int
    records: tuple

    @property
    def total_connected(self) -> int:
        return sum(1 for r in self.records if r.connected)

    @property
    def total_uc(self) -> int:
        return sum(1 for r in self.records if r.uc)

    def summary(self) -> dict:
        return {"n": self.n, "connected": self.total_connected, "uc": self.total_uc}


def _x_dim_by_blocks(spec: CayleySpec, tau_elements) -> int:
    """Dimension of the R-space on the tau characters, one w-block at a time.

    With U the tau elements and B = (chi_u : u in U), the census eigenspace
    basis, X = B R B^T for symmetric R. Every closed pair of the Cayley
    graph (a vertex with itself, or an edge) is (i, i ^ c) with c in C_0, the
    connection set and 0. As chi_u(i) chi_v(i ^ c) = chi_{u^v}(i) chi_v(c),

        X_{i,i^c} = sum_w (sum_{u^v=w} R_uv chi_v(c)) chi_w(i),

    the outer sum over w in Z_2^n and the inner over ordered pairs. The
    characters are independent (H^T H = 2^n I), so X vanishes on the closed
    pairs exactly when every coefficient does: R_uv (chi_u(c) + chi_v(c))
    summed over u <= v with u ^ v = w, for each w and c, the diagonal pairs
    of w = 0 counted once. Block w thus has one column per such pair and one
    row per c, and no column lies in two blocks, so the R-system's rank is
    the sum of the block ranks. A row with chi_w(c) = -1 is zero, since
    chi_v(c) = chi_u(c) chi_w(c); the w = 0 entries come doubled, which
    leaves the rank unchanged. Each rank is exact, so the result is a proof.
    """
    h = characters(spec.n).tolist()
    closed = [h[c] for c in (0, *spec.connection_set)]  # row c: chi_v(c) at v
    blocks = {}
    for i, u in enumerate(tau_elements):
        for v in tau_elements[i:]:
            blocks.setdefault(u ^ v, []).append((u, v))
    rank = 0
    for w, pairs in blocks.items():
        rank += rank_exact([[hc[u] + hc[v] for u, v in pairs] for hc in closed if hc[w] == 1])
    d = len(tau_elements)
    return d * (d + 1) // 2 - rank


def survey_one(n: int, rep: tuple) -> SurveyRecord:
    """Spectrum and completability verdict for one representative.

    cayley_spectrum proves the spectrum on the built graph and that the tau
    characters span ker(A - tau I); x_dim, the dimension of the witness
    space, is then decided on that basis by _x_dim_by_blocks, with no linear
    system over the vertices. x_dim does not depend on the basis: B T maps R
    to T R T^T, a bijection that keeps the closed-pair equations."""
    spec = CayleySpec(n, frozenset(rep))
    cs = cayley_spectrum(spec)
    x_dim = _x_dim_by_blocks(spec, cs.tau_elements)
    return SurveyRecord(
        n=n,
        connection_set=tuple(rep),
        connected=spec.spans(),
        tau=int(cs.spectrum.tau),
        tau_multiplicity=cs.spectrum.tau_multiplicity,
        x_dim=x_dim,
        uc=x_dim == 0,
    )


def run_survey(n: int) -> SurveyReport:
    """Check every connected Cayley graph representative in dimension n.

    Records come in the sorted enumeration order. The census runs in the
    calling process: enumeration dominates it (at n = 5 about 72 s of CPU
    against about 1 s of verdicts), so a process pool for the verdicts
    only adds start-up cost.
    """
    return SurveyReport(n, tuple(survey_one(n, rep) for rep in enumerate_orbits(n)))


def _hex_set(rep) -> str:
    return ";".join(format(c, "x") for c in rep)


def report_csv(report: SurveyReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "connection_set", "connected", "tau", "tau_mult", "x_dim", "uc"])
    flag = {True: "true", False: "false"}
    for r in report.records:
        writer.writerow(
            [r.n, _hex_set(r.connection_set), flag[r.connected], r.tau, r.tau_multiplicity,
             r.x_dim, flag[r.uc]]
        )
    return buf.getvalue()


def report_json_dict(report: SurveyReport) -> dict:
    return {
        "equivalence": EQUIVALENCE_NOTE,
        "summary": report.summary(),
        "records": [
            {
                "n": r.n,
                "connection_set": _hex_set(r.connection_set),
                "connected": r.connected,
                "tau": r.tau,
                "tau_mult": r.tau_multiplicity,
                "x_dim": r.x_dim,
                "uc": r.uc,
            }
            for r in report.records
        ],
    }
