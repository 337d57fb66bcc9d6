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

Verdicts run on the characters of Z_2^n, which diagonalise every Cayley
graph of the group: cayley_spectrum proves the spectrum on the built graph,
and the witness-space dimension is the rank deficiency of the R-system on
the tau characters, which splits into independent blocks, one for each
w = u ^ v (_x_dim_by_blocks). No linear system over the vertices is built.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from multiprocessing import get_context

from .errors import UnsupportedInputError
from .exact import cayley_spectrum, characters, rank_exact
from .graphs import CayleySpec
from .modular import gf2_rank

MAX_DIMENSION = 5

EQUIVALENCE_NOTE = (
    "connection sets identified up to invertible linear maps of GF(2)^n; "
    "representatives are lexicographically minimal"
)


def _extend_map(span_map: dict, u: int, value: int) -> dict:
    """Extend a partial linear map by u -> value; domain and image double."""
    new_map = dict(span_map)
    new_map[u] = value
    for v, img in span_map.items():
        new_map[v ^ u] = img ^ value
    return new_map


def _transvection_images(n: int, s: tuple):
    """Sorted images of s under the elementary maps e_j -> e_j + e_i.

    These generate the whole group, and a single application already beats
    most non-extremal sets, so both searches try them before any branching.
    """
    for i in range(n):
        bit = 1 << i
        for j in range(n):
            if i == j:
                continue
            probe = 1 << j
            yield tuple(sorted(v ^ bit if v & probe else v for v in s))


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
    s_list = list(s)
    s_set = set(s)
    total = (1 << n) - 1
    for image in _transvection_images(n, s):
        if list(image) < s_list:
            return True

    def dfs(span_map: dict, p: int) -> bool:
        if p == m:
            return False
        if len(span_map) == total:
            return sorted(span_map[x] for x in s_list) < s_list
        sp = s[p]
        consumed = set(s[:p])
        det_unconsumed = [
            img for v, img in span_map.items() if v in s_set and img not in consumed
        ]
        if any(w < sp for w in det_unconsumed):
            return True
        images = set(span_map.values())
        images.add(0)
        free = s_set.difference(span_map.keys())
        if free:
            below = sum(1 for w in images if 1 <= w < sp)
            if below < sp - 1:
                return True  # some value under sp lies outside the image span
        if sp in det_unconsumed:
            return dfs(span_map, p + 1)
        if sp in images or not free:
            return False
        for u in sorted(free):
            if dfs(_extend_map(span_map, u, sp), p + 1):
                return True
        return False

    return dfs({}, 0)


def _can_exceed(span_map: dict, d_set: set, bound: int, limit: int) -> bool:
    """Can the map finish with every still-unassigned image above bound?

    The unassigned elements of d_set split into cosets of the assigned
    span; one image choice per coset forces the rest of it. Candidate
    values per coset are intersected as bitmasks up front ("value itself
    above bound and outside the image span, every forced mate above bound
    too"), so an unplaceable coset fails before any branching. Branching
    recurses on the most constrained coset; images already in the map are
    the caller's responsibility.
    """
    free = d_set.difference(span_map.keys())
    if not free:
        return True
    images = set(span_map.values())
    images.add(0)
    avail = 0
    for v in range(bound + 1, limit):
        if v not in images:
            avail |= 1 << v
    if bin(avail).count("1") < 1:
        return False
    cosets = []
    grouped = set()
    for u in sorted(free):
        if u in grouped:
            continue
        cand = avail
        for v, img in span_map.items():
            if (v ^ u) in d_set:
                grouped.add(v ^ u)
                mask = 0
                for z in range(bound + 1, limit):
                    mask |= 1 << (z ^ img)  # y with y ^ img above bound
                cand &= mask
                if not cand:
                    return False
        cosets.append((u, cand))
    if len(cosets) > bin(avail).count("1"):
        return False
    u, cand = min(cosets, key=lambda c: bin(c[1]).count("1"))
    for shift in range(limit - 1, bound, -1):
        if cand & (1 << shift):
            if _can_exceed(_extend_map(span_map, u, shift), d_set, bound, limit):
                return True
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
    d_set = set(d)
    d_list = list(d)
    if d_list == list(range(limit - m, limit)):
        return False  # the m largest vectors: nothing sorts above this
    for image in _transvection_images(n, d):
        if list(image) > d_list:
            return True

    def dfs(span_map: dict, p: int) -> bool:
        if p == m:
            return False
        dp = d[p]
        consumed = set(d[:p])
        det_unconsumed = [
            img for v, img in span_map.items() if v in d_set and img not in consumed
        ]
        if any(w < dp for w in det_unconsumed):
            return False  # forced at or below the prefix: cannot exceed
        if dp in det_unconsumed:
            return dfs(span_map, p + 1)
        if limit - 1 - dp >= m - p and _can_exceed(span_map, d_set, dp, limit):
            return True
        images = set(span_map.values())
        images.add(0)
        free = d_set.difference(span_map.keys())
        if dp in images or not free:
            return False
        for u in sorted(free):
            if dfs(_extend_map(span_map, u, dp), p + 1):
                return True
        return False

    return dfs({}, 0)


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
        complement = tuple(v for v in range(1, limit) if v not in set(s))
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


def _survey_star(args):
    return survey_one(*args)


def run_survey(n: int, workers: int = 1) -> SurveyReport:
    """Check every connected Cayley graph representative in dimension n.

    Sharding across processes is deterministic: results are collected in
    the (sorted) enumeration order regardless of worker count. The pool
    has at most one worker per representative and per CPU.
    """
    reps = enumerate_orbits(n)
    workers = min(workers, len(reps), os.cpu_count() or 1)
    if workers > 1:
        with get_context("spawn").Pool(workers) as pool:
            records = pool.map(_survey_star, [(n, rep) for rep in reps], chunksize=8)
    else:
        records = [survey_one(n, rep) for rep in reps]
    return SurveyReport(n, tuple(records))


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
