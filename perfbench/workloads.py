"""Seeded inputs for the eigenframe benchmark, and the checks on their outputs.

A workload is a list of ops. An op is one call of ``eigenframe.cli.main``
with an argv, or one call of ``eigenframe.survey_one``. Inputs depend only on
the seed. Everything the checks compare against (least eigenvalues, character
sums, Kneser values) is computed here, independently of the package.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Survey of GF(2)^4 connection-set classes: (connected, universally completable).
SURVEY_N4_SUMMARY = {"n": 4, "connected": 36, "uc": 34}


@dataclass(frozen=True)
class Op:
    """One timed call. ``key`` names it in golden files and results."""

    key: str
    argv: tuple | None = None  # CLI arguments, or None for a survey_one call
    survey_set: tuple | None = None  # connection set of a survey_one(5, S) call
    n: int = 0  # vertex count of the input graph (CLI graph ops)
    edges: tuple = ()
    kneser: tuple | None = None  # (n, r) for Kneser inputs


# -- graph construction ---------------------------------------------------------


def graph6(n: int, edges) -> str:
    """Header-less graph6 for n <= 62."""
    adj = {(min(a, b), max(a, b)) for a, b in edges}
    out, group, filled = [n + 63], 0, 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | ((i, j) in adj)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def _connected(n: int, edges) -> bool:
    nbr = [[] for _ in range(n)]
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for w in nbr[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _line_graph(edges):
    m = len(edges)
    return m, tuple(
        (a, b) for a in range(m) for b in range(a + 1, m) if set(edges[a]) & set(edges[b])
    )


def _kneser_edges(n: int, r: int):
    verts = list(itertools.combinations(range(n), r))
    return len(verts), tuple(
        (a, b)
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
        if not set(verts[a]) & set(verts[b])
    )


def _cycle_edges(n: int):
    return n, tuple((i, (i + 1) % n) for i in range(n))


def _cayley_edges(dim: int, conn):
    return 1 << dim, tuple(
        (v, v ^ c) for v in range(1 << dim) for c in conn if v < v ^ c
    )


def _least_eigenvalue(n: int, edges) -> float:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return float(np.linalg.eigvalsh(a)[0])


def _singular(rows) -> bool:
    """Exact singularity of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in rows]
    size, prev = len(m), 1
    for c in range(size):
        k = next((i for i in range(c, size) if m[i][c]), None)
        if k is None:
            return True
        m[c], m[k] = m[k], m[c]
        piv = m[c][c]
        for i in range(c + 1, size):
            f = m[i][c]
            for j in range(c + 1, size):
                m[i][j] = (piv * m[i][j] - f * m[c][j]) // prev
        prev = piv
    return False


def integer_tau(n: int, edges):
    """(tau, lam): the least adjacency eigenvalue lam, and tau = lam when it
    is an integer (located in floating point, confirmed by an exact
    singularity test of A - tau I), else tau = None."""
    lam = _least_eigenvalue(n, edges)
    k = round(lam)
    if abs(lam - k) > 1e-6:
        return None, lam
    adj = {(min(a, b), max(a, b)) for a, b in edges}
    rows = [
        [(-k if i == j else int((min(i, j), max(i, j)) in adj)) for j in range(n)]
        for i in range(n)
    ]
    return (k if _singular(rows) else None), lam


def character_tau(dim: int, conn):
    """(least character sum, how many characters reach it) for Cay(Z_2^dim, conn)."""
    sums = [
        sum(1 if (v & c).bit_count() % 2 == 0 else -1 for c in conn)
        for v in range(1 << dim)
    ]
    tau = min(sums)
    return tau, sums.count(tau)


def _gf2_rank(vectors) -> int:
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _spanning_set(rng: random.Random, dim: int, size: int) -> tuple:
    """A connection set that spans GF(2)^dim and whose least character sum
    has multiplicity at most 2. With d <= 2 the witness space of a connected
    Cayley graph is provably trivial, so the op takes the mod-p full-rank
    route; the kernel-solve route is the witness workload's job."""
    while True:
        conn = tuple(sorted(rng.sample(range(1, 1 << dim), size)))
        if _gf2_rank(conn) == dim and character_tau(dim, conn)[1] <= 2:
            return conn


def _gnp_floating(rng: random.Random, n: int, p: float):
    """Connected G(n, p) whose least eigenvalue is clearly not an integer."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if _connected(n, edges):
            lam = _least_eigenvalue(n, edges)
            if abs(lam - round(lam)) > 1e-3:
                return edges


def _connected_base(rng: random.Random, v: int, m: int):
    pairs = list(itertools.combinations(range(v), 2))
    while True:
        edges = tuple(rng.sample(pairs, m))  # sample order labels the line graph
        if _connected(v, edges):
            return edges


# -- ops ------------------------------------------------------------------------


def _cli(cmd: str, spec_flag: str, spec: str, n: int, edges, kneser=None) -> Op:
    argv = (cmd, spec_flag, spec)
    return Op(" ".join(argv), argv=argv, n=n, edges=tuple(edges), kneser=kneser)


def _graph6_ops(cmds, n, edges):
    g6 = graph6(n, edges)
    return [_cli(cmd, "--graph6", g6, n, edges) for cmd in cmds]


def _cayley_ops(cmds, dim, conn):
    spec = f"cayley:{dim}:" + ",".join(format(c, f"0{dim}b") for c in conn)
    n, edges = _cayley_edges(dim, conn)
    return [_cli(cmd, "--gen", spec, n, edges) for cmd in cmds]


def certify(rng):
    ops = []
    for n, r in ((5, 2), (6, 2), (7, 2)):
        verts, edges = _kneser_edges(n, r)
        for cmd in ("check-uc", "vc", "dominated"):
            ops.append(_cli(cmd, "--gen", f"kneser:{n},{r}", verts, edges, kneser=(n, r)))
    for size in (5, 7, 9):
        ops += _cayley_ops(("check-uc", "dominated"), 4, _spanning_set(rng, 4, size))
    ops += _cayley_ops(("check-uc",), 5, _spanning_set(rng, 5, 8))
    return ops


# (base vertices, base edges), two line graphs of each: tau = -2, x_dim 1-3
# on 6-vertex bases and 0-3 on 7-vertex ones. Every op costs less than the
# T(6) ops, so the tail latency lands on the (6, 14) graphs, whose base is
# always K6 minus an edge; larger bases cost seconds per op and vary far more
# from seed to seed.
LINE_GRAPH_SIZES = ((6, 13), (6, 13), (6, 14), (6, 14), (7, 14), (7, 14))


def witness(rng):
    verts, edges = _line_graph(list(itertools.combinations(range(6), 2)))
    ops = _graph6_ops(("vc", "check-uc", "dominated"), verts, edges)  # T(6), x_dim 5
    for v, m in LINE_GRAPH_SIZES:
        n, edges = _line_graph(list(_connected_base(rng, v, m)))
        ops += _graph6_ops(("check-uc", "dominated"), n, edges)
    return ops


def floating(rng):
    ops = []
    for n in (20, 23, 26, 29, 32):
        ops += _graph6_ops(("check-uc", "dominated"), n, _gnp_floating(rng, n, 0.2))
    for n in range(5, 22, 2):
        verts, edges = _cycle_edges(n)
        for cmd in ("check-uc", "vc", "dominated"):
            ops.append(_cli(cmd, "--gen", f"cycle:{n}", verts, edges))
    return ops


def census(rng):
    argv = ("survey", "--n", "4", "--workers", "1")
    ops = [Op(" ".join(argv), argv=argv)]
    for size in range(14, 27):
        conn = _spanning_set(rng, 5, size)
        ops.append(Op("survey_one 5 " + ",".join(map(str, conn)), survey_set=conn))
    return ops


WORKLOADS = {"certify": certify, "witness": witness, "floating": floating, "census": census}
NAMES = tuple(WORKLOADS)

# One small untimed call of the same kind as the workload, made before timing.
WARMUP = {
    "certify": Op("warmup", argv=("check-uc", "--gen", "kneser:5,2")),
    "witness": Op("warmup", argv=("vc", "--gen", "kneser:5,2")),
    "floating": Op("warmup", argv=("check-uc", "--gen", "cycle:7")),
    "census": Op("warmup", argv=("survey", "--n", "3", "--workers", "1")),
}


def build(name: str, seed: int):
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


# -- checks ---------------------------------------------------------------------


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))


def _check_tau(doc_tau, tau, lam, problems):
    if tau is not None and Fraction(doc_tau) != tau:
        problems.append(f"tau {doc_tau} != {tau}")
    if tau is None and not _close(doc_tau, lam):
        problems.append(f"tau {doc_tau} != {lam}")


def check(op: Op, rc: int, out: str):
    """Seed-independent facts about one op's output; returns a problem list."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _check_doc(op, json.loads(out))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unexpected output: {exc!r}"]


def _check_doc(op: Op, doc) -> list:
    if op.survey_set is not None:
        doc["tau_mult"] = doc.pop("tau_multiplicity")
        return _check_record(5, op.survey_set, doc)
    if op.argv[0] == "survey":
        problems = [] if doc["summary"] == SURVEY_N4_SUMMARY else [f"summary {doc['summary']}"]
        for rec in doc["records"]:
            conn = [int(c, 16) for c in rec["connection_set"].split(";")]
            problems += _check_record(4, conn, rec)
        return problems
    problems = []
    tau, lam = integer_tau(op.n, op.edges)
    backend = "exact" if tau is not None else "floating"
    cmd = op.argv[0]
    if cmd == "check-uc":
        if doc["verdict"] != (doc["x_dim"] == 0):
            problems.append("verdict disagrees with x_dim")
        if doc["backend"] != backend:
            problems.append(f"backend {doc['backend']}, expected {backend}")
        _check_tau(doc["tau"], tau, lam, problems)
    elif cmd == "dominated":
        if len(doc["dominated"]) != doc["x_dim"]:
            problems.append("dominated count disagrees with x_dim")
        if doc["base"]["backend"] != backend:
            problems.append(f"backend {doc['base']['backend']}, expected {backend}")
        _check_tau(doc["tau"], tau, lam, problems)
    elif cmd == "vc":
        if doc["uvc"] != (doc["x_dim"] == 0) or doc["strict"] is not True:
            problems.append("uvc disagrees with x_dim, or coloring not strict")
        degree = sum(1 for e in op.edges if 0 in e)
        if op.kneser is not None and Fraction(doc["t"]) != Fraction(*op.kneser):
            problems.append(f"Kneser t {doc['t']} is not n/r")
        if tau is not None:
            expected_t = 1 - Fraction(degree, tau)
            if Fraction(doc["t"]) != expected_t:
                problems.append(f"t {doc['t']} != {expected_t}")
        elif not _close(doc["t"], 1 - degree / lam):
            problems.append(f"t {doc['t']} != {1 - degree / lam}")
    return problems


def _check_record(dim: int, conn, rec) -> list:
    tau, mult = character_tau(dim, conn)
    problems = []
    if rec["tau"] != tau or rec["tau_mult"] != mult:
        problems.append(f"census tau for {conn} is not the least character sum {tau}")
    if rec["uc"] != (rec["x_dim"] == 0) or rec["connected"] is not True:
        problems.append(f"census record for {conn} is inconsistent")
    return problems
