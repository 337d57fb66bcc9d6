"""Orbit enumeration of connection sets and the hypercube Cayley census.

Independent oracles guard the canonical-form machinery, none sharing code
with it: a full group sweep (every invertible GF(2) matrix, n = 3), a
generator BFS that partitions all subsets into orbits (n = 3 and 4), an
orbit-stabiliser count over the whole group (n <= 4) and by a stabiliser
search (n = 5, slow), and a sweep of GL(4,2) against each canonicity search.
"""

import itertools
import json
import os
import random

import networkx as nx
import numpy as np
import pytest

from eigenframe import completability, exact, modular, survey
from eigenframe.completability import xspace
from eigenframe.errors import InternalCheckError, UnsupportedInputError
from eigenframe.graphs import CayleySpec, cayley_z2, from_edges
from eigenframe.modular import gf2_rank
from eigenframe.survey import (
    MAX_DIMENSION,
    enumerate_orbits,
    report_csv,
    report_json_dict,
    run_survey,
    survey_one,
)
from oracles import dense_xspace_dim


def _gl_matrices(n):
    out = []
    for cols in itertools.product(range(1, 1 << n), repeat=n):
        if gf2_rank(cols) == n:
            out.append(cols)
    return out


def _apply(cols, v):
    img = 0
    for j in range(len(cols)):
        if (v >> j) & 1:
            img ^= cols[j]
    return img


def _gl_order(k):
    order = 1
    for i in range(k):
        order *= (1 << k) - (1 << i)
    return order


def _stabiliser_order(n, s):
    """|Stab(S)| in GL(n,2), by a DFS over the images of a basis drawn from S.

    S and its complement in the nonzero vectors have the same stabiliser; T
    is the smaller, W its span and k = dim W. A stabilising map permutes T,
    so it restricts to an invertible map of W, fixed by the images in T of a
    basis of W drawn from T; each such map extends to 2^(k(n-k)) |GL(n-k,2)|
    invertible maps of GF(2)^n.
    """
    members = set(s)
    complement = [v for v in range(1, 1 << n) if v not in members]
    t = complement if len(complement) < len(members) else sorted(members)
    t_set = set(t)
    basis, span = [], {0}
    for v in t:
        if v not in span:
            basis.append(v)
            span |= {x ^ v for x in span}
    k = len(basis)
    # a map that permutes T keeps each x's number of a in T with x ^ a in T
    degree = {x: sum(x ^ a in t_set for a in t) for x in t}

    def count(phi, i):  # phi maps the span of basis[:i], T onto T and the rest off T
        if i == k:
            return 1
        found = 0
        for y in t:
            if degree[y] != degree[basis[i]] or y in phi.values():
                continue  # another T-degree, or dependent on the images so far
            new = {x ^ basis[i]: img ^ y for x, img in phi.items()}
            if all((x in t_set) == (img in t_set) for x, img in new.items()):
                found += count(phi | new, i + 1)
        return found

    return count({0: 0}, 0) * 2 ** (k * (n - k)) * _gl_order(n - k)


def _transvection_tables(n):
    tables = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            tab = [v ^ (1 << i) if (v >> j) & 1 else v for v in range(1 << n)]
            tables.append(tab)
    return tables


def _orbit_min_reps(n):
    """Lex-least representative of every subset orbit, by generator BFS."""
    nv = (1 << n) - 1
    tables = _transvection_tables(n)
    seen = [False] * (1 << nv)
    reps = []
    for start in range(1, 1 << nv):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        best = None
        while stack:
            mask = stack.pop()
            tup = tuple(i + 1 for i in range(nv) if (mask >> i) & 1)
            if best is None or tup < best:
                best = tup
            for tab in tables:
                img = 0
                for i in range(nv):
                    if (mask >> i) & 1:
                        img |= 1 << (tab[i + 1] - 1)
                if not seen[img]:
                    seen[img] = True
                    stack.append(img)
        reps.append(best)
    return sorted(reps)


def test_full_group_sweep_n3():
    mats = _gl_matrices(3)
    assert len(mats) == 168
    canon = set()
    for mask in range(1, 1 << 7):
        s = tuple(i + 1 for i in range(7) if (mask >> i) & 1)
        best = min(tuple(sorted(_apply(cols, v) for v in s)) for cols in mats)
        canon.add(best)
    assert sorted(canon) == enumerate_orbits(3, spanning_only=False)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_bfs_partition(n):
    oracle = _orbit_min_reps(n)
    assert enumerate_orbits(n, spanning_only=False) == oracle
    spanning = sorted(r for r in oracle if gf2_rank(r) == n)
    assert enumerate_orbits(n) == spanning


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_sizes_add_up_to_every_subset(n):
    # orbit-stabiliser completeness: |GL(n,2)| / |Stab(S)| summed over the
    # representatives and the empty set counts all 2^(2^n - 1) subsets of the
    # nonzero vectors, stabilisers by brute force over the whole group
    cols = np.array(_gl_matrices(n), dtype=np.int64)
    images = np.zeros((len(cols), 1 << n), dtype=np.int64)  # images[g, x] = g(x)
    for x in range(1, 1 << n):
        images[:, x] = images[:, x & (x - 1)] ^ cols[:, (x & -x).bit_length() - 1]
    total = 1  # the empty set, fixed by every map
    for rep in enumerate_orbits(n, spanning_only=False):
        mask = sum(1 << v for v in rep)
        image_masks = np.bitwise_or.reduce(1 << images[:, list(rep)], axis=1)
        stabiliser = int(np.count_nonzero(image_masks == mask))
        assert len(cols) % stabiliser == 0
        assert _stabiliser_order(n, rep) == stabiliser, rep
        total += len(cols) // stabiliser
    assert total == 2 ** ((1 << n) - 1)


def test_canonicity_searches_agree_with_a_sweep_over_gl4():
    # each search against every image of the set under GL(4,2): random
    # subsets of every size, plus the orbit representatives (lex-least), their
    # complements (lex-greatest) and a random image of each, where the
    # searches have to go deep
    n, limit = 4, 16
    cols = np.array(_gl_matrices(n), dtype=np.int64)
    images = np.zeros((len(cols), limit), dtype=np.int64)  # images[g, x] = g(x)
    for x in range(1, limit):
        images[:, x] = images[:, x & (x - 1)] ^ cols[:, (x & -x).bit_length() - 1]
    rng = random.Random(4)
    sets = [tuple(sorted(rng.sample(range(1, limit), m))) for m in range(1, limit) for _ in range(16)]
    for rep in enumerate_orbits(n, spanning_only=False):
        complement = tuple(v for v in range(1, limit) if v not in rep)
        g = rng.randrange(len(cols))
        sets += [rep, tuple(sorted(int(images[g, v]) for v in rep))]
        if complement:
            sets.append(complement)
    assert len(sets) >= 300
    for s in sets:
        mask = sum(1 << v for v in s)
        image_masks = np.bitwise_or.reduce(1 << images[:, list(s)], axis=1)
        diff = image_masks ^ mask
        first = diff & -diff  # the least element in exactly one of the two sets
        below = bool(np.any(image_masks & first))
        above = bool(np.any(mask & first))
        assert survey._beaten_downward(n, s) == below, s
        assert survey._beaten_upward(n, s) == above, s
        assert survey._is_canonical(n, s) == (not below), s


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("EIGENFRAME_RUN_SLOW") != "1",
    reason="enumerating Z_2^5 takes about 70 CPU seconds; set EIGENFRAME_RUN_SLOW=1",
)
def test_n5_orbit_sizes_add_up_to_every_subset():
    reps = enumerate_orbits(5, spanning_only=False)
    assert len(reps) == 1371
    total = 1 + sum(_gl_order(5) // _stabiliser_order(5, rep) for rep in reps)
    assert total == 2 ** 31
    records = [survey_one(5, rep) for rep in reps if gf2_rank(rep) == 5]
    assert (len(records), sum(r.uc for r in records)) == (1326, 1293)


def test_orbit_counts():
    assert len(enumerate_orbits(1)) == 1
    assert len(enumerate_orbits(2)) == 2
    assert len(enumerate_orbits(3)) == 6
    assert len(enumerate_orbits(4)) == 36
    assert len(enumerate_orbits(3, spanning_only=False)) == 9
    assert len(enumerate_orbits(4, spanning_only=False)) == 45


def test_dimension_guard():
    assert MAX_DIMENSION == 5
    with pytest.raises(UnsupportedInputError):
        enumerate_orbits(6)
    with pytest.raises(UnsupportedInputError):
        enumerate_orbits(0)
    with pytest.raises(UnsupportedInputError):
        run_survey(6)


def test_representatives_pairwise_nonisomorphic():
    reps = enumerate_orbits(4)
    graphs = [nx.Graph(cayley_z2(CayleySpec(4, r)).edges()) for r in reps]
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            assert not nx.is_isomorphic(graphs[a], graphs[b]), (reps[a], reps[b])


def test_survey_counts_small():
    expected = {1: (1, 1), 2: (2, 2), 3: (6, 6), 4: (36, 34)}
    for n, (conn, uc) in expected.items():
        report = run_survey(n)
        assert report.summary() == {"n": n, "connected": conn, "uc": uc}


def test_nonuc_records_match_dense_oracle():
    report = run_survey(4)
    non_uc = [r for r in report.records if not r.uc]
    assert [r.connection_set for r in non_uc] == [
        (1, 2, 3, 4, 5, 8, 10, 12, 15),
        (1, 2, 3, 4, 8, 12),
    ]
    rng = random.Random(6)
    sample = non_uc + rng.sample([r for r in report.records if r.uc], 3)
    for rec in sample:
        g = cayley_z2(CayleySpec(4, rec.connection_set))
        assert dense_xspace_dim(g, rec.tau) == rec.x_dim


def test_survey_one_fields():
    rec = survey_one(3, (1, 2, 4))
    assert rec.n == 3 and rec.connected
    assert rec.tau == -3 and rec.tau_multiplicity == 1
    assert rec.x_dim == 0 and rec.uc
    rec = survey_one(3, (1, 2))  # spans only a plane: disconnected graph
    assert not rec.connected


@pytest.mark.parametrize("toggle", [(0, 1), (0, 3)], ids=["edge-dropped", "edge-added"])
def test_a_graph_its_characters_do_not_fit_is_refused(monkeypatch, toggle):
    real = exact.cayley_z2

    def toggled(spec):
        g = real(spec)
        return from_edges(g.n, set(g.edges()) ^ {toggle})

    monkeypatch.setattr(exact, "cayley_z2", toggled)
    with pytest.raises(InternalCheckError):
        survey_one(3, (1, 2, 4))


def test_the_character_table_is_built_once_per_n_and_read_only():
    h = exact.characters(3)
    assert exact.characters(3) is h
    assert h.tolist() == [[(-1) ** (x & v).bit_count() for v in range(8)] for x in range(8)]
    with pytest.raises(ValueError):
        h[0, 0] = 5
    assert h[0, 0] == 1


def test_survey_x_dim_agrees_with_the_echelon_basis_route():
    # the census uses the tau characters as the basis, xspace(graph) the
    # echelon basis of a certified eigenspace
    reps = [(n, rep) for n in range(1, 5) for rep in enumerate_orbits(n, spanning_only=False)]
    reps.append((5, (4, 5, 6, 7, 10, 13, 17, 22)))
    dims = []
    for n, rep in reps:
        dims.append(survey_one(n, rep).x_dim)
        assert dims[-1] == xspace(cayley_z2(CayleySpec(n, rep))).dim, rep
    assert len(dims) == 59 and sum(d > 0 for d in dims) == 16 and dims[-1] == 2


def test_block_x_dim_agrees_with_xspace_on_random_z2_5_sets():
    rng = random.Random(2)
    sets = [tuple(sorted(rng.sample(range(1, 32), rng.randint(3, 10)))) for _ in range(29)]
    sets.append((4, 5, 6, 7, 10, 13, 17, 22))
    dims = []
    for conn in sets:
        dims.append(survey_one(5, conn).x_dim)
        assert dims[-1] == xspace(cayley_z2(CayleySpec(5, conn))).dim, conn
    assert sum(d > 0 for d in dims) == 10 and max(dims) >= 10 and dims[-1] == 2


def test_survey_one_makes_no_pivot_pass_elimination_or_eigensolver_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("survey_one left the character route")

    for name in ("psd_rank_pivot", "nullspace"):
        monkeypatch.setattr(exact, name, refuse)
    for name in ("xspace", "kernel_mod_p", "nullspace", "psd_rank_pivot"):
        monkeypatch.setattr(completability, name, refuse)
    for name in ("_echelon_mod_p", "kernel_mod_p"):
        monkeypatch.setattr(modular, name, refuse)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run_survey(4).summary() == {"n": 4, "connected": 36, "uc": 34}
    assert survey_one(5, (4, 5, 6, 7, 10, 13, 17, 22)).x_dim == 2


def test_csv_format():
    text = report_csv(run_survey(3))
    lines = text.strip().split("\n")
    assert lines[0] == "n,connection_set,connected,tau,tau_mult,x_dim,uc"
    assert len(lines) == 1 + 6
    row = lines[1].split(",")
    assert row[0] == "3" and row[2] in ("true", "false") and row[6] in ("true", "false")
    # connection sets are semicolon-joined hex values
    assert all(c in "0123456789abcdef;" for c in row[1])


def test_json_report_shape():
    doc = report_json_dict(run_survey(2))
    assert doc["summary"] == {"n": 2, "connected": 2, "uc": 2}
    assert "equivalence" in doc
    assert len(doc["records"]) == 2
    assert json.dumps(doc)  # serializable as-is
    rec = doc["records"][0]
    assert set(rec) == {"n", "connection_set", "connected", "tau", "tau_mult", "x_dim", "uc"}
