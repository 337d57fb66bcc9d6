"""End-to-end guarantees, one test per advertised criterion.

Each test prints a single 'criterion k: PASS (...)' line with its headline
numbers; pytest -v adds the per-test PASSED/FAILED verdict. The full
5-generator census takes about 70 s of CPU (67 s to enumerate the orbits,
about 1 s for the verdicts, on a 2-vCPU machine) and only runs when
EIGENFRAME_RUN_SLOW=1 is set.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from corpus import connected_graphs
from eigenframe import cli
from eigenframe.coloring import (
    is_one_walk_regular,
    is_uniquely_vector_colorable_1wr,
    optimal_vector_coloring_1wr,
    validate_coloring,
)
from eigenframe.completability import (
    clique_condition_any,
    dominated_frameworks,
    gershgorin_scale,
    neighborhood_condition,
    phi,
    phi_inverse,
    xspace,
)
from eigenframe.exact import (
    ExactMatrix,
    adjacency_matrix,
    least_eigenspace,
)
from eigenframe.frameworks import (
    canonical_stress,
    dominates,
    kneser_framework,
    least_eigenvalue_framework,
)
from eigenframe.graphs import (
    CayleySpec,
    cayley_z2,
    cycle,
    emit_graph6,
    from_edges,
    kneser,
    q_kneser,
)
from eigenframe.survey import enumerate_orbits, run_survey
from oracles import dense_xspace_dim


def _report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k} failed: {detail}"


def test_criterion_1_census_through_n4(capsys):
    expected = {1: (1, 1), 2: (2, 2), 3: (6, 6), 4: (36, 34)}
    t0 = time.monotonic()
    got = {}
    for n in expected:
        code = cli.main(["survey", "--n", str(n)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        got[n] = (doc["summary"]["connected"], doc["summary"]["uc"])
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(1, got == expected and elapsed < 60,
                f"census n=1..4 gave {sorted(got.values())} in {elapsed:.1f}s, budget 60s")


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("EIGENFRAME_RUN_SLOW") != "1",
    reason="full 5-generator census takes ~70 CPU seconds; set EIGENFRAME_RUN_SLOW=1",
)
def test_criterion_1_census_n5(capsys):
    t0 = time.monotonic()
    report = run_survey(5)
    elapsed = time.monotonic() - t0
    summary = report.summary()
    ok = summary == {"n": 5, "connected": 1326, "uc": 1293} and elapsed < 4 * 3600
    with capsys.disabled():
        _report(1, ok, f"census n=5 gave ({summary['connected']}, {summary['uc']}) "
                       f"in {elapsed:.0f}s, budget 4h")


def test_criterion_2_odd_cycles(capsys):
    t0 = time.monotonic()
    margins = []
    for n in range(3, 22, 2):
        code = cli.main(["check-uc", "--gen", f"cycle:{n}", "--backend", "floating"])
        out = capsys.readouterr().out
        assert code == 0, f"cycle:{n}"
        doc = json.loads(out)
        assert doc["verdict"] is True and doc["x_dim"] == 0, f"cycle:{n}"
        assert doc["backend"] == "floating"
        if n == 3:
            # the triangle is complete: zero unknowns, so no singular values
            assert "sv_margin" not in doc
        else:
            assert doc["sv_margin"] > 1e-4, f"cycle:{n} margin {doc['sv_margin']}"
            margins.append(doc["sv_margin"])
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(2, elapsed < 5,
                f"10 odd cycles completable, worst margin {min(margins):.3g} > 1e-4, "
                f"{elapsed:.2f}s, budget 5s")


def test_criterion_3_kneser_unique_colorings(capsys):
    cases = [(5, 2), (7, 2), (7, 3)]
    t0 = time.monotonic()
    for n, r in cases:
        res = is_uniquely_vector_colorable_1wr(kneser(n, r))
        assert res.uvc and res.x_dim == 0, f"K({n},{r})"
        assert isinstance(res.coloring.t, Fraction)
        assert res.coloring.t == Fraction(n, r), f"K({n},{r}) t={res.coloring.t}"
        code = cli.main(["vc", "--gen", f"kneser:{n},{r}"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["uvc"] is True and doc["t"] == f"{n}/{r}"
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(3, elapsed < 30,
                f"t = 5/2, 7/2, 7/3 exactly, all unique, {elapsed:.1f}s, budget 30s")


def test_criterion_4_qkneser_second_coloring(capsys):
    t0 = time.monotonic()
    g = q_kneser(2, 4, 2)
    res = is_uniquely_vector_colorable_1wr(g)
    assert not res.uvc and res.x_dim > 0
    alt, base = res.alternate, res.coloring
    assert alt is not None
    assert isinstance(alt.gram, ExactMatrix) and isinstance(alt.t, Fraction)
    assert alt.t == base.t
    # the published optimum: the projector scaled to unit diagonal
    fw = least_eigenvalue_framework(least_eigenspace(g, "exact"))
    assert base.gram == fw.gram * Fraction(g.n, fw.d)
    assert alt.gram != base.gram
    verdict = validate_coloring(g, alt.gram, alt.t)
    assert verdict.status == "valid-strict"
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(4, elapsed < 60,
                f"second strict coloring at t={alt.t}, witness dim {res.x_dim}, "
                f"{elapsed:.1f}s, budget 60s")


def test_criterion_5_kneser_framework_congruence(capsys):
    fw = kneser_framework(5, 2)
    unit = fw.rescaled(Fraction(1, fw.gram[0, 0]))
    pet = least_eigenvalue_framework(least_eigenspace(kneser(5, 2), "exact"))
    scaled_projector = pet.gram * Fraction(pet.n, pet.d)
    ok = unit.gram == scaled_projector
    with capsys.disabled():
        _report(5, ok, "set-pair framework equals the scaled eigenprojector entrywise")


def test_criterion_6_dense_oracle_equivalence(capsys):
    t0 = time.monotonic()
    checked = 0
    for g, _ in connected_graphs(max_n=7, min_n=2):
        les = least_eigenspace(g)
        if not les.is_exact():
            continue
        production = xspace(least_eigenspace(g, "exact")).dim
        reference = dense_xspace_dim(g, les.spectrum.tau)
        assert production == reference, \
            f"graph {emit_graph6(g)}: {production} != {reference}"
        checked += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(6, checked > 100,
                f"{checked} integral-eigenvalue graphs on <= 7 vertices agree with "
                f"the dense solver, {elapsed:.1f}s")


def _complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_multipartite(sizes):
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = [
        (i, j)
        for a in range(len(parts))
        for b in range(a + 1, len(parts))
        for i in parts[a]
        for j in parts[b]
    ]
    return from_edges(start, edges)


WALK_REGULAR_TWENTY = [
    _complete(2), _complete(3), _complete(4), _complete(5), _complete(6), _complete(7),
    cycle(4), cycle(5), cycle(6), cycle(7), cycle(8), cycle(9),
    kneser(5, 2), kneser(6, 2), kneser(7, 3),
    cayley_z2(CayleySpec(3, (1, 2, 4))),
    _complete_multipartite([2, 2, 2]),
    _complete_multipartite([3, 3]),
    from_edges(4, [(0, 1), (2, 3)]),
    from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
]


def _random_rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def test_criterion_7_invariant_battery(capsys):
    assert len(WALK_REGULAR_TWENTY) == 20
    rng = random.Random(20260816)
    t0 = time.monotonic()
    runs = 0
    cache = {}
    for g in WALK_REGULAR_TWENTY:
        cert = is_one_walk_regular(g)
        assert cert.ok
        les = least_eigenspace(g, backend="auto")
        backend = les.spectrum.backend
        fw = least_eigenvalue_framework(les)
        xs = xspace(les)
        col = optimal_vector_coloring_1wr(g)
        stress = canonical_stress(g, fw) if backend == "exact" else None
        cache[g] = (backend, les, fw, xs, col, stress)

    import numpy as np

    for g in WALK_REGULAR_TWENTY:
        backend, les, fw, xs, col, stress = cache[g]
        n, d, tau, deg = g.n, fw.d, fw.tau, g.degree(0)
        for _ in range(25):
            runs += 1
            if backend == "exact":
                # the projector is idempotent and its columns are eigenvectors
                assert fw.gram @ fw.gram == fw.gram
                assert adjacency_matrix(g) @ fw.gram == fw.gram * tau
                # constant diagonal d/n and edge entries tau*d/(n*deg)
                a_const, b_const = Fraction(d, n), Fraction(tau * d, n * deg)
                assert all(fw.gram[i, i] == a_const for i in range(n))
                assert all(fw.gram[i, j] == b_const for i, j in g.edges())
                stress.verify()  # five stress checks, raises on any failure
                assert validate_coloring(g, col.gram, col.t).status == "valid-strict"
            else:
                gf = np.asarray(fw.gram, dtype=float)
                pf = np.asarray(fw.points, dtype=float)
                af = adjacency_matrix(g).to_float()
                assert np.allclose(gf @ gf, gf, atol=1e-9)
                assert np.allclose(af @ pf, float(tau) * pf, atol=1e-9)
                a_const, b_const = d / n, float(tau) * d / (n * deg)
                assert np.allclose(np.diag(gf), a_const, atol=1e-9)
                assert all(abs(gf[i, j] - b_const) < 1e-9 for i, j in g.edges())
                assert validate_coloring(g, col.gram, col.t).status == "valid-strict"
            if xs.dim > 0 and backend == "exact":
                # random witness, round-tripped through the reduced coordinates
                x = ExactMatrix.zeros(n)
                for b in xs.basis:
                    x = x + b * _random_rational(rng)
                assert phi(phi_inverse(x, les), les) == x
                scale = gershgorin_scale(x) * Fraction(rng.randint(1, 4), 4)
                dom = dominated_frameworks(fw, x, c=scale)
                assert dominates(fw, dom)
                # agreement exactly on the closed pairs
                assert all(dom.gram[i, i] == fw.gram[i, i] for i in range(n))
                assert all(dom.gram[i, j] == fw.gram[i, j] for i, j in g.edges())
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(7, runs == 500, f"{runs} randomized invariant runs, zero failures, "
                                f"{elapsed:.1f}s")


def test_criterion_8_sufficient_conditions_sound(capsys):
    t0 = time.monotonic()
    graphs = []
    for n in range(1, 5):
        for rep in enumerate_orbits(n, spanning_only=False):
            graphs.append(cayley_z2(CayleySpec(n, rep)))
    rng = random.Random(88)
    made = 0
    while made < 100:
        n = rng.randint(4, 10)
        p = rng.choice([0.3, 0.5, 0.7])
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = from_edges(n, edges)
        if g.num_edges() == 0:
            continue
        graphs.append(g)
        made += 1
    held = 0
    for g in graphs:
        nb = neighborhood_condition(g)
        cl, _ = clique_condition_any(g)
        if nb.holds or cl:
            held += 1
            assert xspace(g).dim == 0, f"graph {emit_graph6(g)}"
    elapsed = time.monotonic() - t0
    ok = held > 20
    with capsys.disabled():
        _report(8, ok, f"{held} of {len(graphs)} graphs satisfied a sufficient "
                       f"condition, all completable, {elapsed:.1f}s")
