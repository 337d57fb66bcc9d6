"""Command line driver: schemas, determinism, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import sys
import time
from collections import Counter

import numpy as np
import pytest

from corpus import PERFBENCH, atlas_graphs, benchmark_ops
from eigenframe import cli, completability, exact, graphs
from eigenframe.errors import InternalCheckError
from eigenframe.graphs import (
    Graph,
    complement,
    cycle,
    emit_graph6,
    from_edges,
    kneser,
    parse_graph6,
)
from eigenframe.serialize import number_token
from eigenframe.survey import survey_one
from oracles import x_system_svd

EXACT_REPORT_COUNT = 202
EXACT_REPORT_DIGEST = "25d3bd6d7f8338a3b74905d27bc231482aa9f6ec8d3cfe6d457b3951e269be4f"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_uc_pentagon_floating(capsys):
    code, out, err = run(capsys, "check-uc", "--gen", "cycle:5")
    assert code == 0
    assert "floating backend" in err
    doc = json.loads(out)
    assert doc == {
        "backend": "floating",
        "conditions": {"clique": True, "neighborhood": True, "split": False},
        "graph6": "Dhc",
        "sv_margin": 0.504622638711,
        "tau": -1.61803398875,
        "tau_mult": 2,
        "verdict": True,
        "x_dim": 0,
    }


def test_check_uc_petersen_exact(capsys):
    code, out, err = run(capsys, "check-uc", "--gen", "kneser:5,2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["backend"] == "exact" and doc["tau"] == -2
    assert doc["tau_mult"] == 4 and doc["x_dim"] == 0 and doc["verdict"] is True
    assert doc["graph6"] == "I@Q@YiWw?"


def test_output_bytes_are_stable(capsys):
    _, first, _ = run(capsys, "check-uc", "--gen", "kneser:5,2")
    _, second, _ = run(capsys, "check-uc", "--gen", "kneser:5,2")
    assert first == second
    _, a, _ = run(capsys, "vc", "--gen", "cycle:6")
    _, b, _ = run(capsys, "vc", "--gen", "cycle:6")
    assert a == b


def test_vc_petersen(capsys):
    code, out, _ = run(capsys, "vc", "--gen", "kneser:5,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == "5/2" and doc["uvc"] is True and doc["strict"] is True
    assert doc["x_dim"] == 0
    assert doc["gram_digest"] == (
        "5ceff261a20eb374a1c4fb3668e2537666f93ef84d2aef184112cceeba67ba0d"
    )


def test_vc_hexagon(capsys):
    code, out, _ = run(capsys, "vc", "--gen", "cycle:6")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 2 and doc["uvc"] is True
    assert doc["graph6"] == "EhEG"
    assert doc["gram_digest"] == (
        "dd29abc1925dc155511ef61bf29342677c05a5394ee3faf0d6df2d30f40506ba"
    )


def test_vc_non_unique_reports_alternate(capsys):
    # two disjoint triangles: walk-regular but freely recolorable
    code, out, _ = run(capsys, "vc", "--graph6", "EwCW")
    assert code == 0
    doc = json.loads(out)
    assert doc["uvc"] is False and doc["x_dim"] > 0
    assert "alternate" in doc and doc["alternate"]["t"] == doc["t"] == 3
    assert doc["alternate"]["gram_digest"] != doc["gram_digest"]
    assert "reason" in doc


def test_vc_rejects_irregular_graph(capsys):
    code, _, err = run(capsys, "vc", "--gen", "kneser:4,1", "--graph6", "C~")
    assert code == 1  # mutually exclusive inputs
    code, _, err = run(capsys, "vc", "--graph6", "Cs")  # a path with a leaf
    assert code == 2
    assert "walk-regular" in err or "walk regular" in err


def test_dominated_two_disjoint_edges(capsys):
    code, out, _ = run(capsys, "dominated", "--graph6", "C`")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph6"] == "C`" and doc["tau"] == -1
    assert doc["x_dim"] == 1 and doc["base"]["d"] == 2
    assert len(doc["dominated"]) == 1
    assert doc["dominated"][0]["d"] == 1


def test_gen_outputs_graph6(capsys):
    code, out, _ = run(capsys, "gen", "--cayley", "2:01,10")
    assert code == 0 and out == "Cr\n"
    code, out, _ = run(capsys, "gen", "--gen", "cycle:4")
    assert code == 0 and out == "Cl\n"


def test_gen_against_parse_round_trip(capsys):
    from eigenframe.graphs import parse_graph6, q_kneser
    code, out, _ = run(capsys, "gen", "--gen", "qkneser:2,4,2")
    assert code == 0
    assert parse_graph6(out.strip()) == q_kneser(2, 4, 2)


def test_survey_formats(capsys):
    code, out, _ = run(capsys, "survey", "--n", "3", "--format", "table")
    assert code == 0
    assert "6 connected, 6 universally completable" in out
    code, out, _ = run(capsys, "survey", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,connection_set,connected,tau,tau_mult,x_dim,uc"
    assert out.splitlines()[1] == "2,1;2,true,-2,1,0,true"
    code, out, _ = run(capsys, "survey", "--n", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["summary"] == {"connected": 2, "n": 2, "uc": 2}


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-uc", "--gen", "kneser:5,2", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["graph6"] == "I@Q@YiWw?"


def test_graph6_file_input(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("Bw\nC~\n")
    code, out, _ = run(capsys, "check-uc", "--graph6-file", str(src))
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 2
    assert all(d["verdict"] is True for d in docs)


def test_empty_graph6_file(tmp_path, capsys):
    src = tmp_path / "empty.g6"
    src.write_text("")
    code, _, err = run(capsys, "check-uc", "--graph6-file", str(src))
    assert code == 1 and "no graphs" in err


def test_exit_code_1_on_parse_errors(capsys):
    assert run(capsys, "check-uc", "--graph6", "!!!")[0] == 1
    code, out, err = run(capsys, "check-uc", "--graph6", "Aé")
    assert (code, out) == (1, "") and "not ASCII (byte offset 1)" in err
    assert run(capsys, "check-uc", "--gen", "moebius:5")[0] == 1
    assert run(capsys, "check-uc", "--gen", "cycle:abc")[0] == 1
    assert run(capsys, "gen", "--cayley", "2:01,xx")[0] == 1
    for tol in ("-1", "0", "nan", "inf", "-inf"):  # "--tol -inf" would read as an option
        code, _, err = run(capsys, "check-uc", "--gen", "cycle:5", f"--tol={tol}")
        assert code == 1 and "tolerance" in err
    assert run(capsys, "nonsense-command")[0] == 1
    assert run(capsys, "check-uc")[0] == 1  # an input source is required


def test_the_empty_graph_has_no_spectrum_on_every_report_command(capsys):
    # an input error, not an unsupported one: vc certifies the eigenspace
    # before it asks whether the graph is 1-walk-regular
    for command in ("check-uc", "vc", "dominated"):
        code, out, err = run(capsys, command, "--graph6", "?")
        assert (code, out, err) == (1, "", "error: empty graph has no spectrum\n")


def test_exit_code_2_on_unsupported(capsys):
    code, _, err = run(capsys, "check-uc", "--gen", "cycle:5", "--backend", "exact")
    assert code == 2
    assert "exact" in err
    assert run(capsys, "survey", "--n", "6")[0] == 2


def test_exit_code_3_on_internal_failure(capsys, monkeypatch):
    def boom(args):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "gen", boom)
    code, _, err = run(capsys, "gen", "--gen", "cycle:3")
    assert code == 3 and "synthetic failure" in err


def test_workers_env_default(monkeypatch, capsys):
    # the census runs in one process: neither the environment nor --workers
    # (which the benchmark's census op still passes) changes a byte
    monkeypatch.setenv("EIGENFRAME_WORKERS", "3")
    for fmt in ("json", "csv", "table"):
        outs = set()
        for extra in ((), ("--workers", "1"), ("--workers", "8")):
            code, out, err = run(capsys, "survey", "--n", "4", *extra, "--format", fmt)
            assert code == 0 and err == ""
            outs.add(out)
        assert len(outs) == 1


def test_check_uc_clique_condition_uses_the_requested_backend(monkeypatch, capsys):
    calls = []

    def recording(les):
        calls.append((les.spectrum.backend, les.spectrum.tolerance))
        return True, (0, 1)

    monkeypatch.setattr(cli, "clique_condition_any", recording)
    code, out, _ = run(capsys, "check-uc", "--gen", "cycle:5", "--backend", "floating",
                       "--tol", "1e-6")
    assert code == 0 and json.loads(out)["conditions"]["clique"] is True
    assert calls == [("floating", 1e-6)]


@pytest.mark.parametrize("spec", ["cycle:5", "kneser:5,2"])
def test_system_over_the_byte_budget_is_refused_before_it_is_built(monkeypatch, capsys, spec):
    # the cap admits the n x n adjacency matrix, and no R-system: C5 has a
    # 10 x 3 one, K(5,2) a 25 x 10 one
    def never(*args):
        raise AssertionError("a system was built over the budget")

    n = cli._parse_gen(spec).n
    monkeypatch.setattr(graphs, "SYSTEM_BYTE_CAP", 8 * n * n)
    monkeypatch.setattr(completability, "_complement_gram", never)
    monkeypatch.setattr(completability, "nullspace_mod_p", never)
    code, out, err = run(capsys, "check-uc", "--gen", spec)
    assert code == 2 and out == ""
    assert f"system exceeds the {8 * n * n}-byte budget" in err


@pytest.mark.parametrize("command", ["check-uc", "vc", "dominated"])
def test_an_adjacency_matrix_over_the_byte_budget_is_refused_before_it_is_built(
    monkeypatch, capsys, command
):
    # 8 * 12000^2 bytes is over the 2^30-byte budget; the vertex cap is 40132
    def never(self):
        raise AssertionError("the adjacency rows were built")

    monkeypatch.setattr(Graph, "adjacency_rows", never)
    code, out, err = run(capsys, command, "--gen", "cycle:12000")
    assert code == 2 and out == ""
    assert "12000 x 12000 matrix exceeds the 1073741824-byte budget" in err


def test_kneser_graphs_over_the_byte_budget_are_refused_in_seconds(monkeypatch, capsys):
    # K(17, 8) has 24310 vertices, under the vertex cap: built from each
    # subset's complement, not from N^2/2 pair tests, it reaches the
    # adjacency_matrix refusal at once
    start = time.perf_counter()
    code, out, err = run(capsys, "check-uc", "--gen", "kneser:17,8")
    assert code == 2 and out == ""
    assert "24310 x 24310 matrix exceeds the 1073741824-byte budget" in err
    assert time.perf_counter() - start < 30
    # the q-Kneser graph on the 11811 3-subspaces of F_2^7 is refused before
    # its pair loop
    def never(*args):
        raise AssertionError("the q-Kneser pair loop ran")

    monkeypatch.setattr(graphs, "line_masks", never)
    code, out, err = run(capsys, "check-uc", "--gen", "qkneser:2,7,3")
    assert code == 2 and out == ""
    assert "11811 x 11811 matrix exceeds the 1073741824-byte budget" in err


def test_the_byte_budget_holds_for_the_system_a_command_builds(monkeypatch, capsys):
    # C9: the adjacency matrix is 9 x 9 (648 bytes), the R-system 18 x 3
    # (432 bytes), the Gram matrix of the complement-edge system 27 x 27
    # (5832 bytes). Only check-uc reads the margin that needs it.
    def never(*args):
        raise AssertionError("a system was built over the budget")

    expected = {cmd: run(capsys, cmd, "--gen", "cycle:9") for cmd in ("vc", "dominated")}
    monkeypatch.setattr(graphs, "SYSTEM_BYTE_CAP", 1000)
    monkeypatch.setattr(completability, "_complement_gram", never)
    code, out, err = run(capsys, "check-uc", "--gen", "cycle:9")
    assert code == 2 and out == ""
    assert "27 x 27 system exceeds the 1000-byte budget" in err
    for cmd, result in expected.items():
        assert result[0] == 0
        assert run(capsys, cmd, "--gen", "cycle:9") == result


def test_a_clique_list_over_the_byte_budget_is_refused_before_it_grows(monkeypatch, capsys):
    # K_{3,...,3} on 8 parts: tau = -3, d = 7 and 3^8 = 6561 maximal
    # 8-cliques, charged 17 cells each. The 100000-byte cap admits the
    # 24 x 24 adjacency matrix and the 276 x 28 R-system, not the clique
    # list; on k = 20 parts (60 vertices) the list would hold 3^20 cliques.
    g = from_edges(24, [(a, b) for a, b in itertools.combinations(range(24), 2)
                        if a // 3 != b // 3])
    code, out, _ = run(capsys, "check-uc", "--graph6", emit_graph6(g))
    assert code == 0 and json.loads(out)["conditions"]["clique"] is True
    monkeypatch.setattr(graphs, "SYSTEM_BYTE_CAP", 100_000)
    code, out, err = run(capsys, "check-uc", "--graph6", emit_graph6(g))
    assert code == 2 and out == ""
    assert "maximal cliques exceeds the 100000-byte budget" in err


@pytest.mark.parametrize("source", ["cycle:9", "gnp"])
def test_only_check_uc_builds_the_complement_edge_system(monkeypatch, capsys, source):
    # The G(20, 0.2) input is the first one of the seed-1 floating benchmark
    # workload; a G(n, p) graph is not 1-walk-regular, so vc refuses it.
    if source == "gnp":
        argv = list(benchmark_ops("floating")[0].argv[1:])
        g = parse_graph6(argv[1])
        assert argv[0] == "--graph6" and g.n == 20
    else:
        argv, g = ["--gen", source], cycle(9)
    dim, margin, _ = x_system_svd(g)
    real, calls = completability._complement_gram, []

    def never(*args):
        raise AssertionError("the complement-edge Gram matrix was built")

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(completability, "_complement_gram", never)
    for cmd, rc in (("dominated", 0), ("vc", 2 if source == "gnp" else 0)):
        code, out, _ = run(capsys, cmd, *argv)
        assert code == rc
        assert code or json.loads(out)["x_dim"] == dim == 0
    monkeypatch.setattr(completability, "_complement_gram", counted)
    code, out, _ = run(capsys, "check-uc", *argv)
    doc = json.loads(out)
    assert code == 0 and len(calls) == 1
    assert doc["x_dim"] == dim and doc["sv_margin"] == number_token(margin)


def _shape(m):
    if isinstance(m, Graph):
        return (m.n, m.n)
    if isinstance(m, exact.ExactMatrix):
        return m.shape
    return (len(m), len(m[0]) if len(m) else 0)


def _count_calls(monkeypatch, calls, names):
    """Count calls of the named exact functions, by name and argument shape,
    wherever an eigenframe module imported them."""
    for name in names:
        real = getattr(exact, name)

        def counted(m, *args, _name=name, _real=real, **kwargs):
            calls[_name, _shape(m)] += 1
            return _real(m, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("eigenframe"):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counted)


@pytest.mark.parametrize("spec,n", [("kneser:6,2", 15), ("cycle:9", 9)])
@pytest.mark.parametrize("command", ["check-uc", "vc", "dominated"])
def test_each_command_certifies_its_input_eigenspace_once(monkeypatch, capsys, command, spec, n):
    calls = Counter()
    _count_calls(monkeypatch, calls, ("least_eigenspace", "nullspace"))
    # one eigh call from the exact module serves the guess of tau and the
    # floating basis
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted_solver(m, *args, _name=name, _real=real, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "eigenframe.exact":
                calls["eigensolver", np.shape(m)] += 1
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted_solver)
    assert run(capsys, command, "--gen", spec)[0] == 0
    certified = sum(k for (name, _), k in calls.items() if name == "least_eigenspace")
    assert certified == calls["least_eigenspace", (n, n)] == 1, calls
    assert calls["eigensolver", (n, n)] == 1, calls
    # the pass that proves tau gives the basis, so A - tau I is not
    # eliminated again
    assert calls["nullspace", (n, n)] == 0, calls


@pytest.mark.parametrize("command,adjacency_cap", [("dominated", 2), ("vc", 3)])
def test_commands_read_a_and_its_shift_from_the_one_eigenspace(
    monkeypatch, capsys, command, adjacency_cap
):
    # T(6), the complement of K(6,2), with a 5-dimensional witness space.
    # A is built to certify tau, and no command builds it more often than
    # its cap (today neither builds it again: phi_inverse proves each
    # witness handed to dominated_frameworks without A - tau I, and the
    # 1-walk-regular test of vc reads neighbour rows). Each dominated
    # framework takes its rank from the pivot pass that proves it PSD, so no
    # framework runs an exact rank.
    calls = Counter()
    _count_calls(monkeypatch, calls, ("adjacency_matrix", "rank_exact"))
    code, out, _ = run(capsys, command, "--graph6", emit_graph6(complement(kneser(6, 2))),
                       "--backend", "exact")
    assert code == 0 and json.loads(out)["x_dim"] == 5
    counts = Counter()
    for (name, _), k in calls.items():
        counts[name] += k
    assert counts["adjacency_matrix"] <= adjacency_cap, calls
    assert counts["rank_exact"] == 0, calls


def test_gen_refuses_a_graph6_list_over_the_byte_budget(capsys):
    # about n^2 / 12 graph6 cells at 8 bytes each: 2.7e10 bytes for 200000
    # vertices, refused before the graph is built
    code, out, err = run(capsys, "gen", "--gen", "cycle:200000")
    assert code == 2 and out == ""
    assert "200000 vertices exceeds the cap" in err
    assert run(capsys, "gen", "--cayley", "20:1")[0] == 2
    assert run(capsys, "gen", "--gen", "cycle:5") == (0, "Dhc\n", "")


@pytest.mark.parametrize("workload", ["certify", "witness"])
def test_exact_benchmark_ops_make_no_n_by_n_product(monkeypatch, capsys, workload):
    # the projector and the witnesses are proved at d x d, and a witness
    # handed to dominated_frameworks is proved by phi_inverse with n x d
    # products, so no op makes an n x n by n x n product; the witness
    # workload hands dominated_frameworks witnesses to prove
    shapes, witnesses = [], 0
    real = exact.ExactMatrix.__matmul__

    def recorded(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(exact.ExactMatrix, "__matmul__", recorded)
    for op in benchmark_ops(workload):
        shapes.clear()
        code, out, _ = run(capsys, *op.argv)
        square = [s for s in shapes if s == ((op.n, op.n), (op.n, op.n))]
        assert code == 0 and square == [], (op.key, shapes)
        if op.argv[0] == "dominated":
            witnesses += json.loads(out)["x_dim"]
    assert (witnesses > 0) == (workload == "witness")


def _exact_report_argvs():
    """Every integer-tau atlas graph on at most six vertices, the Kneser
    graphs K(5,2) to K(7,2), C4, T(6) and a Z_2^4 Cayley graph with a
    13-dimensional witness space, under all three report commands."""
    inputs = [
        ["--graph6", emit_graph6(g)]
        for g, _ in atlas_graphs()
        if g.n <= 6 and exact.least_eigenspace(g).is_exact()
    ]
    inputs += [["--gen", spec] for spec in ("kneser:5,2", "kneser:6,2", "kneser:7,2", "cycle:4")]
    inputs.append(["--graph6", emit_graph6(complement(kneser(6, 2)))])
    inputs.append(["--gen", "cayley:4:0001,0010,0011,0100,1000,1100"])
    argvs = [[cmd, *src, "--backend", "exact"] for src in inputs
             for cmd in ("check-uc", "vc", "dominated")]
    return argvs + [["survey", "--n", "3"]]


def test_exact_reports_are_byte_identical(capsys):
    # sha256 over argv, exit code and stdout of every call. A change to an
    # exact report must be deliberate: re-record the digest and say why.
    # Every input is exact, so the digest does not depend on the LAPACK build.
    digest = hashlib.sha256()
    argvs = _exact_report_argvs()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    assert len(argvs) == EXACT_REPORT_COUNT
    assert digest.hexdigest() == EXACT_REPORT_DIGEST


@pytest.mark.parametrize("workload", ["certify", "witness", "census"])
def test_exact_benchmark_ops_match_their_golden_digests(capsys, workload):
    # Seed 1 of the benchmark's exact workloads, hashed as perfbench/child.py
    # does: the exit code line, then stdout, which for a survey_one op is its
    # record as sorted-key compact JSON. Every input is exact and census
    # records hold no floats, so the digests do not depend on the LAPACK build.
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())
    ops = benchmark_ops(workload)
    assert ops
    for op in ops:
        if op.survey_set is None:
            code, out, _ = run(capsys, *op.argv)
        else:
            record = dataclasses.asdict(survey_one(5, op.survey_set))
            code, out = 0, json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        digest = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
        assert digest == golden[op.key], op.key
