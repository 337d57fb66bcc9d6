"""Command-line entry point.

Identical invocations must produce byte-identical output, so every number
passes through the canonical token rules and JSON is emitted with sorted
keys. Warnings (such as the automatic fall-back to the floating backend)
go to stderr and never pollute the report stream.

Exit codes: 0 success, 1 I/O or parse trouble, 2 unsupported input,
3 a failed internal consistency check or numerical routine.
"""

import argparse
import csv
import functools
import io
import math
import sys

from .coloring import is_uniquely_vector_colorable_1wr
from .completability import (
    clique_condition_any,
    dominated_frameworks,
    is_universally_completable,
    neighborhood_condition,
    xspace,
)
from .errors import (
    Graph6Error,
    InternalCheckError,
    NumericalError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .exact import least_eigenspace
from .frameworks import least_eigenvalue_framework
from .graphs import (
    CayleySpec,
    cayley_z2,
    cycle,
    emit_graph6,
    is_split,
    kneser,
    parse_graph6,
    q_kneser,
)
from .serialize import canonical_json, gram_digest, gram_tokens, number_token
from .survey import report_csv, report_json_dict, run_survey


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for unsupported input
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigenframe")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--gen", help="generator spec, e.g. cycle:5 or kneser:5,2")
            src.add_argument("--graph6", help="inline graph6 string")
            src.add_argument("--graph6-file", help="file with one graph6 string per line")
        p.add_argument("--backend", choices=("auto", "exact", "floating"), default="auto")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")

    add_common(sub.add_parser("check-uc", help="universal completability verdicts"))
    add_common(sub.add_parser("vc", help="optimal vector coloring and uniqueness"))
    add_common(sub.add_parser("dominated", help="enumerate dominated frameworks"))

    p_gen = sub.add_parser("gen", help="emit graphs as graph6")
    src = p_gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen", help="generator spec, e.g. qkneser:2,4,2")
    src.add_argument("--cayley", help="Cayley shorthand n:vec,vec with binary vectors")
    p_gen.add_argument("--out")

    p_sur = sub.add_parser("survey", help="Cayley graph census for one dimension")
    p_sur.add_argument("--n", type=int, required=True)
    # accepted and ignored, so old command lines still run: the census runs
    # in one process
    p_sur.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    p_sur.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_sur.add_argument("--out")
    return parser


# -- input plumbing -----------------------------------------------------------


def _parse_gen(text: str):
    """Generator mini-language: name:positional-args, all flat."""
    name, _, rest = text.partition(":")
    try:
        if name == "cycle":
            return cycle(int(rest))
        if name == "kneser":
            n, r = (int(x) for x in rest.split(","))
            return kneser(n, r)
        if name == "qkneser":
            q, n, r = (int(x) for x in rest.split(","))
            return q_kneser(q, n, r)
        if name == "cayley":
            return cayley_z2(_parse_cayley(rest))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad generator arguments in {text!r}: {exc}") from exc
    raise ValueError(f"unknown generator {name!r}")


def _parse_cayley(text: str) -> CayleySpec:
    head, _, vecs = text.partition(":")
    n = int(head)
    members = frozenset(int(v, 2) for v in vecs.split(","))
    return CayleySpec(n, members)


def _load_graphs(args):
    """Resolve the input source to a list of (label, graph)."""
    if args.gen is not None:
        return [(args.gen, _parse_gen(args.gen))]
    if args.graph6 is not None:
        g = parse_graph6(args.graph6)
        return [(emit_graph6(g), g)]
    with open(args.graph6_file) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"no graphs read from {args.graph6_file}")
    return [(ln, parse_graph6(ln)) for ln in lines]


def _warn_if_floating(requested: str, actual: str, label: str):
    if requested == "auto" and actual == "floating":
        print(
            f"warning: {label}: least eigenvalue not certified integer, "
            "using the floating backend",
            file=sys.stderr,
        )


# -- report rendering helpers --------------------------------------------------


def _emit(args, text: str) -> int:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header, rows) -> str:
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    return "\n".join(lines) + "\n"


def _render(args, docs, header, rows) -> str:
    if args.format == "json":
        payload = docs[0] if len(docs) == 1 else docs
        return canonical_json(payload) + "\n"
    if args.format == "csv":
        return _csv_text(header, rows)
    return _table_text(header, rows)


# -- commands -----------------------------------------------------------------


def _cmd_check_uc(args) -> int:
    docs, rows = [], []
    for label, g in _load_graphs(args):
        les = least_eigenspace(g, args.backend, args.tol)
        verdict = is_universally_completable(les)
        xs = verdict.witness
        _warn_if_floating(args.backend, xs.backend, label)
        nbhd = neighborhood_condition(les).holds
        cliq, _ = clique_condition_any(les)
        split, _ = is_split(g)
        doc = {
            "graph6": emit_graph6(g),
            "tau": number_token(xs.tau),
            "tau_mult": xs.tau_multiplicity,
            "x_dim": xs.dim,
            "verdict": verdict.uc,
            "conditions": {"neighborhood": nbhd, "clique": cliq, "split": split},
            "backend": xs.backend,
        }
        if xs.sv_margin is not None:
            doc["sv_margin"] = number_token(float(xs.sv_margin))
        docs.append(doc)
        rows.append(
            [doc["graph6"], doc["tau"], doc["tau_mult"], doc["x_dim"], verdict.uc,
             nbhd, cliq, split, xs.backend]
        )
    header = ["graph6", "tau", "tau_mult", "x_dim", "uc", "neighborhood", "clique",
              "split", "backend"]
    return _emit(args, _render(args, docs, header, rows))


def _coloring_doc(col) -> dict:
    return {
        "t": number_token(col.t),
        "strict": col.strict,
        "gram": gram_tokens(col.gram),
        "gram_digest": gram_digest(col.gram),
    }


def _cmd_vc(args) -> int:
    docs, rows = [], []
    for label, g in _load_graphs(args):
        les = least_eigenspace(g, args.backend, args.tol)
        try:
            result = is_uniquely_vector_colorable_1wr(les)
        except ValueError as exc:  # not 1-walk-regular
            raise UnsupportedInputError(str(exc)) from exc
        col = result.coloring
        _warn_if_floating(args.backend, col.backend, label)
        doc = {
            "graph6": emit_graph6(g),
            "t": number_token(col.t),
            "strict": col.strict,
            "uvc": result.uvc,
            "x_dim": result.x_dim,
            "gram_digest": gram_digest(col.gram),
        }
        if not result.uvc and result.alternate is not None:
            doc["alternate"] = _coloring_doc(result.alternate)
        if result.reason:
            doc["reason"] = result.reason
        docs.append(doc)
        rows.append(
            [doc["graph6"], doc["t"], col.strict, result.uvc, result.x_dim,
             doc["gram_digest"]]
        )
    header = ["graph6", "t", "strict", "uvc", "x_dim", "gram_digest"]
    return _emit(args, _render(args, docs, header, rows))


def _cmd_dominated(args) -> int:
    docs, rows = [], []
    for label, g in _load_graphs(args):
        les = least_eigenspace(g, args.backend, args.tol)
        fw = least_eigenvalue_framework(les)
        _warn_if_floating(args.backend, fw.backend, label)
        xs = xspace(les)
        shifted = [dominated_frameworks(fw, x) for x in xs.basis]
        doc = {
            "graph6": emit_graph6(g),
            "tau": number_token(xs.tau),
            "d": fw.d,
            "x_dim": xs.dim,
            "base": fw.to_json_dict(),
            "dominated": [s.to_json_dict() for s in shifted],
        }
        docs.append(doc)
        rows.append([doc["graph6"], doc["tau"], fw.d, xs.dim, len(shifted)])
    header = ["graph6", "tau", "d", "x_dim", "num_dominated"]
    return _emit(args, _render(args, docs, header, rows))


def _cmd_gen(args) -> int:
    if args.cayley is not None:
        try:
            g = cayley_z2(_parse_cayley(args.cayley))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad Cayley spec {args.cayley!r}: {exc}") from exc
    else:
        g = _parse_gen(args.gen)
    return _emit(args, emit_graph6(g) + "\n")


def _cmd_survey(args) -> int:
    report = run_survey(args.n)
    if args.format == "json":
        return _emit(args, canonical_json(report_json_dict(report)) + "\n")
    if args.format == "csv":
        return _emit(args, report_csv(report))
    lines = [f"{report.total_connected} connected, {report.total_uc} universally completable"]
    for r in report.records:
        cs = ";".join(format(c, "x") for c in r.connection_set)
        lines.append(
            f"n={r.n} set={cs} tau={r.tau} mult={r.tau_multiplicity} "
            f"x_dim={r.x_dim} uc={r.uc}"
        )
    return _emit(args, "\n".join(lines) + "\n")


_COMMANDS = {
    "check-uc": _cmd_check_uc,
    "vc": _cmd_vc,
    "dominated": _cmd_dominated,
    "gen": _cmd_gen,
    "survey": _cmd_survey,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; callers get a code instead
        return exc.code if isinstance(exc.code, int) else 1
    if not 0 < getattr(args, "tol", 1.0) < math.inf:  # also refuses nan
        print("error: tolerance must be a positive finite number", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (Graph6Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnsupportedInputError, ResourceLimitError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
