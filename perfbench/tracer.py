"""Spans around eigenframe's layer functions, installed from outside the package.

Each listed function is replaced by a wrapper under every name that refers to
it: its own module attribute, the attribute in each eigenframe module that
imported it, and the class attribute for methods. Spans stay in memory (id,
parent id, name, start, end, note) until the run ends. A function that no
longer exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, qualified name) for every span, grouped by the end-to-end metric
# each group should move (see README.md).
FUNCTIONS = (
    ("exact", "integer_least_eigenvalue"),
    ("exact", "psd_rank_pivot"),
    ("exact", "rank_exact"),
    ("exact", "graph_spectrum"),
    ("graphs", "maximal_cliques"),
    ("completability", "clique_condition_any"),
    ("completability", "clique_condition"),
    ("completability", "neighborhood_condition"),
    ("completability", "xspace"),
    ("completability", "_build_system"),
    ("modular", "rank_mod_p"),
    ("exact", "nullspace_fast"),
    ("exact", "_solve_dixon"),
    ("exact", "_solve_bareiss_square"),
    ("exact", "nullspace"),
    ("completability", "dominated_frameworks"),
    ("frameworks", "dominates"),
    ("exact", "ExactMatrix.__matmul__"),
    ("coloring", "is_one_walk_regular"),
    ("coloring", "optimal_vector_coloring_1wr"),
    ("coloring", "validate_coloring"),
    ("coloring", "is_uniquely_vector_colorable_1wr"),
    ("exact", "is_psd_exact"),
    ("exact", "charpoly"),
    ("exact", "projector_onto_nullspace"),
    ("exact", "invert"),
    ("frameworks", "least_eigenvalue_framework"),
    ("exact", "floating_least_eigenspace"),
    ("exact", "cayley_spectrum"),
    ("survey", "enumerate_orbits"),
    ("survey", "survey_one"),
    ("cli", "main"),
    ("graphs", "parse_graph6"),
    ("serialize", "canonical_json"),
    ("serialize", "gram_digest"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in FUNCTIONS)

SPECTRUM_SPANS = (
    "exact.integer_least_eigenvalue",
    "exact.floating_least_eigenspace",
    "exact.cayley_spectrum",
)


def _build_system_note(args, _result):
    # _build_system(g, diag, dtype, pairs, index): an n^2 x |complement edges| array
    g, _, dtype, pairs = args[:4]
    cells = g.n * g.n * len(pairs)
    return cells, cells * np.dtype(dtype).itemsize


# What a span records about its call, for the route and size metrics.
NOTES = {
    "exact.integer_least_eigenvalue": lambda args, result: result is not None,
    "exact._solve_dixon": lambda args, result: result is None,
    "completability.xspace": lambda args, result: (result.backend, result.dim),
    "completability._build_system": _build_system_note,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._ids = itertools.count(1)
        self._patched = []

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "eigenframe" or name.startswith("eigenframe.")
        ]
        for mod_name, qual in FUNCTIONS:
            name = f"{mod_name}.{qual}"
            *owner_path, attr = qual.split(".")
            owner = sys.modules.get(f"eigenframe.{mod_name}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, NOTES.get(name))
            if owner_path:  # a method: the class attribute is the only reference
                self._patch(owner, attr, traced, original)
                continue
            for module in modules:
                for ref, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, ref, traced, original)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, traced, original):
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _wrap(self, name, fn, note):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, note(args, result) if note else None))
            return result

        return traced


def summarize(spans, passes: int, ops: int) -> dict:
    """Per-layer metrics per traced pass, plus route ratios and computed sizes.

    Self time is a span's duration minus the time its direct children cover;
    total time counts only spans with no ancestor of the same name.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    child_names = defaultdict(set)
    for sid, parent, name, start, end, _ in spans:
        child_time[parent] += end - start
        child_names[parent].add(name)

    def nested_in_same_name(span):
        parent = span[1]
        while parent:
            ancestor = by_id[parent]
            if ancestor[2] == span[2]:
                return True
            parent = ancestor[1]
        return False

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for span in spans:
        sid, _, name, start, end, _ = span
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
        if not nested_in_same_name(span):
            total_s[name] += end - start

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / passes, "s")
        metrics[f"{name}.total_s"] = (total_s[name] / passes, "s")

    def of(name):
        return [s for s in spans if s[2] == name]

    def ratio(hits, base):
        return hits / base if base else 0.0

    ile = of("exact.integer_least_eigenvalue")
    exact_xs = [s for s in of("completability.xspace") if s[5] and s[5][0] == "exact"]
    dixon = of("exact._solve_dixon")
    fast = of("exact.nullspace_fast")
    builds = of("completability._build_system")
    metrics["exact.integer_least_eigenvalue.certified_ratio"] = (
        ratio(sum(1 for s in ile if s[5]), len(ile)), "ratio")
    metrics["completability.xspace.modp_shortcut_ratio"] = (
        ratio(sum(1 for s in exact_xs if "exact.nullspace_fast" not in child_names[s[0]]),
              len(exact_xs)), "ratio")
    metrics["completability.xspace.exact_calls"] = (len(exact_xs) / passes, "count")
    metrics["exact._solve_dixon.bail_ratio"] = (
        ratio(sum(1 for s in dixon if s[5]), len(dixon)), "ratio")
    metrics["exact.nullspace_fast.fallback_ratio"] = (
        ratio(sum(1 for s in fast if "exact.nullspace" in child_names[s[0]]), len(fast)),
        "ratio")
    metrics["exact.spectra_per_op"] = (
        ratio(sum(calls[name] for name in SPECTRUM_SPANS), ops), "1/op")
    metrics["ops_per_pass"] = (ops / passes, "count")
    metrics["completability._build_system.cells"] = (
        sum(s[5][0] for s in builds) / passes, "count")
    metrics["completability._build_system.bytes"] = (
        sum(s[5][1] for s in builds) / passes, "B")
    # Cross-check for the reader: the mod-p shortcut share must equal the
    # share of exact xspace calls that found a trivial witness space.
    xdim0 = ratio(sum(1 for s in exact_xs if s[5][1] == 0), len(exact_xs))
    return {"metrics": metrics, "xspace_xdim0_share": xdim0}
