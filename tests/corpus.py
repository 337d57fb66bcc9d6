"""Shared test corpus: every graph on at most seven vertices.

networkx ships the complete atlas (1253 graphs, 853 of them connected
with at least one vertex).  We convert each to our Graph type once per
session and hand out filtered views.  The published counts are asserted
at load time so a broken atlas install fails loudly instead of silently
shrinking the corpus.

benchmark_ops hands out the benchmark's own inputs, built from a seed by
perfbench/workloads.py, which is loaded read-only.
"""

import importlib.util
import sys
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from eigenframe.graphs import from_edges

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# all graphs / connected graphs on exactly n vertices, n = 1..7
ATLAS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

_cache = None


def _convert(nxg):
    n = nxg.number_of_nodes()
    nodes = sorted(nxg.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return from_edges(n, [(index[u], index[v]) for u, v in nxg.edges()])


def atlas_graphs():
    """All atlas graphs with >= 1 vertex, as (graph, nx_graph) pairs."""
    global _cache
    if _cache is None:
        raw = [g for g in graph_atlas_g() if g.number_of_nodes() >= 1]
        from collections import Counter
        counts = Counter(g.number_of_nodes() for g in raw)
        assert dict(counts) == ATLAS_COUNTS, "atlas corpus has unexpected counts"
        _cache = [(_convert(g), g) for g in raw]
    return _cache


def connected_graphs(max_n=7, min_n=1):
    out = [(g, nxg) for g, nxg in atlas_graphs()
           if min_n <= g.n <= max_n and nx.is_connected(nxg)]
    return out


def benchmark_ops(workload, seed=1):
    """The ops of one benchmark workload for one seed, each with .key and
    .argv (None for a direct survey_one call) as perfbench/child.py runs
    them."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["workloads"]
    return module.build(workload, seed)
