"""The benchmark tracer's swap targets exist in the library.

``perfbench/tracing.py`` times and counts layers by replacing module
attributes such as ``oockit.design.build_graph``.  A name dropped from a
module (an import that looks unused, say) would only fail a traced
benchmark run; this test fails first.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import oockit.cli  # noqa: F401  (the benchmark imports it too; oockit does not)
from oockit import CodeParams, build_graph, enumerate_first_pairs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_after_import():
    tracing = load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _derive in tracing.SPANS + tracing.COUNTERS
        if not hasattr(sys.modules[module], attr)
    ]
    assert tracing.SPANS and tracing.COUNTERS
    assert missing == []


def test_graph_counts_read_the_graph_the_designer_builds():
    """The build_graph counter reads ``graph.nodes`` and ``graph.neighbors``."""
    graph = build_graph(enumerate_first_pairs(CodeParams(25, 3, 1, 1)), 1)
    counts = Counter()
    load_tracing()._graph_counts(counts, (), {}, graph)
    assert counts["cliques.build_graph.nodes"] == 110
    assert counts["cliques.build_graph.pairs"] == 110 * 109 // 2
    assert counts["cliques.build_graph.edges"] == 2172
