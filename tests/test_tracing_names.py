"""The benchmark tracer's swap targets exist in the library.

``perfbench/tracing.py`` times and counts layers by replacing module
attributes such as ``oockit.design.build_graph``.  A name dropped from a
module (an import that looks unused, say) would only fail a traced
benchmark run; this test fails first.  The reverse holds too: an import
a module keeps only for the tracer is one the tracer still swaps.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import oockit.cli  # noqa: F401  (the benchmark imports it too; oockit does not)
from oockit import CodeParams, build_graph, enumerate_first_pairs

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_every_tracer_only_import_is_swapped():
    """Each name a library module imports on a ``# noqa: F401`` line is one
    the tracer swaps on that module; one it no longer swaps can be deleted."""
    tracing = load_tracing()
    swapped = {f"{mod}.{attr}" for mod, attr, *_ in tracing.SPANS + tracing.COUNTERS}
    kept = []
    for path in sorted((ROOT / "src" / "oockit").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            marked = isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line
                for line in lines[node.lineno - 1 : node.end_lineno]
            )
            if marked:
                kept += [f"oockit.{path.stem}.{a.asname or a.name}" for a in node.names]
    assert kept
    assert [name for name in kept if name not in swapped] == []


def test_graph_counts_read_the_graph_the_designer_builds():
    """The build_graph counter reads ``graph.nodes`` and ``graph.neighbors``."""
    graph = build_graph(enumerate_first_pairs(CodeParams(25, 3, 1, 1)), 1)
    counts = Counter()
    load_tracing()._graph_counts(counts, (), {}, graph)
    assert counts["cliques.build_graph.nodes"] == 110
    assert counts["cliques.build_graph.pairs"] == 110 * 109 // 2
    assert counts["cliques.build_graph.edges"] == 2172
