"""The benchmark tracer's swap targets exist in the library.

``perfbench/tracing.py`` times and counts layers by replacing module
attributes such as ``oockit.design.build_graph``.  A name dropped from a
module (an import that looks unused, say) would only fail a traced
benchmark run; this test fails first.  The reverse holds too: an import
a module keeps only for the tracer is one the tracer still swaps.  And
the tracer's readings of a traced design stay those of the work done.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import oockit.cli  # noqa: F401  (the benchmark imports it too; oockit does not)
from oockit import CodeParams, build_graph, design, enumerate_first_pairs

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


def test_traced_design_reads_the_pool_making_work():
    """The lambda2 ladder, traced: a refactor that moves pool-making work
    out of a swapped name changes these readings and fails here, not only
    in a traced benchmark run.  Readings that are 0 on this ladder are
    left out, as they show nothing."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for t in ((25, 4, 2, 2), (25, 5, 2, 2), (25, 4, 1, 2)):
            design.design_fixed(CodeParams(*t))
    finally:
        tracer.uninstall()
    readings = {
        "design.enumerate_first_pairs.out": 300,
        "design.extend_clique_codes.out": 810,
        "cliques.build_graph.calls": 7,
        "cliques.build_graph.nodes": 1922,
        "cliques.enumerate_cliques.cliques": 26,
    }
    assert {name: tracer.counts[name] for name in readings} == readings
