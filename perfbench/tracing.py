"""Per-layer tracing from outside the library.

The library is never edited.  Instead, the tracer swaps the names that a
calling module looks up at call time: ``oockit.design.build_graph`` is the
name `design_fixed` resolves, so replacing that attribute with a wrapper
times every graph build the designer makes, while a caller that imported
`build_graph` from `oockit.cliques` is unaffected.  Two kinds of wrapper
exist:

* a *span* records name, start, end, parent span and operation id, and
  its self time is its duration minus that of its direct child spans;
* a *counter* only counts calls (and whatever it derives from arguments
  and return values), so its time stays in the enclosing span.  Hot inner
  functions such as `interset_crosscorr` are counters: a span per call
  would cost more than the call.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _graph_counts(counts, args, kwargs, graph):
    nodes = len(graph.nodes)
    counts["cliques.build_graph.nodes"] += nodes
    counts["cliques.build_graph.pairs"] += nodes * (nodes - 1) // 2
    counts["cliques.build_graph.edges"] += sum(map(len, graph.neighbors)) // 2


def _len_out(name):
    def count(counts, args, kwargs, result):
        counts[name] += len(result)

    return count


def _family_counts(counts, args, kwargs, family):
    counts["cliques.select_family.sets_in"] += len(args[0])
    counts["cliques.select_family.sets_out"] += len(family.sets)


def _code_pairs(counts, args, kwargs, result):
    a, b = args[0], args[1]
    counts["correlation.interset_crosscorr.code_pairs"] += len(
        getattr(a, "codes", a)
    ) * len(getattr(b, "codes", b))


def _shifts(name, skip):
    def count(counts, args, kwargs, result):
        counts[name] += args[0].n - skip

    return count


def _failed_checks(counts, args, kwargs, report):
    counts["document.verify_document.failed_checks"] += len(report.failures())


# (module, attribute looked up by the caller, span name, derived counts);
# every span also counts ``<name>.calls``.
SPANS = (
    ("oockit.design", "design_fixed", "design.design_fixed", None),
    ("oockit.design", "design_multi", "design.design_multi", None),
    ("oockit.design", "enumerate_first_pairs", "design.enumerate_first_pairs",
     _len_out("design.enumerate_first_pairs.out")),
    ("oockit.design", "extend_clique_codes", "design.extend_clique_codes",
     _len_out("design.extend_clique_codes.out")),
    ("oockit.design", "build_graph", "cliques.build_graph", _graph_counts),
    ("oockit.design", "enumerate_cliques", "cliques.enumerate_cliques",
     _len_out("cliques.enumerate_cliques.cliques")),
    ("oockit.design", "make_clique_set", "cliques.make_clique_set", None),
    ("oockit.design", "select_family", "cliques.select_family", _family_counts),
    ("oockit.cliques", "clique_set_matrix", "cliques.clique_set_matrix", None),
    ("oockit.document", "autocorr_bruteforce", "correlation.autocorr_bruteforce",
     _shifts("correlation.autocorr_bruteforce.shifts", 1)),
    ("oockit.document", "crosscorr_bruteforce", "correlation.crosscorr_bruteforce",
     _shifts("correlation.crosscorr_bruteforce.shifts", 0)),
    ("oockit.document", "autocorr_edop", "correlation.autocorr_edop", None),
    ("oockit.document", "crosscorr_edop", "correlation.crosscorr_edop", None),
    ("oockit.document", "to_canonical_json", "document.to_canonical_json", None),
    ("oockit.cli", "from_json", "document.from_json", None),
    ("oockit.cli", "verify_document", "document.verify_document", _failed_checks),
    ("oockit.cli", "main", "cli.main", None),
)

# (module, attribute looked up by the caller, count key, derived counts)
COUNTERS = (
    ("oockit.cliques", "greedy_clique", "cliques.greedy_clique.calls", None),
    ("oockit.design", "greedy_clique", "cliques.greedy_clique.calls", None),
    ("oockit.cliques", "interset_crosscorr", "correlation.interset_crosscorr.calls",
     _code_pairs),
    ("oockit.design", "interset_crosscorr", "correlation.interset_crosscorr.calls",
     _code_pairs),
    ("oockit.design", "edop_full", "edop.tables_built", None),
    ("oockit.design", "edop_partial", "edop.tables_built", None),
    ("oockit.cliques", "edop_full", "edop.tables_built", None),
    ("oockit.cliques", "edop_partial", "edop.tables_built", None),
    ("oockit.correlation", "edop_full", "edop.tables_built", None),
    ("oockit.design", "standardize", "codes.standardize.calls", None),
)


class Tracer:
    """Spans and counts for one run; `install` swaps names, `uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn, derive):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, self.op, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if derive is not None:
                derive(counts, args, kwargs, result)
            return result

        return traced

    def _counter(self, key, fn, derive):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if derive is not None:
                derive(counts, args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module_name, attr, name, derive in table:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original, derive))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def mark(self) -> tuple[int, Counter]:
        """Position to measure a unit of work from (see `since`)."""
        return len(self.spans), Counter(self.counts)

    def since(self, mark) -> dict[str, float]:
        """Self time per layer (``<name>.busy_s``) and count deltas since `mark`."""
        first, counts_before = mark
        out: dict[str, float] = defaultdict(float)
        names = {}
        for sid, parent, _op, name, start, end in self.spans[first:]:
            names[sid] = name
            out[name + ".busy_s"] += end - start
            if parent is not None and parent >= first:
                out[names[parent] + ".busy_s"] -= end - start
        for key, value in self.counts.items():
            delta = value - counts_before.get(key, 0)
            if delta:
                out[key] = delta
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name",
                                            "start", "end"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
