"""The benchmark tracer's swap targets exist in the library.

``perfbench/tracing.py`` times and counts layers by replacing module
attributes such as ``oockit.design.build_graph``.  A name dropped from a
module (an import that looks unused, say) would only fail a traced
benchmark run; this test fails first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import oockit  # noqa: F401
import oockit.cli  # noqa: F401  (the benchmark imports it too; oockit does not)

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
