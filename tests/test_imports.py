"""Each submodule imports cleanly when it is the first one imported.

`oockit.codes` imports `oockit.edop` at run time to build tables, and
`oockit.edop` names the code types only in annotations.  An import back
from `edop` to `codes` would fail in whichever order the two load; the
package `__init__` always loads them in one order, so each submodule is
imported here under a bare package, in a fresh interpreter.
"""

from __future__ import annotations

import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

# Found without running the package, so a cycle fails each case below
# rather than the collection of this file.
PACKAGE = importlib.util.find_spec("oockit").submodule_search_locations[0]
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE]))

FIRST_IMPORT = """
import importlib, sys, types
package = types.ModuleType("oockit")
package.__path__ = [sys.argv[1]]
sys.modules["oockit"] = package
importlib.import_module("oockit." + sys.argv[2])
"""


def test_every_submodule_is_listed():
    assert {"codes", "edop", "correlation", "cliques", "design"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    result = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, PACKAGE, name],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


# The package and each public submodule; ``__main__`` only runs the CLI.
EXPORTERS = ["oockit", *(f"oockit.{m}" for m in SUBMODULES if not m.startswith("_"))]


@pytest.mark.parametrize("name", EXPORTERS)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_each_submodule_name_once():
    parts = ("codes", "edop", "correlation", "cliques", "design", "document")
    expected = ["__version__"]
    for part in parts:
        expected += importlib.import_module(f"oockit.{part}").__all__
    assert importlib.import_module("oockit").__all__ == expected
    assert len(set(expected)) == len(expected)


def test_pyproject_version_is_the_recorded_tool_version():
    # A regex, not tomllib, so the check runs on Python 3.10 too.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)[1]
    assert version == importlib.import_module("oockit.document").TOOL_VERSION
    assert version == importlib.import_module("oockit").__version__
