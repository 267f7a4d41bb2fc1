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
import subprocess
import sys

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
