"""Toolkit for unipolar code families with bounded correlations.

Codes live as bit patterns, one-position lists, or cyclic difference
tuples; difference tables give correlation levels without shifting, a
greedy clique search assembles compatible codes into sets and sets into
families, and documents freeze the result for later re-verification.

The package re-exports the ``__all__`` of each submodule below; the
command line (`oockit.cli`) is imported only by its entry points.
"""

from .codes import *
from .edop import *
from .correlation import *
from .cliques import *
from .design import *
from .document import *

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    *codes.__all__,
    *edop.__all__,
    *correlation.__all__,
    *cliques.__all__,
    *design.__all__,
    *document.__all__,
]
