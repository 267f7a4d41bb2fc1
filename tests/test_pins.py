"""Byte-identity pins for designed documents.

Each case runs ``oockit design`` in process and compares the sha256 of
what it prints with a recorded digest, so any change to the search or to
family selection that alters an emitted document is caught.  The first
group is every key of ``perfbench/pins.json``, read from that file, whose
keys spell the design call (``n,w,lambda_a,lambda_c`` tuples joined by
``+``, then an optional ``/max_sets=k``); the second covers merges of
tuples with different cross ceilings, ``--max-sets`` caps applied
after a merge, w = 3 graphs whose many top-degree walks share their
tails, and a large w = 3 tuple whose last graph yields far more
candidate sets than the family keeps, which no benchmark pin exercises.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from oockit.cli import main

BENCHMARK_PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


def design_argv(key):
    """``oockit design`` arguments for a ``perfbench/pins.json`` key."""
    tuples, _, max_sets = key.partition("/max_sets=")
    columns = zip(*(t.split(",") for t in tuples.split("+")))
    argv = []
    for flag, values in zip(("--n", "--w", "--lambda-a", "--lambda-c"), columns):
        argv += [flag, ",".join(values)]
    if max_sets:
        argv += ["--max-sets", max_sets]
    return argv


PINS = {
    key: (design_argv(key), digest)
    for key, digest in json.loads(BENCHMARK_PINS.read_text("utf-8")).items()
}
PINS |= {
    "mixed-ceilings-13-19": (
        ["--n", "13,19", "--w", "4,4", "--lambda-a", "1,2", "--lambda-c", "1,2"],
        "ecdc1931f8d0bf0f6273a68cfeb489ebb46d0a6056dc1805b96cf94304123dd0",
    ),
    "mixed-ceilings-19-25": (
        ["--n", "19,25", "--w", "4,3", "--lambda-a", "2,1", "--lambda-c", "2,1"],
        "497561adf35fac07a8a6a503f0c2d4570db1611e3ee0dc39e8ed7ae620dea420",
    ),
    "merge-25-31-max-sets-2": (
        ["--n", "25,31", "--w", "3,3", "--max-sets", "2"],
        "b650ba4c3cb32204fa136cd1a128f73ba9a28b71a8a8d05a980eed88dbd0d38f",
    ),
    "merge-13-25-max-sets-1": (
        ["--n", "13,25", "--w", "4,3", "--max-sets", "1"],
        "827e48d58cd83c1069cdb3ab9ff6bac9ef545240f2a7b3f21423cb423cf556ff",
    ),
    "31,3,1,1-max-sets-3": (
        ["--n", "31", "--w", "3", "--max-sets", "3"],
        "0d18b14aa2c5c2f755f8d930e54ba094a47b1419c10908efd584f0492163b2e6",
    ),
    "19,4,2,2-max-sets-2": (
        ["--n", "19", "--w", "4", "--lambda-a", "2", "--lambda-c", "2",
         "--max-sets", "2"],
        "fea2ebe65a5b59cf25a27a476cd36d631dcfabc72b93f594ccf8fe190e77c2a4",
    ),
    # Many top-degree starts per graph: these guard walks that share tails.
    "43,3,1,1": (
        ["--n", "43", "--w", "3"],
        "032079daa2aa35691e1336842d3050c59f5277a38e320dbaf329b08bd274ef20",
    ),
    "55,3,1,1": (
        ["--n", "55", "--w", "3"],
        "feeda63a0ab0eb6c322b5157fe1db1948a84cc26dd97038478be5edfe88929d3",
    ),
    # 1,142 last-stage candidate sets, of which only the 17 emitted ones
    # pass through `make_clique_set`.
    "91,3,1,1": (
        ["--n", "91", "--w", "3"],
        "a8199a2475199a7cd0ed86d343ea5e190957d81efaf97457914b3d84b1935397",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_designed_document_is_byte_identical(case, capsys):
    argv, digest = PINS[case]
    assert main(["design", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
