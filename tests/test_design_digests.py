"""Byte-identity grid for designed documents.

A refactor of the designer must keep every designed document unchanged.
This grid designs, in process, every single tuple with w in 3..5, n from
w + 2 to 31 (to 25 at w = 5), (lambda_a, lambda_c) in (1,1), (2,2),
(1,2), (2,1) and caps None and 2 (576 `design_fixed` documents), and
every pair of a fixed list of twelve tuples, its cap cycling through
None, 1, 2, 3 (66 `design_multi` documents).  Each document is the
canonical JSON of the family; an empty family is a document too.

`design_digests.json` stores one sha256 per (w, lambda_a, lambda_c, cap)
group over its documents in n order, and one per merge cap over its
merges in list order.  A failure names each changed group with its
recomputed digest.  A change that is meant to alter documents updates
the file by running this module as a script::

    PYTHONPATH=src python tests/test_design_digests.py
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

from oockit import (
    CodeParams,
    DesignConfig,
    design_fixed,
    design_multi,
    document_from_family,
    to_canonical_json,
)

DIGESTS = Path(__file__).resolve().with_name("design_digests.json")

LAMBDAS = ((1, 1), (2, 2), (1, 2), (2, 1))
CAPS = (None, 2)
LONGEST = {3: 31, 4: 31, 5: 25}

# Merged pairwise, in this order: lengths, weights and ceilings mix.
MERGED = (
    (13, 4, 1, 1),
    (19, 4, 2, 2),
    (25, 3, 1, 1),
    (31, 3, 1, 1),
    (16, 3, 1, 1),
    (25, 4, 1, 2),
    (21, 5, 2, 2),
    (22, 4, 2, 1),
    (17, 3, 2, 2),
    (20, 5, 1, 1),
    (14, 3, 1, 1),
    (19, 3, 2, 1),
)
MERGE_CAPS = (None, 1, 2, 3)


def group_key(w, lambda_a, lambda_c, cap) -> str:
    return f"{w},{lambda_a},{lambda_c}/max_sets={cap}"


def document(family) -> bytes:
    return to_canonical_json(document_from_family(family)).encode("utf-8")


def single_digests() -> dict[str, str]:
    digests = {}
    for w, longest in LONGEST.items():
        for lambda_a, lambda_c in LAMBDAS:
            for cap in CAPS:
                h = hashlib.sha256()
                for n in range(w + 2, longest + 1):
                    params = CodeParams(n, w, lambda_a, lambda_c)
                    h.update(document(design_fixed(params, cap)))
                digests[group_key(w, lambda_a, lambda_c, cap)] = h.hexdigest()
    return digests


def merge_digests() -> dict[str, str]:
    hashes = {cap: hashlib.sha256() for cap in MERGE_CAPS}
    for i, pair in enumerate(combinations(MERGED, 2)):
        cap = MERGE_CAPS[i % len(MERGE_CAPS)]
        config = DesignConfig(tuple(CodeParams(*t) for t in pair), cap)
        hashes[cap].update(document(design_multi(config)))
    return {f"merge/max_sets={cap}": h.hexdigest() for cap, h in hashes.items()}


def changed(stored: dict[str, str], recomputed: dict[str, str]) -> list[str]:
    return [
        f"{key}: stored {stored.get(key)}, recomputed {digest}"
        for key, digest in recomputed.items()
        if stored.get(key) != digest
    ]


def test_single_tuple_documents_are_unchanged():
    stored = json.loads(DIGESTS.read_text("utf-8"))
    recomputed = single_digests()
    assert len(recomputed) == len(LONGEST) * len(LAMBDAS) * len(CAPS)
    assert changed(stored, recomputed) == []


def test_merged_documents_are_unchanged():
    stored = json.loads(DIGESTS.read_text("utf-8"))
    assert changed(stored, merge_digests()) == []


if __name__ == "__main__":
    grid = single_digests() | merge_digests()
    DIGESTS.write_text(json.dumps(grid, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {len(grid)} digests to {DIGESTS.name}")
