"""Byte-identity pins for what ``oockit verify`` prints.

The documents are the benchmark's verify corpus (``perfbench/corpus.py``,
loaded by path) for seeds 1 and 2, built from the documents designed
from the verify-corpus ladder, plus the designed (25,4,1,2) document,
whose five sets give ten set pairs for the family-separation rule, and
three hand-made documents the corpus lacks: a lambda_c = 1 set whose two
codes share a table entry, a duplicated singleton set over the pair
limit, and a family whose first two sets fail structural rules.  Each
document is verified in process, and the sha256 of its label, exit code
and standard output is compared with a recorded digest, so a change to
any rule's outcome, order or detail text is caught.  The command prints
no detail for a passing rule, so one more digest covers every check of
every report, passing ones too, with its skip and not-applicable notes.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from oockit import cli, cliques, codes, correlation, design, document, edop

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"

# The verify-corpus ladder of perfbench/run.py, keyed as its pins are.
LADDER = ("25,3,1,1", "31,3,1,1", "13,4,1,1", "19,4,2,2", "13,4,1,1+25,3,1,1")
SEEDS = (1, 2)


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def designed_document(key):
    """The document ``oockit design`` writes for a ladder key."""
    tuples = [tuple(map(int, t.split(","))) for t in key.split("+")]
    params = [codes.CodeParams(*t) for t in tuples]
    if len(params) == 1:
        family = design.design_fixed(params[0])
    else:
        family = design.design_multi(design.DesignConfig(tuple(params)))
    config = {
        "n": [t[0] for t in tuples],
        "w": [t[1] for t in tuples],
        "lambda_a": [t[2] for t in tuples],
        "lambda_c": [t[3] for t in tuples],
        "max_sets": None,
    }
    return document.document_from_family(family, config)


def corpus_entries():
    """(label, canonical text) of every pinned document."""
    lib = SimpleNamespace(
        codes=codes, edop=edop, correlation=correlation, cliques=cliques,
        design=design, document=document, cli=cli,
    )
    corpus = load_corpus()
    designed = {key: designed_document(key) for key in LADDER}
    out = []
    for seed in SEEDS:
        for label, text, _rule in corpus.build(lib, random.Random(seed), seed, designed):
            out.append((f"seed{seed}/{label}", text))
    out.append(("25,4,1,2", document.to_canonical_json(designed_document("25,4,1,2"))))
    out.extend(hand_made_entries())
    return out


def payload_of(key):
    return json.loads(document.to_canonical_json(designed_document(key)))


def hand_made_entries():
    """(label, canonical text) of documents that trip rules in combination."""
    # Two lambda_c = 1 codes sharing table entries 2 and 3 (and their
    # complements): cross-correlation-bound and shared-difference both fail.
    shared = payload_of("25,3,1,1")
    shared["family_interset_lambda"] = 0
    shared["sets"] = [
        {
            "params": {"n": 25, "w": 3, "lambda_a": 1, "lambda_c": 1},
            "bound": 4,
            "verified_lambda_a": 1,
            "verified_lambda_c": 2,
            "codes": [
                {"dopr": [1, 2, 22], "wpr": [0, 1, 3]},
                {"dopr": [2, 3, 20], "wpr": [0, 2, 5]},
            ],
        }
    ]
    # A duplicated singleton correlates with itself at the full weight 3,
    # over the pair limit of 2.
    pair_limit = payload_of("7,3,1,1")
    pair_limit["sets"].append(copy.deepcopy(pair_limit["sets"][0]))
    pair_limit["family_interset_lambda"] = 3
    # Set 0 has inadmissible parameters and set 1 a difference list that
    # misses n; only set 2 reaches the correlation rules.
    skipped = payload_of("13,4,1,1")
    sound = skipped["sets"][0]
    skipped["sets"] = [copy.deepcopy(sound), copy.deepcopy(sound), sound]
    skipped["sets"][0]["params"]["lambda_a"] = 0
    skipped["sets"][1]["codes"][0]["dopr"] = [1, 3, 2, 8]
    return [
        (label, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        for label, payload in (
            ("cross-shared-entry", shared),
            ("family-pair-limit", pair_limit),
            ("structural-skips", skipped),
        )
    ]


@pytest.fixture(scope="module")
def entries():
    return corpus_entries()


PINNED = {
    "seed1/25,3,1,1": "3047fc922f5e978c4c86e6cca07e5addf169c1d015c80abc4d2756334f9547d4",
    "seed1/31,3,1,1": "e628d12862700e6c07a9ee1a5fa0bfc18f48e2d297386960b67fc5da0bc54f0e",
    "seed1/13,4,1,1": "f8db4c58cfc4cfb3f3ed54121999b87244be0a7a419a2b4f261c48c54e514852",
    "seed1/19,4,2,2": "6fca4bfa3c4edc8d339979bf08b33646fa83044a06808366aec4d262573cf05b",
    "seed1/13,4,1,1+25,3,1,1": "0ed20e82816c4521efcabbc80651c63f21ac4bf17a429f28c1288a05653c6039",
    "seed1/large-10007": "fee7e6e1a3b76288982c77e158bf4f4182bb9a5dacda932d2654c21b0c2df8b4",
    "seed1/large-20011": "54475136c80ed33008f85580369479261ab45c15e5b7cac642bf56d419276913",
    "seed1/large-50021": "558e2de0f195b19d5fb572ffb0a1ed6789c8c4df2197fb6a7b9277135d793f34",
    "seed1/large-100003": "2c2114d27a202b19cf8d553e0b46b5e77c269a90fbb714724db2ae820ef2653e",
    "seed1/large-100019": "da0c0330150e4b5a5c4abbf70b3de162b9189c29589862a2b0775545813ae6e6",
    "seed1/small-1009": "b903af0f2fa0158c8a084a5c2564648bd0fb067b5b712d90dca197264a1715ec",
    "seed1/tampered-parameter-consistency": "a48fb43bfe8de3b49afb677acaed5f82d2057a426ad39bbd1d85a6d2d5ba7f41",
    "seed1/tampered-difference-sum": "e11d7422214b643813e37079615acfa2a982aca581274e341399572c2811fdff",
    "seed1/tampered-difference-range": "879fb9c52abc6cfa8f562cd662e6e1a781b03bebbb783918af7d1a0041598f61",
    "seed1/tampered-position-consistency": "fd7c07e7bbdf3b5ae987404e4950ca1e877685aaa0a80722f0f40beeb585e988",
    "seed1/tampered-canonical-rotation": "c4b962395b966c59ccd0885c8d652e8524b9bc6db9b02b35d5b8a329d27fef57",
    "seed1/tampered-auto-correlation-bound": "49fb1a48b584d6df8273e247749999c930d43e9030dd9a08fcefd097997214bf",
    "seed1/tampered-cross-correlation-bound": "725d5c42d971abdd08688a501a68e92f786dceca4d38e03ba6d97d9341d84dd0",
    "seed1/tampered-set-size-bound": "d50b408c6df7bb013c15e1826b00acbf0eb9270a7b226ecc291c826f7d416b4c",
    "seed1/tampered-stored-auto-correlation": "4dd97c6ac0dd7e37619d9aa7a55c011bd388a63141d64fec2e4bd68f8c33e1b7",
    "seed1/tampered-stored-cross-correlation": "c96a4f6125b562a2d203a8ce0a057ca8820272bac966f7bf1f3c80574c7dff0d",
    "seed1/tampered-family-separation": "c7bb645e031af9cc85d6adf12c611d9a384e4ac8baabc1d56d603a74105e7225",
    "seed1/tampered-document-format": "7b5f659a17d61fde589a70578f7351c6847f446478be6e81a83475d67cd1ba3e",
    "seed2/25,3,1,1": "76eafc817c0104a942604b154b1dbdb75f2af07c9bba216c4ee65c4ed14f955d",
    "seed2/31,3,1,1": "c5663d7e5736763b5f530afbd08735581f9382be5181d326f2f1ec6622783e28",
    "seed2/13,4,1,1": "edd81b557cb394e0c4768886369cabc8f6796cc9aff645674e069fbb05297a0e",
    "seed2/19,4,2,2": "a804ab281f3147975cc2692f941e91348624523507a5280882ab4fba5951121f",
    "seed2/13,4,1,1+25,3,1,1": "e2bb086275a9f4c3981831165b88aa85fa5bc4e915dc0f235d106d1bbb4648e5",
    "seed2/large-10007": "2dd30b2120282b5b5dc5c473c9fb7ef9640ea99df42475ac18f3678a866cb2ef",
    "seed2/large-20011": "a3a5801c8d9281e06fdb7ffae978ea47af0c620b8812c4debf810fec76da61d6",
    "seed2/large-50021": "4afbb34dd7292e5407fa12cbae3dfea9e20805468110cac1c94c026bbdbe7e94",
    "seed2/large-100003": "a11fd28a579ee767b6eba830856734dfdb0fe05f9b2fbef6f4bd2b3d182ab800",
    "seed2/large-100019": "713b479406ba927411ce84c7ef71cd52e4c20cabc3231c6282024cdc53ea46c3",
    "seed2/small-1009": "c790b784b379f71c3232258694eec6023cb464d4d373bc5c175cc866e4e15060",
    "seed2/tampered-parameter-consistency": "35e5f43abe4dcdcf60c2bc9d5cc4bf0097c36fb0d28b7111c675317ab5ee5c26",
    "seed2/tampered-difference-sum": "13ba918f5c50e7f93ddd32cd2bf94080a2db7f813523675a72700217041289be",
    "seed2/tampered-difference-range": "e6830a4c20a7509f71a31026bb4682e7f0795293634330b66be9d0f6eda3d89f",
    "seed2/tampered-position-consistency": "cd263d9af9672602c15c12ec6d639d9ef3bb5d1b31f315eac4140564e1a294e3",
    "seed2/tampered-canonical-rotation": "1f4486d78b76b83e89ecde218d27ba90585e51cbb41d0072413108e802145a07",
    "seed2/tampered-auto-correlation-bound": "fcfdd69aa516353eda0d32e73dd61def60adc93573685c5a79ffed087f98a7bc",
    "seed2/tampered-cross-correlation-bound": "f6d47e0a3c778f28729c9e30c8a4b889d7d97cb1720f8a6871a8ed29bf51ce9a",
    "seed2/tampered-set-size-bound": "621cd30f4df09c2692940b0f42d618aec810392f1052fc3089122e4bec162057",
    "seed2/tampered-stored-auto-correlation": "fff5716c8a0079987b8e6eca8f9533909f25e4ba302e91dcf5fcbe156820f166",
    "seed2/tampered-stored-cross-correlation": "845ccd426af371138e2bc18c2c192b41a42ad816f4d0ef5c5563d0846b6851b0",
    "seed2/tampered-family-separation": "654d07f06fa659ffc35301d57648c6e72171b16ab86cdb23cb7377d63a9ef022",
    "seed2/tampered-document-format": "0d6e2eb31d4a47c5f2e7bc9896039673c39fc1a55f2430eacd09e989c2022ab1",
    "25,4,1,2": "ad40e103a32d298c9978c6d17bf7893bfc2eada110bc6cf1856863d3c9c6d591",
    "cross-shared-entry": "fad6b03e629626a6f9d6259680c16c70f5317358330c864503817ea9ca8a42e8",
    "family-pair-limit": "51ecb9d30d55c04f696915490a32b9979f52414f0c87b798f2aebb3ef30c71bf",
    "structural-skips": "3e04fe2483d6f3547fb4dad3b31de754b9e76a7498e4462ac66690c5c3d26907",
}

REPORTS_PINNED = "fd46c900b048ddf35a717c61842c8d3766e18f5f7a871df7ad46b59e74fc4c0d"


def test_verify_output_is_byte_identical(entries, tmp_path):
    digests = {}
    for idx, (label, text) in enumerate(entries):
        path = tmp_path / f"{idx:02d}.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(path)])
        record = f"{label}\n{code}\n{out.getvalue()}"
        digests[label] = hashlib.sha256(record.encode("utf-8")).hexdigest()
    assert digests == PINNED


def test_every_check_detail_is_byte_identical(entries):
    lines = []
    for label, text in entries:
        lines.append(label)
        try:
            doc = document.from_json(text)
        except document.DocumentError as exc:
            lines.append(f"document-format: {exc}")
            continue
        lines.extend(
            f"{c.rule}\t{c.passed}\t{c.detail}"
            for c in document.verify_document(doc).checks
        )
    record = "\n".join(lines)
    assert hashlib.sha256(record.encode("utf-8")).hexdigest() == REPORTS_PINNED


def test_structural_failures_put_skip_notes_on_the_correlation_rules(entries):
    doc = document.from_json(dict(entries)["structural-skips"])
    checks = document.verify_document(doc).checks
    notes = [c.rule for c in checks if "sets [0, 1] not evaluated" in c.detail]
    assert notes == [c.rule for c in checks[5:]]


def test_the_pinned_family_has_ten_set_pairs(entries):
    text = dict(entries)["25,4,1,2"]
    assert len(document.from_json(text).sets) == 5
