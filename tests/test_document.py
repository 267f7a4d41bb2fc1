"""Document serialization, strict parsing, and rule-by-rule verification."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

import oockit.document
from oockit import (
    CodeParams,
    DocumentError,
    Dopr,
    autocorr_bruteforce,
    design_fixed,
    document_from_family,
    family_to_csv,
    from_json,
    standardize,
    to_canonical_json,
    verify_document,
    wpr_from_dopr,
)
from oockit.document import (
    FORMAT_VERSION,
    TOOL_NAME,
    TOOL_VERSION,
    CodeSetDocument,
    DocumentCode,
    DocumentSet,
)

from oracles import (
    canonical_gaps,
    companion_positions,
    gaps_of,
    max_auto,
    max_cross,
    nested_floor_bound,
    table_cross,
)

DOC7 = document_from_family(design_fixed(CodeParams(7, 3, 1, 1)))
DOC13 = document_from_family(design_fixed(CodeParams(13, 4, 1, 1)))
DOC25 = document_from_family(design_fixed(CodeParams(25, 3, 1, 1)))

RULES = (
    "parameter-consistency",
    "difference-sum",
    "difference-range",
    "position-consistency",
    "canonical-rotation",
    "auto-correlation-bound",
    "method-agreement",
    "cross-correlation-bound",
    "shared-difference",
    "set-size-bound",
    "stored-auto-correlation",
    "stored-cross-correlation",
    "family-separation",
)


def payload_of(doc):
    return json.loads(to_canonical_json(doc))


def doc_from_payload(payload):
    return from_json(json.dumps(payload))


def failed_rules(doc):
    return {c.rule for c in verify_document(doc).failures()}


def test_round_trip_through_json():
    for doc in (DOC7, DOC13, DOC25):
        assert from_json(to_canonical_json(doc)) == doc


def test_canonical_json_is_byte_stable():
    text = to_canonical_json(DOC25)
    assert to_canonical_json(from_json(text)) == text
    assert text.endswith("\n")
    # Keys come out sorted, so logically equal payloads serialize equally.
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_document_records_provenance_and_config():
    doc = document_from_family(
        design_fixed(CodeParams(7, 3, 1, 1)), config={"n": [7], "w": [3]}
    )
    assert doc.tool == "oockit"
    assert doc.format_version == "1"
    assert from_json(to_canonical_json(doc)).config == {"n": [7], "w": [3]}


def test_csv_export_golden():
    assert family_to_csv(DOC7) == (
        "set_id,n,w,dopr,wpr\n"
        "0,7,3,1-2-4,0-1-3\n"
        "1,7,3,2-1-4,0-2-3\n"
    )


def test_csv_export_groups_rows_by_set():
    rows = family_to_csv(DOC25).splitlines()
    assert rows[0] == "set_id,n,w,dopr,wpr"
    ids = [int(r.split(",")[0]) for r in rows[1:]]
    assert ids == sorted(ids)
    assert len(rows) - 1 == sum(len(s.codes) for s in DOC25.sets)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda p: p.__setitem__("extra_field", 1), "unknown field"),
        (lambda p: p.pop("sets"), "missing field"),
        (lambda p: p.__setitem__("format_version", "2"), "unsupported format_version"),
        (lambda p: p.__setitem__("format_version", 1), "must be a string"),
        (lambda p: p.__setitem__("sets", {}), "must be an array"),
        (lambda p: p.__setitem__("family_interset_lambda", True), "must be an integer"),
        (lambda p: p.__setitem__("family_interset_lambda", "0"), "must be an integer"),
        (lambda p: p["provenance"].__setitem__("config", 3), "must be an object"),
        (lambda p: p["provenance"].pop("tool"), "missing field"),
        (lambda p: p["sets"][0].__setitem__("surprise", 1), "unknown field"),
        (lambda p: p["sets"][0].__setitem__("codes", []), "non-empty array"),
        (lambda p: p["sets"][0]["codes"][0].__setitem__("dopr", []), "non-empty array"),
        (
            lambda p: p["sets"][0]["codes"][0].__setitem__("dopr", ["1", "2", "4"]),
            "must be an integer",
        ),
        (
            lambda p: p["sets"][0]["params"].__setitem__("n", 7.0),
            "must be an integer",
        ),
    ],
)
def test_reader_rejects_malformed_documents(mutate, message):
    payload = payload_of(DOC7)
    mutate(payload)
    with pytest.raises(DocumentError, match=message):
        doc_from_payload(payload)


@pytest.mark.parametrize(
    "field",
    [
        "params.n",
        "params.w",
        "params.lambda_a",
        "params.lambda_c",
        "bound",
        "verified_lambda_a",
        "verified_lambda_c",
    ],
)
def test_reader_names_each_non_integer_set_field(field):
    payload = payload_of(DOC7)
    *parents, key = field.split(".")
    target = payload["sets"][0]
    for parent in parents:
        target = target[parent]
    target[key] = "1"
    with pytest.raises(DocumentError) as excinfo:
        doc_from_payload(payload)
    assert str(excinfo.value) == f"sets[0].{field} must be an integer"


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda params: params.pop("w"), "sets[0].params is missing field(s): w"),
        (
            lambda params: params.__setitem__("m", 1),
            "sets[0].params has unknown field(s): m",
        ),
    ],
)
def test_reader_names_the_params_object(mutate, message):
    payload = payload_of(DOC7)
    mutate(payload["sets"][0]["params"])
    with pytest.raises(DocumentError) as excinfo:
        doc_from_payload(payload)
    assert str(excinfo.value) == message


def test_reader_rejects_non_json():
    with pytest.raises(DocumentError, match="not valid JSON"):
        from_json("{not json")


def test_reader_names_a_document_or_set_that_is_not_an_object():
    with pytest.raises(DocumentError) as excinfo:
        from_json("[]")
    assert str(excinfo.value) == "document must be an object"
    payload = payload_of(DOC7)
    payload["sets"] = [3]
    with pytest.raises(DocumentError) as excinfo:
        doc_from_payload(payload)
    assert str(excinfo.value) == "sets[0] must be an object"


def test_verification_rule_names_are_frozen():
    report = verify_document(DOC13)
    assert tuple(c.rule for c in report.checks) == RULES
    assert report.ok


def test_all_designed_documents_verify_clean():
    for doc in (DOC7, DOC13, DOC25):
        report = verify_document(doc)
        assert report.ok, report.failures()


def test_tamper_parameter_consistency():
    payload = payload_of(DOC13)
    payload["sets"][0]["params"]["lambda_a"] = 0
    assert failed_rules(doc_from_payload(payload)) == {"parameter-consistency"}


def test_tamper_difference_sum():
    payload = payload_of(DOC13)
    payload["sets"][0]["codes"][0]["dopr"] = [1, 3, 2, 8]
    assert failed_rules(doc_from_payload(payload)) == {"difference-sum"}


def test_tamper_difference_range():
    payload = payload_of(DOC13)
    payload["sets"][0]["codes"][0]["dopr"] = [0, 3, 2, 8]
    payload["sets"][0]["codes"][0]["wpr"] = [0, 0, 3, 5]
    assert failed_rules(doc_from_payload(payload)) == {"difference-range"}


def test_tamper_position_consistency():
    payload = payload_of(DOC13)
    payload["sets"][0]["codes"][0]["wpr"] = [0, 2, 4, 6]
    doc = doc_from_payload(payload)
    assert failed_rules(doc) == {"position-consistency"}
    # Dependent rules must say they skipped the broken set, not fail on it.
    report = verify_document(doc)
    by_rule = {c.rule: c for c in report.checks}
    assert by_rule["auto-correlation-bound"].passed
    assert "not evaluated" in by_rule["auto-correlation-bound"].detail


def test_tamper_canonical_rotation():
    payload = payload_of(DOC13)
    payload["sets"][0]["codes"][0]["dopr"] = [2, 7, 1, 3]
    payload["sets"][0]["codes"][0]["wpr"] = [0, 2, 9, 10]
    doc = doc_from_payload(payload)
    assert failed_rules(doc) == {"canonical-rotation"}
    report = verify_document(doc)
    detail = {c.rule: c.detail for c in report.checks}["canonical-rotation"]
    assert "[1, 3, 2, 7]" in detail


def test_tamper_auto_correlation_bound():
    payload = payload_of(DOC13)
    payload["sets"][0]["codes"][0]["dopr"] = [2, 3, 4, 4]
    payload["sets"][0]["codes"][0]["wpr"] = [0, 2, 5, 9]
    payload["sets"][0]["verified_lambda_a"] = 2  # keep the stored level honest
    assert failed_rules(doc_from_payload(payload)) == {"auto-correlation-bound"}


def test_tamper_cross_correlation_bound_and_shared_difference():
    payload = {
        "format_version": "1",
        "provenance": {"tool": "oockit", "version": "0.1.0", "config": {}},
        "family_interset_lambda": 0,
        "sets": [
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
        ],
    }
    doc = doc_from_payload(payload)
    # A shared table entry and an over-ceiling pair are the same defect
    # seen by two rules, so both must trip.
    assert failed_rules(doc) == {"cross-correlation-bound", "shared-difference"}
    detail = {c.rule: c.detail for c in verify_document(doc).checks}
    assert "[2, 3, 22, 23]" in detail["shared-difference"]


def test_shared_difference_notes_when_not_applicable():
    report = verify_document(DOC13)
    by_rule = {c.rule: c for c in report.checks}
    assert by_rule["shared-difference"].passed
    assert "no multi-code sets" in by_rule["shared-difference"].detail


def test_shared_difference_applies_to_multi_code_sets():
    report = verify_document(DOC25)
    by_rule = {c.rule: c for c in report.checks}
    assert by_rule["shared-difference"].passed
    assert by_rule["shared-difference"].detail == ""


def test_tamper_set_size_bound():
    payload = payload_of(DOC13)
    payload["sets"][0]["bound"] = 2
    assert failed_rules(doc_from_payload(payload)) == {"set-size-bound"}


def test_set_size_bound_counts_the_codes_against_a_right_bound():
    # Two (7,3) codes under lambda 1, whose Johnson bound is 1: the stored
    # bound is right, so the rule fails on the set's size.
    payload = payload_of(DOC7)
    payload["sets"][0].update(
        bound=1,
        verified_lambda_a=1,
        verified_lambda_c=2,
        codes=[
            {"dopr": [1, 2, 4], "wpr": [0, 1, 3]},
            {"dopr": [2, 1, 4], "wpr": [0, 2, 3]},
        ],
    )
    report = verify_document(doc_from_payload(payload))
    detail = {c.rule: c.detail for c in report.failures()}
    assert detail["set-size-bound"] == "set 0: 2 codes exceed the bound 1"


def test_set_size_bound_skips_structurally_bad_sets():
    # A declared weight of a million over two-entry codes fails
    # parameter-consistency; the bound, whose cost grows with lambda, must
    # not be evaluated for it, and the skip must be named.
    payload = payload_of(DOC13)
    w = 10**6
    payload["sets"].append(
        {
            "params": {"n": w + 1, "w": w, "lambda_a": w - 1, "lambda_c": w - 1},
            "bound": 1,
            "verified_lambda_a": 1,
            "verified_lambda_c": 0,
            "codes": [{"dopr": [1, w], "wpr": [0, 1]}],
        }
    )
    doc = doc_from_payload(payload)
    assert failed_rules(doc) == {"parameter-consistency"}
    detail = {c.rule: c.detail for c in verify_document(doc).checks}
    assert "sets [1] not evaluated" in detail["set-size-bound"]


def with_first_set(doc, **changes):
    """``doc`` with its first set changed: a document built in code, which
    `from_json` would refuse."""
    first = dataclasses.replace(doc.sets[0], **changes)
    return dataclasses.replace(doc, sets=(first, *doc.sets[1:]))


def test_empty_set_is_reported_not_raised():
    report = verify_document(with_first_set(DOC13, codes=()))
    detail = {c.rule: c.detail for c in report.checks}
    assert {c.rule for c in report.failures()} == {"parameter-consistency"}
    assert detail["parameter-consistency"] == "set 0: no codes"
    assert "sets [0] not evaluated" in detail["auto-correlation-bound"]


def test_empty_code_is_reported_not_raised():
    codes = (DocumentCode((), ()), *DOC13.sets[0].codes[1:])
    report = verify_document(with_first_set(DOC13, codes=codes))
    detail = {c.rule: c.detail for c in report.checks}
    assert {c.rule for c in report.failures()} == {
        "parameter-consistency",
        "difference-sum",
        "position-consistency",
    }
    assert detail["parameter-consistency"] == "set 0: codes [0] do not have 4 entries"
    assert "sets [0] not evaluated" in detail["auto-correlation-bound"]


def test_tamper_stored_auto_correlation():
    payload = payload_of(DOC13)
    payload["sets"][0]["verified_lambda_a"] = 0
    assert failed_rules(doc_from_payload(payload)) == {"stored-auto-correlation"}


def test_tamper_stored_cross_correlation():
    payload = payload_of(DOC13)
    payload["sets"][0]["verified_lambda_c"] = 1  # singletons must store 0
    assert failed_rules(doc_from_payload(payload)) == {"stored-cross-correlation"}


def test_tamper_family_separation_stored_peak():
    payload = payload_of(DOC7)
    payload["family_interset_lambda"] = 1  # the real inter-set peak is 2
    assert failed_rules(doc_from_payload(payload)) == {"family-separation"}


def test_tamper_family_separation_pair_limit():
    payload = payload_of(DOC7)
    # Duplicate a set: identical singletons correlate at the full weight 3,
    # over the allowed floor of 2.
    payload["sets"].append(json.loads(json.dumps(payload["sets"][0])))
    payload["family_interset_lambda"] = 3
    doc = doc_from_payload(payload)
    assert failed_rules(doc) == {"family-separation"}
    detail = {c.rule: c.detail for c in verify_document(doc).checks}
    assert "exceeds" in detail["family-separation"]


def test_method_agreement_passes_even_on_tampered_codes():
    # The rule compares two recomputations of the same stored code, so a
    # mere substitution cannot break it; it guards the library, not the file.
    payload = payload_of(DOC13)
    payload["sets"][0]["codes"][0]["dopr"] = [2, 3, 4, 4]
    payload["sets"][0]["codes"][0]["wpr"] = [0, 2, 5, 9]
    payload["sets"][0]["verified_lambda_a"] = 2
    report = verify_document(doc_from_payload(payload))
    assert {c.rule: c.passed for c in report.checks}["method-agreement"]


# A prime-sized length no bit pattern could be built for.
HUGE_N = 10**12 + 39


def weight3_document(differences, lambda_a, verified_lambda_a, verified_lambda_c):
    n = HUGE_N
    codes = tuple(standardize(Dopr(d, n)) for d in differences)
    return CodeSetDocument(
        format_version="1",
        tool="oockit",
        version="0.1.0",
        config={},
        family_interset_lambda=0,
        sets=(
            DocumentSet(
                n=n,
                w=3,
                lambda_a=lambda_a,
                lambda_c=1,
                bound=nested_floor_bound(n, 3, max(lambda_a, 1)),
                verified_lambda_a=verified_lambda_a,
                verified_lambda_c=verified_lambda_c,
                codes=tuple(
                    DocumentCode(c.dops, wpr_from_dopr(c).positions) for c in codes
                ),
            ),
        ),
    )


def test_huge_declared_length_verifies_clean():
    # Verify's work follows the stored codes, not the declared n: the
    # shift-counting route counts one-bit pairs, so this finishes at once.
    n = HUGE_N
    doc = weight3_document(
        [(1, 2, n - 3), (4, 8, n - 12), (5, 9, n - 14)],
        lambda_a=1,
        verified_lambda_a=1,
        verified_lambda_c=1,
    )
    report = verify_document(from_json(to_canonical_json(doc)))
    assert report.ok, report.failures()


def test_huge_declared_length_still_finds_a_self_correlation_peak():
    # Two equal gaps a put two one-bits on top of two others at shift a,
    # however long the code: the peak of 2 must be found at this n too.
    n, a = HUGE_N, 7
    code = standardize(Dopr((a, a, n - 2 * a), n))
    assert autocorr_bruteforce(code).lambda_ax == 2
    doc = weight3_document(
        [code.dops], lambda_a=1, verified_lambda_a=2, verified_lambda_c=0
    )
    assert failed_rules(from_json(to_canonical_json(doc))) == {
        "auto-correlation-bound"
    }


def test_method_agreement_compares_every_code_and_pair(monkeypatch):
    # Skew the shift-counting route: every self peak one higher, every pair
    # peak 9.  The rule must then name every code and every in-set pair,
    # each against its table value.
    shift_peaks = oockit.document._shift_peaks

    def skewed(positions, n):
        peaks = shift_peaks(positions, n)
        return [[row[0] + 1] + [9] * (len(row) - 1) for row in peaks]

    monkeypatch.setattr(oockit.document, "_shift_peaks", skewed)
    report = verify_document(DOC25)
    assert {c.rule for c in report.failures()} == {"method-agreement"}
    detail = {c.rule: c.detail for c in report.checks}["method-agreement"]
    sizes = [len(s.codes) for s in DOC25.sets]
    assert detail.count("self correlation 2 by shifts, 1 by tables") == sum(sizes)
    assert detail.count("cross 9 by shifts, 1 by tables") == sum(
        k * (k - 1) // 2 for k in sizes
    )


@st.composite
def oracle_code(draw, n, w):
    """Canonical differences of a weight-w code of length n that no shift
    maps onto itself; at even n it may hold the distance n/2."""
    fixed = {n // 2} if n % 2 == 0 and w > 2 and draw(st.booleans()) else set()
    rest = draw(
        st.sets(
            st.integers(1, n - 1).filter(lambda p: p not in fixed),
            min_size=w - 1 - len(fixed),
            max_size=w - 1 - len(fixed),
        )
    )
    dops = canonical_gaps(gaps_of({0, *fixed, *rest}, n))
    assume(max_auto(companion_positions(dops[:-1]), n) < w)
    return dops


@st.composite
def oracle_documents(draw):
    """1-4 sets of 1-4 codes, n and w mixed across sets, one code possibly
    repeated in a second set; every stored level comes from the oracles."""
    groups = []  # (n, w, canonical differences of each member)
    for _ in range(draw(st.integers(1, 4))):
        if groups and draw(st.booleans()):
            n, w, members = draw(st.sampled_from(groups))
            dops = {draw(st.sampled_from(members))}
        else:
            n = draw(st.integers(5, 24))
            w = draw(st.integers(2, min(6, n - 1)))
            dops = set()
        for _ in range(draw(st.integers(1 - len(dops), 4 - len(dops)))):
            dops.add(draw(oracle_code(n, w)))
        groups.append((n, w, sorted(dops)))
    positions = [
        [companion_positions(d[:-1]) for d in members] for _, _, members in groups
    ]

    def interset(a, b):
        (na, _, _), (nb, _, _) = groups[a], groups[b]
        return max(
            max_cross(x, y, na) if na == nb else table_cross(x, na, y, nb)
            for x in positions[a]
            for y in positions[b]
        )

    family = {
        (a, b): interset(a, b)
        for a in range(len(groups))
        for b in range(a + 1, len(groups))
    }
    sets = []
    for k, (n, w, members) in enumerate(groups):
        auto = max(max_auto(x, n) for x in positions[k])
        pairs = [
            max_cross(x, y, n)
            for i, x in enumerate(positions[k])
            for y in positions[k][i + 1 :]
        ]
        cross = max(pairs, default=0)
        apart = [level - 1 for pair, level in family.items() if k in pair]
        lambda_c = max([1, cross, *apart])
        codes = tuple(
            DocumentCode(d, x) for d, x in zip(members, positions[k])
        )
        bound = nested_floor_bound(n, w, max(auto, lambda_c))
        sets.append(DocumentSet(n, w, auto, lambda_c, bound, auto, cross, codes))
    return CodeSetDocument(
        FORMAT_VERSION,
        TOOL_NAME,
        TOOL_VERSION,
        {},
        max(family.values(), default=0),
        tuple(sets),
    )


@settings(max_examples=150, deadline=None)
@given(oracle_documents(), st.data())
def test_oracle_levels_verify_and_each_raised_level_fails_only_its_rule(doc, data):
    # Holds the table route's padded row blocks and its set-pair reads to
    # the shift definition, and to shared table entries across lengths.
    assert failed_rules(doc) == set()
    k = data.draw(st.integers(0, len(doc.sets) - 1))
    for field, rule in (
        ("verified_lambda_a", "stored-auto-correlation"),
        ("verified_lambda_c", "stored-cross-correlation"),
    ):
        level = getattr(doc.sets[k], field)
        raised = dataclasses.replace(doc.sets[k], **{field: level + 1})
        sets = doc.sets[:k] + (raised,) + doc.sets[k + 1 :]
        assert failed_rules(dataclasses.replace(doc, sets=sets)) == {rule}
    raised = doc.family_interset_lambda + 1
    assert failed_rules(
        dataclasses.replace(doc, family_interset_lambda=raised)
    ) == {"family-separation"}
