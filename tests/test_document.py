"""Document serialization, strict parsing, and rule-by-rule verification."""

from __future__ import annotations

import json

import pytest

from oockit import (
    CodeParams,
    DocumentError,
    design_fixed,
    document_from_family,
    family_to_csv,
    from_json,
    to_canonical_json,
    verify_document,
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


def test_reader_rejects_non_json():
    with pytest.raises(DocumentError, match="not valid JSON"):
        from_json("{not json")


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
