"""Interchange documents for designed code families.

A document stores the designed sets with their parameters, the recorded
correlation levels, and enough provenance to reproduce the run.  The JSON
form is canonical (sorted keys, two-space indent, trailing newline) so a
byte comparison detects any edit.  Reading is strict about shape but keeps
the numbers raw; `verify_document` re-derives every claimed property and
reports one named check per rule, so a tampered file fails with the rule
it broke rather than a parse error.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import NamedTuple

from .cliques import Family
from .codes import CodeParams, Dopr, _standard_rotation, wpr_from_dopr
from .correlation import (
    autocorr_bruteforce,
    autocorr_edop,
    crosscorr_bruteforce,
    crosscorr_edop,
    johnson_bound,
)
from .edop import EdopMatrix, edop_full

__all__ = [
    "FORMAT_VERSION",
    "TOOL_NAME",
    "TOOL_VERSION",
    "DocumentError",
    "DocumentCode",
    "DocumentSet",
    "CodeSetDocument",
    "Check",
    "VerificationReport",
    "document_from_family",
    "to_canonical_json",
    "from_json",
    "family_to_csv",
    "verify_document",
]

FORMAT_VERSION = "1"
TOOL_NAME = "oockit"
TOOL_VERSION = "0.1.0"


class DocumentError(ValueError):
    """Raised when a document fails schema validation."""


@dataclass(frozen=True)
class DocumentCode:
    """One code as stored: raw difference and position lists."""

    dopr: tuple[int, ...]
    wpr: tuple[int, ...]


@dataclass(frozen=True)
class DocumentSet:
    """One stored set with its parameters and recorded levels."""

    n: int
    w: int
    lambda_a: int
    lambda_c: int
    bound: int
    verified_lambda_a: int
    verified_lambda_c: int
    codes: tuple[DocumentCode, ...]


@dataclass(frozen=True)
class CodeSetDocument:
    """A full family document; values are as stored, not re-derived."""

    format_version: str
    tool: str
    version: str
    config: dict
    family_interset_lambda: int = 0
    sets: tuple[DocumentSet, ...] = ()


def document_from_family(family: Family, config: dict | None = None) -> CodeSetDocument:
    """Freeze a designed family into a document."""
    doc_sets = []
    for s in family.sets:
        codes = tuple(
            DocumentCode(c.dops, wpr_from_dopr(c).positions) for c in s.codes
        )
        doc_sets.append(
            DocumentSet(
                n=s.params.n,
                w=s.params.w,
                lambda_a=s.params.lambda_a,
                lambda_c=s.params.lambda_c,
                bound=s.bound,
                verified_lambda_a=s.verified_lambda_a,
                verified_lambda_c=s.verified_lambda_c,
                codes=codes,
            )
        )
    return CodeSetDocument(
        format_version=FORMAT_VERSION,
        tool=TOOL_NAME,
        version=TOOL_VERSION,
        config=dict(config or {}),
        family_interset_lambda=family.interset_lambda,
        sets=tuple(doc_sets),
    )


def to_canonical_json(doc: CodeSetDocument) -> str:
    """Serialize with sorted keys, two-space indent, trailing newline."""
    payload = {
        "format_version": doc.format_version,
        "provenance": {
            "tool": doc.tool,
            "version": doc.version,
            "config": doc.config,
        },
        "family_interset_lambda": doc.family_interset_lambda,
        "sets": [
            {
                "params": {
                    "n": s.n,
                    "w": s.w,
                    "lambda_a": s.lambda_a,
                    "lambda_c": s.lambda_c,
                },
                "bound": s.bound,
                "verified_lambda_a": s.verified_lambda_a,
                "verified_lambda_c": s.verified_lambda_c,
                "codes": [
                    {"dopr": list(c.dopr), "wpr": list(c.wpr)} for c in s.codes
                ],
            }
            for s in doc.sets
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _object(value, keys: set[str], where: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{where} must be an object")
    missing = keys - value.keys()
    if missing:
        raise DocumentError(f"{where} is missing field(s): {', '.join(sorted(missing))}")
    extra = value.keys() - keys
    if extra:
        raise DocumentError(f"{where} has unknown field(s): {', '.join(sorted(extra))}")
    return value


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where} must be an integer")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{where} must be a string")
    return value


def _integer_list(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise DocumentError(f"{where} must be a non-empty array")
    return tuple(_integer(v, f"{where}[{i}]") for i, v in enumerate(value))


def from_json(text: str) -> CodeSetDocument:
    """Parse a document, rejecting unknown fields, missing fields, and
    wrong types.  Stored numbers are kept as-is; whether they are
    internally consistent is `verify_document`'s job.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integer literals past the
        # interpreter's digit limit; RecursionError, nesting past its depth.
        raise DocumentError(f"not valid JSON: {exc}") from None
    top = _object(
        payload,
        {"format_version", "provenance", "family_interset_lambda", "sets"},
        "document",
    )
    version = _string(top["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {version!r}; this reader handles {FORMAT_VERSION!r}"
        )
    prov = _object(top["provenance"], {"tool", "version", "config"}, "provenance")
    tool = _string(prov["tool"], "provenance.tool")
    tool_version = _string(prov["version"], "provenance.version")
    if not isinstance(prov["config"], dict):
        raise DocumentError("provenance.config must be an object")
    family_level = _integer(top["family_interset_lambda"], "family_interset_lambda")
    if not isinstance(top["sets"], list):
        raise DocumentError("sets must be an array")

    sets = []
    for k, raw_set in enumerate(top["sets"]):
        where = f"sets[{k}]"
        obj = _object(
            raw_set,
            {"params", "bound", "verified_lambda_a", "verified_lambda_c", "codes"},
            where,
        )
        params = _object(
            obj["params"], {"n", "w", "lambda_a", "lambda_c"}, f"{where}.params"
        )
        if not isinstance(obj["codes"], list) or not obj["codes"]:
            raise DocumentError(f"{where}.codes must be a non-empty array")
        codes = []
        for i, raw_code in enumerate(obj["codes"]):
            code_where = f"{where}.codes[{i}]"
            code = _object(raw_code, {"dopr", "wpr"}, code_where)
            codes.append(
                DocumentCode(
                    dopr=_integer_list(code["dopr"], f"{code_where}.dopr"),
                    wpr=_integer_list(code["wpr"], f"{code_where}.wpr"),
                )
            )
        sets.append(
            DocumentSet(
                n=_integer(params["n"], f"{where}.params.n"),
                w=_integer(params["w"], f"{where}.params.w"),
                lambda_a=_integer(params["lambda_a"], f"{where}.params.lambda_a"),
                lambda_c=_integer(params["lambda_c"], f"{where}.params.lambda_c"),
                bound=_integer(obj["bound"], f"{where}.bound"),
                verified_lambda_a=_integer(
                    obj["verified_lambda_a"], f"{where}.verified_lambda_a"
                ),
                verified_lambda_c=_integer(
                    obj["verified_lambda_c"], f"{where}.verified_lambda_c"
                ),
                codes=tuple(codes),
            )
        )
    return CodeSetDocument(
        format_version=version,
        tool=tool,
        version=tool_version,
        config=prov["config"],
        family_interset_lambda=family_level,
        sets=tuple(sets),
    )


def family_to_csv(doc: CodeSetDocument) -> str:
    """Flat one-row-per-code table; sequences are dash-joined."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["set_id", "n", "w", "dopr", "wpr"])
    for k, s in enumerate(doc.sets):
        for code in s.codes:
            writer.writerow(
                [
                    k,
                    s.n,
                    s.w,
                    "-".join(str(d) for d in code.dopr),
                    "-".join(str(p) for p in code.wpr),
                ]
            )
    return buf.getvalue()


class _SetLevels(NamedTuple):
    """A structurally sound set with each table level computed once."""

    params: CodeParams
    codes: tuple[Dopr, ...]
    mats: tuple[EdopMatrix, ...]
    auto: tuple[int, ...]  # per code
    cross: dict[tuple[int, int], int]  # per in-set pair i < j


@dataclass(frozen=True)
class Check:
    """Outcome of one named verification rule."""

    rule: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """All rule outcomes for one document."""

    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_document(doc: CodeSetDocument) -> VerificationReport:
    """Re-derive every claimed property of a document.

    Structural rules run on the raw numbers.  Correlation rules need
    structurally sound codes, so sets that already failed are skipped
    there and the skip is noted; the structural failure alone makes the
    report fail.
    """
    checks: list[Check] = []
    bad_sets: set[int] = set()

    # parameter-consistency: admissible parameters, all lists of length w
    problems: list[str] = []
    params_by_set: dict[int, CodeParams] = {}
    for k, s in enumerate(doc.sets):
        try:
            params_by_set[k] = CodeParams(s.n, s.w, s.lambda_a, s.lambda_c)
        except (TypeError, ValueError) as exc:
            problems.append(f"set {k}: {exc}")
            bad_sets.add(k)
            continue
        short = [
            i
            for i, c in enumerate(s.codes)
            if len(c.dopr) != s.w or len(c.wpr) != s.w
        ]
        if short:
            problems.append(f"set {k}: codes {short} do not have {s.w} entries")
            bad_sets.add(k)
    checks.append(Check("parameter-consistency", not problems, "; ".join(problems)))

    # difference-sum: every difference list sums to the code length
    problems = []
    for k, s in enumerate(doc.sets):
        for i, c in enumerate(s.codes):
            if sum(c.dopr) != s.n:
                problems.append(
                    f"set {k} code {i}: differences sum to {sum(c.dopr)}, expected {s.n}"
                )
                bad_sets.add(k)
    checks.append(Check("difference-sum", not problems, "; ".join(problems)))

    # difference-range: every difference within [1, n - 1]
    problems = []
    for k, s in enumerate(doc.sets):
        for i, c in enumerate(s.codes):
            if len(c.dopr) == 1:
                ok = c.dopr == (s.n,)
            else:
                ok = all(1 <= d <= s.n - 1 for d in c.dopr)
            if not ok:
                problems.append(f"set {k} code {i}: difference out of range")
                bad_sets.add(k)
    checks.append(Check("difference-range", not problems, "; ".join(problems)))

    # position-consistency: stored positions are the running difference sums
    problems = []
    for k, s in enumerate(doc.sets):
        for i, c in enumerate(s.codes):
            acc = 0
            expect = [0]
            for d in c.dopr[:-1]:
                acc += d
                expect.append(acc)
            if list(c.wpr) != expect or any(not 0 <= p < s.n for p in c.wpr):
                problems.append(
                    f"set {k} code {i}: positions do not match the differences"
                )
                bad_sets.add(k)
    checks.append(Check("position-consistency", not problems, "; ".join(problems)))

    # canonical-rotation: stored rotation is the canonical one
    problems = []
    for k, s in enumerate(doc.sets):
        for i, c in enumerate(s.codes):
            std = _standard_rotation(c.dopr)
            if c.dopr != std:
                problems.append(
                    f"set {k} code {i}: {list(c.dopr)} should be stored as {list(std)}"
                )
    checks.append(Check("canonical-rotation", not problems, "; ".join(problems)))

    # build validated codes and their table levels for the correlation rules
    valid: dict[int, _SetLevels] = {}
    for k, s in enumerate(doc.sets):
        if k in bad_sets:
            continue
        codes = tuple(Dopr(c.dopr, s.n) for c in s.codes)
        mats = tuple(edop_full(c) for c in codes)
        valid[k] = _SetLevels(
            params_by_set[k],
            codes,
            mats,
            tuple(autocorr_edop(m).lambda_ax for m in mats),
            {
                (i, j): crosscorr_edop(mats[i], mats[j]).lambda_cxy
                for i in range(len(mats))
                for j in range(i + 1, len(mats))
            },
        )
    skip_note = (
        f"sets {sorted(bad_sets)} not evaluated (structural failure)"
        if bad_sets
        else ""
    )

    def finish(rule: str, problems: list[str]) -> None:
        parts = ["; ".join(problems)] if problems else []
        if skip_note:
            parts.append(skip_note)
        checks.append(Check(rule, not problems, "; ".join(parts)))

    # auto-correlation-bound: each code meets the self-correlation ceiling
    problems = []
    for k, v in valid.items():
        ceiling = v.params.lambda_a
        for i, level in enumerate(v.auto):
            if level > ceiling:
                problems.append(
                    f"set {k} code {i}: self correlation {level} exceeds {ceiling}"
                )
    finish("auto-correlation-bound", problems)

    # method-agreement: shift counting and table overlap agree
    problems = []
    for k, v in valid.items():
        for i, (code, table) in enumerate(zip(v.codes, v.auto)):
            brute = autocorr_bruteforce(code).lambda_ax
            if brute != table:
                problems.append(
                    f"set {k} code {i}: self correlation {brute} by shifts, {table} by tables"
                )
        for (i, j), table in v.cross.items():
            brute = crosscorr_bruteforce(v.codes[i], v.codes[j]).lambda_cxy
            if brute != table:
                problems.append(
                    f"set {k} codes {i},{j}: cross {brute} by shifts, {table} by tables"
                )
    finish("method-agreement", problems)

    # cross-correlation-bound: every pair meets the cross ceiling
    problems = []
    for k, v in valid.items():
        ceiling = v.params.lambda_c
        for (i, j), level in v.cross.items():
            if level > ceiling:
                problems.append(
                    f"set {k} codes {i},{j}: cross correlation {level} exceeds {ceiling}"
                )
    finish("cross-correlation-bound", problems)

    # shared-difference: unit-cross sets must not share any table entry
    problems = []
    applicable = False
    for k, v in valid.items():
        mats = v.mats
        if v.params.lambda_c != 1 or len(mats) < 2:
            continue
        applicable = True
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                shared = mats[i].entry_set & mats[j].entry_set
                if shared:
                    problems.append(
                        f"set {k} codes {i},{j}: shared table entries {sorted(shared)}"
                    )
    parts = []
    if problems:
        parts.append("; ".join(problems))
    elif not applicable:
        parts.append("no multi-code sets with a cross ceiling of 1")
    if skip_note:
        parts.append(skip_note)
    checks.append(Check("shared-difference", not problems, "; ".join(parts)))

    # set-size-bound: stored bound is correct and respected
    problems = []
    for k, v in valid.items():
        p, s = v.params, doc.sets[k]
        expected = johnson_bound(p.n, p.w, max(p.lambda_a, p.lambda_c))
        if s.bound != expected:
            problems.append(f"set {k}: stored bound {s.bound}, recomputed {expected}")
        elif p.lambda_a == p.lambda_c and len(s.codes) > expected:
            problems.append(
                f"set {k}: {len(s.codes)} codes exceed the bound {expected}"
            )
    finish("set-size-bound", problems)

    # stored-auto-correlation: recorded set level matches recomputation
    problems = []
    for k, v in valid.items():
        level = max(v.auto)
        if doc.sets[k].verified_lambda_a != level:
            problems.append(
                f"set {k}: stored {doc.sets[k].verified_lambda_a}, recomputed {level}"
            )
    finish("stored-auto-correlation", problems)

    # stored-cross-correlation: recorded pairwise level matches recomputation
    problems = []
    for k, v in valid.items():
        level = max(v.cross.values(), default=0)
        if doc.sets[k].verified_lambda_c != level:
            problems.append(
                f"set {k}: stored {doc.sets[k].verified_lambda_c}, recomputed {level}"
            )
    finish("stored-cross-correlation", problems)

    # family-separation: sets are pairwise separated and the stored peak is right
    problems = []
    keys = sorted(valid)
    peak = 0
    for a_pos, ka in enumerate(keys):
        pa, mats_a = valid[ka].params, valid[ka].mats
        for kb in keys[a_pos + 1 :]:
            pb, mats_b = valid[kb].params, valid[kb].mats
            level = max(
                crosscorr_edop(ma, mb).lambda_cxy for ma in mats_a for mb in mats_b
            )
            peak = max(peak, level)
            limit = min(pa.lambda_c, pb.lambda_c) + 1
            if level > limit:
                problems.append(
                    f"sets {ka},{kb}: inter-set correlation {level} exceeds {limit}"
                )
    if not bad_sets and doc.family_interset_lambda != peak:
        problems.append(
            f"stored family level {doc.family_interset_lambda}, recomputed {peak}"
        )
    finish("family-separation", problems)

    return VerificationReport(tuple(checks))
