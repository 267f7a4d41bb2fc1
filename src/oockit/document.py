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
from itertools import accumulate

from .cliques import Family
from .codes import CodeParams, Dopr, Wpr, _standard_rotation, wpr_from_dopr
from .correlation import (
    _row_overlaps,
    autocorr_bruteforce,
    crosscorr_bruteforce,
    johnson_bound,
)
from .edop import EdopMatrix, edop_full

# Unused here, but perfbench/tracing.py counts calls by swapping these
# two names on this module, so they must stay importable from it.
from .correlation import autocorr_edop, crosscorr_edop  # noqa: F401

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

# A stored set's integer fields: its parameters, named as on `CodeParams`
# and nested under "params", then its recorded levels, named as on
# `CliqueSet`.  The reader checks them in this order.
_PARAMS = ("n", "w", "lambda_a", "lambda_c")
_LEVELS = ("bound", "verified_lambda_a", "verified_lambda_c")


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
                **{f: getattr(s.params, f) for f in _PARAMS},
                **{f: getattr(s, f) for f in _LEVELS},
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
                "params": {f: getattr(s, f) for f in _PARAMS},
                **{f: getattr(s, f) for f in _LEVELS},
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
        obj = _object(raw_set, {"params", *_LEVELS, "codes"}, where)
        params = _object(obj["params"], set(_PARAMS), f"{where}.params")
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
                **{f: _integer(params[f], f"{where}.params.{f}") for f in _PARAMS},
                **{f: _integer(obj[f], f"{where}.{f}") for f in _LEVELS},
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


# Rule order as reported.  The first five read the raw numbers; a set
# that fails one of the first four is skipped by the rest.
_RULES = (
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


def verify_document(doc: CodeSetDocument) -> VerificationReport:
    """Re-derive every claimed property of a document.

    Structural rules run on the raw numbers.  Correlation rules need
    structurally sound codes, so sets that already failed are skipped
    there and the skip is noted; the structural failure alone makes the
    report fail.

    The table route runs once per document: the tables of every sound set
    go through one `_row_overlaps` call, and each code's self level, each
    in-set pair's cross level and each set pair's inter-set level are read
    from its result.  That call costs at most (w - 1)^2 int operations per
    table row, on bitsets one bit per row of the document; a pair read
    costs one AND per level, and a set pair's peak one AND per level and
    table of the first set.  The shift route, which shares no code with
    it, reads each code's one-bit positions once and counts the shifts of
    every code and in-set pair for ``method-agreement``.
    """
    problems: dict[str, list[str]] = {rule: [] for rule in _RULES}
    bad_sets: set[int] = set()

    def unsound(rule: str, k: int, problem: str) -> None:
        problems[rule].append(problem)
        bad_sets.add(k)

    # Structural rules: admissible parameters, at least one code, lists of
    # length w, differences that sum to n and lie in [1, n - 1], positions
    # that are their running sums, and the canonical rotation.
    params: dict[int, CodeParams] = {}
    for k, s in enumerate(doc.sets):
        try:
            params[k] = CodeParams(s.n, s.w, s.lambda_a, s.lambda_c)
        except (TypeError, ValueError) as exc:
            unsound("parameter-consistency", k, f"set {k}: {exc}")
        else:
            short = [
                i
                for i, c in enumerate(s.codes)
                if len(c.dopr) != s.w or len(c.wpr) != s.w
            ]
            if not s.codes:
                unsound("parameter-consistency", k, f"set {k}: no codes")
            elif short:
                unsound(
                    "parameter-consistency",
                    k,
                    f"set {k}: codes {short} do not have {s.w} entries",
                )
        for i, c in enumerate(s.codes):
            total = sum(c.dopr)
            if total != s.n:
                unsound(
                    "difference-sum",
                    k,
                    f"set {k} code {i}: differences sum to {total}, expected {s.n}",
                )
            if len(c.dopr) == 1:
                in_range = c.dopr == (s.n,)
            else:
                in_range = all(1 <= d <= s.n - 1 for d in c.dopr)
            if not in_range:
                unsound(
                    "difference-range", k, f"set {k} code {i}: difference out of range"
                )
            if list(c.wpr) != list(accumulate(c.dopr[:-1], initial=0)) or any(
                not 0 <= p < s.n for p in c.wpr
            ):
                unsound(
                    "position-consistency",
                    k,
                    f"set {k} code {i}: positions do not match the differences",
                )
            std = _standard_rotation(c.dopr) if c.dopr else c.dopr
            if c.dopr != std:
                problems["canonical-rotation"].append(
                    f"set {k} code {i}: {list(c.dopr)} should be stored as {list(std)}"
                )

    # One entry index over the tables of every sound set gives each code's
    # level, each in-set pair's and each set pair's.
    sound = [k for k in params if k not in bad_sets]
    tables: list[EdopMatrix] = []
    wprs: list[Wpr] = []  # per table, positions read once
    span: dict[int, range] = {}  # set index -> its tables' indexes
    for k in sound:
        codes = [Dopr(c.dopr, doc.sets[k].n) for c in doc.sets[k].codes]
        span[k] = range(len(tables), len(tables) + len(codes))
        tables.extend(map(edop_full, codes))
        wprs.extend(map(wpr_from_dopr, codes))
    overlaps = _row_overlaps(tables)

    # Correlation rules, one sound set at a time.
    applicable = False  # whether shared-difference applies to any set
    for k in sound:
        s, p = doc.sets[k], params[k]
        size, t = len(s.codes), span[k].start  # t: the set's first table
        auto = [1 + overlaps[t + i, t + i] for i in range(size)]
        for i, level in enumerate(auto):
            if level > p.lambda_a:
                problems["auto-correlation-bound"].append(
                    f"set {k} code {i}: self correlation {level} exceeds {p.lambda_a}"
                )
            brute = autocorr_bruteforce(wprs[t + i]).lambda_ax
            if brute != level:
                problems["method-agreement"].append(
                    f"set {k} code {i}: "
                    f"self correlation {brute} by shifts, {level} by tables"
                )
        applicable = applicable or (p.lambda_c == 1 and size > 1)
        cross_peak = 0
        for i in range(size):
            for j in range(i + 1, size):
                level = 1 + overlaps[t + i, t + j]
                cross_peak = max(cross_peak, level)
                brute = crosscorr_bruteforce(wprs[t + i], wprs[t + j]).lambda_cxy
                if brute != level:
                    problems["method-agreement"].append(
                        f"set {k} codes {i},{j}: "
                        f"cross {brute} by shifts, {level} by tables"
                    )
                if level > p.lambda_c:
                    problems["cross-correlation-bound"].append(
                        f"set {k} codes {i},{j}: "
                        f"cross correlation {level} exceeds {p.lambda_c}"
                    )
                if p.lambda_c == 1 and level > 1:
                    shared = tables[t + i].entry_set & tables[t + j].entry_set
                    problems["shared-difference"].append(
                        f"set {k} codes {i},{j}: shared table entries {sorted(shared)}"
                    )
        expected = johnson_bound(p.n, p.w, max(p.lambda_a, p.lambda_c))
        if s.bound != expected:
            problems["set-size-bound"].append(
                f"set {k}: stored bound {s.bound}, recomputed {expected}"
            )
        elif p.lambda_a == p.lambda_c and size > expected:
            problems["set-size-bound"].append(
                f"set {k}: {size} codes exceed the bound {expected}"
            )
        if s.verified_lambda_a != max(auto):
            problems["stored-auto-correlation"].append(
                f"set {k}: stored {s.verified_lambda_a}, recomputed {max(auto)}"
            )
        if s.verified_lambda_c != cross_peak:
            problems["stored-cross-correlation"].append(
                f"set {k}: stored {s.verified_lambda_c}, recomputed {cross_peak}"
            )

    # family-separation: sets are pairwise separated and the stored peak is right
    peak = 0
    for a_pos, ka in enumerate(sound):
        for kb in sound[a_pos + 1 :]:
            level = 1 + overlaps.peak(span[ka], span[kb])
            peak = max(peak, level)
            limit = min(params[ka].lambda_c, params[kb].lambda_c) + 1
            if level > limit:
                problems["family-separation"].append(
                    f"sets {ka},{kb}: inter-set correlation {level} exceeds {limit}"
                )
    if not bad_sets and doc.family_interset_lambda != peak:
        problems["family-separation"].append(
            f"stored family level {doc.family_interset_lambda}, recomputed {peak}"
        )

    checks = []
    for index, rule in enumerate(_RULES):
        found = problems[rule]
        parts = ["; ".join(found)] if found else []
        if rule == "shared-difference" and not found and not applicable:
            parts.append("no multi-code sets with a cross ceiling of 1")
        if index >= 5 and bad_sets:  # a correlation rule
            parts.append(f"sets {sorted(bad_sets)} not evaluated (structural failure)")
        checks.append(Check(rule, not found, "; ".join(parts)))
    return VerificationReport(tuple(checks))
