"""Interchange documents for designed code families.

A document stores the designed sets with their parameters, the recorded
correlation levels, and enough provenance to reproduce the run.  The JSON
form is canonical (sorted keys, two-space indent, trailing newline) so a
byte comparison detects any edit.  Reading is strict about shape, a key
given twice in one object included, but keeps the numbers raw; the writer
runs the reader's rules on what it is about to write, so it writes no
document the reader refuses.  `verify_document` re-derives every claimed
property and reports one named check per rule, so a tampered file fails
with the rule it broke rather than a parse error.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import accumulate

from .cliques import Family
from .codes import CodeParams, _standard_rotation, wpr_from_dopr
from .correlation import _row_overlaps, _shift_peaks, set_size_bound
from .edop import _PLAIN_INT, EdopMatrix, _anchored_rows, _settled

# Unused here, but perfbench/tracing.py counts calls by swapping these
# four names on this module, so they must stay importable from it.
from .correlation import (  # noqa: F401
    autocorr_bruteforce,
    autocorr_edop,
    crosscorr_bruteforce,
    crosscorr_edop,
)

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
    """Serialize with sorted keys, two-space indent, trailing newline.

    The payload passes the reader's rules (`_read`) before it is dumped,
    so a document the reader would refuse raises its `DocumentError`,
    with its message, and is not written.
    """
    prov = {"tool": doc.tool, "version": doc.version, "config": doc.config}
    payload = {
        "format_version": doc.format_version,
        "provenance": prov,
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
    _read(payload)
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


def _code(raw, where: str, i: int) -> DocumentCode:
    # One C-level test per code object and per list; the field-by-field
    # checks run only on a code that fails it, to name its first fault.
    if type(raw) is dict and raw.keys() == {"dopr", "wpr"}:
        dopr, wpr = raw["dopr"], raw["wpr"]
        if type(dopr) is type(wpr) is list and dopr and wpr:
            if set(map(type, dopr)).union(map(type, wpr)) <= _PLAIN_INT:
                return DocumentCode(tuple(dopr), tuple(wpr))
    where = f"{where}.codes[{i}]"
    raw = _object(raw, {"dopr", "wpr"}, where)
    dopr = _integer_list(raw["dopr"], f"{where}.dopr")
    return DocumentCode(dopr, _integer_list(raw["wpr"], f"{where}.wpr"))


# Standard JSON only: the reader and the writer refuse NaN and infinities.
_STANDARD_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _provenance(version, prov) -> dict:
    """The reader's rules for the fields above the sets, shared by verify:
    the provenance object, checked after the format version."""
    _string(version, "format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {version!r}; this reader handles {FORMAT_VERSION!r}"
        )
    prov = _object(prov, {"tool", "version", "config"}, "provenance")
    _string(prov["tool"], "provenance.tool")
    _string(prov["version"], "provenance.version")
    if not isinstance(prov["config"], dict):
        raise DocumentError("provenance.config must be an object")
    try:
        _STANDARD_JSON.encode(prov["config"])
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"provenance.config is not standard JSON: {exc}") from None
    return prov


def _unique_keys(pairs: list) -> dict:
    """`json.loads`'s object hook: a name given twice in one object is
    refused rather than resolved to its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def from_json(text: str) -> CodeSetDocument:
    """Parse a document as strict JSON, an object naming a key twice
    refused, and read it by `_read`'s rules."""
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, a duplicated key and integer
        # literals past the interpreter's digit limit; RecursionError,
        # nesting past its depth.
        raise DocumentError(f"not valid JSON: {exc}") from None
    return _read(payload)


def _read(payload) -> CodeSetDocument:
    """The reader's rules, shared by the writer: reject unknown fields,
    missing fields, and wrong types; a stored code is read entry by entry
    only when one type test of its lists fails, to name its first fault.
    Stored numbers are kept as-is; whether they are consistent is
    `verify_document`'s job.
    """
    top = _object(
        payload,
        {"format_version", "provenance", "family_interset_lambda", "sets"},
        "document",
    )
    prov = _provenance(top["format_version"], top["provenance"])
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
        codes = [_code(c, where, i) for i, c in enumerate(obj["codes"])]
        sets.append(
            DocumentSet(
                **{f: _integer(params[f], f"{where}.params.{f}") for f in _PARAMS},
                **{f: _integer(obj[f], f"{where}.{f}") for f in _LEVELS},
                codes=tuple(codes),
            )
        )
    return CodeSetDocument(
        format_version=top["format_version"],
        tool=prov["tool"],
        version=prov["version"],
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

    Structural rules run on the raw numbers: a code entry or set level the
    reader would refuse fails ``parameter-consistency``, and such a family
    level ``family-separation``.  A format version or provenance field
    the reader would refuse, a ``config`` it could not write as standard
    JSON among them, adds a failed ``document-format`` check, first, with
    the reader's message; a readable document has no such check, as
    ``oockit verify`` prints it only for a file it cannot read.
    Correlation rules need structurally sound codes, so sets that already
    failed are skipped there and the skip is noted; the structural
    failure alone makes the report fail.

    The table route runs once per document: the tables of every sound set,
    made from their checked differences, go through one `_row_overlaps`
    call, and every self, in-set and inter-set level is read from its
    result.  That call costs at most (w - 1)^2 int operations per table
    row, on bitsets one bit per row of the document; a pair read costs one
    AND per level.  Each sound set reads one peak against all later sets,
    one AND per level and table of the set, and its set pairs one by one
    only when that peak exceeds their strictest limit.  The shift route,
    which shares no code with it, reads the stored positions, which
    ``position-consistency`` has tied to the stored differences:
    `_shift_peaks` makes one pass per code over the code itself and every
    later code of its set, w^2 shift counts per pair whatever n is, and
    ``method-agreement`` compares its peak for every code and in-set pair
    with the table level.
    """
    problems: dict[str, list[str]] = {rule: [] for rule in _RULES}
    bad_sets: set[int] = set()

    def unsound(rule: str, k: int, problem: str) -> None:
        problems[rule].append(problem)
        bad_sets.add(k)

    # Structural rules: admissible parameters, at least one code, integer
    # lists of length w, differences that sum to n and lie in [1, n - 1],
    # positions that are their running sums, and the canonical rotation.
    params: dict[int, CodeParams] = {}
    for k, s in enumerate(doc.sets):
        try:
            params[k] = CodeParams(s.n, s.w, s.lambda_a, s.lambda_c)
        except (TypeError, ValueError) as exc:
            unsound("parameter-consistency", k, f"set {k}: {exc}")
        else:
            short = [
                i for i, c in enumerate(s.codes) if {len(c.dopr), len(c.wpr)} != {s.w}
            ]
            if not s.codes:
                unsound("parameter-consistency", k, f"set {k}: no codes")
            elif short:
                unsound(
                    "parameter-consistency",
                    k,
                    f"set {k}: codes {short} do not have {s.w} entries",
                )
        for f in _LEVELS:  # the reader's integer rule, as for code entries
            v = getattr(s, f)
            if isinstance(v, bool) or not isinstance(v, int):
                unsound("parameter-consistency", k, f"set {k}: {f} must be an integer")
        if not isinstance(s.n, int):
            continue  # the code rules measure against n
        for i, c in enumerate(s.codes):
            if not set(map(type, c.dopr)).union(map(type, c.wpr)) <= _PLAIN_INT:
                try:  # name the first entry the reader would refuse
                    for name in ("dopr", "wpr"):
                        for j, v in enumerate(getattr(c, name)):
                            _integer(v, f"set {k} code {i}: {name}[{j}]")
                except DocumentError as exc:
                    unsound("parameter-consistency", k, str(exc))
                    continue
            total = sum(c.dopr)
            if total != s.n:
                unsound(
                    "difference-sum",
                    k,
                    f"set {k} code {i}: differences sum to {total}, expected {s.n}",
                )
            low, high = (s.n, s.n) if len(c.dopr) == 1 else (1, s.n - 1)
            if c.dopr and not low <= min(c.dopr) <= max(c.dopr) <= high:
                unsound(
                    "difference-range", k, f"set {k} code {i}: difference out of range"
                )
            wpr, running = tuple(c.wpr), tuple(accumulate(c.dopr[:-1], initial=0))
            if wpr != running or not 0 <= min(wpr) <= max(wpr) < s.n:
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
    span: dict[int, range] = {}  # set index -> its tables' indexes
    for k in sound:  # tables made straight from the checked differences
        s = doc.sets[k]
        span[k] = range(len(tables), len(tables) + len(s.codes))
        tables += [
            _settled(EdopMatrix, rows=_anchored_rows(c.dopr), n=s.n) for c in s.codes
        ]
    overlaps = _row_overlaps(tables)

    # Correlation rules, one sound set at a time.
    applicable = False  # whether shared-difference applies to any set
    for k in sound:
        s, p = doc.sets[k], params[k]
        size, t = len(s.codes), span[k].start  # t: the set's first table
        shifts = _shift_peaks([c.wpr for c in s.codes], p.n)  # [i][j - i]
        auto = [1 + overlaps[t + i, t + i] for i in range(size)]
        for i, level in enumerate(auto):
            if level > p.lambda_a:
                problems["auto-correlation-bound"].append(
                    f"set {k} code {i}: self correlation {level} exceeds {p.lambda_a}"
                )
            brute = shifts[i][0]
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
                brute = shifts[i][j - i]
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
        expected, enforced = set_size_bound(p)
        if s.bound != expected:
            problems["set-size-bound"].append(
                f"set {k}: stored bound {s.bound}, recomputed {expected}"
            )
        elif enforced and size > expected:
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

    # family-separation: sets are pairwise separated and the stored peak is
    # right.  The tables of all later sound sets follow a set's own.
    ceilings = [params[k].lambda_c for k in sound]
    peak = 0
    for a_pos, ka in enumerate(sound[:-1]):
        level = 1 + overlaps.peak(span[ka], range(span[ka].stop, len(tables)))
        peak = max(peak, level)
        if level <= min(ceilings[a_pos:]) + 1:
            continue
        for kb in sound[a_pos + 1 :]:
            level = 1 + overlaps.peak(span[ka], span[kb])
            limit = min(params[ka].lambda_c, params[kb].lambda_c) + 1
            if level > limit:
                problems["family-separation"].append(
                    f"sets {ka},{kb}: inter-set correlation {level} exceeds {limit}"
                )
    stored = doc.family_interset_lambda
    if isinstance(stored, bool) or not isinstance(stored, int):
        problems["family-separation"].append("stored family level must be an integer")
    elif not bad_sets and stored != peak:
        problems["family-separation"].append(
            f"stored family level {stored}, recomputed {peak}"
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
    prov = {"tool": doc.tool, "version": doc.version, "config": doc.config}
    try:  # the reader's message; a readable document reports no such check
        _provenance(doc.format_version, prov)
    except DocumentError as exc:
        checks.insert(0, Check("document-format", False, str(exc)))
    return VerificationReport(tuple(checks))
