"""Correlation measures and the cardinality bound.

Two routes exist for every correlation value.  The brute-force route slides
one bit pattern over the other and counts coinciding one-bits per shift,
straight from the definition.  The difference-table route intersects rows
of the codes' tables: the peak non-trivial overlap is one more than the
largest number of entries two rows share.  Both routes must agree, and the
test suite holds them to that.

Comparison counting is opt-in.  With ``count_comparisons=True`` the
functions run the literal definition and tally every element comparison;
the tallies are exact, never estimates, and the disabled counter is None.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import BinaryCode, Dopr, Wpr, dopr_from_wpr, wpr_from_binary, wpr_from_dopr
from .edop import EdopMatrix, edop_full

__all__ = [
    "CorrelationReport",
    "CrossReport",
    "autocorr_bruteforce",
    "autocorr_edop",
    "crosscorr_bruteforce",
    "crosscorr_edop",
    "set_lambda_a",
    "set_lambda_c",
    "interset_crosscorr",
    "johnson_bound",
]


@dataclass(frozen=True)
class CorrelationReport:
    """Peak non-zero-shift self overlap of one code."""

    lambda_ax: int
    per_shift: tuple[int, ...] | None = None
    comparisons: int | None = None


@dataclass(frozen=True)
class CrossReport:
    """Peak overlap between two codes over all shifts."""

    lambda_cxy: int
    per_shift: tuple[int, ...] | None = None
    comparisons: int | None = None


def _positions(code: BinaryCode | Wpr | Dopr) -> tuple[tuple[int, ...], int]:
    if isinstance(code, BinaryCode):
        wpr = wpr_from_binary(code)
    elif isinstance(code, Dopr):
        wpr = wpr_from_dopr(code)
    elif isinstance(code, Wpr):
        wpr = code
    else:
        raise TypeError(f"expected BinaryCode, Wpr or Dopr, got {type(code)!r}")
    return wpr.positions, wpr.n


def _as_matrix(code: EdopMatrix | Dopr) -> EdopMatrix:
    if isinstance(code, EdopMatrix):
        return code
    if isinstance(code, Dopr):
        return edop_full(code)
    raise TypeError(f"expected EdopMatrix or Dopr, got {type(code)!r}")


def autocorr_bruteforce(
    code: BinaryCode | Wpr | Dopr, *, count_comparisons: bool = False
) -> CorrelationReport:
    """Definition-level self correlation: max over shifts m in [1, n-1]."""
    positions, n = _positions(code)
    if len(positions) < 2:
        raise ValueError("auto-correlation needs weight >= 2")
    if count_comparisons:
        bits = [0] * n
        for p in positions:
            bits[p] = 1
        comparisons = 0
        profile = []
        for m in range(1, n):
            hits = 0
            for t in range(n):
                comparisons += 1
                if bits[t] and bits[(t + m) % n]:
                    hits += 1
            profile.append(hits)
        return CorrelationReport(max(profile), tuple(profile), comparisons)
    member = frozenset(positions)
    profile = tuple(
        sum(1 for p in positions if (p + m) % n in member) for m in range(1, n)
    )
    return CorrelationReport(max(profile), profile, None)


def crosscorr_bruteforce(
    x: BinaryCode | Wpr | Dopr,
    y: BinaryCode | Wpr | Dopr,
    *,
    count_comparisons: bool = False,
) -> CrossReport:
    """Definition-level cross correlation: max over shifts m in [0, n-1].

    Shift m overlaps x with y advanced by m, i.e. counts positions p of x
    with p + m weighted in y.  Equal lengths only; unequal-length pairs go
    through the difference-table route.
    """
    xpos, xn = _positions(x)
    ypos, yn = _positions(y)
    if xn != yn:
        raise ValueError(f"lengths differ ({xn} vs {yn}); use crosscorr_edop")
    n = xn
    if count_comparisons:
        ybits = [0] * n
        for p in ypos:
            ybits[p] = 1
        xbits = [0] * n
        for p in xpos:
            xbits[p] = 1
        comparisons = 0
        profile = []
        for m in range(n):
            hits = 0
            for t in range(n):
                comparisons += 1
                if xbits[t] and ybits[(t + m) % n]:
                    hits += 1
            profile.append(hits)
        return CrossReport(max(profile), tuple(profile), comparisons)
    member = frozenset(ypos)
    profile = tuple(
        sum(1 for p in xpos if (p + m) % n in member) for m in range(n)
    )
    return CrossReport(max(profile), profile, None)


def autocorr_edop(
    code: EdopMatrix | Dopr, *, count_comparisons: bool = False
) -> CorrelationReport:
    """Self correlation via the difference table.

    One more than the largest entry overlap between two distinct rows;
    equal to 1 exactly when all entries across the table are distinct.
    """
    matrix = _as_matrix(code)
    rows = matrix.rows
    if len(rows) < 2:
        raise ValueError("auto-correlation needs weight >= 2")
    best = 0
    if count_comparisons:
        comparisons = 0
        for i in range(len(rows)):
            for k in range(i + 1, len(rows)):
                shared = 0
                for a in rows[i]:
                    for b in rows[k]:
                        comparisons += 1
                        if a == b:
                            shared += 1
                if shared > best:
                    best = shared
        return CorrelationReport(1 + best, None, comparisons)
    sets = matrix.row_sets
    for i in range(len(sets)):
        for k in range(i + 1, len(sets)):
            shared = len(sets[i] & sets[k])
            if shared > best:
                best = shared
    return CorrelationReport(1 + best, None, None)


def crosscorr_edop(
    x: EdopMatrix | Dopr,
    y: EdopMatrix | Dopr,
    *,
    count_comparisons: bool = False,
) -> CrossReport:
    """Cross correlation via the difference tables.

    One more than the largest entry overlap between any row of one table
    and any row of the other.  Entries are compared as plain integers, so
    the codes may differ in length and weight.
    """
    mx = _as_matrix(x)
    my = _as_matrix(y)
    best = 0
    if count_comparisons:
        comparisons = 0
        for rx in mx.rows:
            for ry in my.rows:
                shared = 0
                for a in rx:
                    for b in ry:
                        comparisons += 1
                        if a == b:
                            shared += 1
                if shared > best:
                    best = shared
        return CrossReport(1 + best, None, comparisons)
    for sx in mx.row_sets:
        for sy in my.row_sets:
            shared = len(sx & sy)
            if shared > best:
                best = shared
    return CrossReport(1 + best, None, None)


def set_lambda_a(codes, *, method: str = "edop") -> int:
    """Largest self correlation across a set of codes."""
    codes = list(codes)
    if not codes:
        raise ValueError("set correlation needs at least one code")
    if method == "edop":
        return max(autocorr_edop(c).lambda_ax for c in codes)
    if method == "bruteforce":
        return max(autocorr_bruteforce(c).lambda_ax for c in codes)
    raise ValueError(f"unknown method {method!r}")


def set_lambda_c(codes, *, method: str = "edop") -> int:
    """Largest pairwise cross correlation across a set of codes."""
    codes = list(codes)
    if len(codes) < 2:
        raise ValueError("set cross correlation needs at least two codes")
    if method == "edop":
        mats = [_as_matrix(c) for c in codes]
        return max(
            crosscorr_edop(mats[i], mats[k]).lambda_cxy
            for i in range(len(mats))
            for k in range(i + 1, len(mats))
        )
    if method == "bruteforce":
        return max(
            crosscorr_bruteforce(codes[i], codes[k]).lambda_cxy
            for i in range(len(codes))
            for k in range(i + 1, len(codes))
        )
    raise ValueError(f"unknown method {method!r}")


def interset_crosscorr(a, b) -> int:
    """Largest cross correlation between members of two sets.

    Accepts any iterables of codes (or objects with a ``codes`` attribute,
    such as clique sets).  Evaluating a set against itself includes the
    identical pairs and therefore returns the code weight.
    """
    a_codes = list(getattr(a, "codes", a))
    b_codes = list(getattr(b, "codes", b))
    if not a_codes or not b_codes:
        raise ValueError("inter-set correlation needs non-empty sets")
    a_mats = [_as_matrix(c) for c in a_codes]
    b_mats = [_as_matrix(c) for c in b_codes]
    return max(
        crosscorr_edop(ma, mb).lambda_cxy for ma in a_mats for mb in b_mats
    )


def johnson_bound(n: int, w: int, lam: int) -> int:
    """Upper bound on the number of codes in an (n, w, lam, lam) set.

    Nested floor form, evaluated innermost first:
    floor( (1/w) * floor( (n-1)/(w-1) * ... floor( (n-lam)/(w-lam) ) ) ).
    """
    if not (isinstance(n, int) and isinstance(w, int) and isinstance(lam, int)):
        raise ValueError("arguments must be integers")
    if not n > w > lam >= 1:
        raise ValueError(
            f"bound needs n > w > lambda >= 1, got n={n} w={w} lambda={lam}"
        )
    acc = 1
    for i in range(lam, 0, -1):
        acc = (n - i) * acc // (w - i)
    return acc // w
