"""Correlation measures and the cardinality bound.

Two routes exist for every correlation value.  The brute-force route reads
the definition off the one-bit positions: a pair p of x and q of y
coincides at exactly one shift, m = (q - p) mod n, so counting those
differences gives the whole overlap profile, sparsely.  Its work is
w_x * w_y per pair of codes, whatever n is, so a document's verify cost
follows its size, not the length it declares.  The difference-table route
compares rows of the codes' tables: the peak non-trivial overlap is one
more than the largest number of entries two rows share.  It runs on one
index of table entries, `_row_overlaps`, which maps each entry to the rows
that hold it and counts, for every pair of rows holding a common entry,
how many entries they share.  Its work is the sum, over entries, of the
number of row pairs holding that entry, which equals the shared entries
summed over all row pairs: at most w - 1 times the pairs a row-by-row
scan visits, and far less when most pairs share nothing.  One call
settles every table pair of a document at once.  Both routes must agree,
share no code, and the test suite holds them to that.

Comparison counting is opt-in.  With ``count_comparisons=True`` a route
runs its one literal scan, shared by auto and cross correlation (n shifts
of one bit pattern over the other; every entry of one row against every
entry of the other), and tallies each comparison exactly; the default,
non-literal paths leave the counter None.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, product

from .codes import BinaryCode, Dopr, PartialDopr, Wpr, wpr_from_binary, wpr_from_dopr
from .edop import EdopMatrix, _check_integers

# Unused here, but perfbench/tracing.py counts calls by swapping this
# name on this module, so it must stay importable from it.
from .edop import edop_full  # noqa: F401

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
    """Peak non-zero-shift self overlap of one code.

    The shift-counting route fills ``hits`` (shift -> overlap; a shift
    it lacks has overlap 0) and ``n``; the table route leaves both None.
    """

    lambda_ax: int
    hits: Mapping[int, int] | None = field(default=None, hash=False)
    n: int | None = None
    comparisons: int | None = None

    @property
    def per_shift(self) -> tuple[int, ...] | None:
        """Overlap at each shift 1..n-1; builds an n-long tuple on request."""
        if self.hits is None:
            return None
        return tuple(self.hits.get(m, 0) for m in range(1, self.n))


@dataclass(frozen=True)
class CrossReport:
    """Peak overlap between two codes over all shifts.

    ``hits`` and ``n`` are filled as in `CorrelationReport`.
    """

    lambda_cxy: int
    hits: Mapping[int, int] | None = field(default=None, hash=False)
    n: int | None = None
    comparisons: int | None = None

    @property
    def per_shift(self) -> tuple[int, ...] | None:
        """Overlap at each shift 0..n-1; builds an n-long tuple on request."""
        if self.hits is None:
            return None
        return tuple(self.hits.get(m, 0) for m in range(self.n))


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


def _as_matrix(code: EdopMatrix | Dopr | PartialDopr) -> EdopMatrix:
    """A table as is, or the table a complete or partial code keeps."""
    if isinstance(code, EdopMatrix):
        return code
    if isinstance(code, (Dopr, PartialDopr)):
        return code.table
    raise TypeError(f"expected EdopMatrix, Dopr or PartialDopr, got {type(code)!r}")


def _slide(xpos, ypos, n: int, first_shift: int) -> tuple[dict[int, int], int]:
    """Literal overlap at each shift first_shift..n-1, and the comparisons made."""
    xbits, ybits = [0] * n, [0] * n
    for p in xpos:
        xbits[p] = 1
    for p in ypos:
        ybits[p] = 1
    comparisons = 0
    hits = {}
    for m in range(first_shift, n):
        overlap = 0
        for t in range(n):
            comparisons += 1
            if xbits[t] and ybits[(t + m) % n]:
                overlap += 1
        hits[m] = overlap
    return hits, comparisons


def _scan_rows(row_pairs) -> tuple[int, int]:
    """Most entries any pair of rows shares, compared one by one, and the count."""
    best = comparisons = 0
    for rx, ry in row_pairs:
        shared = 0
        for a in rx:
            for b in ry:
                comparisons += 1
                if a == b:
                    shared += 1
        if shared > best:
            best = shared
    return best, comparisons


def _row_overlaps(tables) -> Counter:
    """Most entries two distinct rows share, for each pair of tables.

    Keys are table index pairs (i, j) with i <= j; (i, i) compares the
    distinct rows of table i, and a pair whose rows share nothing reads 0.
    Each entry is indexed to the rows that hold it (a row holds an entry
    at most once, its entries strictly increasing), and every pair of
    those rows counts one shared entry.  Entries are compared as plain
    integers, so the tables may differ in length and weight.
    """
    holders: defaultdict[int, list[int]] = defaultdict(list)
    owner: list[int] = []  # table index of each row, rows numbered in order
    for t, table in enumerate(tables):
        for row in table.rows:
            r = len(owner)
            owner.append(t)
            for e in row:
                holders[e].append(r)
    size = len(owner)
    shared = Counter(
        a * size + b
        for rows in holders.values()
        if len(rows) > 1
        for a, b in combinations(rows, 2)
    )
    best: Counter = Counter()
    for key, count in shared.items():
        a, b = divmod(key, size)
        pair = owner[a], owner[b]
        if count > best[pair]:
            best[pair] = count
    return best


def autocorr_bruteforce(
    code: BinaryCode | Wpr | Dopr, *, count_comparisons: bool = False
) -> CorrelationReport:
    """Definition-level self correlation: max over shifts m in [1, n-1].

    Every ordered pair of distinct one-bits p, q coincides at shift
    (q - p) mod n, so counting those shifts takes w(w-1) steps; shift 0,
    where each bit meets itself, is not a correlation and is left out.
    """
    positions, n = _positions(code)
    if len(positions) < 2:
        raise ValueError("auto-correlation needs weight >= 2")
    if count_comparisons:
        hits, comparisons = _slide(positions, positions, n, 1)
        return CorrelationReport(max(hits.values()), hits, n, comparisons)
    shifts = Counter((q - p) % n for p in positions for q in positions)
    del shifts[0]
    return CorrelationReport(max(shifts.values()), shifts, n)


def crosscorr_bruteforce(
    x: BinaryCode | Wpr | Dopr,
    y: BinaryCode | Wpr | Dopr,
    *,
    count_comparisons: bool = False,
) -> CrossReport:
    """Definition-level cross correlation: max over shifts m in [0, n-1].

    Shift m overlaps x with y advanced by m, i.e. counts positions p of x
    with p + m weighted in y.  Each pair p of x, q of y therefore adds one
    to shift (q - p) mod n, and counting those shifts takes w_x * w_y
    steps.  Equal lengths only; unequal-length pairs go through the
    difference-table route.
    """
    xpos, xn = _positions(x)
    ypos, yn = _positions(y)
    if xn != yn:
        raise ValueError(f"lengths differ ({xn} vs {yn}); use crosscorr_edop")
    n = xn
    if count_comparisons:
        hits, comparisons = _slide(xpos, ypos, n, 0)
        return CrossReport(max(hits.values()), hits, n, comparisons)
    shifts = Counter((q - p) % n for p in xpos for q in ypos)
    return CrossReport(max(shifts.values()), shifts, n)


def autocorr_edop(
    code: EdopMatrix | Dopr | PartialDopr, *, count_comparisons: bool = False
) -> CorrelationReport:
    """Self correlation via the difference table.

    One more than the largest entry overlap between two distinct rows;
    equal to 1 exactly when all entries across the table are distinct.
    A partial code is judged by the table of its closed companion.
    """
    matrix = _as_matrix(code)
    if count_comparisons:
        best, comparisons = _scan_rows(combinations(matrix.rows, 2))
        return CorrelationReport(1 + best, comparisons=comparisons)
    return CorrelationReport(1 + _row_overlaps([matrix])[0, 0])


def crosscorr_edop(
    x: EdopMatrix | Dopr | PartialDopr,
    y: EdopMatrix | Dopr | PartialDopr,
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
    if count_comparisons:
        best, comparisons = _scan_rows(product(mx.rows, my.rows))
        return CrossReport(1 + best, comparisons=comparisons)
    return CrossReport(1 + _row_overlaps([mx, my])[0, 1])


def set_lambda_a(codes) -> int:
    """Largest self correlation across a set of codes."""
    codes = list(codes)
    if not codes:
        raise ValueError("set correlation needs at least one code")
    tables = [_as_matrix(c) for c in codes]
    overlaps = _row_overlaps(tables)
    return 1 + max(overlaps[i, i] for i in range(len(tables)))


def set_lambda_c(codes) -> int:
    """Largest pairwise cross correlation across a set of codes."""
    codes = list(codes)
    if len(codes) < 2:
        raise ValueError("set cross correlation needs at least two codes")
    tables = [_as_matrix(c) for c in codes]
    overlaps = _row_overlaps(tables)
    return 1 + max(overlaps[p] for p in combinations(range(len(tables)), 2))


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
    overlaps = _row_overlaps([_as_matrix(c) for c in a_codes + b_codes])
    split, size = len(a_codes), len(a_codes) + len(b_codes)
    return 1 + max(overlaps[p] for p in product(range(split), range(split, size)))


def johnson_bound(n: int, w: int, lam: int) -> int:
    """Upper bound on the number of codes in an (n, w, lam, lam) set.

    Nested floor form, evaluated innermost first:
    floor( (1/w) * floor( (n-1)/(w-1) * ... floor( (n-lam)/(w-lam) ) ) ).
    """
    _check_integers("n, w and lambda each", n, w, lam)
    if not n > w > lam >= 1:
        raise ValueError(
            f"bound needs n > w > lambda >= 1, got n={n} w={w} lambda={lam}"
        )
    acc = 1
    for i in range(lam, 0, -1):
        acc = (n - i) * acc // (w - i)
    return acc // w
