"""Correlation measures and the cardinality bound.

Two routes exist for every correlation value.  The brute-force route reads
the definition off the one-bit positions: a pair p of x and q of y
coincides at exactly one shift, m = (q - p) mod n, so counting those
differences gives the whole overlap profile, sparsely.  One tally,
`_shift_tally`, does that counting for every caller: a run of codes of
one length goes through `_shift_peaks` in one pass per code, over the
code itself and every later one, and a single code or pair through the
same tally.  Its work is w_x * w_y per pair of codes, whatever n is, so
a document's verify cost follows its size, not the length it declares.
The difference-table route compares rows of the codes' tables: the peak
non-trivial overlap is one more than the largest number of entries two
rows share.  It runs on one index, `_row_overlaps`: each entry value
gets an int bitset of the rows that hold it, and each row folds its
entries' bitsets into "rows sharing at least k of my entries" bitsets,
one per level k.  That is at most (w - 1) * depth int operations per
row, depth <= w - 1, so the worst case is polynomial in w; each
operation is on a bitset one bit per row of the call.  A table's levels
are its rows' levels ORed together, and a pair of tables, or of runs of
tables, reads its count as the highest level whose bitset meets the
other side's rows.  One call settles every table pair of a document at
once.  Both routes must agree, share no code, and the test suite holds
them to that.

Comparison counting is opt-in.  With ``count_comparisons=True`` a route
runs its one literal scan, shared by auto and cross correlation (n shifts
of one bit pattern over the other; every entry of one row against every
entry of the other), and tallies each comparison exactly; the default,
non-literal paths leave the counter None.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate, combinations, count, product

from .codes import BinaryCode, CodeParams, Dopr, PartialDopr, Wpr, _DifferenceForm
from .codes import wpr_from_binary, wpr_from_dopr
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
    "set_size_bound",
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
    if isinstance(code, _DifferenceForm):
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


class _RowOverlaps:
    """Most entries two distinct rows share, read per pair of tables.

    Table t's row j is bit t * W + j of a row bitset, W being the largest
    weight, so the rows of a run of tables form one run of bits.  Table t
    keeps one bitset per level k, highest first: the rows sharing at least
    k entries with some row of t.  A read is the largest k whose bitset
    meets the other side's rows, so a pair reads the same either way round
    and reads 0 when its rows share no entry; (i, i) compares the distinct
    rows of table i.
    """

    __slots__ = ("_levels", "_width", "_block")

    def __init__(self, levels: list[list[int]], width: int) -> None:
        self._levels = levels
        self._width = width
        self._block = (1 << width) - 1  # the rows of table 0

    def _meets(self, i: int, rows: int, floor: int = 0) -> int:
        """Highest level above ``floor`` at which table i meets the row
        bitset ``rows``, or ``floor`` when there is none."""
        levels = self._levels[i]
        k = len(levels)
        for bits in levels:
            if k <= floor:
                break
            if bits & rows:
                return k
            k -= 1
        return floor

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return self._meets(i, self._block << j * self._width)

    def peak(self, a: range, b: range) -> int:
        """Most entries a row of a table in ``a`` shares with a row of a
        different table in ``b``; both are ranges of table indexes."""
        width = self._width
        span = (1 << b.stop * width) - (1 << b.start * width)
        best = 0
        for i in a:
            best = self._meets(i, span & ~(self._block << i * width), best)
        return best


def _row_overlaps(tables) -> _RowOverlaps:
    """Index every row of ``tables`` by its entries and settle each pair.

    Each entry value gets one bitset of the rows that hold it (a row holds
    an entry at most once, its entries strictly increasing).  Each row
    then folds its entries' bitsets, other rows only, into "rows sharing at
    least k of my entries so far": an entry's rows join level k + 1 where
    they already stand at level k.  The levels are nested, so the fold
    stops at the first level the entry adds nothing to, and a row costs at
    most (w - 1) * depth int operations.  A table's levels are the OR of
    its rows' levels.  Entries are compared as plain integers, so the
    tables may differ in length and weight.
    """
    width = max((len(table.rows) for table in tables), default=0)
    holders: dict[int, int] = {}  # entry -> bitset of the rows holding it
    get = holders.get
    for t, table in enumerate(tables):
        bit = 1 << t * width
        for row in table.rows:
            for e in row:
                holders[e] = get(e, 0) | bit
            bit <<= 1
    levels = []
    for t, table in enumerate(tables):
        table_levels: list[int] = []
        bit = 1 << t * width
        for row in table.rows:
            mine: list[int] = []  # [k - 1]: rows sharing at least k entries
            for e in row:
                carry = holders[e] ^ bit
                k = 0
                while carry:
                    if k == len(mine):
                        mine.append(carry)
                        break
                    have = mine[k]
                    mine[k] = have | carry
                    carry &= have
                    k += 1
            for k, rows in enumerate(mine):
                if k < len(table_levels):
                    table_levels[k] |= rows
                else:
                    table_levels.append(rows)
            bit <<= 1
        table_levels.reverse()
        levels.append(table_levels)
    return _RowOverlaps(levels, width)


def _shift_tally(xpos, runs, n: int) -> Counter:
    """Overlap of x against each code of ``runs`` at every shift, sparsely.

    Key j * n + m counts the one-bits p of x and q of runs[j] with
    (q - p) mod n = m, so every key reads one shift of one pair; shifts
    that no pair of one-bits meets have no key.  w_x * w_y steps per code
    of ``runs``, whatever n is.
    """
    return Counter(
        base + (q - p) % n
        for base, ypos in zip(count(0, n), runs)  # base = j * n
        for p in xpos
        for q in ypos
    )


def _shift_peaks(positions, n: int) -> list[list[int]]:
    """Peak shift overlaps within a run of codes of one length n.

    ``positions`` holds each code's one-bit positions.  Entry [i][0] is
    code i's self peak over shifts 1..n-1 and entry [i][j] its peak
    against code i + j over every shift: one tally per code, over the
    code itself and every later one, with the self shift 0 left out.
    """
    peaks = []
    for i, xpos in enumerate(positions):
        tally = _shift_tally(xpos, positions[i:], n)
        del tally[0]
        best = [0] * (len(positions) - i)
        for key, overlap in tally.items():
            j = key // n
            if overlap > best[j]:
                best[j] = overlap
        peaks.append(best)
    return peaks


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
    shifts = _shift_tally(positions, [positions], n)
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
    shifts = _shift_tally(xpos, [ypos], n)
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
    the codes may differ in length and weight.  The default path reads
    `interset_crosscorr([x], [y])`.
    """
    if count_comparisons:
        best, comparisons = _scan_rows(product(_as_matrix(x).rows, _as_matrix(y).rows))
        return CrossReport(1 + best, comparisons=comparisons)
    return CrossReport(interset_crosscorr([x], [y]))


def set_lambda_a(codes) -> int:
    """Largest self correlation across a set of codes.

    Each table is indexed alone, on w-bit row bitsets, at most (w - 1)^2
    int operations per row: the work grows with the set's size, not with
    its pairs, and polynomially in w.
    """
    codes = list(codes)
    if not codes:
        raise ValueError("set correlation needs at least one code")
    return 1 + max(_row_overlaps([_as_matrix(c)])[0, 0] for c in codes)


def set_lambda_c(codes) -> int:
    """Largest pairwise cross correlation across a set of codes, read by
    `interset_crosscorr` with each code as a set of its own."""
    codes = list(codes)
    if len(codes) < 2:
        raise ValueError("set cross correlation needs at least two codes")
    return interset_crosscorr(*([c] for c in codes))


def interset_crosscorr(*sets) -> int:
    """Largest cross correlation between members of different sets.

    The one reader of cross levels between groups of codes.  Takes two or
    more sets, each an iterable of codes or an object with a ``codes``
    attribute, such as a clique set; one `_row_overlaps` index of their
    tables reads each set's run against the runs after it.  A set against
    itself meets its identical pairs and returns the code weight.
    """
    if len(sets) < 2:
        raise ValueError("inter-set correlation needs at least two sets")
    groups = [list(getattr(s, "codes", s)) for s in sets]
    if not all(groups):
        raise ValueError("inter-set correlation needs non-empty sets")
    overlaps = _row_overlaps([_as_matrix(c) for group in groups for c in group])
    ends = list(accumulate(map(len, groups)))
    return 1 + max(
        overlaps.peak(range(start, end), range(end, ends[-1]))
        for start, end in zip([0, *ends], ends[:-1])
    )


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


def set_size_bound(params: CodeParams) -> tuple[int, bool]:
    """The bound a set of `params` records, and whether it must hold.

    The one statement of the set-size rule, read by the designer's guard,
    by verify and by ``oockit bound``: `johnson_bound` at the larger
    correlation ceiling, enforced only when the two ceilings coincide,
    the regime the bound is stated for.
    """
    bound = johnson_bound(params.n, params.w, max(params.lambda_a, params.lambda_c))
    return bound, params.lambda_a == params.lambda_c
