"""Difference tables for cyclic codes.

Row j of a code's table anchors the difference tuple at one-bit j and
lists the running sums of the following w-1 differences, so entry (j, k)
is the circular distance from the j-th one-bit to the (j+k)-th.  Distances
of every bit pair appear in both directions, which makes the whole table
closed under the complement a -> n - a.

All correlation questions in this package reduce to intersecting rows of
these tables: a non-zero-shift overlap of two codes is exactly a shared
entry between a row of one table and a row of the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: codes imports this module at run time
    from .codes import Dopr, PartialDopr

__all__ = [
    "EdopMatrix",
    "ZeroAugmentedEdop",
    "edop_full",
    "edop_partial",
    "zero_augment",
    "check_complement_closure",
]


@dataclass(frozen=True)
class EdopMatrix:
    """Anchored running-sum table of a difference tuple.

    A weight-w code yields w rows of w-1 strictly increasing entries in
    [1, n-1].  A partial code with u known differences yields the table of
    its closed weight-(u+1) companion.
    """

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a difference table needs at least one row")
        width = len(self.rows[0])
        if width == 0 or len(self.rows) != width + 1:
            raise ValueError("table must have one more row than columns")
        for row in self.rows:
            if len(row) != width:
                raise ValueError("rows must have equal length")
            if any(not 1 <= e <= self.n - 1 for e in row):
                raise ValueError(f"entries must lie in [1, {self.n - 1}]")
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError("row entries must be strictly increasing")

    @property
    def weight(self) -> int:
        return len(self.rows)

    @cached_property
    def row_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(row) for row in self.rows)

    @cached_property
    def entry_set(self) -> frozenset[int]:
        return frozenset().union(*self.row_sets)


@dataclass(frozen=True)
class ZeroAugmentedEdop:
    """Difference table with a leading zero column.

    Row j then reads as the weighted positions of the circular shift that
    moves one-bit j to position 0, which is what ties row intersections to
    shift overlaps.
    """

    rows: tuple[tuple[int, ...], ...]
    n: int


def _anchored_rows(dops: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    w = len(dops)
    rows = []
    for j in range(w):
        acc = 0
        row = []
        for k in range(w - 1):
            acc += dops[(j + k) % w]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def edop_full(dopr: Dopr) -> EdopMatrix:
    """Complete table of a weight >= 2 code."""
    if dopr.weight < 2:
        raise ValueError("difference tables need weight >= 2")
    return EdopMatrix(_anchored_rows(dopr.dops), dopr.n)


def edop_partial(partial: PartialDopr) -> EdopMatrix:
    """Table of a partial code's closed companion.

    The u known differences plus the wrap-around remainder n - sum form a
    weight-(u+1) code whose full table this is: (u+1) rows of u entries.
    """
    closing = partial.n - sum(partial.dops)
    closed = partial.dops + (closing,)
    return EdopMatrix(_anchored_rows(closed), partial.n)


def zero_augment(matrix: EdopMatrix) -> ZeroAugmentedEdop:
    """Prepend the zero column, turning each row into a shifted position list."""
    return ZeroAugmentedEdop(tuple((0,) + row for row in matrix.rows), matrix.n)


def check_complement_closure(matrix: EdopMatrix) -> bool:
    """Whether every entry a appears as often as its complement n - a."""
    counts = Counter(e for row in matrix.rows for e in row)
    return all(counts[e] == counts[matrix.n - e] for e in counts)
