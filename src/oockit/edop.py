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

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
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


_PLAIN_INT = frozenset({int})


def _check_integers(what: str, *values) -> None:
    """Refuse bools and floats such as 7.0, which documents cannot round-trip.

    Every code constructor calls this, so plain ints pass on one set
    comparison; only other types are looked at one by one.
    """
    types = set(map(type, values))
    if types == _PLAIN_INT:
        return
    if any(issubclass(t, bool) or not issubclass(t, int) for t in types):
        raise ValueError(f"{what} must be an integer")


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
        if any(len(row) != width for row in self.rows):
            raise ValueError("rows must have equal length")
        _check_integers("n and each entry", self.n, *chain.from_iterable(self.rows))
        for row in self.rows:
            if min(row) < 1 or max(row) > self.n - 1:
                raise ValueError(f"entries must lie in [1, {self.n - 1}]")
            if not all(map(operator.lt, row, row[1:])):
                raise ValueError("row entries must be strictly increasing")

    @property
    def weight(self) -> int:
        return len(self.rows)

    @cached_property
    def entry_set(self) -> frozenset[int]:
        return frozenset(chain.from_iterable(self.rows))


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
    # At least two positive differences summing to n, as every code's maker
    # checks, give strictly increasing rows in [1, n-1]: a valid table.
    w = len(dops)
    doubled = dops + dops
    return tuple([tuple(accumulate(doubled[j : j + w - 1])) for j in range(w)])


def _settled(cls, **fields):
    """A frozen ``cls`` holding ``fields``, made by construction: its maker
    has met every rule ``__post_init__`` checks, so that does not run."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


def edop_full(code: Dopr | PartialDopr) -> EdopMatrix:
    """Table of a code's closed tuple, which must have weight >= 2.

    A complete code's table is its own; a partial code with u known
    differences yields its closed companion's, (u+1) rows of u entries.
    """
    closed = code.closed
    if len(closed) < 2:
        raise ValueError("difference tables need weight >= 2")
    return _settled(EdopMatrix, rows=_anchored_rows(closed), n=code.n)


# A partial code's table is its closed companion's: one builder, two names.
edop_partial = edop_full


def zero_augment(matrix: EdopMatrix) -> ZeroAugmentedEdop:
    """Prepend the zero column, turning each row into a shifted position list."""
    return ZeroAugmentedEdop(tuple((0,) + row for row in matrix.rows), matrix.n)


def check_complement_closure(matrix: EdopMatrix) -> bool:
    """Whether every entry a appears as often as its complement n - a."""
    counts = Counter(e for row in matrix.rows for e in row)
    return all(counts[e] == counts[matrix.n - e] for e in counts)
