"""Representations of sparse cyclic binary codes.

A code here is a binary word of length n with w one-bits, read cyclically.
Three equivalent views are used throughout the package:

* the raw bit pattern,
* the sorted positions of the one-bits (WPR, weighted-position form),
* the circular differences between consecutive one-bit positions (DoPR,
  difference-of-positions form).

The difference view is the workhorse.  Circularly shifting the code only
rotates its difference tuple, so canonicalizing a code means picking a
distinguished rotation: the one whose last difference is maximal, breaking
ties by the lexicographically smallest leading block.  Everything the
designer enumerates lives in that canonical space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .edop import (
    EdopMatrix,
    _check_integers,
    _folded_distances,
    edop_full,
    edop_partial,
)

__all__ = [
    "CodeParams",
    "BinaryCode",
    "Wpr",
    "Dopr",
    "StandardDopr",
    "PartialDopr",
    "wpr_from_binary",
    "binary_from_wpr",
    "dopr_from_wpr",
    "wpr_from_dopr",
    "standardize",
    "rotations",
    "max_difference_at",
    "last_difference_range",
]


@dataclass(frozen=True)
class CodeParams:
    """Design parameters: length n, weight w, correlation ceilings."""

    n: int
    w: int
    lambda_a: int = 1
    lambda_c: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "w", "lambda_a", "lambda_c"):
            _check_integers(name, getattr(self, name))
        if (
            not self.n > self.w > max(self.lambda_a, self.lambda_c)
            or min(self.lambda_a, self.lambda_c) < 1
        ):
            raise ValueError(
                "parameters must satisfy n > w > max(lambda_a, lambda_c) >= 1, "
                f"got n={self.n} w={self.w} lambda_a={self.lambda_a} "
                f"lambda_c={self.lambda_c}"
            )


@dataclass(frozen=True)
class BinaryCode:
    """Raw bit pattern of a code word."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("a code needs at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class Wpr:
    """Sorted positions of the one-bits within a length-n cycle."""

    positions: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        _check_integers("n and each position", self.n, *self.positions)
        if not self.positions:
            raise ValueError("a code needs at least one weighted position")
        if any(not 0 <= p < self.n for p in self.positions):
            raise ValueError(f"positions must lie in [0, {self.n})")
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")

    @property
    def weight(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Dopr:
    """Circular differences between consecutive one-bit positions.

    For weight w >= 2 every element lies in [1, n-1] and the elements sum
    to n exactly (walking all gaps returns to the starting position).  The
    degenerate weight-1 code has the single wrap-around difference (n,).
    """

    dops: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        _check_integers("n and each difference", self.n, *self.dops)
        if not self.dops:
            raise ValueError("a difference form needs at least one element")
        if len(self.dops) == 1:
            if self.dops != (self.n,):
                raise ValueError(
                    f"weight-1 code at n={self.n} must have the single "
                    f"difference ({self.n},), got {self.dops}"
                )
            return
        if min(self.dops) < 1 or max(self.dops) > self.n - 1:
            raise ValueError(f"differences must lie in [1, {self.n - 1}]")
        if sum(self.dops) != self.n:
            raise ValueError(
                f"differences must sum to n={self.n}, got {sum(self.dops)}"
            )

    @property
    def weight(self) -> int:
        return len(self.dops)

    @cached_property
    def table(self) -> EdopMatrix:
        """The code's difference table, built on first use and kept."""
        return edop_full(self)

    @cached_property
    def _folded(self) -> tuple[int, ...]:
        """min(d, n - d) per pair of one-bits, the keys `build_graph` reads.

        Computed on first use, unless the designer set it when it closed
        the code: rotation keeps every distance.
        """
        return tuple(_folded_distances(self.dops, self.n))


def rotations(dops: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All rotations of a difference tuple, starting from the identity."""
    return tuple(dops[i:] + dops[:i] for i in range(len(dops)))


def _standard_rotation(dops: tuple[int, ...]) -> tuple[int, ...]:
    # Canonical rotation: maximal last element, then lexicographically
    # smallest tuple among the survivors.  Only the rotations that end at a
    # maximal element are formed.  A fully symmetric tuple has a single
    # distinct rotation and is returned unchanged.
    top = max(dops)
    return min(dops[i + 1 :] + dops[: i + 1] for i, d in enumerate(dops) if d == top)


class StandardDopr(Dopr):
    """A Dopr pinned to its canonical rotation; construction re-checks it."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dops != _standard_rotation(self.dops):
            raise ValueError(f"{self.dops} is not the canonical rotation")


@dataclass(frozen=True)
class PartialDopr:
    """Leading u < w differences of a weight-w code under construction.

    The unspent length n - sum(dops) must still fit the remaining w - u
    differences, each at least 1.
    """

    dops: tuple[int, ...]
    n: int
    w: int

    def __post_init__(self) -> None:
        _check_integers("n, w and each difference", self.n, self.w, *self.dops)
        u = len(self.dops)
        if not 1 <= u < self.w:
            raise ValueError(f"a partial form needs 1..{self.w - 1} elements")
        if min(self.dops) < 1 or max(self.dops) > self.n - 1:
            raise ValueError(f"differences must lie in [1, {self.n - 1}]")
        if sum(self.dops) > self.n - (self.w - u):
            raise ValueError(
                f"prefix {self.dops} leaves no room for {self.w - u} more "
                f"differences within n={self.n}"
            )

    @property
    def u(self) -> int:
        return len(self.dops)

    @cached_property
    def table(self) -> EdopMatrix:
        """The closed companion's difference table, built on first use and kept."""
        return edop_partial(self)

    @cached_property
    def _folded(self) -> tuple[int, ...]:
        """The closed companion's min(d, n - d) per pair of one-bits.

        Computed on first use, unless extension set it when it admitted
        the code, from its parent's.
        """
        return tuple(_folded_distances(self.dops + (self.n - sum(self.dops),), self.n))


def wpr_from_binary(code: BinaryCode) -> Wpr:
    """Positions of the one-bits."""
    return Wpr(tuple(i for i, b in enumerate(code.bits) if b), code.n)


def binary_from_wpr(wpr: Wpr) -> BinaryCode:
    bits = [0] * wpr.n
    for p in wpr.positions:
        bits[p] = 1
    return BinaryCode(tuple(bits))


def dopr_from_wpr(wpr: Wpr) -> Dopr:
    """Gaps between consecutive positions, wrapping from the last to the first."""
    pos = wpr.positions
    if len(pos) == 1:
        return Dopr((wpr.n,), wpr.n)
    gaps = tuple(b - a for a, b in zip(pos, pos[1:]))
    return Dopr(gaps + (wpr.n + pos[0] - pos[-1],), wpr.n)


def wpr_from_dopr(dopr: Dopr) -> Wpr:
    """The shift anchored at position 0: running sums of all but the last gap."""
    return Wpr(tuple(accumulate(dopr.dops[:-1], initial=0)), dopr.n)


def standardize(dopr: Dopr) -> StandardDopr:
    """Canonical rotation of a difference tuple.

    Every code has one: rotate so the last element is maximal and, among
    rotations tied on that, the first elements are lexicographically
    smallest.  Idempotent, and invariant under circular shifts of the
    underlying code.
    """
    return StandardDopr(_standard_rotation(dopr.dops), dopr.n)


def max_difference_at(n: int, w: int, position: int) -> int:
    """Largest value a canonical-form difference can take at a non-final slot.

    Slots are 1-based among the first w-1 differences.  The leading
    floor((w-1)/2) slots are capped at floor((n-w+1)/2); the remaining
    non-final slots at floor((n-w+2)/2).
    """
    if not 1 <= position <= w - 1:
        raise ValueError(f"position must lie in [1, {w - 1}]")
    if position <= (w - 1) // 2:
        return (n - w + 1) // 2
    return (n - w + 2) // 2


def last_difference_range(n: int, w: int) -> tuple[int, int]:
    """Inclusive range of the closing difference in canonical form.

    This is the only statement of the paper's published closing range, the
    companion of `max_difference_at`'s caps on the other slots; the tests
    check every canonical code against both.  The designer never calls it:
    the length forces the closing difference, n minus the sum of the rest.
    """
    return (-(-n // w), n - w + 1)
