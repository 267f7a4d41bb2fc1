"""Representations of sparse cyclic binary codes.

A code here is a binary word of length n with w one-bits, read cyclically.
Three equivalent views are used throughout the package:

* the raw bit pattern,
* the sorted positions of the one-bits (WPR, weighted-position form),
* the circular differences between consecutive one-bit positions (DoPR,
  difference-of-positions form).

The difference view is the workhorse; a partial one, the leading
differences of a code under construction, reads as the code its remainder
closes.  Circularly shifting the code only rotates its difference tuple,
so canonicalizing a code means picking a distinguished rotation: the one
whose last difference is maximal, breaking ties by the lexicographically
smallest leading block.  Everything the designer enumerates lives in that
canonical space.

A code also keys its own (k+1)-point patterns of one-bits, the keys
`cliques.build_graph` and `cliques.clique_set_matrix` compare: two codes
correlate above k exactly when they share such a pattern, that is, when
a row of one difference table shares k entries with a row of the other.
Each k-entry subset of a row is the pattern anchored at the row's
one-bit, and `_DifferenceForm._pattern_keys` reads these subsets
straight from the differences, building no table.

One anchoring per pattern is enough when every code compared shares one
length n.  Anchor a pattern at one of its points a: the gap after a is
the subset's first entry s_1, the gap before it n - s_k.  Keep the
anchoring when s_1 + s_k <= n, the gap after no larger than the gap
before.  Some point of every pattern passes: were each gap larger than
the one before it, the gaps would increase all the way round the cycle.
And the rule reads only the gaps, so two codes that share a pattern keep
the same anchorings of it: they share a kept key exactly when they share
any key.  At k = 1 the rule keeps min(d, n - d) for each pair of
one-bits, its folded distance, keyed as a plain int.  At k = 2 a pattern
is a triple of one-bits a < b < c with gaps g1 = b - a, g2 = c - b and
g3 = n - c + a round it, and its rows' subsets are (g1, g1 + g2) at a,
(g2, n - g1) at b and (g3, n - g2) at c, so the rule keeps a when
g1 <= g3, b when g2 <= g1 and c when g3 <= g2: the same anchorings, read
off the triple, whichever code holds it.  Each kept (s_1, s_2) is keyed
as the int s_1 * n + s_2, one int per subset at one length.  Codes of
mixed lengths keep every subset.

The keys at k = 1 and k = 2 are counted one point at a time: the pairs
and triples a one-bit c closes with the one-bits below it.  One table,
`_CARRIED`, names for k = 1 and k = 2 the attribute that holds a code's
keys and the function that counts the keys one point closes.  A code
computes its keys on first use and keeps them; the designer
instead hands each code it makes the keys of its design threshold
lambda_c alone, its parent's plus those its new one-bit closes, so no
pool code computes its own.  Above k = 2 nothing is carried: those
graphs read row subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

from .edop import EdopMatrix, _anchored_rows, _check_integers, edop_full

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


def _folds_closing_at(pos, c: int, n: int) -> tuple[int, ...]:
    """min(d, n - d) for the distance d = c - a of each a in ``pos``, all
    below c: the table entries e with 2e <= n, one per pair."""
    return tuple([c - a if 2 * (c - a) <= n else n - c + a for a in pos])


def _triples_closing_at(pos, c: int, n: int) -> tuple[int, ...]:
    """The threshold-2 keys of the triples (a, b, c), a < b from ``pos``, all
    below c: each kept anchoring (see the module docstring), its subset
    (s_1, s_2) keyed as s_1 * n + s_2."""
    keys: list[int] = []
    add = keys.append
    for a, b in combinations(pos, 2):
        g1, g2, g3 = b - a, c - b, n - c + a
        if g1 <= g3:
            add(g1 * n + c - a)
        if g2 <= g1:
            add(g2 * n + n - g1)
        if g3 <= g2:
            add(g3 * n + n - g2)
    return tuple(keys)


# Per threshold k the designer carries: the attribute holding a code's
# keys and the keys one point closes with the points below it.
_CARRIED = {1: ("_folded", _folds_closing_at), 2: ("_triples", _triples_closing_at)}


def _closed_keys(dops: tuple[int, ...], n: int, k: int) -> list[int]:
    """The threshold-k keys of the closed code ``dops``, k in `_CARRIED`,
    one point at a time: a point closes keys only with k points below it."""
    closing = _CARRIED[k][1]
    pos = list(accumulate(dops[:-1], initial=0))
    keys: list[int] = []
    for j in range(k, len(pos)):
        keys += closing(pos[:j], pos[j], n)
    return keys


class _DifferenceForm:
    """A complete or partial difference form, read through ``closed``: the
    difference tuple of the complete code it stands for."""

    @property
    def closed(self) -> tuple[int, ...]:
        return self.dops

    @cached_property
    def table(self) -> EdopMatrix:
        """The closed tuple's difference table, built on first use and kept."""
        return edop_full(self)

    @cached_property
    def _folded(self) -> tuple[int, ...]:
        """The closed tuple's min(d, n - d) per pair of one-bits, its k = 1
        pattern keys; the designer sets them on the codes it makes at
        lambda_c 1."""
        return tuple(_closed_keys(self.closed, self.n, 1))

    @cached_property
    def _triples(self) -> tuple[int, ...]:
        """The closed tuple's k = 2 pattern keys at its length; the designer
        sets them on the codes it makes at lambda_c 2."""
        return tuple(_closed_keys(self.closed, self.n, 2))

    def _pattern_keys(self, k: int, one_length: bool):
        """The keys of the closed tuple's (k+1)-point patterns of one-bits.

        The one key rule of both graphs (see the module docstring).  When
        every code compared has this code's length (``one_length``), each
        pattern keeps its canonical anchorings: at k = 1 the folded
        distances and at k = 2 the triple keys, each computed on first
        use and kept, and above that the row subsets with s_1 + s_k <= n.
        Otherwise every k-entry subset of every row is a key.  The closed
        tuple must have weight at least 2.
        """
        # A partial code's closed tuple has weight u + 1 >= 2; testing
        # ``closed`` instead would build that tuple on every call.
        if len(self.dops) < 2 and not isinstance(self, PartialDopr):
            raise ValueError("difference tables need weight >= 2")
        if one_length and k <= 2:
            return self._folded if k == 1 else self._triples
        rows = _anchored_rows(self.closed)
        n = self.n if one_length else 2 * self.n  # entries < n: every subset kept
        return [s for row in rows for s in combinations(row, k) if s[0] + s[-1] <= n]


@dataclass(frozen=True)
class Dopr(_DifferenceForm):
    """Circular differences between consecutive one-bit positions.

    For weight w >= 2 every element lies in [1, n-1] and the elements sum
    to n exactly (walking all gaps returns to the starting position).  The
    degenerate weight-1 code has the single wrap-around difference (n,),
    at any length n >= 1.
    """

    dops: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        _check_integers("n and each difference", self.n, *self.dops)
        if not self.dops:
            raise ValueError("a difference form needs at least one element")
        if len(self.dops) == 1:
            if self.n < 1:
                raise ValueError(f"a code needs length n >= 1, got n={self.n}")
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
    """A Dopr pinned to its canonical rotation; construction re-checks it.

    The designer's closed codes skip it, made canonical by `design._grow`.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dops != _standard_rotation(self.dops):
            raise ValueError(f"{self.dops} is not the canonical rotation")


@dataclass(frozen=True)
class PartialDopr(_DifferenceForm):
    """Leading u < w differences of a weight-w code under construction.

    The unspent length n - sum(dops) must still fit the remaining w - u
    differences, each at least 1; `design.extend_clique_codes` admits each
    difference of the designer's prefixes only inside that room.  It reads
    as its closed companion, the weight-(u+1) code that remainder closes.
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

    @property
    def closed(self) -> tuple[int, ...]:
        return self.dops + (self.n - sum(self.dops),)


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
    _check_integers("n, w and position", n, w, position)
    if not n > w >= 2:
        raise ValueError(f"need 2 <= w < n, got n={n} w={w}")
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
    _check_integers("n and w", n, w)
    if not n > w >= 2:
        raise ValueError(f"need 2 <= w < n, got n={n} w={w}")
    return (-(-n // w), n - w + 1)
