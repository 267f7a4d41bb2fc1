"""Greedy construction of code families.

Codes are built one difference at a time.  Opening pairs seed a pool;
each stage links compatible partial codes into a graph, harvests greedy
cliques, and grows every clique member by one more difference.  Members
two short grow straight into complete canonical codes, one per rotation
class: the length forces the closing difference.  One step, `_grow`,
makes every pool.  The cliques of that last graph compete for
membership in the emitted family.

A pool holds plain rows ``(dops, keys)``, not code objects: a prefix,
or at the last stage a complete canonical tuple, and the pattern keys of
its closed companion at the design threshold lambda_c, all its graph
reads.  A row carries its parent's keys plus its new point's, folded
distances at lambda_c 1 and triple keys at 2; above 2 it holds its own
row subsets.  So no graph node builds a difference table.  Only a code
of a kept clique of the last graph becomes an object, a `StandardDopr`
made once per distinct code and shared by every candidate set holding
it.  Family selection keys candidate sets by the same per-code keys, at
every ceiling, so no candidate set builds a table either: only the codes
of the kept sets do, for the family level and the guard, which every
design, of one tuple or a merge, runs once in `design_multi`.  Rows and
set members skip the constructors' checks: the stage that makes a value
meets each rule.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, chain
from types import SimpleNamespace

from .cliques import (
    Family,
    _check_max_sets,
    _separated,
    build_graph,
    enumerate_cliques,
    make_clique_set,
    select_family,
)
from .codes import (
    CodeParams,
    StandardDopr,
    _CARRIED,
    _row_subsets,
    _standard_rotation,
    max_difference_at,
)
from .edop import _settled

# Unused here, but perfbench/tracing.py counts calls by swapping these
# five names on this module, so they must stay importable from it.
from .cliques import greedy_clique  # noqa: F401
from .codes import standardize  # noqa: F401
from .correlation import interset_crosscorr  # noqa: F401
from .edop import edop_full, edop_partial  # noqa: F401

__all__ = [
    "DesignConfig",
    "enumerate_first_pairs",
    "extend_clique_codes",
    "design_fixed",
    "design_multi",
]


@dataclass(frozen=True)
class DesignConfig:
    """Knobs for one design run over one or more parameter tuples."""

    parameter_list: tuple[CodeParams, ...]
    max_sets: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameter_list", tuple(self.parameter_list))
        if not self.parameter_list:
            raise ValueError("parameter_list must not be empty")
        if not all(isinstance(p, CodeParams) for p in self.parameter_list):
            raise TypeError("parameter_list entries must be CodeParams")
        if any(p.w < 3 for p in self.parameter_list):
            raise ValueError("the designer needs weight at least 3")
        _check_max_sets(self.max_sets)


def _singles(params: CodeParams) -> list[tuple]:
    """The one-difference rows: each d <= max_difference_at < n / 2 leaves
    room and is its closed companion's one folded distance, and two
    one-bits hold no larger pattern.  No graph reads them: `_grow` reads
    their keys."""
    n, w = params.n, params.w
    top = max_difference_at(n, w, 1)
    return [((d,), (d,) if params.lambda_c == 1 else ()) for d in range(1, top + 1)]


def enumerate_first_pairs(params: CodeParams) -> tuple[tuple, ...]:
    """Opening difference pairs that can begin a conforming code, as rows.

    The extension step applied to every first difference in its range:
    the two differences are distinct whatever the ceiling, each stays
    inside its positional range, and the pair on its own already meets
    the self-correlation ceiling, judged by the distance counts of
    `extend_clique_codes`.  Pairs come in lexicographic order, each a
    row ``(dops, keys)`` as `extend_clique_codes` makes it.
    """
    if params.w < 3:
        raise ValueError("opening pairs need weight at least 3")
    return _grow(_singles(params), params, False)


def extend_clique_codes(rows, params: CodeParams) -> tuple[tuple, ...]:
    """The one-difference extensions of the prefix ``rows``, parent by parent.

    A row is a plain tuple ``(dops, keys)``: the leading differences of a
    code under construction and the pattern keys of its closed companion
    at lambda_c, the keys the stage graph reads (`cliques.build_graph`).
    A new difference must stay inside its positional range, leave room for
    the positions still unfilled, and keep the self correlation of the
    closed companion within the ceiling lambda: the largest number of
    times one cyclic distance occurs between its one-bits.  A parent over
    the ceiling yields nothing, since adding a one-bit never lowers a
    count.  A child adds one-bit x to its parent's one-bits P, and so the
    distances x - p and p - x for each p; a distance m counted c times
    exceeds lambda when c >= lambda and x - p or p - x is m, or when
    c >= lambda - 1 and both are, which needs 2x = p + q for some p, q in
    P.  With L_k the n-bit mask of the distances counted at least k times
    (L_0 all of Z_n), the refused x are L_lambda rotated by each p, plus
    the x = (p + q + n) / 2 whose distance x - p lies in L_(lambda-1).  A
    parent costs O(u^2) integer steps and a few n-bit int operations,
    whatever its range, and only an unrefused position becomes a child
    row.  One-difference prefixes extend into pairs of distinct
    differences, as `enumerate_first_pairs` needs.

    Each child meets each `PartialDopr` rule by construction: a parent
    of the wrong length, or one that leaves no room at the (n, w) of
    ``params``, is refused, and d = x - total lies in [1, cap],
    cap <= `max_difference_at` <= n - 1 and total + cap <= n - (w - u - 1).
    It carries its closed companion's pattern keys at lambda_c, its
    parent's plus those its new point x adds: folded distances at
    lambda_c 1 and triple keys at 2; above 2 its own row subsets.  A
    repeated parent is extended once, and parents of one length in
    strictly increasing ``dops`` order yield children in that order, as
    a child's tuple starts with its parent's.  The opening singletons
    come in that order, and `_candidates` extends each clique's members
    in pool order, so every pool it builds is sorted without a sort.
    """
    return _grow(rows, params, False)


def _grow(rows, params: CodeParams, last: bool) -> tuple[tuple, ...]:
    """The child rows that ``rows`` admit under the rule
    `extend_clique_codes` states, parent by parent: the one step that
    makes every pool.

    A child's keys are its parent's plus those its new point x closes,
    counted by the function `codes._CARRIED` names for lambda_c 1 and 2;
    above 2 they are its closed companion's row subsets (`_row_subsets`),
    and its parent's are not read.  A repeated parent is grown once.
    Before the last stage a child is the prefix one difference longer.

    At the ``last`` stage each parent is two differences short, and each
    child is read at once as its closed companion, whose last difference
    n - x the length forces, and is canonical as it stands when n - x is
    the strict maximum.  The first code of each rotation class, in parent
    and child order, becomes a row of its canonical tuple and its child's
    keys, which rotation keeps.  Rotational duplicates would poison the
    degree-greedy walk: copies of one class are mutually non-adjacent yet
    share all other neighbors, inflating the degrees around them.  A code
    is re-rotated rather than thrown away, which would leave the emitted
    sets extendable by its class.
    """
    n, w, lam, k = params.n, params.w, params.lambda_a, params.lambda_c
    closing = _CARRIED.get(k)
    out: list[tuple] = []
    classes: set[tuple[int, ...]] = set()
    for dops, keys in dict(rows).items():
        u = len(dops)
        pos = list(accumulate(dops, initial=0))
        total = pos[-1]
        if (u + 2 != w if last else u + 1 >= w) or total > n - (w - u):
            raise ValueError(f"cannot extend {dops} at n={n}, w={w}")
        # How often each cyclic distance occurs between the closed companion's
        # one-bits; the largest count is the companion's self correlation.
        counts = Counter((q - p) % n for p in pos for q in pos if p != q)
        if max(counts.values()) > lam:
            continue  # a child's counts are never below its parent's
        # L_lambda, the distances at the ceiling, and L_(lambda-1).
        full = sum(1 << m for m, c in counts.items() if c >= lam)
        near = (
            sum(1 << m for m, c in counts.items() if c >= lam - 1)
            if lam > 1
            else (1 << n) - 1
        )
        refused = 0
        for i, p in enumerate(pos):
            refused |= full << p | full >> (n - p)
            for q in pos[i:]:
                # x = (p + q + n) / 2 lies at distance (q - p + n) / 2 past p.
                if (q - p + n) % 2 == 0 and near >> (q - p + n) // 2 & 1:
                    refused |= 1 << (p + q + n) // 2
        cap = min(max_difference_at(n, w, u + 1), n - (w - u - 1) - total)
        admitted = ((1 << cap) - 1) << (total + 1) & ~refused
        if u == 1:
            # Opening pairs are of distinct differences.  Elsewhere a
            # repeated difference d is refused by the mask at lambda 1,
            # where d is a counted distance, and may be admitted above it.
            admitted &= ~(1 << (total + dops[-1]))
        top = max(dops)
        while admitted:  # the admitted x, ascending
            x = (admitted & -admitted).bit_length() - 1
            admitted &= admitted - 1
            d = x - total
            if not last:
                child = dops + (d,)
                closed = child + (n - x,)
            else:
                child = closed = dops + (d, n - x)
                if n - x <= top or n - x <= d:
                    child = _standard_rotation(closed)
                if child in classes:
                    continue
                classes.add(child)
            if closing:
                out.append((child, keys + closing(pos, x, n)))
            else:
                out.append((child, _row_subsets(closed, k, n)))
    return tuple(out)


def _capped(cliques, max_sets: int | None):
    """Keep the largest cliques, earliest-found first on ties."""
    ranked = sorted(range(len(cliques)), key=lambda i: -len(cliques[i]))
    return [cliques[i] for i in sorted(ranked[:max_sets])]


def _candidates(params: CodeParams, max_sets: int | None) -> tuple:
    """One tuple's candidate sets, the cliques of its last graph, once each.

    A candidate is unverified: a namespace of its codes, in canonical
    order, and its tuple, all that family selection reads.  Each distinct
    code is made once, a `StandardDopr` shared by every candidate holding
    it, so it builds its table and keys once.  At w = 3 the opening
    singles close at once.
    """
    w = params.w
    found: dict[tuple, None] = {}
    if w == 3:
        pools = deque([_grow(_singles(params), params, True)])
    else:
        pools = deque([enumerate_first_pairs(params)])
    while pools:
        pool = pools.popleft()
        if not pool:
            continue
        graph = build_graph(pool, params.lambda_c)
        for clique in _capped(enumerate_cliques(graph), max_sets):
            members = [pool[i] for i in sorted(clique)]
            u = len(members[0][0])
            if u == w:
                found[tuple(sorted(dops for dops, _ in members))] = None
            elif u + 2 == w:
                pools.append(_grow(members, params, True))
            else:
                pools.append(extend_clique_codes(members, params))
    made = {
        dops: _settled(StandardDopr, dops=dops, n=params.n)
        for dops in dict.fromkeys(chain.from_iterable(found))
    }
    return tuple(
        SimpleNamespace(codes=tuple(map(made.get, key)), params=params)
        for key in found
    )


def design_fixed(params: CodeParams, max_sets: int | None = None) -> Family:
    """The `design_multi` family of one parameter tuple."""
    return design_multi(DesignConfig((params,), max_sets))


def design_multi(config: DesignConfig) -> Family:
    """Design one family over the parameter tuples, each designed once.

    One tuple's candidates go straight to `select_family`.  A merge first
    narrows each tuple to its own family (`cliques._separated`), and one
    `select_family` call then chooses among all those sets.  Only the
    kept sets are guarded by `make_clique_set`, and only their codes
    build tables.  An empty family means the search found no conforming
    set, not an error.  ``max_sets`` caps the cliques carried forward at
    each stage, each tuple's family and the emitted one.
    """
    cap = config.max_sets
    tuples = dict.fromkeys(config.parameter_list)
    if len(tuples) == 1:
        pool = _candidates(*tuples, cap)
    else:
        pool = [s for p in tuples for s in _separated(_candidates(p, cap), cap)]
    family = select_family(pool, cap)
    guarded = tuple(make_clique_set(s.codes, s.params) for s in family.sets)
    return Family(guarded, family.interset_lambda)
