"""Greedy construction of code families.

Codes are built one difference at a time.  Opening pairs seed a pool;
each stage links compatible partial codes into a graph, harvests greedy
cliques, and grows every clique member by one more difference.  Members
two short grow straight into complete canonical codes, one per rotation
class: the length forces the closing difference.  One step, `_grow`,
makes every pool.  The cliques of that last graph compete for
membership in the emitted family.  No graph node builds a difference
table: each pool code carries the pattern keys of its design threshold
lambda_c, its parent's plus its new point's, folded distances at 1 and
triple keys at 2; above 2 it carries none, and its graph reads row
subsets.
Family selection keys candidate sets by the same per-code keys, at every
ceiling, so no candidate set builds one either: only the codes of the
kept sets do, for the family level and the guard, which every design,
of one tuple or a merge, runs once in `design_multi`.  Pool codes skip
their constructors' checks: the stage that makes a value meets each rule.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate
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
    PartialDopr,
    StandardDopr,
    _CARRIED,
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


def _singles(params: CodeParams) -> list[PartialDopr]:
    """The one-difference codes: each d <= max_difference_at < n / 2 leaves
    room.  No graph reads them: their keys are counted when `_grow` reads
    them."""
    n, w = params.n, params.w
    top = max_difference_at(n, w, 1)
    return [_settled(PartialDopr, dops=(d,), n=n, w=w) for d in range(1, top + 1)]


def enumerate_first_pairs(params: CodeParams) -> tuple[PartialDopr, ...]:
    """Opening difference pairs that can begin a conforming code.

    The extension step applied to every first difference in its range:
    the two differences are distinct whatever the ceiling, each stays
    inside its positional range, and the pair on its own already meets
    the self-correlation ceiling, judged by the distance counts of
    `extend_clique_codes`.  Pairs come in lexicographic order.
    """
    if params.w < 3:
        raise ValueError("opening pairs need weight at least 3")
    return _grow(_singles(params), params, False)


def extend_clique_codes(codes, params: CodeParams) -> tuple[PartialDopr, ...]:
    """The one-difference extensions of ``codes``, parent by parent.

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
    whatever its range, and only an unrefused position becomes a
    `PartialDopr`.  One-difference codes extend into pairs of distinct
    differences, as `enumerate_first_pairs` needs.

    Each child is made by construction (`edop._settled`), meeting each
    `PartialDopr` rule: a parent not at the (n, w) of ``params`` is refused,
    and d = x - total lies in [1, cap], cap <= `max_difference_at` <= n - 1
    and total + cap <= n - (w - u - 1).  It carries its closed companion's
    pattern keys at lambda_c, where the graphs read them, its parent's plus
    those its new point x adds: folded distances at lambda_c 1 and triple
    keys at 2; above 2 it carries none.  A repeated parent is extended
    once, and parents of one length in strictly increasing ``dops`` order
    yield children in that order, as a child's tuple starts with its
    parent's.  The opening singletons come in that order, and `_candidates`
    extends each clique's members in pool order, so every pool it builds
    is sorted without a sort.
    """
    return _grow(codes, params, False)


def _grow(codes, params: CodeParams, last: bool) -> tuple:
    """The children ``codes`` admit under the rule `extend_clique_codes`
    states, parent by parent: the one step that makes every pool.

    Each child is made by construction (`edop._settled`) and carries the
    pattern keys of lambda_c named in `codes._CARRIED`, its parent's plus
    those its new point x closes; above lambda_c 2 it carries none.  A
    repeated parent is grown once.  Before the last stage a child is the
    `PartialDopr` one difference longer.

    At the ``last`` stage each parent is two differences short, and each
    child is read at once as its closed companion, whose last difference
    n - x the length forces, and is canonical as it stands when n - x is
    the strict maximum.  The first code of each rotation class, in parent
    and child order, is made as a `StandardDopr` with its child's keys,
    which rotation keeps.  Rotational duplicates would poison the
    degree-greedy walk: copies of one class are mutually non-adjacent yet
    share all other neighbors, inflating the degrees around them.  A code
    is re-rotated rather than thrown away, which would leave the emitted
    sets extendable by its class.
    """
    n, w, lam = params.n, params.w, params.lambda_a
    attr, closing = _CARRIED.get(params.lambda_c, (None, None))
    out: list[PartialDopr | StandardDopr] = []
    classes: set[tuple[int, ...]] = set()
    for code in dict.fromkeys(codes):
        u = code.u
        if (u + 2 != w if last else u + 1 >= w) or (code.n, code.w) != (n, w):
            raise ValueError(f"cannot extend {code!r} at n={n}, w={w}")
        # How often each cyclic distance occurs between the closed companion's
        # one-bits; the largest count is the companion's self correlation.
        pos = list(accumulate(code.dops, initial=0))
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
        total = pos[-1]
        cap = min(max_difference_at(n, w, u + 1), n - (w - u - 1) - total)
        admitted = ((1 << cap) - 1) << (total + 1) & ~refused
        if u == 1:
            # Opening pairs are of distinct differences.  Elsewhere a
            # repeated difference d is refused by the mask at lambda 1,
            # where d is a counted distance, and may be admitted above it.
            admitted &= ~(1 << (total + code.dops[-1]))
        top, keys = max(code.dops), getattr(code, attr) if attr else ()
        while admitted:  # the admitted x, ascending
            x = (admitted & -admitted).bit_length() - 1
            admitted &= admitted - 1
            d = x - total
            if not last:
                made = _settled(PartialDopr, dops=code.dops + (d,), n=n, w=w)
            else:
                dops = code.dops + (d, n - x)
                if n - x <= top or n - x <= d:
                    dops = _standard_rotation(dops)
                if dops in classes:
                    continue
                classes.add(dops)
                made = _settled(StandardDopr, dops=dops, n=n)
            if attr:
                made.__dict__[attr] = keys + closing(pos, x, n)
            out.append(made)
    return tuple(out)


def _capped(cliques, max_sets: int | None):
    """Keep the largest cliques, earliest-found first on ties."""
    ranked = sorted(range(len(cliques)), key=lambda i: -len(cliques[i]))
    return [cliques[i] for i in sorted(ranked[:max_sets])]


def _candidates(params: CodeParams, max_sets: int | None) -> tuple:
    """One tuple's candidate sets, the cliques of its last graph, once each.

    A candidate is unverified: a namespace of its codes, in canonical
    order, and its tuple, all that family selection reads.  At w = 3 the
    opening singles close at once.
    """
    w = params.w
    found: dict[tuple, tuple] = {}
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
            members = tuple(pool[i] for i in sorted(clique))
            if len(members[0].dops) == w:
                codes = tuple(sorted(members, key=lambda c: c.dops))
                found.setdefault(tuple(c.dops for c in codes), codes)
            elif members[0].u + 2 == w:
                pools.append(_grow(members, params, True))
            else:
                pools.append(extend_clique_codes(members, params))
    return tuple(SimpleNamespace(codes=c, params=params) for c in found.values())


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
