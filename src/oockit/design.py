"""Greedy construction of code families.

Codes are built one difference at a time.  Opening pairs seed a pool;
each stage links compatible partial codes into a graph, harvests greedy
cliques, and grows every clique member by one more difference.  Once a
single free position remains, the length forces the closing difference,
and the cliques of the last graph, on complete canonical codes, compete
for membership in the emitted family.  No graph node builds a difference
table; only the members of candidate sets do, for family selection and
the guard.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace

from .cliques import (
    Family,
    _check_max_sets,
    build_graph,
    enumerate_cliques,
    make_clique_set,
    select_family,
)
from .codes import (
    CodeParams,
    PartialDopr,
    StandardDopr,
    _standard_rotation,
    max_difference_at,
)

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
        _check_max_sets(self.max_sets)


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
    n, w = params.n, params.w
    cap = max_difference_at(n, w, 1)
    return _extend([PartialDopr((d,), n, w) for d in range(1, cap + 1)], params)


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

    Each child carries its closed companion's folded distances, its
    parent's plus min(x - p, n - x + p) for each p, for `build_graph`.
    Parents of one length in strictly increasing ``dops`` order yield
    children in strictly increasing ``dops`` order, as a child's tuple
    starts with its parent's.  The opening singletons come in that order,
    and `design_fixed` extends each clique's members in pool order, so
    every pool it builds is sorted without a sort.
    """
    n, w, lam = params.n, params.w, params.lambda_a
    out: list[PartialDopr] = []
    seen: set[tuple[int, ...]] = set()
    for code in codes:
        u = code.u
        if u + 1 >= w:
            raise ValueError("cannot extend past the last free position")
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
        folded = code._folded
        while admitted:
            x = (admitted & -admitted).bit_length() - 1
            admitted &= admitted - 1
            dops = code.dops + (x - total,)
            if dops not in seen:
                seen.add(dops)
                child = PartialDopr(dops, n, w)
                vars(child)["_folded"] = folded + tuple(
                    [x - p if 2 * (x - p) <= n else n - x + p for p in pos]
                )
                out.append(child)
    return tuple(out)


# `enumerate_first_pairs`' name for the step, which tracing never swaps.
_extend = extend_clique_codes


def _capped(cliques, max_sets: int | None):
    """Keep the largest cliques, earliest-found first on ties."""
    if max_sets is None or len(cliques) <= max_sets:
        return cliques
    ranked = sorted(range(len(cliques)), key=lambda i: (-len(cliques[i]), i))
    keep = sorted(ranked[:max_sets])
    return tuple(cliques[i] for i in keep)


def _close_pool(pool, params: CodeParams) -> tuple[StandardDopr, ...]:
    """Complete codes of a pool one difference short, one per rotation class.

    Each member is closed with the difference the length forces and its
    tuple put in canonical rotation; the first code of each class in pool
    order is kept, and only kept codes are built (with every check).
    Each takes its member's carried folded distances, which rotation
    keeps, for the last graph.  The members already meet the
    self-correlation ceiling, because extension judged each one's closed
    companion, which at u = w-1 is the complete code.

    The positional ranges prune most rotational duplicates from a pool but
    not all of them.  Duplicates are poison for the degree-greedy walk:
    copies of one class are mutually non-adjacent yet share all other
    neighbors, so they inflate the degrees of everything around them and
    steer the walk away from large cliques.  A code whose closing
    difference lands outside the canonical last-position range is
    re-rotated rather than thrown away; discarding it would leave the
    other emitted sets extendable by the discarded class.
    """
    n = params.n
    closed: list[StandardDopr] = []
    seen: set[tuple[int, ...]] = set()
    for member in pool:
        dops = _standard_rotation(member.dops + (n - sum(member.dops),))
        if dops not in seen:
            seen.add(dops)
            code = StandardDopr(dops, n)
            vars(code)["_folded"] = member._folded
            closed.append(code)
    return tuple(closed)


def design_fixed(params: CodeParams, max_sets: int | None = None) -> Family:
    """Design a family of code sets for a single parameter tuple.

    Each clique of the last graph is a candidate, kept once per set of
    codes and left unverified: family selection reads only its codes'
    tables and its tuple.  Only the sets the family keeps go through
    `make_clique_set`, so every emitted set is guarded.  An empty family
    means the search found no conforming set for these parameters, not an
    error.  ``max_sets`` caps both the cliques carried forward at each
    stage and the sets finally emitted.
    """
    _check_max_sets(max_sets)
    if params.w < 3:
        raise ValueError("the designer needs weight at least 3")
    first = enumerate_first_pairs(params)

    # Each candidate is a plain namespace of its codes, in canonical order,
    # and its tuple: all that family selection reads.
    candidates: dict[tuple, SimpleNamespace] = {}
    pools = deque([first])
    while pools:
        pool = pools.popleft()
        if not pool:
            continue
        final = pool[0].u == params.w - 1
        if final:
            pool = _close_pool(pool, params)
        graph = build_graph(pool, params.lambda_c)
        for clique in _capped(enumerate_cliques(graph), max_sets):
            members = tuple(pool[i] for i in sorted(clique))
            if not final:
                pools.append(extend_clique_codes(members, params))
                continue
            codes = tuple(sorted(members, key=lambda c: c.dops))
            key = tuple(c.dops for c in codes)
            if key not in candidates:
                candidates[key] = SimpleNamespace(codes=codes, params=params)
    family = select_family(tuple(candidates.values()), max_sets)
    return Family(
        tuple(make_clique_set(c.codes, c.params) for c in family.sets),
        family.interset_lambda,
    )


def design_multi(config: DesignConfig) -> Family:
    """Design every parameter tuple, then select one family from the union.

    Each tuple's family is designed on its own; all of their sets then
    compete in one `select_family` call, where two sets are compatible
    when their inter-set peak is at most the stricter of their two cross
    ceilings plus one.  A repeated tuple is designed once, in first-seen
    order, so it adds no second copy of its sets to the merge.
    ``max_sets`` caps each tuple's family and the merged one.
    """
    pool = [
        s
        for params in dict.fromkeys(config.parameter_list)
        for s in design_fixed(params, config.max_sets).sets
    ]
    return select_family(pool, config.max_sets)
