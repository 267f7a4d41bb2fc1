"""Greedy construction of code families.

Codes are built one difference at a time.  Opening pairs that respect the
positional ranges and the self-correlation ceiling seed a pool; each stage
links compatible partial codes into a graph, harvests greedy cliques, and
grows every clique member by one more difference, the step that also
made the opening pairs from single differences.  That step counts, once
per parent, how often each cyclic distance occurs between the one-bits of
the parent's closed companion; a candidate difference adds one one-bit,
so only its distances to and from the parent's one-bits are new, and the
candidate passes when no count then exceeds the ceiling.  A rejected
candidate builds no object, and graphs key a kept one straight from its
differences, so no graph node builds a difference table.  Once a single
free position remains, the closing difference is forced by the length:
each member is completed, put in canonical rotation and kept once per
rotation class, the last graph is built on those complete codes, and its
cliques compete for membership in the emitted family.  They compete as
plain candidates, unverified; only the sets the family keeps are
assembled by `make_clique_set`, whose independent recheck of every self
and cross correlation and of the cardinality bound thus guards each
emitted set.  Tables are built only by the members of candidate sets,
whose rows family selection and the guard read.
"""

from __future__ import annotations

import logging
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
    last_difference_range,
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

log = logging.getLogger(__name__)


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
    """One-difference extensions of every member of a partial-code clique.

    A new difference must stay inside its positional range, leave room for
    the positions still unfilled, and keep the partial self correlation
    within the ceiling.  That correlation is the largest number of times
    one cyclic distance occurs between the one-bits of the closed
    companion.  Each parent's distances are counted once; a candidate
    adds the 2(u+1) distances between its new one-bit and the parent's,
    so it costs O(u) integer steps, and only a candidate that passes
    becomes a `PartialDopr`.  A parent already over the ceiling yields
    nothing, since adding a one-bit never lowers a count.  A difference
    equal to its predecessor is skipped unscored when the ceiling is 1,
    where it can never survive, and when it would be the second
    difference: one-difference codes extend as in `enumerate_first_pairs`,
    into pairs of distinct differences.
    """
    return _extend(codes, params)


# Both public functions call this rather than each other, so that a traced
# run files the opening pairs and the extensions under separate spans.
def _extend(codes, params: CodeParams) -> tuple[PartialDopr, ...]:
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
        total = pos[-1]
        cap = min(max_difference_at(n, w, u + 1), n - (w - u - 1) - total)
        for e in range(1, cap + 1):
            if e == code.dops[-1] and (u == 1 or lam == 1):
                continue
            # The child adds one-bit x: only its distances to and from the
            # parent's one-bits are new.
            x = total + e
            grown: dict[int, int] = {}
            for m in [(x - p) % n for p in pos] + [(p - x) % n for p in pos]:
                k = grown.get(m, counts.get(m, 0)) + 1
                if k > lam:
                    break
                grown[m] = k
            else:
                dops = code.dops + (e,)
                if dops not in seen:
                    seen.add(dops)
                    out.append(PartialDopr(dops, n, w))
    return tuple(out)


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
    The members already meet the self-correlation ceiling, because
    extension judged each one's closed companion, which at u = w-1 is the
    complete code.

    The positional ranges prune most rotational duplicates from a pool but
    not all of them.  Duplicates are poison for the degree-greedy walk:
    copies of one class are mutually non-adjacent yet share all other
    neighbors, so they inflate the degrees of everything around them and
    steer the walk away from large cliques.  A closing difference that
    lands outside the canonical last-position range is logged and the code
    is re-rotated rather than thrown away; discarding it would leave the
    other emitted sets extendable by the discarded class.
    """
    n, w = params.n, params.w
    lo, hi = last_difference_range(n, w)
    closed: list[StandardDopr] = []
    seen: set[tuple[int, ...]] = set()
    for member in pool:
        closing = n - sum(member.dops)
        if not lo <= closing <= hi:
            log.debug(
                "closing difference %d of %s is outside [%d, %d]; "
                "re-rotating instead of discarding",
                closing,
                member.dops,
                lo,
                hi,
            )
        dops = _standard_rotation(member.dops + (closing,))
        if dops not in seen:
            seen.add(dops)
            closed.append(StandardDopr(dops, n))
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
        pool = tuple(sorted(pool, key=lambda c: c.dops))
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
