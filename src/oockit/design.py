"""Greedy construction of code families.

Codes are built one difference at a time.  Opening pairs that respect the
positional ranges and the self-correlation ceiling seed a pool; each stage
links compatible partial codes into a graph, harvests greedy cliques, and
grows every clique member by one more difference, the step that also
made the opening pairs from single differences.  Once a single free
position remains, the closing difference is forced by the length: each
member is completed, put in canonical rotation and kept once per rotation
class, the last graph is built on those complete codes, and its cliques
compete for membership in the emitted family.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .cliques import (
    CliqueSet,
    Family,
    build_graph,
    enumerate_cliques,
    make_clique_set,
    select_family,
)
from .codes import (
    CodeParams,
    Dopr,
    PartialDopr,
    StandardDopr,
    last_difference_range,
    max_difference_at,
    standardize,
)
from .correlation import autocorr_edop

# Unused here, but perfbench/tracing.py counts calls by swapping these
# four names on this module, so they must stay importable from it.
from .cliques import greedy_clique  # noqa: F401
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
        if self.max_sets is not None and self.max_sets < 1:
            raise ValueError("max_sets must be positive when given")


def enumerate_first_pairs(params: CodeParams) -> tuple[PartialDopr, ...]:
    """Opening difference pairs that can begin a conforming code.

    The extension step applied to every first difference in its range:
    the two differences are distinct whatever the ceiling, each stays
    inside its positional range, and the pair on its own already meets
    the self-correlation ceiling.  Pairs come in lexicographic order.
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
    within the ceiling.  A difference equal to its predecessor is skipped
    unscored when the ceiling is 1, where it can never survive, and when
    it would be the second difference: one-difference codes extend as in
    `enumerate_first_pairs`, into pairs of distinct differences.
    """
    return _extend(codes, params)


# Both public functions call this rather than each other, so that a traced
# run files the opening pairs and the extensions under separate spans.
def _extend(codes, params: CodeParams) -> tuple[PartialDopr, ...]:
    n, w = params.n, params.w
    out: list[PartialDopr] = []
    seen: set[tuple[int, ...]] = set()
    for code in codes:
        u = code.u
        if u + 1 >= w:
            raise ValueError("cannot extend past the last free position")
        total = sum(code.dops)
        cap = min(max_difference_at(n, w, u + 1), n - (w - u - 1) - total)
        for e in range(1, cap + 1):
            if e == code.dops[-1] and (u == 1 or params.lambda_a == 1):
                continue
            cand = PartialDopr(code.dops + (e,), n, w)
            if autocorr_edop(cand).lambda_ax > params.lambda_a:
                continue
            if cand.dops not in seen:
                seen.add(cand.dops)
                out.append(cand)
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

    Each member is closed with the difference the length forces and put in
    canonical rotation; the first code of each class in pool order is kept.
    The members already meet the self-correlation ceiling, because a
    partial code's table at u = w-1 is the complete code's table.

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
        code = standardize(Dopr(member.dops + (closing,), n))
        if code.dops not in seen:
            seen.add(code.dops)
            closed.append(code)
    return tuple(closed)


def design_fixed(params: CodeParams, max_sets: int | None = None) -> Family:
    """Design a family of code sets for a single parameter tuple.

    An empty family means the search found no conforming set for these
    parameters, not an error.  ``max_sets`` caps both the cliques carried
    forward at each stage and the sets finally emitted.
    """
    if max_sets is not None and max_sets < 1:
        raise ValueError("max_sets must be positive when given")
    if params.w < 3:
        raise ValueError("the designer needs weight at least 3")
    first = enumerate_first_pairs(params)

    candidates: list[CliqueSet] = []
    emitted: set[tuple] = set()
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
            done = make_clique_set(members, params)
            key = (done.params, tuple(c.dops for c in done.codes))
            if key not in emitted:
                emitted.add(key)
                candidates.append(done)
    return select_family(candidates, max_sets)


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
