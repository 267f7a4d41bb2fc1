"""Compatibility graphs and greedy clique search.

Candidate codes become nodes; two nodes are joined when their cross
correlation stays within the design threshold, so a set of mutually
compatible codes is exactly a clique.  The search is the degree-greedy
walk: select a highest-degree node (ties to the lowest index), restrict
the graph to its neighborhood, repeat.  The walk always lands on a maximal
clique; enumerating one walk per highest-degree start node yields the
candidate sets, and a guarded exact search exists to keep the greedy
answers honest in tests.

Two facts make the walk cheap on dense graphs without changing what it
selects.  A node joined to every other working node stays so while the
working set shrinks, so the walk takes all such nodes in one step, in
ascending order, as single steps would.  And a step depends only on the
working set, so within one `enumerate_cliques` call a map from working
set to the rest of its walk lets walks from different starts that reach
the same set share its tail; the map lives only for that call.

The designer's graph build, clique walk and family selection share one
int-bitset kernel.  Two rows of difference tables share k or more entries
exactly when they have a k-entry subset in common.  So each call numbers
the k-entry subsets of the table rows it meets (`_subsets`), and a code
or a set of codes becomes an int with one bit per subset it owns: two of
them share k entries in some pair of rows exactly when their level-k
masks intersect, and level 1 is the plain entry set.  `build_graph`
keeps, per subset, the bitset of the codes owning it, so a code's
non-neighbors are the union of a few ints; `clique_set_matrix` finds each
inter-set peak by intersecting levels 1, 2, ... until one comes up
empty.  A graph's adjacency is one int mask per node and nothing else:
the walk scores a node with ``int.bit_count``, and the neighbor sets are
only read off the masks on request.  Each code builds its own table once
and keeps it (`Dopr.table`); the subset numbering lives for one call.

The public correlation functions (`crosscorr_edop`,
`interset_crosscorr`), set assembly (`make_clique_set`),
`verify_maximality` and document verification keep their independent
frozenset and brute-force routes, which the tests hold the kernel to.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress
from operator import or_

from .codes import CodeParams, Dopr
from .correlation import (
    crosscorr_edop,
    johnson_bound,
    set_lambda_a,
    set_lambda_c,
)

# Unused here, but perfbench/tracing.py counts calls by swapping these
# three names on this module, so they must stay importable from it.
from .correlation import interset_crosscorr  # noqa: F401
from .edop import edop_full, edop_partial  # noqa: F401

__all__ = [
    "CodeGraph",
    "CliqueSet",
    "CliqueSetMatrix",
    "Family",
    "build_graph",
    "greedy_clique",
    "enumerate_cliques",
    "verify_maximality",
    "max_clique_exact",
    "make_clique_set",
    "clique_set_matrix",
    "select_family",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CodeGraph:
    """Symmetric compatibility graph over a fixed node order.

    Bit u of ``masks[v]`` marks the edge v-u.
    """

    nodes: tuple
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.nodes)
        if len(self.masks) != size:
            raise ValueError(f"{len(self.masks)} masks for {size} nodes")
        if any(m < 0 for m in self.masks):
            raise ValueError("masks must be non-negative")
        if any(m >> size for m in self.masks):
            raise ValueError(f"mask bits must lie below the {size} nodes")
        # Bit-0-first rows of the adjacency matrix: column v is every
        # size-th digit from v, so each check is one comparison in C.
        rows = [format(m, f"0{size}b")[::-1] for m in self.masks]
        matrix = "".join(rows)
        for v, row in enumerate(rows):
            if row[v] != "0":
                raise ValueError("self loops are not allowed")
            if matrix[v::size] != row:
                raise ValueError("adjacency must be symmetric")

    @property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets read off the masks; the designer never builds them."""
        size = len(self.nodes)
        return tuple(frozenset(_members(m, size)) for m in self.masks)


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int, size: int):
    """Ascending indices of the set bits of ``mask``, all below ``size``.

    Read off a digit string, so that the scan runs in C rather than as a
    Python step per bit.
    """
    digits = format(mask, f"0{size}b")[::-1].encode().translate(_DIGITS)
    return compress(range(size), digits)


def _subsets(rows, k: int, bits: dict) -> set[int]:
    """Numbers of the k-entry subsets of any of the difference-table ``rows``.

    Two rows share k or more entries exactly when they have a k-entry
    subset in common.  ``bits`` numbers the subsets as they are first
    seen, so numbers compare only when drawn from the same ``bits``.
    """
    return {
        bits.setdefault(subset, len(bits))
        for row in rows
        for subset in combinations(row, k)
    }


def build_graph(codes, threshold: int) -> CodeGraph:
    """Join two codes when their cross correlation is at most ``threshold``.

    That is, no row of one table shares ``threshold`` entries with a row
    of the other: the two codes own no ``threshold``-entry subset in
    common.  Each subset keeps the bitset of the codes that own it, so a
    code's non-neighbors are the union of its subsets' owners.
    """
    nodes = tuple(codes)
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    size = len(nodes)
    bits: dict = {}
    owned = [_subsets(c.table.rows, threshold, bits) for c in nodes]
    owners = [0] * len(bits)
    for i, subsets in enumerate(owned):
        for b in subsets:
            owners[b] |= 1 << i
    everyone = (1 << size) - 1
    masks = []
    for i, subsets in enumerate(owned):
        clash = reduce(or_, map(owners.__getitem__, subsets), 1 << i)
        masks.append(everyone & ~clash)
    return CodeGraph(nodes, tuple(masks))


def _walk(masks, size: int, active: int, tails: dict) -> tuple[int, ...]:
    """Greedy selections from the working node set ``active`` to the end.

    Nodes scoring len(active) - 1 are taken in one step, in ascending
    order (see the module docstring for why single steps agree).
    ``tails`` maps each active set met to the rest of its walk, and a walk
    that meets a stored set ends with its tail.
    """
    chosen: list[int] = []
    met: list[tuple[int, int]] = []
    while active:
        tail = tails.get(active)
        if tail is not None:
            chosen.extend(tail)
            break
        met.append((active, len(chosen)))
        members = list(_members(active, size))
        scores = list(
            map(int.bit_count, map(active.__and__, map(masks.__getitem__, members)))
        )
        top = max(scores)
        if top == len(members) - 1:
            batch = list(compress(members, map(top.__eq__, scores)))
            chosen.extend(batch)
            active &= ~sum(1 << v for v in batch)
        else:
            # ``members`` ascends and index finds the first top score.
            pick = members[scores.index(top)]
            chosen.append(pick)
            active &= masks[pick]
    walk = tuple(chosen)
    for key, offset in met:
        tails[key] = walk[offset:]
    return walk


def greedy_clique(graph: CodeGraph) -> tuple[int, ...]:
    """Degree-greedy maximal clique, as node indices in selection order.

    Repeatedly selects a highest-degree node of the working graph (ties to
    the lowest index) and restricts to its neighborhood; a selection of
    degree zero ends the walk.  Nodes joined to every other working node
    are selected together, in ascending order, which is the order the
    one-node steps would give.
    """
    size = len(graph.nodes)
    return _walk(graph.masks, size, (1 << size) - 1, {})


def enumerate_cliques(graph: CodeGraph) -> tuple[tuple[int, ...], ...]:
    """One greedy run per highest-degree start node, de-duplicated.

    Order follows the ascending start index, so the result is a
    deterministic function of the graph.  The runs of one call share a
    map from each working node set to the rest of its walk, so walks that
    reach the same set are finished once.
    """
    masks, size = graph.masks, len(graph.nodes)
    degrees = [m.bit_count() for m in masks]
    top = max(degrees, default=0)
    tails: dict[int, tuple[int, ...]] = {}
    found: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for v, d in enumerate(degrees):
        if d != top:
            continue
        clique = (v, *_walk(masks, size, masks[v], tails))
        key = frozenset(clique)
        if key not in seen:
            seen.add(key)
            found.append(clique)
    return tuple(found)


def verify_maximality(members, candidates, threshold: int) -> bool:
    """Whether no outside candidate is compatible with every member.

    Membership is judged by the (dops, n) pair, so candidate pools of
    canonical codes compare cleanly against canonical members.
    """
    member_list = list(getattr(members, "codes", members))
    if not member_list:
        raise ValueError("maximality needs a non-empty set")
    keys = {(c.dops, c.n) for c in member_list}
    for cand in candidates:
        if (cand.dops, cand.n) in keys:
            continue
        if all(crosscorr_edop(cand, m).lambda_cxy <= threshold for m in member_list):
            return False
    return True


def max_clique_exact(graph: CodeGraph, size_cap: int) -> tuple[int, ...]:
    """Exact maximum clique up to ``size_cap``, for small instances only.

    Depth-first extension over index-ascending candidates; equivalent to
    enumerating all subsets up to the cap, with pruning.  Guarded to pools
    of at most 24 nodes unless the cap is at most 6.
    """
    size = len(graph.nodes)
    if size_cap < 1:
        raise ValueError("size cap must be at least 1")
    if size > 24 and size_cap > 6:
        raise ValueError(
            "exact search is guarded to pools of <= 24 nodes or caps of <= 6"
        )
    masks = graph.masks
    best: tuple[int, ...] = ()

    def grow(base: list[int], cand: list[int]) -> None:
        nonlocal best
        if len(base) > len(best):
            best = tuple(base)
        if len(base) == size_cap:
            return
        for idx, v in enumerate(cand):
            if len(base) + len(cand) - idx <= len(best):
                return
            grow(base + [v], [u for u in cand[idx + 1 :] if masks[v] >> u & 1])

    grow([], list(range(size)))
    return best


@dataclass(frozen=True)
class CliqueSet:
    """A verified set of mutually compatible complete codes."""

    codes: tuple[Dopr, ...]
    params: CodeParams
    bound: int
    verified_lambda_a: int
    verified_lambda_c: int


def make_clique_set(codes, params: CodeParams) -> CliqueSet:
    """Assemble and re-verify a clique of complete codes.

    Codes are sorted canonically.  Self correlations and pairwise cross
    correlations are recomputed and checked against the parameters; a
    singleton records a pairwise value of 0 since it has no pairs.  The
    cardinality bound is recorded, and enforced when the two correlation
    ceilings coincide (the regime the bound is stated for).
    """
    ordered = tuple(sorted(codes, key=lambda c: c.dops))
    if not ordered:
        raise ValueError("a clique set needs at least one code")
    for c in ordered:
        if c.n != params.n or c.weight != params.w:
            raise ValueError(f"code {c.dops} does not match {params}")
    lam_a = set_lambda_a(ordered)
    if lam_a > params.lambda_a:
        raise ValueError(
            f"set self correlation {lam_a} exceeds lambda_a={params.lambda_a}"
        )
    lam_c = set_lambda_c(ordered) if len(ordered) > 1 else 0
    if lam_c > params.lambda_c:
        raise ValueError(
            f"set cross correlation {lam_c} exceeds lambda_c={params.lambda_c}"
        )
    bound = johnson_bound(params.n, params.w, max(params.lambda_a, params.lambda_c))
    if params.lambda_a == params.lambda_c and len(ordered) > bound:
        raise RuntimeError(
            f"{len(ordered)} codes exceed the cardinality bound {bound}; "
            "this would contradict the bound and indicates a defect"
        )
    return CliqueSet(ordered, params, bound, lam_a, lam_c)


def _clique_key(clique: CliqueSet):
    return (
        clique.params.n,
        clique.params.w,
        tuple(c.dops for c in clique.codes),
    )


@dataclass(frozen=True)
class CliqueSetMatrix:
    """Pairwise inter-set correlations of candidate cliques.

    ``raw`` holds the inter-set peaks (the diagonal is the code weight,
    every set against itself); ``normalized`` marks acceptably separated
    pairs with 1 and zeroes the diagonal.  A pair is separated when its
    peak is at most the stricter of the two sets' cross ceilings plus one.
    """

    cliques: tuple[CliqueSet, ...]
    raw: tuple[tuple[int, ...], ...]
    normalized: tuple[tuple[int, ...], ...]


def clique_set_matrix(cliques) -> CliqueSetMatrix:
    """Inter-set peaks of every pair, judged against per-pair limits.

    Each set's own ``params.lambda_c`` is its cross ceiling; a pair may
    rise to min(lambda_c of both) + 1, the floor forced between distinct
    maximal cliques.
    """
    items = tuple(cliques)
    size = len(items)
    ceilings = [c.params.lambda_c for c in items]
    bits: dict = {}
    # levels[i][k - 1]: the k-entry subsets owned by set i's member rows.
    levels = []
    for s in items:
        rows = [row for c in s.codes for row in c.table.rows]
        levels.append([
            sum(1 << b for b in _subsets(rows, k, bits))
            for k in range(1, max(map(len, rows)) + 1)
        ])
    raw = [[0] * size for _ in range(size)]
    normalized = [[0] * size for _ in range(size)]
    for i, xs in enumerate(levels):
        # One more than the most entries any two member rows share; from
        # j = i, as a set against itself peaks at w in `interset_crosscorr`.
        for j in range(i, size):
            shared = 0
            for x, y in zip(xs, levels[j]):
                if not x & y:
                    break
                shared += 1
            raw[i][j] = raw[j][i] = 1 + shared
            if j > i and raw[i][j] <= min(ceilings[i], ceilings[j]) + 1:
                normalized[i][j] = normalized[j][i] = 1
    return CliqueSetMatrix(
        items, tuple(tuple(r) for r in raw), tuple(tuple(r) for r in normalized)
    )


@dataclass(frozen=True)
class Family:
    """The emitted collection of code sets, canonically ordered."""

    sets: tuple[CliqueSet, ...]
    interset_lambda: int


def select_family(cliques, max_sets: int | None = None) -> Family:
    """Keep a greedy clique of candidate sets under the separation rule.

    Two sets are joined when their inter-set peak is at most the stricter
    of their two cross ceilings plus one (see `clique_set_matrix`); the
    degree-greedy walk over that graph picks the family.  The chosen sets
    are sorted canonically and the first ``max_sets`` kept.  The family
    level is the largest peak among the kept sets; fewer than two record 0.
    """
    items = tuple(cliques)
    matrix = clique_set_matrix(items)
    masks = tuple(
        int("".join(map(str, reversed(row))), 2) for row in matrix.normalized
    )
    graph = CodeGraph(items, masks)
    chosen = sorted(
        greedy_clique(graph), key=lambda i: (_clique_key(items[i]), i)
    )[:max_sets]
    peak = max((matrix.raw[i][j] for i, j in combinations(chosen, 2)), default=0)
    return Family(tuple(items[i] for i in chosen), peak)
