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
int-bitset kernel.  Two codes' cross correlation exceeds k exactly when
they share a (k+1)-point pattern of one-bits, that is, when a row of one
table shares k entries with a row of the other: each k-entry subset of a
row is the pattern anchored at the row's one-bit.  `_clashes` takes one
group of hashable keys per code or candidate set, numbers the keys and
keeps, per key, the bitset of the groups owning it: a group's clashing
groups are the union of its keys' owners, a few ints.

One anchoring per pattern is enough when every group shares one length
n.  Anchor a pattern at one of its points a: the gap after a is the
subset's first entry s_1, the gap before it n - s_k.  Keep the anchoring
when s_1 + s_k <= n, the gap after no larger than the gap before.  Some
point of every pattern passes: were each gap larger than the one before
it, the gaps would increase all the way round the cycle.  And the rule
reads only the gaps, so two codes that share a pattern keep the same
anchorings of it: they share a kept key exactly when they share any
key.  At k = 1 the rule keeps min(d, n - d) for each pair of one-bits,
its folded distance, which `build_graph` keys as a plain int.  Groups
that mix lengths keep every subset.

`build_graph` keys each code straight from its differences and builds no
table; it joins the codes that do not clash at the design threshold.
`clique_set_matrix` keys the rows of each candidate set's members and
joins the sets that do not clash one entry above the stricter of their
ceilings, and `select_family` reads the family level off the largest k
at which two kept sets still clash.  A graph's adjacency is one int mask
per node and nothing else: the walk scores a node with ``int.bit_count``,
and the neighbor sets are only read off the masks on request.  A set
member builds its table once and keeps it (`Dopr.table`); the key
numbering lives for one call.

The public correlation functions (`crosscorr_edop`,
`interset_crosscorr`), set assembly (`make_clique_set`),
`verify_maximality` and document verification keep their independent
routes, the table-entry index of `correlation` and shift counting,
which the tests hold the kernel to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, repeat
from operator import or_

from .codes import CodeParams, Dopr, PartialDopr
from .correlation import (
    crosscorr_edop,
    johnson_bound,
    set_lambda_a,
    set_lambda_c,
)
from .edop import _anchored_rows, _check_integers, _folded_distances

# Unused here, but perfbench/tracing.py counts calls by swapping these
# three names on this module, so they must stay importable from it.
from .correlation import interset_crosscorr  # noqa: F401
from .edop import edop_full, edop_partial  # noqa: F401

__all__ = [
    "CodeGraph",
    "CliqueSet",
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


def _clashes(key_groups) -> list[int]:
    """Per group of keys, the bitset of groups sharing a key.

    A group's own bit is always included.  Each key, numbered as first
    seen, keeps the bitset of the groups that own it, so a group's
    clashes are the union of its keys' owners.
    """
    bits: dict = {}
    owned = [{bits.setdefault(key, len(bits)) for key in keys} for keys in key_groups]
    owners = [0] * len(bits)
    for i, numbered in enumerate(owned):
        for b in numbered:
            owners[b] |= 1 << i
    return [
        reduce(or_, map(owners.__getitem__, numbered), 1 << i)
        for i, numbered in enumerate(owned)
    ]


def _clash_complement(nodes: tuple, clashes) -> CodeGraph:
    """Graph joining each node to every node it does not clash with.

    Each clash bitset holds its own node's bit and clashes are mutual, so
    the masks are loop-free and symmetric, and the graph skips
    `CodeGraph.__post_init__`.
    """
    everyone = (1 << len(nodes)) - 1
    graph = object.__new__(CodeGraph)
    vars(graph).update(nodes=nodes, masks=tuple(everyone & ~m for m in clashes))
    return graph


def _common_length(codes) -> int | None:
    """The length every code shares, or None when lengths mix."""
    lengths = {c.n for c in codes}
    return lengths.pop() if len(lengths) == 1 else None


def _subset_keys(rows, k: int, n: int | None):
    """The keys of the k-entry subsets of table ``rows``.

    With a common length ``n``, only a subset whose first and last entries
    sum to at most n is kept, its pattern's canonical anchorings (see the
    module docstring); with ``n`` None every subset is kept.
    """
    subsets = chain.from_iterable(map(combinations, rows, repeat(k)))
    return subsets if n is None else [s for s in subsets if s[0] + s[-1] <= n]


def _code_keys(code, k: int, n: int | None):
    """The keys of a complete code, or of a partial code's closed companion."""
    dops = code.dops
    if isinstance(code, PartialDopr):
        dops += (code.n - sum(dops),)
    elif len(dops) < 2:
        raise ValueError("difference tables need weight >= 2")
    if k == 1 and n is not None:
        return _folded_distances(dops, n)
    return _subset_keys(_anchored_rows(dops), k, n)


def build_graph(codes, threshold: int) -> CodeGraph:
    """Join two codes when their cross correlation is at most ``threshold``.

    That is, the two codes share no (``threshold`` + 1)-point pattern of
    one-bits: no row of one table shares ``threshold`` entries with a row
    of the other.  A partial code stands for its closed companion.  Each
    code is keyed straight from its differences and builds no table: when
    all codes share one length, by its folded distances at threshold 1
    and otherwise by the canonical anchorings of its patterns (see the
    module docstring); when lengths mix, by every ``threshold``-entry
    subset of its rows.  ``threshold`` must be a positive integer, and
    every code must have weight at least 2.
    """
    nodes = tuple(codes)
    _check_integers("threshold", threshold)
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    n = _common_length(nodes)
    clashes = _clashes([_code_keys(c, threshold, n) for c in nodes])
    return _clash_complement(nodes, clashes)


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

    The designer's guard: `design_fixed` leaves its candidate sets
    unverified and assembles only the sets its family keeps through this
    function, so every emitted set passes here.  Anything but a complete
    code (`Dopr`) is refused with a `TypeError`.  Codes are sorted
    canonically.  Self correlations and pairwise cross correlations are
    recomputed by the table route and checked against the parameters; a
    singleton records a pairwise value of 0 since it has no pairs.  The
    cardinality bound is recorded, and enforced when the two correlation
    ceilings coincide (the regime the bound is stated for).
    """
    codes = tuple(codes)
    if not codes:
        raise ValueError("a clique set needs at least one code")
    for c in codes:
        if not isinstance(c, Dopr):
            raise TypeError(f"expected a complete code (Dopr), got {c!r}")
        if c.n != params.n or c.weight != params.w:
            raise ValueError(f"code {c.dops} does not match {params}")
    ordered = tuple(sorted(codes, key=lambda c: c.dops))
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


def _check_max_sets(max_sets) -> None:
    """Refuse a ``max_sets`` that is given but not a positive integer."""
    if max_sets is not None:
        _check_integers("max_sets", max_sets)
        if max_sets < 1:
            raise ValueError("max_sets must be positive when given")


def _set_rows(clique: CliqueSet) -> list[tuple[int, ...]]:
    return [row for c in clique.codes for row in c.table.rows]


def clique_set_matrix(cliques) -> CodeGraph:
    """Separation graph of candidate sets, one node per set.

    Two sets are joined when their members' rows share no
    (min(lambda_c of both) + 1)-entry subset.  Each set's own
    ``params.lambda_c`` is its cross ceiling, so a joined pair's inter-set
    peak is at most the stricter ceiling plus one, the floor forced
    between distinct maximal cliques.  Each distinct ceiling c judges its
    own sets at c + 1 entries; a clash found there with a set of higher
    ceiling is mirrored onto that set, whose own level would miss it.
    """
    items = tuple(cliques)
    size = len(items)
    ceilings = [s.params.lambda_c for s in items]
    rows = [_set_rows(s) for s in items]
    n = _common_length(c for s in items for c in s.codes)
    clash = [0] * size
    for c in set(ceilings):
        level = _clashes([_subset_keys(r, c + 1, n) for r in rows])
        higher = sum(1 << j for j, cj in enumerate(ceilings) if cj > c)
        for i in compress(range(size), map(c.__eq__, ceilings)):
            clash[i] |= level[i]
            if level[i] & higher:
                for j in _members(level[i] & higher, size):
                    clash[j] |= 1 << i
    return _clash_complement(items, clash)


@dataclass(frozen=True)
class Family:
    """The emitted collection of code sets, canonically ordered."""

    sets: tuple[CliqueSet, ...]
    interset_lambda: int


def select_family(cliques, max_sets: int | None = None) -> Family:
    """Keep a greedy clique of candidate sets under the separation rule.

    The degree-greedy walk over the separation graph (see
    `clique_set_matrix`) picks the family.  The chosen sets are sorted
    canonically and the first ``max_sets`` kept.  The family level is one
    more than the largest k at which two kept sets still share a k-entry
    subset of their members' rows, their largest inter-set peak; fewer
    than two kept sets record 0.  A set is read only through its
    ``codes``, in canonical order, and its ``params``, so the designer
    passes unverified candidates and guards the kept ones afterwards.
    """
    _check_max_sets(max_sets)
    graph = clique_set_matrix(cliques)
    items = graph.nodes
    chosen = sorted(
        greedy_clique(graph), key=lambda i: (_clique_key(items[i]), i)
    )[:max_sets]
    kept = tuple(items[i] for i in chosen)
    if len(kept) < 2:
        return Family(kept, 0)
    rows = [_set_rows(s) for s in kept]
    n = _common_length(c for s in kept for c in s.codes)
    shared = 0
    # A group's own bit is always set, so m & (m - 1) marks a clash with
    # another kept set.
    while any(
        m & (m - 1) for m in _clashes([_subset_keys(r, shared + 1, n) for r in rows])
    ):
        shared += 1
    return Family(kept, 1 + shared)
