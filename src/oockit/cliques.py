"""Compatibility graphs and greedy clique search.

Candidate codes become nodes; two nodes are joined when their cross
correlation stays within the design threshold, so a set of mutually
compatible codes is exactly a clique.  The search is the degree-greedy
walk: select a highest-degree node (ties to the lowest index), restrict
the graph to its neighborhood, repeat.  The walk always lands on a maximal
clique; enumerating one walk per highest-degree start node yields the
candidate sets.

Three facts make the walk cheap on dense graphs without changing what
it selects.  A node joined to every other working node stays so while
the working set shrinks, so the walk takes all such nodes in one step, in
ascending order, as single steps would.  A step depends only on the
working set, so within one `enumerate_cliques` call a map from working
set to the rest of its walk lets walks from different starts that reach
the same set share its tail; the map lives only for that call.  And two
starts v and v' with one closed neighbourhood C (each joined to the
other and to the same other nodes) end on one clique, so only the first
is walked.  v' is joined to every other node of C, so the walk from v
takes a batch first, v' in it, and likewise the walk from v'.  Either
start with its first batch is exactly the set of nodes of C joined to
all the rest of C, so the two walks then hold the same working set, C
less that set, and reach the same member set.

One rule splits the table work: subset keys decide edges, and
`correlation._row_overlaps` measures levels.  `build_graph` and
`clique_set_matrix` ask one yes-or-no question per pair, at one
threshold k: do the two share a (k+1)-point pattern of one-bits?  Each
code keys its own patterns (`codes._DifferenceForm._pattern_keys`; the
`codes` module docstring states the rule), and `_clashes` ORs each
group's bit (a list of hashable keys per code or candidate set) into a
dict from key to its owners' bitset: a group's clashing groups are the
union of its keys' owners, a few ints.  `build_graph` joins the codes
that do not clash at the design threshold.  `clique_set_matrix` keys
each candidate set as its members' keys in turn and joins the sets that
do not clash one entry above the stricter of their ceilings, at every
ceiling and length, so a set it drops builds no table.  A level has no
one threshold, and keying every k up to it would take C(w - 1, k)
subsets per row, so levels are read off the row bitsets of
`_row_overlaps`, at most (w - 1)^2 int operations per table row: the
guard's (`make_clique_set`) and verify's each off one index, the
family's (`select_family`) through `correlation.interset_crosscorr`.

A graph's adjacency is one int mask per node; the neighbor sets are only
read off the masks on request.  A walk step scores every working node in
one list comprehension of ``(masks[v] & active).bit_count()``, since the
same calls chained through ``map`` over bound methods take twice as long
(CPython 3.11).  A set member builds its table once and keeps it
(`Dopr.table`); the owner bitsets live for one call.

`interset_crosscorr` is the one reader of cross levels between groups
of codes: it serves `verify_maximality` too, and the tests hold the
keys to it and to shift counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .codes import CodeParams, Dopr
from .correlation import _row_overlaps, interset_crosscorr, set_size_bound
from .edop import _check_integers, _settled

# Unused here, but perfbench/tracing.py counts calls by swapping these
# two names on this module, so they must stay importable from it.
from .edop import edop_full, edop_partial  # noqa: F401

__all__ = [
    "CodeGraph",
    "CliqueSet",
    "Family",
    "build_graph",
    "greedy_clique",
    "enumerate_cliques",
    "verify_maximality",
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

    A group's own bit is always included.  One pass ORs each group's bit
    into its keys' owner bitsets, so each group is read twice and must be
    a sequence, not a one-shot iterator.
    """
    owners: dict = {}
    get = owners.get
    for i, keys in enumerate(key_groups):
        bit = 1 << i
        for key in keys:
            owners[key] = get(key, 0) | bit
    clashes = []
    for i, keys in enumerate(key_groups):
        clash = 1 << i
        for key in keys:
            clash |= owners[key]
        clashes.append(clash)
    return clashes


def _clash_complement(nodes: tuple, clashes) -> CodeGraph:
    """Graph joining each node to every node it does not clash with.

    Each clash bitset holds its own node's bit and clashes are mutual, so
    the masks are loop-free and symmetric: the graph is `_settled`.
    """
    everyone = (1 << len(nodes)) - 1
    masks = tuple([everyone & ~m for m in clashes])
    return _settled(CodeGraph, nodes=nodes, masks=masks)


def _one_length(codes) -> bool:
    """Whether every code shares one length."""
    return len({c.n for c in codes}) == 1


def _check_positive(what: str, value) -> None:
    """Refuse a ``value`` that is not an integer of at least 1."""
    _check_integers(what, value)
    if value < 1:
        raise ValueError(f"{what} must be at least 1")


def build_graph(codes, threshold: int) -> CodeGraph:
    """Join two codes when their cross correlation is at most ``threshold``.

    That is, the two codes share no (``threshold`` + 1)-point pattern of
    one-bits: no row of one table shares ``threshold`` entries with a row
    of the other.  Every code is read through its closed tuple, so a
    partial code stands for its closed companion.  Each code is keyed by
    its `_pattern_keys` at ``threshold`` and builds no table.
    ``threshold`` must be a positive integer, and every code must have
    weight at least 2.

    One rule admits the designer's pools too: nodes that are plain
    tuples are designer rows ``(dops, keys)`` of one length, and each is
    keyed by its ``keys`` as given, the keys its pool was made for at
    ``threshold`` (see `design.extend_clique_codes`).  The designer
    builds its graphs through this function, rather than keying rows
    itself, because the benchmark's tracer times and counts the graphs by
    this name.
    """
    nodes = tuple(codes)
    _check_positive("threshold", threshold)
    if nodes and type(nodes[0]) is tuple:
        keys = [row[1] for row in nodes]
    else:
        one = _one_length(nodes)
        keys = [c._pattern_keys(threshold, one) for c in nodes]
    return _clash_complement(nodes, _clashes(keys))


def _walk(masks, size: int, active: int, tails: dict) -> tuple[int, ...]:
    """Greedy selections from the working node set ``active`` to the end.

    A step scores its nodes in one list comprehension, the fastest form,
    and takes the nodes scoring len(active) - 1 together, in ascending
    order; the module docstring says why on both counts.
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
        scores = [(masks[v] & active).bit_count() for v in members]
        top = max(scores)
        if top == len(members) - 1:
            batch = [v for v, score in zip(members, scores) if score == top]
            chosen.extend(batch)
            active &= ~sum([1 << v for v in batch])
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
    deterministic function of the graph.  A start whose closed
    neighbourhood equals an earlier start's is not walked, since its walk
    ends on the same member set (see the module docstring).  The runs of
    one call share a map from each working node set to the rest of its
    walk, so walks that reach the same set are finished once.
    """
    masks, size = graph.masks, len(graph.nodes)
    degrees = [m.bit_count() for m in masks]
    top = max(degrees, default=0)
    tails: dict[int, tuple[int, ...]] = {}
    found: dict[frozenset[int], tuple[int, ...]] = {}  # first walk per member set
    closed: set[int] = set()
    for v, d in enumerate(degrees):
        # A closed twin of an earlier start ends on that start's clique.
        neighbourhood = masks[v] | 1 << v
        if d != top or neighbourhood in closed:
            continue
        closed.add(neighbourhood)
        clique = (v, *_walk(masks, size, masks[v], tails))
        found.setdefault(frozenset(clique), clique)
    return tuple(found.values())


def verify_maximality(members, candidates, threshold: int) -> bool:
    """Whether no outside candidate is compatible with every member.

    One `interset_crosscorr` call per candidate reads it against the
    members.  Membership is judged by the (dops, n) pair, so candidate
    pools of canonical codes compare cleanly against canonical members.
    ``threshold`` must be an integer of at least 1, as for `build_graph`.
    """
    _check_positive("threshold", threshold)
    member_list = list(getattr(members, "codes", members))
    if not member_list:
        raise ValueError("maximality needs a non-empty set")
    keys = {(c.dops, c.n) for c in member_list}
    for cand in candidates:
        if (cand.dops, cand.n) in keys:
            continue
        if interset_crosscorr([cand], member_list) <= threshold:
            return False
    return True


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

    The designer's guard: `design_multi` leaves its candidate sets
    unverified and assembles only the sets its family keeps through this
    function, once each, so every emitted set passes here.  Anything but
    a complete code (`Dopr`) is refused with a `TypeError`.  Codes are
    sorted canonically.  Self correlations and pairwise cross correlations are
    recomputed by the table route and checked against the parameters; a
    singleton records a pairwise value of 0 since it has no pairs.  The
    cardinality bound is recorded and, where it is enforced, checked, both
    as `set_size_bound` states them.
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
    # One index of every member's rows settles both levels.
    overlaps = _row_overlaps([c.table for c in ordered])
    members = range(len(ordered))
    lam_a = 1 + max(overlaps[i, i] for i in members)
    if lam_a > params.lambda_a:
        raise ValueError(
            f"set self correlation {lam_a} exceeds lambda_a={params.lambda_a}"
        )
    lam_c = 1 + overlaps.peak(members, members) if len(ordered) > 1 else 0
    if lam_c > params.lambda_c:
        raise ValueError(
            f"set cross correlation {lam_c} exceeds lambda_c={params.lambda_c}"
        )
    bound, enforced = set_size_bound(params)
    if enforced and len(ordered) > bound:
        raise RuntimeError(
            f"{len(ordered)} codes exceed the cardinality bound {bound}; "
            "this would contradict the bound and indicates a defect"
        )
    return CliqueSet(ordered, params, bound, lam_a, lam_c)


def _check_max_sets(max_sets) -> None:
    """Refuse a ``max_sets`` that is given but not a positive integer."""
    if max_sets is not None:
        _check_positive("max_sets", max_sets)


def clique_set_matrix(cliques) -> CodeGraph:
    """Separation graph of candidate sets, one node per set.

    Two sets are joined when their members' rows share no
    (min(lambda_c of both) + 1)-entry subset.  A set's keys are its
    members' `_pattern_keys`, the keys `build_graph` reads, so no
    candidate set builds a table.  Each set's own ``params.lambda_c`` is
    its cross ceiling, so a joined pair's inter-set peak is at most the
    stricter ceiling plus one, the floor forced between distinct maximal
    cliques.  Each distinct ceiling c judges its own sets at c + 1
    entries: they take every clash found there, and every other set takes
    its clashes with them.  A set of higher ceiling needs those, since its
    own level would miss them; for a set of lower ceiling they repeat
    clashes its own level already found, as sharing c + 1 entries implies
    sharing fewer.
    """
    items = tuple(cliques)
    ceilings = [s.params.lambda_c for s in items]
    one = _one_length(c for s in items for c in s.codes)
    clash = [0] * len(items)
    for c in set(ceilings):
        level = _clashes(
            [
                [key for m in s.codes for key in m._pattern_keys(c + 1, one)]
                for s in items
            ]
        )
        judged = sum(1 << i for i, ci in enumerate(ceilings) if ci == c)
        for i, ci in enumerate(ceilings):
            clash[i] |= level[i] if ci == c else level[i] & judged
    return _clash_complement(items, clash)


@dataclass(frozen=True)
class Family:
    """The emitted collection of code sets, canonically ordered."""

    sets: tuple[CliqueSet, ...]
    interset_lambda: int


def _separated(cliques, max_sets: int | None) -> tuple:
    """The sets `select_family` keeps, without their family level.

    The degree-greedy walk over the separation graph (see
    `clique_set_matrix`) picks them, sorted canonically and the first
    ``max_sets`` kept.
    """
    graph = clique_set_matrix(cliques)
    items = graph.nodes
    chosen = sorted(
        greedy_clique(graph),
        key=lambda i: (
            items[i].params.n, items[i].params.w, [c.dops for c in items[i].codes], i
        ),
    )[:max_sets]
    return tuple(items[i] for i in chosen)


def select_family(cliques, max_sets: int | None = None) -> Family:
    """Keep a greedy clique of candidate sets (`_separated`) and its level.

    The family level is `interset_crosscorr` of the kept sets, the read
    `verify_document` makes for family separation; fewer than two kept
    sets record 0.  A set is read only through its ``codes``, in canonical
    order, and its ``params``, so candidates may be unverified.
    """
    _check_max_sets(max_sets)
    kept = _separated(cliques, max_sets)
    return Family(kept, interset_crosscorr(*kept) if len(kept) > 1 else 0)
