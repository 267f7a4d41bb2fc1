"""The designer's int-bitset kernels against the independent routes.

`build_graph` and `clique_set_matrix` decide edges through one owner
bitset per key, `select_family` reads the family level through
`interset_crosscorr`, on the row bitsets of `correlation._row_overlaps`,
and `greedy_clique` and `enumerate_cliques` walk adjacency bitsets.
Here random inputs hold the graphs' edges to `crosscorr_edop`,
`interset_crosscorr` and the plain-set oracles, which share no code with
the keys, hold the family level to the oracles' `table_cross`, which
shares no code with the row bitsets or with that reader, and hold
`CodeGraph`'s checks on its masks to the plain definition of a simple
undirected graph.  `_clashes` is held to its definition, and the walks
to the set-based oracles on masks of one digit and of several.  Half
the pools and lists of candidate sets share one length, even or odd,
where the kernel keys only canonical anchorings; the other half mix
lengths, where it keys every subset.  Candidate sets mix weights and
cross ceilings, so each pair is judged at its own stricter ceiling.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oockit import (
    CliqueSet,
    CodeGraph,
    CodeParams,
    Dopr,
    PartialDopr,
    Wpr,
    autocorr_edop,
    build_graph,
    clique_set_matrix,
    crosscorr_edop,
    dopr_from_wpr,
    edop_full,
    edop_partial,
    enumerate_cliques,
    greedy_clique,
    interset_crosscorr,
    select_family,
)
from oockit.cliques import _clashes

from oracles import greedy_walk, greedy_walks, max_cross, table_cross


@st.composite
def complete_codes(draw, n, w):
    rest = draw(st.sets(st.integers(1, n - 1), min_size=w - 1, max_size=w - 1))
    return dopr_from_wpr(Wpr((0, *sorted(rest)), n))


@st.composite
def pool_codes(draw, n=None):
    """A complete code, or a partial one cut from it, of length n or 7..31."""
    if n is None:
        n = draw(st.integers(7, 31))
    w = draw(st.integers(3, min(6, n - 1)))
    code = draw(complete_codes(n, w))
    u = draw(st.integers(1, w))
    return code if u == w else PartialDopr(code.dops[:u], n, w)


@st.composite
def partial_codes(draw):
    """A partial code cut from a complete one, drawn as `pool_codes` draws
    it but with u in 1..w-1."""
    n = draw(st.integers(7, 31))
    w = draw(st.integers(3, min(6, n - 1)))
    code = draw(complete_codes(n, w))
    return PartialDopr(code.dops[: draw(st.integers(1, w - 1))], n, w)


def companion(code):
    """A partial code's closed companion, built here from its fields."""
    return Dopr(code.dops + (code.n - sum(code.dops),), code.n)


@st.composite
def lists_of(draw, items, max_size):
    """Up to ``max_size`` draws of ``items(n)``.

    Half the lists share one length n in 7..31, even or odd; in the other
    half each item draws its own.
    """
    n = draw(st.none() | st.integers(7, 31))
    return draw(st.lists(items(n), max_size=max_size))


def positions(code):
    """One-bit positions of the code, or of a partial code's closed companion."""
    steps = code.dops if isinstance(code, PartialDopr) else code.dops[:-1]
    out = [0]
    for d in steps:
        out.append(out[-1] + d)
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(lists_of(pool_codes, 14), st.integers(1, 3))
def test_build_graph_edges_match_both_reference_routes(pool, threshold):
    graph = build_graph(pool, threshold)
    assert CodeGraph(graph.nodes, graph.masks) == graph
    for i, a in enumerate(pool):
        for j in range(i + 1, len(pool)):
            b = pool[j]
            joined = j in graph.neighbors[i]
            assert joined == (
                crosscorr_edop(edop_full(a), edop_full(b)).lambda_cxy <= threshold
            )
            if a.n == b.n:
                assert joined == (
                    max_cross(positions(a), positions(b), a.n) <= threshold
                )


@st.composite
def key_groups(draw):
    """0..70 groups of up to 8 hashable keys: ints from a drawn range, so
    the groups share keys densely or sparsely, and int pairs.  Groups may
    be empty or repeat a key, and 70 groups give bitsets of three 30-bit
    digits of a CPython int."""
    size = draw(st.integers(0, 70))
    keys = st.integers(0, draw(st.integers(0, 300))) | st.tuples(
        st.integers(0, 3), st.integers(0, 3)
    )
    group = st.lists(keys, max_size=8)
    return draw(st.lists(group, min_size=size, max_size=size))


@settings(max_examples=50, deadline=None)
@given(key_groups())
@example([[1, 1], [], [2, 1, 2], [3], [], [(0, 1)], [(0, 1), 3, 3]])
def test_clashes_match_the_definition(groups):
    """Group i's bitset holds i and every j sharing a key with it."""
    sets = [set(keys) for keys in groups]
    assert _clashes(groups) == [
        sum(1 << j for j, b in enumerate(sets) if i == j or not a.isdisjoint(b))
        for i, a in enumerate(sets)
    ]


@settings(max_examples=60, deadline=None)
@given(partial_codes())
def test_a_partial_code_reads_as_its_closed_companion(code):
    """Its table under every name, its folded distances and its self level."""
    closed = companion(code)
    assert code.table.rows == edop_partial(code).rows == closed.table.rows
    assert sorted(code._folded) == sorted(closed._folded)
    assert autocorr_edop(code).lambda_ax == autocorr_edop(closed).lambda_ax


@settings(max_examples=60, deadline=None)
@given(lists_of(pool_codes, 14))
def test_build_graph_reads_a_partial_code_as_its_closed_companion(pool):
    closed = [companion(c) if isinstance(c, PartialDopr) else c for c in pool]
    for k in (1, 2, 3):
        assert build_graph(pool, k).masks == build_graph(closed, k).masks


@st.composite
def candidate_sets(draw, n=None):
    """A set of 1..4 complete codes of one (n, w) with its own cross ceiling.

    The length is n, or drawn from 7..31.
    """
    if n is None:
        n = draw(st.integers(7, 31))
    w = draw(st.integers(3, min(6, n - 1)))
    lambda_c = draw(st.integers(1, w - 1))
    codes = tuple(draw(st.lists(complete_codes(n, w), min_size=1, max_size=4)))
    return CliqueSet(codes, CodeParams(n, w, 1, lambda_c), 0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(lists_of(candidate_sets, 6))
def test_clique_set_matrix_matches_interset_crosscorr(sets):
    graph = clique_set_matrix(sets)
    assert graph.nodes == tuple(sets)
    assert CodeGraph(graph.nodes, graph.masks) == graph
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            limit = min(a.params.lambda_c, b.params.lambda_c) + 1
            joined = i != j and interset_crosscorr(a, b) <= limit
            assert (j in graph.neighbors[i]) == joined


@settings(max_examples=60, deadline=None)
@given(lists_of(candidate_sets, 6), st.none() | st.integers(1, 6))
def test_family_level_is_the_largest_peak_among_kept_sets(sets, max_sets):
    family = select_family(sets, max_sets)
    assert family.interset_lambda == max(
        (
            table_cross(positions(x), x.n, positions(y), y.n)
            for a, b in combinations(family.sets, 2)
            for x in a.codes
            for y in b.codes
        ),
        default=0,
    )


def code_at(positions, n):
    return dopr_from_wpr(Wpr(positions, n))


def singleton_sets(codes, lambda_c):
    return [
        CliqueSet((c,), CodeParams(c.n, c.weight, c.weight - 1, lambda_c), 0, 0, 0)
        for c in codes
    ]


def test_family_level_of_wide_weights():
    """Two copies of the weight-40 run of ones at n = 1000 share whole rows.

    Reading this level through k-entry keys for each k up to 39 would take
    about 2^39 subsets per row; the row bitsets take at most 39^2 int
    operations per row.
    """
    positions_40 = tuple(range(40))
    code = code_at(positions_40, 1000)
    family = select_family(singleton_sets([code, code], 39))
    assert len(family.sets) == 2
    assert family.interset_lambda == max_cross(positions_40, positions_40, 1000)
    assert family.interset_lambda == 40


def test_a_distance_of_half_the_length_is_a_shared_key():
    """{0,1,6} and {0,2,6} at n = 12 share only the distance 6 = n/2."""
    codes = [code_at((0, 1, 6), 12), code_at((0, 2, 6), 12)]
    assert max_cross(*map(positions, codes), 12) == 2
    assert build_graph(codes, 1).masks == (0, 0)
    assert build_graph(codes, 2).masks == (0b10, 0b01)
    family = select_family(singleton_sets(codes, 1))
    assert len(family.sets) == 2
    assert family.interset_lambda == 2


def test_an_evenly_spaced_pattern_is_a_shared_key():
    """{0,1,4,8} and {0,2,4,8} at n = 12 share only the triple {0,4,8}."""
    codes = [code_at((0, 1, 4, 8), 12), code_at((0, 2, 4, 8), 12)]
    assert max_cross(*map(positions, codes), 12) == 3
    assert build_graph(codes, 2).masks == (0, 0)
    assert build_graph(codes, 3).masks == (0b10, 0b01)
    assert clique_set_matrix(singleton_sets(codes, 1)).masks == (0, 0)
    family = select_family(singleton_sets(codes, 2))
    assert len(family.sets) == 2
    assert family.interset_lambda == 3


@st.composite
def graphs(draw, min_size=0, max_size=14):
    """Symmetric adjacency over ``min_size``..``max_size`` nodes.

    Half the draws list the edges, the other half the few edges missing
    from a complete graph: uniformly drawn edge lists rarely give nodes
    joined to all others or walks from different starts that meet, which
    the walk's batch steps and shared tails serve.
    """
    size = draw(st.integers(min_size, max_size))
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    near_complete = draw(st.booleans())
    drawn = st.lists(
        st.sampled_from(pairs), unique=True, max_size=size if near_complete else None
    )
    edges = set(draw(drawn)) if pairs else set()
    if near_complete:
        edges = set(pairs) - edges
    adjacency = {v: set() for v in range(size)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


@st.composite
def twinned_graphs(draw):
    """A drawn graph with closed and open twins of its nodes planted in it.

    A closed twin is joined to its original and to all of its neighbours,
    an open twin to the neighbours only.  Twins may copy earlier twins,
    so one neighbourhood can be shared by more than two nodes.
    """
    adjacency = draw(graphs())
    for closed in draw(st.lists(st.booleans(), max_size=6 if adjacency else 0)):
        v = draw(st.integers(0, len(adjacency) - 1))
        twin = len(adjacency)
        adjacency[twin] = adjacency[v] | {v} if closed else set(adjacency[v])
        for u in adjacency[twin]:
            adjacency[u].add(twin)
    return adjacency


def masks_of(adjacency):
    return tuple(sum(1 << u for u in adjacency[v]) for v in range(len(adjacency)))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_greedy_clique_matches_the_set_based_walk(adjacency):
    graph = CodeGraph(tuple(range(len(adjacency))), masks_of(adjacency))
    assert greedy_clique(graph) == greedy_walk(adjacency)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_enumerate_cliques_matches_one_set_based_walk_per_top_start(adjacency):
    graph = CodeGraph(tuple(range(len(adjacency))), masks_of(adjacency))
    assert enumerate_cliques(graph) == greedy_walks(adjacency)


@st.composite
def wide_graphs(draw):
    """Symmetric adjacency over 31..64 nodes, so that a mask spans two or
    three 30-bit digits of a CPython int.

    Half the draws are `graphs`' sparse edge lists or near-complete
    graphs; the other half join each pair with a drawn probability, as
    drawn edge lists of this size stay far sparser.
    """
    if draw(st.booleans()):
        return draw(graphs(31, 64))
    size = draw(st.integers(31, 64))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adjacency = {v: set() for v in range(size)}
    for a, b in combinations(range(size), 2):
        if rng.random() < density:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


@settings(max_examples=60, deadline=None)
@given(wide_graphs())
def test_greedy_clique_matches_the_set_based_walk_on_wide_masks(adjacency):
    graph = CodeGraph(tuple(range(len(adjacency))), masks_of(adjacency))
    assert greedy_clique(graph) == greedy_walk(adjacency)


@settings(max_examples=60, deadline=None)
@given(wide_graphs())
def test_enumerate_cliques_matches_every_start_walk_on_wide_masks(adjacency):
    graph = CodeGraph(tuple(range(len(adjacency))), masks_of(adjacency))
    assert enumerate_cliques(graph) == greedy_walks(adjacency)


@settings(max_examples=200, deadline=None)
@given(twinned_graphs())
def test_enumerate_cliques_matches_every_start_walk_on_graphs_with_twins(adjacency):
    graph = CodeGraph(tuple(range(len(adjacency))), masks_of(adjacency))
    assert enumerate_cliques(graph) == greedy_walks(adjacency)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_graph_checks_on_masks_match_the_definition(adjacency, data):
    size = len(adjacency)
    nodes, masks = tuple(range(size)), masks_of(adjacency)
    graph = CodeGraph(nodes, masks)
    assert graph.neighbors == tuple(
        frozenset(u for u in nodes if m >> u & 1) for m in masks
    )
    if not size:
        return
    v = data.draw(st.integers(0, size - 1))
    looped = list(masks)
    looped[v] |= 1 << v
    with pytest.raises(ValueError, match="self loops"):
        CodeGraph(nodes, tuple(looped))
    if size > 1:
        u = data.draw(st.integers(0, size - 1).filter(lambda u: u != v))
        flipped = list(masks)
        flipped[v] ^= 1 << u
        with pytest.raises(ValueError, match="symmetric"):
            CodeGraph(nodes, tuple(flipped))
