"""The designer's int-bitset kernel against the independent routes.

`build_graph`, `clique_set_matrix` and `select_family` judge codes and
sets through one owner bitset per key, and `greedy_clique` and
`enumerate_cliques` walk adjacency bitsets; here random inputs hold the
graphs' edges and the family level to `crosscorr_edop`,
`interset_crosscorr` and the plain-set oracles, which share no code with
the kernel, and hold `CodeGraph`'s checks on its masks to the plain
definition of a simple undirected graph.  Half the pools and lists of
candidate sets share one length, even or odd, where the kernel keys only
canonical anchorings; the other half mix lengths, where it keys every
subset.  Candidate sets mix weights and cross ceilings, so each pair is
judged at its own stricter ceiling.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oockit import (
    CliqueSet,
    CodeGraph,
    CodeParams,
    PartialDopr,
    Wpr,
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

from oracles import greedy_walk, greedy_walks, max_cross


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
def lists_of(draw, items, max_size):
    """Up to ``max_size`` draws of ``items(n)``.

    Half the lists share one length n in 7..31, even or odd; in the other
    half each item draws its own.
    """
    n = draw(st.none() | st.integers(7, 31))
    return draw(st.lists(items(n), max_size=max_size))


def table(code):
    return edop_partial(code) if isinstance(code, PartialDopr) else edop_full(code)


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
                crosscorr_edop(table(a), table(b)).lambda_cxy <= threshold
            )
            if a.n == b.n:
                assert joined == (
                    max_cross(positions(a), positions(b), a.n) <= threshold
                )


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
        (interset_crosscorr(a, b) for a, b in combinations(family.sets, 2)),
        default=0,
    )


def code_at(positions, n):
    return dopr_from_wpr(Wpr(positions, n))


def singleton_sets(codes, lambda_c):
    return [
        CliqueSet((c,), CodeParams(c.n, c.weight, c.weight - 1, lambda_c), 0, 0, 0)
        for c in codes
    ]


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
def graphs(draw):
    """Symmetric adjacency over 0..14 nodes.

    Half the draws list the edges, the other half the few edges missing
    from a complete graph: uniformly drawn edge lists rarely give nodes
    joined to all others or walks from different starts that meet, which
    the walk's batch steps and shared tails serve.
    """
    size = draw(st.integers(0, 14))
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
