"""Compatibility graphs, greedy and exact clique search, set assembly."""

from __future__ import annotations

import random

import pytest

from oockit import (
    CodeGraph,
    CodeParams,
    Dopr,
    Wpr,
    build_graph,
    clique_set_matrix,
    dopr_from_wpr,
    enumerate_cliques,
    enumerate_first_pairs,
    greedy_clique,
    johnson_bound,
    make_clique_set,
    max_clique_exact,
    select_family,
    standardize,
    verify_maximality,
    wpr_from_dopr,
)

from oracles import (
    max_auto,
    max_clique_size,
    max_cross,
    rotation_classes,
    unit_auto_classes,
)


def graph_of(size, edges):
    masks = [0] * size
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return CodeGraph(tuple(range(size)), tuple(masks))


def classes_as_codes(n, w, ceiling=None):
    keys = (
        rotation_classes(n, w) if ceiling is None else unit_auto_classes(n, w)
    )
    return [standardize(dopr_from_wpr(Wpr(k, n))) for k in keys]


def test_graph_rejects_self_loops_and_asymmetry():
    with pytest.raises(ValueError, match="self loops"):
        CodeGraph(("a",), (0b1,))
    with pytest.raises(ValueError, match="symmetric"):
        CodeGraph(("a", "b"), (0b10, 0b00))


def test_graph_rejects_a_mask_count_that_differs_from_the_node_count():
    with pytest.raises(ValueError, match="masks for 2 nodes"):
        CodeGraph(("a", "b"), (0,))
    with pytest.raises(ValueError, match="masks for 1 nodes"):
        CodeGraph(("a",), (0, 0))


def test_graph_rejects_negative_masks():
    with pytest.raises(ValueError, match="non-negative"):
        CodeGraph(("a", "b"), (-1, 0))


def test_graph_rejects_bits_beyond_the_last_node():
    with pytest.raises(ValueError, match="below the 1 nodes"):
        CodeGraph(("a",), (1 << 5,))
    with pytest.raises(ValueError, match="below the 2 nodes"):
        CodeGraph(("a", "b"), (0b110, 0b001))


def test_neighbor_sets_are_read_off_the_masks():
    g = graph_of(3, [(0, 1), (1, 2)])
    assert g.masks == (0b010, 0b101, 0b010)
    assert g.neighbors == (frozenset({1}), frozenset({0, 2}), frozenset({1}))


def test_build_graph_edges_match_the_definition():
    """An edge is exactly a within-threshold cross correlation."""
    pool = classes_as_codes(7, 3)
    graph = build_graph(pool, threshold=2)
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            xpos = wpr_from_dopr(pool[i]).positions
            ypos = wpr_from_dopr(pool[j]).positions
            expect = max_cross(xpos, ypos, 7) <= 2
            assert (j in graph.neighbors[i]) == expect
            assert (i in graph.neighbors[j]) == expect


def test_build_graph_rejects_silly_thresholds():
    with pytest.raises(ValueError):
        build_graph(classes_as_codes(7, 3), threshold=0)


@pytest.mark.parametrize(
    "params,nodes,edges",
    [
        (CodeParams(25, 3, 1, 1), 110, 2172),
        (CodeParams(19, 4, 2, 2), 56, 1525),
        (CodeParams(25, 4, 2, 2), 110, 5960),
        (CodeParams(25, 5, 2, 2), 90, 3990),
    ],
)
def test_first_pair_graph_work_counts_are_exact(params, nodes, edges):
    """Node and edge counts of the designer's opening graph are repeatable."""
    graph = build_graph(enumerate_first_pairs(params), params.lambda_c)
    assert len(graph.nodes) == nodes
    assert sum(map(len, graph.neighbors)) // 2 == edges
    assert sum(m.bit_count() for m in graph.masks) // 2 == edges


@pytest.mark.parametrize(
    "params,starts,sizes",
    [
        (CodeParams(25, 4, 2, 2), 70, [85]),
        (CodeParams(25, 5, 2, 2), 72, [79]),
        (CodeParams(19, 4, 2, 2), 38, [45]),
    ],
)
def test_near_complete_opening_graph_walks_are_exact(params, starts, sizes):
    """Every top-degree walk of these λ_c = 2 opening graphs ends on one clique.

    Most of their nodes are joined to every other node, so each walk takes
    them all; the walks from the many starts share one result.
    """
    graph = build_graph(enumerate_first_pairs(params), params.lambda_c)
    degrees = [m.bit_count() for m in graph.masks]
    assert degrees.count(max(degrees)) == starts
    assert [len(c) for c in enumerate_cliques(graph)] == sizes


def test_greedy_on_trivial_graphs():
    assert greedy_clique(graph_of(0, [])) == ()
    assert greedy_clique(graph_of(1, [])) == (0,)
    # Complete graph: everything joins.
    k3 = graph_of(3, [(0, 1), (0, 2), (1, 2)])
    assert set(greedy_clique(k3)) == {0, 1, 2}
    # Edgeless graph: the walk stops after one pick.
    assert greedy_clique(graph_of(3, [])) == (0,)


def test_greedy_walk_on_a_path():
    # Degrees 1,2,2,1: node 1 wins the first pick by index.
    path = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    assert greedy_clique(path) == (1, 0)


def test_greedy_results_on_random_graphs_are_maximal_cliques():
    rng = random.Random(99)
    for _ in range(60):
        size = rng.randrange(2, 11)
        edges = [
            (a, b)
            for a in range(size)
            for b in range(a + 1, size)
            if rng.random() < 0.45
        ]
        g = graph_of(size, edges)
        clique = greedy_clique(g)
        members = set(clique)
        for a in clique:
            for b in clique:
                if a != b:
                    assert b in g.neighbors[a]
        for v in range(size):
            if v not in members:
                assert not members <= g.neighbors[v], "greedy missed an extension"
        adjacency = {v: set(g.neighbors[v]) for v in range(size)}
        assert len(clique) <= max_clique_size(adjacency)


def test_greedy_is_deterministic():
    g = graph_of(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (2, 3)])
    assert greedy_clique(g) == greedy_clique(g)


def test_enumerate_cliques_runs_once_per_top_degree_start():
    path = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    assert enumerate_cliques(path) == ((1, 0), (2, 1))
    # All three triangle starts collapse to one clique.
    k3_plus_isolated = graph_of(4, [(0, 1), (0, 2), (1, 2)])
    assert enumerate_cliques(k3_plus_isolated) == ((0, 1, 2),)
    assert enumerate_cliques(graph_of(0, [])) == ()


def test_exact_search_agrees_with_the_oracle():
    rng = random.Random(4242)
    for _ in range(40):
        size = rng.randrange(1, 11)
        edges = [
            (a, b)
            for a in range(size)
            for b in range(a + 1, size)
            if rng.random() < 0.5
        ]
        g = graph_of(size, edges)
        adjacency = {v: set(g.neighbors[v]) for v in range(size)}
        found = max_clique_exact(g, size_cap=size)
        assert len(found) == max_clique_size(adjacency)
        for a in found:
            for b in found:
                if a != b:
                    assert b in g.neighbors[a]


def test_exact_search_cap_truncates():
    k5 = graph_of(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert len(max_clique_exact(k5, size_cap=3)) == 3


def test_exact_search_guard():
    big = graph_of(25, [])
    with pytest.raises(ValueError):
        max_clique_exact(big, size_cap=7)
    assert max_clique_exact(big, size_cap=6) == (0,)
    with pytest.raises(ValueError):
        max_clique_exact(big, size_cap=0)


def test_bound_attaining_clique_among_low_auto_classes():
    """The 80-class pool at n=25, w=3 contains a clique meeting the bound."""
    pool = classes_as_codes(25, 3, ceiling=1)
    assert len(pool) == 80
    graph = build_graph(pool, threshold=1)
    best = max_clique_exact(graph, size_cap=johnson_bound(25, 3, 1))
    assert len(best) == 4
    members = [pool[i] for i in best]
    assert verify_maximality(members, pool, 1)
    assert not verify_maximality(members[:-1], pool, 1)
    made = make_clique_set(members, CodeParams(25, 3, 1, 1))
    assert made.bound == 4
    assert made.verified_lambda_a == 1
    assert made.verified_lambda_c == 1


def test_verify_maximality_accepts_clique_sets_and_rejects_empty():
    code = Dopr((1, 2, 4), 7)
    made = make_clique_set([code], CodeParams(7, 3, 1, 1))
    pool = classes_as_codes(7, 3, ceiling=1)
    assert verify_maximality(made, pool, 1)
    with pytest.raises(ValueError):
        verify_maximality([], pool, 1)


def test_make_clique_set_sorts_and_records():
    made = make_clique_set([Dopr((2, 1, 4), 7)], CodeParams(7, 3, 1, 1))
    assert made.codes == (Dopr((2, 1, 4), 7),)
    assert made.bound == johnson_bound(7, 3, 1) == 1
    assert made.verified_lambda_a == 1
    assert made.verified_lambda_c == 0  # singletons have no pairs


def test_make_clique_set_enforces_the_ceilings():
    with pytest.raises(ValueError):
        make_clique_set([], CodeParams(7, 3, 1, 1))
    with pytest.raises(ValueError, match="does not match"):
        make_clique_set([Dopr((1, 2, 4), 7)], CodeParams(13, 4, 1, 1))
    with pytest.raises(ValueError, match="self correlation"):
        make_clique_set([Dopr((2, 3, 4, 4), 13)], CodeParams(13, 4, 1, 1))
    with pytest.raises(ValueError, match="cross correlation"):
        make_clique_set(
            [Dopr((1, 2, 4), 7), Dopr((2, 1, 4), 7)], CodeParams(7, 3, 1, 1)
        )


def test_clique_set_matrix_values():
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    b = make_clique_set([Dopr((2, 1, 4), 7)], params)
    matrix = clique_set_matrix([a, b])
    assert matrix.raw == ((3, 2), (2, 3))  # diagonal is the weight
    assert matrix.normalized == ((0, 1), (1, 0))


def test_clique_set_matrix_limits_each_pair_by_its_stricter_ceiling():
    code = [Dopr((1, 2, 4), 7)]
    loose = make_clique_set(code, CodeParams(7, 3, 2, 2))
    also_loose = make_clique_set(code, CodeParams(7, 3, 1, 2))
    strict = make_clique_set(code, CodeParams(7, 3, 1, 1))
    matrix = clique_set_matrix([loose, also_loose, strict])
    # identical codes peak at the weight 3, within 2 + 1 but not 1 + 1
    assert matrix.normalized == ((0, 1, 0), (1, 0, 0), (0, 0, 0))


def test_select_family_keeps_separated_sets():
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    b = make_clique_set([Dopr((2, 1, 4), 7)], params)
    family = select_family([a, b])
    assert family.sets == (a, b)
    assert family.interset_lambda == 2


def test_select_family_degenerate_inputs():
    assert select_family([]).sets == ()
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    family = select_family([a])
    assert family.sets == (a,)
    assert family.interset_lambda == 0


def test_select_family_truncates_after_the_canonical_sort():
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    b = make_clique_set([Dopr((2, 1, 4), 7)], params)
    family = select_family([b, a], max_sets=1)
    assert family.sets == (a,)
    assert family.interset_lambda == 0


@pytest.mark.parametrize("n", [7, 13, 19])
def test_relaxing_the_ceiling_never_shrinks_the_best_clique(n):
    """Pools and edges both grow with the ceiling, so the optimum does too."""
    sizes = []
    for lam in (1, 2):
        pool = [
            code
            for code in classes_as_codes(n, 3)
            if max_auto(wpr_from_dopr(code).positions, n) <= lam
        ]
        graph = build_graph(pool, threshold=lam)
        # A shared cap keeps the comparison valid: min(., cap) is monotone.
        sizes.append(len(max_clique_exact(graph, size_cap=4)))
    assert sizes[0] <= sizes[1]
