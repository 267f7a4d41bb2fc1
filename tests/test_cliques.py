"""Compatibility graphs, greedy clique search, set assembly."""

from __future__ import annotations

import random
import re

import pytest

import oockit.cliques
import oockit.codes
from oockit import (
    BinaryCode,
    CliqueSet,
    CodeGraph,
    CodeParams,
    Dopr,
    PartialDopr,
    Wpr,
    build_graph,
    clique_set_matrix,
    dopr_from_wpr,
    edop_full,
    enumerate_cliques,
    enumerate_first_pairs,
    greedy_clique,
    johnson_bound,
    make_clique_set,
    select_family,
    standardize,
    verify_maximality,
    wpr_from_dopr,
)

from oracles import (
    max_auto,
    max_clique,
    max_clique_size,
    max_cross,
    rotation_classes,
    unit_auto_classes,
)


@pytest.fixture
def walks_of(monkeypatch):
    """`enumerate_cliques` of a graph and the number of walks it ran."""
    walk = oockit.cliques._walk

    def run(graph):
        calls = []

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(oockit.cliques, "_walk", counted)
        return enumerate_cliques(graph), len(calls)

    return run


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


@pytest.mark.parametrize("threshold", [True, 2.0])
def test_build_graph_rejects_thresholds_that_are_not_integers(threshold):
    with pytest.raises(ValueError, match="threshold must be an integer"):
        build_graph(classes_as_codes(7, 3), threshold)


@pytest.mark.parametrize(
    "threshold,message",
    [
        (0, "at least 1"),
        (-3, "at least 1"),
        (True, "an integer"),
        (1.5, "an integer"),
    ],
)
def test_verify_maximality_refuses_what_build_graph_refuses(threshold, message):
    members, pool = [Dopr((1, 2, 4), 7)], classes_as_codes(7, 3)
    with pytest.raises(ValueError, match=f"threshold must be {message}"):
        verify_maximality(members, pool, threshold)
    with pytest.raises(ValueError, match=f"threshold must be {message}"):
        build_graph(pool, threshold)


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_build_graph_refuses_weight_one_codes(threshold):
    """Every key branch refuses: one length at each threshold, and mixed
    lengths."""
    with pytest.raises(ValueError, match="weight >= 2"):
        build_graph([Dopr((7,), 7)], threshold)
    with pytest.raises(ValueError, match="weight >= 2"):
        build_graph([Dopr((7,), 7), Dopr((1, 2, 5), 8)], threshold)


def test_clique_set_matrix_refuses_weight_one_members():
    params = CodeParams(7, 3, 1, 1)
    with pytest.raises(ValueError, match="weight >= 2"):
        clique_set_matrix([CliqueSet((Dopr((7,), 7),), params, 0, 0, 0)])


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_build_graph_keys_one_difference_partial_codes(threshold):
    """A u = 1 partial code stands for its weight-2 companion (3, 4)."""
    graph = build_graph([PartialDopr((3,), 7, 3)], threshold)
    assert graph.masks == (0,)


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
def test_near_complete_opening_graph_walks_are_exact(params, starts, sizes, walks_of):
    """Every top-degree walk of these λ_c = 2 opening graphs ends on one clique.

    Their top-degree starts are joined to every other node, so all share
    one closed neighbourhood and only the first is walked.
    """
    graph = build_graph(enumerate_first_pairs(params), params.lambda_c)
    degrees = [m.bit_count() for m in graph.masks]
    assert degrees.count(max(degrees)) == starts
    found, walks = walks_of(graph)
    assert [len(c) for c in found] == sizes
    assert walks == 1


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
        adjacency = dict(enumerate(g.neighbors))
        assert len(clique) <= max_clique_size(adjacency)


def test_greedy_is_deterministic():
    g = graph_of(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (2, 3)])
    assert greedy_clique(g) == greedy_clique(g)


def test_enumerate_cliques_walks_once_per_top_degree_closed_neighbourhood(walks_of):
    # The path's two starts have different closed neighbourhoods.
    path = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    assert walks_of(path) == (((1, 0), (2, 1)), 2)
    # The three triangle starts share one closed neighbourhood.
    k3_plus_isolated = graph_of(4, [(0, 1), (0, 2), (1, 2)])
    assert walks_of(k3_plus_isolated) == (((0, 1, 2),), 1)
    # Opposite corners of a square share their neighbours but are not
    # joined, so each is walked.
    square = graph_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert walks_of(square) == (((0, 1), (2, 1), (3, 0)), 4)
    assert walks_of(graph_of(0, [])) == ((), 0)


def test_bound_attaining_clique_among_low_auto_classes():
    """The 80-class pool at n=25, w=3 contains a clique meeting the bound."""
    pool = classes_as_codes(25, 3, ceiling=1)
    assert len(pool) == 80
    graph = build_graph(pool, threshold=1)
    adjacency = dict(enumerate(graph.neighbors))
    best = max_clique(adjacency, cap=johnson_bound(25, 3, 1))
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


@pytest.mark.parametrize(
    "code",
    [
        PartialDopr((1, 3), 13, 3),
        Wpr((0, 1, 4), 13),
        BinaryCode((1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
        edop_full(Dopr((1, 3, 9), 13)),
    ],
    ids=lambda code: type(code).__name__,
)
def test_make_clique_set_refuses_what_is_not_a_complete_code(code):
    with pytest.raises(TypeError, match=re.escape(repr(code))):
        make_clique_set([Dopr((1, 3, 9), 13), code], CodeParams(13, 3))


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
    graph = clique_set_matrix([a, b])
    # the pair peaks at 2, within the limit 1 + 1
    assert graph.nodes == (a, b)
    assert graph.masks == (0b10, 0b01)


def test_clique_set_matrix_limits_each_pair_by_its_stricter_ceiling():
    code = [Dopr((1, 2, 4), 7)]
    loose = make_clique_set(code, CodeParams(7, 3, 2, 2))
    also_loose = make_clique_set(code, CodeParams(7, 3, 1, 2))
    strict = make_clique_set(code, CodeParams(7, 3, 1, 1))
    # identical codes peak at the weight 3, within 2 + 1 but not 1 + 1
    for order in ((loose, also_loose, strict), (strict, loose, also_loose)):
        graph = clique_set_matrix(order)
        edges = {
            frozenset((order[v], order[u]))
            for v in range(3)
            for u in graph.neighbors[v]
        }
        assert edges == {frozenset((loose, also_loose))}


def test_select_family_keeps_separated_sets():
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    b = make_clique_set([Dopr((2, 1, 4), 7)], params)
    family = select_family([a, b])
    assert family.sets == (a, b)
    assert family.interset_lambda == 2


@pytest.mark.parametrize(
    "params,x,y,x_again,z",
    [
        (
            (CodeParams(25, 3, 1, 1),) * 2,
            (1, 2, 22),
            (3, 5, 17),
            (2, 22, 1),
            (4, 6, 15),
        ),
        (
            (CodeParams(25, 4, 1, 2),) * 2,
            (1, 2, 4, 18),
            (3, 5, 9, 8),
            (2, 4, 18, 1),
            (6, 7, 2, 10),
        ),
        (
            (CodeParams(25, 3, 1, 1), CodeParams(31, 3, 1, 1)),
            (1, 2, 22),
            (3, 5, 17),
            (2, 22, 1),
            (4, 6, 21),
        ),
    ],
    ids=["ceiling-1", "ceiling-2", "mixed-lengths"],
)
def test_select_family_builds_only_the_kept_sets_tables(
    monkeypatch, params, x, y, x_again, z
):
    """Candidate sets are keyed by their members' per-code keys at every
    ceiling and length; only the kept sets' codes build tables, for the
    family level."""
    first, last = params
    # x_again is x rotated, so their two sets clash.
    x, y, x_again = (Dopr(d, first.n) for d in (x, y, x_again))
    z = Dopr(z, last.n)
    sets = [
        CliqueSet((x, y), first, 0, 0, 0),
        CliqueSet((x_again,), first, 0, 0, 0),
        CliqueSet((z,), last, 0, 0, 0),
    ]
    built = []

    def counted(code):
        built.append(code)
        return edop_full(code)

    monkeypatch.setattr(oockit.codes, "edop_full", counted)
    family = select_family(sets)
    assert family.sets == (sets[0], sets[2])
    assert sorted(c.dops for c in built) == sorted(c.dops for c in (x, y, z))


def test_select_family_degenerate_inputs():
    assert select_family([]).sets == ()
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    family = select_family([a])
    assert family.sets == (a,)
    assert family.interset_lambda == 0


@pytest.mark.parametrize("max_sets", [0, -1, True, 1.5, "1"])
def test_select_family_refuses_a_bad_cap(max_sets):
    params = CodeParams(7, 3, 1, 1)
    a = make_clique_set([Dopr((1, 2, 4), 7)], params)
    b = make_clique_set([Dopr((2, 1, 4), 7)], params)
    with pytest.raises(ValueError, match="max_sets"):
        select_family([a, b], max_sets=max_sets)


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
        adjacency = dict(enumerate(graph.neighbors))
        sizes.append(max_clique_size(adjacency, cap=4))
    assert sizes[0] <= sizes[1]
