"""The staged designer: opening pairs, extensions, emitted families."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oockit.design

from oockit import (
    CodeParams,
    DesignConfig,
    Dopr,
    PartialDopr,
    StandardDopr,
    Wpr,
    build_graph,
    design_fixed,
    design_multi,
    document_from_family,
    dopr_from_wpr,
    enumerate_first_pairs,
    extend_clique_codes,
    from_json,
    interset_crosscorr,
    johnson_bound,
    last_difference_range,
    make_clique_set,
    max_difference_at,
    standardize,
    to_canonical_json,
    verify_document,
    wpr_from_dopr,
)

from oockit import codes
from oockit.cli import main
from oockit.codes import _closed_keys
from oockit.edop import _settled

from oracles import (
    close_prefixes,
    companion_positions,
    extend_prefixes,
    max_auto,
    max_cross,
    reference_design,
    unit_auto_classes,
)

P7 = CodeParams(7, 3, 1, 1)
P13 = CodeParams(13, 4, 1, 1)
P25 = CodeParams(25, 3, 1, 1)


def companion_auto(dops, n):
    """Self correlation of the prefix's closed companion, from the definition."""
    return max_auto(companion_positions(dops), n)


def rows_of(prefixes, params):
    """Designer rows of ``prefixes`` at ``params``: each prefix and its
    closed companion's keys at lambda_c, read off a checked `PartialDopr`."""
    n, w, k = params.n, params.w, params.lambda_c
    return [(d, PartialDopr(d, n, w)._pattern_keys(k, True)) for d in prefixes]


def test_first_pairs_frozen_lists():
    assert [dops for dops, _ in enumerate_first_pairs(P13)] == [
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 1), (2, 3), (2, 4), (2, 5),
        (3, 1), (3, 2), (3, 4),
        (4, 1), (4, 2), (4, 3),
        (5, 1), (5, 2),
    ]
    assert [dops for dops, _ in enumerate_first_pairs(P7)] == [(1, 2), (2, 1)]


def test_first_pairs_match_the_definition():
    """Recompute the pool from scratch and compare."""
    for params in (P13, CodeParams(11, 3, 2, 2)):
        n, w = params.n, params.w
        expect = []
        for d1 in range(1, max_difference_at(n, w, 1) + 1):
            for d2 in range(1, max_difference_at(n, w, 2) + 1):
                if d1 == d2 or d1 + d2 > n - (w - 2):
                    continue
                if companion_auto((d1, d2), n) <= params.lambda_a:
                    expect.append((d1, d2))
        assert [dops for dops, _ in enumerate_first_pairs(params)] == expect


def test_first_pairs_are_partials_of_the_right_shape():
    """Each row is a two-difference prefix at (13, 4) and its folded distances."""
    for dops, keys in enumerate_first_pairs(P13):
        assert PartialDopr(dops, 13, 4).u == 2
        assert sorted(keys) == sorted(_closed_keys(dops + (13 - sum(dops),), 13, 1))


def test_first_pairs_reject_degenerate_weights():
    with pytest.raises(ValueError):
        enumerate_first_pairs(CodeParams(9, 2, 1, 1))


def test_extension_respects_range_room_and_correlation():
    grown = extend_clique_codes(rows_of([(2, 3)], P13), P13)
    kept = {dops[-1] for dops, _ in grown}
    # Recompute the admissible range and filter from the definition.
    cap = min(max_difference_at(13, 4, 3), 13 - 1 - 5)
    expect = set()
    for e in range(1, cap + 1):
        if companion_auto((2, 3, e), 13) <= 1:
            expect.add(e)
    assert kept == expect
    # A repeat of the previous difference doubles a distance immediately.
    assert 3 not in kept
    # 2+3 already realizes the distance 5.
    assert 5 not in kept


@st.composite
def extension_parents(draw):
    """Parameters and 1..3 extendable prefixes, some already over lambda_a.

    n runs 4..130, so distance masks run wider than 64 bits, w 3..7 and
    lambda_a 1..3.  For even n the prefix may be made to reach position
    n/2, whose distance n/2 to the anchor counts twice: a one-difference
    parent (n/2,) or one at lambda 2 already.
    """
    w = draw(st.integers(3, 7))
    n = draw(st.integers(max(4, w + 1), 130))
    params = CodeParams(n, w, draw(st.integers(1, min(3, w - 1))), 1)
    parents = []
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.integers(1, w - 2))
        top = n - (w - u)  # the prefix sum that leaves one unit per slot left
        ends = draw(st.sets(st.integers(1, top), min_size=u, max_size=u))
        if n % 2 == 0 and n // 2 <= top and n // 2 not in ends and draw(st.booleans()):
            ends.remove(max(ends))
            ends.add(n // 2)
        ends = sorted(ends)
        parents.append(tuple(b - a for a, b in zip([0] + ends, ends)))
    return params, parents


@settings(max_examples=150, deadline=None)
@given(extension_parents())
def test_extension_equals_the_candidate_by_candidate_check(case):
    params, parents = case
    n, w = params.n, params.w
    grown = extend_clique_codes(rows_of(parents, params), params)
    assert [dops for dops, _ in grown] == extend_prefixes(
        parents, n, w, params.lambda_a
    )
    for dops, _ in grown:
        PartialDopr(dops, n, w)  # the checked constructor refuses a bad prefix
    firsts = [(d,) for d in range(1, max_difference_at(n, w, 1) + 1)]
    assert [dops for dops, _ in enumerate_first_pairs(params)] == extend_prefixes(
        firsts, n, w, params.lambda_a
    )


def grown_and_closed(params, parents):
    """Extension's children of ``parents``, a pool grown from a few of them
    until every row is at most two short, and the closed children of the
    two-short rows, each made as the designer makes it."""
    w = params.w
    grown = extend_clique_codes(rows_of(parents, params), params)
    pool = list(grown)
    while short := [g for g in pool if len(g[0]) < w - 2]:
        pool = [g for g in pool if len(g[0]) >= w - 2]
        pool += extend_clique_codes(short[:3], params)
    two_short = [g for g in pool if len(g[0]) == w - 2]
    return grown, pool, oockit.design._grow(two_short, params, True)


def closed_of(dops, n, w):
    """The closed tuple a designer row at (n, w) stands for."""
    return dops if len(dops) == w else dops + (n - sum(dops),)


@settings(max_examples=100, deadline=None)
@given(extension_parents())
def test_children_carry_their_companions_folded_distances(case):
    """Extension hands each child row its folded distances for the graph build.

    A child carries its parent's plus those of its new one-bit, and so
    does each complete row the last stage of `_grow` makes, each distance
    as often as its closed tuple holds it and nothing else: no triple
    keys.  The unit-threshold graphs keyed by the carried values equal
    those of fresh codes, which compute their own.
    """
    params, parents = case
    n, w = params.n, params.w
    grown, pool, complete = grown_and_closed(params, parents)
    for dops, keys in (*grown, *pool, *complete):
        assert sorted(keys) == sorted(_closed_keys(closed_of(dops, n, w), n, 1))
    fresh = [PartialDopr(dops, n, w) for dops, _ in grown]
    assert build_graph(grown, 1).masks == build_graph(fresh, 1).masks
    fresh = [Dopr(dops, n) for dops, _ in complete]
    assert build_graph(complete, 1).masks == build_graph(fresh, 1).masks


@settings(max_examples=100, deadline=None)
@given(extension_parents())
def test_children_carry_their_companions_triple_keys(case):
    """At lambda_c 2 a child row carries its parent's triple keys plus those
    of the triples its new one-bit closes, and so does each closed row,
    and nothing else: no folded distances, which only a threshold-1 graph
    reads.  The threshold-2 graphs keyed by the carried values equal those
    of fresh codes, which compute their own."""
    params, parents = case
    params = replace(params, lambda_c=2)
    n, w = params.n, params.w
    grown, pool, complete = grown_and_closed(params, parents)
    for dops, keys in (*grown, *pool, *complete):
        assert sorted(keys) == sorted(_closed_keys(closed_of(dops, n, w), n, 2))
    fresh = [PartialDopr(dops, n, w) for dops, _ in grown]
    assert build_graph(grown, 2).masks == build_graph(fresh, 2).masks
    fresh = [Dopr(dops, n) for dops, _ in complete]
    assert build_graph(complete, 2).masks == build_graph(fresh, 2).masks


@settings(max_examples=60, deadline=None)
@given(extension_parents())
def test_children_above_lambda_c_2_carry_their_row_subsets(case):
    """At lambda_c 3 the graphs read row subsets, so each child row and
    closed row holds those of its closed tuple, as a fresh code keys
    itself, and the threshold-3 graphs equal those of fresh codes."""
    params, parents = case
    assume(params.w >= 4)
    params = replace(params, lambda_c=3)
    n, w = params.n, params.w
    grown, pool, complete = grown_and_closed(params, parents)
    for dops, keys in (*grown, *pool):
        assert sorted(keys) == sorted(PartialDopr(dops, n, w)._pattern_keys(3, True))
    for dops, keys in complete:
        assert sorted(keys) == sorted(Dopr(dops, n)._pattern_keys(3, True))
    fresh = [PartialDopr(dops, n, w) for dops, _ in grown]
    assert build_graph(grown, 3).masks == build_graph(fresh, 3).masks
    fresh = [Dopr(dops, n) for dops, _ in complete]
    assert build_graph(complete, 3).masks == build_graph(fresh, 3).masks


@settings(max_examples=150, deadline=None)
@given(extension_parents(), st.sampled_from((1, 2, 3)))
@example((CodeParams(13, 4, 2, 1), [(1, 2), (2, 5)]), 2)
@example((CodeParams(11, 3, 2, 1), [(1,), (4,)]), 1)
@example((CodeParams(16, 5, 2, 1), [(1, 2, 1), (2, 5, 1)]), 2)
def test_closed_children_are_the_closed_extensions(case, lambda_c):
    """`_grow`'s last stage closes what `extend_clique_codes` would make.

    The reference closes each one-short child, rotates it canonically and
    keeps the first of each class.  The examples close children whose
    last difference ties an earlier one, the strict-maximum skip's
    boundary: (1, 2, 5, 5) and (2, 5, 1, 5) at n = 13, whose canonical
    rotation is (1, 5, 2, 5), and at w = 3 the singles' (4, 3, 4).
    """
    params, parents = case
    assume(params.w > lambda_c)
    params = replace(params, lambda_c=lambda_c)
    n, w = params.n, params.w
    parents = rows_of([d for d in parents if len(d) == w - 2], params)
    assume(parents)
    closed = oockit.design._grow(parents, params, True)
    children = extend_clique_codes(parents, params)
    assert [dops for dops, _ in closed] == close_prefixes(
        [dops for dops, _ in children], n
    )
    assert_checked((), closed, params)


@st.composite
def sorted_parents(draw):
    """Parameters and 1..4 distinct prefixes of one length u, sorted."""
    w = draw(st.integers(3, 7))
    n = draw(st.integers(w + 1, 60))
    params = CodeParams(n, w, draw(st.integers(1, min(3, w - 1))), 1)
    u = draw(st.integers(1, w - 2))
    top = n - (w - u)
    prefixes = set()
    for _ in range(draw(st.integers(1, 4))):
        ends = sorted(draw(st.sets(st.integers(1, top), min_size=u, max_size=u)))
        prefixes.add(tuple(b - a for a, b in zip([0] + ends, ends)))
    return params, sorted(prefixes)


@settings(max_examples=150, deadline=None)
@given(sorted_parents())
def test_extensions_of_sorted_parents_come_sorted(case):
    # _candidates relies on this order and does not sort its pools.
    params, parents = case
    grown = extend_clique_codes(rows_of(parents, params), params)
    assert all(a[0] < b[0] for a, b in zip(grown, grown[1:]))
    pairs = enumerate_first_pairs(params)
    assert all(a[0] < b[0] for a, b in zip(pairs, pairs[1:]))


def test_extensions_deduplicate_across_clique_members():
    a, b = rows_of([(1, 2), (1, 2)], P13)
    assert a is not b
    grown = extend_clique_codes([a, b], P13)
    assert len({dops for dops, _ in grown}) == len(grown)
    assert grown == extend_clique_codes([a], P13)


def test_extension_refuses_complete_codes():
    with pytest.raises(ValueError, match=r"cannot extend \(1, 3, 2\) at n=13, w=4"):
        extend_clique_codes(rows_of([(1, 3, 2)], P13), P13)


@pytest.mark.parametrize("parent", [(20, 9), (1, 5, 2), (2, 22)])
def test_extension_refuses_a_parent_of_other_parameters(parent):
    """A row holds no n or w, so a parent meant for other ones shows as a
    wrong length, or as a sum that leaves no room for the w - u
    differences still to come at n.  Either is refused with a message
    naming (n, w): (20, 9) would otherwise fail on a bare negative shift
    count, and (2, 22) would yield no children."""
    params = CodeParams(25, 4, 1, 1)
    rows = [(parent, ()), *rows_of([(1, 5)], params)]
    message = rf"cannot extend {re.escape(str(parent))} at n=25, w=4"
    with pytest.raises(ValueError, match=message):
        extend_clique_codes(rows, params)


@pytest.mark.parametrize("parent", [(2, 9, 3, 1), (2, 9)])
def test_the_last_stage_refuses_a_parent_not_two_short(parent):
    """One short (its closing is forced already) or three short (it would
    close with a difference missing)."""
    params = CodeParams(25, 5, 1, 1)
    message = rf"cannot extend {re.escape(str(parent))} at n=25, w=5"
    with pytest.raises(ValueError, match=message):
        oockit.design._grow(rows_of([parent], params), params, True)


@st.composite
def small_params(draw):
    """A tuple with w 3..5, n up to 31 and each ceiling 1 or 2, unequal allowed."""
    w = draw(st.integers(3, 5))
    return CodeParams(
        draw(st.integers(w + 1, 31)),
        w,
        draw(st.sampled_from((1, 2))),
        draw(st.sampled_from((1, 2))),
    )


def assert_checked(children, closed, params):
    """Each pool row rebuilds through its checked constructor, with plain ints.

    Extension's children rebuild as `PartialDopr` of their differences at
    the (n, w) of ``params``, and each closed row as `StandardDopr` of its
    own, canonical.  Each row holds the keys that code gives at lambda_c,
    counted with multiplicity.
    """
    n, w, k = params.n, params.w, params.lambda_c
    for rows, make in ((children, lambda d: PartialDopr(d, n, w)),
                       (closed, lambda d: StandardDopr(d, n))):
        for dops, keys in rows:
            assert type(dops) is tuple
            assert all(type(x) is int for x in dops)
            assert sorted(keys) == sorted(make(dops)._pattern_keys(k, True))


@settings(max_examples=150, deadline=None)
@given(extension_parents())
def test_extension_builds_its_checked_construction(case):
    params, parents = case
    w = params.w
    grown = extend_clique_codes(rows_of(parents, params), params)
    short = [g for g in grown if len(g[0]) < w - 1]
    closing = rows_of([d for d in parents if len(d) == w - 2], params)
    assert_checked(grown, oockit.design._grow(closing, params, True), params)
    assert_checked(extend_clique_codes(short[:3], params), (), params)


@settings(max_examples=40, deadline=None)
@given(small_params())
def test_designer_pools_equal_their_checked_construction(params):
    """Every pool row of a design, opening pairs to closed codes, λ up to 2."""
    built = []

    def grown(codes, p, last):
        out = grow(codes, p, last)
        built.append(((), out) if last else (out, ()))
        return out

    grow = oockit.design._grow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oockit.design, "_grow", grown)
        design_fixed(params, max_sets=2)
    assert_checked(enumerate_first_pairs(params), (), params)
    for children, complete in built:
        assert_checked(children, complete, params)


@pytest.mark.parametrize(
    "params, max_sets, graphs, children, closing",
    [
        (
            CodeParams(49, 4, 1, 1),
            None,
            [(484, 75120), (112, 979), (113, 1006)],
            [112, 113],
            [(112, 112), (113, 113)],
        ),
        (
            CodeParams(61, 5, 1, 1),
            2,
            [(732, 189488), (194, 4914), (197, 5010), (43, 3), (43, 9)],
            [194, 197, 43, 43],
            [(43, 43), (43, 43)],
        ),
        (
            CodeParams(25, 4, 1, 2),
            None,
            [(100, 4920), (220, 19630)],
            [375],
            [(375, 220)],
        ),
        (
            CodeParams(25, 5, 2, 2),
            None,
            [(90, 3990), (810, 269158), (129, 2745)],
            [810, 129],
            [(129, 129)],
        ),
    ],
)
def test_design_stage_counts(monkeypatch, params, max_sets, graphs, children, closing):
    """Exact work per stage: a dropped or repeated pool code fails on a count.

    Graphs give (nodes, edges), children count the one-difference
    extensions of each stage of `design_fixed`, and closing gives, per
    last-stage `_grow` call, its parents' extensions and the closed codes
    it keeps.  The last stage makes no one-short codes, so its children
    are counted by growing the same parents one difference.
    """
    seen_graphs, seen_children, seen_closing = [], [], []

    def graphed(pool, threshold):
        graph = build(pool, threshold)
        edges = sum(m.bit_count() for m in graph.masks) // 2
        seen_graphs.append((len(graph.nodes), edges))
        return graph

    def extended(codes, p):
        out = extend(codes, p)
        seen_children.append(len(out))
        return out

    def grown(codes, p, last):
        out = grow(codes, p, last)
        if last:
            seen_children.append(len(grow(codes, p, False)))
            seen_closing.append((seen_children[-1], len(out)))
        return out

    build = oockit.design.build_graph
    extend, grow = oockit.design.extend_clique_codes, oockit.design._grow
    monkeypatch.setattr(oockit.design, "build_graph", graphed)
    monkeypatch.setattr(oockit.design, "extend_clique_codes", extended)
    monkeypatch.setattr(oockit.design, "_grow", grown)
    design_fixed(params, max_sets)
    assert seen_graphs == graphs
    assert seen_children == children
    assert seen_closing == closing


@pytest.mark.parametrize(
    "params",
    [CodeParams(31, 3, 1, 1), CodeParams(61, 4, 1, 1), CodeParams(25, 4, 2, 2)],
)
def test_the_designer_makes_one_object_per_candidate_code(monkeypatch, params):
    """Pools are plain rows: the only code objects a design makes are the
    distinct codes of its candidate sets, one each, and two sets holding
    one code hold one object."""
    made = []

    def counted(cls, **fields):
        made.append(_settled(cls, **fields))
        return made[-1]

    monkeypatch.setattr(oockit.design, "_settled", counted)
    found = oockit.design._candidates(params, None)
    distinct = {c.dops: c for s in found for c in s.codes}
    assert len(made) == len(distinct) > 0
    assert {id(c) for c in made} == {id(c) for c in distinct.values()}
    assert all(c is distinct[c.dops] for s in found for c in s.codes)


def test_fixed_design_smallest_case():
    family = design_fixed(P7)
    assert [[c.dops for c in s.codes] for s in family.sets] == [
        [(1, 2, 4)],
        [(2, 1, 4)],
    ]
    assert family.interset_lambda == 2
    for s in family.sets:
        assert s.bound == johnson_bound(7, 3, 1) == 1
        assert s.verified_lambda_a == 1
        assert s.verified_lambda_c == 0


def test_fixed_design_worked_parameters():
    family = design_fixed(P13)
    assert [[c.dops for c in s.codes] for s in family.sets] == [[(1, 3, 2, 7)]]
    assert family.interset_lambda == 0


def test_fixed_design_attains_the_bound_when_it_is_attainable():
    family = design_fixed(P25)
    sizes = sorted((len(s.codes) for s in family.sets), reverse=True)
    assert sizes[0] == johnson_bound(25, 3, 1) == 4
    assert all(size <= 4 for size in sizes)


def test_fixed_design_emits_conforming_canonical_codes():
    family = design_fixed(P25)
    assert len(family.sets) >= 2
    lo, hi = last_difference_range(25, 3)
    for s in family.sets:
        for code in s.codes:
            assert code.dops == standardize(code).dops
            assert sum(code.dops) == 25
            assert lo <= code.dops[-1] <= hi
            for i, d in enumerate(code.dops[:-1], start=1):
                assert d <= max_difference_at(25, 3, i)
            assert max_auto(wpr_from_dopr(code).positions, 25) <= 1
        for i, a in enumerate(s.codes):
            for b in s.codes[i + 1 :]:
                assert (
                    max_cross(
                        wpr_from_dopr(a).positions, wpr_from_dopr(b).positions, 25
                    )
                    <= 1
                )


def test_fixed_design_family_separation():
    family = design_fixed(P25)
    sets = family.sets
    peaks = [
        interset_crosscorr(a, b)
        for i, a in enumerate(sets)
        for b in sets[i + 1 :]
    ]
    assert max(peaks) == family.interset_lambda == 2
    assert all(p <= 2 for p in peaks)


def test_fixed_design_is_deterministic():
    first = design_fixed(P25)
    second = design_fixed(P25)
    assert first == second


def test_fixed_design_emits_no_duplicate_classes_within_a_set():
    family = design_fixed(P25)
    for s in family.sets:
        assert len({c.dops for c in s.codes}) == len(s.codes)


def test_max_sets_caps_the_family():
    capped = design_fixed(CodeParams(31, 5, 1, 1), max_sets=2)
    assert len(capped.sets) <= 2


def test_infeasible_parameters_yield_an_empty_family():
    family = design_fixed(CodeParams(4, 3, 1, 1))
    assert family.sets == ()
    assert family.interset_lambda == 0


def test_designer_rejects_tiny_weights():
    with pytest.raises(ValueError, match="weight at least 3"):
        design_fixed(CodeParams(9, 2, 1, 1))
    with pytest.raises(ValueError):
        design_fixed(P7, max_sets=0)


def test_config_validation():
    with pytest.raises(ValueError):
        DesignConfig(())
    # Refused when built, before a merge designs its earlier tuples.
    with pytest.raises(ValueError, match="the designer needs weight at least 3"):
        DesignConfig((CodeParams(91, 3, 1, 1), CodeParams(9, 2, 1, 1)))
    with pytest.raises(TypeError):
        DesignConfig(((13, 4, 1, 1),))
    with pytest.raises(ValueError):
        DesignConfig((P7,), max_sets=0)
    with pytest.raises(TypeError, match="CodeParams"):
        design_fixed((25, 3, 1, 1))


@pytest.mark.parametrize("max_sets", [-1, True, 1.5])
def test_design_entry_points_refuse_a_bad_cap(max_sets):
    with pytest.raises(ValueError, match="max_sets"):
        design_fixed(P7, max_sets=max_sets)
    with pytest.raises(ValueError, match="max_sets"):
        DesignConfig((P7,), max_sets=max_sets)


def test_multi_design_single_entry_defers_to_fixed():
    assert design_multi(DesignConfig((P7,))) == design_fixed(P7)


def test_multi_design_merges_compatible_sets():
    family = design_multi(DesignConfig((P13, P25)))
    assert family.sets
    # Whatever survives, every kept pair respects the stricter ceiling + 1.
    for i, a in enumerate(family.sets):
        for b in family.sets[i + 1 :]:
            limit = min(a.params.lambda_c, b.params.lambda_c) + 1
            assert interset_crosscorr(a, b) <= limit
    if len(family.sets) > 1:
        assert family.interset_lambda >= 1


def test_multi_design_keeps_parameter_identity():
    family = design_multi(DesignConfig((P13, P25)))
    for s in family.sets:
        n = s.params.n
        for code in s.codes:
            assert code.n == n
            assert sum(code.dops) == n


def test_multi_design_designs_a_repeated_tuple_once(monkeypatch, capsys):
    """A repeated tuple neither reruns the designer nor reweights the merge."""
    p31 = CodeParams(31, 3, 1, 1)
    assert design_multi(DesignConfig((P25, p31, p31))) == design_multi(
        DesignConfig((P25, p31))
    )
    calls = []

    def counted(params, max_sets):
        calls.append(params)
        return candidates(params, max_sets)

    candidates = oockit.design._candidates
    monkeypatch.setattr(oockit.design, "_candidates", counted)
    assert main(["design", "--n", "25,31,31", "--w", "3,3,3"]) == 0
    assert calls == [P25, p31]
    assert from_json(capsys.readouterr().out).config["n"] == [25, 31, 31]


def test_a_single_tuple_selects_its_family_once(monkeypatch, capsys):
    """`oockit design` with one tuple sends its candidates straight to selection."""
    sizes = []

    def captured(cliques, cap=None):
        sizes.append(len(cliques))
        return select(cliques, cap)

    select = oockit.design.select_family
    monkeypatch.setattr(oockit.design, "select_family", captured)
    assert main(["design", "--n", "25", "--w", "3"]) == 0
    assert sizes == [50]
    assert len(from_json(capsys.readouterr().out).sets) == 9


@pytest.mark.parametrize(
    "params, built",
    [
        (CodeParams(25, 3, 1, 1), 30),
        (CodeParams(19, 4, 2, 2), 11),
        (CodeParams(25, 4, 2, 2), 20),
        (CodeParams(61, 4, 1, 1), 4),
        (CodeParams(25, 4, 1, 2), 84),
    ],
)
def test_design_builds_each_code_table_once(monkeypatch, params, built):
    """Only the codes of emitted sets build a table, once each, at every ceiling.

    Extension, graphs and family selection all key codes straight from
    their differences; the emitted codes build theirs for the family level
    and the guard, so ``built`` is the number of codes the design emits.
    """
    _assert_tables_built_once(monkeypatch, lambda: design_fixed(params), built)


@pytest.mark.parametrize(
    "tuples, built",
    [
        (((25, 4, 1, 2), (31, 3, 1, 1)), 55),
        (((25, 3, 1, 1), (31, 3, 1, 1)), 30),
    ],
)
def test_a_merge_builds_tables_only_for_emitted_codes(monkeypatch, tuples, built):
    """A merge narrows each tuple without reading its family level, so the
    sets it drops build no table."""
    config = DesignConfig(tuple(CodeParams(*t) for t in tuples))
    _assert_tables_built_once(monkeypatch, lambda: design_multi(config), built)


def _assert_tables_built_once(monkeypatch, design, built):
    """``design()`` builds ``built`` tables, one per emitted code, none in graphs."""
    # Holding each argument keeps its id from being reused by a later code.
    seen = []
    in_graphs = []

    def counted(build):
        def wrapper(code):
            seen.append(code)
            return build(code)

        return wrapper

    def graphed(pool, threshold):
        before = len(seen)
        graph = build_graph(pool, threshold)
        in_graphs.append(len(seen) - before)
        return graph

    monkeypatch.setattr(codes, "edop_full", counted(codes.edop_full))
    monkeypatch.setattr("oockit.design.build_graph", graphed)
    family = design()
    assert len({id(code) for code in seen}) == len(seen) == built
    assert built == sum(len(s.codes) for s in family.sets)
    assert in_graphs and not any(in_graphs)


def test_dedup_by_class_feeds_the_final_stage():
    """Every emitted (25, 3) code class exists in the unit-ceiling pool."""
    pool_keys = {
        standardize(dopr_from_wpr(Wpr(key, 25))).dops
        for key in unit_auto_classes(25, 3)
    }
    family = design_fixed(P25)
    for s in family.sets:
        for code in s.codes:
            assert code.dops in pool_keys


@st.composite
def reference_tuples(draw):
    """(n, w, lambda_a, lambda_c) with ceilings 1..3 and w 3..5 above both,
    n up to 19 (16 at w = 5, 13 at a ceiling of 3, where pool rows hold
    their row subsets)."""
    ceilings = draw(
        st.sampled_from(
            ((1, 1), (2, 2), (1, 2), (2, 1), (3, 3), (1, 3), (3, 1), (2, 3), (3, 2))
        )
    )
    w = draw(st.integers(max(3, max(ceilings) + 1), 5))
    top = 13 if max(ceilings) == 3 else 16 if w == 5 else 19
    return (draw(st.integers(w + 1, top)), w, *ceilings)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(reference_tuples(), min_size=1, max_size=2),
    st.sampled_from((None, 1, 2, 3)),
)
def test_designer_matches_the_reference_designer(tuples, max_sets):
    """Every emitted set and the family level, against `reference_design`:
    `design_fixed` for one tuple, `design_multi` for two."""
    params = [CodeParams(*t) for t in tuples]
    if len(params) == 1:
        family = design_fixed(params[0], max_sets)
    else:
        family = design_multi(DesignConfig(params, max_sets))
    emitted = [
        (
            (s.params.n, s.params.w, s.params.lambda_a, s.params.lambda_c),
            tuple(c.dops for c in s.codes),
            s.bound,
            s.verified_lambda_a,
            s.verified_lambda_c,
        )
        for s in family.sets
    ]
    assert (emitted, family.interset_lambda) == reference_design(tuples, max_sets)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_params(), min_size=1, max_size=2))
def test_designed_documents_verify_clean_and_meet_their_ceilings(parameter_list):
    if len(parameter_list) == 1:
        family = design_fixed(parameter_list[0], max_sets=2)
    else:
        family = design_multi(DesignConfig(parameter_list, max_sets=2))
    doc = from_json(to_canonical_json(document_from_family(family)))
    assert verify_document(doc).failures() == ()
    for s in doc.sets:
        for i, a in enumerate(s.codes):
            assert max_auto(a.wpr, s.n) <= s.lambda_a
            for b in s.codes[i + 1 :]:
                assert max_cross(a.wpr, b.wpr, s.n) <= s.lambda_c


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_params(), min_size=1, max_size=2),
    st.sampled_from((None, 2)),
)
def test_every_candidate_set_would_pass_the_guard(parameter_list, max_sets):
    """Only emitted sets are guarded; the unchosen ones would pass too."""
    seen = []

    def captured(params, cap):
        found = candidates(params, cap)
        seen.extend(found)
        return found

    candidates = oockit.design._candidates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oockit.design, "_candidates", captured)
        design_multi(DesignConfig(parameter_list, max_sets=max_sets))
    for c in seen:
        made = make_clique_set(c.codes, c.params)
        assert made.codes == c.codes


@pytest.mark.parametrize(
    "params, candidates, emitted",
    [
        (CodeParams(25, 3, 1, 1), 50, 9),
        (CodeParams(31, 3, 1, 1), 90, 13),
        (CodeParams(25, 4, 1, 2), 20, 5),
    ],
)
def test_the_guard_runs_once_per_emitted_set(
    monkeypatch, params, candidates, emitted
):
    sizes = []
    guarded = []

    def captured(cliques, cap=None):
        sizes.append(len(cliques))
        return select(cliques, cap)

    def counted(codes, p):
        guarded.append(codes)
        return make_clique_set(codes, p)

    select = oockit.design.select_family
    monkeypatch.setattr(oockit.design, "select_family", captured)
    monkeypatch.setattr(oockit.design, "make_clique_set", counted)
    family = design_fixed(params)
    assert sizes == [candidates]
    assert len(guarded) == len(family.sets) == emitted
    assert [s.codes for s in family.sets] == guarded


@pytest.mark.parametrize(
    "tuples, emitted",
    [
        (((25, 3, 1, 1), (31, 3, 1, 1)), 9),
        (((25, 4, 1, 2), (31, 3, 1, 1)), 13),
    ],
)
def test_a_merge_guards_once_per_emitted_set(monkeypatch, tuples, emitted):
    """A merge selects once over the narrowed tuples and guards only what it keeps."""
    selections = []
    guarded = []

    def captured(cliques, cap=None):
        selections.append(len(cliques))
        return select(cliques, cap)

    def counted(codes, p):
        guarded.append(codes)
        return make_clique_set(codes, p)

    select = oockit.design.select_family
    monkeypatch.setattr(oockit.design, "select_family", captured)
    monkeypatch.setattr(oockit.design, "make_clique_set", counted)
    family = design_multi(DesignConfig(tuple(CodeParams(*t) for t in tuples)))
    assert len(selections) == 1
    assert len(guarded) == len(family.sets) == emitted
    assert [s.codes for s in family.sets] == guarded
