"""The staged designer: opening pairs, extensions, emitted families."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oockit import (
    CodeParams,
    DesignConfig,
    PartialDopr,
    Wpr,
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
    max_difference_at,
    standardize,
    to_canonical_json,
    verify_document,
    wpr_from_dopr,
)

from oockit import codes
from oockit.cli import main

from oracles import max_auto, max_cross, unit_auto_classes

P7 = CodeParams(7, 3, 1, 1)
P13 = CodeParams(13, 4, 1, 1)
P25 = CodeParams(25, 3, 1, 1)


def companion_auto(dops, n):
    """Self correlation of the prefix's closed companion, from the definition."""
    positions = [0]
    for d in dops:
        positions.append(positions[-1] + d)
    return max_auto(tuple(positions), n)


def test_first_pairs_frozen_lists():
    assert [p.dops for p in enumerate_first_pairs(P13)] == [
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 1), (2, 3), (2, 4), (2, 5),
        (3, 1), (3, 2), (3, 4),
        (4, 1), (4, 2), (4, 3),
        (5, 1), (5, 2),
    ]
    assert [p.dops for p in enumerate_first_pairs(P7)] == [(1, 2), (2, 1)]


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
        assert [p.dops for p in enumerate_first_pairs(params)] == expect


def test_first_pairs_are_partials_of_the_right_shape():
    for p in enumerate_first_pairs(P13):
        assert isinstance(p, PartialDopr)
        assert (p.n, p.w, p.u) == (13, 4, 2)


def test_first_pairs_reject_degenerate_weights():
    with pytest.raises(ValueError):
        enumerate_first_pairs(CodeParams(9, 2, 1, 1))


def test_extension_respects_range_room_and_correlation():
    prefix = PartialDopr((2, 3), 13, 4)
    grown = extend_clique_codes([prefix], P13)
    kept = {g.dops[-1] for g in grown}
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


def test_extensions_deduplicate_across_clique_members():
    a = PartialDopr((1, 2), 13, 4)
    b = PartialDopr((1, 2), 13, 4)
    grown = extend_clique_codes([a, b], P13)
    assert len({g.dops for g in grown}) == len(grown)


def test_extension_refuses_complete_codes():
    with pytest.raises(ValueError):
        extend_clique_codes([PartialDopr((1, 3, 2), 13, 4)], P13)


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
    with pytest.raises(TypeError):
        DesignConfig(((13, 4, 1, 1),))
    with pytest.raises(ValueError):
        DesignConfig((P7,), max_sets=0)


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

    def counted(params, max_sets=None):
        calls.append(params)
        return design_fixed(params, max_sets)

    monkeypatch.setattr("oockit.design.design_fixed", counted)
    assert main(["design", "--n", "25,31,31", "--w", "3,3,3"]) == 0
    assert calls == [P25, p31]
    assert from_json(capsys.readouterr().out).config["n"] == [25, 31, 31]


@pytest.mark.parametrize(
    "params, built",
    [
        (CodeParams(25, 3, 1, 1), 201),
        (CodeParams(19, 4, 2, 2), 581),
        (CodeParams(25, 4, 2, 2), 1470),
    ],
)
def test_design_builds_each_code_table_once(monkeypatch, params, built):
    """Every table the designer reads is built by its code, once per code."""
    # Holding each argument keeps its id from being reused by a later code.
    seen = []

    def counted(build):
        def wrapper(code):
            seen.append(code)
            return build(code)

        return wrapper

    for name in ("edop_full", "edop_partial"):
        monkeypatch.setattr(codes, name, counted(getattr(codes, name)))
    design_fixed(params)
    assert len({id(code) for code in seen}) == len(seen) == built


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
def small_params(draw):
    """A tuple with w 3..5, n up to 31 and each ceiling 1 or 2, unequal allowed."""
    w = draw(st.integers(3, 5))
    return CodeParams(
        draw(st.integers(w + 1, 31)),
        w,
        draw(st.sampled_from((1, 2))),
        draw(st.sampled_from((1, 2))),
    )


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
