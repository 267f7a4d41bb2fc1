"""Representation round trips, canonical forms, and parameter validation."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from oockit import (
    BinaryCode,
    CodeParams,
    Dopr,
    PartialDopr,
    StandardDopr,
    Wpr,
    binary_from_wpr,
    dopr_from_wpr,
    last_difference_range,
    max_difference_at,
    rotations,
    standardize,
    wpr_from_binary,
    wpr_from_dopr,
)

from oockit import codes
from oockit.codes import _closed_keys

from oracles import all_subsets, anchored_difference_table, gaps_of, rotation_classes


class I(int):
    """An int subclass other than bool, which every integer check accepts."""


def test_params_accepts_ordinary_values():
    p = CodeParams(13, 4, 1, 1)
    assert (p.n, p.w, p.lambda_a, p.lambda_c) == (13, 4, 1, 1)


def test_params_defaults_to_unit_ceilings():
    p = CodeParams(25, 3)
    assert p.lambda_a == 1 and p.lambda_c == 1


@pytest.mark.parametrize(
    "n,w,la,lc",
    [
        (4, 4, 1, 1),   # n must exceed w
        (13, 1, 1, 1),  # w must exceed the ceilings
        (13, 4, 4, 1),
        (13, 4, 1, 4),
        (13, 4, 0, 1),  # ceilings start at 1
        (13, 4, 1, 0),
    ],
)
def test_params_rejects_bad_orderings(n, w, la, lc):
    with pytest.raises(ValueError):
        CodeParams(n, w, la, lc)


def test_params_rejects_non_integers():
    with pytest.raises(ValueError):
        CodeParams(13.0, 4, 1, 1)
    # A bool is an int to Python, but a document would store it as true,
    # which the document reader refuses.
    with pytest.raises(ValueError, match="lambda_a must be an integer"):
        CodeParams(13, 4, True, True)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Dopr((True, 2, 4), 7),
        lambda: Dopr((1.0, 2, 4), 7),
        lambda: Dopr((1, 2, 4), 7.0),
        lambda: Dopr((7.0,), 7.0),
        lambda: StandardDopr((1, 2, 4), 7.0),
        lambda: PartialDopr((True, 2), 7, 3),
        lambda: PartialDopr((1.0, 2), 7, 3),
        lambda: PartialDopr((1, 2), 7.0, 3),
        lambda: PartialDopr((1, 2), 7, 3.0),
        lambda: Wpr((0, True, 3), 7),
        lambda: Wpr((0, 1.0, 3), 7),
        lambda: Wpr((0, 1, 3), 7.0),
    ],
)
def test_code_forms_reject_bools_and_floats(make):
    # Either would pass the range checks and then be written to a document
    # as true or 1.0, which the document reader refuses.
    with pytest.raises(ValueError, match="must be an integer"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Dopr((), 7), "a difference form needs at least one element"),
        (lambda: Dopr((4,), 9), "weight-1 code at n=9 must have the single difference"),
        (lambda: Dopr((0,), 0), "a code needs length n >= 1, got n=0"),
        (lambda: Dopr((-3,), -3), "a code needs length n >= 1, got n=-3"),
        (lambda: Dopr((0, 3, 4), 7), "differences must lie in [1, 6]"),
        (lambda: Dopr((7, 1, -1), 7), "differences must lie in [1, 6]"),
        (lambda: Dopr((1, 2, 5), 7), "differences must sum to n=7, got 8"),
        (lambda: StandardDopr((2, 4, 1), 7), "(2, 4, 1) is not the canonical rotation"),
        (lambda: PartialDopr((), 7, 3), "a partial form needs 1..2 elements"),
        (lambda: PartialDopr((1, 2, 4), 7, 3), "a partial form needs 1..2 elements"),
        (lambda: PartialDopr((0, 2), 7, 3), "differences must lie in [1, 6]"),
        (lambda: PartialDopr((7,), 7, 3), "differences must lie in [1, 6]"),
        (
            lambda: PartialDopr((3, 4), 7, 3),
            "prefix (3, 4) leaves no room for 1 more differences within n=7",
        ),
        (lambda: Wpr((), 7), "a code needs at least one weighted position"),
        (lambda: Wpr((0, 7), 7), "positions must lie in [0, 7)"),
        (lambda: Wpr((-1, 3), 7), "positions must lie in [0, 7)"),
        (lambda: Wpr((0, 3, 3), 7), "positions must be strictly increasing"),
    ],
)
def test_code_forms_refuse_malformed_input_with_their_messages(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_code_forms_accept_int_subclasses_other_than_bool():
    assert Dopr((I(1), I(2), I(4)), I(7)).dops == (1, 2, 4)
    assert standardize(Dopr((I(2), I(1), I(4)), I(7))).dops == (2, 1, 4)
    assert PartialDopr((I(1), I(2)), I(7), I(3)).u == 2
    assert Wpr((I(0), I(1), I(3)), I(7)).weight == 3
    assert CodeParams(I(13), I(4), I(1), I(1)).n == 13


def test_binary_code_basic_properties():
    code = BinaryCode((0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0))
    assert code.n == 13
    assert code.weight == 4


def test_binary_code_rejects_junk_bits():
    with pytest.raises(ValueError):
        BinaryCode((0, 1, 2))
    with pytest.raises(ValueError):
        BinaryCode(())


def test_wpr_validation():
    Wpr((0, 2, 5), 7)
    with pytest.raises(ValueError):
        Wpr((0, 5, 2), 7)   # unsorted
    with pytest.raises(ValueError):
        Wpr((0, 2, 7), 7)   # out of range
    with pytest.raises(ValueError):
        Wpr((0, 2, 2), 7)   # repeated
    with pytest.raises(ValueError):
        Wpr((), 7)


def test_dopr_requires_exact_sum():
    Dopr((2, 3, 4, 4), 13)
    with pytest.raises(ValueError):
        Dopr((2, 3, 4, 5), 13)
    with pytest.raises(ValueError):
        Dopr((2, 3, 4, 0), 13)


def test_dopr_weight_one_is_the_wraparound_gap():
    assert Dopr((9,), 9).weight == 1
    with pytest.raises(ValueError):
        Dopr((4,), 9)


def test_partial_dopr_room_check():
    # Prefix must leave at least one unit per missing difference.
    PartialDopr((2, 3), 13, 4)
    PartialDopr((5, 6), 13, 4)     # 11 = 13 - 2, exactly enough room
    with pytest.raises(ValueError):
        PartialDopr((6, 6), 13, 4)
    with pytest.raises(ValueError):
        PartialDopr((2, 3, 4, 4), 13, 4)  # full tuples are not partial
    with pytest.raises(ValueError):
        PartialDopr((), 13, 4)


def test_round_trip_worked_code():
    code = BinaryCode((0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0))
    wpr = wpr_from_binary(code)
    assert wpr.positions == (1, 3, 6, 10)
    dopr = dopr_from_wpr(wpr)
    assert dopr.dops == (2, 3, 4, 4)
    # Anchoring at zero is a shift of the original, not the original itself.
    assert wpr_from_dopr(dopr).positions == (0, 2, 5, 9)
    assert binary_from_wpr(wpr) == code


def test_round_trips_exhaustively_small():
    """binary -> wpr -> dopr -> wpr -> binary is lossless up to anchoring."""
    for n in range(2, 11):
        for w in range(1, n + 1):
            for positions in all_subsets(n, w):
                wpr = Wpr(positions, n)
                assert wpr_from_binary(binary_from_wpr(wpr)) == wpr
                dopr = dopr_from_wpr(wpr)
                assert dopr.dops == gaps_of(positions, n)
                back = wpr_from_dopr(dopr)
                # Same gap structure, anchored at zero.
                assert back.positions[0] == 0
                assert dopr_from_wpr(back) == dopr


def test_rotations_enumerates_all_shifts():
    assert rotations((1, 2, 4)) == ((1, 2, 4), (2, 4, 1), (4, 1, 2))
    assert rotations((5,)) == ((5,),)


@pytest.mark.parametrize(
    "dops,n,expected",
    [
        ((2, 5, 13, 4, 7), 31, (4, 7, 2, 5, 13)),
        ((6, 6, 7, 5, 7), 31, (5, 7, 6, 6, 7)),
        ((6, 5, 7, 6, 7), 31, (6, 5, 7, 6, 7)),
    ],
)
def test_standardize_known_forms(dops, n, expected):
    assert standardize(Dopr(dops, n)).dops == expected


def test_standardize_breaks_last_element_ties_lexicographically():
    # Two rotations end in 4; the smaller leading block wins.
    assert standardize(Dopr((4, 1, 4, 1), 10)).dops == (1, 4, 1, 4)


def test_standardize_is_idempotent():
    s = standardize(Dopr((2, 3, 4, 4), 13))
    assert standardize(s).dops == s.dops


@given(st.data())
def test_standardize_is_shift_invariant(data):
    n = data.draw(st.integers(min_value=4, max_value=40))
    w = data.draw(st.integers(min_value=2, max_value=min(6, n - 1)))
    positions = tuple(
        sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w)))
    )
    dopr = dopr_from_wpr(Wpr(positions, n))
    forms = {standardize(Dopr(rot, n)).dops for rot in rotations(dopr.dops)}
    assert len(forms) == 1


def standard_by_definition(dops):
    """Among all rotations, those ending in the largest element; the least one."""
    rots = [dops[i:] + dops[:i] for i in range(len(dops))]
    top = max(r[-1] for r in rots)
    return min(r for r in rots if r[-1] == top)


@pytest.mark.parametrize(
    "dops",
    [
        (3, 3, 3),
        (1, 2, 1, 2),
        (2, 1, 2, 1),
        (4, 1, 4, 1),
        (1, 5, 1, 5, 1, 5),
        (5, 1, 2, 5, 1, 3),
        (9,),
        (2, 2),
    ],
)
def test_standard_rotation_of_tied_and_symmetric_tuples(dops):
    assert codes._standard_rotation(dops) == standard_by_definition(dops)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.integers(1, 3),
    st.integers(0, 14),
)
def test_standard_rotation_matches_the_all_rotations_definition(block, repeat, turn):
    """Few distinct values make ties on the maximum common; repeats add symmetry."""
    dops = tuple(block) * repeat
    turn %= len(dops)
    dops = dops[turn:] + dops[:turn]
    assert codes._standard_rotation(dops) == standard_by_definition(dops)


def test_standard_dopr_rejects_non_canonical_rotations():
    StandardDopr((1, 3, 2, 7), 13)
    with pytest.raises(ValueError):
        StandardDopr((2, 7, 1, 3), 13)
    with pytest.raises(ValueError):
        StandardDopr((7, 1, 3, 2), 13)


def test_standard_dopr_accepts_fully_symmetric_tuples():
    StandardDopr((3, 3, 3), 9)


@pytest.mark.parametrize(
    "n,w,caps",
    [
        (13, 4, (5, 5, 5)),
        (25, 3, (11, 12)),
        (31, 5, (13, 13, 14, 14)),
        (7, 3, (2, 3)),
    ],
)
def test_max_difference_at_known_caps(n, w, caps):
    assert tuple(max_difference_at(n, w, i) for i in range(1, w)) == caps


def test_max_difference_at_rejects_out_of_slot_positions():
    with pytest.raises(ValueError):
        max_difference_at(13, 4, 0)
    with pytest.raises(ValueError):
        max_difference_at(13, 4, 4)


@pytest.mark.parametrize(
    "helper,args",
    [
        (last_difference_range, (7, 0)),
        (last_difference_range, (5, 7)),
        (max_difference_at, (3, 5, 2)),
        (max_difference_at, (7.5, 3, 1)),
        (max_difference_at, (7, 3, 1.5)),
    ],
)
def test_range_helpers_refuse_inputs_outside_their_domain(helper, args):
    """Both are stated for integers with 2 <= w < n, and slots are integers."""
    with pytest.raises(ValueError):
        helper(*args)


@pytest.mark.parametrize(
    "n,w,expected",
    [(13, 4, (4, 10)), (25, 3, (9, 23)), (7, 3, (3, 5)), (31, 5, (7, 27))],
)
def test_last_difference_range_known_values(n, w, expected):
    assert last_difference_range(n, w) == expected


def test_every_standard_form_respects_the_published_ranges():
    """Positional caps and the closing range hold for all small codes."""
    for n in range(4, 13):
        for w in range(2, min(6, n)):
            for positions in itertools.combinations(range(n), w):
                dops = standardize(dopr_from_wpr(Wpr(positions, n))).dops
                for i, d in enumerate(dops[:-1], start=1):
                    assert d <= max_difference_at(n, w, i)
                lo, hi = last_difference_range(n, w)
                assert lo <= dops[-1] <= hi


def test_folded_distances_are_the_table_entries_up_to_half_the_length():
    """One min(d, n - d) per pair of one-bits: the entries e with 2e <= n."""
    for n in range(3, 13):
        for w in range(2, min(6, n) + 1):
            for positions in all_subsets(n, w):
                dops = gaps_of(positions, n)
                folded = _closed_keys(dops, n, 1)
                assert sorted(folded) == sorted(
                    min((q - p) % n, (p - q) % n)
                    for p, q in itertools.combinations(positions, 2)
                )
                assert set(folded) == {
                    e for row in anchored_difference_table(dops) for e in row
                    if e + e <= n
                }


def test_triple_keys_are_the_kept_pairs_of_row_entries():
    """One s_1 * n + s_2 per pair s_1 < s_2 of a row's entries with
    s_1 + s_2 <= n, each as often as the table holds it."""
    for n in range(3, 13):
        for w in range(2, min(6, n) + 1):
            for positions in all_subsets(n, w):
                dops = gaps_of(positions, n)
                assert sorted(_closed_keys(dops, n, 2)) == sorted(
                    s * n + t
                    for row in anchored_difference_table(dops)
                    for s, t in itertools.combinations(row, 2)
                    if s + t <= n
                )


def test_pattern_keys_are_the_row_subsets_at_every_k():
    """Without one length every k-subset of every row is a key; with one,
    above k = 2, the subsets with s_1 + s_k <= n, each as often as the
    table holds it."""
    for n in range(3, 13):
        for w in range(2, min(6, n) + 1):
            for positions in rotation_classes(n, w):
                dops = gaps_of(positions, n)
                code = Dopr(dops, n)
                rows = anchored_difference_table(dops)
                for k in range(1, w):
                    subsets = sorted(
                        s for row in rows for s in itertools.combinations(row, k)
                    )
                    assert sorted(code._pattern_keys(k, False)) == subsets
                    if k >= 3:
                        assert sorted(code._pattern_keys(k, True)) == [
                            s for s in subsets if s[0] + s[-1] <= n
                        ]
