"""Representation round trips, canonical forms, and parameter validation."""

from __future__ import annotations

import itertools

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

from oracles import all_subsets, gaps_of


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
