"""Difference-table construction, augmentation, and closure checks."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from oockit import (
    Dopr,
    EdopMatrix,
    PartialDopr,
    Wpr,
    autocorr_edop,
    check_complement_closure,
    dopr_from_wpr,
    edop_full,
    edop_partial,
    standardize,
    zero_augment,
)
from oockit.correlation import _as_matrix
from oockit.edop import _check_integers

from oracles import all_subsets, anchored_difference_table, gaps_of

WORKED = Dopr((2, 3, 4, 4), 13)


def test_full_table_of_the_worked_code():
    table = edop_full(WORKED)
    assert table.rows == (
        (2, 5, 9),
        (3, 7, 11),
        (4, 8, 10),
        (4, 6, 9),
    )
    assert table.n == 13
    assert table.weight == 4


def test_full_table_matches_oracle_exhaustively():
    for n in range(3, 12):
        for w in range(2, min(6, n) + 1):
            for positions in all_subsets(n, w):
                dops = gaps_of(positions, n)
                assert edop_full(Dopr(dops, n)).rows == anchored_difference_table(
                    dops
                )


def test_full_table_rejects_weight_one():
    with pytest.raises(ValueError):
        edop_full(Dopr((13,), 13))


def test_partial_table_is_the_closed_companion_table():
    # (2, 3) at n=13, w=4 closes to the weight-3 code (2, 3, 8).
    partial = edop_partial(PartialDopr((2, 3), 13, 4))
    assert partial.rows == edop_full(Dopr((2, 3, 8), 13)).rows


def test_partial_table_at_full_prefix_equals_the_full_table():
    # With w-1 elements fixed the companion is the finished code itself.
    partial = edop_partial(PartialDopr((2, 3, 4), 13, 4))
    assert partial.rows == edop_full(WORKED).rows


@pytest.mark.parametrize("build", [edop_full, edop_partial])
@pytest.mark.parametrize("code", [Dopr((2, 3, 8), 13), PartialDopr((2, 3), 13, 4)])
def test_both_builders_give_the_table_of_the_closed_tuple(build, code):
    """A complete code's own table, and a partial one's companion's: here
    both are the table of (2, 3, 8), whose self correlation is 1."""
    table = build(code)
    assert table.rows == ((2, 5), (3, 11), (8, 10))
    assert table == EdopMatrix(table.rows, 13)
    assert autocorr_edop(table).lambda_ax == 1


@st.composite
def table_owners(draw, max_n=40, max_w=6):
    """A Dopr, StandardDopr or PartialDopr with n in 4..max_n and w in 2..max_w."""
    n = draw(st.integers(4, max_n))
    w = draw(st.integers(2, min(max_w, n - 1)))
    rest = draw(st.sets(st.integers(1, n - 1), min_size=w - 1, max_size=w - 1))
    code = dopr_from_wpr(Wpr((0, *sorted(rest)), n))
    kind = draw(st.sampled_from(("dopr", "standard", "partial")))
    if kind == "standard":
        return standardize(code)
    if kind == "partial":
        return PartialDopr(code.dops[: draw(st.integers(1, w - 1))], n, w)
    return code


@given(table_owners())
def test_a_code_keeps_the_table_its_builder_gives(code):
    assert _as_matrix(code) is code.table
    assert code.table is code.table
    assert code.table == edop_full(code) == edop_partial(code)


@given(table_owners(max_n=60, max_w=7))
def test_the_checked_constructor_accepts_every_table_a_code_builds(code):
    """Codes build their tables unchecked; the public constructor agrees."""
    assert EdopMatrix(code.table.rows, code.n) == code.table


def test_entry_set_holds_every_table_entry():
    table = edop_full(WORKED)
    assert table.entry_set == frozenset({2, 3, 4, 5, 6, 7, 8, 9, 10, 11})


def test_zero_augment_rows_are_the_anchored_shifts():
    augmented = zero_augment(edop_full(WORKED))
    assert set(augmented.rows) == {
        (0, 2, 5, 9),
        (0, 3, 7, 11),
        (0, 4, 8, 10),
        (0, 4, 6, 9),
    }
    assert augmented.n == 13


def test_zero_augment_rows_really_are_shifts_of_the_code():
    """Each augmented row, read as positions, is a rotation of the original."""
    reference = {
        tuple(sorted((p - s) % 13 for p in (1, 3, 6, 10))) for s in range(13)
    }
    for row in zero_augment(edop_full(WORKED)).rows:
        assert row in reference
        assert dopr_from_wpr(Wpr(row, 13)).dops in {
            r for r in ((2, 3, 4, 4), (3, 4, 4, 2), (4, 4, 2, 3), (4, 2, 3, 4))
        }


def test_complement_closure_holds_for_every_full_table():
    for n in range(3, 12):
        for w in range(2, min(5, n) + 1):
            for positions in all_subsets(n, w):
                table = edop_full(Dopr(gaps_of(positions, n), n))
                assert check_complement_closure(table)


def test_complement_closure_fails_for_a_hand_built_non_table():
    # Structurally valid rows that are not any code's table: 1 appears
    # twice but its complement 4 never.
    fake = EdopMatrix(((1, 2), (1, 3), (2, 3)), 5)
    assert not check_complement_closure(fake)


def test_matrix_validation_rejects_malformed_rows():
    with pytest.raises(ValueError):
        EdopMatrix(((1, 2), (1, 3)), 5)          # needs rows = columns + 1
    with pytest.raises(ValueError):
        EdopMatrix(((2, 1), (1, 3), (2, 3)), 5)  # not increasing
    with pytest.raises(ValueError):
        EdopMatrix(((1, 5), (1, 3), (2, 3)), 5)  # entry out of range
    with pytest.raises(ValueError):
        EdopMatrix((), 5)


@pytest.mark.parametrize(
    "rows, n, message",
    [
        ((), 5, "a difference table needs at least one row"),
        (((1, 2), (1, 3)), 5, "table must have one more row than columns"),
        (((), ()), 5, "table must have one more row than columns"),
        (((1, 2), (1, 3), (2,)), 5, "rows must have equal length"),
        (((1, 2), (1, 3, 4), (2, 3)), 5, "rows must have equal length"),
        (((0, 2), (1, 3), (2, 3)), 5, "entries must lie in [1, 4]"),
        (((1, 5), (1, 3), (2, 3)), 5, "entries must lie in [1, 4]"),
        (((1, 2), (1, 3), (2, -3)), 5, "entries must lie in [1, 4]"),
        (((2, 1), (1, 3), (2, 3)), 5, "row entries must be strictly increasing"),
        (((1, 2), (1, 3), (3, 3)), 5, "row entries must be strictly increasing"),
        # Tables are public inputs to the correlation functions, which would
        # score a float entry like any other.
        (((1.5, 2), (1, 3), (2, 3)), 5, "n and each entry must be an integer"),
        (((True, 2), (1, 3), (2, 3)), 5, "n and each entry must be an integer"),
        (((1, 2), (1, 3), (2, 3)), 5.0, "n and each entry must be an integer"),
    ],
)
def test_matrix_validation_messages(rows, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EdopMatrix(rows, n)


def test_matrix_accepts_int_subclasses_other_than_bool():
    class I(int):
        pass

    table = EdopMatrix(((I(1), I(2)), (1, I(3)), (2, 3)), I(5))
    assert table.weight == 3


class _Int(int):
    pass


@pytest.mark.parametrize(
    "values, accepted",
    [
        ((7,), True),
        ((7, 0, -3), True),
        ((_Int(7),), True),
        ((7, _Int(7)), True),
        ((), True),
        ((True,), False),
        ((7.0,), False),
        (("7",), False),
        ((None,), False),
        ((7, 7.0), False),
        ((7, True, _Int(7)), False),
    ],
)
def test_check_integers_accepts_ints_and_their_subclasses_but_bool(values, accepted):
    if accepted:
        assert _check_integers("n and each entry", *values) is None
    else:
        with pytest.raises(ValueError) as excinfo:
            _check_integers("n and each entry", *values)
        assert str(excinfo.value) == "n and each entry must be an integer"
