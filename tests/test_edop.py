"""Difference-table construction, augmentation, and closure checks."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from oockit import (
    Dopr,
    EdopMatrix,
    PartialDopr,
    Wpr,
    check_complement_closure,
    dopr_from_wpr,
    edop_full,
    edop_partial,
    standardize,
    zero_augment,
)
from oockit.correlation import _as_matrix

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


@st.composite
def table_owners(draw):
    """A Dopr, StandardDopr or PartialDopr with n in 4..40 and w in 2..6."""
    n = draw(st.integers(4, 40))
    w = draw(st.integers(2, min(6, n - 1)))
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
    build = edop_partial if isinstance(code, PartialDopr) else edop_full
    assert _as_matrix(code) is code.table
    assert code.table is code.table
    assert code.table == build(code)


def test_row_sets_and_entry_set():
    table = edop_full(WORKED)
    assert table.row_sets[0] == frozenset({2, 5, 9})
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
