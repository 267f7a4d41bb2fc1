"""Both correlation routes, their agreement, and the size bound."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oockit import (
    BinaryCode,
    CodeParams,
    Dopr,
    PartialDopr,
    Wpr,
    autocorr_bruteforce,
    autocorr_edop,
    crosscorr_bruteforce,
    crosscorr_edop,
    binary_from_wpr,
    dopr_from_wpr,
    edop_full,
    edop_partial,
    interset_crosscorr,
    johnson_bound,
    set_lambda_a,
    set_lambda_c,
    set_size_bound,
)

from oockit.correlation import _row_overlaps, _shift_peaks
from oracles import (
    all_subsets,
    auto_profile,
    bits_from_positions,
    companion_positions,
    cross_profile,
    gaps_of,
    max_auto,
    max_cross,
    nested_floor_bound,
)

X = BinaryCode((0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0))
Y = BinaryCode((1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0))
HUGE_N = 10**12 + 39


def test_worked_auto_correlation():
    report = autocorr_bruteforce(X)
    assert report.lambda_ax == 2
    assert report.per_shift == auto_profile(X.bits)
    assert autocorr_edop(Dopr((2, 3, 4, 4), 13)).lambda_ax == 2


def test_worked_cross_correlation():
    report = crosscorr_bruteforce(X, Y)
    assert report.per_shift == (2, 0, 1, 2, 1, 0, 2, 1, 2, 0, 2, 1, 2)
    assert report.lambda_cxy == 2
    assert crosscorr_edop(
        Dopr((2, 3, 4, 4), 13), Dopr((1, 2, 6, 4), 13)
    ).lambda_cxy == 2


def test_auto_accepts_all_three_representations():
    wpr = Wpr((1, 3, 6, 10), 13)
    assert autocorr_bruteforce(X).lambda_ax == autocorr_bruteforce(wpr).lambda_ax
    assert (
        autocorr_bruteforce(dopr_from_wpr(wpr)).lambda_ax
        == autocorr_bruteforce(X).lambda_ax
    )


def test_routes_agree_exhaustively():
    for n in (7, 13):
        for w in (3, 4):
            for positions in all_subsets(n, w):
                dopr = dopr_from_wpr(Wpr(positions, n))
                assert (
                    autocorr_bruteforce(dopr).lambda_ax
                    == autocorr_edop(dopr).lambda_ax
                )


def test_cross_routes_agree_on_random_pairs():
    rng = random.Random(20260817)
    for _ in range(300):
        n = rng.randrange(8, 40)
        w = rng.randrange(2, min(6, n - 1) + 1)
        xpos = tuple(sorted(rng.sample(range(n), w)))
        ypos = tuple(sorted(rng.sample(range(n), w)))
        x = Wpr(xpos, n)
        y = Wpr(ypos, n)
        brute = crosscorr_bruteforce(x, y)
        assert brute.lambda_cxy == crosscorr_edop(
            dopr_from_wpr(x), dopr_from_wpr(y)
        ).lambda_cxy
        assert brute.per_shift == cross_profile(
            bits_from_positions(xpos, n), bits_from_positions(ypos, n)
        )


def test_auto_correlation_rejects_weight_one():
    with pytest.raises(ValueError):
        autocorr_bruteforce(Wpr((3,), 9))
    with pytest.raises(ValueError):
        autocorr_edop(Dopr((9,), 9))


def test_unequal_lengths_point_at_the_table_route():
    with pytest.raises(ValueError, match="crosscorr_edop"):
        crosscorr_bruteforce(Dopr((1, 2, 4), 7), Dopr((2, 3, 4, 4), 13))
    # The table route itself has no length restriction.
    crosscorr_edop(Dopr((1, 2, 4), 7), Dopr((2, 3, 4, 4), 13))


def test_comparison_tallies_are_exact():
    x = Dopr((2, 3, 4, 4), 13)
    y = Dopr((1, 2, 6, 4), 13)
    n, w = 13, 4
    assert autocorr_edop(x, count_comparisons=True).comparisons == (
        w * (w - 1) ** 3 // 2
    )  # 54
    assert crosscorr_edop(x, y, count_comparisons=True).comparisons == (
        w**2 * (w - 1) ** 2
    )  # 144
    assert autocorr_bruteforce(x, count_comparisons=True).comparisons == (
        n * (n - 1)
    )  # 156
    assert crosscorr_bruteforce(x, y, count_comparisons=True).comparisons == (
        n**2
    )  # 169


def draw_positions(data):
    n = data.draw(st.integers(4, 40))
    w = data.draw(st.integers(2, min(6, n)))
    positions = data.draw(
        st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True)
    )
    return tuple(sorted(positions)), n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_route_counting_path_matches_default_and_definition(data):
    xpos, xn = draw_positions(data)
    ypos, yn = draw_positions(data)
    x = dopr_from_wpr(Wpr(xpos, xn))
    y = dopr_from_wpr(Wpr(ypos, yn))
    wx, wy = len(xpos), len(ypos)
    auto = autocorr_edop(x, count_comparisons=True)
    assert auto.lambda_ax == autocorr_edop(x).lambda_ax == max_auto(xpos, xn)
    assert auto.comparisons == wx * (wx - 1) ** 3 // 2
    cross = crosscorr_edop(x, y, count_comparisons=True)
    assert cross.lambda_cxy == crosscorr_edop(x, y).lambda_cxy
    if xn == yn:
        assert cross.lambda_cxy == max_cross(xpos, ypos, xn)
    assert cross.comparisons == wx * wy * (wx - 1) * (wy - 1)


@st.composite
def table_codes(draw):
    """A complete or partial code, n in 4..24, w in 2..6: its table's rows
    share entries often at these sizes."""
    n = draw(st.integers(4, 24))
    w = draw(st.integers(2, min(6, n - 1)))
    rest = draw(st.sets(st.integers(1, n - 1), min_size=w - 1, max_size=w - 1))
    code = dopr_from_wpr(Wpr((0, *sorted(rest)), n))
    if w > 2 and draw(st.booleans()):
        return PartialDopr(code.dops[: draw(st.integers(1, w - 2))], n, w)
    return code


def positions_of(code):
    """One-bit positions of a code, or of a partial code's closed companion."""
    dops = code.dops if isinstance(code, PartialDopr) else code.dops[:-1]
    return companion_positions(dops)


@settings(max_examples=300, deadline=None)
@given(st.lists(table_codes(), min_size=1, max_size=8), st.data())
def test_row_overlaps_match_the_literal_scan_and_the_definition(codes, data):
    tables = [c.table for c in codes]
    overlaps = _row_overlaps(tables)
    for i, x in enumerate(codes):
        auto = autocorr_edop(x, count_comparisons=True).lambda_ax
        assert overlaps[i, i] == auto - 1 == max_auto(positions_of(x), x.n) - 1
        for j in range(i + 1, len(codes)):
            y = codes[j]
            cross = crosscorr_edop(x, y, count_comparisons=True).lambda_cxy
            assert overlaps[i, j] == overlaps[j, i] == cross - 1
            assert overlaps.peak(range(i, i + 1), range(j, j + 1)) == cross - 1
            if x.n == y.n:
                assert cross == max_cross(positions_of(x), positions_of(y), x.n)
    scan_auto = [autocorr_edop(c, count_comparisons=True).lambda_ax for c in codes]
    assert set_lambda_a(codes) == max(scan_auto)
    if len(codes) > 1:
        assert set_lambda_c(codes) == max(
            crosscorr_edop(x, y, count_comparisons=True).lambda_cxy
            for x, y in itertools.combinations(codes, 2)
        )
    # Three sets drawn from the codes; they may share codes.  The literal
    # scan reads every pair from different sets without the reader.
    members = st.lists(st.sampled_from(codes), min_size=1, max_size=len(codes))
    a, b, c = data.draw(members), data.draw(members), data.draw(members)
    assert interset_crosscorr(a, b) == max(
        crosscorr_edop(x, y, count_comparisons=True).lambda_cxy
        for x in a
        for y in b
    )
    assert interset_crosscorr(a, b, c) == max(
        crosscorr_edop(x, y, count_comparisons=True).lambda_cxy
        for first, second in itertools.combinations((a, b, c), 2)
        for x in first
        for y in second
    )


def test_row_overlaps_of_no_tables_and_of_disjoint_rows():
    assert _row_overlaps([]).peak(range(0), range(0)) == 0
    x, y = edop_full(Dopr((1, 3, 9), 13)), edop_full(Dopr((2, 5, 6), 13))
    disjoint = _row_overlaps([x, y])
    assert disjoint[0, 0] == disjoint[0, 1] == disjoint[1, 1] == 0
    assert disjoint.peak(range(2), range(2)) == 0


def test_row_overlaps_of_a_long_run_of_ones():
    # Weight 40 as one run of consecutive one-bits at n = 1000: two of its
    # rows share up to 38 entries, and two copies share whole rows.  An
    # index that enumerated each row's entry subsets would take 2^39 steps.
    n, positions = 1000, tuple(range(40))
    table = dopr_from_wpr(Wpr(positions, n)).table
    assert 1 + _row_overlaps([table])[0, 0] == max_auto(positions, n) == 39
    twice = _row_overlaps([table, table])
    assert 1 + twice[0, 1] == max_cross(positions, positions, n) == 40
    assert (twice[0, 0], twice[0, 1], twice[1, 1]) == (38, 39, 38)


def test_table_route_rejects_bit_patterns():
    with pytest.raises(TypeError):
        autocorr_edop(X)
    with pytest.raises(TypeError):
        crosscorr_edop(X, Y)


def test_comparison_counting_defaults_off():
    assert autocorr_edop(Dopr((2, 3, 4, 4), 13)).comparisons is None
    assert crosscorr_bruteforce(X, Y).comparisons is None


def test_table_route_saves_work_at_the_worked_size():
    x = Dopr((2, 3, 4, 4), 13)
    y = Dopr((1, 2, 6, 4), 13)
    assert (
        autocorr_edop(x, count_comparisons=True).comparisons
        < autocorr_bruteforce(x, count_comparisons=True).comparisons
    )
    assert (
        crosscorr_edop(x, y, count_comparisons=True).comparisons
        < crosscorr_bruteforce(x, y, count_comparisons=True).comparisons
    )


@pytest.mark.parametrize(
    "n,w,lam,expected",
    [
        (7, 3, 1, 1),
        (13, 4, 1, 1),
        (25, 3, 1, 4),
        (7, 3, 2, 5),
        (31, 5, 1, 1),
    ],
)
def test_johnson_bound_known_values(n, w, lam, expected):
    assert johnson_bound(n, w, lam) == expected


def test_johnson_bound_validates_arguments():
    with pytest.raises(ValueError):
        johnson_bound(13, 4, 4)
    with pytest.raises(ValueError):
        johnson_bound(13, 4, 0)
    with pytest.raises(ValueError):
        johnson_bound(13.0, 4, 1)
    with pytest.raises(ValueError):
        johnson_bound(25, 3, True)


def test_set_size_bound_is_the_bound_at_the_larger_ceiling():
    # Recorded at max(lambda_a, lambda_c), enforced only when they coincide.
    for w in range(3, 7):
        ceilings = range(1, min(4, w))
        for n, a, c in itertools.product(range(w + 1, 41), ceilings, ceilings):
            expected = (nested_floor_bound(n, w, max(a, c)), a == c)
            assert set_size_bound(CodeParams(n, w, a, c)) == expected, (n, w, a, c)


def test_set_helpers():
    codes = [Dopr((1, 2, 4), 7), Dopr((2, 1, 4), 7)]
    assert set_lambda_a(codes) == 1
    assert set_lambda_a(codes) == max(autocorr_bruteforce(c).lambda_ax for c in codes)
    assert set_lambda_c(codes) == 2
    assert set_lambda_c(codes) == max(
        crosscorr_bruteforce(a, b).lambda_cxy
        for i, a in enumerate(codes)
        for b in codes[i + 1 :]
    )
    with pytest.raises(ValueError):
        set_lambda_a([])
    with pytest.raises(ValueError):
        set_lambda_c([codes[0]])


def test_interset_crosscorr_on_plain_iterables():
    a = [Dopr((1, 2, 4), 7)]
    b = [Dopr((2, 1, 4), 7)]
    assert interset_crosscorr(a, b) == 2
    # A set against itself hits the identical pair, giving the weight.
    assert interset_crosscorr(a, a) == 3
    with pytest.raises(ValueError):
        interset_crosscorr(a, [])
    with pytest.raises(ValueError):
        interset_crosscorr(a)


def test_edop_route_accepts_prebuilt_matrices():
    mx = edop_full(Dopr((2, 3, 4, 4), 13))
    assert autocorr_edop(mx).lambda_ax == 2
    assert crosscorr_edop(mx, mx).lambda_cxy == 4


def test_edop_route_accepts_partial_codes():
    partial = PartialDopr((2, 3), 13, 4)
    table = edop_partial(partial)
    other = Dopr((2, 3, 4, 4), 13)
    assert autocorr_edop(partial) == autocorr_edop(table)
    assert crosscorr_edop(partial, other) == crosscorr_edop(table, other)


REPRESENTATIONS = {"binary": binary_from_wpr, "wpr": lambda c: c, "dopr": dopr_from_wpr}


def bits_of(code):
    """The bit pattern a code stands for; a Dopr is anchored at position 0."""
    if isinstance(code, BinaryCode):
        return code.bits
    if isinstance(code, Dopr):
        positions = itertools.accumulate(code.dops[:-1], initial=0)
    else:
        positions = code.positions
    return bits_from_positions(positions, code.n)


def draw_code(data, n, min_weight):
    positions = data.draw(
        st.sets(st.integers(0, n - 1), min_size=min_weight, max_size=n)
    )
    kind = data.draw(st.sampled_from(sorted(REPRESENTATIONS)))
    return REPRESENTATIONS[kind](Wpr(tuple(sorted(positions)), n))


@given(st.data())
def test_pair_counting_auto_profile_matches_the_definition(data):
    n = data.draw(st.integers(2, 64))
    code = draw_code(data, n, 2)
    expected = auto_profile(bits_of(code))
    report = autocorr_bruteforce(code)
    assert report.per_shift == expected
    assert report.lambda_ax == max(expected)
    literal = autocorr_bruteforce(code, count_comparisons=True)
    assert (literal.lambda_ax, literal.per_shift) == (report.lambda_ax, expected)


@given(st.data())
def test_pair_counting_cross_profile_matches_the_definition(data):
    n = data.draw(st.integers(2, 64))
    x = draw_code(data, n, 1)
    y = draw_code(data, n, 1)
    expected = cross_profile(bits_of(x), bits_of(y))
    report = crosscorr_bruteforce(x, y)
    assert report.per_shift == expected
    assert report.lambda_cxy == max(expected)
    literal = crosscorr_bruteforce(x, y, count_comparisons=True)
    assert (literal.lambda_cxy, literal.per_shift) == (report.lambda_cxy, expected)


def test_profiles_stay_sparse_until_asked_for():
    n = 10**12 + 39
    x = Dopr((1, 2, n - 3), n)
    y = Dopr((4, 8, n - 12), n)
    # w(w-1) ordered pairs of distinct one-bits, all at different shifts.
    shifts = (1, 2, 3, n - 3, n - 2, n - 1)
    assert autocorr_bruteforce(x).hits == dict.fromkeys(shifts, 1)
    assert len(crosscorr_bruteforce(x, y).hits) == 9
    assert autocorr_edop(x).per_shift is None
    assert crosscorr_edop(x, y).per_shift is None


@st.composite
def shift_runs(draw):
    """A run of 1-6 codes of one length n in 7..61, each of weight 2..6 as
    sorted one-bit positions.  A code may repeat an earlier one, which it
    meets in full at shift 0, or hold three one-bits a, a + g, a + 2g,
    which meet at shift g twice: a self peak of at least 2."""
    n = draw(st.integers(7, 61))
    run: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 6))):
        kinds = ("any", "gap", "repeat") if run else ("any", "gap")
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat":
            run.append(draw(st.sampled_from(run)))
            continue
        held: set[int] = set()
        if kind == "gap":
            a, g = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
            held = {a, (a + g) % n, (a + 2 * g) % n}
        w = max(len(held), draw(st.integers(2, 6)))
        rest = st.integers(0, n - 1).filter(lambda p: p not in held)
        held |= draw(st.sets(rest, min_size=w - len(held), max_size=w - len(held)))
        run.append(tuple(sorted(held)))
    return n, run


@settings(max_examples=300, deadline=None)
@given(shift_runs())
@example((7, [(0, 1, 3), (0, 1, 3)]))  # a repeated code: peak 3 at shift 0
@example((12, [(0, 2, 4, 7), (1, 5, 9)]))  # repeated gaps: self peaks 2 and 3
def test_shift_peaks_match_the_definition_and_the_pair_routes(run):
    n, positions = run
    peaks = _shift_peaks(positions, n)
    assert [len(row) for row in peaks] == list(range(len(positions), 0, -1))
    for i, x in enumerate(positions):
        assert peaks[i][0] == max_auto(x, n) == autocorr_bruteforce(Wpr(x, n)).lambda_ax
        for j in range(i + 1, len(positions)):
            y = positions[j]
            cross = crosscorr_bruteforce(Wpr(x, n), Wpr(y, n)).lambda_cxy
            assert peaks[i][j - i] == max_cross(x, y, n) == cross


def test_shift_peaks_at_a_huge_length():
    # Weight 3 at n = 10**12 + 39: the work is w^2 per pair, whatever n is.
    # (0, 1, n - 1) has gaps 1, n - 2, 1, so shifts 1 and n - 1 each meet
    # twice; it meets its copy in full at shift 0, and (0, 1, 3) at shifts
    # 0, 1 and 2 twice each.
    n = HUGE_N
    positions = [(0, 1, n - 1), (0, 1, n - 1), (0, 4, 12), (0, 1, 3)]
    assert _shift_peaks(positions, n) == [[2, 3, 1, 2], [2, 1, 2], [1, 1], [1]]
    codes = [Wpr(x, n) for x in positions]
    assert [autocorr_bruteforce(c).lambda_ax for c in codes] == [2, 2, 1, 1]
    assert [crosscorr_bruteforce(codes[0], c).lambda_cxy for c in codes] == [
        3, 3, 1, 2
    ]
