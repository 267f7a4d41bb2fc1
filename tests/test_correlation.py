"""Both correlation routes, their agreement, and the size bound."""

from __future__ import annotations

import itertools
import random

import pytest

from oockit import (
    BinaryCode,
    Dopr,
    Wpr,
    autocorr_bruteforce,
    autocorr_edop,
    crosscorr_bruteforce,
    crosscorr_edop,
    dopr_from_wpr,
    edop_full,
    interset_crosscorr,
    johnson_bound,
    set_lambda_a,
    set_lambda_c,
)

from oracles import (
    all_subsets,
    auto_profile,
    bits_from_positions,
    cross_profile,
    gaps_of,
)

X = BinaryCode((0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0))
Y = BinaryCode((1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0))


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


def test_set_helpers():
    codes = [Dopr((1, 2, 4), 7), Dopr((2, 1, 4), 7)]
    assert set_lambda_a(codes) == 1
    assert set_lambda_a(codes, method="bruteforce") == 1
    assert set_lambda_c(codes) == 2
    assert set_lambda_c(codes, method="bruteforce") == 2
    with pytest.raises(ValueError):
        set_lambda_a([])
    with pytest.raises(ValueError):
        set_lambda_c([codes[0]])
    with pytest.raises(ValueError):
        set_lambda_a(codes, method="psychic")


def test_interset_crosscorr_on_plain_iterables():
    a = [Dopr((1, 2, 4), 7)]
    b = [Dopr((2, 1, 4), 7)]
    assert interset_crosscorr(a, b) == 2
    # A set against itself hits the identical pair, giving the weight.
    assert interset_crosscorr(a, a) == 3
    with pytest.raises(ValueError):
        interset_crosscorr(a, [])


def test_edop_route_accepts_prebuilt_matrices():
    mx = edop_full(Dopr((2, 3, 4, 4), 13))
    assert autocorr_edop(mx).lambda_ax == 2
    assert crosscorr_edop(mx, mx).lambda_cxy == 4
