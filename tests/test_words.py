"""Counting and enumerating admissible digit words."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecfrac.words import (BudgetError, WordFamily, count_words,
                          enumerate_words)

small = st.integers(min_value=1, max_value=9)


def test_counts_match_binomials():
    for n in range(1, 9):
        for m in range(1, 9):
            assert count_words(WordFamily(n, m, "exact-last")) == \
                math.comb(n + m - 2, m - 1)
            assert count_words(WordFamily(n, m, "last-at-most")) == \
                math.comb(n + m - 1, m - 1)


@given(n=small, m=small)
def test_at_most_is_sum_of_exacts(n, m):
    # the last-at-most family partitions by exact final digit
    total = sum(count_words(WordFamily(n, j, "exact-last"))
                for j in range(1, m + 1))
    assert total == count_words(WordFamily(n, m, "last-at-most"))


@given(n=st.integers(2, 9), m=st.integers(2, 9))
def test_pascal_rule(n, m):
    exact = lambda a, b: count_words(WordFamily(a, b, "exact-last"))
    assert exact(n, m) == exact(n - 1, m) + exact(n, m - 1)


def test_enumeration_matches_count_and_is_sorted():
    for mode in ("exact-last", "last-at-most"):
        for n, m in [(1, 5), (3, 4), (5, 3), (4, 1)]:
            family = WordFamily(n, m, mode)
            words = list(enumerate_words(family))
            assert len(words) == count_words(family)
            assert words == sorted(words)
            assert len(set(words)) == len(words)
            for w in words:
                assert len(w) == n
                assert all(1 <= a <= b for a, b in zip(w, w[1:])) or n == 1
                assert all(d >= 1 for d in w)
                if mode == "exact-last":
                    assert w[-1] == m
                else:
                    assert w[-1] <= m


def test_enumeration_small_family_explicit():
    family = WordFamily(2, 3, "exact-last")
    assert list(enumerate_words(family)) == [(1, 3), (2, 3), (3, 3)]
    family = WordFamily(2, 2, "last-at-most")
    assert list(enumerate_words(family)) == [(1, 1), (1, 2), (2, 2)]


def test_budget_error_names_the_count():
    family = WordFamily(40, 30, "exact-last")
    with pytest.raises(BudgetError) as err:
        enumerate_words(family, budget=10**6)
    assert err.value.count == count_words(family)
    assert str(err.value.count) in str(err.value)
    # a negative budget is malformed, not a refusal of any count
    with pytest.raises(ValueError, match="budget >= 0, got -1"):
        enumerate_words(WordFamily(1, 1, "exact-last"), budget=-1)
    assert list(enumerate_words(WordFamily(1, 1, "exact-last"), budget=1)) == [(1,)]


def test_count_never_enumerates():
    # astronomically large families still count instantly
    assert count_words(WordFamily(500, 400, "exact-last")) == \
        math.comb(898, 399)


def test_family_validation():
    with pytest.raises(ValueError):
        WordFamily(0, 3, "exact-last")
    with pytest.raises(ValueError):
        WordFamily(3, 0, "exact-last")
    with pytest.raises(ValueError):
        WordFamily(3, 3, "final-digit")
