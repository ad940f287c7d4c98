"""Digit expansion, reconstruction, continuants, cylinder endpoints."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecfrac.expansion import (CertifiedExpansion, continuants,
                              cylinder_endpoints, expand_interval,
                              expand_rational, is_admissible, reconstruct)

from reference_cells import cell_prefix
from reference_walk import reference_expand_interval

# frozen oracles: greedy expansions computed by hand via d = floor(1/x),
# x -> (1/d)(1/x - d).  e.g. 5/19: 19/5 = 3.8 -> 3, remainder 4/15;
# 15/4 = 3.75 -> 3, remainder 1/4 -> 4.
GOLDEN_EXPANSIONS = [
    (Fraction(1, 2), (2,)),
    (Fraction(7, 10), (1, 2, 6)),
    (Fraction(1, 3), (3,)),
    (Fraction(2, 3), (1, 2)),
    (Fraction(3, 7), (2, 6)),
    (Fraction(1, 35), (35,)),
    (Fraction(5, 19), (3, 3, 4)),
    (Fraction(999, 1000), (1, 999)),
]


@st.composite
def words(draw, max_len=8, max_digit=30):
    """Non-decreasing admissible words."""
    length = draw(st.integers(1, max_len))
    digits = []
    prev = 1
    for _ in range(length):
        nxt = draw(st.integers(prev, max_digit))
        digits.append(nxt)
        prev = nxt
    return tuple(digits)


@st.composite
def canonical_words(draw, max_len=8, max_digit=30):
    """Words in the image of the greedy algorithm: last digit strictly
    exceeds its predecessor (or the word has length 1)."""
    length = draw(st.integers(1, max_len))
    if length == 1:
        return (draw(st.integers(1, max_digit)),)
    digits = []
    prev = 1
    for _ in range(length - 1):
        nxt = draw(st.integers(prev, max_digit - 1))
        digits.append(nxt)
        prev = nxt
    digits.append(draw(st.integers(prev + 1, max_digit)))
    return tuple(digits)


def test_golden_expansions():
    for x, expected in GOLDEN_EXPANSIONS:
        exp = expand_rational(x)
        assert exp.digits == expected, (x, exp.digits)
        assert not exp.truncated


def test_reconstruct_golden():
    assert reconstruct((1, 2, 6)) == Fraction(7, 10)
    assert reconstruct((2,)) == Fraction(1, 2)
    assert reconstruct((2, 2)) == Fraction(1, 3)  # non-canonical spelling of (3,)


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=1,
                    max_denominator=10**6))
def test_value_round_trip(x):
    exp = expand_rational(x, max_digits=400)
    assert not exp.truncated
    assert reconstruct(exp.digits) == x


@given(canonical_words())
def test_word_round_trip_on_canonical_words(w):
    assert expand_rational(reconstruct(w), max_digits=200).digits == w


def test_noncanonical_word_does_not_round_trip():
    assert expand_rational(reconstruct((2, 2))).digits == (3,)


@given(words())
def test_digits_non_decreasing_and_admissible(w):
    assert is_admissible(w)
    exp = expand_rational(reconstruct(w), max_digits=200)
    assert all(a <= b for a, b in zip(exp.digits, exp.digits[1:]))


def test_inadmissible_rejected():
    assert not is_admissible((2, 1))
    assert not is_admissible((0,))
    assert not is_admissible((1, 3, 2))
    assert is_admissible(())  # the trivial prefix
    with pytest.raises(ValueError, match="inadmissible digit word"):
        reconstruct((2, 1))
    with pytest.raises(ValueError, match="inadmissible digit word"):
        continuants((2, 1))


def test_continuants_all_ones_are_fibonacci():
    # Q_k = F_{k+1} for the all-ones word: Q_0 = Q_1 = 1, Q_2 = 2, ...
    assert list(continuants((1,) * 10)) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_continuants_recurrence():
    w = (2, 3, 3, 7)
    qs = continuants(w)
    # recurrence Q_n = b_n Q_{n-1} + b_{n-1} Q_{n-2} with Q_{-1} = 0, Q_0 = 1
    assert qs[0] == 1
    full = list(qs)
    for i in range(2, len(full)):
        assert full[i] == w[i - 1] * full[i - 1] + w[i - 2] * full[i - 2]


@given(words())
def test_cylinder_endpoints_bracket_reconstruction(w):
    lo, hi = cylinder_endpoints(w)
    assert lo < hi
    x = reconstruct(w)
    assert lo <= x <= hi


def test_truncation_reports_honestly():
    x = reconstruct((1,) * 10 + (2,))
    exp = expand_rational(x, max_digits=4)
    assert exp.truncated
    assert exp.digits == (1, 1, 1, 1)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1,
                    max_denominator=1000))
@settings(max_examples=60)
def test_expand_interval_agrees_on_points(x):
    cell = expand_interval(x, x, max_digits=100)
    full = expand_rational(x, max_digits=100)
    assert cell == full


unit_rationals = st.fractions(min_value=Fraction(1, 10**9), max_value=1,
                              max_denominator=10**9)


def _assert_walk_matches_reference(a, b, max_digits):
    lo, hi = min(a, b), max(a, b)
    assert expand_interval(lo, hi, max_digits) == \
        reference_expand_interval(lo, hi, max_digits)
    assert expand_rational(a, max_digits) == \
        reference_expand_interval(a, a, max_digits)


_HUGE_FOURTH_DIGIT = reconstruct((1, 2, 3, 2**4000, 2**4001))
_NEAR_MULTIPLE = Fraction(3**5000, 7 * 3**5000 - 1)


@given(unit_rationals, unit_rationals, st.integers(1, 40))
@example(_HUGE_FOURTH_DIGIT, _HUGE_FOURTH_DIGIT, 150)
@example(reconstruct((1, 2, 3, 2**4000)), _HUGE_FOURTH_DIGIT, 150)
@example(_NEAR_MULTIPLE, _NEAR_MULTIPLE, 150)
@settings(max_examples=200)
def test_walk_matches_reference(a, b, max_digits):
    _assert_walk_matches_reference(a, b, max_digits)


_Q_20000 = 2**20000 + 12345
_LONG_WALK = Fraction(5**8600, _Q_20000)   # walks past 150 digits


# Not @examples: hypothesis prints each example with repr, and a Fraction
# with a 20,000-bit denominator has more decimal digits than str(int) allows.
@pytest.mark.parametrize("a, b", [
    (Fraction(3**1000, _Q_20000), Fraction(3**1000, _Q_20000)),
    (Fraction(1, _Q_20000), Fraction(3**1000, _Q_20000)),
    (_LONG_WALK, _LONG_WALK),
    (_LONG_WALK, _LONG_WALK + Fraction(1, 2**19000)),
], ids=["small-numerator", "one-over-q", "long-walk", "long-walk-interval"])
def test_walk_matches_reference_on_20000_bit_denominators(a, b):
    _assert_walk_matches_reference(a, b, 150)


@pytest.mark.parametrize("lo_word, hi_word, max_digits, truncated", [
    ((1, 2, 6), (1, 2, 6), 2, True),             # the point 7/10
    ((1, 2, 6), (1, 2, 6), 3, False),
    ((1, 2, 6), (1, 2, 6), 4, False),
    ((1, 2, 6, 7), (1, 2, 6, 7, 8), 4, False),   # the lower end ends at max_digits
    ((1, 2, 6, 7), (1, 2, 6), 3, False),         # the upper end ends at max_digits
])
def test_stop_rule_at_max_digits(lo_word, hi_word, max_digits, truncated):
    lo, hi = reconstruct(lo_word), reconstruct(hi_word)
    assert lo <= hi
    cell = expand_interval(lo, hi, max_digits)
    assert cell == reference_expand_interval(lo, hi, max_digits)
    assert cell.digits == min(lo_word, hi_word, key=len)[:max_digits]
    assert cell.truncated is truncated
    if lo == hi:
        assert expand_rational(lo, max_digits) == cell


def test_interval_prefix_at_the_ends_of_the_unit_interval():
    # [1 - 2^-16, 1]: b_1 = 1 throughout, then the cell reaches 1, whose
    # expansion ends, so b_2 is unbounded near it.
    assert expand_interval(1 - Fraction(1, 2**16), Fraction(1), 5) == \
        CertifiedExpansion((1,), False)
    # At depth 1 a full prefix is truncated only when the budget cut the
    # walk: [9/16, 10/16] could certify more digits, but [15/16, 1] reaches
    # 1, whose expansion ends at b_1 = 1.
    assert expand_interval(Fraction(9, 16), Fraction(10, 16), 1) == \
        CertifiedExpansion((1,), True)
    assert expand_interval(Fraction(15, 16), Fraction(1), 1) == CertifiedExpansion((1,), False)
    # The cell sampler's cell [0, 2^-B] touches 0, where b_1 is unbounded;
    # expand_interval refuses it, and the oracle's own rule shares no digit.
    assert cell_prefix(0, 2**16, 5) == []


def test_expand_interval_certifies_shared_prefix():
    # both endpoints start 1, 2, ... but diverge later
    lo, hi = Fraction(7, 10), Fraction(71, 100)
    cell = expand_interval(lo, hi, max_digits=50)
    for x in (lo, hi, Fraction(141, 200)):
        full = expand_rational(x, max_digits=50)
        k = len(cell.digits)
        assert full.digits[:k] == cell.digits


def test_expand_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        expand_interval(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        expand_interval(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError, match="max_digits must be >= 1"):
        expand_rational(Fraction(1, 3), max_digits=0)


def test_empty_word_refused():
    with pytest.raises(ValueError, match="empty word"):
        reconstruct(())
    with pytest.raises(ValueError, match="empty word"):
        cylinder_endpoints(())


def test_expansion_dataclass_fields():
    exp = expand_rational(Fraction(7, 10))
    assert isinstance(exp, CertifiedExpansion)
    assert exp.digits == (1, 2, 6)
    assert exp.truncated is False
