"""Outward interval arithmetic and the extended-real wrapper."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecfrac.numerics import (ExtendedReal, OutwardInterval, binomial,
                             default_precision, interval_exp, interval_log,
                             interval_pow, interval_sqrt)

getcontext().prec = 60

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)
positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=100,
                                  max_denominator=10**6)


def test_binomial_matches_comb():
    for n in range(12):
        for k in range(12):
            expected = math.comb(n, k) if k <= n else 0
            assert binomial(n, k) == expected


def test_binomial_k_above_n_is_zero():
    assert binomial(3, 7) == 0
    assert binomial(0, 1) == 0


def test_default_precision_env(monkeypatch):
    monkeypatch.delenv("ECF_PRECISION_BITS", raising=False)
    assert default_precision() == 128
    monkeypatch.setenv("ECF_PRECISION_BITS", "192")
    assert default_precision() == 192
    monkeypatch.setenv("ECF_PRECISION_BITS", "four")
    with pytest.raises(ValueError):
        default_precision()
    monkeypatch.setenv("ECF_PRECISION_BITS", "4")
    with pytest.raises(ValueError):
        default_precision()


def test_from_value_encloses_nondyadic():
    iv = OutwardInterval.from_value(Fraction(1, 3))
    assert iv.lo < Fraction(1, 3) < iv.hi
    assert iv.width < Fraction(1, 2**100)


def test_from_value_dyadic_is_exact():
    iv = OutwardInterval.from_value(Fraction(5, 8))
    assert iv.lo == iv.hi == Fraction(5, 8)


def test_endpoints_are_exact_fractions():
    iv = OutwardInterval.from_value(Fraction(1, 7))
    assert isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction)


@given(a=rationals, b=rationals)
def test_add_sub_mul_enclose_exact(a, b):
    ia = OutwardInterval.from_value(a)
    ib = OutwardInterval.from_value(b)
    assert (ia + ib).contains(a + b)
    assert (ia - ib).contains(a - b)
    assert (ia * ib).contains(a * b)


@given(a=rationals, b=positive_rationals)
def test_div_encloses_exact(a, b):
    ia = OutwardInterval.from_value(a)
    ib = OutwardInterval.from_value(b)
    assert (ia / ib).contains(a / b)


@given(a=rationals, k=st.integers(min_value=0, max_value=6))
def test_integer_pow_encloses_exact(a, k):
    assert (OutwardInterval.from_value(a) ** k).contains(a**k)


@given(a=positive_rationals)
@settings(max_examples=50)
def test_exp_log_round_trip(a):
    assert interval_exp(interval_log(a)).contains(a)


@given(a=positive_rationals)
@settings(max_examples=50)
def test_sqrt_squares_back(a):
    root = interval_sqrt(a)
    assert (root * root).contains(a)
    assert root.lo >= 0


def _decimal_oracle(value: Decimal) -> Fraction:
    return Fraction(str(value))


def test_log_against_decimal_oracle():
    # decimal.ln is an independent implementation of the logarithm
    for x in (2, 3, 10, Fraction(1, 2)):
        frac = Fraction(x)
        enc = interval_log(x)
        oracle = _decimal_oracle(Decimal(frac.numerator).ln()
                                 - Decimal(frac.denominator).ln())
        assert enc.contains(oracle)


def test_exp_against_decimal_oracle():
    for x in (1, 2, Fraction(-1, 2)):
        frac = Fraction(x)
        enc = interval_exp(x)
        oracle = _decimal_oracle((Decimal(frac.numerator)
                                  / Decimal(frac.denominator)).exp())
        assert enc.contains(oracle)


def test_sqrt_against_decimal_oracle():
    for x in (2, 5, Fraction(9, 4)):
        enc = interval_sqrt(x)
        frac = Fraction(x)
        oracle = _decimal_oracle((Decimal(frac.numerator) / Decimal(frac.denominator)).sqrt())
        assert enc.contains(oracle)


def test_rational_pow_encloses():
    enc = interval_pow(2, Fraction(1, 2))
    oracle = _decimal_oracle(Decimal(2).sqrt())
    assert enc.contains(oracle)


def test_hull_covers_both():
    a = OutwardInterval.from_value(Fraction(1, 3))
    b = OutwardInterval.from_value(Fraction(2, 3))
    h = a.hull(b)
    assert h.contains(Fraction(1, 3)) and h.contains(Fraction(2, 3))


def test_division_by_zero_straddle_rejected():
    zero = OutwardInterval.from_endpoints(Fraction(-1), Fraction(1))
    with pytest.raises((ValueError, ZeroDivisionError)):
        OutwardInterval.from_value(1) / zero


def test_extended_real_ordering():
    inf = ExtendedReal.infinity()
    fin = ExtendedReal.finite(OutwardInterval.from_value(Fraction(3)))
    assert inf.is_infinite and not fin.is_infinite
    assert inf.greater_than(fin)
    assert inf.greater_than(10**9)


def test_with_precision_still_encloses():
    iv = OutwardInterval.from_value(Fraction(1, 3), prec=256)
    wide = iv.with_precision(32)
    assert wide.lo <= iv.lo and iv.hi <= wide.hi


def _ulp(x: Fraction, prec: int) -> Fraction:
    """Spacing of prec-bit floats just above the positive dyadic x."""
    top = x.numerator.bit_length() - x.denominator.bit_length()  # floor(log2 x)
    return Fraction(2) ** (top - prec + 1)


def test_from_value_is_correctly_rounded():
    # numerator and denominator both exceed 128 bits; rounding them before
    # dividing would leave a 3-ulp enclosure
    x = Fraction(3**200 + 1, 7**150)
    iv = OutwardInterval.from_value(x, 128)
    assert iv.lo < x < iv.hi
    assert iv.hi == iv.lo + _ulp(iv.lo, 128)
    # directed roundings compose: narrowing the precision rounds the
    # endpoints once more, to the same floats as a direct enclosure
    narrow = iv.with_precision(64)
    direct = OutwardInterval.from_value(x, 64)
    assert (narrow.lo, narrow.hi) == (direct.lo, direct.hi)
    assert direct.hi == direct.lo + _ulp(direct.lo, 64)
