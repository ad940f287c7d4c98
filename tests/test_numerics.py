"""Outward interval arithmetic and the extended-real wrapper."""

from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from ecfrac.numerics import (ExtendedReal, OutwardInterval, _ratio_interval, _scaled_ends,
                             _up_to, interval_exp, interval_log, interval_pow, interval_sqrt)

getcontext().prec = 60

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)
positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=100,
                                  max_denominator=10**6)


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


one_exponents = st.one_of(
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
    st.integers(-50, 50),
    st.tuples(st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
              st.sampled_from([0, Fraction(1, 7)])))


@given(e=one_exponents, prec=st.sampled_from([53, 64, 128, 200, 300]))
@settings(max_examples=200, deadline=None)
def test_pow_of_one_is_exactly_one(e, prec):
    # The moment DP weights digit 1 by 1**theta; the general path must give
    # the exact point [1, 1] at the working precision.
    if isinstance(e, tuple):
        e = OutwardInterval.from_endpoints(e[0], e[0] + e[1], prec)
    result = interval_pow(1, e, prec)
    assert (result.lo, result.hi, result.precision) == (1, 1, prec)
    power = OutwardInterval.from_value(1, prec) ** e
    assert (power.lo, power.hi) == (1, 1)


def test_hull_covers_both():
    a = OutwardInterval.from_value(Fraction(1, 3))
    b = OutwardInterval.from_value(Fraction(2, 3))
    h = a.hull(b)
    assert h.contains(Fraction(1, 3)) and h.contains(Fraction(2, 3))


def test_from_endpoints_refuses_exactly_when_out_of_order():
    # The order is checked on the exact ends, not the rounded ones, so ends
    # that round onto each other are still refused when lo > hi.
    third = Fraction(1, 3)
    for lo, hi in [(third + Fraction(1, 10**60), third), (Fraction(2, 3), third),
                   ("0.5", "1/3"), (1, 0.5)]:
        with pytest.raises(ValueError, match="out of order"):
            OutwardInterval.from_endpoints(lo, hi)
    x = OutwardInterval.from_endpoints(third, third + Fraction(1, 10**60))
    assert x.lo < third and x.hi > third + Fraction(1, 10**60)
    assert x.width <= Fraction(2, 2**128)
    # _up_to, which reads the lower end from an interval, refuses the same way.
    with pytest.raises(ValueError, match="out of order"):
        _up_to(OutwardInterval.from_value(1), Fraction(1, 2))


def test_from_value_takes_floats_and_decimal_strings():
    # A float is the dyadic it denotes, exact at 128 bits; a decimal string
    # is the rational it denotes, enclosed within one ulp.
    x = OutwardInterval.from_value(0.1)
    assert x.lo == x.hi == Fraction(0.1)
    y = OutwardInterval.from_value("0.1")
    assert y.lo < Fraction(1, 10) < y.hi and y.width <= Fraction(1, 2**131)
    z = OutwardInterval.from_value(Fraction(1, 10))
    assert (y.lo, y.hi) == (z.lo, z.hi)


def test_division_by_zero_straddle_rejected():
    zero = OutwardInterval.from_endpoints(Fraction(-1), Fraction(1))
    with pytest.raises((ValueError, ZeroDivisionError)):
        OutwardInterval.from_value(1) / zero
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        OutwardInterval.from_value(1) / 0


def test_domain_checks_match_exact_endpoint_signs():
    # The domain checks read endpoint signs from the mpf tuples; at the
    # boundaries they must agree with comparisons of the exact endpoints.
    edges = [Fraction(-1), Fraction(-1, 2**300), Fraction(0), Fraction(1, 2**300), Fraction(1)]
    for lo, hi in [(a, b) for a in edges for b in edges if a <= b]:
        x = OutwardInterval.from_endpoints(lo, hi, 53)
        assert (x.lo, x.hi) == (lo, hi)
        assert [x.contains(k) for k in (-1, 0, 1)] == [lo <= k <= hi for k in (-1, 0, 1)]
        cases = [(lambda: 1 / x, ZeroDivisionError, lo <= 0 <= hi),
                 (lambda: OutwardInterval.from_value(1) / x, ZeroDivisionError, lo <= 0 <= hi),
                 (lambda: x ** -1, ZeroDivisionError, lo <= 0 <= hi),
                 (lambda: x ** Fraction(1, 3), ValueError, lo <= 0),
                 (lambda: interval_pow(x, 2), ValueError, lo <= 0),
                 (lambda: interval_log(x), ValueError, lo <= 0),
                 (lambda: interval_sqrt(x), ValueError, lo < 0)]
        for call, error, rejected in cases:
            if rejected:
                with pytest.raises(error):
                    call()
            else:
                call()


def test_extended_real_ordering():
    inf = ExtendedReal.infinity()
    fin = ExtendedReal.finite(OutwardInterval.from_value(Fraction(3)))
    assert inf.is_infinite and not fin.is_infinite


def test_extended_real_has_slots_and_stays_frozen():
    # A slotted instance holds no per-instance dict; every rate and Legendre
    # result is one of these.
    fin = ExtendedReal.finite(OutwardInterval.from_value(Fraction(3)))
    assert not hasattr(fin, "__dict__")
    with pytest.raises(AttributeError):
        fin.value = None
    assert fin == ExtendedReal.finite(fin.value) and hash(fin) == hash(ExtendedReal(fin.value))
    assert repr(ExtendedReal.infinity()) == "ExtendedReal(+inf)"


def test_scaled_ends_are_exact_and_refuse_infinities():
    # Ends 2^800 apart share one exponent; an infinite or nan end, whose mpf
    # mantissa is 0, must not be read as 0.
    ivs = [OutwardInterval.from_endpoints(Fraction(-3, 2**400), Fraction(5) * 2**400), None,
           OutwardInterval.from_value(0)]
    pairs, e = _scaled_ends(ivs)
    assert pairs[1] is None
    assert [Fraction(n) * Fraction(2) ** e for n in pairs[0] + pairs[2]] == [
        ivs[0].lo, ivs[0].hi, 0, 0]
    for end in (libmp.finf, libmp.fninf, libmp.fnan):
        with pytest.raises(ValueError, match="not finite"):
            _scaled_ends([OutwardInterval((libmp.fzero, end), 128)])
    for end in (libmp.finf, libmp.fninf, libmp.fnan):
        for name in ("lo", "hi"):
            with pytest.raises(ValueError, match="interval endpoint is not finite"):
                getattr(OutwardInterval((end, end), 128), name)


def _signed_bits(max_bits: int):
    """Integers of up to max_bits bits, either sign, drawn by bit length."""
    return st.integers(0, max_bits).flatmap(lambda b: st.integers(-(2**b), 2**b))


@given(lo=_signed_bits(14000), width=_signed_bits(14000).map(abs), k=st.integers(0, 14000),
       odd=st.sampled_from([1, 3, 10**9 + 7]), halves=st.booleans())
@example(lo=2**13344 - 1, width=2**13343 + 1, k=13344 - 3, odd=1, halves=False)
@example(lo=-(3**8419), width=2 * 3**8419, k=14000, odd=1, halves=False)
@example(lo=5, width=0, k=0, odd=1, halves=False)
@example(lo=-(2**400) - 1, width=2**401 + 3, k=0, odd=1, halves=False)
@example(lo=2**300 + 1, width=0, k=0, odd=1, halves=True)
@settings(max_examples=200, deadline=None)
def test_rounded_ends_are_one_correctly_rounded_division(lo, width, k, odd, halves):
    # measure's moment sums are integers over 2^k, with numerators of
    # 13,344 bits at n = 100, and the Legendre probes are integers or
    # Fractions over one unit.  Each end must be what libmp.from_rational's
    # one correctly rounded division gives, which a shift replaces over a
    # power of two: through _ratio_interval at 128 bits, and through
    # from_endpoints and from_value, which take an int as it is, at 53, 128
    # and 300 bits, each end rounded down and up.
    floor, ceiling = libmp.round_floor, libmp.round_ceiling
    unit, hi = odd << k, lo + width
    ends = (Fraction(lo, 2), Fraction(hi, 2)) if halves else (lo, hi)
    exact = [Fraction(end) / unit for end in ends]

    def division(x: Fraction, prec: int, rounding) -> tuple:
        return libmp.from_rational(x.numerator, x.denominator, prec, rounding)

    got = _ratio_interval(*ends, unit)
    assert (got._mpi, got.precision) == (
        (division(exact[0], 128, floor), division(exact[1], 128, ceiling)), 128)
    values = [x.numerator if x.denominator == 1 else x for x in exact]
    for prec in (53, 128, 300):
        got = OutwardInterval.from_endpoints(*values, prec)
        assert got._mpi == (division(exact[0], prec, floor), division(exact[1], prec, ceiling))
        for x, value in zip(exact, values):
            got = OutwardInterval.from_value(value, prec)
            assert got._mpi == (division(x, prec, floor), division(x, prec, ceiling))


def test_with_precision_still_encloses():
    iv = OutwardInterval.from_value(Fraction(1, 3), prec=256)
    wide = iv.with_precision(32)
    assert wide.contains(iv) and not iv.contains(wide)


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


# -- differential test against mpmath's own interval context -------------
#
# A fresh MPIntervalContext is the reference: it converts a rational p/q as
# mpf(p) / mpf(q), exact for |p|, q < 2^53, and applies the same interval
# kernels through its own number objects.  Every operation of
# OutwardInterval must give bit-identical endpoints.


def _reference(prec: int) -> MPIntervalContext:
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def _ref_value(ctx: MPIntervalContext, x: Fraction):
    return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)


def _same(ours: OutwardInterval, ref) -> bool:
    lo, hi = ref._mpi_
    return (ours.lo, ours.hi) == (Fraction(*libmp.to_rational(lo)),
                                  Fraction(*libmp.to_rational(hi)))


small_rationals = st.builds(Fraction, st.integers(-2**50, 2**50), st.integers(1, 2**50))
# bounded so that powers and exponentials keep exponents of a few 10^4 bits
exponents = st.builds(Fraction, st.integers(-2**10, 2**10), st.integers(1, 2**10))
exp_arguments = st.builds(Fraction, st.integers(-2**16, 2**16), st.integers(1, 2**8))
precisions = st.sampled_from([53, 128, 300])


# ints up to 400 bits, so that some exceed 2^prec and must be rounded
ints = st.one_of(st.integers(-2**60, 2**60), st.integers(-2**400, 2**400))


@given(x=small_rationals, y=small_rationals, n=ints, prec=precisions)
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_interval_context(x, y, n, prec):
    ctx = _reference(prec)
    X, Y, N = _ref_value(ctx, x), _ref_value(ctx, y), ctx.mpf(n)
    ix = OutwardInterval.from_value(x, prec)
    iy = OutwardInterval.from_value(y, prec)
    assert _same(ix, X) and _same(iy, Y) and _same(OutwardInterval.from_value(n, prec), N)
    assert _same(ix + iy, X + Y) and _same(ix + y, X + Y)
    assert _same(ix - iy, X - Y) and _same(x - iy, X - Y)
    assert _same(ix * iy, X * Y) and _same(x * iy, X * Y)
    assert _same(ix + n, X + N) and _same(n - ix, N - X) and _same(ix - n, X - N)
    assert _same(ix * n, X * N) and _same(n * ix, N * X)
    assert _same(-ix, -X)
    if y != 0:
        assert _same(ix / iy, X / Y) and _same(x / iy, X / Y)
    if n != 0:
        assert _same(ix / n, X / N)
    if x != 0:
        assert _same(n / ix, N / X)
    lo, hi = sorted((x, y))
    hull = ctx.mpf([_ref_value(ctx, lo), _ref_value(ctx, hi)])
    assert _same(ix.hull(iy), hull)
    assert _same(OutwardInterval.from_endpoints(lo, hi, prec), hull)
    # an interval operand of lower precision is relabeled, not rounded
    narrow, wide = _reference(53), _reference(300)
    assert _same(OutwardInterval.from_value(x, 53) + OutwardInterval.from_value(y, 300),
                 wide.make_mpf(_ref_value(narrow, x)._mpi_) + _ref_value(wide, y))


@given(x=small_rationals, k=st.integers(-4, 7), r=exponents, prec=precisions)
@settings(max_examples=150, deadline=None)
def test_powers_and_kernels_match_interval_context(x, k, r, prec):
    ctx = _reference(prec)
    X, R = _ref_value(ctx, x), _ref_value(ctx, r)
    ix = OutwardInterval.from_value(x, prec)
    if k >= 0 or x != 0:
        assert _same(ix ** k, X ** k)
    if x > 0:
        # rational exponents, including the exactly handled 1/2, an exponent
        # that is already an interval and an int
        for e, E in ((r, R), (Fraction(1, 2), ctx.mpf(1) / 2),
                     (OutwardInterval.from_value(r, prec), R), (k, k)):
            assert _same(ix ** e, X ** E)
            assert _same(interval_pow(x, e, prec), X ** E)
        assert _same(interval_log(x, prec), ctx.log(X))
    if x >= 0:
        assert _same(interval_sqrt(x, prec), ctx.sqrt(X))


@given(x=exp_arguments, prec=precisions)
@settings(max_examples=60, deadline=None)
def test_exp_matches_interval_context(x, prec):
    ctx = _reference(prec)
    assert _same(interval_exp(x, prec), ctx.exp(_ref_value(ctx, x)))


def _interval(ends: tuple[Fraction, Fraction], prec: int) -> OutwardInterval:
    lo, hi = sorted(ends)
    return OutwardInterval.from_endpoints(lo, hi, prec)


@given(a=st.tuples(small_rationals, small_rationals), b=st.tuples(small_rationals, small_rationals),
       prec_a=precisions, prec_b=precisions)
@settings(max_examples=200, deadline=None)
def test_max_min_match_endpoint_construction(a, b, prec_a, prec_b):
    # max and min pick endpoints of the operands, so they must equal the
    # construction from the exact Fraction endpoints at the larger precision.
    ia, ib = _interval(a, prec_a), _interval(b, prec_b)
    prec = max(prec_a, prec_b)
    for method, pick in ((OutwardInterval.max, max), (OutwardInterval.min, min)):
        ref = OutwardInterval.from_endpoints(pick(ia.lo, ib.lo), pick(ia.hi, ib.hi), prec)
        for ours in (method(ia, ib), method(ib, ia)):
            assert (ours.lo, ours.hi, ours.precision) == (ref.lo, ref.hi, ref.precision)
        same = method(ia, ia)
        assert (same.lo, same.hi, same.precision) == (ia.lo, ia.hi, prec_a)


@given(a=st.tuples(small_rationals, small_rationals), b=st.tuples(small_rationals, small_rationals),
       prec_a=precisions, prec_b=precisions)
@settings(max_examples=200, deadline=None)
def test_intersect_matches_endpoint_construction(a, b, prec_a, prec_b):
    ia, ib = _interval(a, prec_a), _interval(b, prec_b)
    lo, hi = max(ia.lo, ib.lo), min(ia.hi, ib.hi)
    if lo > hi:
        with pytest.raises(ValueError):
            ia.intersect(ib)
        return
    ref = OutwardInterval.from_endpoints(lo, hi, max(prec_a, prec_b))
    for ours in (ia.intersect(ib), ib.intersect(ia)):
        assert (ours.lo, ours.hi, ours.precision) == (ref.lo, ref.hi, ref.precision)


@given(a=st.tuples(small_rationals, small_rationals), b=st.tuples(small_rationals, small_rationals),
       prec_a=precisions, prec_b=precisions)
@settings(max_examples=200, deadline=None)
def test_below_and_overlaps_match_fraction_comparison(a, b, prec_a, prec_b):
    ia, ib = _interval(a, prec_a), _interval(b, prec_b)
    assert ia.below(ib) == (ia.hi < ib.lo)
    assert ib.below(ia) == (ib.hi < ia.lo)
    assert ia.overlaps(ib) == ib.overlaps(ia) == (ia.lo <= ib.hi and ib.lo <= ia.hi)
    assert not ia.below(ia)
