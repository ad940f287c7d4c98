"""Exact-Fraction lockstep walk: the test oracle for the integer digit walk.

This is the digit map written out on normalized rationals, one Fraction per
step.  ecfrac.expansion walks unnormalized integer pairs instead, one divmod
per digit; the tests check that both walks certify the same prefix of every
interval, on operands of up to 20,000 bits.
"""

from fractions import Fraction

from ecfrac.expansion import CertifiedExpansion


def ecf_step(x: Fraction) -> tuple[int, Fraction]:
    """One application of the digit map: x -> (floor(1/x), T(x)).

    The remainder T(x) = (1/d)*(1/x - d) lies in [0, 1); it is 0 exactly
    when 1/x is an integer.
    """
    if not 0 < x <= 1:
        raise ValueError(f"ecf_step requires x in (0, 1], got {x}")
    p, q = x.numerator, x.denominator
    d = q // p
    return d, Fraction(q - d * p, d * p)


def reference_expand_interval(lo: Fraction, hi: Fraction,
                              max_digits: int) -> CertifiedExpansion:
    """Longest common digit prefix of every point in [lo, hi], 0 <= lo <= hi <= 1.

    An interval touching 0 shares no digit: b_1 is unbounded near 0.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    assert 0 <= lo <= hi <= 1
    if lo == 0:
        return CertifiedExpansion((), False)
    digits: list[int] = []
    a, b = lo, hi
    while len(digits) < max_digits:
        d_lo, a = ecf_step(a)
        d_hi, b = ecf_step(b)
        if d_lo != d_hi:
            return CertifiedExpansion(tuple(digits), False)
        digits.append(d_lo)
        if a == 0 or b == 0:
            # One endpoint's expansion ended; interior points nearby have
            # arbitrarily large next digits.
            return CertifiedExpansion(tuple(digits), False)
        # The digit map is decreasing, so the image interval swaps ends.
        a, b = b, a
    return CertifiedExpansion(tuple(digits), True)
