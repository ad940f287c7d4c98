"""Exact rationals, outward-rounded interval arithmetic, binomial coefficients.

Everything downstream computes with two kinds of numbers:

* exact rationals (``fractions.Fraction``, aliased ``Rational``) wherever a
  quantity is rational by construction — cylinder measures, transition
  bounds, continuants;
* :class:`OutwardInterval` wherever an irrational creeps in (``k**theta``,
  ``log``, the golden ratio).  Every interval operation rounds the lower
  endpoint down and the upper endpoint up, so any bound derived from an
  interval endpoint is a true mathematical bound, not an estimate.

Default working precision is 128 bits, overridable through the
``ECF_PRECISION_BITS`` environment variable or per call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

Rational = Fraction

DEFAULT_PRECISION_BITS = 128

RationalLike = Union[int, Fraction]


def default_precision() -> int:
    """Working precision in bits: ECF_PRECISION_BITS if set, else 128."""
    raw = os.environ.get("ECF_PRECISION_BITS")
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"ECF_PRECISION_BITS is not an integer: {raw!r}") from exc
    if bits < 8:
        raise ValueError(f"ECF_PRECISION_BITS too small: {bits}")
    return bits


_CONTEXTS: dict[int, MPIntervalContext] = {}


def _context(prec: int) -> MPIntervalContext:
    # One context per precision; the global mpmath.iv context is never touched.
    ctx = _CONTEXTS.get(prec)
    if ctx is None:
        ctx = MPIntervalContext()
        ctx.prec = prec
        _CONTEXTS[prec] = ctx
    return ctx


def _mpf_tuple_to_fraction(t) -> Fraction:
    if t == libmp.fzero:
        return Fraction(0)
    if t in (libmp.finf, libmp.fninf, libmp.fnan):
        raise ValueError("interval endpoint is not finite")
    sign, man, exp, _bc = t
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


class OutwardInterval:
    """A closed real interval [lo, hi] with outward-rounded arithmetic.

    Endpoints live at a fixed binary precision (dyadic rationals), so they
    can be recovered *exactly* as Fractions; soundness of every enclosure
    reduces to mpmath's directed rounding, which the test suite probes.
    Instances are immutable.
    """

    __slots__ = ("_ival", "_prec")

    def __init__(self, ival, prec: int):
        self._ival = ival
        self._prec = prec

    # -- construction -------------------------------------------------

    @classmethod
    def from_value(cls, value, prec: int | None = None) -> "OutwardInterval":
        """Enclose a single number: int, Fraction, float, or decimal string."""
        prec = default_precision() if prec is None else prec
        if isinstance(value, OutwardInterval):
            return value.with_precision(prec)
        ctx = _context(prec)
        if isinstance(value, Fraction):
            # One correctly rounded division per endpoint: at most 1 ulp wide.
            p, q = value.numerator, value.denominator
            ival = ctx.make_mpf((libmp.from_rational(p, q, prec, libmp.round_floor),
                                 libmp.from_rational(p, q, prec, libmp.round_ceiling)))
        else:
            ival = ctx.mpf(value)
        return cls(ival, prec)

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int | None = None) -> "OutwardInterval":
        """Hull of two numbers (each int, Fraction, float, or string)."""
        a = cls.from_value(lo, prec)
        b = cls.from_value(hi, prec)
        if a.lo > b.hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        return a.hull(b)

    def with_precision(self, prec: int) -> "OutwardInterval":
        if prec == self._prec:
            return self
        # Rounding the lower endpoint down and the upper one up preserves the
        # enclosure; widening the precision is exact.
        lo, hi = self._ival._mpi_
        ival = _context(prec).make_mpf((libmp.mpf_pos(lo, prec, libmp.round_floor),
                                        libmp.mpf_pos(hi, prec, libmp.round_ceiling)))
        return OutwardInterval(ival, prec)

    # -- exact endpoint access ----------------------------------------

    @property
    def lo(self) -> Fraction:
        return _mpf_tuple_to_fraction(self._ival._mpi_[0])

    @property
    def hi(self) -> Fraction:
        return _mpf_tuple_to_fraction(self._ival._mpi_[1])

    @property
    def precision(self) -> int:
        return self._prec

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    # -- predicates ----------------------------------------------------

    def contains(self, value: RationalLike | "OutwardInterval") -> bool:
        if isinstance(value, OutwardInterval):
            return self.lo <= value.lo and value.hi <= self.hi
        return self.lo <= value <= self.hi

    def overlaps(self, other: "OutwardInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_less(self, other: "OutwardInterval") -> bool:
        """Certified x < y for every x in self, y in other."""
        return self.hi < other.lo

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other, prec: int):
        if isinstance(other, OutwardInterval):
            return other.with_precision(prec)._ival
        return OutwardInterval.from_value(other, prec)._ival

    def _binop(self, other, op):
        prec = self._prec
        if isinstance(other, OutwardInterval):
            prec = max(prec, other._prec)
        a = self.with_precision(prec)._ival
        b = self._coerce(other, prec)
        return OutwardInterval(op(a, b), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, OutwardInterval):
            if other.contains(0):
                raise ZeroDivisionError("division by an interval containing 0")
        elif other == 0:
            raise ZeroDivisionError("division by zero")
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        if self.contains(0):
            raise ZeroDivisionError("division by an interval containing 0")
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return OutwardInterval(-self._ival, self._prec)

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            if exponent >= 0 or not self.contains(0):
                return self._binop(exponent, lambda a, b: a ** b)
            raise ZeroDivisionError("negative power of an interval containing 0")
        if self.lo <= 0:
            raise ValueError("non-integer power requires a positive base interval")
        return self._binop(exponent, lambda a, b: a ** b)

    def hull(self, other: "OutwardInterval") -> "OutwardInterval":
        prec = max(self._prec, other._prec)
        a = self.with_precision(prec)._ival
        b = other.with_precision(prec)._ival
        ctx = _context(prec)
        return OutwardInterval(ctx.mpf([min(a.a, b.a), max(b.b, a.b)]), prec)

    def __repr__(self):
        return f"OutwardInterval[{float(self._ival.a)}, {float(self._ival.b)}]"


@dataclass(frozen=True)
class ExtendedReal:
    """A finite enclosed value or +infinity (rate functions need no -inf)."""

    value: OutwardInterval | None  # None encodes +infinity

    @classmethod
    def finite(cls, value: OutwardInterval) -> "ExtendedReal":
        return cls(value)

    @classmethod
    def infinity(cls) -> "ExtendedReal":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def greater_than(self, other: "ExtendedReal | RationalLike") -> bool:
        """Certified strict comparison; +inf exceeds every finite value."""
        if self.is_infinite:
            if isinstance(other, ExtendedReal):
                return not other.is_infinite
            return True
        if isinstance(other, ExtendedReal):
            if other.is_infinite:
                return False
            return other.value.strictly_less(self.value)
        return self.value.lo > other

    def __repr__(self):
        return "ExtendedReal(+inf)" if self.is_infinite else f"ExtendedReal({self.value!r})"


def binomial(n: int, k: int) -> int:
    """C(n, k) exactly; k > n gives 0."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return math.comb(n, k)


def _as_interval(x, prec: int) -> OutwardInterval:
    if isinstance(x, OutwardInterval):
        return x.with_precision(max(prec, x.precision))
    return OutwardInterval.from_value(x, prec)


def interval_pow(base, exponent, prec: int | None = None) -> OutwardInterval:
    """Enclosure of base**exponent for positive base.

    base: positive int or Fraction (or positive OutwardInterval);
    exponent: int, Fraction, or OutwardInterval.
    """
    prec = default_precision() if prec is None else prec
    if not isinstance(base, OutwardInterval) and base == 1:
        ctx = _context(prec)
        return OutwardInterval(ctx.mpf(1), prec)
    b = _as_interval(base, prec)
    if b.lo <= 0:
        raise ValueError("interval_pow requires a positive base")
    if isinstance(exponent, int):
        return b ** exponent
    e = _as_interval(exponent, prec)
    return b ** e


def interval_log(x, prec: int | None = None) -> OutwardInterval:
    """Enclosure of the natural log of a positive rational or interval."""
    prec = default_precision() if prec is None else prec
    v = _as_interval(x, prec)
    if v.lo <= 0:
        raise ValueError(f"interval_log requires a positive argument, got lo={v.lo}")
    ctx = _context(v.precision)
    return OutwardInterval(ctx.log(v._ival), v.precision)


def interval_exp(x, prec: int | None = None) -> OutwardInterval:
    prec = default_precision() if prec is None else prec
    v = _as_interval(x, prec)
    ctx = _context(v.precision)
    return OutwardInterval(ctx.exp(v._ival), v.precision)


def interval_sqrt(x, prec: int | None = None) -> OutwardInterval:
    prec = default_precision() if prec is None else prec
    v = _as_interval(x, prec)
    if v.lo < 0:
        raise ValueError("interval_sqrt requires a nonnegative argument")
    ctx = _context(v.precision)
    return OutwardInterval(ctx.sqrt(v._ival), v.precision)
