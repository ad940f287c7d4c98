"""Exact rationals and outward-rounded interval arithmetic.

Everything downstream computes with two kinds of numbers:

* exact rationals (``fractions.Fraction``) wherever a quantity is
  rational by construction — cylinder measures, transition bounds,
  continuants;
* :class:`OutwardInterval` wherever an irrational creeps in (``k**theta``,
  ``log``, the golden ratio).  Every interval operation rounds the lower
  endpoint down and the upper endpoint up, so any bound derived from an
  interval endpoint is a true mathematical bound, not an estimate.

The working precision is ``DEFAULT_PRECISION_BITS`` (128 bits).  Only the
public functions take ``prec=`` to run at another; a private helper is
handed its caller's precision or runs at DEFAULT_PRECISION_BITS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Union

from mpmath import libmp

DEFAULT_PRECISION_BITS = 128

RationalLike = Union[int, Fraction]


def default_precision() -> int:
    """The working precision in bits, DEFAULT_PRECISION_BITS."""
    return DEFAULT_PRECISION_BITS


def _outward(value, prec: int, rounding: str) -> tuple:
    """A number rounded once to a prec-bit mpf tuple: down for
    libmp.round_floor, up for libmp.round_ceiling.

    An int or a Fraction goes in directly; a float or a decimal string is
    first made the exact Fraction it denotes.
    """
    if isinstance(value, int):
        return libmp.from_int(value, prec, rounding)
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return libmp.from_rational(value.numerator, value.denominator, prec, rounding)


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    if not man:
        if t == libmp.fzero:
            return Fraction(0)
        raise ValueError("interval endpoint is not finite")
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _mpf_min(a, b):
    return b if libmp.mpf_lt(b, a) else a


def _mpf_max(a, b):
    return a if libmp.mpf_lt(b, a) else b


class OutwardInterval:
    """A closed real interval [lo, hi] with outward-rounded arithmetic.

    The endpoints are a pair of mpf tuples at a fixed binary precision
    (dyadic rationals), so they can be recovered *exactly* as Fractions.
    Every operation is one of mpmath's interval kernels (``libmp.mpi_*``),
    so soundness of every enclosure reduces to mpmath's directed rounding,
    which the test suite probes.  Instances are immutable.
    """

    __slots__ = ("_mpi", "_prec")

    def __init__(self, mpi: tuple, prec: int):
        self._mpi = mpi
        self._prec = prec

    # -- construction -------------------------------------------------

    @classmethod
    def from_value(cls, value, prec: int = DEFAULT_PRECISION_BITS) -> "OutwardInterval":
        """Enclose a single number: int, Fraction, float, or decimal string.

        Each end is one correctly rounded conversion, so the interval is at
        most 1 ulp wide; an int of at most prec bits is exact, so it is
        converted once.
        """
        lo = _outward(value, prec, libmp.round_floor)
        if isinstance(value, int) and value.bit_length() <= prec:
            return cls((lo, lo), prec)
        return cls((lo, _outward(value, prec, libmp.round_ceiling)), prec)

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int = DEFAULT_PRECISION_BITS) -> "OutwardInterval":
        """[lo, hi], lo <= hi, each end an int, Fraction, float, or decimal
        string: lo is rounded down once and hi up once.  Refused exactly
        when lo > hi."""
        if Fraction(lo) > Fraction(hi):
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        return cls((_outward(lo, prec, libmp.round_floor),
                    _outward(hi, prec, libmp.round_ceiling)), prec)

    def with_precision(self, prec: int) -> "OutwardInterval":
        if prec == self._prec:
            return self
        # Rounding the lower endpoint down and the upper one up preserves the
        # enclosure; widening the precision is exact.
        lo, hi = self._mpi
        return OutwardInterval((libmp.mpf_pos(lo, prec, libmp.round_floor),
                                libmp.mpf_pos(hi, prec, libmp.round_ceiling)), prec)

    # -- exact endpoint access ----------------------------------------

    @property
    def lo(self) -> Fraction:
        return _mpf_tuple_to_fraction(self._mpi[0])

    @property
    def hi(self) -> Fraction:
        return _mpf_tuple_to_fraction(self._mpi[1])

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
        if isinstance(value, int):
            return self.compare_lo(value) <= 0 <= self.compare_hi(value)
        return self.lo <= value <= self.hi

    def below(self, other: "OutwardInterval") -> bool:
        """Whether every point of self lies strictly below every point of other."""
        return libmp.mpf_lt(self._mpi[1], other._mpi[0])

    def overlaps(self, other: "OutwardInterval") -> bool:
        return not (self.below(other) or other.below(self))

    def compare_lo(self, value: int) -> int:
        """The sign of lo - value, read from the mpf endpoint without a Fraction."""
        return libmp.mpf_cmp(self._mpi[0], libmp.from_int(value))

    def compare_hi(self, value: int) -> int:
        """The sign of hi - value, read from the mpf endpoint without a Fraction."""
        return libmp.mpf_cmp(self._mpi[1], libmp.from_int(value))

    # -- arithmetic ------------------------------------------------------

    def _binop(self, kernel, other, reflected: bool = False) -> "OutwardInterval":
        # A number is enclosed at self's precision.  The result carries the
        # larger precision; relabelling the other's mpf tuples rounds nothing.
        if not isinstance(other, OutwardInterval):
            other = OutwardInterval.from_value(other, self._prec)
        prec = max(self._prec, other._prec)
        a, b = self._mpi, other._mpi
        if reflected:
            a, b = b, a
        return OutwardInterval(kernel(a, b, prec), prec)

    def __add__(self, other):
        return self._binop(libmp.mpi_add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(libmp.mpi_sub, other)

    def __rsub__(self, other):
        return self._binop(libmp.mpi_sub, other, reflected=True)

    def __mul__(self, other):
        return self._binop(libmp.mpi_mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, OutwardInterval):
            if other.contains(0):
                raise ZeroDivisionError("division by an interval containing 0")
        elif other == 0:
            raise ZeroDivisionError("division by zero")
        return self._binop(libmp.mpi_div, other)

    def __rtruediv__(self, other):
        if self.contains(0):
            raise ZeroDivisionError("division by an interval containing 0")
        return self._binop(libmp.mpi_div, other, reflected=True)

    def __neg__(self):
        return OutwardInterval(libmp.mpi_neg(self._mpi, self._prec), self._prec)

    def __pow__(self, exponent):
        # mpi_pow takes an integer exponent and 1/2 directly (mpi_pow_int,
        # mpi_sqrt), and any other exponent through log and exp.
        if isinstance(exponent, int):
            if exponent < 0 and self.contains(0):
                raise ZeroDivisionError("negative power of an interval containing 0")
        elif self.compare_lo(0) <= 0:
            raise ValueError("non-integer power requires a positive base interval")
        return self._binop(libmp.mpi_pow, exponent)

    def _endpointwise(self, other: "OutwardInterval", pick_lo, pick_hi) -> "OutwardInterval":
        # Each endpoint is one of the operands' mpf endpoints, so nothing is
        # rounded; the result carries the larger precision.
        (a_lo, a_hi), (b_lo, b_hi) = self._mpi, other._mpi
        return OutwardInterval((pick_lo(a_lo, b_lo), pick_hi(a_hi, b_hi)),
                               max(self._prec, other._prec))

    def hull(self, other: "OutwardInterval") -> "OutwardInterval":
        """The smallest interval containing both."""
        return self._endpointwise(other, _mpf_min, _mpf_max)

    def max(self, other: "OutwardInterval") -> "OutwardInterval":
        """Enclosure of max(s, t) over s in self and t in other."""
        return self._endpointwise(other, _mpf_max, _mpf_max)

    def min(self, other: "OutwardInterval") -> "OutwardInterval":
        """Enclosure of min(s, t) over s in self and t in other."""
        return self._endpointwise(other, _mpf_min, _mpf_min)

    def intersect(self, other: "OutwardInterval") -> "OutwardInterval":
        """The common part of two overlapping intervals."""
        if not self.overlaps(other):
            raise ValueError("intervals do not overlap")
        return self._endpointwise(other, _mpf_max, _mpf_min)

    def __repr__(self):
        lo, hi = self._mpi
        return f"OutwardInterval[{libmp.to_float(lo)}, {libmp.to_float(hi)}]"


@dataclass(frozen=True, slots=True)
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

    def __repr__(self):
        return "ExtendedReal(+inf)" if self.is_infinite else f"ExtendedReal({self.value!r})"


def _as_interval(x, prec: int) -> OutwardInterval:
    """A number enclosed at prec bits, or an interval at prec bits or more."""
    if isinstance(x, OutwardInterval):
        return x if x._prec >= prec else OutwardInterval(x._mpi, prec)
    return OutwardInterval.from_value(x, prec)


def _lower_end_gap(a: OutwardInterval, b: OutwardInterval) -> float:
    """a.lo - b.lo rounded to 53 bits, as a float: its sign is exact, and
    it stays accurate where the two ends agree in more than 53 bits."""
    return libmp.to_float(libmp.mpf_sub(a._mpi[0], b._mpi[0], 53))


_mpf_key = cmp_to_key(libmp.mpf_cmp)


def _lower_end_key(v: OutwardInterval):
    """A key that orders intervals by their exact lower ends, as mpf tuples."""
    return _mpf_key(v._mpi[0])


def _scaled_ends(intervals) -> tuple[list[tuple[int, int] | None], int]:
    """The exact ends of each interval as integers times 2^e, for one e, with
    None kept in place and no Fraction made: ([(lo, hi), ...], e)."""
    ends = [t for v in intervals if v is not None for t in v._mpi]
    if any(bc < 0 for _, _, _, bc in ends):  # an infinity or nan, whose mantissa is 0
        raise ValueError("interval endpoint is not finite")
    e = min(exp for _, _, exp, _ in ends)
    ints = iter([(-man if sign else man) << (exp - e) for sign, man, exp, _ in ends])
    return [None if v is None else (next(ints), next(ints)) for v in intervals], e


def _ratio_interval(lo: RationalLike, hi: RationalLike, unit: int) -> OutwardInterval:
    """from_endpoints(lo/unit, hi/unit) for lo <= hi, rounded from the
    numerators and denominators with no Fraction made."""
    prec = DEFAULT_PRECISION_BITS
    return OutwardInterval((
        libmp.from_rational(lo.numerator, lo.denominator * unit, prec, libmp.round_floor),
        libmp.from_rational(hi.numerator, hi.denominator * unit, prec, libmp.round_ceiling)), prec)


def _dyadic_interval(lo: int, hi: int, exp: int) -> OutwardInterval:
    """from_endpoints(lo * 2^exp, hi * 2^exp) for integers lo <= hi, each
    end rounded once, with no Fraction made."""
    prec = DEFAULT_PRECISION_BITS
    return OutwardInterval((libmp.from_man_exp(lo, exp, prec, libmp.round_floor),
                            libmp.from_man_exp(hi, exp, prec, libmp.round_ceiling)), prec)


def _up_to(v: OutwardInterval, hi: Fraction) -> OutwardInterval:
    """from_endpoints(v.lo, hi) for v.lo <= hi, read from v's lower end as an
    mpf; refused when hi rounded up lies below v.lo rounded down."""
    prec = DEFAULT_PRECISION_BITS
    lo = libmp.mpf_pos(v._mpi[0], prec, libmp.round_floor)
    up = libmp.from_rational(hi.numerator, hi.denominator, prec, libmp.round_ceiling)
    if libmp.mpf_lt(up, lo):
        raise ValueError(f"interval endpoints out of order: {v.lo} > {hi}")
    return OutwardInterval((lo, up), prec)


def _kernel(kernel, v: OutwardInterval) -> OutwardInterval:
    return OutwardInterval(kernel(v._mpi, v._prec), v._prec)


def interval_pow(base, exponent, prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:
    """Enclosure of base**exponent for positive base.

    base: positive int or Fraction (or positive OutwardInterval);
    exponent: int, Fraction, or OutwardInterval, which is used as it is at
    prec bits or more, so that one enclosed exponent serves many bases.
    """
    b = _as_interval(base, prec)
    if b.compare_lo(0) <= 0:
        raise ValueError("interval_pow requires a positive base")
    return b._binop(libmp.mpi_pow, _as_interval(exponent, prec))


def interval_log(x, prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:
    """Enclosure of the natural log of a positive rational or interval."""
    v = _as_interval(x, prec)
    if v.compare_lo(0) <= 0:
        raise ValueError(f"interval_log requires a positive argument, got lo={v.lo}")
    return _kernel(libmp.mpi_log, v)


def interval_exp(x, prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:
    return _kernel(libmp.mpi_exp, _as_interval(x, prec))


def interval_sqrt(x, prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:
    v = _as_interval(x, prec)
    if v.compare_lo(0) < 0:
        raise ValueError("interval_sqrt requires a nonnegative argument")
    return _kernel(libmp.mpi_sqrt, v)
