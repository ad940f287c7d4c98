"""Engel continued fraction expansion: digits, reconstruction, cylinders.

A point x in (0,1] expands as

    x = 1/(b_1 + b_1/(b_2 + b_2/(b_3 + ...)))

under the map T(x) = (1/d)*(1/x - d) with d = floor(1/x).  The digit
sequence is non-decreasing, and it is finite exactly when x is rational
(the remainder hits 0).  Cylinders — the sets of points sharing a digit
prefix — are intervals whose endpoints are the two finite continued
fractions [[b_1..b_n]] and [[b_1..b_{n-1}, b_n+1]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

DigitWord = tuple[int, ...]

DEFAULT_MAX_DIGITS = 64


@dataclass(frozen=True)
class CertifiedExpansion:
    """Digits known to be correct, plus how they were cut off.

    digits: the leading digits that every point of the input set shares.
    truncated: True when the digit budget stopped the computation while
    more digits were still derivable.
    """

    digits: DigitWord
    truncated: bool


def is_admissible(word: Sequence[int]) -> bool:
    """True iff the word is a realizable digit prefix: entries >= 1, non-decreasing."""
    prev = 1
    for b in word:
        if b < 1 or b < prev:
            return False
        prev = b
    return True


def _require_admissible(word: Sequence[int]) -> DigitWord:
    w = tuple(int(b) for b in word)
    if not is_admissible(w):
        raise ValueError(f"inadmissible digit word: {w}")
    return w


def _walk(p: int, q: int, max_digits: int) -> tuple[list[int], int, int]:
    """The first max_digits digits of p/q, or all of them, and the pair left.

    One step maps p/q to (q - d*p)/(d*p) with d = q // p on unnormalized
    integer pairs, that is to (q - d p, d p), so the operands never grow
    past the initial denominator.  The walk stops after the digit whose
    remainder is 0, returning p = 0, or after max_digits.
    """
    digits: list[int] = []
    while p and len(digits) < max_digits:
        d, r = divmod(q, p)
        digits.append(d)
        p, q = r, q - r
    return digits, p, q


def _checked(lo: Fraction, hi: Fraction, max_digits: int) -> tuple[Fraction, Fraction]:
    if max_digits < 1:
        raise ValueError("max_digits must be >= 1")
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 < lo <= hi <= 1):
        raise ValueError(f"expansion needs 0 < lo <= hi <= 1, got [{lo}, {hi}]")
    return lo, hi


def expand_rational(x: Fraction, max_digits: int = DEFAULT_MAX_DIGITS) -> CertifiedExpansion:
    """Full ECF expansion of a rational; always terminates (possibly truncated).

    truncated=False means the remainder reached 0 and ``digits`` is the
    complete expansion: reconstruct(digits) == x.
    """
    x, _ = _checked(x, x, max_digits)
    digits, p, _ = _walk(x.numerator, x.denominator, max_digits)
    return CertifiedExpansion(tuple(digits), p != 0)


def expand_interval(lo: Fraction, hi: Fraction,
                    max_digits: int = DEFAULT_MAX_DIGITS) -> CertifiedExpansion:
    """Longest common digit prefix of every point in [lo, hi].

    Cylinders are intervals, so it is the common prefix of the endpoints'
    walks.  It ends after a digit where either endpoint's expansion ends,
    since the sub-cylinders accumulate there, so it is truncated only when
    both walks ran max_digits digits with nonzero remainders.
    """
    lo, hi = _checked(lo, hi, max_digits)
    digits, p_lo, _ = _walk(lo.numerator, lo.denominator, max_digits)
    other, p_hi, _ = _walk(hi.numerator, hi.denominator, len(digits))
    shared = next((i for i, (a, b) in enumerate(zip(digits, other)) if a != b), len(other))
    return CertifiedExpansion(tuple(digits[:shared]),
                              shared == max_digits and p_lo != 0 and p_hi != 0)


def reconstruct(word: Sequence[int]) -> Fraction:
    """Exact value of a finite expansion, evaluated bottom-up.

    r <- b_n; then r <- b_k + b_k/r for k = n-1 .. 1; the value is 1/r.
    """
    w = _require_admissible(word)
    if not w:
        raise ValueError("cannot reconstruct the empty word")
    r = Fraction(w[-1])
    for b in reversed(w[:-1]):
        r = b + b / r
    return 1 / r


def continuants(word: Sequence[int]) -> list[int]:
    """The sequence Q_0..Q_n with Q_k = b_k*Q_{k-1} + b_{k-1}*Q_{k-2}.

    Seeds are Q_{-1} = 0, Q_0 = 1 (so Q_1 = b_1).  For the all-ones word
    this is the Fibonacci sequence.
    """
    w = _require_admissible(word)
    qs = [1]
    q_prevprev, q_prev = 0, 1
    b_prev = 1
    for b in w:
        q = b * q_prev + b_prev * q_prevprev
        qs.append(q)
        q_prevprev, q_prev = q_prev, q
        b_prev = b
    return qs


def cylinder_endpoints(word: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Endpoints of the cylinder of the word, sorted ascending.

    They are the values of the word itself and of the word with its last
    digit bumped by one; which is smaller alternates with depth.
    """
    w = _require_admissible(word)
    if not w:
        raise ValueError("cylinder of the empty word is the whole space")
    e1 = reconstruct(w)
    e2 = reconstruct(w[:-1] + (w[-1] + 1,))
    return (e1, e2) if e1 <= e2 else (e2, e1)
