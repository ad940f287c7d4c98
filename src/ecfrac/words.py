"""Counting and enumeration of admissible digit words.

The families are the length-n non-decreasing words with final digit
exactly m ("exact-last") or at most m ("last-at-most").  Their sizes are
C(n+m-2, m-1) and C(n+m-1, m-1); enumeration is plain stars-and-bars via
combinations_with_replacement, which already yields lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator, Literal

from .expansion import DigitWord

EXACT_LAST = "exact-last"
LAST_AT_MOST = "last-at-most"

DEFAULT_BUDGET = 10**7


class BudgetError(Exception):
    """Raised when an enumeration would exceed its word budget."""

    def __init__(self, count: int, budget: int, what: str = "enumeration"):
        self.count = count
        self.budget = budget
        super().__init__(f"{what} needs {count} words, over the budget of {budget}")


@dataclass(frozen=True)
class WordFamily:
    n: int
    m: int
    mode: Literal["exact-last", "last-at-most"]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"word length must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"final-digit parameter must be >= 1, got {self.m}")
        if self.mode not in (EXACT_LAST, LAST_AT_MOST):
            raise ValueError(f"unknown mode: {self.mode!r}")


def count_words(family: WordFamily) -> int:
    """Exact size of the family, by the closed-form binomials."""
    n, m = family.n, family.m
    if family.mode == EXACT_LAST:
        return comb(n + m - 2, m - 1)
    return comb(n + m - 1, m - 1)


def enumerate_words(family: WordFamily, budget: int = DEFAULT_BUDGET) -> Iterator[DigitWord]:
    """Yield every word of the family exactly once, lexicographically.

    Refuses up front (naming the count) when the family is larger than the
    budget; a negative budget is malformed, a ValueError.
    """
    if budget < 0:
        raise ValueError(f"enumerate_words needs budget >= 0, got {budget}")
    count = count_words(family)
    if count > budget:
        raise BudgetError(count, budget, f"enumerating {family}")
    return _generate(family)


def _generate(family: WordFamily) -> Iterator[DigitWord]:
    n, m = family.n, family.m
    if family.mode == EXACT_LAST:
        for prefix in combinations_with_replacement(range(1, m + 1), n - 1):
            yield prefix + (m,)
    else:
        yield from combinations_with_replacement(range(1, m + 1), n)
