"""Machine speed, measured with a fixed kernel that does not touch ecfrac.

The 2-CPU VM this benchmark was defined on runs at two speeds about 1.6x
apart, and the mix between them shifts from one minute to the next, so
the raw time of the same run moved by up to 30% between runs.  A run
therefore also times this kernel every SAMPLE_EVERY_S seconds, between
jobs, and reports its end-to-end times divided by the speed factor: the
median kernel time of the run over REFERENCE_S.  The kernel does what
dominates ecfrac's hot paths, big-integer division and Fraction addition,
so it slows down with the machine in much the same way.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Median kernel time on the VM the benchmark was defined on (Intel Xeon,
# 2 vCPUs, Python 3.11.7).  Reported times are times at this speed.
REFERENCE_S = 0.0083
SAMPLE_EVERY_S = 0.2


def kernel() -> int:
    big = 3**4000
    acc = 0
    for i in range(1, 200):
        acc += (big % (7**1300 + i)).bit_length()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 7)
    return acc + total.denominator.bit_length()


class Speed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless it ran less than SAMPLE_EVERY_S ago."""
        start = time.perf_counter()
        if not force and start - self._last < SAMPLE_EVERY_S:
            return
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def factor(self) -> float:
        """How much slower than the reference the machine ran (>1: slower)."""
        return statistics.median(self.samples) / REFERENCE_S
