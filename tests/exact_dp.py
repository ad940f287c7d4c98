"""Exact-Fraction dynamic programs: test oracles for the fixed-point kernel.

These are the rational-arithmetic forms of the marginal and moment DPs.
Their denominators grow with depth, so they are only fit for small (n, cap);
the tests check that the fixed-point enclosures of ecfrac.measure contain
theirs, and are no wider beyond fixed-point rounding.
"""

from fractions import Fraction

from ecfrac.measure import (MarginalTable, ProbInterval, _integral_tail,
                            s_upper_factor)
from ecfrac.numerics import OutwardInterval, default_precision, interval_pow


def uniform_marginal(n: int, cap: int) -> MarginalTable:
    """Law of b_n enclosed by the uniform sandwich j/(k(k+2)) <= P <= (j+1)/(k(k+1))."""
    kk = range(1, cap + 1)
    lo = {k: Fraction(1, k * (k + 1)) for k in kk}
    up = dict(lo)
    for _ in range(n - 1):
        lo = {k: sum(lo[j] * Fraction(j, k * (k + 2)) for j in range(1, k + 1)) for k in kk}
        up = {k: sum(up[j] * Fraction(j + 1, k * (k + 1)) for j in range(1, k + 1)) for k in kk}
    entries = {k: ProbInterval(lo[k], min(up[k], Fraction(1))) for k in kk}
    tail = ProbInterval(max(Fraction(0), 1 - sum(up.values())), 1 - sum(lo.values()))
    return MarginalTable(n, cap, entries, tail)


def exact_propagate(n: int, cap: int):
    """The z-refined DP in exact rationals: (mass_lo, mass_up, exit_lo, exit_up)
    in the layout of ecfrac.measure._propagate, with Fractions for integers."""
    kk = range(1, cap + 1)
    mass_lo = [Fraction(1, j * (j + 1)) for j in kk]
    mass_up = list(mass_lo)
    z_lo = [Fraction(1)] * cap
    z_hi = [Fraction(1)] * cap
    exit_lo, exit_up = [], []
    for _ in range(n - 1):
        exit_lo.append(sum(m * j for j, m in enumerate(mass_lo, 1)))
        exit_up.append(sum(m * (j + 1) for j, m in enumerate(mass_up, 1)))
        new_lo, new_up, new_z_lo, new_z_hi = [], [], [], []
        for k in kk:
            new_lo.append(sum(mass_lo[j - 1] * (j + z_lo[j - 1])
                              / ((k + z_hi[j - 1]) * (k + 1 + z_hi[j - 1]))
                              for j in range(1, k + 1)))
            new_up.append(sum(mass_up[j - 1] * (j + z_hi[j - 1])
                              / ((k + z_lo[j - 1]) * (k + 1 + z_lo[j - 1]))
                              for j in range(1, k + 1)))
            new_z_lo.append(k / (k + max(z_hi[:k])))
            new_z_hi.append(k / (k + min(z_lo[:k])))
        mass_lo, mass_up, z_lo, z_hi = new_lo, new_up, new_z_lo, new_z_hi
    return mass_lo, mass_up, exit_lo, exit_up


def moment_oracle(n: int, theta: Fraction, cap: int, prec: int | None = None) -> ProbInterval:
    """Enclosure of E(b_n^theta), 0 != theta < 1, from the exact DP and the
    exit-cohort tail bounds of ecfrac.measure.moment_interval."""
    theta = Fraction(theta)
    prec = default_precision() if prec is None else prec
    mass_lo, mass_up, exit_lo, exit_up = exact_propagate(n, cap)
    m = cap + 1
    integral, sum_bound = _integral_tail(m, theta, prec)
    s_up = s_upper_factor(m, theta, prec)
    s_lo = OutwardInterval.from_value(Fraction(m, m + 2) / (1 - theta), prec)
    tail_lo = Fraction(m, m + 1) * integral * s_lo ** (n - 1)
    tail_up = sum_bound * s_up ** (n - 1)
    for depth in range(1, n):
        remaining = n - depth - 1
        tail_lo = tail_lo + exit_lo[depth - 1] * (Fraction(m, m + 2) * integral) \
            * s_lo ** remaining
        tail_up = tail_up + exit_up[depth - 1] * sum_bound * s_up ** remaining
    tracked_lo = tracked_hi = OutwardInterval.from_value(0, prec)
    for j in range(1, cap + 1):
        jpow = interval_pow(j, theta, prec)
        tracked_lo = tracked_lo + mass_lo[j - 1] * jpow
        tracked_hi = tracked_hi + mass_up[j - 1] * jpow
    return ProbInterval(max(Fraction(0), tracked_lo.lo + tail_lo.lo),
                        tracked_hi.hi + tail_up.hi)
