"""Exact-Fraction dynamic programs: test oracles for the fixed-point kernel.

These are the rational-arithmetic forms of the marginal and moment DPs.
Their denominators grow with depth, so they are only fit for small (n, cap);
the tests check that the fixed-point enclosures of ecfrac.measure contain
theirs, and are no wider beyond fixed-point rounding.  moment_oracle also
weights the fixed-point kernel's own masses with one outward-rounded
interval operation per term, which ecfrac.measure.moment_interval must lie
inside.  reference_propagate is the fixed-point kernel in its plainest
integer form, which ecfrac.measure._propagate_depths({n}, cap)[n] must
equal list for list.
"""

from fractions import Fraction
from itertools import accumulate

from ecfrac.measure import MarginalTable, ProbInterval, _dp_bits, _propagate_depths
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
    in the layout of ecfrac.measure._propagate_depths, whose integers over 2^bits
    are Fractions here, with no bits entry."""
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


def reference_propagate(n: int, cap: int):
    """ecfrac.measure._propagate_depths({n}, cap)[n] in its plainest integer form: an
    upper mass is the floor of a negated numerator, negated, and u = k + z
    steps up one unit per target, its denominator u(u+1) by 2(u+1)."""
    bits = _dp_bits(n, cap)
    one = 1 << bits
    step = bits + 1
    mass_lo = [one // (k * (k + 1)) for k in range(1, cap + 1)]
    mass_up = [-(-one // (k * (k + 1))) for k in range(1, cap + 1)]
    z_lo = [one] * cap
    z_hi = [one] * cap
    exit_lo, exit_up = [], []
    for _ in range(n - 1):
        exit_lo.append(sum(m * j for j, m in enumerate(mass_lo, 1)))
        exit_up.append(sum(m * (j + 1) for j, m in enumerate(mass_up, 1)))
        new_lo = [0] * cap
        new_up = [0] * cap
        for j, (m_lo, m_up, a, b) in enumerate(zip(mass_lo, mass_up, z_lo, z_hi), 1):
            num_lo = (m_lo * (j * one + a)) << bits
            neg_up = -((m_up * (j * one + b)) << bits)
            u_lo = j * one + b
            u_up = j * one + a
            d_lo = u_lo * (u_lo + one)
            d_up = u_up * (u_up + one)
            for k in range(j - 1, cap):
                new_lo[k] += num_lo // d_lo
                new_up[k] -= neg_up // d_up
                u_lo += one
                u_up += one
                d_lo += u_lo << step
                d_up += u_up << step
        targets = range(one, (cap + 1) * one, one)
        z_lo, z_hi = (
            [(k0 << bits) // (k0 + zmax) for k0, zmax in zip(targets, accumulate(z_hi, max))],
            [-(-(k0 << bits) // (k0 + zmin)) for k0, zmin in zip(targets, accumulate(z_lo, min))])
        mass_lo, mass_up = new_lo, new_up
    return mass_lo, mass_up, exit_lo, exit_up, bits


def fixed_point_propagate(n: int, cap: int):
    """ecfrac.measure._propagate_depths({n}, cap)[n] in the layout of
    exact_propagate: its integers over 2^bits as Fractions."""
    *flows, bits = _propagate_depths({n}, cap)[n]
    return tuple([Fraction(x, 1 << bits) for x in flow] for flow in flows)


def moment_oracle(n: int, theta: Fraction, cap: int, prec: int | None = None,
                  kernel=None) -> ProbInterval:
    """Enclosure of E(b_n^theta), 0 != theta < 1, from a kernel's masses and
    exit flows (by default exact_propagate(n, cap)) and the exit-cohort tail
    bounds of ecfrac.measure.moment_interval.

    It computes its own tail factors, at its own prec, with m = cap + 1: the
    integral m^(theta-1)/(1-theta), the sum bound (that integral plus
    m^(theta-2)) and the upper level factor (1+1/m)(1-1/m)^(theta-1)/(1-theta),
    each in ecfrac.measure's order of operations.  So a fault in the
    library's factors shows as a difference here.  The weighting is one
    OutwardInterval operation per term, each rounded outward, in the order
    the library used before it summed each part exactly; on
    fixed_point_propagate's output it is that earlier moment_interval, bit
    for bit."""
    theta = Fraction(theta)
    prec = default_precision() if prec is None else prec
    mass_lo, mass_up, exit_lo, exit_up = exact_propagate(n, cap) if kernel is None else kernel
    m = cap + 1
    integral = interval_pow(m, theta - 1, prec) / (1 - theta)
    sum_bound = integral + interval_pow(m, theta - 2, prec)
    s_up = (Fraction(m + 1, m) * interval_pow(Fraction(m - 1, m), theta - 1, prec)) / (1 - theta)
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
