"""Cylinder probabilities, transition sandwich, marginals, moment enclosures.

Everything here is with respect to Lebesgue measure on (0,1].  The exact
objects are rationals: a cylinder of word (b_1..b_n) has measure

    prod(b_1..b_{n-1}) / (Q_n * (Q_n + Q_{n-1})),

and the one-step conditional probability given the full history is the
exact ratio Phi(j, k, y) = j(1+y)/((k+jy)(k+1+jy)) with y = Q_{n-1}/Q_n.
The digit chain is not Markov, but Phi is sandwiched uniformly in the
history:

    j/(k(k+2)) <= P(b_{n+1}=k | b_n=j, history) <= (j+1)/(k(k+1)).

The sandwich is what makes rigorous finite-state enclosures possible:
marginal distributions and fractional moments E(b_n^theta) are bounded by
one fixed-point dynamic program over (depth, last digit <= cap), which
refines the sandwich by carrying an interval for the history through
z = b_n Q_{n-1}/Q_n, with all mass on digits beyond the cap controlled by
series/integral tail bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

from .expansion import continuants, is_admissible
from .numerics import (
    DEFAULT_PRECISION_BITS,
    ExtendedReal,
    OutwardInterval,
    _dyadic_interval,
    _scaled_ends,
    interval_pow,
    interval_sqrt,
)
from .words import (
    EXACT_LAST,
    LAST_AT_MOST,
    WordFamily,
    count_words,
    enumerate_words,
)

DEFAULT_CAP = 60


@dataclass(frozen=True)
class ProbInterval:
    """Exact rational enclosure [lo, hi] of a probability or expectation."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"invalid enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: Fraction) -> "ProbInterval":
        value = Fraction(value)
        return cls(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Union[Fraction, int, "ProbInterval"]) -> bool:
        if isinstance(value, ProbInterval):
            return self.lo <= value.lo and value.hi <= self.hi
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class MarginalTable:
    """Distribution of b_n: per-digit enclosures up to a cap, plus the tail."""

    n: int
    cap: int
    entries: dict[int, ProbInterval]
    tail: ProbInterval

    def __post_init__(self):
        total_lo = sum((e.lo for e in self.entries.values()), self.tail.lo)
        total_hi = sum((e.hi for e in self.entries.values()), self.tail.hi)
        if not (total_lo <= 1 <= total_hi):
            raise ValueError(f"marginal table does not enclose a distribution: "
                             f"sum lo = {total_lo}, sum hi = {total_hi}")


def cylinder_measure(word: Sequence[int]) -> Fraction:
    """Exact Lebesgue measure of the cylinder of an admissible word."""
    w = tuple(word)
    if not w or not is_admissible(w):
        raise ValueError(f"cylinder_measure needs a nonempty admissible word, got {w}")
    qs = continuants(w)
    prod = 1
    for b in w[:-1]:
        prod *= b
    return Fraction(prod, qs[-1] * (qs[-1] + qs[-2]))


def conditional_probability(prefix: Sequence[int], next_digit: int) -> Fraction:
    """P(b_{n+1} = next | the full history equals prefix), exact."""
    w = tuple(prefix)
    if not w:
        raise ValueError("prefix must be nonempty")
    if next_digit < w[-1]:
        raise ValueError(f"inadmissible extension: {next_digit} after {w[-1]}")
    return cylinder_measure(w + (next_digit,)) / cylinder_measure(w)


def conditional_given_last(n: int, j: int, k: int) -> Fraction:
    """P(b_n = k | b_{n-1} = j), exact, by summing over all histories.

    This is the history-summed quantity that differs from the single-history
    conditional (the chain is not Markov).
    """
    if n < 2:
        raise ValueError("conditional_given_last needs depth n >= 2")
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= k, got j={j}, k={k}")
    numer = Fraction(0)
    denom = Fraction(0)
    for prefix in enumerate_words(WordFamily(n - 1, j, EXACT_LAST)):
        denom += cylinder_measure(prefix)
        numer += cylinder_measure(prefix + (k,))
    return numer / denom


def transition_bounds(j: int, k: int) -> ProbInterval:
    """The uniform sandwich for P(b_{n+1} = k | b_n = j), any history."""
    if not 1 <= j <= k:
        raise ValueError(f"transition_bounds needs 1 <= j <= k, got j={j}, k={k}")
    return ProbInterval(Fraction(j, k * (k + 2)), Fraction(j + 1, k * (k + 1)))


def _check_positive(function: str, **values: int) -> None:
    """Refuse a value below 1, naming the function, the argument and the value."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{function} needs {name} >= 1, got {value}")


def marginal_exact(n: int, cap: int) -> MarginalTable:
    """Exact P(b_n = k) for k <= cap by full cylinder enumeration."""
    _check_positive("marginal_exact", n=n, cap=cap)
    sums = {k: Fraction(0) for k in range(1, cap + 1)}
    family = WordFamily(n, cap, LAST_AT_MOST)
    visited = 0
    for w in enumerate_words(family):
        sums[w[-1]] += cylinder_measure(w)
        visited += 1
    # Self-check: the enumeration must visit exactly the closed-form count.
    expected = count_words(family)
    if visited != expected:
        raise AssertionError(f"enumeration visited {visited} words, expected {expected}")
    entries = {k: ProbInterval.point(v) for k, v in sums.items()}
    tail = ProbInterval.point(1 - sum(sums.values()))
    return MarginalTable(n, cap, entries, tail)


def _dp_bits(n: int, cap: int) -> int:
    """Fixed-point bits for a depth-n, cap-`cap` DP: 128 + 2n + 2 log2(cap).

    The smallest tracked mass, P(b_n = 1) ~ phi^(-2n), needs about 1.4 n
    bits above DEFAULT_PRECISION_BITS (128) to keep that many relative
    bits; the first-digit law 1/(k(k+1)) needs 2 log2(cap).
    """
    return DEFAULT_PRECISION_BITS + 2 * n + 2 * cap.bit_length()


def _propagate_depths(depths, cap: int) -> dict:
    """The marginal/moment DP over (depth, last digit <= cap) in fixed point:
    one run that serves every depth in depths.

    The run goes to the deepest n at bits = _dp_bits(n, cap) =
    128 + 2n + 2 log2(cap), and maps each depth d of depths to its kernel
    (mass_lo, mass_up, exit_lo, exit_up, bits), whose lists hold integers,
    each the numerator of a dyadic m / 2^bits: index j-1 of the mass lists
    bounds P(b_d = j, b_1..b_d <= cap) from below and above, and entry i-1
    of the exit lists is the exact sum over j of mass_lo[j] * j, resp.
    mass_up[j] * (j+1), at depth i < d, so depth d gets the run's first
    d - 1 exit flows.  A depth below n is thus held at n's bits, more than a
    run of its own would use; more bits never move a bound outward.  So
    depths = {n} gives depth n at its own bits.  No Fraction is made.

    A step uses the exact conditional Phi = (j+z)/((k+z)(k+1+z)), where
    z = b_d Q_{d-1}/Q_d satisfies z_1 = 1 and z' = k/(k+z), carried as a
    per-state interval [z_lo, z_hi]; Phi increases in its numerator's z
    and decreases in its denominator's.  Lower masses and z_lo are rounded
    down (floor division), upper masses and z_hi up (ceiling division), so
    every entry stays a bound; the all-ones state keeps a 1-ulp z interval,
    which is what lets the Fibonacci decay of the digit-1 mass survive.
    A step runs source by source, and a source's two numerators are formed
    once.  An upper mass is a ceiling taken as ceil(N/D) = (N - 1) // D + 1,
    true for every N >= 0 and D > 0: the numerator is stored as N - 1, and
    target k starts at k, the +1 of each of its sources j <= k.  The
    denominators go by second differences: with u = k + z, u(u+1) steps to
    the next target by 2(u+1), and that step grows by 2 per target, so each
    denominator takes two additions per target.  Every entry is a sum of
    floored integers, so the order of summation does not change it.
    """
    top = max(depths)
    bits = _dp_bits(top, cap)
    one = 1 << bits
    step = bits + 1
    two_sq = 2 << (2 * bits)
    last = (cap + 1) * one
    mass_lo = [one // (k * (k + 1)) for k in range(1, cap + 1)]
    mass_up = [-(-one // (k * (k + 1))) for k in range(1, cap + 1)]
    z_lo = [one] * cap
    z_hi = [one] * cap
    exit_lo = []
    exit_up = []
    kernels = {}
    for depth in range(1, top + 1):
        if depth in depths:
            kernels[depth] = (mass_lo, mass_up, exit_lo[:], exit_up[:], bits)
        if depth == top:
            return kernels
        exit_lo.append(sum(m * j for j, m in enumerate(mass_lo, 1)))
        exit_up.append(sum(m * (j + 1) for j, m in enumerate(mass_up, 1)))
        new_lo = [0] * cap
        new_up = list(range(1, cap + 1))
        for j, (m_lo, m_up, a, b) in enumerate(zip(mass_lo, mass_up, z_lo, z_hi), 1):
            # Mass times the Phi numerator, shifted so that dividing by a
            # Phi denominator (over one^2) leaves a mass over one.
            num_lo = (m_lo * (j * one + a)) << bits
            num_up = ((m_up * (j * one + b)) << bits) - 1
            u_lo = j * one + b
            u_up = j * one + a
            d_lo = u_lo * (u_lo + one)
            d_up = u_up * (u_up + one)
            # u(u+1) -> (u+1)(u+2) adds 2(u+1), then 2(u+2), ...
            i_lo = (u_lo + one) << step
            i_up = (u_up + one) << step
            for k in range(j - 1, cap):
                new_lo[k] += num_lo // d_lo
                new_up[k] += num_up // d_up
                d_lo += i_lo
                d_up += i_up
                i_lo += two_sq
                i_up += two_sq
        targets = range(one, last, one)
        z_lo, z_hi = (
            [(k0 << bits) // (k0 + zmax) for k0, zmax in zip(targets, accumulate(z_hi, max))],
            [-(-(k0 << bits) // (k0 + zmin)) for k0, zmin in zip(targets, accumulate(z_lo, min))])
        mass_lo, mass_up = new_lo, new_up


def marginal_interval_dp(n: int, cap: int) -> MarginalTable:
    """Enclosure of the law of b_n, tracking digits <= cap.

    The entries are the mass bounds of the fixed-point DP kernel, whose
    steps use the range of the exact conditional Phi over each state's
    z-interval rather than the uniform sandwich; endpoints are dyadic
    rationals rounded outward.  Since digits never decrease, mass on digits
    > cap can never return to a tracked digit, so tracked entries receive
    no tail inflow and the tail itself is bounded by complementation.
    """
    _check_positive("marginal_interval_dp", n=n, cap=cap)
    lo, up, _, _, bits = _propagate_depths({n}, cap)[n]
    one = 1 << bits
    entries = {k: ProbInterval(Fraction(m_lo, one), Fraction(min(m_up, one), one))
               for k, (m_lo, m_up) in enumerate(zip(lo, up), 1)}
    tail = ProbInterval(max(Fraction(0), 1 - Fraction(sum(up), one)),
                        1 - Fraction(sum(lo), one))
    return MarginalTable(n, cap, entries, tail)


def binet_q(n: int) -> OutwardInterval:
    """Enclosure of the all-ones continuant Q_n by the closed Binet form.

    Q_n = F_{n+1} = (phi^{n+1} - psi^{n+1})/sqrt(5) with psi = (1-sqrt5)/2.
    """
    sqrt5 = interval_sqrt(5)
    phi = (sqrt5 + 1) / 2
    psi = (1 - sqrt5) / 2
    return (phi ** (n + 1) - psi ** (n + 1)) / sqrt5


def prob_digit_one(n: int) -> tuple[Fraction, ProbInterval]:
    """Exact P(b_n = 1) and the Fibonacci sandwich [1/(2 Q_n^2), 1/Q_n^2].

    Only the all-ones word has b_n = 1, so the exact value is its cylinder
    measure 1/(Q_n (Q_n + Q_{n-1})) with Fibonacci continuants.
    """
    if n < 1:
        raise ValueError("prob_digit_one needs n >= 1")
    q_prev, q = continuants((1,) * n)[-2:]
    exact = Fraction(1, q * (q + q_prev))
    sandwich = ProbInterval(Fraction(1, 2 * q * q), Fraction(1, q * q))
    return exact, sandwich


# ---------------------------------------------------------------------------
# Series bounds and fractional-moment enclosures
# ---------------------------------------------------------------------------


def _integral_tail(m: int, theta: Fraction) -> tuple[OutwardInterval, OutwardInterval]:
    """Enclosures of int_m^inf x^(theta-2) dx and of sum_{k>=m} k^(theta-2).

    The summand is decreasing, so the sum lies between the integral and the
    integral plus the first term.
    """
    integral = interval_pow(m, theta - 1) / (1 - theta)
    first = interval_pow(m, theta - 2)
    return integral, integral + first


def s_upper_factor(j: int, theta: Fraction) -> OutwardInterval:
    """The per-level factor (1+1/j) (1-1/j)^(theta-1) / (1-theta), j >= 2.

    Decreasing in j, so it bounds every deeper level once digits exceed j.
    """
    if j < 2:
        raise ValueError("s_upper_factor needs j >= 2")
    theta = Fraction(theta)
    lead = Fraction(j + 1, j)
    power = interval_pow(Fraction(j - 1, j), theta - 1)
    return (lead * power) / (1 - theta)


def moment_interval(n: int, theta: Fraction, cap: int = DEFAULT_CAP) -> ProbInterval | ExtendedReal:
    """Two-sided enclosure of E(b_n^theta) for theta < 1 (else +infinity).

    The tracked part is the mass output of the fixed-point DP kernel over
    (depth, last digit <= cap), weighted by j^theta.  Its steps are refined
    beyond the uniform sandwich: the exact conditional is
    Phi = (j+z)/((k+z)(k+1+z)) with z = b_d Q_{d-1}/Q_d carried as a
    per-state interval (the all-ones state keeps a 1-ulp z interval, so the
    Fibonacci decay of digit-1 mass survives the DP), and masses are
    dyadic rationals rounded outward.  A word leaves the tracked region at
    most once (digits never decrease); each exiting cohort's remaining
    theta-weighted growth is bounded per level by

        lower: ((cap+1)/(cap+3)) / (1-theta)
        upper: (1+1/j)(1-1/j)^(theta-1)/(1-theta) at j = cap+1,

    with integral enclosures of sum_{k>cap} k^(theta-2) at the exit step
    itself.  The kernel runs at 128 + 2n + 2 log2(cap) bits, and its
    integers are weighted exactly: the tracked sum and the tail sum are each
    rounded outward once, at DEFAULT_PRECISION_BITS (128).
    theta = 0 returns the exact point [1,1].  n and cap are checked before
    the kernel runs.
    """
    theta = Fraction(theta)
    _check_positive("moment_interval", n=n, cap=cap)
    return _moment_rows([(n, (theta,))], cap)[0][0]


def _moment_rows(rows: Sequence[tuple[int, Sequence[Fraction]]],
                 cap: int) -> list[list[ProbInterval | ExtendedReal]]:
    """moment_interval(n, theta, cap) for each theta of each (n, thetas) of
    rows, in order, from at most one run of the DP kernel; each theta is a
    Fraction, and every n and the cap are positive, as the callers check.

    The kernel's masses and exit flows do not depend on theta, only their
    weighting does, and one run hands out every depth.  So the kernel runs
    once, at the bits of the deepest n that has a theta to weight, and not
    at all when every theta is 0 or >= 1.
    """
    depths = {n for n, thetas in rows if any(theta != 0 and theta < 1 for theta in thetas)}
    kernels = _propagate_depths(depths, cap) if depths else {}
    return [[ExtendedReal.infinity() if theta >= 1
             else ProbInterval.point(Fraction(1)) if theta == 0
             else _weighted_moment(theta, kernels[n]) for theta in thetas]
            for n, thetas in rows]


def _weighted_moment(theta: Fraction, kernel) -> ProbInterval:
    """E(b_n^theta), 0 != theta < 1, from a kernel of _propagate_depths.

    The kernel alone fixes n and cap: it holds one exit flow per depth
    below n and one mass per last digit up to cap.  Every term is positive,
    so the lower end needs only the lower ends of the factors and the upper
    end only the upper ends.  Each of the two sums, tracked and tail, is
    formed exactly in integers over one power of two and rounded outward
    once at DEFAULT_PRECISION_BITS, then the two are added exactly.  The
    tracked sum weights the masses by the ends of a j^theta table; the tail
    sums the exit cohorts by Horner's rule in the level factor s.
    """
    mass_lo, mass_up, exit_lo, exit_up, bits = kernel
    n, cap = len(exit_lo) + 1, len(mass_lo)
    m = cap + 1
    integral, sum_bound = _integral_tail(m, theta)
    s_lo = OutwardInterval.from_value(Fraction(m, m + 2) / (1 - theta))

    # Words whose very first digit already exceeds the cap:
    # P(b_1 = j) j^theta = j^(theta-1)/(j+1) in [k^(theta-2) m/(m+1), k^(theta-2)];
    # an exit at depth d carries the series over k > cap of j k^(theta-1)/(k+2)
    # from below and (j+1) k^(theta-1)/(k+1) from above, per unit of its
    # j-weighted mass; s bounds each remaining level's growth.
    ((first_lo, _), (per_exit_lo, _), (level_lo, _), (_, bound_up), (_, level_up)), e = \
        _scaled_ends([Fraction(m, m + 1) * integral, Fraction(m, m + 2) * integral, s_lo,
                      sum_bound, s_upper_factor(m, theta)])
    # Each factor is its integer times 2^-t, with t >= 0.
    t = max(-e, 0)
    first_lo, per_exit_lo, level_lo, bound_up, level_up = (
        f << (e + t) for f in (first_lo, per_exit_lo, level_lo, bound_up, level_up))
    # Horner over the exit cohorts: after the exit at depth d = i + 1,
    # acc * 2^-(bits + t i) is the sum over d' <= d of exit_d' s^(d - d').
    acc_lo = acc_up = 0
    for i, (out_lo, out_up) in enumerate(zip(exit_lo, exit_up)):
        acc_lo = acc_lo * level_lo + (out_lo << (t * i))
        acc_up = acc_up * level_up + (out_up << (t * i))
    # Over 2^(bits + t n): first * s^(n-1) + per_exit * acc.
    tail = _dyadic_interval((first_lo * level_lo ** (n - 1) << bits) + (per_exit_lo * acc_lo << t),
                            (bound_up * level_up ** (n - 1) << bits) + (bound_up * acc_up << t),
                            -(bits + t * n))

    theta_iv = OutwardInterval.from_value(theta)
    jpow, e = _scaled_ends([interval_pow(j, theta_iv) for j in range(1, cap + 1)])
    tracked = _dyadic_interval(sum(a * lo for a, (lo, _) in zip(mass_lo, jpow)),
                               sum(a * hi for a, (_, hi) in zip(mass_up, jpow)),
                               e - bits)
    return ProbInterval(max(Fraction(0), tracked.lo + tail.lo), tracked.hi + tail.hi)
