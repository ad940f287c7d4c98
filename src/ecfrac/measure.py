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
from typing import Sequence, Union

from .expansion import continuants, is_admissible
from .numerics import (
    ExtendedReal,
    OutwardInterval,
    default_precision,
    interval_pow,
    interval_sqrt,
)
from .words import (
    DEFAULT_BUDGET,
    EXACT_LAST,
    LAST_AT_MOST,
    WordFamily,
    count_words,
    enumerate_words,
)


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


def conditional_given_last(n: int, j: int, k: int, budget: int = DEFAULT_BUDGET) -> Fraction:
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
    for prefix in enumerate_words(WordFamily(n - 1, j, EXACT_LAST), budget):
        denom += cylinder_measure(prefix)
        numer += cylinder_measure(prefix + (k,))
    return numer / denom


def transition_bounds(j: int, k: int) -> ProbInterval:
    """The uniform sandwich for P(b_{n+1} = k | b_n = j), any history."""
    if not 1 <= j <= k:
        raise ValueError(f"transition_bounds needs 1 <= j <= k, got j={j}, k={k}")
    return ProbInterval(Fraction(j, k * (k + 2)), Fraction(j + 1, k * (k + 1)))


def marginal_exact(n: int, kmax: int, budget: int = DEFAULT_BUDGET) -> MarginalTable:
    """Exact P(b_n = k) for k <= kmax by full cylinder enumeration."""
    if n < 1 or kmax < 1:
        raise ValueError("marginal_exact needs n >= 1 and kmax >= 1")
    sums = {k: Fraction(0) for k in range(1, kmax + 1)}
    family = WordFamily(n, kmax, LAST_AT_MOST)
    visited = 0
    for w in enumerate_words(family, budget):
        sums[w[-1]] += cylinder_measure(w)
        visited += 1
    # Self-check: the enumeration must visit exactly the closed-form count.
    expected = count_words(family)
    if visited != expected:
        raise AssertionError(f"enumeration visited {visited} words, expected {expected}")
    entries = {k: ProbInterval.point(v) for k, v in sums.items()}
    tail = ProbInterval.point(1 - sum(sums.values()))
    return MarginalTable(n, kmax, entries, tail)


def _dp_bits(n: int, cap: int, prec: int) -> int:
    """Fixed-point bits for a depth-n, cap-`cap` DP at interval precision prec.

    The smallest tracked mass, P(b_n = 1) ~ phi^(-2n), needs about 1.4 n
    bits above prec to keep prec relative bits; the first-digit law
    1/(k(k+1)) needs 2 log2(cap).
    """
    return prec + 2 * n + 2 * cap.bit_length()


def _propagate(n: int, cap: int, bits: int):
    """The marginal/moment DP over (depth, last digit <= cap) in fixed point.

    Returns (mass_lo, mass_up, exit_lo, exit_up), all integers over
    2^bits: index j-1 of the mass lists bounds P(b_n = j, b_1..b_n <= cap)
    from below and above, and entry d-1 of the exit lists is the exact sum
    over j of mass_lo[j] * j, resp. mass_up[j] * (j+1), at depth d < n.

    A step uses the exact conditional Phi = (j+z)/((k+z)(k+1+z)), where
    z = b_d Q_{d-1}/Q_d satisfies z_1 = 1 and z' = k/(k+z), carried as a
    per-state interval [z_lo, z_hi]; Phi increases in its numerator's z
    and decreases in its denominator's.  Lower masses and z_lo are rounded
    down (floor division), upper masses and z_hi up (ceiling division), so
    every entry stays a bound; the all-ones state keeps a 1-ulp z interval,
    which is what lets the Fibonacci decay of the digit-1 mass survive.
    """
    one = 1 << bits
    mass_lo = [one // (k * (k + 1)) for k in range(1, cap + 1)]
    mass_up = [-(-one // (k * (k + 1))) for k in range(1, cap + 1)]
    z_lo = [one] * cap
    z_hi = [one] * cap
    exit_lo = []
    exit_up = []
    for _ in range(n - 1):
        exit_lo.append(sum(m * j for j, m in enumerate(mass_lo, 1)))
        exit_up.append(sum(m * (j + 1) for j, m in enumerate(mass_up, 1)))
        # Per source state: mass times the Phi numerator, shifted so that
        # dividing by a Phi denominator (over one^2) leaves a mass over one.
        num_lo = [(m * (j * one + a)) << bits
                  for j, (m, a) in enumerate(zip(mass_lo, z_lo), 1)]
        num_up = [(m * (j * one + b)) << bits
                  for j, (m, b) in enumerate(zip(mass_up, z_hi), 1)]
        new_lo, new_up, new_z_lo, new_z_hi = [], [], [], []
        zmin, zmax = one, 0
        for k in range(1, cap + 1):
            zmin = min(zmin, z_lo[k - 1])
            zmax = max(zmax, z_hi[k - 1])
            k0 = k * one
            k1 = k0 + one
            acc_lo = acc_up = 0
            for j in range(k):
                b = z_hi[j]
                acc_lo += num_lo[j] // ((k0 + b) * (k1 + b))
                a = z_lo[j]
                acc_up -= -num_up[j] // ((k0 + a) * (k1 + a))
            new_lo.append(acc_lo)
            new_up.append(acc_up)
            new_z_lo.append((k0 << bits) // (k0 + zmax))
            new_z_hi.append(-(-(k0 << bits) // (k0 + zmin)))
        mass_lo, mass_up, z_lo, z_hi = new_lo, new_up, new_z_lo, new_z_hi
    return mass_lo, mass_up, exit_lo, exit_up


def marginal_interval_dp(n: int, cap: int) -> MarginalTable:
    """Enclosure of the law of b_n, tracking digits <= cap.

    The entries are the mass bounds of the fixed-point DP kernel, whose
    steps use the range of the exact conditional Phi over each state's
    z-interval rather than the uniform sandwich; endpoints are dyadic
    rationals rounded outward.  Since digits never decrease, mass on digits
    > cap can never return to a tracked digit, so tracked entries receive
    no tail inflow and the tail itself is bounded by complementation.
    """
    if n < 1 or cap < 1:
        raise ValueError("marginal_interval_dp needs n >= 1 and cap >= 1")
    bits = _dp_bits(n, cap, default_precision())
    one = 1 << bits
    lo, up, _, _ = _propagate(n, cap, bits)
    entries = {k: ProbInterval(Fraction(lo[k - 1], one), Fraction(min(up[k - 1], one), one))
               for k in range(1, cap + 1)}
    tail = ProbInterval(Fraction(max(0, one - sum(up)), one), Fraction(one - sum(lo), one))
    return MarginalTable(n, cap, entries, tail)


def _fibonacci_continuants(n: int) -> tuple[int, int]:
    """(Q_{n-1}, Q_n) for the all-ones word: consecutive Fibonacci numbers."""
    q_prev, q = 0, 1  # Q_{-1}, Q_0
    for _ in range(n):
        q_prev, q = q, q + q_prev
    return q_prev, q


def binet_q(n: int, prec: int | None = None) -> OutwardInterval:
    """Enclosure of the all-ones continuant Q_n by the closed Binet form.

    Q_n = F_{n+1} = (phi^{n+1} - psi^{n+1})/sqrt(5) with psi = (1-sqrt5)/2.
    """
    prec = default_precision() if prec is None else prec
    sqrt5 = interval_sqrt(5, prec)
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
    q_prev, q = _fibonacci_continuants(n)
    exact = Fraction(1, q * (q + q_prev))
    sandwich = ProbInterval(Fraction(1, 2 * q * q), Fraction(1, q * q))
    return exact, sandwich


# ---------------------------------------------------------------------------
# Series bounds and fractional-moment enclosures
# ---------------------------------------------------------------------------


def _integral_tail(m: int, theta: Fraction, prec: int) -> tuple[OutwardInterval, OutwardInterval]:
    """Enclosures of int_m^inf x^(theta-2) dx and of sum_{k>=m} k^(theta-2).

    The summand is decreasing, so the sum lies between the integral and the
    integral plus the first term.
    """
    integral = interval_pow(m, theta - 1, prec) / (1 - theta)
    first = interval_pow(m, theta - 2, prec)
    return integral, integral + first


def s_upper_factor(j: int, theta: Fraction, prec: int | None = None) -> OutwardInterval:
    """The per-level factor (1+1/j) (1-1/j)^(theta-1) / (1-theta), j >= 2.

    Decreasing in j, so it bounds every deeper level once digits exceed j.
    """
    if j < 2:
        raise ValueError("s_upper_factor needs j >= 2")
    prec = default_precision() if prec is None else prec
    theta = Fraction(theta)
    lead = Fraction(j + 1, j)
    power = interval_pow(Fraction(j - 1, j), theta - 1, prec)
    return (lead * power) / (1 - theta)


def series_bounds_check(j: int, theta: Fraction, terms: int = 2000,
                        prec: int | None = None) -> tuple[bool, bool]:
    """Certify the two series inequalities behind the moment bounds.

    lower: sum_{k>=j} j/(k(k+2)) (k/j)^theta >= (j/(j+2)) / (1-theta)
    upper: sum_{k>=j} (j+1)/(k(k+1)) (k/j)^theta <= (1+1/j)(1-1/j)^(theta-1)/(1-theta)

    Both series are summed explicitly for `terms` terms and closed with
    integral tail enclosures; returns whether each inequality is certified
    as an interval statement.
    """
    if j < 2:
        raise ValueError("series_bounds_check needs j >= 2")
    theta = Fraction(theta)
    if theta >= 1:
        raise ValueError("series diverge for theta >= 1")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    prec = default_precision() if prec is None else prec

    m = j + terms
    lower_sum = OutwardInterval.from_value(0, prec)
    upper_sum = OutwardInterval.from_value(0, prec)
    for k in range(j, m):
        ratio_pow = interval_pow(Fraction(k, j), theta, prec)
        lower_sum = lower_sum + Fraction(j, k * (k + 2)) * ratio_pow
        upper_sum = upper_sum + Fraction(j + 1, k * (k + 1)) * ratio_pow

    # Only the lower series' lower end and the upper series' upper end are
    # compared, so each needs only that side of its tail over k >= m.
    integral, sum_bound = _integral_tail(m, theta, prec)
    # lower tail terms: t_k = j^(1-theta) k^(theta-1)/(k+2)
    # >= j^(1-theta) k^(theta-2) m/(m+2)
    lower_tail_lo = interval_pow(j, 1 - theta, prec) * Fraction(m, m + 2) * integral
    # upper tail terms: t_k = (j+1) j^(-theta) k^(theta-1)/(k+1)
    # <= (j+1) j^(-theta) k^(theta-2)
    upper_tail_hi = interval_pow(j, -theta, prec) * (j + 1) * sum_bound

    lower_ok = (lower_sum + lower_tail_lo).lo >= Fraction(j, j + 2) / (1 - theta)
    upper_ok = (upper_sum + upper_tail_hi).hi <= s_upper_factor(j, theta, prec).lo
    return lower_ok, upper_ok


def moment_interval(n: int, theta: Fraction, cap: int = 60,
                    prec: int | None = None) -> ProbInterval | ExtendedReal:
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
    itself.  theta = 0 returns the exact point [1,1].
    """
    if n < 1 or cap < 1:
        raise ValueError("moment_interval needs n >= 1 and cap >= 1")
    theta = Fraction(theta)
    if theta >= 1:
        return ExtendedReal.infinity()
    if theta == 0:
        return ProbInterval.point(Fraction(1))
    prec = default_precision() if prec is None else prec
    bits = _dp_bits(n, cap, prec)
    one = 1 << bits
    mass_lo, mass_up, exit_lo, exit_up = _propagate(n, cap, bits)

    m = cap + 1
    integral, sum_bound = _integral_tail(m, theta, prec)
    # Exit-step series over k > cap: sum (j+1) k^(theta-1)/(k+1) and
    # sum j k^(theta-1)/(k+2), per unit of j-weighted mass.
    exit_up_per_j = sum_bound                              # times (j+1)
    exit_lo_per_j = Fraction(m, m + 2) * integral          # times j
    s_up = s_upper_factor(m, theta, prec)                  # per remaining level
    s_lo = OutwardInterval.from_value(Fraction(m, m + 2) / (1 - theta), prec)

    # Words whose very first digit already exceeds the cap:
    # P(b_1 = j) j^theta = j^(theta-1)/(j+1) in [k^(theta-2) m/(m+1), k^(theta-2)].
    tail_lo = Fraction(m, m + 1) * integral * s_lo ** (n - 1)
    tail_up = sum_bound * s_up ** (n - 1)
    for depth, (out_lo, out_up) in enumerate(zip(exit_lo, exit_up), 1):
        remaining = n - depth - 1  # levels left after arriving beyond the cap
        tail_lo = tail_lo + Fraction(out_lo, one) * exit_lo_per_j * s_lo ** remaining
        tail_up = tail_up + Fraction(out_up, one) * exit_up_per_j * s_up ** remaining

    tracked_lo = tracked_hi = OutwardInterval.from_value(0, prec)
    for j, (m_lo, m_up) in enumerate(zip(mass_lo, mass_up), 1):
        jpow = interval_pow(j, theta, prec)
        tracked_lo = tracked_lo + Fraction(m_lo, one) * jpow
        tracked_hi = tracked_hi + Fraction(m_up, one) * jpow

    lo = tracked_lo.lo + tail_lo.lo
    hi = tracked_hi.hi + tail_up.hi
    return ProbInterval(max(Fraction(0), lo), hi)
