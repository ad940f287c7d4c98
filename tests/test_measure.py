"""Lebesgue laws of the digit sequence: cylinders, marginals, moments."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecfrac.deviations import mdp_curve, moment_growth_rate
from ecfrac.expansion import continuants
from ecfrac.measure import (ProbInterval, _dp_bits, _integral_tail, _moment_rows,
                            _propagate_depths, binet_q,
                            conditional_given_last, conditional_probability,
                            cylinder_measure, marginal_exact,
                            marginal_interval_dp, moment_interval,
                            prob_digit_one, s_upper_factor, transition_bounds)
from ecfrac.numerics import (ExtendedReal, OutwardInterval, default_precision,
                             interval_pow)
from exact_dp import (fixed_point_propagate, moment_oracle, reference_propagate,
                      uniform_marginal)

# hand-computed golden measures: prod(b_i, i < n) / (Q_n (Q_n + Q_{n-1}))
GOLDEN_MEASURES = [
    ((1,), Fraction(1, 2)),
    ((2,), Fraction(1, 6)),       # 1/(2*3)
    ((1, 1), Fraction(1, 6)),     # Q = (1, 2): 1/(2*3)
    ((1, 2), Fraction(1, 12)),    # Q = (1, 3): 1/(3*4)
    ((2, 2), Fraction(1, 24)),    # Q = (2, 6): 2/(6*8)
    ((1, 2, 3), Fraction(1, 77)),  # Q = (1, 3, 11): 2/(11*14)
    ((2, 2, 3), Fraction(1, 154)),  # Q = (2, 6, 22): 4/(22*28)
]


def test_golden_cylinder_measures():
    for word, expected in GOLDEN_MEASURES:
        assert cylinder_measure(word) == expected, word


def test_first_digit_law():
    # P(b_1 = k) = 1/(k(k+1))
    for k in range(1, 30):
        assert cylinder_measure((k,)) == Fraction(1, k * (k + 1))


def test_cylinder_measure_rejects_bad_words():
    with pytest.raises(ValueError):
        cylinder_measure(())
    with pytest.raises(ValueError):
        cylinder_measure((3, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: transition_bounds(3, 2), "needs 1 <= j <= k"),
    (lambda: conditional_given_last(1, 1, 1), "needs depth n >= 2"),
    (lambda: conditional_given_last(3, 2, 1), "need 1 <= j <= k, got j=2, k=1"),
    (lambda: conditional_probability((), 1), "prefix must be nonempty"),
    (lambda: conditional_probability((1, 3), 2), "inadmissible extension: 2 after 3"),
    (lambda: prob_digit_one(0), "needs n >= 1"),
    (lambda: s_upper_factor(1, Fraction(1, 2)), "needs j >= 2"),
], ids=["transition-bounds-k-below-j", "given-last-depth-one", "given-last-k-below-j",
        "empty-prefix", "inadmissible-extension", "digit-one-depth-zero",
        "level-factor-j-one"])
def test_measure_refuses_arguments_outside_its_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@st.composite
def words(draw, max_len=6, max_digit=20):
    length = draw(st.integers(1, max_len))
    digits, prev = [], 1
    for _ in range(length):
        prev = draw(st.integers(prev, max_digit))
        digits.append(prev)
    return tuple(digits)


@given(words())
def test_conditional_probabilities_sum_below_one(w):
    # partial sums over the next digit stay below 1 and increase
    total = Fraction(0)
    for k in range(w[-1], w[-1] + 12):
        total += conditional_probability(w, k)
    assert 0 < total < 1


@given(words())
@settings(max_examples=60)
def test_transition_bounds_contain_single_history_conditional(w):
    j = w[-1]
    for k in (j, j + 1, j + 5):
        p = conditional_probability(w, k)
        assert transition_bounds(j, k).contains(p)


def test_conditional_given_last_depth_two_closed_form():
    # n = 2: P(b_2 = k | b_1 = j) = (j+1)/((k+1)(k+2)), exact
    for j in range(1, 8):
        for k in range(j, j + 8):
            assert conditional_given_last(2, j, k) == \
                Fraction(j + 1, (k + 1) * (k + 2))


def test_conditional_given_last_contained_in_transition_bounds():
    for n in (2, 3, 4):
        for j in (1, 2, 5):
            for k in (j, j + 3):
                p = conditional_given_last(n, j, k)
                assert transition_bounds(j, k).contains(p)


def test_marginal_exact_digit_one_matches_fibonacci():
    for n in range(1, 7):
        table = marginal_exact(n, 3)
        exact, _ = prob_digit_one(n)
        cell = table.entries[1]
        assert cell.lo == cell.hi == exact


def test_marginal_interval_contains_exact():
    for n in (1, 2, 3, 4):
        cap = 8
        exact = marginal_exact(n, cap)
        enclosed = marginal_interval_dp(n, cap)
        for k in range(1, cap + 1):
            assert enclosed.entries[k].contains(exact.entries[k].lo), (n, k)
        assert enclosed.tail.contains(exact.tail.lo)


def test_marginal_table_mass_bracket():
    table = marginal_interval_dp(6, 10)
    low = sum(cell.lo for cell in table.entries.values()) + table.tail.lo
    high = sum(cell.hi for cell in table.entries.values()) + table.tail.hi
    assert low <= 1 <= high


def test_marginal_digit_one_keeps_precision_at_depth_120():
    # P(b_120 = 1) ~ phi^-240 ~ 2^-167: a fixed point of 128 bits would
    # round its lower bound to 0; the derived precision keeps it tight.
    exact, _ = prob_digit_one(120)
    cell = marginal_interval_dp(120, 3).entries[1]
    assert 0 < cell.lo <= exact <= cell.hi
    assert cell.hi / cell.lo <= 1 + Fraction(1, 2**64)


@given(st.integers(1, 6), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_marginal_dp_encloses_exact_and_beats_uniform_sandwich(n, cap):
    table = marginal_interval_dp(n, cap)
    exact = marginal_exact(n, cap)
    uniform = uniform_marginal(n, cap)
    # each of the n - 1 steps rounds at most cap terms per entry, one ulp
    # of 2^-bits each, on either side
    slack = Fraction(n * cap, 2 ** (_dp_bits(n, cap) - 2))
    for k in range(1, cap + 1):
        assert table.entries[k].contains(exact.entries[k].lo), (n, cap, k)
        assert table.entries[k].width <= uniform.entries[k].width + slack, (n, cap, k)
    assert table.tail.contains(exact.tail.lo)
    assert table.tail.width <= uniform.tail.width + slack


@given(st.integers(1, 6), st.integers(1, 12),
       st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(1, 2), Fraction(9, 10)]))
@settings(max_examples=40, deadline=None)
def test_moment_fixed_point_contains_exact_dp(n, cap, theta):
    # The oracle runs at twice the interval precision, so that the final
    # 128-bit roundings of the two sums cannot decide containment.
    oracle = moment_oracle(n, theta, cap, prec=2 * default_precision())
    assert moment_interval(n, theta, cap=cap).contains(oracle), (n, cap, theta)


def test_moment_fixed_point_matches_exact_dp_at_cap_60():
    enc = moment_interval(8, Fraction(1, 2), cap=60)
    oracle = moment_oracle(8, Fraction(1, 2), 60)
    # |r - 1| < 5e-21 gives |log(hi/lo) - log(oracle hi/lo)| = |log r| < 1e-20
    ratio = (enc.hi * oracle.lo) / (enc.lo * oracle.hi)
    assert abs(ratio - 1) < Fraction(1, 2 * 10**20)


# SHA-256 of repr of criterion 7's 72 marginal tables and the (12, 60) one, and
# of the kernel's four lists, as integers over 2^bits, at n = 4, 8, 12 and
# cap 60; recorded from the target-major kernel that returned Fractions.
_MARGINAL_DIGEST = "efd102b4b21f0dea071db4edeced2e19c62b2b4e89e0968ab73b365e4c45d678"
_KERNEL_DIGEST = "f58624052e69260d78b230d3117f5ec8822949b0d55de4505172ee58cf0c85a1"
# SHA-256 of repr of the (lo, hi) ends of _moment_rows over the grid of
# test_moment_enclosures_are_pinned, then of the rows of mdp_curve(+-1) and
# moment_growth_rate(1/2) at n = 4, 8, 12; recorded before the tail factors
# lost their precision argument.
_MOMENT_DIGEST = "ac401254299f7ef0685abbbf815887ab946f4b65d24e9bcc2a57f83bebe00f44"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_marginal_tables_are_pinned():
    tables = [marginal_interval_dp(n, cap) for n in range(1, 7) for cap in range(1, 13)]
    tables.append(marginal_interval_dp(12, 60))
    assert _digest(tables) == _MARGINAL_DIGEST


def test_kernel_is_pinned():
    flows = []
    for n in (4, 8, 12):
        *lists, bits = _propagate_depths({n}, 60)[n]
        assert bits == _dp_bits(n, 60)
        flows.append(lists)
    assert _digest(flows) == _KERNEL_DIGEST


@given(st.integers(1, 12), st.integers(1, 40))
@example(120, 3)
@example(40, 60)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_reference_loop(n, cap):
    # Ceilings as (N - 1) // D + 1 and denominators by second differences
    # against negated floors and one-unit steps: the same lists and bits.
    assert _propagate_depths({n}, cap)[n] == reference_propagate(n, cap)


@given(st.sets(st.integers(1, 10), min_size=1), st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_one_run_hands_out_every_depth(depths, cap):
    # One run at the deepest depth's bits: that depth is its own run, and a
    # shallower one has the deepest's first exit flows and finer masses.
    kernels = _propagate_depths(depths, cap)
    top = max(depths)
    assert sorted(kernels) == sorted(depths)
    assert kernels[top] == _propagate_depths({top}, cap)[top]
    for d in depths:
        mass_lo, mass_up, exit_lo, exit_up, bits = kernels[d]
        assert bits == _dp_bits(top, cap)
        assert (exit_lo, exit_up) == (kernels[top][2][:d - 1], kernels[top][3][:d - 1])
        own_lo, own_up, _, _, own_bits = _propagate_depths({d}, cap)[d]
        shift = bits - own_bits
        assert all(a >= b << shift for a, b in zip(mass_lo, own_lo))
        assert all(a <= b << shift for a, b in zip(mass_up, own_up))


def test_moment_enclosures_are_pinned():
    thetas = [Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10),
              1 - Fraction(1, 2**200)]
    ends = [(enc.lo, enc.hi) for n in (1, 2, 5, 9, 12) for cap in (1, 7, 30, 60)
            for enc in _moment_rows([(n, thetas)], cap)[0]]
    for lam in (1, -1):
        ends += [(row.value.lo, row.value.hi) for row in mdp_curve(lam, [4, 8, 12]).rows]
    ends += [(row.value.value.lo, row.value.value.hi)
             for row in moment_growth_rate(Fraction(1, 2), [4, 8, 12]).rows]
    assert _digest(ends) == _MOMENT_DIGEST


_DYADIC_THETAS = st.builds(lambda sign, man, shift: Fraction(sign * man, 2**shift),
                           st.sampled_from([-1, 1]), st.integers(2**127, 2**128 - 1),
                           st.integers(128, 140))
_THETAS = st.one_of(
    st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2),
                     Fraction(9, 10)]),
    st.fractions(min_value=-5, max_value=1, max_denominator=1000).filter(lambda t: t not in (0, 1)),
    _DYADIC_THETAS)


@given(st.integers(1, 8), st.integers(1, 40), _THETAS)
@example(3, 5, 1 - Fraction(1, 2**200))  # factors past 2^128: integer ends, no 2^-t scale
@settings(max_examples=80, deadline=None)
def test_moment_lies_inside_the_per_term_weighting_of_its_own_kernel(n, cap, theta):
    # The oracle weights the same fixed-point masses with one outward-rounded
    # interval operation per term.  Every term is positive, so the exact sums
    # dominate that chain of roundings, and neither end may move outward.
    oracle = moment_oracle(n, theta, cap, kernel=fixed_point_propagate(n, cap))
    assert oracle.contains(moment_interval(n, theta, cap=cap)), (n, cap, theta)


def test_moment_weighting_cost_does_not_grow_with_the_cap(monkeypatch):
    # Additions and multiplications of intervals, which the j^theta table
    # (one interval power per j) makes none of; weighting each mass by interval
    # arithmetic would add four per j.
    counts = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(self, other, _op=getattr(OutwardInterval, name)):
            counts.append(1)
            return _op(self, other)
        monkeypatch.setattr(OutwardInterval, name, counted)
    ops = []
    for cap in (20, 60):
        counts.clear()
        moment_interval(8, Fraction(1, 2), cap=cap)
        ops.append(len(counts))
    assert ops[0] == ops[1] > 0, ops


def test_prob_digit_one_sandwich():
    for n in range(1, 25):
        exact, sandwich = prob_digit_one(n)
        assert sandwich.lo <= exact <= sandwich.hi
        qs = continuants((1,) * n)
        q = qs[-1]
        assert sandwich.lo == Fraction(1, 2 * q * q)
        assert sandwich.hi == Fraction(1, q * q)


def test_binet_matches_integer_continuants():
    for n in range(1, 25):
        q = continuants((1,) * n)[-1]
        assert binet_q(n).contains(q)


def test_moment_theta_zero_is_exactly_one():
    enc = moment_interval(5, Fraction(0))
    assert enc.lo == enc.hi == 1


def test_moment_theta_at_least_one_is_infinite():
    result = moment_interval(3, Fraction(1))
    assert isinstance(result, ExtendedReal) and result.is_infinite
    result = moment_interval(3, Fraction(3, 2))
    assert isinstance(result, ExtendedReal) and result.is_infinite


def test_moment_depth_one_harmonic_oracle():
    # E(b_1^-1) = sum 1/(k^2 (k+1)) = pi^2/6 - 1
    enc = moment_interval(1, Fraction(-1), cap=60)
    oracle = Fraction(str(math.pi**2 / 6 - 1))
    assert enc.lo <= oracle <= enc.hi
    assert enc.hi - enc.lo < Fraction(1, 100)


def test_moment_depth_one_partial_sum_bracket():
    # exact partial sum is a certified lower bound at any cap
    theta = Fraction(1, 2)
    enc = moment_interval(1, theta, cap=40)
    partial = sum(Fraction(1, k * (k + 1)) * Fraction(math.isqrt(k * 10**12), 10**6)
                  for k in range(1, 41))
    # sqrt rounded down termwise, so partial is a true lower bound
    assert partial < enc.hi
    # tail terms sqrt(k)/(k(k+1)) < k^(-3/2), summing below int_40 x^(-3/2) dx
    tail_hi = Fraction(2 * 10**6, math.isqrt(40 * 10**12))
    assert enc.lo <= partial + tail_hi


def test_moment_monotone_in_theta():
    # b_n >= 1 makes E(b_n^theta) non-decreasing in theta
    thetas = [Fraction(-3), Fraction(-1), Fraction(0), Fraction(1, 2),
              Fraction(4, 5)]
    values = [moment_interval(4, t, cap=40) for t in thetas]
    for smaller, larger in zip(values, values[1:]):
        assert smaller.lo <= larger.hi


def test_moment_respects_cap_refinement():
    # larger caps can only tighten or keep the enclosure overlap
    theta = Fraction(1, 2)
    coarse = moment_interval(3, theta, cap=20)
    fine = moment_interval(3, theta, cap=80)
    assert fine.lo <= coarse.hi and coarse.lo <= fine.hi
    assert fine.hi - fine.lo <= coarse.hi - coarse.lo


def series_bounds_check(j: int, theta: Fraction, terms: int) -> tuple[bool, bool]:
    """Certify the two series inequalities behind the moment bounds, j >= 2.

    lower: sum_{k>=j} j/(k(k+2)) (k/j)^theta >= (j/(j+2)) / (1-theta)
    upper: sum_{k>=j} (j+1)/(k(k+1)) (k/j)^theta <= (1+1/j)(1-1/j)^(theta-1)/(1-theta)

    The upper one is the lemma behind measure.s_upper_factor.  Both series
    are summed explicitly for `terms` terms and closed with integral tail
    enclosures; returns whether each inequality is certified as an interval
    statement.
    """
    prec = default_precision()
    m = j + terms
    lower_sum = OutwardInterval.from_value(0, prec)
    upper_sum = OutwardInterval.from_value(0, prec)
    for k in range(j, m):
        ratio_pow = interval_pow(Fraction(k, j), theta, prec)
        lower_sum = lower_sum + Fraction(j, k * (k + 2)) * ratio_pow
        upper_sum = upper_sum + Fraction(j + 1, k * (k + 1)) * ratio_pow

    # Only the lower series' lower end and the upper series' upper end are
    # compared, so each needs only that side of its tail over k >= m.
    integral, sum_bound = _integral_tail(m, theta)
    # lower tail terms: t_k = j^(1-theta) k^(theta-1)/(k+2)
    # >= j^(1-theta) k^(theta-2) m/(m+2)
    lower_tail_lo = interval_pow(j, 1 - theta, prec) * Fraction(m, m + 2) * integral
    # upper tail terms: t_k = (j+1) j^(-theta) k^(theta-1)/(k+1)
    # <= (j+1) j^(-theta) k^(theta-2)
    upper_tail_hi = interval_pow(j, -theta, prec) * (j + 1) * sum_bound

    lower_ok = (lower_sum + lower_tail_lo).lo >= Fraction(j, j + 2) / (1 - theta)
    upper_ok = (upper_sum + upper_tail_hi).hi <= s_upper_factor(j, theta).lo
    return lower_ok, upper_ok


def test_series_bounds_certified():
    for j in (2, 3, 10):
        for theta in (Fraction(-2), Fraction(-1, 2), Fraction(1, 2)):
            lower_ok, upper_ok = series_bounds_check(j, theta, terms=3000)
            assert lower_ok and upper_ok, (j, theta)


def test_prob_interval_validation():
    with pytest.raises(ValueError):
        ProbInterval(Fraction(1, 2), Fraction(1, 3))
    cell = ProbInterval(Fraction(1, 3), Fraction(1, 2))
    assert cell.contains(Fraction(2, 5))
    assert not cell.contains(Fraction(9, 10))
