"""Pressure, rate functions, Legendre transform, growth and MDP tables."""

from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from ecfrac.deviations import (RateFunctionId, exponential_bound_check,
                               legendre_numeric, mdp_curve, moment_growth_rate,
                               moment_limit, pressure, rate, xi_b)
from ecfrac.numerics import OutwardInterval, interval_exp

getcontext().prec = 50


def _dec(x) -> Decimal:
    frac = Fraction(x)
    return Decimal(frac.numerator) / Decimal(frac.denominator)


LOG2 = Fraction(str(Decimal(2).ln()))
# 2 log phi = log(phi^2) = log((3+sqrt5)/2)
TWO_LOG_PHI = Fraction(str(((3 + Decimal(5).sqrt()) / 2).ln()))


def test_pressure_golden_values():
    # middle branch: -theta - log(1-theta)
    enc = pressure(Fraction(1, 2)).value
    assert enc.contains(LOG2 - Fraction(1, 2))
    enc = pressure(Fraction(0)).value
    assert enc.contains(0) and enc.width < Fraction(1, 10**20)
    # low branch: -theta - 2 log phi
    enc = pressure(Fraction(-2)).value
    assert enc.contains(2 - TWO_LOG_PHI)
    enc = pressure(Fraction(-10)).value
    assert enc.contains(10 - TWO_LOG_PHI)


def test_pressure_infinite_at_and_above_one():
    assert pressure(Fraction(1)).is_infinite
    assert pressure(Fraction(2)).is_infinite
    assert not pressure(Fraction(999, 1000)).is_infinite


def test_pressure_continuous_at_golden_breakpoint():
    # both formulas agree at theta = -phi; values just left and right are close
    left = pressure(Fraction(-16180340, 10**7)).value
    right = pressure(Fraction(-16180339, 10**7)).value
    assert abs(left.mid_float() - right.mid_float()) < 1e-6


def _rate_value(kind, x, b=None):
    rid = RateFunctionId(kind, b=b) if b is not None else RateFunctionId(kind)
    return rate(rid, x)


def test_rate_I_golden_values():
    assert _rate_value("I", Fraction(0)).value.contains(0)
    assert _rate_value("I", Fraction(1)).value.contains(1 - LOG2)
    # x = -1/2 sits right of the breakpoint -(sqrt5-1)/2, first branch
    assert _rate_value("I", Fraction(-1, 2)).value.contains(LOG2 - Fraction(1, 2))
    # x = -1 is the left end of the middle branch: I(-1) = 2 log phi
    assert _rate_value("I", Fraction(-1)).value.contains(TWO_LOG_PHI)
    assert _rate_value("I", Fraction(-2)).is_infinite


def test_rate_I_middle_branch():
    # I(-9/10) = -phi * (1/10) + 2 log phi with phi = (1+sqrt5)/2
    phi = (1 + Decimal(5).sqrt()) / 2
    oracle = Fraction(str(-phi / 10)) + TWO_LOG_PHI
    assert _rate_value("I", Fraction(-9, 10)).value.contains(oracle)


def test_rate_J_is_half_square():
    for x in (Fraction(0), Fraction(3, 2), Fraction(-2), Fraction(7)):
        enc = _rate_value("J", x).value
        assert enc.lo == enc.hi == x * x / 2


def test_rate_I_inf_first_branch_everywhere():
    assert _rate_value("I_inf", Fraction(1)).value.contains(1 - LOG2)
    assert _rate_value("I_inf", Fraction(-1)).is_infinite
    assert _rate_value("I_inf", Fraction(-2)).is_infinite


def _xi(b: int | None) -> Decimal:
    """xi_b in 50-digit decimals; I is I_1, with xi_1 = phi^2."""
    b = 1 if b is None else b
    return (b * b + 2 + Decimal(b * b + 4 * b).sqrt()) / (2 * b)


def _oracle_I(x: Fraction, b: int | None = None) -> Decimal:
    """I (b None) or I_b at x >= -1, in 50-digit decimals."""
    xi, d = _xi(b), _dec(x)
    if d <= 1 / xi - 1:
        return (1 - xi) * (d + 1) + xi.ln()
    return d - (d + 1).ln()


@pytest.mark.parametrize("kind, b", [("I", None), ("I_b", 1), ("I_b", 2), ("I_b", 7)])
def test_rate_on_intervals_straddling_the_breakpoint(kind, b):
    breakpoint = Fraction(str(1 / _xi(b) - 1))
    for radius in (Fraction(1, 10), Fraction(1, 10**6)):
        lo, hi = breakpoint - radius, breakpoint + radius
        enc = _rate_value(kind, OutwardInterval.from_endpoints(lo, hi), b=b).value
        points = [lo + (hi - lo) * Fraction(i, 10) for i in range(11)]
        values = [Fraction(str(_oracle_I(x, b))) for x in points]
        tol = Fraction(1, 10**40)
        assert enc.lo <= min(values) + tol and max(values) - tol <= enc.hi
        # x - log(x+1) over an interval of width 2r is about 2r(1 + xi) wide
        assert enc.width < 12 * radius


@pytest.mark.parametrize("lo, hi", [(Fraction(-3), Fraction(-2)),
                                    (Fraction(-5, 4), Fraction(-11, 10)),
                                    (Fraction(-11, 10), Fraction(-9, 10))])
def test_rate_is_infinite_on_intervals_reaching_left_of_minus_one(lo, hi):
    x = OutwardInterval.from_endpoints(lo, hi)
    for kind, b in (("I", None), ("I_b", 1), ("I_b", 5), ("I_inf", None)):
        assert _rate_value(kind, x, b=b).is_infinite


def test_rate_at_minus_one_edge():
    # I is finite at -1 (middle branch); I_inf has its singular edge there.
    x = OutwardInterval.from_endpoints(Fraction(-1), Fraction(-9, 10))
    enc = _rate_value("I", x).value
    assert enc.contains(Fraction(str(_oracle_I(Fraction(-1)))))
    assert enc.contains(Fraction(str(_oracle_I(Fraction(-9, 10)))))
    assert _rate_value("I_inf", x).is_infinite


def test_rate_I_b_shares_first_branch():
    for b in (1, 2, 5, 100):
        enc = _rate_value("I_b", Fraction(1), b=b).value
        assert enc.contains(1 - LOG2)


def test_rate_I_1_equals_I():
    for x in (Fraction(-1), Fraction(-7, 10), Fraction(-1, 2), Fraction(0),
              Fraction(2)):
        a = _rate_value("I", x)
        b = _rate_value("I_b", x, b=1)
        assert a.is_infinite == b.is_infinite
        if not a.is_infinite:
            assert a.value.overlaps(b.value)


def test_xi_b_satisfies_its_quadratic():
    # 2b xi - b^2 - 2 = sqrt(b^2 + 4b)
    for b in (1, 2, 3, 10, 50):
        xi = xi_b(b)
        lhs = (2 * b * xi - b * b - 2) ** 2 - (b * b + 4 * b)
        assert lhs.contains(0)


def test_xi_1_is_phi_squared():
    # phi^2 = (3 + sqrt5)/2
    oracle = Fraction(str((3 + Decimal(5).sqrt()) / 2))
    assert xi_b(1).contains(oracle)


def test_rate_id_validation():
    with pytest.raises(ValueError):
        RateFunctionId("I_b")          # missing b
    with pytest.raises(ValueError):
        RateFunctionId("I_b", b=0)
    with pytest.raises(ValueError):
        RateFunctionId("nope")
    with pytest.raises(ValueError):
        RateFunctionId("I", b=3)       # b only belongs to I_b


def test_moment_limits():
    # engel limit: max(-log 2, log 1/(1-theta))
    enc = rate(RateFunctionId("engel_moment_limit"), Fraction(1, 2)).value
    assert enc.contains(LOG2)
    enc = rate(RateFunctionId("engel_moment_limit"), Fraction(-3)).value
    assert enc.contains(-LOG2)
    # modified limit drops the floor
    enc = rate(RateFunctionId("modified_moment_limit"), Fraction(-3)).value
    assert enc.contains(-2 * LOG2)
    # growth limit floors at -2 log phi
    enc = moment_limit(Fraction(-3)).value
    assert enc.contains(-TWO_LOG_PHI)
    enc = moment_limit(Fraction(1, 2)).value
    assert enc.contains(LOG2)
    assert moment_limit(Fraction(1)).is_infinite


def test_legendre_recovers_rate_at_points():
    for x, oracle in [(Fraction(0), Fraction(0)),
                      (Fraction(1), 1 - LOG2),
                      (Fraction(-1, 2), LOG2 - Fraction(1, 2))]:
        enc = legendre_numeric(pressure, x).value
        assert enc.lo - Fraction(1, 10**6) <= oracle <= enc.hi + Fraction(1, 10**6)
        assert enc.hi - enc.lo < Fraction(1, 10**6)


def test_legendre_honors_bracket():
    enc = legendre_numeric(pressure, Fraction(1),
                           bracket=(Fraction(-5), Fraction(9, 10))).value
    assert enc.lo - Fraction(1, 10**6) <= 1 - LOG2 <= enc.hi + Fraction(1, 10**6)


def test_growth_rows_theta_zero_exact():
    table = moment_growth_rate(Fraction(0), [2, 4])
    assert not table.limit.is_infinite
    assert table.limit.value.contains(0)
    for row in table.rows:
        assert row.value.value.lo == row.value.value.hi == 0


def test_growth_rows_approach_log2():
    table = moment_growth_rate(Fraction(1, 2), [4, 8, 12], cap_schedule=60)
    limit = table.limit.value

    def separation(row):
        enc = row.value.value
        return max(Fraction(0), enc.lo - limit.hi, limit.lo - enc.hi)

    seps = [separation(row) for row in table.rows]
    assert all(a >= b for a, b in zip(seps, seps[1:]))
    last = table.rows[-1].value.value
    assert last.lo - Fraction(5, 100) <= LOG2 <= last.hi + Fraction(5, 100)


def test_growth_cap_schedule_forms():
    by_int = moment_growth_rate(Fraction(1, 2), [3], cap_schedule=25)
    assert by_int.rows[0].cap == 25


def test_mdp_theta_sequence_and_target():
    table = mdp_curve(Fraction(1), [4, 16], p=Fraction(3, 4))
    assert table.speed_exponent == Fraction(1, 2)
    assert table.target == Fraction(1, 2)
    # theta_16 = 16^(-1/4) = 1/2 exactly
    assert table.rows[1].theta.contains(Fraction(1, 2))
    # theta_4 = 4^(-1/4) = 1/sqrt2
    oracle = Fraction(str(1 / Decimal(2).sqrt()))
    assert table.rows[0].theta.contains(oracle)
    assert all(row.feasible for row in table.rows)


def test_mdp_negative_lambda():
    table = mdp_curve(Fraction(-1), [4, 8])
    assert table.target == Fraction(1, 2)
    assert table.rows[0].theta.hi < 0


def test_mdp_validates_p():
    with pytest.raises(ValueError):
        mdp_curve(Fraction(1), [4], p=Fraction(1, 2))
    with pytest.raises(ValueError):
        mdp_curve(Fraction(1), [4], p=Fraction(1))


def test_exponential_bound_check_invariant():
    beta_max, report = exponential_bound_check(
        Fraction(1, 2), [5, 10, 15],
        estimator=lambda n: Fraction(1, 2**n))
    assert report.beta == Fraction(9, 10) * beta_max.lo
    assert report.alpha == max(row.alpha_n for row in report.rows)
    # re-verify each row: prob <= alpha * exp(-beta n)
    for row in report.rows:
        bound = report.alpha * interval_exp(-report.beta * row.n)
        assert row.prob_bound <= bound.hi
