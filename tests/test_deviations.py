"""Pressure, rate functions, Legendre transform, growth and MDP tables."""

import hashlib
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpmath import libmp

from ecfrac import deviations, measure, numerics
from ecfrac.deviations import (GoldenConstants, RateFunctionId,
                               exponential_bound_check, legendre_numeric, mdp_curve,
                               moment_growth_rate, moment_limit, pressure, rate, xi_b)
from ecfrac.measure import moment_interval
from ecfrac.numerics import ExtendedReal, OutwardInterval, interval_exp, interval_log
from reference_legendre import (reference_legendre_numeric, reference_secant_bound,
                                reference_vertex)

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


@pytest.mark.parametrize("kind, b, hi", [("I", None, Fraction(-3, 5)),
                                         ("I_b", 100, Fraction(-9, 10))])
def test_rate_from_minus_one_across_the_breakpoint(kind, b, hi):
    # [-1, hi] reaches past the breakpoint; the first branch x - log(x+1)
    # has no enclosure at -1, but the rate is finite on the whole interval.
    x = OutwardInterval.from_endpoints(Fraction(-1), hi)
    assert x.lo < Fraction(str(1 / _xi(b) - 1)) < x.hi
    enc = _rate_value(kind, x, b=b).value
    values = [Fraction(str(_oracle_I(-1 + (hi + 1) * Fraction(i, 20), b)))
              for i in range(21)]
    tol = Fraction(1, 10**40)
    assert enc.lo <= min(values) + tol and max(values) - tol <= enc.hi
    # the maximum, I(-1), is on the linear middle branch and stays sharp
    assert enc.hi <= max(values) + Fraction(1, 10**30)


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
    with pytest.raises(ValueError, match="unknown rate function"):
        RateFunctionId("pressure_Lambda")  # the pressure is pressure(), not a rate
    with pytest.raises(ValueError, match="xi_b needs b >= 1"):
        xi_b(0)


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
    for kind in ("engel_moment_limit", "modified_moment_limit"):
        for theta in (Fraction(1), Fraction(3, 2)):
            assert rate(RateFunctionId(kind), theta).is_infinite


def test_legendre_recovers_rate_at_points():
    for x, truth in [(Fraction(0), OutwardInterval.from_value(0, 400)),
                     (Fraction(1), 1 - interval_log(2, 400)),
                     (Fraction(-1, 2), interval_log(2, 400) - Fraction(1, 2))]:
        enc = legendre_numeric(pressure, x).value
        assert enc.overlaps(truth), x
        assert enc.width < Fraction(1, 10**12)


def test_legendre_honors_bracket():
    enc = legendre_numeric(pressure, Fraction(1),
                           bracket=(Fraction(-5), Fraction(9, 10))).value
    assert enc.overlaps(1 - interval_log(2, 400))
    # A bracket no wider than the target still gets one step, a golden step
    # from its better end, which certifies one cut; then the gap with the
    # largest bound is evaluated.
    pressure_fn, calls = _counted(pressure)
    enc = legendre_numeric(pressure_fn, Fraction(1), bracket=(Fraction(-5), Fraction(9, 10)),
                           target_width=Fraction(10)).value
    assert enc.overlaps(1 - interval_log(2, 400))
    assert len(calls) == 4
    # The same on (0, 2), whose right end lies past theta = 1: the step gives
    # the gap across the edge a left secant.
    enc = legendre_numeric(pressure, Fraction(1), bracket=(Fraction(0), Fraction(2)),
                           target_width=Fraction(10)).value
    assert enc.overlaps(1 - interval_log(2, 400))
    # A bracket wholly past theta = 1 holds no finite value of the pressure.
    assert legendre_numeric(pressure, Fraction(1), bracket=(2, 3)).is_infinite


def _j_pressure(theta, prec=None):
    return rate(RateFunctionId("J"), theta, prec)


def _counted(pressure_fn):
    calls = []

    def counting(theta, prec=None):
        calls.append(theta)
        return pressure_fn(theta, prec)

    return counting, calls


def _agrees_with_reference(pressure_fn, x, **kwargs):
    # The reference is the earlier 3/8-2/3 search with 32 interval slices:
    # both enclose the same supremum, and legendre_numeric must be
    # no wider, up to 1e-20, after fewer pressure calls.
    ours, our_calls = _counted(pressure_fn)
    ref, ref_calls = _counted(pressure_fn)
    got = legendre_numeric(ours, x, **kwargs).value
    want = reference_legendre_numeric(ref, x, **kwargs).value
    assert got.overlaps(want)
    assert got.width <= want.width + Fraction(1, 10**20)
    assert len(our_calls) < len(ref_calls)


grid_x = st.builds(Fraction, st.integers(-990, 5000), st.just(1000))
# Widths of 1e-20 and 1e-30 at 128 bits reach the search's tie branches.
widths = st.sampled_from([Fraction(1, 10**k) for k in (*range(4, 11), 20, 30)])


inside_domain = st.one_of(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(999999, 10**6),
                                       max_denominator=10**6),
                          st.just(1 - Fraction(1, 10**12)))


@given(x=grid_x, lo=st.integers(-50, 0), hi=inside_domain, width=widths)
@example(x=Fraction(1, 2), lo=-50, hi=1 - Fraction(1, 10**12), width=Fraction(1, 10**20))
@settings(max_examples=60, deadline=None)
def test_legendre_matches_fraction_reference_on_lambda(x, lo, hi, width):
    _agrees_with_reference(pressure, x, bracket=(Fraction(lo), hi), target_width=width)


@given(x=grid_x, lo=st.fractions(min_value=-20, max_value=-1, max_denominator=100),
       hi=st.fractions(min_value=1, max_value=20, max_denominator=100),
       width=widths)
@example(x=Fraction(33, 200), lo=Fraction(-1), hi=Fraction(1), width=Fraction(1, 10**20))
@settings(max_examples=60, deadline=None)
def test_legendre_matches_fraction_reference_on_j(x, lo, hi, width):
    _agrees_with_reference(_j_pressure, x, bracket=(lo, hi), target_width=width)


@given(lo=st.fractions(min_value=-20, max_value=-1, max_denominator=100),
       hi=st.fractions(min_value=1, max_value=20, max_denominator=100),
       width=widths)
@settings(max_examples=40, deadline=None)
def test_legendre_matches_fraction_reference_on_j_at_zero(lo, hi, width):
    # At x = 0 the reference's slice straddling the maximizer theta = 0 has
    # almost no dependency error, about (width/32)^2: the vertex probe and
    # the evaluation of the gaps it splits must do as well.
    _agrees_with_reference(_j_pressure, Fraction(0), bracket=(lo, hi), target_width=width)


def test_legendre_default_bracket_matches_fraction_reference():
    for x in (Fraction(-99, 100), Fraction(0), Fraction(1), Fraction(5)):
        _agrees_with_reference(pressure, x)


@pytest.mark.parametrize("x, target, count", [
    pytest.param(1000, 21, 6, id="rising"),
    pytest.param(-1000, 21, 6, id="falling"),
    pytest.param(1000, 1, 9, id="rising-fine"),
])
def test_legendre_marches_to_the_end_of_a_monotone_objective(x, target, count):
    # On (0, 233) the objective theta*x - theta^2/2 is monotone for x = +-1000,
    # so the vertex of every parabola lies outside the bracket, and each step
    # is a golden step from the best probe, the end the objective rises to,
    # into the larger side.  Each probe is certified below the best and cuts
    # there, so the probes march to that end, and the search stops as soon as
    # the bracket is target wide.  The one call after the search evaluates the
    # objective over the final bracket; the best probe sits at the bracket's
    # end, so it has no neighbour for a vertex probe.
    end = 233 if x > 0 else 0
    pressure_fn, calls = _counted(_j_pressure)
    legendre_numeric(pressure_fn, x, bracket=(Fraction(0), Fraction(233)),
                     target_width=Fraction(target))
    assert len(calls) == count
    probes, over = calls[2:-1], calls[-1]
    assert all(theta.width == 0 for theta in probes)
    distances = [abs(theta.lo - end) for theta in probes]
    assert distances == sorted(distances, reverse=True)
    assert over.contains(end) and over.contains(probes[-1].lo)
    assert over.width <= target


@pytest.mark.parametrize("x", [Fraction(0), Fraction(15, 4)], ids=["x=0", "x=15/4"])
def test_legendre_resolves_ties_on_j(x):
    # At x = 0 the bracket's ends are symmetric about the maximizer, so their
    # values tie exactly; the search must still cut to the target width,
    # and probe no point twice.
    pressure_fn, calls = _counted(_j_pressure)
    enc = legendre_numeric(pressure_fn, x, bracket=(Fraction(-10), Fraction(10)),
                           target_width=Fraction(1, 10**10)).value
    assert enc.contains(x * x / 2)
    assert enc.width < Fraction(1, 10**10)
    assert len({(theta.lo, theta.hi) for theta in calls}) == len(calls)


@given(x=st.builds(Fraction, st.integers(-64, 64), st.sampled_from([1, 2, 4, 8])),
       half=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_legendre_resolves_ties_at_dyadic_x(x, half):
    # A bracket centred on x puts its ends symmetric about the maximizer.
    enc = legendre_numeric(_j_pressure, x, bracket=(x - half, x + half),
                           target_width=Fraction(1, 10**10)).value
    assert enc.contains(x * x / 2)
    assert enc.width < Fraction(1, 10**10)


def test_legendre_stops_at_a_tie_its_midpoint_cannot_break():
    # theta*(-1) - Lambda(theta) is the constant 2 log phi for theta <= -phi:
    # the golden probe ties with both ends, and the closing probe, which goes
    # past it, ties twice more and then leaves the bracket, so the search
    # stops with the whole bracket, which the concavity bound still encloses
    # tightly.  The sixth call evaluates the objective over the gap with the
    # largest bound; the best probe is the bracket's right end, which has no
    # right neighbour, so no vertex probe is made.
    pressure_fn, calls = _counted(pressure)
    enc = legendre_numeric(pressure_fn, Fraction(-1), bracket=(Fraction(-50), Fraction(-2))).value
    assert len(calls) == 6
    assert enc.overlaps(GoldenConstants.compute(400).two_log_phi)
    assert enc.width < Fraction(1, 10**30)


def test_legendre_bounds_each_probe_at_its_own_point(monkeypatch):
    # The search ties and stops on the flat stretch of (-50, 1/2), which
    # contains 0.  Every probe the concavity bound reads must sit where it
    # was taken: a probe inside the bracket must not be read at theta = 0,
    # where the objective is 0, not 2 log phi.  The bound reads numerators
    # over one denominator; the left bracket end, -50, is always the first.
    read = []

    def spy(points, k):
        read.append(points)
        return secant_bound(points, k)

    secant_bound = deviations._secant_bound
    monkeypatch.setattr(deviations, "_secant_bound", spy)
    pressure_fn, calls = _counted(pressure)
    enc = legendre_numeric(pressure_fn, Fraction(-1), bracket=(Fraction(-50), Fraction(1, 2))).value
    assert enc.overlaps(GoldenConstants.compute(400).two_log_phi)
    assert enc.width < Fraction(1, 10**30)
    assert any(theta.width == 0 and -50 < theta.lo < -2 for theta in calls[2:])
    assert read
    for points in read:
        unit = Fraction(-50) / points[0][0]
        for n, value in points:
            theta = n * unit
            want = -theta - pressure(theta).value
            assert (value.lo, value.hi) == (want.lo, want.hi), theta


def test_legendre_is_tight_where_the_maximizer_is_the_kink():
    # For x <= -1/phi the maximizer of theta*x - Lambda(theta) is the kink at
    # theta = -phi, where the vertex of a parabola misses; the probe where
    # the secant bound peaks lands there.  Criterion 9's grid points in that
    # range were up to 2.3e-10 wide without it.
    eye = RateFunctionId("I")
    for i in range(13):
        x = Fraction(-99, 100) + i * Fraction(599, 100) / 199
        enc = legendre_numeric(pressure, x).value
        assert enc.overlaps(rate(eye, x, 400).value), x
        assert enc.width < Fraction(1, 10**15), x


def test_legendre_pressure_calls_are_pinned():
    # The counts of the default transform at x = 1 and of criterion 9's J
    # transform at x = 1; a change that adds probes fails here.
    pressure_fn, calls = _counted(pressure)
    legendre_numeric(pressure_fn, Fraction(1))
    assert len(calls) == 21
    pressure_fn, calls = _counted(_j_pressure)
    legendre_numeric(pressure_fn, Fraction(1), bracket=(Fraction(-10), Fraction(10)),
                     target_width=Fraction(1, 10**10))
    assert len(calls) == 8


def test_legendre_fractions_from_endpoints_are_pinned(monkeypatch):
    # The bound after the search reads the probes' ends as integers and mpf
    # tuples; only the evaluated gap's upper end becomes a Fraction.  Reading
    # every probe's ends as Fractions made 62 and 31 here, and fails.
    made = []
    to_fraction = numerics._mpf_tuple_to_fraction

    def counting(t):
        made.append(t)
        return to_fraction(t)

    monkeypatch.setattr(numerics, "_mpf_tuple_to_fraction", counting)
    legendre_numeric(pressure, Fraction(1))
    assert len(made) == 1
    made.clear()
    legendre_numeric(_j_pressure, Fraction(1), bracket=(Fraction(-10), Fraction(10)),
                     target_width=Fraction(1, 10**10))
    assert len(made) == 1


def _point(lo: Fraction, hi: Fraction | None = None) -> OutwardInterval:
    return OutwardInterval.from_endpoints(lo, lo if hi is None else hi)


# Hand-made tables for each case of the concavity bound: one secant (the
# right one needs a finite probe right of the gap), two that cross inside the
# gap, and two that do not, with Fraction thetas as the vertex and peak
# probes have.
_ONE_LINE = ([(0, _point(0)), (1, _point(1)), (2, None)], 1)
_CROSSING = ([(0, _point(Fraction(-9, 4))), (Fraction(1, 3), _point(Fraction(-1, 4), 0)),
              (2, _point(Fraction(-1, 4))), (Fraction(7, 2), _point(Fraction(-9, 4)))], 1)
_APART = ([(0, _point(0)), (1, _point(0)), (Fraction(5, 2), _point(5)), (3, _point(4))], 1)


@st.composite
def probe_tables(draw):
    # Sorted distinct thetas, ints and Fractions; each value an interval
    # whose ends are dyadics with exponents up to 800 apart, some of them
    # small or zero so that lower ends tie, or else the values of a concave
    # parabola times a power of two, where the secants cross; and up to two
    # None entries at the right end, where the pressure is infinite.
    thetas = sorted(draw(st.lists(
        st.one_of(st.integers(-10**6, 10**6),
                  st.fractions(-1000, 1000, max_denominator=10**4)),
        min_size=3, max_size=8, unique=True)))
    mantissas = st.one_of(st.integers(-4, 4), st.integers(-2**130, 2**130))
    exponents = st.integers(-400, 400)
    peak, scale = draw(st.fractions(-1000, 1000)), draw(exponents)
    concave = draw(st.booleans())
    values = []
    for theta in thetas:
        if concave:
            height = -(theta - peak) ** 2
            lo = libmp.mpf_shift(libmp.from_rational(height.numerator, height.denominator, 128,
                                                     libmp.round_floor), scale)
        else:
            lo = libmp.from_man_exp(draw(mantissas), draw(exponents))
        rise = libmp.from_man_exp(abs(draw(mantissas)), draw(exponents))
        values.append(OutwardInterval((lo, libmp.mpf_add(lo, rise)), 128))  # exact sum
    cut = len(thetas) - draw(st.integers(0, min(2, len(thetas) - 1)))
    points = [(theta, value if i < cut else None) for i, (theta, value) in
              enumerate(zip(thetas, values))]
    # Mostly an inner gap, where both secants may exist; else any gap whose
    # left probe is finite.
    gaps = st.integers(0, cut - 1)
    k = draw(st.one_of(st.integers(1, cut - 3), gaps) if cut >= 4 else gaps)
    return points, min(k, len(points) - 2)


@given(table=probe_tables())
@example(table=_ONE_LINE)
@example(table=_CROSSING)
@example(table=_APART)
@settings(max_examples=300, deadline=None)
def test_integer_bound_matches_fraction_reference(table):
    points, k = table
    got, want = deviations._secant_bound(points, k), reference_secant_bound(points, k)
    assert got == want
    assert all(value is None or type(value) is Fraction for value in got)
    vertex = deviations._vertex(points)
    assert vertex == reference_vertex(points)
    assert vertex is None or type(vertex) is Fraction


def test_vertex_offset_refuses_a_gap_past_the_float_range():
    # A lower-end gap of -2^3000 overflows a float, and the offset it gives
    # is not a number.
    values = {0: OutwardInterval.from_value(0), 1: OutwardInterval.from_value(-1),
              4: OutwardInterval.from_value(-2**3000)}
    assert deviations._vertex_offset(values, [0, 1, 4]) is None


def test_bound_examples_cover_each_case():
    # One secant gives no crossing point; two give one only where they cross.
    assert reference_secant_bound(*_ONE_LINE)[1] is None
    assert reference_secant_bound(*_CROSSING)[1] is not None
    assert reference_secant_bound(*_APART) == (Fraction(0), None)
    # 27/4 (t - 1/3) = -1/4 - 4/3 (t - 2) at t = 56/97.
    assert deviations._secant_bound(*_CROSSING) == (Fraction(639, 388), Fraction(56, 97))


# SHA-256 of the exact (lo, hi) of every enclosure below, the 200 Lambda
# transforms and then the 25 J transforms, recorded when the bound after the
# search read Fraction-keyed probes: a change to the transform that is not
# meant to move any enclosure must leave it as it is.
_GRIDS_DIGEST = "3120eb5f3293f22612a4ffd50a12185f88db3b64cabd06d13d6cc70d1c706b2d"


def test_legendre_on_criterion_9_grids():
    # Every transform of criterion 9's 200-point grid overlaps I(x) and is
    # under 1e-16 wide (before the parabolic search the widest was 9.5e-17),
    # and the two grids' call counts have a ceiling: the golden-section
    # search made 11,400 and 1,628.
    eye = RateFunctionId("I")
    ends = []
    pressure_fn, calls = _counted(pressure)
    for i in range(200):
        x = Fraction(-99, 100) + i * Fraction(599, 100) / 199
        enc = legendre_numeric(pressure_fn, x).value
        ends.append((enc.lo, enc.hi))
        assert enc.overlaps(rate(eye, x, 400).value), x
        assert enc.width < Fraction(1, 10**16), x
    assert len(calls) <= 6000
    pressure_fn, calls = _counted(_j_pressure)
    for i in range(25):
        x = Fraction(-3) + i * Fraction(6, 24)
        enc = legendre_numeric(pressure_fn, x, bracket=(Fraction(-10), Fraction(10)),
                               target_width=Fraction(1, 10**10)).value
        ends.append((enc.lo, enc.hi))
        assert enc.contains(x * x / 2), x
    assert len(calls) <= 300
    assert hashlib.sha256(repr(ends).encode()).hexdigest() == _GRIDS_DIGEST


def test_legendre_rejects_a_nonpositive_target_width():
    for width in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError, match="target width"):
            legendre_numeric(pressure, Fraction(1), target_width=width)


def test_legendre_rejects_an_empty_bracket():
    for bracket in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(-1))):
        with pytest.raises(ValueError, match="empty bracket"):
            legendre_numeric(pressure, Fraction(1), bracket=bracket)


def test_legendre_encloses_rate_past_the_domain_edge():
    # Brackets reaching past theta = 1, where Lambda is +infinity: a gap
    # between probes straddling the edge may hold the maximizer
    # theta* = x/(1+x), so it must be bounded, not skipped.  Lambda*(x) = I(x) = x - log(1+x).
    tops = (1 + Fraction(1, 10**6), Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(5))
    for x in (Fraction(m * 10**k) for k in range(6) for m in (1, 3)):
        truth = x - interval_log(1 + x, 400)
        for top in tops:
            for k in range(1, 7):
                enc = legendre_numeric(pressure, x, bracket=(Fraction(0), top),
                                       target_width=Fraction(1, 10**k)).value
                assert enc.overlaps(truth), (x, top, k)


def test_legendre_refuses_an_edge_slice_it_cannot_bound():
    # Only the bracket's left end lies inside the domain, so no secant
    # bounds the gap across theta = 1.
    with pytest.raises(ValueError, match="finite cut points"):
        legendre_numeric(pressure, Fraction(1), bracket=(Fraction(999, 1000), Fraction(2)),
                         target_width=Fraction(10))


@pytest.mark.parametrize("prec", [53, 128, 300])
def test_golden_constants_cached_equal_fresh(prec):
    cached = GoldenConstants.compute(prec)
    fresh = GoldenConstants.compute.__wrapped__(prec)
    assert GoldenConstants.compute(prec) is cached
    for name in ("phi", "two_log_phi", "branch_point"):
        ours, theirs = getattr(cached, name), getattr(fresh, name)
        assert (ours.lo, ours.hi, ours.precision) == (theirs.lo, theirs.hi, prec)


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


def _count_kernel_runs(monkeypatch) -> list:
    # Each run of the DP kernel, as the sorted depths it hands out.
    runs = []
    propagate = measure._propagate_depths

    def counting(depths, cap):
        runs.append(sorted(depths))
        return propagate(depths, cap)

    monkeypatch.setattr(measure, "_propagate_depths", counting)
    return runs


def _ends(value):
    # An ExtendedReal, an interval or None as comparable ends; None for none.
    if isinstance(value, ExtendedReal):
        value = value.value
    return None if value is None else (value.lo, value.hi)


def test_mdp_runs_one_moment_dp_per_call(monkeypatch):
    runs = _count_kernel_runs(monkeypatch)
    table = mdp_curve(Fraction(1), [1, 4, 8], cap=20)
    assert [row.feasible for row in table.rows] == [False, True, True]  # theta_1 = 1
    assert runs == [[4, 8]]
    for row in table.rows[1:]:
        pair = measure._moment_rows([(row.n, (row.theta.lo, row.theta.hi))], 20)[0]
        assert pair == [moment_interval(row.n, row.theta.lo, cap=20),
                        moment_interval(row.n, row.theta.hi, cap=20)]
    runs.clear()
    assert measure._moment_rows([(3, (Fraction(0), Fraction(1)))], 20)[0] == [
        moment_interval(3, Fraction(0)), moment_interval(3, Fraction(1))]
    assert runs == []
    mdp_curve(Fraction(-1), [8, 12, 16])
    assert runs == [[8, 12, 16]]


def test_growth_runs_one_moment_dp_per_call_and_none_without_a_weighting(monkeypatch):
    runs = _count_kernel_runs(monkeypatch)
    moment_growth_rate(Fraction(1, 2), [4, 8, 12])
    assert runs == [[4, 8, 12]]
    runs.clear()
    for theta in (0, 1):
        moment_growth_rate(Fraction(theta), [2, 4])
    assert runs == []


def test_shared_run_rows_keep_the_callers_order():
    growth = moment_growth_rate(Fraction(1, 2), [12, 4, 4, 8], cap_schedule=20)
    assert [row.n for row in growth.rows] == [12, 4, 4, 8]
    assert [_ends(row.value) for row in growth.rows] == [
        _ends(moment_growth_rate(Fraction(1, 2), [n], cap_schedule=20).rows[0].value)
        for n in (12, 4, 4, 8)]
    mdp = mdp_curve(Fraction(1), [12, 4, 4, 8], cap=20)
    assert [row.n for row in mdp.rows] == [12, 4, 4, 8]
    assert [_ends(row.value) for row in mdp.rows] == [
        _ends(mdp_curve(Fraction(1), [n], cap=20).rows[0].value) for n in (12, 4, 4, 8)]


@pytest.mark.parametrize("theta", [Fraction(-3), Fraction(-1, 2), Fraction(0),
                                   Fraction(1, 2), Fraction(9, 10)])
def test_shared_run_growth_rows_equal_single_depth_moments(theta):
    # Criterion 8's grid: one run at n = 12's bits gives each row the ends of
    # the run at its own depth's bits.
    shared = measure._moment_rows([(n, (theta,)) for n in (4, 8, 12)], 60)
    assert shared == [[moment_interval(n, theta, cap=60)] for n in (4, 8, 12)]
    table = moment_growth_rate(theta, [4, 8, 12], cap_schedule=60)
    for row, (enc,) in zip(table.rows, shared):
        expected = interval_log(OutwardInterval.from_endpoints(enc.lo, enc.hi)) / row.n
        assert _ends(row.value) == _ends(expected)


@pytest.mark.parametrize("lam, n_list, cap", [(Fraction(-1), [8, 12, 16], 60),
                                              (Fraction(1), [8, 12, 16], 60),
                                              (Fraction(1), [1, 4, 8], 20)])
def test_shared_run_mdp_rows_equal_single_depth_moments(lam, n_list, cap):
    # Criterion 14's grid, and the rows of test_mdp_runs_one_moment_dp_per_call.
    table = mdp_curve(lam, n_list, cap=cap)
    rows = [row for row in table.rows if row.feasible]
    shared = measure._moment_rows([(row.n, (row.theta.lo, row.theta.hi)) for row in rows], cap)
    assert shared == [measure._moment_rows([(row.n, (row.theta.lo, row.theta.hi))], cap)[0]
                      for row in rows]
    for row in table.rows:
        assert _ends(row.value) == _ends(mdp_curve(lam, [row.n], cap=cap).rows[0].value)


def test_mdp_validates_n(monkeypatch):
    # A row n < 1 is refused by name before any moment DP runs.
    runs = []
    monkeypatch.setattr(measure, "_propagate_depths", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match="mdp_curve needs n >= 1, got 0"):
        mdp_curve(Fraction(1), [4, 0])
    assert runs == []


def test_mdp_validates_cap(monkeypatch):
    runs = []
    monkeypatch.setattr(measure, "_propagate_depths", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match="mdp_curve needs cap >= 1, got 0"):
        mdp_curve(Fraction(1), [4], cap=0)
    assert runs == []


def test_growth_validates_every_n_and_the_cap(monkeypatch):
    # Refused by name before the n = 8 row's DP runs, not inside moment_interval.
    runs = []
    monkeypatch.setattr(measure, "_propagate_depths", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match="moment_growth_rate needs n >= 1, got 0"):
        moment_growth_rate(Fraction(1, 2), [8, 0])
    with pytest.raises(ValueError, match="moment_growth_rate needs cap_schedule >= 1, got 0"):
        moment_growth_rate(Fraction(1, 2), [8], cap_schedule=0)
    assert runs == []


def test_mdp_validates_p():
    with pytest.raises(ValueError):
        mdp_curve(Fraction(1), [4], p=Fraction(1, 2))
    with pytest.raises(ValueError):
        mdp_curve(Fraction(1), [4], p=Fraction(1))


def test_exponential_bound_check_invariant():
    report = exponential_bound_check(
        Fraction(1, 2), [5, 10, 15],
        estimator=lambda n: Fraction(1, 2**n))
    assert report.beta == Fraction(9, 10) * report.beta_max.lo
    assert report.alpha == max(row.alpha_n for row in report.rows)
    # re-verify each row: prob <= alpha * exp(-beta n)
    for row in report.rows:
        bound = report.alpha * interval_exp(-report.beta * row.n)
        assert row.prob_bound <= bound.hi
    with pytest.raises(ValueError, match="eps must be positive"):
        exponential_bound_check(Fraction(0), [5], estimator=lambda n: Fraction(1, 2**n))
