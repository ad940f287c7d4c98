"""Pressure and rate functions for the digit-growth deviation principles.

The scaled digit process (log b_n)/n - 1 satisfies a large deviation
principle with speed n whose rate function I is piecewise: linear of
slope -phi on [-1, -(sqrt5-1)/2] (the all-ones/Fibonacci regime) and
x - log(x+1) to the right (the renewal-like regime).  I is the Legendre
transform of the pressure

    Lambda(theta) = -theta - 2 log phi          theta <= -phi
                    -theta - log(1 - theta)     -phi < theta < 1
                    +infinity                   theta >= 1,

and both are implemented with certified enclosures: branch decisions are
made by interval comparison, and an ambiguous comparison falls back to the
hull of both branches (sound because each function is continuous at its
breakpoint).  The moderate-deviation regime has the universal rate
J(x) = x^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .measure import moment_interval
from .numerics import (
    ExtendedReal,
    OutwardInterval,
    _as_interval,
    default_precision,
    interval_exp,
    interval_log,
    interval_pow,
    interval_sqrt,
)

RATE_KINDS = (
    "I",
    "I_b",
    "I_inf",
    "J",
    "pressure_Lambda",
    "engel_moment_limit",
    "modified_moment_limit",
)


@dataclass(frozen=True)
class RateFunctionId:
    kind: str
    b: int | None = None

    def __post_init__(self):
        if self.kind not in RATE_KINDS:
            raise ValueError(f"unknown rate function {self.kind!r}; choose from {RATE_KINDS}")
        if self.kind == "I_b":
            if self.b is None or self.b < 1:
                raise ValueError("I_b needs a digit parameter b >= 1")
        elif self.b is not None:
            raise ValueError(f"{self.kind} takes no digit parameter")


@dataclass(frozen=True)
class GoldenConstants:
    """Enclosures of the golden-ratio constants the rate functions use."""

    phi: OutwardInterval            # (sqrt5 + 1)/2
    two_log_phi: OutwardInterval
    branch_point: OutwardInterval   # -(sqrt5 - 1)/2 = -1/phi

    @classmethod
    def compute(cls, prec: int | None = None) -> "GoldenConstants":
        prec = default_precision() if prec is None else prec
        sqrt5 = interval_sqrt(5, prec)
        phi = (sqrt5 + 1) / 2
        return cls(
            phi=phi,
            two_log_phi=2 * interval_log(phi, prec),
            branch_point=(1 - sqrt5) / 2,
        )


def _piecewise(x: OutwardInterval, breakpoint: OutwardInterval,
               left, right) -> OutwardInterval:
    """left(x) left of the breakpoint, right(x) right of it, else the hull."""
    if x.hi < breakpoint.lo:
        return left(x)
    if x.lo > breakpoint.hi:
        return right(x)
    return left(x).hull(right(x))


def pressure(theta, prec: int | None = None) -> ExtendedReal:
    """Lambda(theta); +infinity for theta >= 1, hull at the -phi breakpoint."""
    prec = default_precision() if prec is None else prec
    t = _as_interval(theta, prec)
    if t.hi >= 1:
        return ExtendedReal.infinity()
    consts = GoldenConstants.compute(prec)
    return ExtendedReal.finite(_piecewise(
        t, -consts.phi,
        lambda ti: -ti - consts.two_log_phi,
        lambda ti: -ti - interval_log(1 - ti, prec)))


def xi_b(b: int, prec: int | None = None) -> OutwardInterval:
    """The comparison-family constant (b^2 + 2 + sqrt(b^2 + 4b)) / (2b)."""
    if b < 1:
        raise ValueError("xi_b needs b >= 1")
    prec = default_precision() if prec is None else prec
    root = interval_sqrt(b * b + 4 * b, prec)
    return (root + (b * b + 2)) / (2 * b)


def _first_branch(x_iv: OutwardInterval, prec: int) -> OutwardInterval:
    return x_iv - interval_log(x_iv + 1, prec)


def rate(rid: RateFunctionId, x, prec: int | None = None) -> ExtendedReal:
    """Evaluate a rate function (or comparison limit) at a point.

    x (or theta, for the moment-limit kinds) may be rational or an
    OutwardInterval.  Values at breakpoints are hulls of the adjoining
    branches; outside the effective domain the value is +infinity.
    """
    prec = default_precision() if prec is None else prec
    x_iv = _as_interval(x, prec)

    if rid.kind == "pressure_Lambda":
        return pressure(x_iv, prec)

    if rid.kind == "J":
        return ExtendedReal.finite(x_iv * x_iv / 2)

    if rid.kind == "engel_moment_limit" or rid.kind == "modified_moment_limit":
        if x_iv.hi >= 1:
            return ExtendedReal.infinity()
        log_term = -interval_log(1 - x_iv, prec)
        if rid.kind == "modified_moment_limit":
            return ExtendedReal.finite(log_term)
        # An x finer than prec bits still gives a prec-bit floored value.
        floored = log_term.max(-interval_log(2, prec))
        return ExtendedReal.finite(floored.with_precision(prec))

    if rid.kind == "I_inf":
        if x_iv.lo <= -1:
            # Left of -1, or touching the singular edge: no finite enclosure.
            return ExtendedReal.infinity()
        return ExtendedReal.finite(_first_branch(x_iv, prec))

    # Piecewise I / I_b: +inf left of -1, linear middle, x - log(x+1) right.
    if x_iv.lo < -1:
        return ExtendedReal.infinity()

    if rid.kind == "I":
        consts = GoldenConstants.compute(prec)
        breakpoint_iv = consts.branch_point

        def middle(ti):
            return -(consts.phi * (ti + 1)) + consts.two_log_phi

    else:  # I_b
        xi = xi_b(rid.b, prec)
        breakpoint_iv = 1 / xi - 1

        def middle(ti):
            return (1 - xi) * (ti + 1) + interval_log(xi, prec)

    return ExtendedReal.finite(_piecewise(x_iv, breakpoint_iv, middle,
                                          lambda ti: _first_branch(ti, prec)))


# ---------------------------------------------------------------------------
# Numerical Legendre transform
# ---------------------------------------------------------------------------


def legendre_numeric(pressure_fn: Callable[..., ExtendedReal], x,
                     bracket: tuple[Fraction, Fraction] | None = None,
                     target_width: Fraction = Fraction(1, 10**8),
                     prec: int | None = None) -> ExtendedReal:
    """Enclose sup_theta { theta*x - pressure_fn(theta) } over the bracket.

    The objective is concave (pressure functions are convex), so certified
    ternary search applies: a cut is made only when the two probe values
    separate as intervals; otherwise the search stops with the current
    bracket, which still yields a sound enclosure.  The returned interval
    is [best certified point value, interval evaluation over the final
    bracket].  Returns +infinity when no finite value exists in the bracket.
    """
    prec = default_precision() if prec is None else prec
    if bracket is None:
        bracket = (Fraction(-50), 1 - Fraction(1, 10**12))
    a, b = Fraction(bracket[0]), Fraction(bracket[1])
    if a >= b:
        raise ValueError("empty bracket")
    x_iv = OutwardInterval.from_value(Fraction(x), prec)

    def g(theta) -> OutwardInterval | None:
        # The objective at a point or over an interval of theta; None where
        # the pressure is +infinity, i.e. the objective is -infinity.
        lam = pressure_fn(theta, prec)
        return None if lam.is_infinite else theta * x_iv - lam.value

    probes = [g(a), g(b)]
    # Probe points deliberately asymmetric in the bracket so that an even
    # objective (e.g. the quadratic pressure at x = 0) never produces an
    # exact tie that would stall the certified cuts.
    for _ in range(500):
        if b - a <= target_width:
            break
        m1 = a + 3 * (b - a) / 8
        m2 = a + 2 * (b - a) / 3
        g1, g2 = g(m1), g(m2)
        probes += (g1, g2)
        if g1 is None:
            # Infinite pressure marks territory right of the finite domain
            # (Lambda blows up at theta >= 1), so the objective is -inf from
            # m1 onward.
            b = m1
            continue
        if g2 is None:
            b = m2
            continue
        if g1.hi < g2.lo:
            a = m1  # maximizer certified right of m1
        elif g2.hi < g1.lo:
            b = m2
        else:
            break  # probes no longer separate as intervals

    finite = [value for value in probes if value is not None]
    if not finite:
        return ExtendedReal.infinity()
    best = max(finite, key=lambda value: value.lo)

    # Upper bound: interval evaluation of the objective over [a, b] (the
    # cuts certify the maximizer stays inside).  Evaluating on slices keeps
    # the bound usable even when the search stalled on a flat stretch and
    # [a, b] is still wide.
    hi = best.hi
    slices = 32
    covered = False
    for i in range(slices):
        lo_i = a + i * (b - a) / slices
        hi_i = a + (i + 1) * (b - a) / slices
        over = g(OutwardInterval.from_endpoints(lo_i, hi_i, prec))
        if over is None:
            # sup over this slice is -inf; it cannot raise the bound.
            continue
        covered = True
        hi = max(hi, over.hi)
    if not covered and b - a > target_width:
        # Could not bound the objective over a wide bracket; report the
        # certified point values alone.
        return ExtendedReal.finite(best)
    return ExtendedReal.finite(OutwardInterval.from_endpoints(best.lo, hi, prec))


# ---------------------------------------------------------------------------
# Moment growth tables (LDP and MDP regimes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    n: int
    cap: int
    value: ExtendedReal  # enclosure of (1/n) log E(b_n^theta)


@dataclass(frozen=True)
class GrowthTable:
    theta: Fraction
    limit: ExtendedReal  # max{-2 log phi, log 1/(1-theta)}
    rows: tuple[GrowthRow, ...]


def moment_limit(theta: Fraction, prec: int | None = None) -> ExtendedReal:
    """The limit of (1/n) log E(b_n^theta): max of the two branch values."""
    prec = default_precision() if prec is None else prec
    theta = Fraction(theta)
    if theta >= 1:
        return ExtendedReal.infinity()
    fib_branch = -GoldenConstants.compute(prec).two_log_phi
    return ExtendedReal.finite(fib_branch.max(-interval_log(1 - theta, prec)))


def moment_growth_rate(theta: Fraction, n_list: Sequence[int], cap_schedule: int = 60,
                       prec: int | None = None) -> GrowthTable:
    """Rows (1/n) log E(b_n^theta) against the closed-form limit.

    Every row runs the moment DP at the same digit cap, cap_schedule.
    """
    prec = default_precision() if prec is None else prec
    theta = Fraction(theta)
    rows = []
    for n in n_list:
        enc = moment_interval(n, theta, cap=cap_schedule, prec=prec)
        if isinstance(enc, ExtendedReal):
            value = enc
        else:
            # theta = 0 gives the exact [1, 1], whose log is exactly [0, 0].
            log_iv = interval_log(OutwardInterval.from_endpoints(enc.lo, enc.hi, prec), prec)
            value = ExtendedReal.finite(log_iv / n)
        rows.append(GrowthRow(n, cap_schedule, value))
    return GrowthTable(theta, moment_limit(theta, prec), tuple(rows))


@dataclass(frozen=True)
class MdpRow:
    n: int
    theta: OutwardInterval
    feasible: bool
    value: OutwardInterval | None  # (n/a_n^2)(log E(b_n^theta_n) - n theta_n)


@dataclass(frozen=True)
class MdpTable:
    lam: Fraction
    p: Fraction
    speed_exponent: Fraction  # a_n = n^p gives speed n^(2p-1)
    target: Fraction          # lam^2 / 2
    rows: tuple[MdpRow, ...]


def mdp_curve(lam: Fraction, n_list: Sequence[int], p: Fraction = Fraction(3, 4),
              cap: int = 60, prec: int | None = None) -> MdpTable:
    """Moderate-deviation normalization of the log moment-generating rows.

    With a_n = n^p, p in (1/2, 1), the growth conditions (a_n/sqrt(n) ->
    infinity, a_n/n -> 0) hold symbolically.  Each row encloses
    (n/a_n^2)(log E(b_n^{theta_n}) - n theta_n), theta_n = a_n lam/n, which
    should approach lam^2/2.  theta_n is irrational in general, so E is
    enclosed by running the (theta-monotone) moment DP at the rational
    endpoints of a theta_n enclosure.
    """
    prec = default_precision() if prec is None else prec
    lam = Fraction(lam)
    p = Fraction(p)
    if not Fraction(1, 2) < p < 1:
        raise ValueError(f"mdp_curve needs p in (1/2, 1), got {p}")
    rows = []
    for n in n_list:
        a_iv = interval_pow(n, p, prec)
        theta_iv = (lam * a_iv) / n
        if theta_iv.hi >= 1:
            rows.append(MdpRow(n, theta_iv, False, None))
            continue
        # E(b^theta) is increasing in theta (b >= 1), so rational endpoint
        # runs of the DP bracket the irrational-theta moment.
        enc_lo = moment_interval(n, theta_iv.lo, cap=cap, prec=prec)
        enc_hi = moment_interval(n, theta_iv.hi, cap=cap, prec=prec)
        e_iv = OutwardInterval.from_endpoints(enc_lo.lo, enc_hi.hi, prec)
        value = (interval_log(e_iv, prec) - n * theta_iv) * (n / (a_iv * a_iv))
        rows.append(MdpRow(n, theta_iv, True, value))
    return MdpTable(lam, p, 2 * p - 1, lam * lam / 2, tuple(rows))


@dataclass(frozen=True)
class BoundRow:
    n: int
    prob_bound: Fraction  # upper bound (e.g. CI upper) on the event probability
    alpha_n: Fraction     # smallest alpha making prob <= alpha exp(-beta n)


@dataclass(frozen=True)
class BoundReport:
    beta_max: OutwardInterval
    beta: Fraction
    alpha: Fraction
    rows: tuple[BoundRow, ...]


def exponential_bound_check(eps: Fraction, n_list: Sequence[int],
                            estimator: Callable[[int], Fraction],
                            prec: int | None = None) -> tuple[OutwardInterval, BoundReport]:
    """Best LDP-permitted exponent and the smallest feasible prefactor.

    beta_max = min(I(eps), I(-eps)) is the fastest decay the deviation
    principle allows for P(|log b_n / n - 1| >= eps); the check runs with
    beta = 9/10 * beta_max (strictly below) and reports, per n, the
    alpha_n that estimator(n) (an upper probability bound) forces.  The
    single feasible alpha is their maximum.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    prec = default_precision() if prec is None else prec
    upper = rate(RateFunctionId("I"), eps, prec)
    lower = rate(RateFunctionId("I"), -eps, prec)
    if upper.is_infinite:
        raise ValueError("I(eps) must be finite for eps > 0")
    beta_max = upper.value if lower.is_infinite else upper.value.min(lower.value)
    beta = Fraction(9, 10) * beta_max.lo
    rows = []
    alpha = Fraction(0)
    for n in n_list:
        p_bound = Fraction(estimator(n))
        growth = interval_exp(beta * n, prec)
        alpha_n = p_bound * growth.hi
        rows.append(BoundRow(n, p_bound, alpha_n))
        alpha = max(alpha, alpha_n)
    return beta_max, BoundReport(beta_max, beta, alpha, tuple(rows))
