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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Sequence

from .measure import DEFAULT_CAP, _check_positive, _moment_rows
from .numerics import (
    DEFAULT_PRECISION_BITS,
    ExtendedReal,
    OutwardInterval,
    _as_interval,
    _lower_end_gap,
    _lower_end_key,
    _ratio_interval,
    _scaled_ends,
    _up_to,
    interval_exp,
    interval_log,
    interval_pow,
    interval_sqrt,
)

DEFAULT_BRACKET = (Fraction(-50), 1 - Fraction(1, 10**12))
DEFAULT_TARGET_WIDTH = Fraction(1, 10**8)
DEFAULT_MDP_P = Fraction(3, 4)

RATE_KINDS = (
    "I",
    "I_b",
    "I_inf",
    "J",
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

    @staticmethod
    @functools.lru_cache(maxsize=16)
    def compute(prec: int = DEFAULT_PRECISION_BITS) -> "GoldenConstants":
        """The constants at prec bits, computed once per precision."""
        sqrt5 = interval_sqrt(5, prec)
        phi = (sqrt5 + 1) / 2
        return GoldenConstants(
            phi=phi,
            two_log_phi=2 * interval_log(phi, prec),
            branch_point=(1 - sqrt5) / 2,
        )


def _piecewise(x: OutwardInterval, breakpoint: OutwardInterval,
               left, right) -> OutwardInterval:
    """left(x) left of the breakpoint, right(x) right of it, else the hull of
    each branch over its own side, so that neither leaves its domain."""
    if x.below(breakpoint):
        return left(x)
    if breakpoint.below(x):
        return right(x)
    below = x.intersect(x.min(breakpoint))  # [x.lo, min(x.hi, bp.hi)]
    above = x.intersect(x.max(breakpoint))  # [max(x.lo, bp.lo), x.hi]
    return left(below).hull(right(above))


def pressure(theta, prec: int = DEFAULT_PRECISION_BITS) -> ExtendedReal:
    """Lambda(theta); +infinity for theta >= 1, hull at the -phi breakpoint."""
    t = _as_interval(theta, prec)
    if t.compare_hi(1) >= 0:
        return ExtendedReal.infinity()
    consts = GoldenConstants.compute(prec)
    return ExtendedReal.finite(_piecewise(
        t, -consts.phi,
        lambda ti: -ti - consts.two_log_phi,
        lambda ti: -ti - interval_log(1 - ti, prec)))


def xi_b(b: int, prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:
    """The comparison-family constant (b^2 + 2 + sqrt(b^2 + 4b)) / (2b)."""
    if b < 1:
        raise ValueError("xi_b needs b >= 1")
    root = interval_sqrt(b * b + 4 * b, prec)
    return (root + (b * b + 2)) / (2 * b)


def rate(rid: RateFunctionId, x, prec: int = DEFAULT_PRECISION_BITS) -> ExtendedReal:
    """Evaluate a rate function (or comparison limit) at a point.

    x (or theta, for the moment-limit kinds) may be rational or an
    OutwardInterval.  Values at breakpoints are hulls of the adjoining
    branches; outside the effective domain the value is +infinity.
    """
    x_iv = _as_interval(x, prec)

    if rid.kind == "J":
        return ExtendedReal.finite(x_iv * x_iv / 2)

    if rid.kind == "engel_moment_limit" or rid.kind == "modified_moment_limit":
        if x_iv.compare_hi(1) >= 0:
            return ExtendedReal.infinity()
        log_term = -interval_log(1 - x_iv, prec)
        if rid.kind == "modified_moment_limit":
            return ExtendedReal.finite(log_term)
        # An x finer than prec bits still gives a prec-bit floored value.
        floored = log_term.max(-interval_log(2, prec))
        return ExtendedReal.finite(floored.with_precision(prec))

    def first_branch(ti):
        return ti - interval_log(ti + 1, prec)

    if rid.kind == "I_inf":
        if x_iv.compare_lo(-1) <= 0:
            # Left of -1, or touching the singular edge: no finite enclosure.
            return ExtendedReal.infinity()
        return ExtendedReal.finite(first_branch(x_iv))

    # Piecewise I / I_b: +inf left of -1, linear middle, x - log(x+1) right.
    if x_iv.compare_lo(-1) < 0:
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

    return ExtendedReal.finite(_piecewise(x_iv, breakpoint_iv, middle, first_branch))


# ---------------------------------------------------------------------------
# Numerical Legendre transform
# ---------------------------------------------------------------------------


def legendre_numeric(pressure_fn: Callable[..., ExtendedReal], x,
                     bracket: tuple[Fraction, Fraction] = DEFAULT_BRACKET,
                     target_width: Fraction = DEFAULT_TARGET_WIDTH) -> ExtendedReal:
    """Enclose sup_theta { theta*x - pressure_fn(theta) } over the bracket.

    The objective is concave (pressure functions are convex), so a probe
    certified below the best probe, the one with the highest lower end,
    moves the bracket end on its side to it, and a probe where the pressure
    is infinite moves the right end; the bracket shrinks only on such
    certified comparisons.  Probes are placed by safeguarded parabolic
    search (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5): the next probe is the vertex of the parabola through the three
    probes with the highest lower ends, if it lies inside the bracket and
    moves less than half the step before last, else a golden-section step
    from the best probe into the larger side.  A step shorter than
    target_width/64 instead probes at that distance from the best probe, on
    the wider side, to close the bracket.  While that probe ties with the
    best, the distance doubles (near the maximizer the objective moves by
    less than the width of its enclosures), and it starts past the probes
    inside the bracket on its side, which all tie; the search stops once
    the closing probe would leave the bracket.  It also stops once the
    bracket is at most target_width wide (which must be positive), after
    at least one probe.  A point is probed at most once.
    Every probe is a numerator over one denominator, and the search returns
    its table of probes; everything after it reads and extends that table.

    After the search, one probe goes to the vertex of the parabola through
    the best probe (highest lower end) and its two neighbours, where a
    smooth maximizer is.  The upper bound comes from concavity: the
    objective on a gap between adjacent probes of the final bracket lies
    below the secant through the two probes to its left, extended
    rightward, and below the secant through the two to its right, extended
    leftward; the gap's bound is the maximum over it of the smaller line,
    computed exactly in rationals.  Then the gap with the largest bound is
    bounded again by evaluating the objective over it, which is tighter
    where the interval extension has almost no dependency error (J at
    x = 0, on a gap the vertex probe ends next to the maximizer), until
    the largest bound belongs to a gap already evaluated.  Where the
    pressure is infinite at a gap's right end, at the edge of its finite
    domain, only the left secant applies; with no secant and no finite
    evaluation, ValueError is raised.  A last probe, where the largest
    secant bound peaks inside its gap (a maximizer at a kink), lifts the
    lower end, the best certified probe value.  Returns +infinity when no
    finite value exists in the bracket.

    The transform runs at DEFAULT_PRECISION_BITS (128): pressure_fn is
    always called as pressure_fn(theta, DEFAULT_PRECISION_BITS), with theta
    an OutwardInterval at those bits, a probe point or a gap of the final
    bracket.  It must be +infinity from the edge of its finite domain onward.
    """
    a, b = Fraction(bracket[0]), Fraction(bracket[1])
    if a >= b:
        raise ValueError("empty bracket")
    target = Fraction(target_width)
    if target <= 0:
        raise ValueError(f"target width must be positive, got {target}")
    x_iv = OutwardInterval.from_value(Fraction(x))

    def g(t: OutwardInterval) -> OutwardInterval | None:
        # The objective over t; None where the pressure is +infinity, i.e.
        # the objective is -infinity.
        lam = pressure_fn(t, DEFAULT_PRECISION_BITS)
        return None if lam.is_infinite else x_iv * t - lam.value

    # Every probe is a numerator n over one denominator D: the bracket's
    # denominators times the least power of two that makes 1/D at most
    # target/2^16, so that a closing step of target/64 is 1024 units or more.
    # The search's probes are integers; the vertex and peak probes after it
    # are exact Fractions in the same unit.
    D = a.denominator * b.denominator
    D <<= ((target.denominator << 16) // (target.numerator * D)).bit_length()
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)

    def objective(n) -> OutwardInterval | None:  # at the probe theta = n/D
        return g(_ratio_interval(n, n, D))

    table, A, B = _parabolic_search(objective, A, B, target.numerator * D // target.denominator)

    if all(value is None for value in table.values()):
        return ExtendedReal.infinity()
    vertex = _vertex(sorted(table.items()))
    if vertex is not None and vertex not in table:
        table[vertex] = objective(vertex)
    points = sorted(table.items())
    ends = [n for n, _ in points]
    gaps = {k: _secant_bound(points, k)  # gap k runs from probe k to probe k + 1
            for k in range(ends.index(A), ends.index(B))
            if points[k][1] is not None}  # else the objective is -inf on the whole gap
    bounds = {k: bound for k, (bound, _) in gaps.items()}
    evaluated = set()
    while (k := max(bounds, key=lambda k: math.inf if bounds[k] is None else bounds[k])) \
            not in evaluated:
        evaluated.add(k)
        over = g(_ratio_interval(ends[k], ends[k + 1], D))
        hi = None if over is None else over.hi
        if hi is not None and (bounds[k] is None or hi < bounds[k]):
            bounds[k] = hi
        elif bounds[k] is None:
            raise ValueError(
                f"the pressure is infinite on [{float(ends[k] / D)}, {float(ends[k + 1] / D)}] "
                "with fewer than two finite cut points left of it; "
                "keep the bracket inside the pressure's finite domain")
    upper = max(bounds.values())
    secants = [bound for bound in gaps.values() if bound[0] is not None]
    if secants and (peak := max(secants, key=itemgetter(0))[1]) is not None:
        table[peak] = objective(peak)  # strictly inside a gap, so not yet probed
    best = max((value for value in table.values() if value is not None), key=_lower_end_key)
    return ExtendedReal.finite(_up_to(best, upper))


_GOLDEN = round((3 - math.sqrt(5)) / 2 * 2**53)  # the shorter golden section of 2^53


def _parabolic_search(objective: Callable[[int], OutwardInterval | None], A: int, B: int,
                      target: int) -> tuple[dict[int, OutwardInterval | None], int, int]:
    """The search of legendre_numeric on integer points: the table
    {n: objective(n)} of its probes, in probe order, and the bracket [A, B]
    shrunk around the maximizer of a concave objective to at most target
    wide, or as far as ties allow.

    objective(n) is the objective at n, an OutwardInterval, or None where it
    is -infinity, right of the finite domain; it is called once per point.
    Steps are integers too; only the vertex is placed in floats, from
    53-bit differences of the lower ends, as it only places a probe.
    """
    values = {A: objective(A), B: objective(B)}
    top = []  # the finite probes with the three highest lower ends, best first

    def rank(n: int) -> None:
        value = values[n]
        top.insert(next((i for i, m in enumerate(top)
                         if _lower_end_gap(value, values[m]) > 0), len(top)), n)
        del top[3:]

    def separates(u: int) -> bool:
        # Probe u, cut at every probe inside the bracket certified below the
        # best, and tell whether u and the previous best probe are apart.
        nonlocal A, B
        previous = values[top[0]]
        if u not in values:
            values[u] = objective(u)
            if values[u] is not None:
                rank(u)
        if values[u] is None:
            B = u
            return True
        x = top[0]
        for n, value in values.items():
            if A < n < B and value is not None and value.below(values[x]):
                A, B = (n, B) if n < x else (A, n)
        return not values[u].overlaps(previous)

    for n in (A, B):
        if values[n] is not None:
            rank(n)
    if not top:
        return values, A, B
    closing = target // 64
    step = before = 0  # the last step and the step before it, signed
    reach = closing  # the closing distance, doubled by ties
    while True:
        x = top[0]
        u = None
        if abs(before) > closing and len(top) == 3:
            offset = _vertex_offset(values, top)
            if offset is not None and 2 * abs(offset) < abs(before) and A < x + offset < B:
                before, step = step, offset
                u = x + offset
        if u is None:
            before = (A - x) if 2 * x >= A + B else (B - x)
            step = before * _GOLDEN >> 53
            u = x + step
        if abs(u - x) < closing or u in values:
            side = 1 if B - x >= x - A else -1
            # A probe inside the bracket ties with the best probe, so the
            # closing probe goes past those on its side.
            far = max((side * (n - x) for n in values if A < n < B), default=0)
            while reach <= far:
                reach *= 2
            while True:
                u = x + side * reach
                if not A < u < B:
                    return values, A, B
                if separates(u):
                    break
                reach *= 2
            step = u - x
        else:
            separates(u)
        if B - A <= target:
            return values, A, B


def _vertex_offset(values: dict[int, OutwardInterval | None], top: list[int]) -> int | None:
    """How far the vertex of the parabola through the probes top[0], top[1]
    and top[2], by their lower ends, lies from top[0], rounded; None where
    the three lie nearly on a line.  It is found in floats, on the
    distances scaled by a power of two that keeps them in range."""
    x, w, v = top
    scale = max(abs(w - x), abs(v - x)).bit_length()
    dw, dv = (w - x) / (1 << scale), (v - x) / (1 << scale)
    fw, fv = (_lower_end_gap(values[n], values[x]) for n in (w, v))
    den = dw * fv - dv * fw
    if den == 0:
        return None
    offset = (dw * dw * fv - dv * dv * fw) / (2 * den)
    if not abs(offset) < 2.0**64:
        return None
    return (round(math.ldexp(offset, 53)) << scale) >> 53


def _secant_bound(points: list[tuple[Fraction, OutwardInterval | None]],
                  k: int) -> tuple[Fraction | None, Fraction | None]:
    """An upper bound, by concavity, of the objective between probes k and k + 1.

    points lists (theta, objective) by theta, in any one unit of theta, with
    None where the objective is -infinity, and probe k is finite.  For probes s < t the objective at
    theta >= t is at most the secant g(t) + (theta - t)(g(t) - g(s))/(t - s),
    and at theta <= s at most the same line anchored at s; with intervals
    for g the line is raised by taking hi at its anchor and lo at the other
    probe.  Returns the bound and, where it is reached strictly inside the
    gap, the point where it is reached; the bound is None where neither
    secant exists.  The arithmetic is on integers, the thetas over their
    common denominator and the ends of g over one power of two; only the
    two results are made Fractions.
    """
    def point(i):
        return points[i] if 0 <= i < len(points) else (None, None)

    (s, gs), (l, gl), (r, gr), (u, gu) = (point(i) for i in range(k - 1, k + 3))
    common = math.lcm(*(t.denominator for t in (s, l, r, u) if t is not None))
    s, l, r, u = (None if t is None else t.numerator * (common // t.denominator)
                  for t in (s, l, r, u))
    (fs, fl, fr, fu), e = _scaled_ends([gs, gl, gr, gu])
    lines = []  # (anchor, value at the anchor, rise, run): the slope is rise/run, run > 0
    if gs is not None:  # the secant through s and l, extended rightward
        lines.append((l, fl[1], fl[1] - fs[0], l - s))
    if gr is not None and gu is not None:  # through r and u, extended leftward
        lines.append((r, fr[1], fu[0] - fr[1], u - r))
    if not lines:
        return None, None

    def at(line, t):  # run times the line's value at t
        anchor, height, rise, run = line
        return height * run + (t - anchor) * rise

    def exact(num, den):  # num/den times 2^e
        return Fraction(num << e, den) if e >= 0 else Fraction(num, den << -e)

    if len(lines) == 1:
        return exact(max(at(lines[0], l), at(lines[0], r)), lines[0][3]), None
    left, right = lines
    # Both lines at l and at r, over the product of their runs.
    ll, rl = at(left, l) * right[3], at(right, l) * left[3]
    lr, rr = at(left, r) * right[3], at(right, r) * left[3]
    dl, dr = ll - rl, lr - rr
    if dl < 0 < dr or dr < 0 < dl:  # the lines cross inside the gap, where the smaller one peaks
        _, height, rise, run = left
        apart = dl - dr
        return (exact(height * run * apart + (r - l) * dl * rise, run * apart),
                Fraction(r * dl - l * dr, apart * common))
    return exact(max(min(ll, rl), min(lr, rr)), left[3] * right[3]), None


def _vertex(points: list[tuple[Fraction, OutwardInterval | None]]) -> Fraction | None:
    """The vertex of the parabola through the probe with the highest lower
    end and its finite neighbours, by their lower ends; None where the best
    probe has no neighbour on a side.  It is computed on integers, as
    _secant_bound is."""
    finite = [(theta, value) for theta, value in points if value is not None]
    i = max(range(len(finite)), key=lambda i: _lower_end_key(finite[i][1]))
    if not 0 < i < len(finite) - 1:
        return None
    trio = finite[i - 1:i + 2]
    common = math.lcm(*(theta.denominator for theta, _ in trio))
    a, b, c = (theta.numerator * (common // theta.denominator) for theta, _ in trio)
    ((fa, _), (fb, _), (fc, _)), _ = _scaled_ends([value for _, value in trio])
    p, q = (b - a) * (fb - fc), (c - b) * (fb - fa)  # p >= 0 and q > 0: b is the first highest
    return Fraction(2 * b * (p + q) - (b - a) * p + (c - b) * q, 2 * (p + q) * common)


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


def moment_limit(theta: Fraction) -> ExtendedReal:
    """The limit of (1/n) log E(b_n^theta): max of the two branch values."""
    theta = Fraction(theta)
    if theta >= 1:
        return ExtendedReal.infinity()
    fib_branch = -GoldenConstants.compute().two_log_phi
    return ExtendedReal.finite(fib_branch.max(-interval_log(1 - theta)))


def moment_growth_rate(theta: Fraction, n_list: Sequence[int],
                       cap_schedule: int = DEFAULT_CAP) -> GrowthTable:
    """Rows (1/n) log E(b_n^theta) against the closed-form limit.

    Every row runs the moment DP at the same digit cap, cap_schedule, and
    all rows are weighted from one run of the DP kernel, to the largest n,
    at that n's bits; none runs for theta = 0 or theta >= 1.  Every n and
    the cap are checked before any DP runs.
    """
    theta = Fraction(theta)
    _check_positive("moment_growth_rate", n=min(n_list, default=1), cap_schedule=cap_schedule)
    rows = []
    for n, (enc,) in zip(n_list, _moment_rows([(n, (theta,)) for n in n_list], cap_schedule)):
        if isinstance(enc, ExtendedReal):
            value = enc
        else:
            # theta = 0 gives the exact [1, 1], whose log is exactly [0, 0].
            log_iv = interval_log(OutwardInterval.from_endpoints(enc.lo, enc.hi))
            value = ExtendedReal.finite(log_iv / n)
        rows.append(GrowthRow(n, cap_schedule, value))
    return GrowthTable(theta, moment_limit(theta), tuple(rows))


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


def mdp_curve(lam: Fraction, n_list: Sequence[int], p: Fraction = DEFAULT_MDP_P,
              cap: int = DEFAULT_CAP) -> MdpTable:
    """Moderate-deviation normalization of the log moment-generating rows.

    With a_n = n^p, p in (1/2, 1), the growth conditions (a_n/sqrt(n) ->
    infinity, a_n/n -> 0) hold symbolically.  Each row encloses
    (n/a_n^2)(log E(b_n^{theta_n}) - n theta_n), theta_n = a_n lam/n, which
    should approach lam^2/2.  theta_n is irrational in general, so E is
    enclosed by weighting the (theta-monotone) moment DP at the rational
    endpoints of a theta_n enclosure.  All feasible rows are weighted from
    one run of the DP kernel, to the largest feasible n, at that n's bits;
    a row with theta_n >= 1 runs none.
    """
    lam = Fraction(lam)
    p = Fraction(p)
    if not Fraction(1, 2) < p < 1:
        raise ValueError(f"mdp_curve needs p in (1/2, 1), got {p}")
    _check_positive("mdp_curve", n=min(n_list, default=1), cap=cap)
    scales = [interval_pow(n, p) for n in n_list]
    thetas = [(lam * a_iv) / n for n, a_iv in zip(n_list, scales)]
    feasible = [theta_iv.compare_hi(1) < 0 for theta_iv in thetas]
    # E(b^theta) is increasing in theta (b >= 1), so the moments at the
    # rational endpoints bracket the irrational-theta moment.
    moments = iter(_moment_rows([(n, (theta_iv.lo, theta_iv.hi))
                                 for n, theta_iv, ok in zip(n_list, thetas, feasible) if ok], cap))
    rows = []
    for n, a_iv, theta_iv, ok in zip(n_list, scales, thetas, feasible):
        if not ok:
            rows.append(MdpRow(n, theta_iv, False, None))
            continue
        enc_lo, enc_hi = next(moments)
        e_iv = OutwardInterval.from_endpoints(enc_lo.lo, enc_hi.hi)
        value = (interval_log(e_iv) - n * theta_iv) * (n / (a_iv * a_iv))
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
                            estimator: Callable[[int], Fraction]) -> BoundReport:
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
    upper = rate(RateFunctionId("I"), eps)
    lower = rate(RateFunctionId("I"), -eps)
    beta_max = upper.value if lower.is_infinite else upper.value.min(lower.value)
    beta = Fraction(9, 10) * beta_max.lo
    rows = []
    alpha = Fraction(0)
    for n in n_list:
        p_bound = Fraction(estimator(n))
        growth = interval_exp(beta * n)
        alpha_n = p_bound * growth.hi
        rows.append(BoundRow(n, p_bound, alpha_n))
        alpha = max(alpha, alpha_n)
    return BoundReport(beta_max, beta, alpha, tuple(rows))
