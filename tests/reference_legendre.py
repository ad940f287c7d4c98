"""Fraction-domain Legendre transform: the test oracles for legendre_numeric.

reference_legendre_numeric is an earlier search: asymmetric ternary cuts at
3/8 and 2/3 of a Fraction bracket, decided on Fraction endpoints, and an
upper bound from 32 interval slices of the final bracket.  It is the oracle
for containment and width, not for bit-identity: on brackets inside the
pressure's finite domain, legendre_numeric's enclosure must overlap this one
and be no wider, up to 1e-20, after fewer pressure calls.

reference_secant_bound and reference_vertex are the concavity bound and the
vertex of legendre_numeric in exact Fractions, the endpoints read as
Fractions; deviations._secant_bound and deviations._vertex compute them on
scaled integers and must return equal Fractions.
"""

from fractions import Fraction
from typing import Callable

from ecfrac.numerics import ExtendedReal, OutwardInterval, default_precision


def reference_legendre_numeric(pressure_fn: Callable[..., ExtendedReal], x,
                               bracket: tuple[Fraction, Fraction] | None = None,
                               target_width: Fraction = Fraction(1, 10**8)) -> ExtendedReal:
    """Enclose sup_theta { theta*x - pressure_fn(theta) } over the bracket,
    at the working precision, as legendre_numeric runs."""
    prec = default_precision()
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


def reference_secant_bound(points: list[tuple[Fraction, OutwardInterval | None]],
                           k: int) -> tuple[Fraction | None, Fraction | None]:
    """The bound of deviations._secant_bound, in Fractions."""
    def point(i):
        return points[i] if 0 <= i < len(points) else (None, None)

    (s, gs), (l, gl), (r, gr), (u, gu) = (point(i) for i in range(k - 1, k + 3))
    lines = []  # (anchor, value at the anchor, slope)
    if gs is not None:  # the secant through s and l, extended rightward
        lines.append((l, gl.hi, (gl.hi - gs.lo) / (l - s)))
    if gr is not None and gu is not None:  # through r and u, extended leftward
        lines.append((r, gr.hi, (gu.lo - gr.hi) / (u - r)))
    if not lines:
        return None, None

    def at(line, t):
        anchor, height, slope = line
        return height + (t - anchor) * slope

    if len(lines) == 1:
        return max(at(lines[0], l), at(lines[0], r)), None
    left, right = lines
    dl, dr = at(left, l) - at(right, l), at(left, r) - at(right, r)
    if dl * dr < 0:  # the lines cross inside the gap, where the smaller one peaks
        cross = l + (r - l) * dl / (dl - dr)
        return at(left, cross), cross
    return max(min(at(left, l), at(right, l)), min(at(left, r), at(right, r))), None


def reference_vertex(points: list[tuple[Fraction, OutwardInterval | None]]) -> Fraction | None:
    """The vertex of deviations._vertex, in Fractions."""
    finite = [(theta, value.lo) for theta, value in points if value is not None]
    i = max(range(len(finite)), key=lambda i: finite[i][1])
    if not 0 < i < len(finite) - 1:
        return None
    (a, fa), (b, fb), (c, fc) = finite[i - 1:i + 2]
    p, q = (b - a) * (fb - fc), (c - b) * (fb - fa)  # both >= 0, fb being highest
    if p + q == 0:
        return None
    return b - ((b - a) * p - (c - b) * q) / (2 * (p + q))
