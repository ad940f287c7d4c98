"""Output checks that hold for any correct implementation.

Each check takes outputs of the package (or fabricated stand-ins with the
same attributes) and returns a list of error strings; an empty list means
the outputs pass.  No check compares against a seeded digest, so a change
that alters seeded Monte Carlo outputs on purpose still passes them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

# Criterion 9's tolerances.
LEGENDRE_GAP = Fraction(1, 10**6)
LEGENDRE_WIDTH = Fraction(1, 10**6)
COMPARISON_GAP = Fraction(1, 1000)   # I_b at b = 10^6 against I_inf
QUADRATIC_TOL = Fraction(1, 10**8)   # Legendre transform of J against x^2/2
# Criterion 10's gate on the mean of log b_n / n, and the trial count below
# which the gate cannot resolve the mean (its standard error is ~0.1/sqrt(N)).
MEAN_GATE = (0.99, 1.01)
MEAN_GATE_MIN_TRIALS = 1000


def gap(a: Any, b: Any) -> Fraction:
    """Distance between two enclosures with .lo/.hi (0 when they overlap)."""
    return max(Fraction(0), a.lo - b.hi, b.lo - a.hi)


def tail_errors(estimates: Mapping[Any, Any], trials: int) -> list[str]:
    """hits <= certified <= trials, and the CI brackets p_hat, per request."""
    errors = []
    for request, est in estimates.items():
        tag = f"{request.tail} eps={request.eps} n={request.n}"
        if not 0 <= est.hits <= est.trials <= trials:
            errors.append(f"{tag}: need 0 <= hits {est.hits} <= certified "
                          f"{est.trials} <= trials {trials}")
        if est.trials + est.uncertified != trials:
            errors.append(f"{tag}: certified {est.trials} + uncertified "
                          f"{est.uncertified} != trials {trials}")
        if est.trials and est.p_hat != Fraction(est.hits, est.trials):
            errors.append(f"{tag}: p_hat {est.p_hat} != hits/certified")
        if not 0 <= est.ci_lo <= est.p_hat <= est.ci_hi <= 1:
            errors.append(f"{tag}: CI [{est.ci_lo}, {est.ci_hi}] does not "
                          f"bracket p_hat {est.p_hat} inside [0, 1]")
    return errors


def deep_errors(lln: Any, clt: Any, trials: int) -> list[str]:
    """Counts of an LLN/CLT report pair on one config, and CLT sanity."""
    errors = []
    for label, rep in (("lln", lln), ("clt", clt)):
        if rep.trials != trials or rep.certified + rep.uncertified != trials:
            errors.append(f"{label}: certified {rep.certified} + uncertified "
                          f"{rep.uncertified} != trials {trials}")
    if lln.certified != clt.certified:
        errors.append(f"lln certified {lln.certified} != clt certified {clt.certified}")
    if not 0 <= clt.ks <= 1:
        errors.append(f"clt: KS distance {clt.ks} outside [0, 1]")
    empirical = [q[1] for q in clt.quantiles]
    if empirical != sorted(empirical):
        errors.append(f"clt: empirical quantiles {empirical} not non-decreasing")
    if not lln.stdev >= 0:
        errors.append(f"lln: stdev {lln.stdev} negative")
    return errors


def mean_gate_errors(reports: Iterable[Any]) -> list[str]:
    """Criterion 10's gate on the mean of log b_n / n, pooled over reports."""
    reports = list(reports)
    count = sum(r.certified for r in reports)
    if count < MEAN_GATE_MIN_TRIALS:
        return [f"mean gate needs >= {MEAN_GATE_MIN_TRIALS} certified trials, got {count}"]
    mean = sum(r.mean * r.certified for r in reports) / count
    lo, hi = MEAN_GATE
    if not lo <= mean <= hi:
        return [f"pooled mean {mean:.5f} over {count} trials outside [{lo}, {hi}]"]
    return []


def enclosure_errors(key: str, enc: Any, reference: Sequence[Fraction]) -> list[str]:
    """A finite enclosure (None when infinite) that intersects the one
    recorded from the seed code; both contain the true value."""
    if enc is None:
        return [f"{key}: no finite enclosure"]
    ref_lo, ref_hi = reference
    if not enc.lo <= enc.hi:
        return [f"{key}: endpoints out of order"]
    if enc.hi < ref_lo or ref_hi < enc.lo:
        return [f"{key}: [{float(enc.lo)}, {float(enc.hi)}] misses the recorded "
                f"[{float(ref_lo)}, {float(ref_hi)}]"]
    return []


def marginal_errors(table: Any, p_one: Fraction,
                    small: Iterable[tuple[Any, Any]]) -> list[str]:
    """The DP marginal encloses P(b_n = 1), and every exact small table.

    `small` holds (dp_table, exact_table) pairs at small (n, cap), as in
    criterion 7."""
    errors = []
    if not table.entries[1].lo <= p_one <= table.entries[1].hi:
        errors.append(f"n={table.n} cap={table.cap}: P(b_n = 1) = {p_one} not enclosed")
    if any(not e.lo <= e.hi for e in table.entries.values()):
        errors.append(f"n={table.n} cap={table.cap}: an entry has lo > hi")
    for dp, exact in small:
        for k in range(1, dp.cap + 1):
            if not dp.entries[k].lo <= exact.entries[k].lo <= dp.entries[k].hi:
                errors.append(f"n={dp.n} cap={dp.cap} k={k}: exact value not enclosed")
        if not dp.tail.lo <= exact.tail.lo <= dp.tail.hi:
            errors.append(f"n={dp.n} cap={dp.cap}: exact tail not enclosed")
    return errors


def rate_point_errors(x: Fraction, out: Mapping[str, Any]) -> list[str]:
    """Criterion 9's checks at one grid point.

    out holds ExtendedReal values under legendre, I, I_1, I_big, I_inf and
    legendre_J."""
    infinite = [k for k, v in out.items() if v.is_infinite]
    if infinite:
        return [f"x={x}: no finite enclosure for {infinite}"]
    leg, closed = out["legendre"].value, out["I"].value
    errors = []
    if gap(leg, closed) > LEGENDRE_GAP:
        errors.append(f"x={x}: Legendre enclosure misses I(x) by {float(gap(leg, closed))}")
    if leg.width > LEGENDRE_WIDTH or closed.width > LEGENDRE_WIDTH:
        errors.append(f"x={x}: enclosure wider than {float(LEGENDRE_WIDTH)}")
    if gap(closed, out["I_1"].value) != 0:
        errors.append(f"x={x}: I_1 does not overlap I")
    if gap(out["I_big"].value, out["I_inf"].value) > COMPARISON_GAP:
        errors.append(f"x={x}: I_b at b = 10^6 farther than 1/1000 from I_inf")
    leg_j = out["legendre_J"].value
    truth = x * x / 2
    if leg_j.lo < truth - QUADRATIC_TOL or leg_j.hi > truth + QUADRATIC_TOL:
        errors.append(f"x={x}: Legendre transform of J not within 1e-8 of x^2/2")
    return errors
