"""Self-contained acceptance checks, one per shipped guarantee.

Each criterion is declared once, as ``@_criterion(index, name)`` on a body
that returns ``(passed, detail)``; the decorator times the body, wraps its
verdict in a CheckResult and registers it in CRITERIA, in declaration
order.  Every criterion is safe to run in any order.  Expensive Monte Carlo
passes are shared: the slope and bound checks share one million-trial run,
cached here per process, and the mean and shape checks (10 and 11) share
one depth-100 pass, which the library caches (lln_report and clt_report on
one config walk it once).  The `quick` suite is every criterion but the
seeded Monte Carlo ones (MONTE_CARLO), the same subset as pytest's
`-m "not slow"`; `full` runs everything.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

from .deviations import (GoldenConstants, RateFunctionId, exponential_bound_check,
                         legendre_numeric, mdp_curve, moment_growth_rate, pressure,
                         rate)
from .expansion import (continuants, cylinder_endpoints, expand_rational,
                        reconstruct)
from .measure import (binet_q, conditional_given_last, conditional_probability,
                      cylinder_measure, marginal_exact, marginal_interval_dp,
                      prob_digit_one, transition_bounds)
from .montecarlo import (LOWER, UPPER, SampleConfig, TailRequest, _estimate_from_counts,
                         _ldp_rows, clt_report, lln_report, tail_counts)
from .numerics import OutwardInterval, interval_exp, interval_log
from .words import EXACT_LAST, LAST_AT_MOST, WordFamily, count_words, enumerate_words

MC_SEED_MEAN = 46368      # depth-100 LLN/CLT runs
MC_SEED_TAILS = 271828    # shared million-trial tail run
TAIL_N_LOWER = (10, 20, 30, 40)
TAIL_N_UPPER = (10, 20, 30)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


# (index, criterion) in declaration order, filled by @_criterion.
CRITERIA: list[tuple[int, Callable[[], CheckResult]]] = []


def _criterion(index: int, name: str):
    """Register a body returning (passed, detail) as criterion `index`."""
    def register(body: Callable[[], tuple[bool, str]]) -> Callable[[], CheckResult]:
        @functools.wraps(body)
        def run() -> CheckResult:
            started = time.perf_counter()
            passed, detail = body()
            return CheckResult(index, name, passed, detail,
                               time.perf_counter() - started)
        CRITERIA.append((index, run))
        return run
    return register


def _gap(a: OutwardInterval, b: OutwardInterval) -> Fraction:
    """Certified distance between two enclosures (0 when they overlap)."""
    return max(Fraction(0), a.lo - b.hi, b.lo - a.hi)


@_criterion(1, "exact cylinder and conditional probabilities")
def criterion_1():
    golden = {
        (1, 1, 2): Fraction(1, 35),
        (1, 2, 2): Fraction(1, 44),
        (2, 2, 2): Fraction(1, 88),
        (1, 1, 2, 2): Fraction(1, 133),
        (1, 2, 2, 2): Fraction(1, 165),
        (2, 2, 2, 2): Fraction(1, 330),
    }
    bad = [w for w, p in golden.items() if cylinder_measure(w) != p]
    cond_ok = conditional_probability((1, 1, 2), 2) == Fraction(5, 19)
    last_ok = conditional_given_last(4, 2, 2) == Fraction(972, 3667)
    passed = not bad and cond_ok and last_ok
    detail = "8 exact rational identities"
    if not passed:
        detail = f"mismatches: {bad}, cond_ok={cond_ok}, last_ok={last_ok}"
    return passed, detail


@_criterion(2, "word counts match binomials")
def criterion_2():
    checked = 0
    for n in range(1, 11):
        for m in range(1, 11):
            for mode, formula in ((EXACT_LAST, math.comb(n + m - 2, m - 1)),
                                  (LAST_AT_MOST, math.comb(n + m - 1, m - 1))):
                fam = WordFamily(n, m, mode)
                counted = count_words(fam)
                listed = len(list(enumerate_words(fam)))
                if not counted == listed == formula:
                    return False, (f"n={n} m={m} {mode}: count={counted} "
                                   f"enumerated={listed} formula={formula}")
                checked += 1
    return True, f"{checked} (n, m, mode) families, enumerated exhaustively"


def _random_word(rng: random.Random, max_len: int, max_digit: int,
                 canonical: bool = False) -> tuple[int, ...]:
    n = rng.randint(1, max_len)
    if not canonical or n == 1:
        return tuple(sorted(rng.randint(1, max_digit) for _ in range(n)))
    # The expansion algorithm never ends a length >= 2 word with a repeated
    # digit, so canonical words get a strictly larger final digit.
    word = sorted(rng.randint(1, max_digit - 1) for _ in range(n - 1))
    word.append(rng.randint(word[-1] + 1, max_digit))
    return tuple(word)


@_criterion(3, "cylinder widths equal the continuant formula")
def criterion_3():
    rng = random.Random(3301)
    for _ in range(1000):
        word = _random_word(rng, 10, 50)
        lo, hi = cylinder_endpoints(word)
        q = continuants(word)
        prod = math.prod(word[:-1], start=1)
        width = Fraction(prod, q[-1] * (q[-1] + q[-2]))
        if hi - lo != width or width != cylinder_measure(word):
            return False, f"word={word}"
    return True, "1000 random admissible words, exact equality"


@_criterion(4, "expansion round trips are exact")
def criterion_4():
    rng = random.Random(1123)
    for _ in range(1000):
        word = _random_word(rng, 12, 50, canonical=True)
        back = expand_rational(reconstruct(word), max_digits=len(word) + 4)
        if back.digits != word or back.truncated:
            return False, f"word={word} -> {back.digits}"
    for _ in range(1000):
        q = rng.randint(1, 10**6)
        p = rng.randint(1, q)
        x = Fraction(p, q)
        exp = expand_rational(x, max_digits=200)
        if exp.truncated or reconstruct(exp.digits) != x:
            return False, f"x={x} digits={exp.digits}"
    return True, "1000 canonical words and 1000 rationals, both directions"


@_criterion(5, "transition sandwich encloses conditionals")
def criterion_5():
    checked = 0
    for length in range(1, 6):
        for prefix in combinations_with_replacement(range(1, 21), length):
            j = prefix[-1]
            for k in range(j, 21):
                bounds = transition_bounds(j, k)
                p = conditional_probability(prefix, k)
                if not bounds.contains(p):
                    return False, f"prefix={prefix} k={k} p={p}"
                checked += 1
    return True, f"{checked} exact (prefix, next) pairs, digits <= 20"


@_criterion(6, "repeated-ones probability bounds")
def criterion_6():
    fib = [0, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 31):
        q_n, q_prev = fib[n + 1], fib[n]
        exact, sandwich = prob_digit_one(n)
        ok = (exact == Fraction(1, q_n * (q_n + q_prev))
              and sandwich.lo == Fraction(1, 2 * q_n * q_n)
              and sandwich.hi == Fraction(1, q_n * q_n)
              and sandwich.lo <= exact <= sandwich.hi
              and binet_q(n).contains(q_n))
        if not ok:
            return False, f"n={n}"
    return True, "n <= 30: exact value, sandwich, and Binet enclosure"


@_criterion(7, "marginal DP encloses the exact table")
def criterion_7():
    pairs = 0
    for n in range(1, 7):
        for cap in range(1, 13):
            exact = marginal_exact(n, cap)
            table = marginal_interval_dp(n, cap)
            for k in range(1, cap + 1):
                if not table.entries[k].contains(exact.entries[k].lo):
                    return False, f"n={n} cap={cap} k={k}"
            if not table.tail.contains(exact.tail.lo):
                return False, f"n={n} cap={cap} tail"
            pairs += 1
    return True, f"{pairs} (n, cap) tables, every digit and the tail"


@_criterion(8, "moment growth approaches its limit")
def criterion_8():
    tol = Fraction(15, 100)
    details = []
    for theta in (Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(9, 10)):
        table = moment_growth_rate(theta, [4, 8, 12], cap_schedule=60)
        limit = table.limit.value
        rows = [r.value.value for r in table.rows]
        if theta == 0:
            if any(r.lo != 0 or r.hi != 0 for r in rows):
                return False, "theta=0 rows are not exactly zero"
            continue
        final = rows[-1]
        if final.lo < limit.lo - tol or final.hi > limit.hi + tol:
            return False, f"theta={theta}: n=12 enclosure not within {tol} of limit"
        seps = [_gap(r, limit) for r in rows]
        if any(seps[i + 1] > seps[i] for i in range(len(seps) - 1)):
            return False, (f"theta={theta}: separations {[float(s) for s in seps]} "
                           "not non-increasing")
        details.append(f"theta={theta}: final gap {float(seps[-1]):.4f}")
    return True, "; ".join(details)


@_criterion(9, "rate function identities")
def criterion_9():
    tol_grid = Fraction(1, 10**6)
    eye = RateFunctionId("I");  eye_one = RateFunctionId("I_b", b=1)
    eye_big = RateFunctionId("I_b", b=10**6);  eye_inf = RateFunctionId("I_inf")
    lo_x, hi_x = Fraction(-99, 100), Fraction(5)
    for i in range(200):
        x = lo_x + i * (hi_x - lo_x) / 199
        leg = legendre_numeric(pressure, x).value
        closed = rate(eye, x).value
        if _gap(leg, closed) > tol_grid or leg.width > tol_grid or closed.width > tol_grid:
            return False, f"Legendre mismatch at x={float(x):.4f}"
        if _gap(closed, rate(eye_one, x).value) != 0:
            return False, f"I_1 != I at x={float(x):.4f}"
        if _gap(rate(eye_big, x).value, rate(eye_inf, x).value) > Fraction(1, 1000):
            return False, f"I_1e6 vs I_inf at x={float(x):.4f}"
    # Branch continuity at the breakpoints, as interval overlap.
    consts = GoldenConstants.compute()
    tol_bp = Fraction(1, 10**20)
    bp = consts.branch_point
    mid_branch = -(consts.phi * (bp + 1)) + consts.two_log_phi
    first_branch = bp - interval_log(bp + 1)
    if _gap(mid_branch, first_branch) > tol_bp:
        return False, "rate branches disagree at the breakpoint"
    mphi = -consts.phi
    lam_low = -mphi - consts.two_log_phi
    lam_mid = -mphi - interval_log(1 - mphi)
    if _gap(lam_low, lam_mid) > tol_bp:
        return False, "pressure branches disagree at the breakpoint"
    # Quadratic self-duality.
    jay = RateFunctionId("J")
    j_pressure = lambda theta, prec: rate(jay, theta, prec)
    tol_j = Fraction(1, 10**8)
    for i in range(25):
        x = Fraction(-3) + i * Fraction(6, 24)
        leg = legendre_numeric(j_pressure, x, bracket=(Fraction(-10), Fraction(10)),
                               target_width=Fraction(1, 10**10)).value
        truth = x * x / 2
        if leg.lo < truth - tol_j or leg.hi > truth + tol_j:
            return False, f"quadratic self-duality fails at x={float(x)}"
    return True, ("200-point Legendre grid, breakpoint overlap, comparison family, "
                  "quadratic self-duality")


# Criteria 10 and 11 run on one config; the library walks it once for both.
_MEAN_CONFIG = SampleConfig(seed=MC_SEED_MEAN, trials=10**4, depth=100)


@_criterion(10, "sampled digit growth has mean one")
def criterion_10():
    rep = lln_report(_MEAN_CONFIG)
    passed = 0.99 <= rep.mean <= 1.01 and rep.uncertified == 0
    return passed, (f"mean={rep.mean:.5f} sd={rep.stdev:.4f} "
                    f"uncertified={rep.uncertified}/{rep.trials}")


@_criterion(11, "normalized digit growth is near normal")
def criterion_11():
    rep = clt_report(_MEAN_CONFIG)
    passed = rep.ks <= 0.1
    return passed, (f"KS={rep.ks:.4f} median={rep.median:.4f} "
                    f"uncertified={rep.uncertified}/{rep.trials}")


@functools.lru_cache(maxsize=1)
def _shared_tail_run():
    config = SampleConfig(seed=MC_SEED_TAILS, trials=10**6, depth=40)
    half = Fraction(1, 2)
    requests = ([TailRequest(LOWER, half, n) for n in TAIL_N_LOWER]
                + [TailRequest(UPPER, half, n) for n in TAIL_N_LOWER]
                + [TailRequest(UPPER, Fraction(1), n) for n in TAIL_N_UPPER])
    return tail_counts(config, requests)


@_criterion(12, "tail decay slopes match the rate function")
def criterion_12():
    estimates = _shared_tail_run()
    half = Fraction(1, 2)
    lower = _ldp_rows(half, LOWER, TAIL_N_LOWER, estimates)
    upper = _ldp_rows(Fraction(1), UPPER, TAIL_N_UPPER, estimates)
    target_lower = rate(RateFunctionId("I"), -half).value.mid_float()
    target_upper = rate(RateFunctionId("I"), Fraction(1)).value.mid_float()
    ok_lower = 0.7 * target_lower <= lower.slope <= 1.3 * target_lower
    ok_upper = 0.7 * target_upper <= upper.slope <= 1.3 * target_upper
    return ok_lower and ok_upper, (
        f"lower slope {lower.slope:.4f} vs {target_lower:.4f}; "
        f"upper slope {upper.slope:.4f} vs {target_upper:.4f} (both +-30%)")


@_criterion(13, "single exponential bound covers all depths")
def criterion_13():
    estimates = _shared_tail_run()
    half = Fraction(1, 2)

    def two_sided_ci_hi(n: int) -> Fraction:
        # Both events are decided by b_n (the same trials) and disjoint (hits add).
        lo = estimates[TailRequest(LOWER, half, n)]
        up = estimates[TailRequest(UPPER, half, n)]
        return _estimate_from_counts(lo.hits + up.hits, lo.trials, lo.uncertified).ci_hi

    report = exponential_bound_check(half, TAIL_N_LOWER, two_sided_ci_hi)
    # Re-verify the claimed bound row by row with outward exponentials.
    for row in report.rows:
        decay = interval_exp(-report.beta * row.n)
        if row.prob_bound > report.alpha * decay.hi:
            return False, f"bound violated at n={row.n}"
    passed = report.alpha > 0 and report.beta > 0 and report.beta_max.lo > 0
    return passed, (f"beta={float(report.beta):.5f} alpha={float(report.alpha):.4f} "
                    f"over n={list(TAIL_N_LOWER)}")


@_criterion(14, "moderate deviation rows trend to the limit")
def criterion_14():
    details = []
    for lam in (Fraction(-1), Fraction(1)):
        table = mdp_curve(lam, [8, 12, 16])
        if not all(r.feasible for r in table.rows):
            return False, f"lambda={lam}: infeasible row"
        target = OutwardInterval.from_value(table.target)
        seps = [_gap(r.value, target) for r in table.rows]
        if any(seps[i + 1] > seps[i] for i in range(len(seps) - 1)):
            return False, f"lambda={lam}: separations {[float(s) for s in seps]}"
        details.append(f"lambda={lam}: gaps {[round(float(s), 4) for s in seps]}")
    return True, "; ".join(details)


# The seeded Monte Carlo criteria: 12 takes about 2.2 s, the others under 0.2 s (2-CPU VM).
MONTE_CARLO = frozenset({10, 11, 12, 13})


def run_suite(suite: str = "quick") -> list[CheckResult]:
    if suite not in ("quick", "full"):
        raise ValueError("suite must be 'quick' or 'full'")
    return [fn() for index, fn in CRITERIA
            if suite == "full" or index not in MONTE_CARLO]
