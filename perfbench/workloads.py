"""The four workloads: inputs made from the seed, jobs, and their checks.

A pass is a fixed list of jobs.  A job is one group of calls into the
public functions of ecfrac that yields checked results; its time is one
sample of job_ms.  Work units (for work_per_s) are counted from the
inputs, never from the implementation: Monte Carlo trials requested, DP
cells (n - 1) * cap * (cap + 1) / 2 per dynamic program, grid points.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from ecfrac import (RateFunctionId, SampleConfig, TailRequest, clt_report,
                    legendre_numeric, lln_report, marginal_exact,
                    marginal_interval_dp, mdp_curve, moment_growth_rate,
                    pressure, prob_digit_one, rate, tail_counts)
from ecfrac.montecarlo import LOWER, UPPER

import checks
from tracer import Tracer, call

REFERENCE_PATH = Path(__file__).with_name("reference.json")

HALF = Fraction(1, 2)
# Criterion 12's 11 tail requests.
TAIL_REQUESTS = tuple([TailRequest(LOWER, HALF, n) for n in (10, 20, 30, 40)]
                      + [TailRequest(UPPER, HALF, n) for n in (10, 20, 30, 40)]
                      + [TailRequest(UPPER, Fraction(1), n) for n in (10, 20, 30)])
DEFAULT_SEEDS = {"mc_tails": 271828, "mc_deep": 46368, "moment_dp": 0,
                 "certified_rates": 9}
Z99 = statistics.NormalDist().inv_cdf(0.995)

I = RateFunctionId("I")
I_1 = RateFunctionId("I_b", b=1)
I_BIG = RateFunctionId("I_b", b=10**6)
I_INF = RateFunctionId("I_inf")
J = RateFunctionId("J")


def j_pressure(theta, prec=None):
    """The quadratic pressure J, as a pressure_fn for legendre_numeric."""
    return rate(J, theta, prec)


@dataclass
class Outcome:
    """What the checks made of one job's outputs."""

    errors: list[str]
    results: int = 1            # results the job produced
    certified: int = 1          # of those, how many came out certified
    width: float | None = None  # the job's enclosure-width figure


@dataclass(frozen=True)
class Job:
    name: str
    work: int
    run: Callable[[Tracer | None], Any]
    assess: Callable[[Any], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[int], list[Job]]   # pass index -> the pass's jobs
    min_passes: int
    summarize_width: Callable[[list[float]], float]
    finish: Callable[[list[Any]], list[str]] = lambda outputs: []
    info: dict[str, Any] = field(default_factory=dict)


def _key(seed: int, index: int) -> int:
    return (seed + index) % 2**64


def mc_tails(seed: int, tiny: bool = False) -> Workload:
    """tail_counts at depth 40, default B, criterion 12's requests.

    Every pass is one call on its own key (seed + pass index)."""
    trials = 20 if tiny else 500

    def jobs(index: int) -> list[Job]:
        config = SampleConfig(seed=_key(seed, index), trials=trials, depth=40)

        def assess(estimates) -> Outcome:
            widths = [float(e.ci_hi - e.ci_lo) for e in estimates.values()]
            return Outcome(checks.tail_errors(estimates, trials), trials,
                           min(e.trials for e in estimates.values()),
                           statistics.fmean(widths))

        return [Job("tail_counts", trials,
                    lambda tr: call(tr, "montecarlo.tail_counts", tail_counts,
                                    config, TAIL_REQUESTS), assess)]

    return Workload("mc_tails", jobs, 1, statistics.median,
                    info={"depth": 40, "trials_per_pass": trials,
                          "bits": SampleConfig(seed, 1, 40).bits})


def mc_deep(seed: int, tiny: bool = False) -> Workload:
    """lln_report then clt_report on one depth-100 config, default B.

    The pooled mean over the whole run must meet criterion 10's gate, so a
    run makes at least enough passes for the gate to resolve it."""
    trials = 5 if tiny else 25
    # Two passes beyond the gate's minimum, as margin for uncertified trials.
    min_passes = 1 if tiny else -(-checks.MEAN_GATE_MIN_TRIALS // trials) + 2

    def jobs(index: int) -> list[Job]:
        config = SampleConfig(seed=_key(seed, index), trials=trials, depth=100)

        def run(tr):
            return (call(tr, "montecarlo.lln_report", lln_report, config),
                    call(tr, "montecarlo.clt_report", clt_report, config))

        def assess(reports) -> Outcome:
            lln, clt = reports
            spread = Z99 * lln.stdev / math.sqrt(lln.certified) if lln.certified else math.inf
            return Outcome(checks.deep_errors(lln, clt, trials), trials,
                           lln.certified, 2 * spread)

        return [Job("lln_clt", 2 * trials, run, assess)]

    def finish(outputs: list[Any]) -> list[str]:
        if tiny:
            return []
        return checks.mean_gate_errors(lln for lln, _ in outputs)

    return Workload("mc_deep", jobs, min_passes, statistics.median, finish,
                    info={"depth": 100, "trials_per_pass": trials,
                          "bits": SampleConfig(seed, 1, 100).bits})


def dp_cells(n: int, cap: int) -> int:
    return (n - 1) * cap * (cap + 1) // 2


def moment_jobs_spec(tiny: bool = False):
    """(growth rows (theta, n), MDP rows (lambda, n), marginal (n, cap), cap)."""
    if tiny:
        return ([(HALF, 2), (Fraction(-3), 3)], [(Fraction(1), 3)], (3, 6), 6)
    growth = [(theta, n) for theta in (Fraction(-3), -HALF, HALF, Fraction(9, 10))
              for n in (4, 8)] + [(HALF, 12)]
    return growth, [(Fraction(-1), 8), (Fraction(1), 8)], (12, 60), 60


def growth_key(theta: Fraction, n: int) -> str:
    return f"growth:theta={theta}:n={n}"


def mdp_key(lam: Fraction, n: int) -> str:
    return f"mdp:lambda={lam}:n={n}"


def load_reference() -> dict[str, tuple[Fraction, Fraction]]:
    raw = json.loads(REFERENCE_PATH.read_text())
    return {k: (Fraction(lo), Fraction(hi)) for k, (lo, hi) in raw["enclosures"].items()}


def _finite(value) -> Any:
    """The OutwardInterval inside an ExtendedReal, or None for +infinity."""
    return None if value.is_infinite else value.value


def moment_dp(seed: int, tiny: bool = False) -> Workload:
    """Exact-Fraction moment DP at cap 60; no Monte Carlo.  Seed-independent.

    Growth rows are checked against enclosures recorded from the seed code
    (tiny runs have none recorded and check finiteness only)."""
    growth, mdp, (marg_n, marg_cap), cap = moment_jobs_spec(tiny)
    reference = None if tiny else load_reference()

    def check_enclosure(key: str, enc) -> list[str]:
        if reference is None:
            return [] if enc is not None else [f"{key}: no finite enclosure"]
        if key not in reference:
            return [f"{key}: no enclosure recorded in {REFERENCE_PATH.name}"]
        return checks.enclosure_errors(key, enc, reference[key])

    def growth_job(theta: Fraction, n: int) -> Job:
        key = growth_key(theta, n)

        def assess(table) -> Outcome:
            enc = _finite(table.rows[0].value)
            width = None if enc is None else float(n * (enc.hi - enc.lo))
            return Outcome(check_enclosure(key, enc), 1, int(enc is not None), width)

        return Job(key, dp_cells(n, cap),
                   lambda tr: call(tr, "deviations.moment_growth_rate",
                                   moment_growth_rate, theta, [n], cap_schedule=cap),
                   assess)

    def mdp_job(lam: Fraction, n: int) -> Job:
        key = mdp_key(lam, n)

        def assess(table) -> Outcome:
            row = table.rows[0]
            enc = row.value if row.feasible else None
            return Outcome(check_enclosure(key, enc), 1, int(enc is not None))

        return Job(key, 2 * dp_cells(n, cap),
                   lambda tr: call(tr, "deviations.mdp_curve", mdp_curve, lam, [n],
                                   cap=cap), assess)

    def marginal_assess(table) -> Outcome:
        small = [(marginal_interval_dp(n, c), marginal_exact(n, c))
                 for n, c in ((3, 10), (5, 8), (6, 12))]
        p_one, _ = prob_digit_one(marg_n)
        return Outcome(checks.marginal_errors(table, p_one, small))

    jobs = ([growth_job(t, n) for t, n in growth] + [mdp_job(l, n) for l, n in mdp]
            + [Job(f"marginal:n={marg_n}:cap={marg_cap}", dp_cells(marg_n, marg_cap),
                   lambda tr: call(tr, "measure.marginal_interval_dp",
                                   marginal_interval_dp, marg_n, marg_cap),
                   marginal_assess)])
    return Workload("moment_dp", lambda index: jobs, 1, statistics.fmean,
                    info={"cap": cap, "growth_rows": [f"{t}@{n}" for t, n in growth],
                          "mdp_rows": [f"{l}@{n}" for l, n in mdp],
                          "marginal": [marg_n, marg_cap]})


def rate_grid(seed: int, points: int) -> list[Fraction]:
    """One rational k/1000 drawn from each of `points` equal strata of
    [-99/100, 5], so every seed covers the whole range."""
    rng = random.Random(seed)
    lo, hi = -990, 5000
    edges = [lo + (hi - lo) * i // points for i in range(points + 1)]
    return [Fraction(rng.randrange(a, b), 1000) for a, b in zip(edges, edges[1:])]


def certified_rates(seed: int, tiny: bool = False) -> Workload:
    """Interval path only: Legendre transforms and closed-form rates on a grid."""
    grid = rate_grid(seed, 4 if tiny else 200)

    def point_job(x: Fraction) -> Job:
        def run(tr):
            return {
                "legendre": call(tr, "deviations.legendre_numeric", legendre_numeric,
                                 pressure, x),
                "I": call(tr, "deviations.rate", rate, I, x),
                "I_1": call(tr, "deviations.rate", rate, I_1, x),
                "I_big": call(tr, "deviations.rate", rate, I_BIG, x),
                "I_inf": call(tr, "deviations.rate", rate, I_INF, x),
                "legendre_J": call(tr, "deviations.legendre_numeric", legendre_numeric,
                                   j_pressure, x, bracket=(Fraction(-10), Fraction(10)),
                                   target_width=Fraction(1, 10**10)),
            }

        def assess(out) -> Outcome:
            leg = _finite(out["legendre"])
            ok = leg is not None and leg.width <= checks.LEGENDRE_WIDTH
            width = None if leg is None else float(leg.width)
            return Outcome(checks.rate_point_errors(x, out), 1, int(ok), width)

        return Job(f"x={x}", 1, run, assess)

    jobs = [point_job(x) for x in grid]
    return Workload("certified_rates", lambda index: jobs, 1, max,
                    info={"grid_points": len(grid), "grid_min": str(min(grid)),
                          "grid_max": str(max(grid))})


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "mc_tails": mc_tails,
    "mc_deep": mc_deep,
    "moment_dp": moment_dp,
    "certified_rates": certified_rates,
}
