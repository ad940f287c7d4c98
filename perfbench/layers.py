"""Per-layer probes for the traced run.

Every probe is a span around calls into one layer of ecfrac; the per-layer
metrics are computed from the span durations.  Micro-operations (one
OutwardInterval add, one pressure evaluation) are timed in batches, one
span per batch, so the span itself does not inflate a few-microsecond
call; the reported figure is the median batch time over the batch size.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from typing import Any, Callable

from ecfrac import (OutwardInterval, SampleConfig, TailRequest, clopper_pearson,
                    default_bits, interval_log, interval_pow, legendre_numeric,
                    lln_report, marginal_interval_dp, mdp_curve, moment_interval,
                    pressure, rate, tail_counts, tail_threshold)
from ecfrac.montecarlo import UPPER

from tracer import Tracer
from workloads import HALF, I, TAIL_REQUESTS

# (hits, trials) pairs on the scale of the million-trial tail criteria.
CP_PAIRS = tuple((h, 10**6) for h in (2, 30, 500, 9000, 120000, 400000))
THETAS = tuple(Fraction(k, 8) for k in range(-40, 8))      # both pressure branches
XS = tuple(Fraction(k, 20) for k in range(-19, 101, 3))     # across [-99/100, 5]


def _timed(tracer: Tracer, name: str, fn: Callable[[], Any]) -> tuple[float, Any]:
    with tracer.span(name):
        out = fn()
    return tracer.seconds(name)[-1], out


def _per_call(tracer: Tracer, name: str, fn: Callable[[], Any], reps: int,
              batches: int = 5) -> float:
    """Seconds per call of fn: median over batches of one span each."""
    for _ in range(batches):
        with tracer.span(name, calls=reps):
            for _ in range(reps):
                fn()
    return statistics.median(tracer.seconds(name)[-batches:]) / reps


def montecarlo_layers(tracer: Tracer, workload: str, seed: int,
                      tiny: bool) -> dict[str, float]:
    """Draw and walk cost per trial at the workload's depth and default B.

    Workloads without Monte Carlo use mc_tails' depth 40."""
    deep = workload == "mc_deep"
    depth = 100 if deep else 40
    bits = default_bits(depth)
    draw_trials = 20 if tiny else 1000
    full_trials = 5 if tiny else (100 if deep else 500)
    reps = 2 if tiny else 20

    thresholds_s = _per_call(tracer, "montecarlo.tail_threshold",
                             lambda: [tail_threshold(r) for r in TAIL_REQUESTS],
                             reps) / len(TAIL_REQUESTS)
    cp_s = _per_call(tracer, "montecarlo.clopper_pearson",
                     lambda: [clopper_pearson(h, n) for h, n in CP_PAIRS],
                     reps) / len(CP_PAIRS)

    draw_config = SampleConfig(seed=seed, trials=draw_trials, depth=1, bits=bits)
    draw_s, _ = _timed(tracer, "montecarlo.tail_counts[depth=1]",
                       lambda: tail_counts(draw_config, [TailRequest(UPPER, Fraction(1), 1)]))
    draw_per_trial = (draw_s - thresholds_s - cp_s) / draw_trials

    full_config = SampleConfig(seed=seed, trials=full_trials, depth=depth)
    if deep:
        full_s, report = _timed(tracer, "montecarlo.lln_report",
                                lambda: lln_report(full_config))
        uncertified = report.uncertified
    else:
        full_s, estimates = _timed(tracer, "montecarlo.tail_counts",
                                   lambda: tail_counts(full_config, TAIL_REQUESTS))
        full_s -= len(TAIL_REQUESTS) * (thresholds_s + cp_s)
        uncertified = full_trials - min(e.trials for e in estimates.values())
    full_per_trial = full_s / full_trials
    return {
        "montecarlo.draw_us": draw_per_trial * 1e6,
        "montecarlo.walk_us": (full_per_trial - draw_per_trial) * 1e6,
        "montecarlo.draw_share": draw_per_trial / full_per_trial,
        "montecarlo.tail_threshold_us": thresholds_s * 1e6,
        "montecarlo.clopper_pearson_us": cp_s * 1e6,
        "montecarlo.uncertified": uncertified,
    }


def measure_layers(tracer: Tracer, tiny: bool) -> dict[str, float]:
    """moment_interval at theta = 1/2 at the ROADMAP table's (n, cap) points."""
    points = {"n12_cap60": (12, 60), "n16_cap60": (16, 60), "n8_cap120": (8, 120),
              "n8_cap60": (8, 60)}
    if tiny:
        points = {"n12_cap60": (4, 6), "n16_cap60": (5, 6), "n8_cap120": (3, 9),
                  "n8_cap60": (3, 6)}
    seconds = {}
    for label, (n, cap) in points.items():
        seconds[label], _ = _timed(tracer, f"measure.moment_interval[{label}]",
                                   lambda: moment_interval(n, HALF, cap=cap))
    step_n = points["n12_cap60"][0] - points["n8_cap60"][0]
    marg_n, marg_cap = (12, 60) if not tiny else (4, 6)
    marginal_s, _ = _timed(tracer, "measure.marginal_interval_dp",
                           lambda: marginal_interval_dp(marg_n, marg_cap))
    return {
        "measure.moment_interval_s.n12_cap60": seconds["n12_cap60"],
        "measure.moment_interval_s.n16_cap60": seconds["n16_cap60"],
        "measure.moment_interval_s.n8_cap120": seconds["n8_cap120"],
        "measure.dp_step_s": (seconds["n12_cap60"] - seconds["n8_cap60"]) / step_n,
        "measure.marginal_interval_dp_s.n12_cap60": marginal_s,
    }


def deviations_layers(tracer: Tracer, tiny: bool) -> dict[str, float]:
    probes = 0

    def counting_pressure(theta, prec=None):
        nonlocal probes
        probes += 1
        return pressure(theta, prec)

    _timed(tracer, "deviations.legendre_numeric", lambda: legendre_numeric(counting_pressure, 1))
    reps = 1 if tiny else 5
    pressure_s = _per_call(tracer, "deviations.pressure",
                           lambda: [pressure(t) for t in THETAS], reps) / len(THETAS)
    rate_s = _per_call(tracer, "deviations.rate",
                       lambda: [rate(I, x) for x in XS], reps) / len(XS)
    n, cap = (3, 6) if tiny else (8, 60)
    mdp_s, _ = _timed(tracer, "deviations.mdp_curve",
                      lambda: mdp_curve(Fraction(1), [n], cap=cap))
    return {
        "deviations.legendre_probes": probes,
        "deviations.pressure_us": pressure_s * 1e6,
        "deviations.rate_us": rate_s * 1e6,
        "deviations.mdp_row_s": mdp_s,
    }


def numerics_layers(tracer: Tracer, tiny: bool) -> dict[str, float]:
    a = OutwardInterval.from_value(Fraction(1, 3))
    b = OutwardInterval.from_value(Fraction(2, 7))
    seven_eighths = Fraction(7, 8)
    ops = {
        "add": lambda: a + b,
        "mul": lambda: a * b,
        "lo": lambda: a.lo,
        "log": lambda: interval_log(a),
        "pow": lambda: interval_pow(7, HALF),
        "from_value": lambda: OutwardInterval.from_value(seven_eighths),
    }
    reps = 5 if tiny else 400
    return {f"numerics.{op}_us": _per_call(tracer, f"numerics.{op}", fn, reps) * 1e6
            for op, fn in ops.items()}


def layer_metrics(tracer: Tracer, workload: str, seed: int,
                  tiny: bool = False) -> dict[str, float]:
    with tracer.span("layers"):
        metrics = montecarlo_layers(tracer, workload, seed, tiny)
        metrics.update(numerics_layers(tracer, tiny))
        metrics.update(deviations_layers(tracer, tiny))
        metrics.update(measure_layers(tracer, tiny))
    return metrics
