"""Seeded Monte Carlo verification of the digit limit theorems.

Sampling is exact: each trial draws k uniformly from [0, 2^B) and
samples the dyadic cell [k/2^B, (k+1)/2^B]; the digit statistics are
computed from the prefix that every point of the cell shares (the lockstep
walk of expansion.expand_interval), so no floating-point drift can corrupt
a digit.  Trials are keyed by
(seed, index) through a counter-based generator (numpy Philox, recorded
as the algorithm name in reports), which makes every report a
deterministic function of its SampleConfig.

Uncertified trials (cell wider than the depth-n cylinder) are excluded
from both numerator and denominator but always reported.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.stats import beta as _beta_dist

from .expansion import CertifiedExpansion, _lockstep_walk
from .numerics import interval_exp

RNG_ALGORITHM = "philox4x64 (numpy.random.Philox, key=seed, counter=trial index)"
CONFIDENCE = Fraction(99, 100)  # level of every Clopper-Pearson interval


def default_bits(depth: int) -> int:
    """B = ceil(2.2 n^2); cylinder widths scale like exp(-n^2(1+o(1)))."""
    return -((-11 * depth * depth) // 5)


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    trials: int
    depth: int
    bits: int | None = None

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.bits is None:
            object.__setattr__(self, "bits", default_bits(self.depth))
        if self.bits < 1:
            raise ValueError("bits must be >= 1")


@dataclass(frozen=True)
class EventEstimate:
    hits: int
    trials: int          # certified trials only (the denominator)
    p_hat: Fraction
    ci_lo: Fraction      # 99% Clopper-Pearson, widened outward
    ci_hi: Fraction
    uncertified: int

    def __post_init__(self):
        if not self.ci_lo <= self.p_hat <= self.ci_hi:
            raise ValueError("confidence bounds must bracket the estimate")


def _raw_cell_index(seed: int, index: int, bits: int) -> int:
    gen = np.random.Generator(np.random.Philox(key=seed, counter=index))
    nbytes = (bits + 7) // 8
    return int.from_bytes(gen.bytes(nbytes), "little") & ((1 << bits) - 1)


def _digit_stream(config: SampleConfig) -> Iterator[tuple[list[int], bool]]:
    """(certified digit prefix of length <= depth, truncated), one per trial.

    A trial that draws k samples the cell [k/2^B, (k+1)/2^B]; the cell at
    k = 0 touches 0 and certifies no digit.  Trials are independent functions of (seed, index), and the
    aggregations below are exact integer counters, independent of order.
    """
    den = 1 << config.bits
    depth = config.depth
    for index in range(config.trials):
        k = _raw_cell_index(config.seed, index, config.bits)
        yield _lockstep_walk(k, den, k + 1, den, depth)


def clopper_pearson(hits: int, trials: int) -> tuple[Fraction, Fraction]:
    """Exact binomial CI at level CONFIDENCE, returned as rationals widened outward.

    The beta quantiles come from scipy in float precision; both ends are
    pushed outward by a relative 1e-12 plus an absolute 1e-18 so the
    returned rationals still bracket the mathematical CI.
    """
    if not 0 <= hits <= trials or trials < 1:
        raise ValueError("need 0 <= hits <= trials, trials >= 1")
    alpha = 1 - CONFIDENCE
    if hits == 0:
        lo = Fraction(0)
    else:
        lo_f = float(_beta_dist.ppf(float(alpha / 2), hits, trials - hits + 1))
        lo = Fraction(lo_f) * (1 - Fraction(1, 10**12)) - Fraction(1, 10**18)
        lo = max(lo, Fraction(0))
    if hits == trials:
        hi = Fraction(1)
    else:
        hi_f = float(_beta_dist.ppf(float(1 - alpha / 2), hits + 1, trials - hits))
        hi = Fraction(hi_f) * (1 + Fraction(1, 10**12)) + Fraction(1, 10**18)
        hi = min(hi, Fraction(1))
    return lo, hi


def _estimate_from_counts(hits: int, certified: int, uncertified: int) -> EventEstimate:
    if certified == 0:
        raise RuntimeError("no trial certified enough digits; raise bits")
    ci_lo, ci_hi = clopper_pearson(hits, certified)
    return EventEstimate(hits, certified, Fraction(hits, certified), ci_lo, ci_hi,
                         uncertified)


def estimate_event(config: SampleConfig,
                   event: Callable[[int, CertifiedExpansion], Optional[bool]]) -> EventEstimate:
    """Empirical frequency of an event decided from certified digits.

    The predicate receives (depth, CertifiedExpansion) and may return None
    when the certified prefix cannot decide the event; such trials count
    as uncertified.
    """
    hits = certified = uncertified = 0
    for prefix, truncated in _digit_stream(config):
        expansion = CertifiedExpansion(tuple(prefix), truncated)
        verdict = event(config.depth, expansion)
        if verdict is None:
            uncertified += 1
        else:
            certified += 1
            hits += bool(verdict)
    return _estimate_from_counts(hits, certified, uncertified)


# ---------------------------------------------------------------------------
# Tail events with exact integer thresholds
# ---------------------------------------------------------------------------

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class TailRequest:
    """Event {log b_n >= n(1+eps)} (upper) or {log b_n <= n(1-eps)} (lower)."""

    tail: str
    eps: Fraction
    n: int

    def __post_init__(self):
        if self.tail not in (UPPER, LOWER):
            raise ValueError("tail must be 'upper' or 'lower'")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def tail_threshold(request: TailRequest) -> int:
    """Integer threshold deciding the tail event exactly.

    log b >= w iff b >= ceil(e^w) and log b <= w iff b <= floor(e^w); for
    rational w != 0, e^w is irrational, so floor/ceil are unambiguous once
    an interval enclosure of e^w separates consecutive integers.
    """
    eps = Fraction(request.eps)
    w = request.n * ((1 + eps) if request.tail == UPPER else (1 - eps))
    if w == 0:
        return 1  # both events reduce to b_n >= 1 resp. b_n <= 1
    if w < 0:
        return 0 if request.tail == LOWER else 1  # b >= 1 > e^w; b <= e^w < 1 impossible
    for prec in (128, 256, 512, 1024, 2048):
        enc = interval_exp(w, prec)
        f_lo = math.floor(enc.lo)
        f_hi = math.floor(enc.hi)
        if f_lo == f_hi:
            return f_lo + 1 if request.tail == UPPER else f_lo
    raise RuntimeError(f"could not separate e^{w} from an integer at 2048 bits")


def tail_counts(config: SampleConfig,
                requests: Sequence[TailRequest]) -> dict[TailRequest, EventEstimate]:
    """Estimates for many tail events from one shared pass over the trials."""
    requests = list(requests)
    if any(r.n > config.depth for r in requests):
        raise ValueError("request depth exceeds config.depth")
    thresholds = {r: tail_threshold(r) for r in requests}
    hits = {r: 0 for r in requests}
    certified = {r: 0 for r in requests}
    for prefix, _ in _digit_stream(config):
        have = len(prefix)
        for r in requests:
            if have < r.n:
                continue
            certified[r] += 1
            b = prefix[r.n - 1]
            if r.tail == UPPER:
                hits[r] += b >= thresholds[r]
            else:
                hits[r] += b <= thresholds[r]
    return {r: _estimate_from_counts(hits[r], certified[r], config.trials - certified[r])
            for r in requests}


@dataclass(frozen=True)
class LdpRow:
    n: int
    estimate: EventEstimate
    rate: float | None       # -(1/n) log p_hat; None when p_hat = 0
    rate_lo: float | None    # from the CI upper bound
    rate_hi: float | None    # from the CI lower bound; None when ci_lo = 0


@dataclass(frozen=True)
class LdpReport:
    eps: Fraction
    tail: str
    rows: tuple[LdpRow, ...]
    slope: float             # least-squares slope of -log p_hat against n
    intercept: float
    slope_lo: float          # same fit at the CI-extreme probabilities
    slope_hi: float


def _ldp_rows(eps: Fraction, tail: str, n_list: Sequence[int],
              estimates: dict[TailRequest, EventEstimate]) -> LdpReport:
    rows = []
    for n in n_list:
        est = estimates[TailRequest(tail, eps, n)]
        rate = -math.log(est.p_hat) / n if est.hits > 0 else None
        rate_lo = -math.log(est.ci_hi) / n if est.ci_hi > 0 else None
        rate_hi = -math.log(est.ci_lo) / n if est.ci_lo > 0 else None
        rows.append(LdpRow(n, est, rate, rate_lo, rate_hi))
    fit = [(r.n, r.estimate) for r in rows if r.estimate.hits > 0]
    if len(fit) < 2:
        raise RuntimeError("need at least two n with hits to fit a slope")
    xs = [n for n, _ in fit]
    slope, intercept = _fit(xs, [-math.log(e.p_hat) for _, e in fit])
    slope_lo, _ = _fit(xs, [-math.log(e.ci_hi) for _, e in fit])
    hi_ys = [-math.log(e.ci_lo) if e.ci_lo > 0 else None for _, e in fit]
    if any(y is None for y in hi_ys):
        slope_hi = math.inf
    else:
        slope_hi, _ = _fit(xs, hi_ys)
    lo, hi = min(slope_lo, slope_hi), max(slope_lo, slope_hi)
    return LdpReport(eps, tail, tuple(rows), slope, intercept, lo, hi)


def _fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    res = statistics.linear_regression(xs, ys)
    return res.slope, res.intercept


def ldp_slope(eps: Fraction, n_list: Sequence[int], config: SampleConfig,
              tail: str = LOWER) -> LdpReport:
    """Fitted decay slope of the tail probabilities over n_list.

    The slope of -log p_hat_n against n estimates the rate I(eps) (upper
    tail) or I(-eps) (lower tail); the intercept absorbs the prefactor.
    Zero-hit rows are reported with one-sided bounds and excluded from
    the fit.
    """
    eps = Fraction(eps)
    requests = [TailRequest(tail, eps, n) for n in n_list]
    estimates = tail_counts(config, requests)
    return _ldp_rows(eps, tail, n_list, estimates)


# ---------------------------------------------------------------------------
# LLN / CLT reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlnReport:
    depth: int
    trials: int
    certified: int
    uncertified: int
    mean: float    # of log b_n / n over certified trials
    stdev: float


@dataclass(frozen=True)
class CltReport:
    depth: int
    trials: int
    certified: int
    uncertified: int
    ks: float                # sup distance of (log b_n - n)/sqrt(n) to N(0,1)
    median: float
    quantiles: tuple[tuple[float, float, float], ...]  # (level, empirical, normal)


def _final_digits(config: SampleConfig) -> tuple[list[int], int]:
    """b_n of every trial that certifies n = depth digits, and how many do not."""
    finals = []
    uncertified = 0
    for prefix, _ in _digit_stream(config):
        if len(prefix) < config.depth:
            uncertified += 1
        else:
            finals.append(prefix[-1])
    if not finals:
        raise RuntimeError("no trial certified enough digits; raise bits")
    return finals, uncertified


def lln_report(config: SampleConfig) -> LlnReport:
    finals, uncertified = _final_digits(config)
    values = [math.log(b) / config.depth for b in finals]
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    return LlnReport(config.depth, config.trials, len(values), uncertified,
                     statistics.fmean(values), spread)


_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def clt_report(config: SampleConfig) -> CltReport:
    normal = statistics.NormalDist()
    scale = math.sqrt(config.depth)
    finals, uncertified = _final_digits(config)
    zs = sorted((math.log(b) - config.depth) / scale for b in finals)
    count = len(zs)
    ks = 0.0
    for i, z in enumerate(zs):
        cdf = normal.cdf(z)
        ks = max(ks, abs((i + 1) / count - cdf), abs(cdf - i / count))
    quantiles = tuple(
        (q, zs[min(count - 1, int(q * count))], normal.inv_cdf(q))
        for q in _QUANTILE_LEVELS)
    median = zs[count // 2]
    return CltReport(config.depth, config.trials, count, uncertified, ks,
                     median, quantiles)
