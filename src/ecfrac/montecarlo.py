"""Seeded Monte Carlo verification of the digit limit theorems.

Sampling is exact: each trial draws k uniformly from [0, 2^B) and
samples the dyadic cell [k/2^B, (k+1)/2^B]; the digit statistics are
computed from the prefix that every point of the cell shares, so no
floating-point drift can corrupt a digit.  A cell is certified when it lies
inside one open depth-n cylinder: its lower end is walked, one divmod per
digit, and its upper end is carried through the same Möbius map and tested
against the cylinder's image (0, 1/b_n).  The certificate is tried on the
coarse cells of k's top bits at two precisions derived from the depth, then
on all B bits; a cell that certifies nowhere gets its exact partial prefix
from the lockstep walk of expansion.expand_interval.

Trials are keyed by (seed, index) through a counter-based generator
(numpy Philox4x64, recorded as the algorithm name in reports): one bit
generator per pass, keyed by the seed; trial i starts at counter
[0, i, 0, 0], so no two trials read the same 256-bit block.  Trials are
independent, and every report is a deterministic function of its
SampleConfig.

One pass per config: lln_report and clt_report read the final digits b_n
of the trials from one cached pass (_final_digits), which holds the last
config's finals only, one int per certified trial.  tail_counts answers
many tail events from its own single pass.

Uncertified trials (cell not inside one open depth-n cylinder) are excluded
from both numerator and denominator but always reported.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .expansion import CertifiedExpansion, _lockstep_walk
from .numerics import interval_exp, interval_log

RNG_ALGORITHM = "philox4x64 (numpy.random.Philox, key=seed, counter word 1=trial index)"
CONFIDENCE = Fraction(99, 100)  # level of every Clopper-Pearson interval


class SampleLimitError(RuntimeError):
    """A run hit a limit of its sample or precision: too few certified
    trials or hits, or a tail threshold beyond 2048 bits."""


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
    ci_lo: Fraction      # 99% Clopper-Pearson, certified
    ci_hi: Fraction
    uncertified: int

    def __post_init__(self):
        if not self.ci_lo <= self.p_hat <= self.ci_hi:
            raise ValueError("confidence bounds must bracket the estimate")


def _cell_indices(config: SampleConfig) -> Iterator[int]:
    """The draw k of every trial, in index order, from one generator per pass.

    Trial i sets the Philox counter to [0, i, 0, 0] with an empty buffer,
    so it reads the blocks at counters [1, i, 0, 0], [2, i, 0, 0], ...
    (Philox increments word 0 before it encrypts), and keeps the low B bits
    of ceil(B/64) raw words taken little-endian.  No two trials share a
    block: with the index in word 0, trial i+1 would re-read all but the
    first of trial i's blocks.
    """
    bitgen = np.random.Philox(key=config.seed)
    state = bitgen.state
    counter = state["state"]["counter"]
    words = -(-config.bits // 64)
    mask = (1 << config.bits) - 1
    for index in range(config.trials):
        counter[1] = index
        state["buffer_pos"] = len(state["buffer"])
        bitgen.state = state
        yield int.from_bytes(bitgen.random_raw(words).tobytes(), "little") & mask


def _walk_schedule(depth: int, bits: int) -> tuple[int, ...]:
    """Coarse precisions to certify before the full B bits.

    A cell certifies `depth` digits from about 0.72 depth^2 bits on (the
    median); the two rungs sit above that, and a rung at or past B is
    skipped.
    """
    need = 18 * depth * depth // 25
    return tuple(b for b in (4 * need // 3, 9 * need // 5) if b < bits)


def _cell_certificate(p: int, q: int, depth: int) -> list[int] | None:
    """The `depth` digits of the cell [p/q, (p+1)/q] when it lies inside one
    open depth-`depth` cylinder, else None.

    Only the lower end is walked, one divmod per digit: d, r = divmod(q, p),
    then (p, q) <- (r, q - r) = (r, d p).  The upper end, (p + a)/(q + c) in
    the walked coordinates, goes through the same linear digit map,
    (a, c) <- (c - d a, d a), from (1, 0).  The composed digit maps are one
    Möbius map, a bijection of the projective line that sends the open
    cylinder of the walked digits, and nothing else, onto (0, 1/b_n).  So
    the lower end lies in that cylinder when no remainder is 0, and the
    upper end when P = p + a, Q = q + c satisfy 0 < P/Q < 1/b_n; the
    cylinder is an interval, so the whole cell lies in it.  This holds
    exactly when _lockstep_walk(p, q, p + 1, q, depth) returns
    (digits, True).
    """
    if p == 0:
        return None
    a, c = 1, 0
    digits = []
    for _ in range(depth):
        d, r = divmod(q, p)
        if not r:
            return None
        digits.append(d)
        da = d * a
        p, q, a, c = r, q - r, c - da, da
    big_p, big_q = p + a, q + c
    b = digits[-1]
    if (0 < big_p and b * big_p < big_q) or (big_p < 0 and big_q < b * big_p):
        return digits
    return None


def _cell_prefix(k: int, bits: int, depth: int) -> tuple[list[int], bool]:
    """(digits, truncated) of the cell [k/2^B, (k+1)/2^B], certified coarse first.

    The coarse cell [K/2^b, (K+1)/2^b], K = k >> (B-b), contains the drawn
    cell, so when it lies inside one open depth-n cylinder the drawn cell
    does too, with the same digits.  _cell_certificate is tried on each
    rung, last on all B bits; it accepts exactly when the lockstep walk
    would return truncated=True.  Only a cell that certifies nowhere is
    walked by _lockstep_walk, for its exact partial prefix.
    """
    for b in _walk_schedule(depth, bits) + (bits,):
        digits = _cell_certificate(k >> (bits - b), 1 << b, depth)
        if digits is not None:
            return digits, True
    den = 1 << bits
    return _lockstep_walk(k, den, k + 1, den, depth)


def _digit_stream(config: SampleConfig) -> Iterator[tuple[list[int], bool]]:
    """(certified digit prefix of length <= depth, truncated), one per trial.

    A trial that draws k samples the cell [k/2^B, (k+1)/2^B]; the cell at
    k = 0 touches 0 and certifies no digit.  Trials are independent functions
    of (seed, index), and the aggregations below are exact integer counters,
    independent of order.
    """
    for k in _cell_indices(config):
        yield _cell_prefix(k, config.bits, config.depth)


# ---------------------------------------------------------------------------
# Certified Clopper-Pearson endpoints
# ---------------------------------------------------------------------------

_HALF_ALPHA = (1 - CONFIDENCE) / 2   # each tail of the interval: 1/200
_GRID = 2**53                         # endpoints are K / 2^53, so 1 - p is a float too
_TINY = 2.0**-1000                    # every float of a certified sum stays above this
_WINDOW_EPS = 2.0**-40                # a window stops once its remainder is this small
_LOG_2PI_LO = Fraction(18378770664093454, 10**16)   # just below log(2 pi)
_OUTWARD_SHIFTS = (30, 26, 22, 18, 14, 10, 6, 2)    # tries: K -= min(K, 2^53 - K) >> shift
_Z = statistics.NormalDist().inv_cdf(float(1 - _HALF_ALPHA))


def _power(x: float, n: int) -> float:
    """x^n by repeated squaring: n - 1 roundings at most (all multiplications)."""
    result = 1.0
    while n:
        if n & 1:
            result *= x
        n >>= 1
        if n:
            x *= x
    return result


def _window(n: int, h: int, p: float, q: float) -> tuple[float, float, int] | None:
    """The terms t_h, t_{h+1}, ..., t_j of P(Bin(n, p) >= h), relative to t_h.

    t_{j+1} = t_j rho_j with rho_j = (n - j) p / ((j + 1) q), decreasing in j,
    so once rho_j < 1 the terms past j sum to at most t_j rho_j / (1 - rho_j);
    the walk stops when that is below _WINDOW_EPS of the sum.  Returns
    (sigma, last, j): the float sum of the kept terms, the last one and its
    index, after 5 (j - h) roundings; None when rho_h > 1 (the mode lies past
    h, so the tail is at least about 1/2).
    """
    pq = p / q
    if (n - h) * pq > h + 1:
        return None
    sigma = last = 1.0
    ahead, behind = float(n - h), float(h + 1)   # n - j and j + 1, exact
    while ahead:
        r = ahead * pq / behind
        if last * r <= _WINDOW_EPS * (1 - r) * sigma:
            break
        last *= r
        sigma += last
        ahead -= 1.0
        behind += 1.0
    return sigma, last, n - int(ahead)


def _start_term(n: int, h: int, big_k: int) -> tuple[Fraction, int] | None:
    """(t, m) with C(n, h) p^h q^(n-h) <= t / (1 - gamma_m), p = K / 2^53.

    From the nearer end of the support while its term, q^n or p^n, is a
    normal float: repeated squaring, then h or n - h steps of the ratio
    recurrence at 4 roundings each.  The terms in between are log-concave,
    so none is below both ends.  Past that, t is an exact upper bound from
    Robbins' Stirling bounds, 1/(12k + 1) < log k! - log(sqrt(2 pi) k^(k+1/2)
    e^-k) < 1/(12k), and m = 0.
    """
    p, q = big_k / _GRID, (_GRID - big_k) / _GRID
    if h <= n - h:
        t = _power(q, n)
        if t >= _TINY:
            pq = p / q
            for j in range(h):
                t *= (n - j) * pq / (j + 1)
            return (Fraction(t), n - 1 + 4 * h) if t >= _TINY else None
    else:
        t = _power(p, n)
        if t >= _TINY:
            qp = q / p
            for j in range(n, h, -1):
                t *= j * qp / (n - j + 1)
            return (Fraction(t), n - 1 + 4 * (n - h)) if t >= _TINY else None
    if not 0 < h < n:
        return None
    log_t = (h * interval_log(Fraction(n * big_k, h * _GRID))
             + (n - h) * interval_log(Fraction(n * (_GRID - big_k), (n - h) * _GRID))
             + interval_log(Fraction(n, h * (n - h))) / 2
             + (Fraction(1, 12 * n) - Fraction(1, 12 * h + 1)
                - Fraction(1, 12 * (n - h) + 1) - _LOG_2PI_LO / 2))
    return interval_exp(log_t).hi, 0


def _tail_bound(n: int, h: int, big_k: int) -> Fraction | None:
    """An upper bound on P(Bin(n, K / 2^53) >= h), or None if none is found.

    The float sum of the window is certified a posteriori: it uses only
    multiplications, divisions and additions of positive normal floats, so
    with m roundings in all it is within a factor 1 + gamma_m, gamma_m =
    m u / (1 - m u), u = 2^-53, of the exact sum (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1).  The bound adds the
    geometric remainder and is evaluated in exact rationals.
    """
    p, q = big_k / _GRID, (_GRID - big_k) / _GRID
    window = _window(n, h, p, q)
    start = _start_term(n, h, big_k) if window else None
    if start is None:
        return None
    (sigma, last, j), (t, m) = window, start
    m += 5 * (j - h)
    if last < _TINY or 2 * m >= _GRID:
        return None
    # sigma + last rho / (1 - rho) as the integer ratio num / den
    num, den = sigma.as_integer_ratio()
    if j < n:
        rho_num, rho_den = (n - j) * big_k, (j + 1) * (_GRID - big_k)
        if rho_num >= rho_den:
            return None
        last_num, last_den = last.as_integer_ratio()
        num, den = (num * last_den * (rho_den - rho_num) + last_num * rho_num * den,
                    den * last_den * (rho_den - rho_num))
    t_num, t_den = t.as_integer_ratio()
    return Fraction(t_num * num * (_GRID - m), t_den * den * (_GRID - 2 * m))  # / (1 - gamma_m)


def _log_comb(n: int, h: int) -> float:
    """log C(n, h) in floats: of the exact integer while min(h, n - h) <= 64,
    else from lgamma, whose cancellation costs about n u absolute."""
    if min(h, n - h) <= 64:
        return math.log(math.comb(n, h))
    return math.lgamma(n + 1) - math.lgamma(h + 1) - math.lgamma(n - h + 1)


def _lower_candidate(h: int, n: int) -> float:
    """A float p with P(Bin(n, p) >= h) about 1/200, 1 <= h <= n.

    Newton's method on log P(Bin(n, e^x) >= h) in x = log p, a concave
    increasing function (the log of a Beta(h, n - h + 1) variable has a
    log-concave density), so after one step the iterates climb to the root
    from below.  The start is the continuity-corrected Wilson bound, the
    normal approximation; at h = n the root is p = (1/200)^(1/n).
    """
    target = math.log(_HALF_ALPHA)
    if h == n:
        return math.exp(target / n)
    x = h - 0.5
    p = (x + _Z * _Z / 2 - _Z * math.sqrt(x * (1 - x / n) + _Z * _Z / 4)) / (n + _Z * _Z)
    p = min(max(p, 1 / _GRID), h / n)
    log_comb = _log_comb(n, h)
    for _ in range(64):
        q = 1 - p
        window = _window(n, h, p, q)
        if window is None:
            p /= 2
            continue
        sigma, last, j = window
        if j < n:
            r = (n - j) * p / ((j + 1) * q)
            sigma += last * r / (1 - r)
        log_tail = log_comb + h * math.log(p) + (n - h) * math.log1p(-p) + math.log(sigma)
        step = (log_tail - target) * sigma / h
        # A step of s leaves an error of about s^2 times a modest factor,
        # relative to min(p, q) as the endpoint is.
        converged = abs(step) * max(1, p / q) < 2.0**-20
        p = min(p * math.exp(-step), h / n)
        if converged:
            break
    return p


def _lower_endpoint(h: int, n: int) -> Fraction:
    """The certified lower endpoint for h hits in n trials, 1 <= h <= n.

    The Newton candidate is moved outward on the grid of K / 2^53, by at
    least one grid step and min(K, 2^53 - K) 2^-30, until _tail_bound
    certifies P(Bin(n, K / 2^53) >= h) <= 1/200; each retry moves 16 times
    further.
    """
    big_k = math.floor(_lower_candidate(h, n) * _GRID)
    for shift in _OUTWARD_SHIFTS:
        big_k -= max(1, min(big_k, _GRID - big_k) >> shift)
        if big_k <= 0:
            return Fraction(0)
        bound = _tail_bound(n, h, big_k)
        if bound is not None and bound <= _HALF_ALPHA:
            return Fraction(big_k, _GRID)
    raise SampleLimitError(f"no certified Clopper-Pearson endpoint for {h} hits in {n} trials")


def clopper_pearson(hits: int, trials: int) -> tuple[Fraction, Fraction]:
    """Exact binomial CI at level CONFIDENCE, with certified rational endpoints.

    lo and hi satisfy P(Bin(N, lo) >= h) <= 1/200 and P(Bin(N, hi) <= h)
    <= 1/200; the upper end is the lower end of the mirrored count,
    hi(h, N) = 1 - lo(N - h, N).  Each end is a Newton candidate in floats,
    moved outward on the grid K / 2^53 until a float sum of the binomial
    tail, bounded a posteriori by gamma_m for its m roundings, certifies it
    in exact rationals; an end that does not certify after eight tries
    raises SampleLimitError.
    """
    if not 0 <= hits <= trials or trials < 1:
        raise ValueError("need 0 <= hits <= trials, trials >= 1")
    lo = _lower_endpoint(hits, trials) if hits else Fraction(0)
    hi = 1 - _lower_endpoint(trials - hits, trials) if hits < trials else Fraction(1)
    return lo, hi


def _estimate_from_counts(hits: int, certified: int, uncertified: int) -> EventEstimate:
    if certified == 0:
        raise SampleLimitError("no trial certified enough digits; raise bits")
    ci_lo, ci_hi = clopper_pearson(hits, certified)
    return EventEstimate(hits, certified, Fraction(hits, certified), ci_lo, ci_hi,
                         uncertified)


def estimate_event(config: SampleConfig,
                   event: Callable[[CertifiedExpansion], Optional[bool]]) -> EventEstimate:
    """Empirical frequency of an event decided from certified digits.

    The predicate receives a trial's CertifiedExpansion and may return None
    when the certified prefix cannot decide the event; such trials count
    as uncertified.
    """
    hits = certified = uncertified = 0
    for prefix, truncated in _digit_stream(config):
        expansion = CertifiedExpansion(tuple(prefix), truncated)
        verdict = event(expansion)
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
    raise SampleLimitError(f"could not separate e^{w} from an integer at 2048 bits")


def tail_counts(config: SampleConfig,
                requests: Sequence[TailRequest]) -> dict[TailRequest, EventEstimate]:
    """Estimates for many tail events from one shared pass over the trials."""
    requests = list(dict.fromkeys(requests))
    if any(r.n > config.depth for r in requests):
        raise ValueError("request depth exceeds config.depth")
    # (position of b_n in the prefix, threshold, upper tail?) per request
    events = [(r.n - 1, tail_threshold(r), r.tail == UPPER) for r in requests]
    hits = [0] * len(events)
    certified = [0] * len(events)
    for prefix, _ in _digit_stream(config):
        have = len(prefix)
        for j, (position, threshold, upper) in enumerate(events):
            if position < have:
                certified[j] += 1
                b = prefix[position]
                if (b >= threshold) if upper else (b <= threshold):
                    hits[j] += 1
    # One estimate, and so one Clopper-Pearson interval, per distinct count pair.
    by_counts = {(h, c): _estimate_from_counts(h, c, config.trials - c)
                 for h, c in dict.fromkeys(zip(hits, certified))}
    return {r: by_counts[h, c] for r, h, c in zip(requests, hits, certified)}


@dataclass(frozen=True)
class LdpRow:
    n: int
    estimate: EventEstimate
    rate: float | None       # -(1/n) log p_hat; None when p_hat = 0


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
        rows.append(LdpRow(n, est, rate))
    fit = [(r.n, r.estimate) for r in rows if r.estimate.hits > 0]
    if len(fit) < 2:
        raise SampleLimitError("need at least two n with hits to fit a slope")
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


@functools.lru_cache(maxsize=1)
def _final_digits(config: SampleConfig) -> tuple[int, ...]:
    """b_n of every trial that certifies n = depth digits, in trial order.

    The mean reports of one config share this pass: the cache holds the
    finals of the last config only (one int per certified trial), so
    lln_report and clt_report on the same config walk its cells once, in
    either order, and a different config walks anew.  The remaining
    config.trials - len(finals) trials are uncertified.
    """
    finals = tuple(prefix[-1] for prefix, _ in _digit_stream(config)
                   if len(prefix) == config.depth)
    if not finals:
        raise SampleLimitError("no trial certified enough digits; raise bits")
    return finals


def lln_report(config: SampleConfig) -> LlnReport:
    values = [math.log(b) / config.depth for b in _final_digits(config)]
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    return LlnReport(config.depth, config.trials, len(values),
                     config.trials - len(values), statistics.fmean(values), spread)


_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def clt_report(config: SampleConfig) -> CltReport:
    normal = statistics.NormalDist()
    scale = math.sqrt(config.depth)
    zs = sorted((math.log(b) - config.depth) / scale for b in _final_digits(config))
    count = len(zs)
    ks = 0.0
    for i, z in enumerate(zs):
        cdf = normal.cdf(z)
        ks = max(ks, abs((i + 1) / count - cdf), abs(cdf - i / count))
    quantiles = tuple(
        (q, zs[min(count - 1, int(q * count))], normal.inv_cdf(q))
        for q in _QUANTILE_LEVELS)
    median = zs[count // 2]
    return CltReport(config.depth, config.trials, count, config.trials - count, ks,
                     median, quantiles)
