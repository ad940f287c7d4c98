"""Seeded Monte Carlo verification of the digit limit theorems.

Sampling is exact in law, by the one-digit coupling: with U uniform on
(0, 1] and independent of the past, b' = floor((b + z)/U - z) and
z' = b'/(b' + z) are the next digit and its state, from b = 1, z = 0
(b' = k holds for (b + z)/(k + 1 + z) < U <= (b + z)/(k + z), an interval
as long as the digit's conditional probability).  A uniform is known only
to the dyadic cell of its bits, so a trial is an enclosure of its digits,
not a point.

The float walk carries the enclosures [b_lo, b_hi] and [z_lo, z_hi] of a
block of trials, stacked [lo; hi], through the coupling in float64, and
widens each rounding by one float, +-1 on its int64 bits (Rump, BIT 39, 1999).
X = (b + z)/U - z increases in b and z and decreases in U, and z' increases
in b' and decreases in z, so each end takes one end of every input; U's
cell is the top min(B, 53) bits of its word.  An event lo <= b_n <= hi is
decided when b_n's enclosure lies inside the range or outside it.  A trial
that the floats leave undecided (its enclosure straddles lo or hi, or is
not finite) is refined, never dropped: the exact path redoes its digits in
integers, refining each U up to B = SampleConfig.bits bits (64 n unless
given, one word a digit), and the trial is uncertified for the event only
if B bits leave one of b_1..b_n open.

Every bit is a pure function of (seed, trial, digit): the words come from
Philox4x64-10 (Salmon et al., SC 2011), computed here on numpy uint64
counter arrays under key [seed, 0], as RNG_ALGORITHM records.  Digit n of
trial i reads word (n - 1) mod 4 of the block at counter [ceil(n/4), i, 0,
0]; the exact path refines that U with the blocks at [j, i, n, 0], j >= 1.
So every report is a deterministic function of its SampleConfig, whatever
the block size.

lln_report and clt_report share one cached pass (_final_logs, the last
config only) and read log b_n from b_lo where b_hi - b_lo <= b_lo 2^-30,
else from the exact path, as every trial past 2^1024 is: there the floats
give b_hi = inf, a true upper end, and b_lo the largest float or less; that
costs about 5 s per trial at depth 760.

An event is a range of one digit, lo <= b_n <= hi (hi None for no upper
end); tail_counts answers many of them from one pass, and estimate_event
one.  Uncertified trials are left out of the point estimate p_hat, which
is hits over certified trials, and always reported.  The confidence
bracket is taken over all trials, as if none of the uncertified trials
were a hit at its lower end and all of them were at its upper end, so
trials that could not be decided cannot bias it.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numerics import interval_exp, interval_log

RNG_ALGORITHM = ("philox4x64-10 (key [seed, 0]; digit n of trial i: word (n-1) mod 4 of the "
                 "block at counter [ceil(n/4), i, 0, 0], refined by the blocks at [j, i, n, 0])")
CONFIDENCE = Fraction(99, 100)  # level of every Clopper-Pearson interval


class SampleLimitError(RuntimeError):
    """A run hit a limit of its sample or precision: too few certified
    trials or hits, or a tail threshold beyond 2048 bits."""


def default_bits(depth: int) -> int:
    """B = 64 n, one 64-bit word per digit of depth: the resolution of each
    uniform unless given.

    The float walk reads 53 bits of each, and the exact path starts from a
    whole word.  A uniform's cell of 2^-B straddles a boundary of the next
    digit with probability about 2^-B b/U^2, and log2 b_n ~ 1.44 n, so the
    default leaves a digit open at no depth, depth 1 included."""
    return 64 * depth


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    trials: int
    depth: int
    bits: int | None = None   # B: each uniform is known to 2^-B, 64 depth if None

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


@dataclass(frozen=True, slots=True)
class EventEstimate:
    hits: int
    trials: int          # certified trials only, the denominator of p_hat
    ci_lo: Fraction      # 99% Clopper-Pearson over all trials, no uncertified hit
    ci_hi: Fraction      # the same, every uncertified trial a hit
    uncertified: int

    @property
    def p_hat(self) -> Fraction:
        """The point estimate: hits over certified trials."""
        return Fraction(self.hits, self.trials)

    def __post_init__(self):
        if not self.ci_lo <= self.p_hat <= self.ci_hi:
            raise ValueError("confidence bounds must bracket the estimate")


# ---------------------------------------------------------------------------
# The sampler: counter-keyed words, the float walk and the exact path
# ---------------------------------------------------------------------------

_BLOCK = 1 << 13             # trials per float walk
_COUNTERS = 1 << 16          # Philox counters per call, at most
_FLOAT_BITS = 53             # bits of each uniform that the float walk reads, at most
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # key increments
_LOW32 = 0xFFFFFFFF
_INF_BITS, _ONE_BITS = 0x7FF0000000000000, 0x3FF0000000000000   # int64 bits of +inf, 1.0


def _mulhilo(a, m: int):
    """The high and low 64-bit words of a * m, for a uint64 array a, from
    32-bit halves: the middle sum stays below 2^64."""
    import numpy as np

    m_lo, m_hi, low, half = (np.uint64(v) for v in (m & _LOW32, m >> 32, _LOW32, 32))
    a_lo, a_hi = a & low, a >> half
    lo_lo, hi_lo = a_lo * m_lo, a_hi * m_lo
    middle = (lo_lo >> half) + (hi_lo & low) + a_lo * m_hi
    return a_hi * m_hi + (hi_lo >> half) + (middle >> half), a * np.uint64(m)


def _philox(seed: int, c0, c1, c2) -> tuple:
    """The Philox4x64-10 blocks at counters [c0, c1, c2, 0] under key
    [seed, 0], for uint64 arrays c0, c1 and c2 of one shape: four arrays,
    word 0 first, the words numpy.random.Philox(key=seed) gives."""
    import numpy as np

    c3 = np.zeros_like(c1)
    k0, k1 = seed, 0
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) % 2**64, (k1 + _PHILOX_W[1]) % 2**64
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return c0, c1, c2, c3


@functools.lru_cache(maxsize=1)
def _down_up(count: int):
    """The int64 step [[-1] * count, [1] * count]: row 0 down, row 1 up; shared."""
    import numpy as np

    return np.repeat(np.array([[-1], [1]]), count, axis=1)


def _outward(a, step, cap: int = _INF_BITS):
    """a moved in place one float along the int64 step, capped at the float
    whose bits are cap: on positive floats and +inf, int64 order is float
    order (IEEE 754), so +inf - 1 is the largest float, as nextafter gives;
    from +0 a step down gives a NaN, not the least negative subnormal."""
    import numpy as np

    bits = a.view(np.int64)
    bits += step
    np.minimum(bits, cap, out=bits)
    return a


def _float_step(b, z, u):
    """The enclosures of b' and z' from those of b, z and U, each rounded
    operation widened outward by one float step; b' >= b bounds b'_lo.

    b and z are stacked [lo; hi], U swapped, [u_hi; u_lo], so each row of
    X = (b + z)/U - z reads the ends it needs.  Every widened value is
    positive or +inf, as _outward needs: b >= 1, U in (0, 1], z in (0, 1]
    after step 1, and b_lo stays below the largest float, so z_lo > 0.
    """
    import numpy as np

    down_up = _down_up(b.shape[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # X may be inf
        x = _outward(b + z, down_up)
        _outward(np.divide(x, u, out=x), down_up)
        _outward(np.subtract(x, z, out=x), down_up)
        b_next = np.floor(x, out=x)
        np.maximum(b_next[0], b[0], out=b_next[0])
        z_next = _outward(b_next + z[::-1], down_up[::-1])
        _outward(np.divide(b_next, z_next, out=z_next), down_up, _ONE_BITS)
    return b_next, z_next


def _digit_words(seed: int, index, depth: int):
    """The word of each digit n = 1, ..., 4 ceil(depth/4) of the trials
    `index` (a uint64 array), one array per digit: several blocks of every
    trial come from one Philox call, on at most _COUNTERS counters."""
    import numpy as np

    count, blocks = len(index), -(-depth // 4)
    span = max(1, _COUNTERS // count)   # blocks per call
    for first in range(1, blocks + 1, span):
        taken = min(span, blocks + 1 - first)
        c0 = np.repeat(np.arange(first, first + taken, dtype=np.uint64), count)
        words = _philox(seed, c0, np.tile(index, taken), np.zeros_like(c0))
        for block in range(taken):
            yield from (word[block * count:(block + 1) * count] for word in words)


def _float_walk(seed: int, first: int, count: int, depth: int, bits: int):
    """(n, b_lo, b_hi, z_lo, z_hi) for n = 1..depth: the float enclosures
    of trials first, ..., first + count - 1, one array element per trial."""
    import numpy as np

    index = np.arange(first, first + count, dtype=np.uint64)
    read = min(bits, _FLOAT_BITS)
    shift, scale = np.uint64(64 - read), 2.0**-read
    b, z, u_rows = np.ones((2, count)), np.zeros((2, count)), np.array([[1.0], [0.0]])
    for n, word in zip(range(1, depth + 1), _digit_words(seed, index, depth)):
        b, z = _float_step(b, z, ((word >> shift).astype(np.float64) + u_rows) * scale)
        yield n, b[0], b[1], z[0], z[1]


def _coupled_digit(b: int, num: int, den: int, k: int, m: int) -> int | None:
    """floor((b + z)/U - z), z = num/den, when it is one integer for every U
    in the cell [k/2^m, (k + 1)/2^m], else None: X decreases in U, so it is
    when the floor is the same at the cell's two ends."""
    if not k:
        return None   # the cell touches 0, where X is unbounded
    top = (b * den + num) << m
    digit = (top - num * (k + 1)) // (den * (k + 1))
    return digit if (top - num * k) // (den * k) == digit else None


def _exact_digits(seed: int, index: int, depth: int, bits: int) -> list[int]:
    """b_1, ..., b_depth of trial `index` in integers, up to the first digit
    that B = bits bits of its uniform leave undecided.

    U starts as its word (the top B bits when B < 64); while the digit is
    undecided, the 256 bits of each further block [j, index, n, 0] refine
    the cell, most significant word first, until it has B bits.  The state
    z = num/den is kept exactly: z' = b' den/(b' den + num).
    """
    import numpy as np

    trial = np.array([index], dtype=np.uint64)
    digits = []
    b, num, den = 1, 0, 1
    for n, word in zip(range(1, depth + 1), _digit_words(seed, trial, depth)):
        m = min(bits, 64)
        k, j = int(word[0]) >> (64 - m), 0
        while (digit := _coupled_digit(b, num, den, k, m)) is None:
            if m == bits:
                return digits
            j += 1
            block = _philox(seed, np.array([j], dtype=np.uint64), trial,
                            np.array([n], dtype=np.uint64))
            take = min(256, bits - m)
            extra = functools.reduce(lambda acc, word: acc << 64 | int(word[0]), block, 0)
            k, m = k << take | extra >> (256 - take), m + take
        digits.append(digit)
        b, num, den = digit, digit * den, digit * den + num
    return digits


def _float_end(k: int | None, toward: float) -> float:
    """The float next to the integer k on the side of toward: the least
    float >= k for inf, the greatest float <= k for -inf, past the float
    range too; inf for None, no upper end."""
    if k is None:
        return math.inf
    try:
        f = float(k)
    except OverflowError:
        f = math.inf if k > 0 else -math.inf
    return f if (f >= k if toward > 0 else f <= k) else math.nextafter(f, toward)


def _range_counts(config: SampleConfig, events: Sequence[tuple[int, int, int | None]]
                  ) -> tuple[list[int], list[int]]:
    """Hits and certified trials of each event (n, lo, hi), lo <= b_n <= hi
    with hi None for no upper end, from one walk to the deepest n.

    b_n's float enclosure is compared with the least float >= lo and the
    greatest float <= hi, which decides it exactly as lo and hi would; the
    trials it leaves undecided go to the exact path, once per trial.
    """
    import numpy as np

    depth = max((n for n, _, _ in events), default=0)
    at = {}   # position -> (event, lo, hi) with float ends
    for j, (n, lo, hi) in enumerate(events):
        at.setdefault(n, []).append((j, _float_end(lo, math.inf), _float_end(hi, -math.inf)))
    hits, certified = [0] * len(events), [0] * len(events)
    for first in range(0, config.trials, _BLOCK):
        count = min(_BLOCK, config.trials - first)
        undecided = {}   # trial index -> the events its enclosure leaves open
        for n, b_lo, b_hi, _, _ in _float_walk(config.seed, first, count, depth, config.bits):
            for j, lo, hi in at.get(n, ()):
                hit = (lo <= b_lo) & (b_hi <= hi)
                open_ = ~(hit | (b_hi < lo) | (hi < b_lo))
                hits[j] += int(np.count_nonzero(hit))
                certified[j] += count - int(np.count_nonzero(open_))
                for i in np.flatnonzero(open_).tolist():
                    undecided.setdefault(first + i, []).append(j)
        for index, open_events in undecided.items():
            digits = _exact_digits(config.seed, index, depth, config.bits)
            for j in open_events:
                n, lo, hi = events[j]
                if n <= len(digits):
                    certified[j] += 1
                    hits[j] += lo <= digits[n - 1] and (hi is None or digits[n - 1] <= hi)
    return hits, certified


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


def _window(n: int, h: int, p: float, q: float) -> tuple[float, float, int]:
    """The terms t_h, t_{h+1}, ..., t_j of P(Bin(n, p) >= h), relative to t_h.

    Assumes p <= h / n, which every caller keeps: then rho_j = (n - j) p /
    ((j + 1) q) <= h / (h + 1) < 1 for every j >= h.  t_{j+1} = t_j rho_j
    with rho_j decreasing in j, so the terms past j sum to at most
    t_j rho_j / (1 - rho_j); the walk stops when that is below _WINDOW_EPS
    of the sum.  Returns (sigma, last, j): the float sum of the kept terms,
    the last one and its index, after 5 (j - h) roundings.
    """
    pq = p / q
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
    s, near, far = (h, q, p) if h <= n - h else (n - h, p, q)
    t = _power(near, n)
    if t >= _TINY:
        ratio = far / near
        for j in range(s):
            t *= (n - j) * ratio / (j + 1)
        return (Fraction(t), n - 1 + 4 * s) if t >= _TINY else None
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

    Assumes K / 2^53 <= h / n, as _window does, so the geometric ratio rho
    of the remainder is below 1.  The float sum of the window is certified
    a posteriori: it uses only multiplications, divisions and additions of
    positive normal floats, so with m roundings in all it is within a factor
    1 + gamma_m, gamma_m = m u / (1 - m u), u = 2^-53, of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1).
    The bound adds the geometric remainder and is evaluated in exact
    rationals.  None means a term fell below _TINY or m u reached 1/2.
    """
    start = _start_term(n, h, big_k)
    if start is None:
        return None
    t, m = start
    sigma, last, j = _window(n, h, big_k / _GRID, (_GRID - big_k) / _GRID)
    m += 5 * (j - h)
    if last < _TINY or 2 * m >= _GRID:
        return None
    # sigma + last rho / (1 - rho) as the integer ratio num / den
    num, den = sigma.as_integer_ratio()
    if j < n:
        rho_num, rho_den = (n - j) * big_k, (j + 1) * (_GRID - big_k)
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
        sigma, last, j = _window(n, h, p, q)
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
    """The certified lower endpoint for h hits in n trials: 0 for h = 0.

    Else the Newton candidate is moved outward on the grid of K / 2^53, by at
    least one grid step and min(K, 2^53 - K) 2^-30, until _tail_bound
    certifies P(Bin(n, K / 2^53) >= h) <= 1/200; each retry moves 16 times
    further.
    """
    if not h:
        return Fraction(0)
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
    return _lower_endpoint(hits, trials), _upper_endpoint(hits, trials)


def _upper_endpoint(h: int, n: int) -> Fraction:
    """The certified upper endpoint for h hits in n trials: 1 for n hits."""
    return 1 - _lower_endpoint(n - h, n)


def _estimate_from_counts(hits: int, certified: int, uncertified: int) -> EventEstimate:
    """The estimate of hits among certified trials, bracketed over all trials.

    An uncertified trial may be a hit or not, so the bracket is the lower
    Clopper-Pearson end with none of them a hit and the upper end with all
    of them hits, each over all certified + uncertified trials: it holds
    clopper_pearson(h, N) for every h from hits to hits + uncertified.
    With no uncertified trial it is clopper_pearson(hits, certified).
    """
    if certified == 0:
        raise SampleLimitError("no trial certified enough digits; raise bits")
    trials = certified + uncertified
    return EventEstimate(hits, certified, _lower_endpoint(hits, trials),
                         _upper_endpoint(hits + uncertified, trials), uncertified)


def _range_estimates(config: SampleConfig,
                     events: Sequence[tuple[int, int, int | None]]) -> list[EventEstimate]:
    """The estimate of each event (n, lo, hi), lo <= b_n <= hi with hi None
    for no upper end, from one pass: one estimate, and so one Clopper-Pearson
    interval, per distinct count pair."""
    hits, certified = _range_counts(config, events)
    by_counts = {(h, c): _estimate_from_counts(h, c, config.trials - c)
                 for h, c in dict.fromkeys(zip(hits, certified))}
    return [by_counts[h, c] for h, c in zip(hits, certified)]


def estimate_event(config: SampleConfig, n: int, lo: int, hi: int | None = None) -> EventEstimate:
    """Empirical frequency of the event lo <= b_n <= hi (hi None: b_n >= lo).

    Trials whose certified prefix stops before b_n count as uncertified.
    """
    if not 1 <= n <= config.depth:
        raise ValueError(f"digit position {n} is outside 1..{config.depth}, the sampled depth")
    (estimate,) = _range_estimates(config, [(n, lo, hi)])
    return estimate


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
    if w <= 0:  # lower tail only (eps >= 0): b <= 1 at w = 0, and b <= e^w < 1 never
        return int(w == 0)
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
    events = [(r.n, tail_threshold(r), None) if r.tail == UPPER else (r.n, 1, tail_threshold(r))
              for r in requests]
    return dict(zip(requests, _range_estimates(config, events)))


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
    slope, intercept = statistics.linear_regression(
        [n for n, _ in fit], [-math.log(e.p_hat) for _, e in fit])
    return LdpReport(eps, tail, tuple(rows), slope, intercept)


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
def _final_logs(config: SampleConfig) -> tuple[float, ...]:
    """log b_n, n = depth, of every certified trial, in trial order.

    The lower end of b_n's float enclosure where b_hi - b_lo <= b_lo 2^-30,
    else the exact path's b_n.  The mean reports of one config share this
    pass: the cache holds the values of the last config only (one float
    per certified trial), so lln_report and clt_report on the same config
    walk it once, in either order, and a different config walks anew.  The
    remaining config.trials - len(logs) trials are uncertified.
    """
    logs = []
    for first in range(0, config.trials, _BLOCK):
        count = min(_BLOCK, config.trials - first)
        for _, b_lo, b_hi, _, _ in _float_walk(config.seed, first, count, config.depth,
                                               config.bits):
            pass
        narrow = (b_hi - b_lo <= b_lo * 2.0**-30).tolist()   # false for b_hi = inf
        for i, (low, decided) in enumerate(zip(b_lo.tolist(), narrow)):
            if not decided:
                digits = _exact_digits(config.seed, first + i, config.depth, config.bits)
                if len(digits) < config.depth:
                    continue
                low = digits[-1]
            logs.append(math.log(low))
    if not logs:
        raise SampleLimitError("no trial certified enough digits; raise bits")
    return tuple(logs)


def lln_report(config: SampleConfig) -> LlnReport:
    values = [log / config.depth for log in _final_logs(config)]
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    return LlnReport(config.depth, config.trials, len(values),
                     config.trials - len(values), statistics.fmean(values), spread)


_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def clt_report(config: SampleConfig) -> CltReport:
    normal = statistics.NormalDist()
    scale = math.sqrt(config.depth)
    zs = sorted((log - config.depth) / scale for log in _final_logs(config))
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
