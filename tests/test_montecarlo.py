"""Reproducible sampling, the coupling engine, tail estimates."""

import hashlib
import math
import random
import sys
import warnings
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecfrac import montecarlo
from ecfrac.checks import MC_SEED_MEAN, MC_SEED_TAILS, TAIL_N_LOWER, TAIL_N_UPPER
from ecfrac.measure import cylinder_measure
from ecfrac.montecarlo import (LOWER, UPPER, SampleConfig, TailRequest,
                               clopper_pearson, clt_report, default_bits,
                               estimate_event, ldp_slope, lln_report,
                               tail_counts, tail_threshold)

from reference_cells import cell_prefix, cell_prefixes, reference_uniform_cell


def test_default_bits_is_one_word_per_digit():
    for depth in (1, 3, 40, 100):
        assert default_bits(depth) == 64 * depth


E_LOG_B1 = 0.78853   # E log b_1 = sum over k of log k / (k (k + 1))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_default_bits_certify_every_trial_at_small_depths(depth):
    # At the default B the exact path pins every digit it is asked for, so
    # no trial of a mean report or an event is left out, and the depth-1
    # mean reads the law of b_1 rather than of the trials that B decided.
    config = SampleConfig(seed=7, trials=2000, depth=depth)
    rep = lln_report(config)
    assert rep.uncertified == 0 and rep.certified == 2000
    assert estimate_event(config, 1, 2).uncertified == 0
    if depth == 1:
        assert abs(rep.mean - E_LOG_B1) <= 4 * rep.stdev / math.sqrt(rep.certified)


def test_different_seeds_differ():
    requests = [TailRequest(LOWER, Fraction(1, 2), 4),
                TailRequest(UPPER, Fraction(1, 2), 4)]
    a = tail_counts(SampleConfig(seed=1, trials=400, depth=4), requests)
    b = tail_counts(SampleConfig(seed=2, trials=400, depth=4), requests)
    assert a != b
    assert a == tail_counts(SampleConfig(seed=1, trials=400, depth=4), requests)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_philox_matches_numpy_random(seed):
    # numpy.random is imported by the test only: Philox(key=seed) started at
    # counter [c0 - 1, i, c2, 0] (one 256-bit integer, word 0 lowest) gives
    # the block at [c0, i, c2, 0] first.
    trials = np.array([0, 1, 2, 6, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
    for c0, c2 in ((1, 0), (2, 0), (10, 0), (1, 7), (3, 40)):
        words = montecarlo._philox(seed, np.full(len(trials), c0, dtype=np.uint64), trials,
                                   np.full(len(trials), c2, dtype=np.uint64))
        for column, trial in enumerate(trials.tolist()):
            reference = np.random.Philox(key=seed, counter=c0 - 1 | trial << 64 | c2 << 128)
            assert [int(w[column]) for w in words] == reference.random_raw(4).tolist()


@pytest.mark.parametrize("seed", [0, 271828, 2**64 - 1])
@pytest.mark.parametrize("bits", [1, 12, 63, 64, 65, 200, 3520])
def test_pass_draw_matches_per_trial_generator(seed, bits):
    # One pass of 40 trials on counter arrays against one numpy.random
    # Philox per block of each trial.  b_1 = floor(1/U): the float
    # enclosure holds every b_1 of the top min(B, 53) bits' cell, and the
    # exact path, made to refine every uniform to all B bits, reads the
    # reference's cell and gives the digit that all its points share.
    trials, read = 40, min(bits, 53)
    ((_, b_lo, b_hi, _, _),) = montecarlo._float_walk(seed, 0, trials, 1, bits)
    coupled = montecarlo._coupled_digit
    for index in range(trials):
        k = reference_uniform_cell(seed, index, 1, bits)
        top = k >> (bits - read)
        assert b_lo[index] <= (1 << read) // (top + 1), index
        assert b_hi[index] >= ((1 << read) // top if top else math.inf), index
        cells = []

        def undecided_below_b(b, num, den, k, m):
            cells.append((k, m))
            return coupled(b, num, den, k, m) if m == bits else None

        with mock.patch.object(montecarlo, "_coupled_digit", undecided_below_b):
            digits = montecarlo._exact_digits(seed, index, 1, bits)
        assert cells[-1] == (k, bits), index
        assert digits == cell_prefix(k, 1 << bits, 1), index


def test_trials_share_no_philox_block():
    # 50 trials at depth 8: two digit blocks [c, i, 0, 0] and eight
    # refinement blocks [1, i, n, 0] per trial, 2,000 words, none repeated
    seed, trials, depth = 271828, 50, 8
    index = np.arange(trials, dtype=np.uint64)
    words = [w for word in montecarlo._digit_words(seed, index, depth) for w in word.tolist()]
    for n in range(1, depth + 1):
        block = montecarlo._philox(seed, np.ones_like(index), index, np.full_like(index, n))
        words += [w for word in block for w in word.tolist()]
    assert len(set(words)) == len(words) == trials * (depth + 4 * depth)


def test_digit_words_are_each_blocks_own_philox_words():
    # 3,000 trials at depth 40: ten blocks, two to a call of at most
    # _COUNTERS counters.  Digit n reads word (n - 1) mod 4 of the block at
    # [ceil(n/4), i, 0, 0], as _philox gives it on that block alone.
    seed, trials, depth = 271828, 3000, 40
    assert montecarlo._COUNTERS // trials == 2
    index = np.arange(trials, dtype=np.uint64)
    words = list(montecarlo._digit_words(seed, index, depth))
    assert len(words) == depth
    for n, word in enumerate(words, 1):
        block = montecarlo._philox(seed, np.full_like(index, -(-n // 4)), index,
                                   np.zeros_like(index))
        assert word.tobytes() == block[(n - 1) % 4].tobytes(), n


@pytest.mark.parametrize("counters", [1, 150, 2**13])
@pytest.mark.parametrize("bits", [12, 64 * 30])
def test_walk_reads_each_digits_own_word(monkeypatch, counters, bits):
    # 60 trials at depth 30, eight blocks: one call per block at 1 counter,
    # two blocks a call at 150 and all eight in one at 2^13.  Digit n steps
    # with U = [u_hi; u_lo] = ((word >> (64 - read)) + [1; 0]) 2^-read of
    # its own word, whichever call made the rows.
    seed, trials, depth, read = 46368, 60, 30, min(bits, 53)
    monkeypatch.setattr(montecarlo, "_COUNTERS", counters)
    stepped, step = [], montecarlo._float_step

    def spy(b, z, x, u, steps):
        stepped.append(u.copy())
        step(b, z, x, u, steps)

    monkeypatch.setattr(montecarlo, "_float_step", spy)
    for _ in montecarlo._float_walk(seed, 0, trials, depth, bits):
        pass
    index = np.arange(trials, dtype=np.uint64)
    words = list(montecarlo._digit_words(seed, index, depth))
    assert len(stepped) == depth and len(words) == 32
    for n, (u, word) in enumerate(zip(stepped, words), 1):
        k = (word >> np.uint64(64 - read)).astype(float)
        assert u.tobytes() == (np.array([k + 1, k]) * 2.0**-read).tobytes(), n


def test_coupling_is_exact():
    # b' = k exactly for (b + z)/(k + 1 + z) < U <= (b + z)/(k + z); the
    # product of these lengths along a word is the word's cylinder measure,
    # and the exact path's digit step gives k on a dyadic cell inside the
    # interval and refuses the cells that hold either end.
    m, words = 64, 0
    for n in range(1, 5):
        for word in combinations_with_replacement(range(1, 7), n):
            b, z, num, den, mass = 1, Fraction(0), 0, 1, Fraction(1)
            for k in word:
                lo, hi = (b + z) / (k + 1 + z), (b + z) / (k + z)
                mass *= hi - lo
                inside = math.floor((lo + hi) / 2 * 2**m)
                assert montecarlo._coupled_digit(b, num, den, inside, m) == k
                for end in (lo, hi):
                    assert montecarlo._coupled_digit(b, num, den, math.floor(end * 2**m), m) is None
                b, z, num, den = k, k / (k + z), k * den, k * den + num
                assert Fraction(num, den) == z
            assert mass == cylinder_measure(word), word
            words += 1
    assert words == 6 + 21 + 56 + 126


def _outward_reference(b_lo, b_hi, z_lo, z_hi, u_lo, u_hi):
    """The float step in Python floats: every operation rounded to nearest,
    then one float step outward (Rump's outward rounding)."""
    def down(x):
        return math.nextafter(x, -math.inf)

    def up(x):
        return math.nextafter(x, math.inf)

    x_lo = down(down(down(b_lo + z_lo) / u_hi) - z_lo)
    x_hi = up(up(up(b_hi + z_hi) / u_lo) - z_hi) if u_lo else math.inf
    new_lo = max(float(math.floor(x_lo)), b_lo)
    new_hi = float(math.floor(x_hi)) if x_hi < math.inf else math.inf
    z_up = up(new_hi / down(new_hi + z_lo)) if new_hi < math.inf else 1.0
    return new_lo, new_hi, down(new_lo / up(new_lo + z_hi)), min(z_up, 1.0)


def _stepped_rows(rows):
    """_float_step on the states (b_lo, b_hi, z_lo, z_hi, u_lo, u_hi), one
    per row, stacked as it takes them (U as [u_hi; u_lo]) in the buffers
    that the walk makes, under the error state that the walk sets; one row
    (b'_lo, b'_hi, z'_lo, z'_hi) each out."""
    b_lo, b_hi, z_lo, z_hi, u_lo, u_hi = (np.array(column, dtype=float) for column in zip(*rows))
    b, z, x, steps = montecarlo._step_buffers(len(rows))
    b[0][:], z[0][:] = (b_lo, b_hi), (z_lo, z_hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        montecarlo._float_step(b, z, x, np.array([u_hi, u_lo]), steps)
    return np.concatenate([x[0], z[0]]).T.tolist()


BELOW_LARGEST = float.fromhex("0x1.ffffffffffffep+1023")   # the largest b_lo can be


def test_float_step_rounds_every_operation_outward():
    # Random states across the float range, among them digits up to
    # 2^1023.99 and at the float below the largest, upper ends at inf, the
    # cell at 0 and the top cell: the vectorized step must give the scalar
    # reference's floats bit for bit, so every rounding is widened.  From
    # the greatest b_lo the uncapped denominator of z' stays finite, and
    # z'_lo > 0.
    rng = random.Random(31)
    rows = []
    for i in range(6120):
        b_lo = float(math.floor(2 ** rng.uniform(0, 1023.99))) if i < 6000 else BELOW_LARGEST
        b_hi = b_lo + float(rng.choice((0, 0, 1, 2**rng.randint(0, 30))))
        if rng.random() < 0.05:
            b_hi = math.inf
        z_lo = rng.choice((0.0, rng.uniform(0.5, 1.0)))
        z_hi = min(1.0, z_lo + rng.choice((0.0, 2**-50, rng.uniform(0, 0.1))))
        bits = rng.choice((1, 8, 30, 53))
        k = rng.choice((0, 2**bits - 1, rng.getrandbits(bits)))
        rows.append((b_lo, b_hi, z_lo, z_hi, k / 2**bits, (k + 1) / 2**bits))
    assert any(row[1] == math.inf for row in rows) and any(row[4] == 0 for row in rows)
    for row, got in zip(rows, _stepped_rows(rows)):
        assert got == list(_outward_reference(*row)), row
        if row[0] == BELOW_LARGEST:
            assert got[2] > 0, row


def test_float_step_encloses_the_coupling_on_wide_states():
    # Wide z enclosures at small b, and U within two floats of a digit
    # boundary (b + z)/(K + z): in exact rationals, b''s enclosure holds
    # floor(X) at every corner of the box, X = (b + z)/U - z being monotone
    # in each input, and z''s holds b'/(b' + z) at both ends of b' and z.
    def floats_up(x, k):
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(math.inf, k))
        return x

    rng = random.Random(17)
    rows = []
    for _ in range(2000):
        b = rng.randint(1, 4)
        z_lo = rng.uniform(0.5, 1.0)
        z_hi, z = rng.uniform(z_lo, 1.0), rng.uniform(z_lo, 1.0)
        u_lo = floats_up((b + z) / (rng.randint(b + 1, 40) + z), rng.randint(-2, 1))
        rows.append((b, b, z_lo, z_hi, u_lo, floats_up(u_lo, rng.randint(1, 2))))
    for row, (b_lo, b_hi, z_lo, z_hi) in zip(rows, _stepped_rows(rows)):
        b, _, *z_ends, u_lo, u_hi = map(Fraction, row)
        for z in z_ends:
            for u in (u_lo, u_hi):
                assert b_lo <= math.floor((b + z) / u - z) <= b_hi, row
        for b_next in (b_lo, b_hi):
            for z in z_ends:
                z_next = Fraction(b_next) / (Fraction(b_next) + z)
                assert Fraction(z_lo) <= z_next <= Fraction(z_hi), row


def test_outward_step_is_nextafter():
    # One integer step on the int64 bits, capped at +inf's, moves a positive
    # float or +inf to its neighbour, as np.nextafter does, down and up: the
    # step buffers' [-1; 1] and [1; -1], in both row orders.
    tiny, smallest_normal, big = 5e-324, 2.0**-1022, 2.0**1023 * (2 - 2.0**-52)
    values = np.array([1.0, tiny, smallest_normal, 2.0**53, big, math.inf])
    with np.errstate(over="ignore"):   # the largest float's next float up is inf
        down, up = np.nextafter(values, -math.inf), np.nextafter(values, math.inf)
    *_, (down_up, up_down, inf_bits, _) = montecarlo._step_buffers(len(values))
    for step, expected in ((down_up, [down, up]), (up_down, [up, down])):
        moved = np.array([values, values])
        bits = moved.view(np.int64)
        bits += step
        np.minimum(bits, inf_bits, out=bits)
        assert moved.tobytes() == np.array(expected).tobytes()


def test_float_walk_past_the_float_range_keeps_true_ends_quietly():
    # At depth 760 every b_n is past 2^1024 (log b_n ~ n): inf is a true
    # upper end and the float below the largest the greatest lower end, and
    # the walk, which sets numpy's error state itself, warns of no overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *_, (n, b_lo, b_hi, z_lo, z_hi) = montecarlo._float_walk(1, 0, 3, 760, 48640)
    assert n == 760
    assert (b_lo == BELOW_LARGEST).all() and (b_hi == math.inf).all()
    assert ((0 < z_lo) & (z_lo <= z_hi) & (z_hi <= 1)).all()


def _exact_states(digits):
    """(b_n, z_n) along an exact digit prefix: z' = b'/(b' + z) from z = 0."""
    z = Fraction(0)
    for b in digits:
        z = b / (b + z)
        yield b, z


@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**40),
       count=st.integers(1, 4), depth=st.integers(1, 45), float_bits=st.integers(1, 70),
       extra_bits=st.integers(0, 400))
@example(seed=1, first=0, count=4, depth=12, float_bits=4, extra_bits=100)
@example(seed=5, first=0, count=4, depth=45, float_bits=53, extra_bits=0)
@settings(max_examples=60, deadline=None)
def test_float_enclosures_contain_the_exact_path(seed, first, count, depth, float_bits,
                                                 extra_bits):
    # The exact path at B >= 64 bits refines the cell that the float walk
    # reads at any B (the top min(B, 53) bits of one word), so every digit
    # and state it decides lies in the float enclosure of its step, however
    # wide: at a few bits the enclosures span many digits, and past 2^53
    # (depth 40 or so) a digit's floor moves with every rounding of X.
    exact_bits = max(float_bits, 64) + extra_bits
    walk = [(n, *(row.copy() for row in rows))   # each digit's rows hold until the next step
            for n, *rows in montecarlo._float_walk(seed, first, count, depth, float_bits)]
    for column in range(count):
        digits = montecarlo._exact_digits(seed, first + column, depth, exact_bits)
        for (n, b_lo, b_hi, z_lo, z_hi), (b, z) in zip(walk, _exact_states(digits)):
            assert b_lo[column] <= b <= b_hi[column], (n, column)
            assert Fraction(z_lo[column]) <= z <= Fraction(z_hi[column]), (n, column)


def test_yielded_rows_are_the_last_rows_of_a_shorter_walk():
    # A digit's rows, copied as they arrive, are those a fresh walk to that
    # depth ends with: the buffers they view hold until the next step.
    seed, trials, depth, bits = 271828, 5, 13, 64 * 13
    arrived = [(n, *(row.copy() for row in rows))
               for n, *rows in montecarlo._float_walk(seed, 0, trials, depth, bits)]
    for n, *rows in arrived:
        *_, (last, *fresh) = montecarlo._float_walk(seed, 0, trials, n, bits)
        assert last == n
        assert [row.tobytes() for row in rows] == [row.tobytes() for row in fresh], n


@pytest.mark.parametrize("setting, size", [("_BLOCK", 1), ("_BLOCK", 7), ("_BLOCK", 10**5),
                                           ("_COUNTERS", 1), ("_COUNTERS", 150),
                                           ("_COUNTERS", 2**16)])
def test_block_size_does_not_move_a_report(monkeypatch, setting, size):
    # Trials per walk, or Philox counters per call: 150 counters take two of
    # the three blocks of 60 trials in one call and the third in another.
    config = SampleConfig(seed=12, trials=60, depth=12, bits=24)
    requests = [TailRequest(tail, Fraction(1, 2), n) for tail in (LOWER, UPPER) for n in (3, 12)]
    reports = (tail_counts(config, requests), estimate_event(config, 5, 4, 40),
               lln_report(config), clt_report(config))
    monkeypatch.setattr(montecarlo, setting, size)
    montecarlo._final_logs.cache_clear()
    assert (tail_counts(config, requests), estimate_event(config, 5, 4, 40),
            lln_report(config), clt_report(config)) == reports
    assert reports[2].uncertified > 0    # 24 bits leave some trials undecided
    montecarlo._final_logs.cache_clear()


def test_engine_agrees_with_cell_sampler_oracle():
    # Two samples of 8,000 trials at fixed seeds, one per sampler: each
    # event's hit rate agrees within 4 standard errors, and the engine
    # decides every trial.
    events = [(1, 1, 1), (1, 3, None), (2, 2, 4), (4, 1, 30), (4, 100, None),
              (8, 1, 1500), (8, 5000, None)]
    trials, depth = 8000, 8
    engine = [estimate_event(SampleConfig(seed=3141, trials=trials, depth=depth), n, lo, hi)
              for n, lo, hi in events]
    assert all(est.uncertified == 0 for est in engine)
    prefixes = list(cell_prefixes(2718, trials, depth, default_bits(depth)))
    for (n, lo, hi), est in zip(events, engine):
        decided = [p[n - 1] for p in prefixes if len(p) >= n]
        hits = sum(lo <= b and (hi is None or b <= hi) for b in decided)
        pooled = (hits + est.hits) / (len(decided) + est.trials)
        error = math.sqrt(pooled * (1 - pooled) * (1 / len(decided) + 1 / est.trials))
        assert abs(hits / len(decided) - est.hits / est.trials) <= 4 * error, (n, lo, hi)


def test_undecided_enclosure_is_refined_by_the_exact_path():
    # Past 2^53 an enclosure spans several integers, so an event whose lower
    # end lies inside some trial's b_40 enclosure leaves that trial to the
    # exact path; the count must be the exact path's, trial by trial.
    config = SampleConfig(seed=5, trials=100, depth=40)
    *_, (_, b_lo, b_hi, _, _) = montecarlo._float_walk(config.seed, 0, config.trials,
                                                       config.depth, config.bits)
    wide = int(np.argmax(b_hi - b_lo))
    lo = int(b_lo[wide]) + 1
    assert lo <= b_hi[wide]
    refined = []
    exact = montecarlo._exact_digits

    def spy(seed, index, depth, bits):
        refined.append(index)
        return exact(seed, index, depth, bits)

    with mock.patch.object(montecarlo, "_exact_digits", spy):
        est = estimate_event(config, config.depth, lo)
    assert wide in refined
    finals = [exact(config.seed, i, config.depth, config.bits)[-1] for i in range(config.trials)]
    assert (est.hits, est.trials, est.uncertified) == (sum(b >= lo for b in finals), 100, 0)
    # The exact path's verdict at both ends of a range: with b the wide
    # trial's own b_40, strictly inside its enclosure, that trial is in
    # each of these events, and only the exact path can say so.
    b = finals[wide]
    assert Fraction(b_lo[wide]) < b < Fraction(b_hi[wide])
    for lo, hi, exact_hits in ((b, b, finals.count(b)),
                               (b, None, sum(x >= b for x in finals)),
                               (1, b, sum(x <= b for x in finals))):
        est = estimate_event(config, config.depth, lo, hi)
        assert (est.hits, est.trials, est.uncertified) == (exact_hits, 100, 0), (lo, hi)


def test_float_ends_fall_on_the_side_of_their_rounding():
    # _float_end gives the nearest float inside the range: a lower end
    # rounds up, an upper end down, and both saturate past the float range.
    end, big = montecarlo._float_end, 2.0**1023 * (2 - 2.0**-52)   # the largest float
    for v in (1, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, int(big), int(big) + 1, 10**400):
        for k in (v, -v):
            at_least, at_most = end(k, math.inf), end(k, -math.inf)
            assert at_least >= k and math.nextafter(at_least, -math.inf) < k, k
            assert at_most <= k and math.nextafter(at_most, math.inf) > k, k
    assert (end(int(big) + 1, math.inf), end(int(big) + 1, -math.inf)) == (math.inf, big)
    assert end(None, -math.inf) == math.inf


@pytest.mark.parametrize("exact, lo, hi", [(2**53 + 2, 1, 2**53 + 1), (2**53, 2**53 + 1, None)])
def test_an_event_end_between_floats_counts_no_false_hit(exact, lo, hi):
    # b_1's enclosure [2^53, 2^53 + 2] straddles an end 2^53 + 1, which no
    # float holds; the trial is a hit only if its exact b_1 lies in the range.
    def walk(seed, first, count, depth, bits):
        yield 1, np.array([2.0**53]), np.array([2.0**53 + 2]), np.zeros(1), np.ones(1)

    with mock.patch.object(montecarlo, "_float_walk", walk), \
            mock.patch.object(montecarlo, "_exact_digits", lambda *args: [exact]):
        est = estimate_event(SampleConfig(seed=1, trials=1, depth=1), 1, lo, hi)
    assert (est.hits, est.trials, est.uncertified) == (0, 1, 0)


def _tail_times_power(n: int, p: Fraction, ks: range) -> tuple[int, int]:
    """(S, d^n) with P(Bin(n, p) in ks) = S / d^n exactly, p = a / d."""
    a, d = p.numerator, p.denominator
    return sum(math.comb(n, k) * a**k * (d - a)**(n - k) for k in ks), d**n


def _assert_certified(h: int, n: int) -> None:
    # the defining inequalities of the 99% interval, in exact integers:
    # P(Bin(n, hi) <= h) <= 1/200 and P(Bin(n, lo) >= h) <= 1/200
    lo, hi = clopper_pearson(h, n)
    assert 0 <= lo <= Fraction(h, n) <= hi <= 1, (h, n)
    if h < n:
        tail, total = _tail_times_power(n, hi, range(h + 1))
        assert 200 * tail <= total, (h, n, "hi")
    if h > 0:
        tail, total = _tail_times_power(n, lo, range(h, n + 1))
        assert 200 * tail <= total, (h, n, "lo")


def test_clopper_pearson_against_exact_binomial():
    for n in range(1, 61):
        for h in range(n + 1):
            _assert_certified(h, n)


@given(st.integers(1, 400).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@settings(max_examples=100, deadline=None)
def test_clopper_pearson_certified_up_to_400_trials(case):
    _assert_certified(*case)


def _clopper_pearson_cases():
    for n in range(1, 201):
        for h in range(n + 1):
            yield h, n
    for n in (10**3, 10**4, 10**6):
        spread = {n * i // 401 for i in range(1, 401)}
        yield from ((h, n) for h in sorted(set(range(201)) | set(range(n - 200, n + 1)) | spread))


def test_clopper_pearson_is_tight():
    # scipy.special.betaincinv (Boost's ibeta_inv) is the oracle, imported
    # here only: each certified endpoint lies within 1e-7 relative of the
    # float Beta quantile it certifies.
    from scipy.special import betaincinv

    cases = list(_clopper_pearson_cases())
    hits, trials = (np.array(column) for column in zip(*cases))
    lo_ref = betaincinv(np.maximum(hits, 1), trials - hits + 1, 0.005)
    hi_ref = betaincinv(hits + 1, np.maximum(trials - hits, 1), 0.995)
    ratios = []
    for (h, n), lo_f, hi_f in zip(cases, lo_ref, hi_ref):
        lo, hi = clopper_pearson(h, n)
        if h > 0:
            ratios.append((float(lo) / lo_f, (h, n), "lo"))
        if h < n:
            ratios.append((float(hi) / hi_f, (h, n), "hi"))
    worst = max(ratios, key=lambda r: abs(r[0] - 1))
    assert abs(worst[0] - 1) <= 1e-7, f"worst endpoint/betaincinv ratio {worst}"


def _mp_tail(n: int, h: int, p: Fraction, upper: bool) -> mpmath.mpf:
    """P(Bin(n, p) >= h) (upper) or <= h at 50 digits: terms from t_h outward."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p.numerator) / p.denominator
        q = 1 - p
        term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(h + 1)
                          - mpmath.loggamma(n - h + 1) + h * mpmath.log(p)
                          + (n - h) * mpmath.log(q))
        total, j = term, h
        while (j < n if upper else j > 0) and term > total * mpmath.mpf(10)**-45:
            if upper:
                term *= (n - j) * p / ((j + 1) * q)
                j += 1
            else:
                term *= j * q / ((n - j + 1) * p)
                j -= 1
            total += term
        return total


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_clopper_pearson_certified_at_large_n(n):
    # Past the reach of exact sums: both inequalities at 50 digits, on the
    # Robbins start and on the recurrences from either end of the support.
    for h in (0, 1, 2, 30, 500, 9000, n // 4, n - 40, n - 1, n):
        lo, hi = clopper_pearson(h, n)
        if h > 0:
            assert 200 * _mp_tail(n, h, lo, upper=True) <= 1, (h, n, "lo")
        if h < n:
            assert 200 * _mp_tail(n, h, hi, upper=False) <= 1, (h, n, "hi")


@pytest.mark.parametrize("n, h, p", [(2000, 1000, 0.46), (5000, 1000, 0.18), (3000, 2000, 0.64)])
def test_robbins_start_term_bounds_the_exact_term(n, h, p):
    # Where q^n and p^n both underflow, the largest term C(n, h) p^h q^(n-h)
    # comes from Robbins' Stirling bounds as an exact upper bound, high by
    # at most 1/(144 h^2) + 1/(144 (n - h)^2) relative.
    grid = montecarlo._GRID
    big_k = int(p * grid)
    bound, roundings = montecarlo._start_term(n, h, big_k)
    exact = Fraction(math.comb(n, h) * big_k**h * (grid - big_k)**(n - h), grid**n)
    assert roundings == 0
    assert exact <= bound <= exact * (1 + Fraction(1, 10**7))


@given(st.integers(1, 10**4).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))))
@example((1, 10**6))
@example((2, 10**6))
@example((500, 10**6))
@example((10**6 // 2, 10**6))
@example((10**6 - 1, 10**6))
@example((10**6, 10**6))
@settings(max_examples=100, deadline=None)
def test_endpoints_stay_on_their_side_of_the_hit_rate(case):
    # _window and _tail_bound assume p <= h / n, which keeps the ratio of
    # consecutive tail terms below 1 past h; the Newton candidate is
    # clamped to h / n, and the certified ends only move outward from it.
    h, n = case
    assert montecarlo._lower_candidate(h, n) <= h / n
    lo, hi = clopper_pearson(h, n)
    assert lo <= Fraction(h, n) <= hi


def test_clopper_pearson_raises_when_no_bound_certifies():
    with mock.patch.object(montecarlo, "_tail_bound", lambda n, h, k: Fraction(1)):
        with pytest.raises(montecarlo.SampleLimitError):
            clopper_pearson(3, 500)
    with mock.patch.object(montecarlo, "_tail_bound", lambda n, h, k: None):
        with pytest.raises(montecarlo.SampleLimitError):
            clopper_pearson(0, 500)


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 40)
    assert lo == 0 and hi < Fraction(1, 4)
    assert montecarlo._lower_endpoint(0, 40) == 0 and montecarlo._upper_endpoint(40, 40) == 1
    lo, hi = clopper_pearson(40, 40)
    assert hi == 1 and lo > Fraction(3, 4)
    lo, hi = clopper_pearson(1, 10**14)  # the lower end falls below the 2^-53 grid
    assert lo == 0 < hi
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


def test_estimate_event_constant_events():
    config = SampleConfig(seed=4, trials=100, depth=1, bits=32)
    est = estimate_event(config, 1, 1)       # every digit is >= 1
    assert est.hits == est.trials == 100 and est.ci_hi == 1
    est = estimate_event(config, 1, 2, 1)    # an empty range
    assert est.hits == 0 and est.ci_lo == 0


def test_estimate_event_uncertified_counted():
    # The counts pass through as given: p_hat is hits over certified trials,
    # and every trial, certified or not, is in the bracket's denominator.
    est = montecarlo._estimate_from_counts(30, 80, 20)
    assert (est.hits, est.trials, est.uncertified, est.p_hat) == (30, 80, 20, Fraction(3, 8))
    assert (est.ci_lo, est.ci_hi) == (clopper_pearson(30, 100)[0], clopper_pearson(50, 100)[1])


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.data())
@settings(max_examples=40, deadline=None)
def test_event_bracket_holds_every_way_to_decide_the_undecided(sizes, data):
    # An undecided trial may be a hit or not: the bracket over all trials
    # must hold the interval of every count in between.
    trials, certified = sizes
    hits = data.draw(st.integers(0, certified))
    uncertified = trials - certified
    est = montecarlo._estimate_from_counts(hits, certified, uncertified)
    for h in range(hits, hits + uncertified + 1):
        lo, hi = clopper_pearson(h, trials)
        assert est.ci_lo <= lo and hi <= est.ci_hi, h
    if not uncertified:
        assert (est.ci_lo, est.ci_hi) == clopper_pearson(hits, trials)


@given(seed=st.integers(0, 2**64 - 1), bits=st.integers(1, 80), trials=st.integers(1, 30),
       depth_n=st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
       lo=st.integers(0, 8), hi=st.none() | st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_estimate_event_matches_the_exact_path(seed, bits, trials, depth_n, lo, hi):
    # Every trial whose b_n the exact path decides at B bits is certified,
    # with the exact path's verdict; a trial it cannot decide may still be
    # decided by its float enclosure.  hi may be below lo, an empty range.
    depth, n = depth_n
    hits = certified = 0
    for index in range(trials):
        digits = montecarlo._exact_digits(seed, index, depth, bits)
        if len(digits) >= n:
            certified += 1
            hits += lo <= digits[n - 1] and (hi is None or digits[n - 1] <= hi)
    config = SampleConfig(seed=seed, trials=trials, depth=depth, bits=bits)
    try:
        est = estimate_event(config, n, lo, hi)
    except montecarlo.SampleLimitError:
        assert certified == 0
        return
    assert est.trials + est.uncertified == trials
    assert certified <= est.trials and 0 <= est.hits - hits <= est.trials - certified


def test_estimate_event_all_uncertified_raises():
    # At 1 bit the cells are [0, 1/2], which touches 0, and [1/2, 1], on
    # which b_1 takes the values 1 and 2: every enclosure of b_1 straddles
    # 2, and neither cell decides b_1 in the exact path.
    config = SampleConfig(seed=4, trials=10, depth=1, bits=1)
    with pytest.raises(montecarlo.SampleLimitError):
        estimate_event(config, 1, 2, 2)


@pytest.mark.parametrize("n", [0, 3])
def test_estimate_event_position_outside_the_depth(n):
    with pytest.raises(ValueError, match="outside 1..2"):
        estimate_event(SampleConfig(seed=4, trials=10, depth=2), n, 1)


def test_calibration_exact_value_in_ci():
    # P(b_1 >= 2) = P(x <= 1/2) = 1/2 exactly; the 99% CI must cover it in
    # at least 95 of 100 seeded runs
    exact = Fraction(1, 2)
    covered = 0
    for seed in range(100):
        config = SampleConfig(seed=seed, trials=200, depth=1, bits=64)
        est = estimate_event(config, 1, 2)
        covered += est.ci_lo <= exact <= est.ci_hi
    assert covered >= 95, covered


def test_monotone_events():
    # {b_n >= t} shrinks as t grows; on shared trials the hit counts must
    # be monotone, with no sampling noise caveat
    config = SampleConfig(seed=31, trials=400, depth=4)
    hits = [estimate_event(config, config.depth, t).hits for t in (2, 3, 5, 9)]
    assert hits == sorted(hits, reverse=True)


def test_tail_threshold_golden():
    # lower tail: digits <= floor(exp(n(1 - eps))); upper: > floor(exp(n(1 + eps)))
    assert tail_threshold(TailRequest(LOWER, Fraction(1, 2), 10)) == 148
    assert tail_threshold(TailRequest(UPPER, Fraction(1, 2), 10)) == 3269018
    assert tail_threshold(TailRequest(LOWER, Fraction(1), 4)) == 1  # exp(0)
    assert tail_threshold(TailRequest(UPPER, Fraction(1), 3)) == 404
    assert tail_threshold(TailRequest(LOWER, Fraction(2), 3)) == 0  # e^-3 < 1: no digit


def test_tail_request_validation():
    with pytest.raises(ValueError):
        TailRequest("sideways", Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        TailRequest(LOWER, Fraction(-1, 2), 5)
    with pytest.raises(ValueError):
        TailRequest(LOWER, Fraction(1, 2), 0)
    TailRequest(LOWER, Fraction(0), 5)  # degenerate but well defined
    with pytest.raises(ValueError, match="exceeds config.depth"):
        tail_counts(SampleConfig(seed=1, trials=10, depth=3),
                    [TailRequest(LOWER, Fraction(1, 2), 4)])


def test_tail_counts_shared_pass():
    config = SampleConfig(seed=77, trials=2000, depth=8)
    requests = [TailRequest(LOWER, Fraction(1, 2), 4),
                TailRequest(LOWER, Fraction(1, 2), 8),
                TailRequest(UPPER, Fraction(1, 2), 4)]
    out = tail_counts(config, requests)
    assert set(out) == set(requests)
    # lower-tail probability decays with depth
    assert out[requests[0]].p_hat >= out[requests[1]].p_hat
    for est in out.values():
        assert est.trials + est.uncertified == 2000


def test_tail_counts_counts_a_repeated_request_once():
    config = SampleConfig(seed=1, trials=50, depth=2)
    request = TailRequest(LOWER, Fraction(1, 2), 2)
    assert (tail_counts(config, [request, request])
            == tail_counts(config, [request]))


def test_lln_mean_near_one():
    rep = lln_report(SampleConfig(seed=5, trials=300, depth=30))
    assert 0.9 < rep.mean < 1.1
    assert rep.certified + rep.uncertified == 300


def test_clt_ks_moderate():
    rep = clt_report(SampleConfig(seed=5, trials=150, depth=25))
    assert rep.ks < 0.25
    assert abs(rep.median) < 0.5
    assert len(rep.quantiles) == 5


def test_ldp_slope_shape():
    rep = ldp_slope(Fraction(1, 2), [5, 10], SampleConfig(seed=11, trials=2000, depth=10))
    assert [row.n for row in rep.rows] == [5, 10]
    assert rep.rows[0].estimate.p_hat > rep.rows[1].estimate.p_hat
    assert rep.slope > 0


# SHA-256 of the reports below, recorded when the coupling engine replaced
# the cell sampler: a change to the sampler that is not meant to move any
# report must leave it as it is.
_REPORTS_DIGEST = "3483cc80ac8786f57dd07f0b6b937fc1f29ba1c6503f8f1cb44798277221b072"


def test_seeded_reports_match_recorded_digest():
    half = Fraction(1, 2)
    requests = ([TailRequest(LOWER, half, n) for n in TAIL_N_LOWER]
                + [TailRequest(UPPER, half, n) for n in TAIL_N_LOWER]
                + [TailRequest(UPPER, Fraction(1), n) for n in TAIL_N_UPPER])
    tails = tail_counts(SampleConfig(seed=MC_SEED_TAILS, trials=2000, depth=40), requests)
    deep = SampleConfig(seed=MC_SEED_MEAN, trials=50, depth=100)
    text = repr([list(tails.items()), lln_report(deep), clt_report(deep)])
    assert hashlib.sha256(text.encode()).hexdigest() == _REPORTS_DIGEST


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=-1, trials=10, depth=1)
    with pytest.raises(ValueError):
        SampleConfig(seed=1, trials=0, depth=1)
    with pytest.raises(ValueError):
        SampleConfig(seed=1, trials=10, depth=0)
    with pytest.raises(ValueError, match="bits must be >= 1"):
        SampleConfig(seed=1, trials=10, depth=3, bits=0)
    config = SampleConfig(seed=1, trials=10, depth=3)
    assert config.bits == default_bits(3)


@pytest.fixture
def walks(monkeypatch):
    """Count the trials walked, with the cache empty before and after."""
    walked = []
    walk = montecarlo._float_walk

    def counting(seed, first, count, depth, bits):
        walked.extend(range(first, first + count))
        yield from walk(seed, first, count, depth, bits)

    monkeypatch.setattr(montecarlo, "_float_walk", counting)
    montecarlo._final_logs.cache_clear()
    yield walked
    montecarlo._final_logs.cache_clear()


@pytest.mark.parametrize("first, second", [(lln_report, clt_report),
                                           (clt_report, lln_report)])
def test_mean_reports_share_one_pass(walks, first, second):
    config = SampleConfig(seed=8, trials=40, depth=12)
    first(config)
    second(config)
    assert len(walks) == config.trials


def test_cached_reports_equal_fresh_ones(walks):
    config = SampleConfig(seed=8, trials=40, depth=12, bits=24)
    cached = lln_report(config), clt_report(config)
    montecarlo._final_logs.cache_clear()
    assert lln_report(config) == cached[0]
    montecarlo._final_logs.cache_clear()
    assert clt_report(config) == cached[1]
    assert cached[0].uncertified > 0  # the counts come from the cached values alone
    assert len(walks) == 3 * config.trials


def test_another_config_misses_the_cache(walks):
    config = SampleConfig(seed=8, trials=40, depth=12)
    other = SampleConfig(seed=9, trials=30, depth=12)
    lln_report(config)
    lln_report(other)
    clt_report(config)  # only the last config's values are kept
    assert len(walks) == 2 * config.trials + other.trials


def test_mean_reads_the_exact_path_past_the_float_range():
    # An enclosure [largest float, inf] is not narrow, so its trial's log b_n
    # is the exact path's, not log(largest float); one at exactly 8 is read
    # from the floats.
    def walk(seed, first, count, depth, bits):
        b_lo, b_hi = np.array([sys.float_info.max, 8.0]), np.array([math.inf, 8.0])
        yield 1, b_lo, b_hi, np.full(2, 0.5), np.ones(2)

    montecarlo._final_logs.cache_clear()
    with mock.patch.object(montecarlo, "_float_walk", walk), \
            mock.patch.object(montecarlo, "_exact_digits", lambda *args: [10**400]):
        logs = montecarlo._final_logs(SampleConfig(seed=1, trials=2, depth=1))
    montecarlo._final_logs.cache_clear()
    assert logs == (math.log(10**400), math.log(8))


def test_cached_values_are_immutable(walks):
    config = SampleConfig(seed=8, trials=40, depth=12)
    logs = montecarlo._final_logs(config)
    assert isinstance(logs, tuple) and montecarlo._final_logs(config) is logs
    with pytest.raises(TypeError):
        logs[0] = 1.0
