"""Reproducible sampling, certified digit streams, tail estimates."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecfrac import montecarlo
from ecfrac.expansion import cylinder_endpoints, expand_interval
from ecfrac.montecarlo import (LOWER, UPPER, SampleConfig, TailRequest,
                               clopper_pearson, clt_report, default_bits,
                               estimate_event, ldp_slope, lln_report,
                               tail_counts, tail_threshold)

from reference_walk import reference_expand_interval


def test_default_bits_is_ceil():
    assert default_bits(1) == 3       # ceil(2.2)
    assert default_bits(3) == 20      # ceil(19.8)
    assert default_bits(10) == 220
    assert default_bits(40) == 3520


def test_different_seeds_differ():
    requests = [TailRequest(LOWER, Fraction(1, 2), 4),
                TailRequest(UPPER, Fraction(1, 2), 4)]
    a = tail_counts(SampleConfig(seed=1, trials=400, depth=4), requests)
    b = tail_counts(SampleConfig(seed=2, trials=400, depth=4), requests)
    assert a != b
    assert a == tail_counts(SampleConfig(seed=1, trials=400, depth=4), requests)


def _sampled_cell(k: int, bits: int, depth: int):
    """The sampler's (prefix, truncated) for a trial whose draw is k."""
    config = SampleConfig(seed=0, trials=1, depth=depth, bits=bits)
    with mock.patch.object(montecarlo, "_raw_cell_index", lambda seed, index, b: k):
        (cell,) = montecarlo._digit_stream(config)
    return cell


@st.composite
def cells(draw):
    bits = draw(st.integers(1, 24))
    return bits, draw(st.integers(0, 2**bits - 1)), draw(st.integers(1, 12))


@given(cells())
@settings(max_examples=300)
def test_sampler_walk_matches_reference(cell):
    bits, k, depth = cell
    lo, hi = Fraction(k, 2**bits), Fraction(k + 1, 2**bits)
    expected = reference_expand_interval(lo, hi, depth)
    prefix, truncated = _sampled_cell(k, bits, depth)
    assert (tuple(prefix), truncated) == (expected.digits, expected.truncated)
    if k > 0:
        assert expand_interval(lo, hi, depth) == expected
    if prefix:
        c_lo, c_hi = cylinder_endpoints(prefix)
        assert c_lo <= lo and hi <= c_hi


def test_cell_at_zero_certifies_nothing():
    # [0, 2^-B] touches 0, where b_1 is unbounded
    assert _sampled_cell(0, 16, 5) == ([], False)
    assert _sampled_cell(0, 1, 1) == ([], False)


def test_top_cell_reaches_one():
    # [1 - 2^-B, 1]: b_1 = 1 throughout, then the cell reaches 1, whose
    # expansion ends, so b_2 is unbounded near it
    assert _sampled_cell(2**16 - 1, 16, 5) == ([1], False)
    assert _sampled_cell(1, 1, 5) == ([], False)  # [1/2, 1] straddles b_1 = 1, 2


def test_stream_samples_lower_cells():
    config = SampleConfig(seed=123, trials=200, depth=6, bits=20)
    for index, (prefix, truncated) in enumerate(montecarlo._digit_stream(config)):
        k = montecarlo._raw_cell_index(config.seed, index, config.bits)
        if k == 0:
            continue
        expected = expand_interval(Fraction(k, 2**20), Fraction(k + 1, 2**20), 6)
        assert (tuple(prefix), truncated) == (expected.digits, expected.truncated)


def test_estimate_event_passes_walk_truncation():
    config = SampleConfig(seed=6, trials=200, depth=1, bits=4)
    seen = []

    def record(depth, e):
        seen.append(e)
        return True

    estimate_event(config, record)
    walked = [(tuple(p), t) for p, t in montecarlo._digit_stream(config)]
    assert [(e.digits, e.truncated) for e in seen] == walked
    # a full-depth prefix is truncated only when the budget cut the walk:
    # [9/16, 10/16] could certify more digits, but [15/16, 1] reaches 1,
    # whose expansion ends at b_1 = 1
    assert _sampled_cell(9, 4, 1) == ([1], True)
    assert _sampled_cell(15, 4, 1) == ([1], False)


def _binom_cdf(n: int, p: Fraction, h: int) -> Fraction:
    q = 1 - p
    return sum(Fraction(math.comb(n, i)) * p**i * q**(n - i)
               for i in range(h + 1))


def test_clopper_pearson_against_exact_binomial():
    # defining property of the exact CI, checked in exact arithmetic:
    # P(Bin(n, hi) <= h) <= alpha/2 and P(Bin(n, lo) >= h) <= alpha/2
    alpha = Fraction(1, 100)
    for n, h in [(20, 7), (50, 1), (30, 29), (100, 50)]:
        lo, hi = clopper_pearson(h, n)
        assert 0 <= lo <= Fraction(h, n) <= hi <= 1
        if h < n:
            assert _binom_cdf(n, hi, h) <= alpha / 2
        if h > 0:
            assert 1 - _binom_cdf(n, lo, h - 1) <= alpha / 2


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 40)
    assert lo == 0 and hi < Fraction(1, 4)
    lo, hi = clopper_pearson(40, 40)
    assert hi == 1 and lo > Fraction(3, 4)
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


def test_estimate_event_constant_events():
    config = SampleConfig(seed=4, trials=100, depth=1, bits=32)
    est = estimate_event(config, lambda depth, e: True)
    assert est.hits == est.trials == 100 and est.ci_hi == 1
    est = estimate_event(config, lambda depth, e: False)
    assert est.hits == 0 and est.ci_lo == 0


def test_estimate_event_uncertified_counted():
    config = SampleConfig(seed=4, trials=100, depth=1, bits=32)

    def flaky(depth, e, box=[0]):
        box[0] += 1
        return None if box[0] % 5 == 0 else True

    est = estimate_event(config, flaky)
    assert est.uncertified == 20
    assert est.trials == 80


def test_estimate_event_all_uncertified_raises():
    config = SampleConfig(seed=4, trials=10, depth=1, bits=32)
    with pytest.raises(RuntimeError):
        estimate_event(config, lambda depth, e: None)


def test_calibration_exact_value_in_ci():
    # P(b_1 >= 2) = P(x <= 1/2) = 1/2 exactly; the 99% CI must cover it in
    # at least 95 of 100 seeded runs
    exact = Fraction(1, 2)
    covered = 0
    for seed in range(100):
        config = SampleConfig(seed=seed, trials=200, depth=1, bits=64)
        est = estimate_event(
            config,
            lambda depth, e: e.digits[0] >= 2 if e.digits else None)
        covered += est.ci_lo <= exact <= est.ci_hi
    assert covered >= 95, covered


def test_monotone_events():
    # {b_n >= t} shrinks as t grows; on shared trials the hit counts must
    # be monotone, with no sampling noise caveat
    config = SampleConfig(seed=31, trials=400, depth=4)
    hits = []
    for t in (2, 3, 5, 9):
        est = estimate_event(
            config,
            lambda depth, e, t=t: e.digits[-1] >= t
            if len(e.digits) == depth else None)
        hits.append(est.hits)
    assert hits == sorted(hits, reverse=True)


def test_tail_threshold_golden():
    # lower tail: digits <= floor(exp(n(1 - eps))); upper: > floor(exp(n(1 + eps)))
    assert tail_threshold(TailRequest(LOWER, Fraction(1, 2), 10)) == 148
    assert tail_threshold(TailRequest(UPPER, Fraction(1, 2), 10)) == 3269018
    assert tail_threshold(TailRequest(LOWER, Fraction(1), 4)) == 1  # exp(0)
    assert tail_threshold(TailRequest(UPPER, Fraction(1), 3)) == 404


def test_tail_request_validation():
    with pytest.raises(ValueError):
        TailRequest("sideways", Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        TailRequest(LOWER, Fraction(-1, 2), 5)
    with pytest.raises(ValueError):
        TailRequest(LOWER, Fraction(1, 2), 0)
    TailRequest(LOWER, Fraction(0), 5)  # degenerate but well defined


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
    assert rep.slope_lo <= rep.slope <= rep.slope_hi


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=-1, trials=10, depth=1)
    with pytest.raises(ValueError):
        SampleConfig(seed=1, trials=0, depth=1)
    with pytest.raises(ValueError):
        SampleConfig(seed=1, trials=10, depth=0)
    config = SampleConfig(seed=1, trials=10, depth=3)
    assert config.bits == default_bits(3)
