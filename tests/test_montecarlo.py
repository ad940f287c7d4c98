"""Reproducible sampling, certified digit streams, tail estimates."""

import hashlib
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecfrac import montecarlo
from ecfrac.checks import MC_SEED_MEAN, MC_SEED_TAILS, TAIL_N_LOWER, TAIL_N_UPPER
from ecfrac.expansion import _lockstep_walk, cylinder_endpoints, expand_interval
from ecfrac.montecarlo import (LOWER, UPPER, SampleConfig, TailRequest,
                               clopper_pearson, clt_report, default_bits,
                               estimate_event, ldp_slope, lln_report,
                               tail_counts, tail_threshold)

from reference_philox import reference_cell_index
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
    with mock.patch.object(montecarlo, "_cell_indices", lambda config: iter([k])):
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
        k = reference_cell_index(config.seed, index, config.bits)
        if k == 0:
            continue
        expected = expand_interval(Fraction(k, 2**20), Fraction(k + 1, 2**20), 6)
        assert (tuple(prefix), truncated) == (expected.digits, expected.truncated)


@pytest.mark.parametrize("seed", [0, 271828, 2**64 - 1])
@pytest.mark.parametrize("bits", [1, 12, 63, 64, 65, 200, 3520])
def test_pass_draw_matches_per_trial_generator(seed, bits):
    config = SampleConfig(seed=seed, trials=40, depth=1, bits=bits)
    assert list(montecarlo._cell_indices(config)) == [
        reference_cell_index(seed, index, bits) for index in range(40)]


def test_trials_share_no_philox_block():
    # 2048 bits are eight whole 32-byte blocks of Philox4x64 output per trial
    config = SampleConfig(seed=271828, trials=50, depth=1, bits=2048)
    blocks = [k.to_bytes(256, "little")[j:j + 32]
              for k in montecarlo._cell_indices(config) for j in range(0, 256, 32)]
    assert len(set(blocks)) == len(blocks) == 400


def test_stream_walks_drawn_cells_at_full_precision():
    # depth 12 at the default B = 317 walks coarse rungs of 137 and 185 bits
    config = SampleConfig(seed=99, trials=300, depth=12)
    assert montecarlo._walk_schedule(config.depth, config.bits) == (137, 185)
    den = 1 << config.bits
    for index, cell in enumerate(montecarlo._digit_stream(config)):
        k = reference_cell_index(config.seed, index, config.bits)
        assert cell == _lockstep_walk(k, den, k + 1, den, config.depth)


@st.composite
def deep_cells(draw):
    depth = draw(st.integers(1, 60))
    bits = draw(st.one_of(st.integers(1, 4096),
                          st.integers(1, default_bits(depth))))
    top = 2**bits - 1
    k = draw(st.one_of(st.integers(0, top), st.integers(0, min(top, 64)),
                       st.integers(max(0, top - 64), top)))
    return bits, k, depth


@given(deep_cells())
@settings(max_examples=300, deadline=None)
def test_lazy_walk_matches_full_precision_walk(cell):
    bits, k, depth = cell
    den = 1 << bits
    assert all(b < bits for b in montecarlo._walk_schedule(depth, bits))
    assert (montecarlo._cell_prefix(k, bits, depth)
            == _lockstep_walk(k, den, k + 1, den, depth))


def test_cell_certificate_matches_lockstep_walk_on_small_cells():
    # Every cell [p/q, (p+1)/q] with q <= 64, dyadic or not: among them are
    # cells with an end on a cylinder endpoint (whose expansion stops there),
    # the top cell ending at 1 and the cell at 0, which draws almost never hit.
    cells = [(p, q, depth) for q in range(1, 65) for p in range(q) for depth in range(1, 9)]
    accepted = 0
    for p, q, depth in cells:
        digits, truncated = _lockstep_walk(p, q, p + 1, q, depth)
        assert montecarlo._cell_certificate(p, q, depth) == (digits if truncated else None), \
            (p, q, depth)
        accepted += truncated
    assert 0 < accepted < len(cells)


def test_estimate_event_passes_walk_truncation():
    config = SampleConfig(seed=6, trials=200, depth=1, bits=4)
    seen = []

    def record(e):
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
    lo, hi = clopper_pearson(40, 40)
    assert hi == 1 and lo > Fraction(3, 4)
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


def test_estimate_event_constant_events():
    config = SampleConfig(seed=4, trials=100, depth=1, bits=32)
    est = estimate_event(config, lambda e: True)
    assert est.hits == est.trials == 100 and est.ci_hi == 1
    est = estimate_event(config, lambda e: False)
    assert est.hits == 0 and est.ci_lo == 0


def test_estimate_event_uncertified_counted():
    config = SampleConfig(seed=4, trials=100, depth=1, bits=32)

    def flaky(e, box=[0]):
        box[0] += 1
        return None if box[0] % 5 == 0 else True

    est = estimate_event(config, flaky)
    assert est.uncertified == 20
    assert est.trials == 80


def test_estimate_event_all_uncertified_raises():
    config = SampleConfig(seed=4, trials=10, depth=1, bits=32)
    with pytest.raises(RuntimeError):
        estimate_event(config, lambda e: None)


def test_calibration_exact_value_in_ci():
    # P(b_1 >= 2) = P(x <= 1/2) = 1/2 exactly; the 99% CI must cover it in
    # at least 95 of 100 seeded runs
    exact = Fraction(1, 2)
    covered = 0
    for seed in range(100):
        config = SampleConfig(seed=seed, trials=200, depth=1, bits=64)
        est = estimate_event(
            config,
            lambda e: e.digits[0] >= 2 if e.digits else None)
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
            lambda e, t=t: e.digits[-1] >= t
            if len(e.digits) == config.depth else None)
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
    assert rep.slope_lo <= rep.slope <= rep.slope_hi


# SHA-256 of the reports below, recorded before the cells were certified by
# _cell_certificate: a change to the sampler that is not meant to move any
# report must leave it as it is.
_REPORTS_DIGEST = "acabdbff4a9e75ab733cd477b4d4c4d47da841a705e987bce90e297277cd7802"


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
    config = SampleConfig(seed=1, trials=10, depth=3)
    assert config.bits == default_bits(3)


@pytest.fixture
def walks(monkeypatch):
    """Count the cells walked, with the finals cache empty before and after."""
    walked = []
    walk = montecarlo._cell_prefix

    def counting(k, bits, depth):
        walked.append(k)
        return walk(k, bits, depth)

    monkeypatch.setattr(montecarlo, "_cell_prefix", counting)
    montecarlo._final_digits.cache_clear()
    yield walked
    montecarlo._final_digits.cache_clear()


@pytest.mark.parametrize("first, second", [(lln_report, clt_report),
                                           (clt_report, lln_report)])
def test_mean_reports_share_one_pass(walks, first, second):
    config = SampleConfig(seed=8, trials=40, depth=12)
    first(config)
    second(config)
    assert len(walks) == config.trials


def test_cached_reports_equal_fresh_ones(walks):
    config = SampleConfig(seed=8, trials=40, depth=12, bits=150)
    cached = lln_report(config), clt_report(config)
    montecarlo._final_digits.cache_clear()
    assert lln_report(config) == cached[0]
    montecarlo._final_digits.cache_clear()
    assert clt_report(config) == cached[1]
    assert cached[0].uncertified > 0  # the counts come from the finals alone
    assert len(walks) == 3 * config.trials


def test_another_config_misses_the_cache(walks):
    config = SampleConfig(seed=8, trials=40, depth=12)
    other = SampleConfig(seed=9, trials=30, depth=12)
    lln_report(config)
    lln_report(other)
    clt_report(config)  # only the last config's finals are kept
    assert len(walks) == 2 * config.trials + other.trials


def test_cached_finals_are_immutable(walks):
    config = SampleConfig(seed=8, trials=40, depth=12)
    finals = montecarlo._final_digits(config)
    assert isinstance(finals, tuple) and montecarlo._final_digits(config) is finals
    with pytest.raises(TypeError):
        finals[0] = 1
