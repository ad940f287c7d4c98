"""Acceptance gate: one test per criterion of ``ecfrac.checks``.

The test is parametrized over ``checks.CRITERIA`` with ids 01..14.  The
Monte Carlo criteria (``checks.MONTE_CARLO``) carry the ``slow`` marker,
so ``pytest -m "not slow"`` runs the same criteria as ``ecf verify --suite
quick``.  The two tail-decay criteria share one seeded million-trial pass,
so the pair costs one simulation, not two.
"""

from fractions import Fraction

import pytest

from ecfrac import checks
from ecfrac.montecarlo import LOWER, UPPER, TailRequest, _estimate_from_counts, clopper_pearson

_CASES = [pytest.param(index, criterion, id=f"{index:02d}",
                       marks=[pytest.mark.slow] if index in checks.MONTE_CARLO else [])
          for index, criterion in checks.CRITERIA]


@pytest.mark.parametrize("index, criterion", _CASES)
def test_criterion(index, criterion):
    result = criterion()
    assert result.index == index
    assert result.passed, f"{result.name} ({result.seconds:.1f}s) - {result.detail}"


def test_criteria_are_numbered_one_to_fourteen_in_order():
    assert [index for index, _ in checks.CRITERIA] == list(range(1, 15))


def test_quick_tiers_select_the_same_criteria(monkeypatch):
    pytest_quick = [case.values[0] for case in _CASES if not case.marks]
    # Stub criteria that return their own index, so run_suite's choice shows.
    monkeypatch.setattr(checks, "CRITERIA",
                        [(index, lambda index=index: index) for index, _ in checks.CRITERIA])
    assert checks.run_suite("quick") == pytest_quick
    assert checks.run_suite("full") == list(range(1, 15))
    with pytest.raises(ValueError):
        checks.run_suite("medium")


def test_criterion_13_bounds_each_depth_over_all_trials(monkeypatch):
    # With uncertified trials, the bound criterion 13 fits at each depth is
    # the upper Clopper-Pearson end over all trials with every uncertified
    # trial a hit, as montecarlo brackets one event, and not the end over
    # the certified trials alone.  No sampling: the shared run is stubbed.
    half = Fraction(1, 2)
    certified, uncertified = 1000, 7
    estimates = {TailRequest(tail, half, n): _estimate_from_counts(hits, certified, uncertified)
                 for i, n in enumerate(checks.TAIL_N_LOWER)
                 for tail, hits in ((LOWER, 40 - 8 * i), (UPPER, 9 - 2 * i))}
    monkeypatch.setattr(checks, "_shared_tail_run", lambda: estimates)
    bounds = {}
    fit = checks.exponential_bound_check

    def spy(eps, n_list, estimator):
        report = fit(eps, n_list, estimator)
        bounds.update((row.n, row.prob_bound) for row in report.rows)
        return report

    monkeypatch.setattr(checks, "exponential_bound_check", spy)
    checks.criterion_13()
    hits = {n: sum(estimates[TailRequest(tail, half, n)].hits for tail in (LOWER, UPPER))
            for n in checks.TAIL_N_LOWER}
    assert bounds == {n: clopper_pearson(h + uncertified, certified + uncertified)[1]
                      for n, h in hits.items()}
