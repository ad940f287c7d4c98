"""Acceptance gate: one test per criterion of ``ecfrac.checks``.

The test is parametrized over ``checks.CRITERIA`` with ids 01..14.  The
Monte Carlo criteria (``checks.MONTE_CARLO``) carry the ``slow`` marker,
so ``pytest -m "not slow"`` runs the same criteria as ``ecf verify --suite
quick``.  The two tail-decay criteria share one seeded million-trial pass,
so the pair costs one simulation, not two.
"""

import pytest

from ecfrac import checks

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
