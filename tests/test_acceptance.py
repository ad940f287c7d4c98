"""Acceptance gate: every numbered criterion, one pass/fail line each.

Each test runs one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with -s, and in the failure report otherwise).
The two tail-decay criteria share one seeded million-trial pass, so the
pair costs one simulation, not two.  The Monte Carlo criteria
(``checks.MONTE_CARLO``) carry the ``slow`` marker, so ``pytest -m "not
slow"`` runs the same criteria as ``ecf verify --suite quick``.
"""

import pytest

from ecfrac import checks


_BY_INDEX = dict(checks.CRITERIA)


def _tiered(test):
    """Mark a criterion's test slow when checks counts it as Monte Carlo."""
    index = int(test.__name__.split("_")[2])
    return pytest.mark.slow(test) if index in checks.MONTE_CARLO else test


def _run(index):
    result = _BY_INDEX[index]()
    line = (f"{'PASS' if result.passed else 'FAIL'} criterion {result.index}: "
            f"{result.name} ({result.seconds:.1f}s) - {result.detail}")
    print(line)
    assert result.passed, line


@_tiered
def test_criterion_01_exact_probabilities():
    _run(1)


@_tiered
def test_criterion_02_word_counts():
    _run(2)


@_tiered
def test_criterion_03_cylinder_widths():
    _run(3)


@_tiered
def test_criterion_04_round_trips():
    _run(4)


@_tiered
def test_criterion_05_transition_bounds():
    _run(5)


@_tiered
def test_criterion_06_digit_one_sandwich():
    _run(6)


@_tiered
def test_criterion_07_marginal_enclosures():
    _run(7)


@_tiered
def test_criterion_08_moment_growth():
    _run(8)


@_tiered
def test_criterion_09_rate_identities():
    _run(9)


@_tiered
def test_criterion_10_lln_mean():
    _run(10)


@_tiered
def test_criterion_11_clt_shape():
    _run(11)


@_tiered
def test_criterion_12_tail_slopes():
    _run(12)


@_tiered
def test_criterion_13_exponential_bound():
    _run(13)


@_tiered
def test_criterion_14_mdp_trend():
    _run(14)


def test_quick_tiers_select_the_same_criteria(monkeypatch):
    tests = {int(name.split("_")[2]): fn for name, fn in globals().items()
             if name.startswith("test_criterion_")}
    assert sorted(tests) == [index for index, _ in checks.CRITERIA]
    pytest_quick = {index for index, fn in tests.items()
                    if not any(mark.name == "slow" for mark in getattr(fn, "pytestmark", []))}
    # Stub criteria that return their own index, so run_suite's choice shows.
    monkeypatch.setattr(checks, "CRITERIA",
                        tuple((index, lambda index=index: index) for index in tests))
    assert set(checks.run_suite("quick")) == pytest_quick
    assert set(checks.run_suite("full")) == set(tests)
