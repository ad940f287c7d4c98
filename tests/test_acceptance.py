"""Acceptance gate: every numbered criterion, one pass/fail line each.

Each test runs one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with -s, and in the failure report otherwise).
The two tail-decay criteria share one seeded million-trial pass, so the
pair costs one simulation, not two.  The Monte Carlo criteria (10-13)
carry the ``slow`` marker: ``pytest -m "not slow"`` skips them.
"""

import pytest

from ecfrac import checks


_BY_INDEX = dict(checks.CRITERIA)


def _run(index):
    result = _BY_INDEX[index]()
    line = (f"{'PASS' if result.passed else 'FAIL'} criterion {result.index}: "
            f"{result.name} ({result.seconds:.1f}s) - {result.detail}")
    print(line)
    assert result.passed, line


def test_criterion_01_exact_probabilities():
    _run(1)


def test_criterion_02_word_counts():
    _run(2)


def test_criterion_03_cylinder_widths():
    _run(3)


def test_criterion_04_round_trips():
    _run(4)


def test_criterion_05_transition_bounds():
    _run(5)


def test_criterion_06_digit_one_sandwich():
    _run(6)


def test_criterion_07_marginal_enclosures():
    _run(7)


def test_criterion_08_moment_growth():
    _run(8)


def test_criterion_09_rate_identities():
    _run(9)


@pytest.mark.slow
def test_criterion_10_lln_mean():
    _run(10)


@pytest.mark.slow
def test_criterion_11_clt_shape():
    _run(11)


@pytest.mark.slow
def test_criterion_12_tail_slopes():
    _run(12)


@pytest.mark.slow
def test_criterion_13_exponential_bound():
    _run(13)


def test_criterion_14_mdp_trend():
    _run(14)
