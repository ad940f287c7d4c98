"""Differential test of ``ecf``'s output against the old per-handler formatting.

Every corpus invocation is run through ``ecfrac.cli.main`` and through the
handlers and renderer of ``reference_cli``, in both formats; the documents
must agree byte for byte once the timestamp line is masked.
"""

import argparse
import json
import re

import pytest

from ecfrac import cli
from reference_cli import reference_document

CORPUS = [
    ["expand", "--x", "7/10"],
    ["expand", "--x", "355/1131", "--max-digits", "2"],
    ["reconstruct", "--digits", "1,2,6"],
    ["cylinder", "--digits", "1,2,6"],
    ["count", "--n", "4", "--m", "2"],
    ["count", "--n", "3", "--m", "3", "--mode", "last-at-most"],
    ["enumerate", "--n", "3", "--m", "2", "--mode", "last-at-most"],
    ["marginal", "--n", "3", "--cap", "4", "--exact"],
    ["marginal", "--n", "3", "--cap", "4"],
    ["conditional", "--prefix", "1,2", "--next", "3"],
    ["conditional", "--given-last", "--n", "3", "--last", "2", "--next", "3"],
    ["moment", "--n", "4", "--theta", "1/2", "--cap", "20"],
    ["moment", "--n", "4", "--theta", "2"],
    ["moment", "--n", "4", "--theta", "0"],
    ["growth", "--theta", "1/2", "--n-list", "2,3", "--cap", "20"],
    ["growth", "--theta", "3/2", "--n-list", "2,3", "--cap", "20"],
    ["pressure", "--theta", "1/2"],
    ["pressure", "--theta", "2"],
    ["pressure", "--theta", "-2"],
    ["rate", "--which", "I", "--x", "-1/2"],
    ["rate", "--which", "I", "--x", "-2"],
    # Every --which value, at a point where its kind differs from the
    # others: I and I_inf on I's linear middle branch, the rest at -2.
    ["rate", "--which", "I", "--x", "-9/10"],
    ["rate", "--which", "Iinf", "--x", "-9/10"],
    ["rate", "--which", "J", "--x", "-2"],
    ["rate", "--which", "engel-moment-limit", "--x", "-2"],
    ["rate", "--which", "modified-moment-limit", "--x", "-2"],
    ["rate", "--which", "Ib", "--x", "1", "--b", "3"],
    ["legendre", "--x", "1"],
    ["legendre", "--x", "1000", "--bracket-lo", "0", "--bracket-hi", "3/2",
     "--target-width", "1/10"],
    ["mdp", "--lambda", "6/5", "--n-list", "2,8", "--cap", "20"],
    ["mdp", "--lambda", "9", "--n-list", "4,8"],
    ["mc", "--task", "lln", "--seed", "1", "--trials", "20", "--n", "3"],
    ["mc", "--task", "clt", "--seed", "1", "--trials", "20", "--n", "3"],
    ["mc", "--task", "ldp", "--seed", "1", "--trials", "100", "--n", "5",
     "--eps", "2", "--tail", "upper", "--n-list", "1,2,5"],
    ["mc", "--task", "ldp", "--seed", "1", "--trials", "200", "--n", "3",
     "--eps", "1/2", "--n-list", "2,3"],
    ["mc", "--task", "event", "--seed", "3", "--trials", "50", "--n", "2",
     "--event", "b1>=2"],
    ["mc", "--task", "event", "--seed", "3", "--trials", "50", "--n", "2",
     "--event", "b2<=3", "--bits", "5"],
    ["mc", "--task", "event", "--seed", "3", "--trials", "50", "--n", "2",
     "--event", "b2=2"],
]

_TIMESTAMP = re.compile(r'^(# timestamp: |\s*"timestamp": ).*$', re.MULTILINE)


def _masked(text: str) -> str:
    masked, count = _TIMESTAMP.subn(r"\1<timestamp>", text)
    assert count == 1, text
    return masked


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_document_matches_reference(capsys, argv, fmt):
    argv = ["--format", fmt, *argv]
    expected = reference_document(cli._build_parser().parse_args(argv))
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _masked(out) == _masked(expected)


def test_corpus_names_every_subcommand():
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv in CORPUS} == set(commands) - {"verify"}


def _numbers_named_like_bounds(value, path="data"):
    """The paths of JSON numbers whose key ends in _lo or _hi."""
    found = []
    if isinstance(value, dict):
        for key, item in value.items():
            if key.endswith(("_lo", "_hi")) and type(item) in (int, float):
                found.append(f"{path}.{key}")
            found += _numbers_named_like_bounds(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            found += _numbers_named_like_bounds(item, f"{path}[{i}]")
    return found


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_no_json_number_is_named_like_a_bound(capsys, argv):
    # A key ending in _lo or _hi promises one end of a bound, which the
    # serializer prints as an exact or outward-rounded string; a bare JSON
    # number there would be a float estimate named like a bound.
    assert cli.main(["--format", "json", *argv]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert _numbers_named_like_bounds(data) == []
