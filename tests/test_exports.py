"""The package namespace: every exported name resolves, none is listed twice."""

import ecfrac


def test_all_names_resolve_once():
    names = ecfrac.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ecfrac, name)]
    assert missing == []
