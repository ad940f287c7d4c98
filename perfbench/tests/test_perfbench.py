"""Tests of the benchmark itself: output shape and the output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts src/ on the path)
import checks  # noqa: E402
from ecfrac import ExtendedReal, OutwardInterval, ProbInterval, TailRequest  # noqa: E402
from ecfrac.montecarlo import UPPER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result, samples, tracer, env, _ = run.run(workload, 7, 0.2, bool(trace), tiny=True)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.attach_units(result["metrics"], spec)
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert env["precision_bits"] == 128
    if trace:
        names = {s["name"] for s in tracer.spans}
        assert {"passes", "layers", "montecarlo.tail_threshold"} <= names
    else:
        assert samples["setup_runs"] == run.SETUP_REPEATS


def test_attach_units_rejects_a_missing_metric():
    with pytest.raises(RuntimeError):
        run.attach_units({"setup_s": 1.0}, SPEC["end_to_end"])


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_tails",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_record_their_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["start_ns"] >= outer["start_ns"] and inner["end_ns"] <= outer["end_ns"]


# -- each output check rejects fabricated wrong outputs ---------------------

REQUEST = TailRequest(UPPER, Fraction(1, 2), 10)


def estimate(hits=3, certified=10, uncertified=0, ci=(Fraction(1, 10), Fraction(6, 10))):
    p_hat = Fraction(hits, certified) if certified else Fraction(0)
    return SimpleNamespace(hits=hits, trials=certified, uncertified=uncertified,
                           p_hat=p_hat, ci_lo=ci[0], ci_hi=ci[1])


def test_tail_check_accepts_consistent_counts():
    assert checks.tail_errors({REQUEST: estimate()}, 10) == []


@pytest.mark.parametrize("bad", [
    estimate(hits=11, certified=10, ci=(Fraction(0), Fraction(1))),   # hits > certified
    estimate(certified=10, uncertified=1),                             # counts exceed trials
    estimate(ci=(Fraction(4, 10), Fraction(6, 10))),                   # CI misses p_hat
])
def test_tail_check_rejects_fabricated_counts(bad):
    assert checks.tail_errors({REQUEST: bad}, 10)


def report(certified=100, uncertified=0, mean=1.0, stdev=0.1, ks=0.05,
           quantiles=((0.25, -0.6, -0.67), (0.75, 0.7, 0.67))):
    return SimpleNamespace(trials=certified + uncertified, certified=certified,
                           uncertified=uncertified, mean=mean, stdev=stdev, ks=ks,
                           quantiles=quantiles)


def test_deep_check_accepts_consistent_reports():
    assert checks.deep_errors(report(), report(), 100) == []


@pytest.mark.parametrize("lln,clt", [
    (report(certified=99, uncertified=1), report()),       # the pair disagrees
    (report(), report(ks=1.5)),                            # KS distance out of range
    (report(), report(quantiles=((0.25, 0.7, -0.67), (0.75, -0.6, 0.67)))),
])
def test_deep_check_rejects_fabricated_reports(lln, clt):
    assert checks.deep_errors(lln, clt, 100)


def test_mean_gate():
    assert checks.mean_gate_errors([report(certified=2000)]) == []
    assert checks.mean_gate_errors([report(certified=2000, mean=0.98)])
    assert checks.mean_gate_errors([report(certified=500)])


def interval(lo, hi):
    return OutwardInterval.from_endpoints(Fraction(lo), Fraction(hi))


def test_enclosure_check():
    ref = (Fraction(1), Fraction(2))
    assert checks.enclosure_errors("k", interval(Fraction(3, 2), 3), ref) == []
    assert checks.enclosure_errors("k", interval(Fraction(21, 10), 3), ref)
    assert checks.enclosure_errors("k", None, ref)


def table(n, cap, entries, tail):
    return SimpleNamespace(n=n, cap=cap, tail=ProbInterval(*tail),
                           entries={k: ProbInterval(*e) for k, e in entries.items()})


def test_marginal_check():
    one = Fraction(1, 100)
    good = table(2, 1, {1: (Fraction(0), Fraction(1, 50))}, (Fraction(0), Fraction(1)))
    exact = table(2, 1, {1: (one, one)}, (1 - one, 1 - one))
    assert checks.marginal_errors(good, one, [(good, exact)]) == []
    wrong = table(2, 1, {1: (Fraction(1, 50), Fraction(1, 40))}, (Fraction(0), Fraction(1)))
    assert checks.marginal_errors(wrong, one, [])
    assert checks.marginal_errors(good, one, [(wrong, exact)])


def rate_outputs(x, leg_shift=0, leg_width=Fraction(1, 10**9), j_shift=0):
    value = Fraction(1, 3)  # a stand-in for I(x); only agreement is checked
    tiny = Fraction(1, 10**9)
    point = ExtendedReal.finite(interval(value, value + tiny))
    return {
        "legendre": ExtendedReal.finite(interval(value + leg_shift,
                                                 value + leg_shift + leg_width)),
        "I": point, "I_1": point, "I_big": point, "I_inf": point,
        "legendre_J": ExtendedReal.finite(interval(x * x / 2 + j_shift,
                                                   x * x / 2 + j_shift + tiny)),
    }


def test_rate_point_check():
    x = Fraction(1, 2)
    assert checks.rate_point_errors(x, rate_outputs(x)) == []
    assert checks.rate_point_errors(x, rate_outputs(x, leg_shift=Fraction(1, 10**5)))
    assert checks.rate_point_errors(x, rate_outputs(x, leg_width=Fraction(1, 10**5)))
    assert checks.rate_point_errors(x, rate_outputs(x, j_shift=Fraction(1, 10**6)))
    infinite = dict(rate_outputs(x), I_inf=ExtendedReal.infinity())
    assert checks.rate_point_errors(x, infinite)
