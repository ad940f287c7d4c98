"""Command-line surface: formats, manifests, exit codes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import ecfrac
from ecfrac.checks import CheckResult
from ecfrac.cli import main
from ecfrac.montecarlo import SampleConfig, estimate_event
from ecfrac.numerics import OutwardInterval, interval_log

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_expand_json_document(capsys):
    code, out, _ = run(capsys, "expand", "--x", "7/10")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"manifest", "data"}
    assert doc["data"]["digits"] == [1, 2, 6]
    assert doc["data"]["truncated"] is False
    manifest = doc["manifest"]
    assert manifest["command"] == "expand"
    assert manifest["params"]["x"] == "7/10"
    assert manifest["version"]
    assert manifest["timestamp"]
    assert isinstance(manifest["precision"], int)


def test_json_round_trip_is_idempotent(capsys):
    code, out, _ = run(capsys, "cylinder", "--digits", "1,2,6")
    assert code == 0
    doc = json.loads(out)
    again = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert again == out


def test_rationals_are_strings_not_floats(capsys):
    _, out, _ = run(capsys, "cylinder", "--digits", "1,2,6")
    data = json.loads(out)["data"]
    for key in ("lo", "hi", "measure"):
        assert isinstance(data[key], str)
        assert RATIONAL.match(data[key]), data[key]
    assert data["measure"] == "1/230"


def test_reconstruct_exact(capsys):
    _, out, _ = run(capsys, "reconstruct", "--digits", "1,2,6")
    assert json.loads(out)["data"]["value"] == "7/10"


def test_csv_has_manifest_comments_and_header(capsys):
    code, out, _ = run(capsys, "--format", "csv", "marginal", "--n", "2",
                       "--cap", "3", "--exact")
    assert code == 0
    lines = out.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# command: marginal") for l in comments)
    assert body[0] == "k,lo,hi"
    assert len(body) == 1 + 3 + 1  # header, cap entries, tail row
    assert body[-1].startswith("tail,")


def test_format_flag_position_free(capsys):
    _, before, _ = run(capsys, "--format", "csv", "count", "--n", "4", "--m", "2")
    _, after, _ = run(capsys, "count", "--n", "4", "--m", "2", "--format", "csv")
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("# timestamp")]
    assert strip(before) == strip(after)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "count", "--n", "5", "--m", "4",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["data"]["count"] == 35


def test_documents_ignore_the_environment(tmp_path):
    # Precision is 128 bits whatever the environment holds; a fresh
    # interpreter per environment writes both documents.
    commands = {"pressure": ["pressure", "--theta", "1/2"],
                "moment": ["moment", "--n", "4", "--theta", "1/2"]}
    src = Path(ecfrac.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "ECF_PRECISION_BITS"}
    docs = {}
    for label, extra in (("unset", {}), ("set", {"ECF_PRECISION_BITS": "64"})):
        argvs = [argv + ["--output", str(tmp_path / f"{label}-{name}.json")]
                 for name, argv in commands.items()]
        script = f"from ecfrac.cli import main\nfor argv in {argvs!r}:\n    assert main(argv) == 0"
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**env, **extra, "PYTHONPATH": str(src)})
        for name in commands:
            doc = json.loads((tmp_path / f"{label}-{name}.json").read_text())
            del doc["manifest"]["timestamp"]
            assert doc["manifest"]["precision"] == 128
            docs[label, name] = doc
    for name in commands:
        assert docs["set", name] == docs["unset", name]


def test_interval_endpoints_ordered(capsys):
    _, out, _ = run(capsys, "rate", "--which", "I", "--x", "1")
    value = json.loads(out)["data"]["value"]
    assert float(value["lo"]) <= float(value["hi"])


def test_infinite_value_rendering(capsys):
    _, out, _ = run(capsys, "pressure", "--theta", "2")
    assert json.loads(out)["data"]["value"] == "infinity"


def test_mc_event_reports_rng_and_uncertified(capsys):
    _, out, _ = run(capsys, "mc", "--task", "event", "--seed", "3", "--trials",
                    "50", "--n", "2", "--event", "b1>=2")
    data = json.loads(out)["data"]
    assert "philox" in data["rng"].lower()
    assert "uncertified" in data
    assert RATIONAL.match(data["p_hat"])


@pytest.mark.parametrize("event, bounds", [
    ("b1>=2", (1, 2, None)),
    ("b2<=3", (2, 1, 3)),
    ("b2==2", (2, 2, 2)),
], ids=[">=", "<=", "=="])
def test_mc_event_matches_estimate_event(capsys, event, bounds):
    # The document carries estimate_event's counts for the event's range.
    code, out, _ = run(capsys, "mc", "--task", "event", "--seed", "3", "--trials",
                       "60", "--n", "2", "--event", event)
    est = estimate_event(SampleConfig(seed=3, trials=60, depth=2), *bounds)
    data = json.loads(out)["data"]
    assert code == 0
    assert (data["hits"], data["trials"], data["uncertified"], data["p_hat"]) == \
        (est.hits, est.trials, est.uncertified, str(est.p_hat))


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "expand", "--x", "not-a-number")
    assert code == 2
    assert "not-a-number" in err


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "40", "--m", "30")
    assert code == 3
    assert "13750991318793417920" in err  # the offending count is named


def test_bad_event_exit_2(capsys):
    code, _, err = run(capsys, "mc", "--task", "event", "--seed", "1",
                       "--trials", "10", "--n", "2", "--event", "q<3")
    assert code == 2


GOOD = CheckResult(1, "good", True, "fine", 0.5)
BAD = CheckResult(2, "bad", False, "broken", 0.25)


def _stub_suite(monkeypatch, *results):
    monkeypatch.setattr("ecfrac.cli.run_suite", lambda suite: list(results))


def test_verify_failure_exit_4(capsys, monkeypatch):
    _stub_suite(monkeypatch, GOOD, BAD)
    code, out, err = run(capsys, "verify", "--suite", "quick")
    assert code == 4
    data = json.loads(out)["data"]  # the document is emitted on failure too
    assert [c["passed"] for c in data["criteria"]] == [True, False]
    assert data["passed"] is False and data["first_failure"] == "2 (bad)"
    assert err == "first failing criterion: 2 (bad)\n"


def test_verify_success_exit_0(capsys, monkeypatch):
    _stub_suite(monkeypatch, GOOD)
    code, out, err = run(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "verify"
    assert doc["manifest"]["params"] == {"suite": "quick"}
    assert doc["manifest"]["version"] and doc["manifest"]["timestamp"]
    assert doc["data"] == {
        "suite": "quick", "passed": True, "first_failure": None,
        "criteria": [{"index": 1, "name": "good", "passed": True, "detail": "fine",
                      "seconds": 0.5}]}
    assert err == ""


def test_verify_csv_has_one_row_per_criterion(capsys, monkeypatch):
    _stub_suite(monkeypatch, GOOD, BAD)
    code, out, err = run(capsys, "verify", "--format", "csv")
    assert code == 4 and "first failing criterion: 2 (bad)" in err
    assert "# command: verify" in out.splitlines()
    assert _csv_body(out) == ["index,name,passed,detail,seconds",
                              "1,good,true,fine,0.5", "2,bad,false,broken,0.25"]


def test_negative_rational_values_parse(capsys):
    code, out, _ = run(capsys, "rate", "--which", "I", "--x", "-1/2")
    assert code == 0
    value = json.loads(out)["data"]["value"]
    # I(-1/2) = log 2 - 1/2 ~ 0.19315
    assert abs(float(value["lo"]) - 0.19314718) < 1e-6


def test_data_payload_reproducible(capsys):
    _, first, _ = run(capsys, "mc", "--task", "event", "--seed", "3",
                      "--trials", "40", "--n", "2", "--event", "b1>=2")
    _, second, _ = run(capsys, "mc", "--task", "event", "--seed", "3",
                       "--trials", "40", "--n", "2", "--event", "b1>=2")
    assert json.loads(first)["data"] == json.loads(second)["data"]


def test_growth_csv_rows(capsys):
    code, out, _ = run(capsys, "--format", "csv", "growth", "--theta", "1/2",
                       "--n-list", "2,3", "--cap", "20")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "n,cap,lo,hi"
    assert len(body) == 3


def _csv_body(out: str) -> list[str]:
    return [l for l in out.splitlines() if not l.startswith("#")]


def test_pressure_csv_rows(capsys):
    _, out, _ = run(capsys, "--format", "csv", "pressure", "--theta", "1/2")
    _, doc, _ = run(capsys, "pressure", "--theta", "1/2")
    value = json.loads(doc)["data"]["value"]
    assert _csv_body(out) == ["lo,hi", f"{value['lo']},{value['hi']}"]
    assert float(value["lo"]) <= float(value["hi"])
    _, out, _ = run(capsys, "--format", "csv", "pressure", "--theta", "2")
    assert _csv_body(out) == ["lo,hi", "infinity,infinity"]


def test_legendre_csv_row(capsys):
    _, out, _ = run(capsys, "--format", "csv", "legendre", "--x", "1")
    _, doc, _ = run(capsys, "legendre", "--x", "1")
    value = json.loads(doc)["data"]["value"]
    assert _csv_body(out) == ["lo,hi", f"{value['lo']},{value['hi']}"]
    # Lambda*(1) = I(1) = 1 - log 2
    enc = OutwardInterval.from_endpoints(Fraction(value["lo"]), Fraction(value["hi"]), 400)
    assert enc.overlaps(1 - interval_log(2, 400))
    assert enc.width < Fraction(1, 10**12)


def test_legendre_past_the_domain_edge(capsys):
    code, out, _ = run(capsys, "legendre", "--x", "1000", "--bracket-lo", "0",
                       "--bracket-hi", "3/2", "--target-width", "1/10")
    assert code == 0
    value = json.loads(out)["data"]["value"]
    # I(1000) = 1000 - log 1001 = 993.09..., the sup at theta = 1000/1001
    assert float(value["lo"]) <= 1000 - math.log(1001) <= float(value["hi"])
    code, out, err = run(capsys, "legendre", "--x", "1", "--bracket-lo", "999/1000",
                         "--bracket-hi", "2", "--target-width", "10")
    assert code == 2 and out == "" and "finite cut points" in err


@pytest.mark.parametrize("width", ["0", "-1"])
def test_legendre_nonpositive_target_width_exit_2(capsys, width):
    code, out, err = run(capsys, "legendre", "--x", "1", "--target-width", width)
    assert code == 2 and out == "" and "target width must be positive" in err


def test_mc_has_no_workers_flag():
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--task", "lln", "--seed", "1", "--trials", "5", "--n", "2",
              "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["marginal", "--n", "3", "--cap", "4", "--interval"],
    ["count", "--n", "3", "--m", "3", "--mode", "exact"],
    ["count", "--n", "3", "--m", "3", "--mode", "at-most"],
    ["rate", "--which", "Lambda", "--x", "1"],
], ids=["marginal-interval", "mode-exact", "mode-at-most", "rate-lambda"])
def test_no_second_spelling(argv):
    # One spelling per value: the interval marginal is the default, the
    # modes are exact-last and last-at-most, and the pressure is `pressure`.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_MC = ["mc", "--seed", "1", "--trials", "3", "--n", "3"]


@pytest.mark.parametrize("task, flag", [
    ("lln", ["--eps", "7"]),
    ("clt", ["--n-list", "2,3"]),
    ("event", ["--tail", "upper", "--event", "b1>=2"]),
    ("lln", ["--event", "b1>=2"]),
], ids=["eps", "n-list", "tail", "event"])
def test_mc_rejects_flag_of_another_task(capsys, task, flag):
    code, out, err = run(capsys, *_MC, "--task", task, *flag)
    assert code == 2 and out == ""
    assert "applies only to --task" in err


def test_mc_ldp_manifest_records_default_tail(capsys):
    # enough trials that both depths have hits and the slope can be fitted
    code, out, _ = run(capsys, "mc", "--seed", "1", "--trials", "200", "--n", "3",
                       "--task", "ldp", "--eps", "1/2", "--n-list", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["params"]["tail"] == "lower"
    assert doc["data"]["tail"] == "lower"
    code, out, _ = run(capsys, *_MC, "--task", "lln")
    assert code == 0 and "tail" not in json.loads(out)["manifest"]["params"]


@pytest.mark.parametrize("argv", [
    ["--given-last", "--n", "3", "--last", "2", "--prefix", "1,2"],
    ["--prefix", "1,2", "--n", "3"],
    ["--prefix", "1,2", "--last", "2"],
], ids=["prefix-with-given-last", "n-without-given-last", "last-without-given-last"])
def test_conditional_rejects_flags_of_the_other_form(capsys, argv):
    code, out, err = run(capsys, "conditional", "--next", "3", *argv)
    assert code == 2 and out == ""
    assert "error:" in err


def test_rate_rejects_digit_parameter_of_other_kinds(capsys):
    code, out, err = run(capsys, "rate", "--which", "I", "--x", "1", "--b", "5")
    assert code == 2 and out == ""
    assert "takes no digit parameter" in err


@pytest.mark.parametrize("argv, message", [
    (["--task", "lln", "--seed", "1", "--trials", "10", "--n", "3", "--bits", "2"],
     "no trial certified"),
    # At 1 bit every enclosure of b2 straddles 2, and no digit is exact.
    (["--task", "event", "--seed", "1", "--trials", "10", "--n", "2", "--bits", "1",
      "--event", "b2==2"], "no trial certified"),
    (["--task", "ldp", "--seed", "1", "--trials", "3", "--n", "3", "--eps", "2",
      "--tail", "upper", "--n-list", "2,3"], "need at least two n with hits"),
], ids=["lln-bits", "event-bits", "ldp-without-hits"])
def test_mc_limit_exit_3(capsys, argv, message):
    code, out, err = run(capsys, "mc", *argv)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["growth", "--theta", "1/2", "--n-list", ","], "not a comma-separated integer list"),
    (["mdp", "--lambda", "1", "--n-list", ","], "not a comma-separated integer list"),
    (["mc", "--task", "ldp", "--seed", "1", "--trials", "5", "--n", "3", "--eps", "1/2",
      "--n-list", ","], "not a comma-separated integer list"),
    # A certified prefix holds at most --n digits, so no --bits decides b3.
    (["mc", "--task", "event", "--seed", "1", "--trials", "5", "--n", "2",
      "--event", "b3>=1"], "digit position 3 exceeds the sampled depth --n 2"),
    # Refused before any moment DP runs, naming n, not inside interval_pow.
    (["mdp", "--lambda", "1", "--n-list", "4,0"], "mdp_curve needs n >= 1, got 0"),
    (["growth", "--theta", "1/2", "--n-list", "8,0"], "moment_growth_rate needs n >= 1, got 0"),
    (["mdp", "--lambda", "1", "--n-list", "4", "--cap", "0"], "mdp_curve needs cap >= 1, got 0"),
    (["moment", "--n", "4", "--theta", "1/2", "--cap", "0"],
     "moment_interval needs cap >= 1, got 0"),
    (["marginal", "--n", "2", "--cap", "0"], "marginal_interval_dp needs cap >= 1, got 0"),
    (["marginal", "--n", "0", "--cap", "3", "--exact"], "marginal_exact needs n >= 1, got 0"),
    (["marginal", "--n", "2", "--cap", "0", "--exact"], "marginal_exact needs cap >= 1, got 0"),
    # A negative budget is malformed input, not a budget refusal (exit 3).
    (["enumerate", "--n", "3", "--m", "2", "--limit", "-1"],
     "enumerate_words needs budget >= 0, got -1"),
    (["mc", "--task", "event", "--seed", "1", "--trials", "5", "--n", "2",
      "--event", "b0>=1"], "digit position must be >= 1"),
    (["mc", "--task", "event", "--seed", "1", "--trials", "5", "--n", "2"],
     "mc --task event needs --event"),
    (["mc", "--task", "ldp", "--seed", "1", "--trials", "5", "--n", "3", "--n-list", "2,3"],
     "mc --task ldp needs --eps and --n-list"),
    (["conditional", "--given-last", "--next", "3"], "--given-last needs --n and --last"),
    (["conditional", "--next", "3"], "need --prefix"),
    (["reconstruct", "--digits", "1,x"], "not a comma-separated integer list"),
], ids=["growth-empty-n-list", "mdp-empty-n-list", "ldp-empty-n-list", "event-beyond-depth",
        "mdp-n-below-one", "growth-n-below-one", "mdp-cap-below-one", "moment-cap-below-one",
        "marginal-cap-below-one", "marginal-exact-n-below-one", "marginal-exact-cap-below-one",
        "enumerate-negative-limit", "event-position-zero", "event-without-event",
        "ldp-without-eps", "given-last-without-n-and-last", "conditional-without-prefix",
        "reconstruct-non-integer-digit"])
def test_usage_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_expand_names_the_integer_string_limit(capsys):
    # Python refuses integer strings past its digit limit (4,300 by
    # default); a 6,021-digit denominator is a usage error that names the
    # limit, not a malformed number, and the input is not echoed.
    limit = sys.get_int_max_str_digits()
    if not 0 < limit < 6021:
        pytest.skip("the interpreter's integer string limit is off or above 6,021 digits")
    x = f"1/{Decimal(2**20000 + 12345)}"
    code, out, err = run(capsys, "expand", "--x", x)
    assert code == 2 and out == ""
    assert f"an integer over Python's limit of {limit} digits on integer strings" in err
    assert len(err) < 200


def test_mc_uncertified_interval_exit_3(capsys, monkeypatch):
    # A Clopper-Pearson endpoint that no tail bound certifies is a limit
    # error, never a printed interval.
    monkeypatch.setattr("ecfrac.montecarlo._tail_bound", lambda n, h, k: None)
    code, out, err = run(capsys, "mc", "--task", "event", "--seed", "1", "--trials", "10",
                         "--n", "1", "--event", "b1>=2")
    assert code == 3 and out == ""
    assert "no certified Clopper-Pearson endpoint" in err


def _unwritable_output(tmp_path, capsys, monkeypatch, handler, *argv):
    entered = []
    monkeypatch.setattr(f"ecfrac.cli.{handler}", lambda args: entered.append(args))
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert str(target) in err and not target.exists()
    assert entered == []  # refused before the command ran


def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch):
    _unwritable_output(tmp_path, capsys, monkeypatch, "_cmd_mc", "mc", "--task", "lln",
                       "--seed", "1", "--trials", "3000", "--n", "20")


def test_unwritable_output_stops_verify(tmp_path, capsys, monkeypatch):
    _unwritable_output(tmp_path, capsys, monkeypatch, "_cmd_verify", "verify")


def test_output_directory_removed_during_the_command_exit_2(tmp_path, capsys, monkeypatch):
    # The directory is removed after _check_output has passed, so _emit
    # cannot write the document; rmdir rather than permissions, since root
    # may write anywhere.
    directory = tmp_path / "gone"
    directory.mkdir()
    target = directory / "x.json"
    count = ecfrac.cli._cmd_count

    def removing(args):
        directory.rmdir()
        return count(args)

    monkeypatch.setattr("ecfrac.cli._cmd_count", removing)
    code, out, err = run(capsys, "count", "--n", "5", "--m", "4", "--output", str(target))
    assert code == 2 and out == ""
    assert str(target) in err and not target.exists()


def test_failed_command_leaves_output_as_it_was(tmp_path, capsys):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier document\n")
    fresh = tmp_path / "fresh.json"
    for target in (kept, fresh):
        code, _, err = run(capsys, "mc", "--task", "lln", "--seed", "1", "--trials", "10",
                           "--n", "3", "--bits", "2", "--output", str(target))
        assert code == 3 and "no trial certified" in err
    assert kept.read_text() == "earlier document\n"
    assert not fresh.exists()


def _readme_commands() -> list[list[str]]:
    """The command lines of README.md's fenced block of ecf examples, with
    backslash continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    block = next(b for b in blocks if b.split("\n", 1)[1].startswith("ecf "))
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("ecf ")]


def test_readme_examples_exit_0(capsys):
    # verify runs the acceptance criteria, which test_acceptance.py runs.
    commands = [argv for argv in _readme_commands() if argv[1] != "verify"]
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
