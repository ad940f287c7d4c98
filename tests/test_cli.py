"""Command-line surface: formats, manifests, exit codes."""

import json
import math
import re

import pytest

from ecfrac.checks import CheckResult
from ecfrac.cli import main

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


def test_precision_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ECF_PRECISION_BITS", "256")
    _, out, _ = run(capsys, "pressure", "--theta", "1/2")
    doc = json.loads(out)
    assert doc["manifest"]["precision"] == 256


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


def test_verify_failure_exit_4(capsys, monkeypatch):
    fake = [CheckResult(1, "good", True, "fine", 0.0),
            CheckResult(2, "bad", False, "broken", 0.0)]
    monkeypatch.setattr("ecfrac.cli.run_suite", lambda suite: fake)
    code, out, err = run(capsys, "verify", "--suite", "quick")
    assert code == 4
    assert "PASS criterion 1" in out
    assert "FAIL criterion 2" in out
    assert "first failing criterion: 2 (bad)" in err


def test_verify_success_exit_0(capsys, monkeypatch):
    fake = [CheckResult(1, "good", True, "fine", 0.0)]
    monkeypatch.setattr("ecfrac.cli.run_suite", lambda suite: fake)
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert out.startswith("PASS criterion 1")
    assert err == ""


def test_negative_rational_values_parse(capsys):
    code, out, _ = run(capsys, "rate", "--which", "I", "--x", "-1/2")
    assert code == 0
    value = json.loads(out)["data"]["value"]
    # I(-1/2) = log 2 - 1/2 ~ 0.19315
    assert abs(float(value["lo"]) - 0.19314718) < 1e-6


def test_mode_alias(capsys):
    _, canonical, _ = run(capsys, "count", "--n", "3", "--m", "3",
                          "--mode", "exact-last")
    _, alias, _ = run(capsys, "count", "--n", "3", "--m", "3",
                      "--mode", "exact")
    assert json.loads(alias)["data"]["count"] == \
        json.loads(canonical)["data"]["count"] == 6


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
    # Lambda*(1) = I(1) = 1 - log 2, enclosed to the default target width
    assert float(value["lo"]) - 1e-12 <= 1 - math.log(2) <= float(value["hi"]) + 1e-12
    assert float(value["hi"]) - float(value["lo"]) < 1e-6


def test_mc_has_no_workers_flag():
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--task", "lln", "--seed", "1", "--trials", "5", "--n", "2",
              "--workers", "2"])
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
    code, out, _ = run(capsys, *_MC, "--task", "ldp", "--eps", "1/2", "--n-list", "2,3")
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
